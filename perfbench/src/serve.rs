//! `submit` → reply through `QueryService`: the seed streams, the
//! open-loop load generator and the off-path check of its replies.

use crate::query::{same_answer, valid_cluster};
use crate::setup::Built;
use crate::stats::{distinct_prefix, ms, permutation, SplitMix};
use crate::{Report, Res, Workload};
use laca_core::extract::top_k_cluster;
use laca_core::{Laca, LacaParams};
use laca_diffusion::DiffusionWorkspace;
use laca_graph::NodeId;
use laca_service::{QueryAnswer, QueryHandle, QueryResult, QueryService, ServiceStats};
use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Seeds of the traced step split.
const TRACE_SEEDS: usize = 256;
/// Seeds the closed loop warms up on (it stops after `query::WARM`).
const WARM_SEEDS: usize = 1024;
/// Open-loop warm-up length.
const WARM_S: f64 = 1.0;

/// The seed streams of one run, all derived from `--seed`.
pub struct Streams {
    /// Distinct seeds of the traced step split.
    pub split: Vec<NodeId>,
    /// Timed seeds, in order.
    pub timed: Vec<NodeId>,
    /// Warm-up seeds, disjoint from `timed`.
    pub warm: Vec<NodeId>,
}

impl Streams {
    /// Query workloads draw distinct seeds uniformly (a random node
    /// order). `serve_zipf` draws `rate × seconds` requests from Zipf(1.0)
    /// over all nodes, whose popularity ranks are a random node order, and
    /// warms up on uniform draws from the nodes the timed stream never
    /// asks for, so no timed key is cached before timing starts.
    pub fn new(w: &Workload, n: usize, seed: u64, seconds: f64) -> Res<Streams> {
        let mut rng = SplitMix::new(seed);
        let order = permutation(n, &mut rng);
        if !w.serve {
            let (timed, warm) = order.split_at(n.saturating_sub(WARM_SEEDS));
            return Ok(Streams {
                split: timed.iter().copied().take(TRACE_SEEDS).collect(),
                timed: timed.to_vec(),
                warm: warm.to_vec(),
            });
        }
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / rank as f64;
            cdf.push(total);
        }
        let requests = (w.rate * seconds).ceil() as usize;
        let timed: Vec<NodeId> = (0..requests)
            .map(|_| {
                let u = rng.unit() * total;
                order[cdf.partition_point(|&c| c <= u).min(n - 1)]
            })
            .collect();
        let mut asked = vec![false; n];
        for &s in &timed {
            asked[s as usize] = true;
        }
        let unasked: Vec<NodeId> = order.iter().copied().filter(|&s| !asked[s as usize]).collect();
        if unasked.is_empty() {
            return Err("the timed stream asks for every node; nothing left to warm up on".into());
        }
        let warm = (0..(w.rate * WARM_S).ceil() as usize)
            .map(|_| unasked[rng.below(unasked.len())])
            .collect();
        Ok(Streams { split: distinct_prefix(&timed, TRACE_SEEDS), timed, warm })
    }
}

/// What one side of the load generator saw.
#[derive(Default)]
struct Side {
    /// `(request index, latency)`.
    latency_ms: Vec<(usize, f64)>,
    completed: u64,
    last_reply: Option<Instant>,
    kept: HashMap<NodeId, Arc<QueryAnswer>>,
    errors: Vec<String>,
}

impl Side {
    /// Records a reply that arrived `at` for request `i`, due at `due`.
    fn record(
        &mut self,
        (i, due, seed): (usize, Instant, NodeId),
        at: Instant,
        result: QueryResult,
        keep: &HashSet<NodeId>,
    ) {
        self.latency_ms.push((i, ms(at.saturating_duration_since(due))));
        self.last_reply = self.last_reply.max(Some(at));
        match result {
            Ok(answer) if answer.seed == seed => {
                self.completed += 1;
                if keep.contains(&seed) {
                    self.kept.entry(seed).or_insert(answer);
                }
            }
            Ok(answer) => self.errors.push(format!("seed {seed}: reply for seed {}", answer.seed)),
            Err(e) => self.errors.push(format!("seed {seed}: {e}")),
        }
    }
}

/// What one pass of the load generator measured.
pub struct Served {
    /// Latency of each request, in submission order.
    pub latency_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub completed: u64,
    /// From the first due time to the last reply.
    pub wall_s: f64,
    /// Service counters over the timed pass only.
    pub delta: ServiceStats,
    /// The first reply of each kept seed.
    pub kept: Vec<Arc<QueryAnswer>>,
    errors: Vec<String>,
}

/// The generator sleeps until this long before a request is due and then
/// spins: a sleep overshoots by tens of microseconds, which would
/// otherwise dominate the measured latency of cache hits.
const SPIN: Duration = Duration::from_micros(100);

/// A submitted request and the handle its reply arrives on.
type Pending = ((usize, Instant, NodeId), QueryHandle);

/// Offers `stream` to the service at a fixed `rate`, whatever the replies
/// do: this thread submits each request at its due time and records cache
/// hits itself; one collector thread waits for the rest in submission
/// order, so a reply that overtakes an older one is recorded when the
/// older one arrives. Latency runs from the due time, so generator stalls
/// count.
fn open_loop(svc: &QueryService, stream: &[NodeId], rate: f64, keep: &HashSet<NodeId>) -> Served {
    let (tx, rx) = mpsc::channel::<Pending>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut side = Side::default();
            for (request, handle) in rx {
                let result = handle.wait();
                side.record(request, Instant::now(), result, keep);
            }
            side
        });
        let mut side = Side::default();
        let (mut late_ms, mut submit_us) = (Vec::new(), Vec::new());
        let start = Instant::now();
        for (i, &seed) in stream.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let sent = loop {
                let now = Instant::now();
                match due.checked_duration_since(now) {
                    None => break now,
                    Some(wait) if wait > SPIN => std::thread::sleep(wait - SPIN),
                    Some(_) => std::hint::spin_loop(),
                }
            };
            let handle = svc.submit(seed);
            let back = Instant::now();
            late_ms.push(ms(sent.saturating_duration_since(due)));
            submit_us.push(ms(back - sent) * 1e3);
            if handle.immediate().is_some() {
                side.record((i, due, seed), back, handle.wait(), keep);
            } else {
                tx.send(((i, due, seed), handle)).expect("the collector outlives the generator");
            }
        }
        drop(tx);
        let other = collector.join().expect("the collector thread panicked");
        side.latency_ms.extend(other.latency_ms);
        side.completed += other.completed;
        side.last_reply = side.last_reply.max(other.last_reply);
        for (seed, answer) in other.kept {
            side.kept.entry(seed).or_insert(answer);
        }
        side.errors.extend(other.errors);
        let mut latency_ms = vec![f64::NAN; stream.len()];
        for (i, l) in side.latency_ms {
            latency_ms[i] = l;
        }
        Served {
            latency_ms,
            late_ms,
            submit_us,
            completed: side.completed,
            wall_s: side.last_reply.map_or(0.0, |t| (t - start).as_secs_f64()),
            delta: ServiceStats::default(),
            kept: side.kept.into_values().collect(),
            errors: side.errors,
        }
    })
}

/// Warms the service up on `warm`, then offers `timed` and takes the
/// service counters over the timed window; the first reply of each of
/// the first `checks` distinct timed seeds is kept for [`verify`].
pub fn measure(
    svc: &QueryService,
    rate: f64,
    warm: &[NodeId],
    timed: &[NodeId],
    checks: usize,
    report: &mut Report,
) -> Served {
    let warm = &warm[..warm.len().min((rate * WARM_S).ceil() as usize)];
    let warmed = open_loop(svc, warm, rate, &HashSet::new());
    let keep: HashSet<NodeId> = distinct_prefix(timed, checks).into_iter().collect();
    let before = svc.stats();
    let mut served = open_loop(svc, timed, rate, &keep);
    served.delta = svc.stats().delta_since(&before);
    report.attempted += (warm.len() + timed.len()) as u64;
    for e in warmed.errors.into_iter().chain(std::mem::take(&mut served.errors)) {
        report.fail(e);
    }
    served
}

/// Answers each of `seeds` serially with `Laca::bdd_with_stats_in` on
/// the index as built (before the persist round trip), off the timed
/// path. A kept service reply must match its serial answer bit for bit,
/// so the serial clusters' mean precision is that of the service's
/// answers; it is returned.
pub fn verify(
    built: &Built,
    params: &LacaParams,
    seeds: &[NodeId],
    kept: &[Arc<QueryAnswer>],
    report: &mut Report,
) -> Res<f64> {
    let engine = Laca::new(&built.graph, Some(&built.tnam), params.clone())?;
    let kept: HashMap<NodeId, &QueryAnswer> = kept.iter().map(|a| (a.seed, &**a)).collect();
    let mut ws = DiffusionWorkspace::new();
    let mut precision = 0.0;
    for &seed in seeds {
        let (rho, stats) = engine.bdd_with_stats_in(seed, &mut ws)?;
        if let Some(answer) = kept.get(&seed) {
            if !same_answer((&answer.rho, &answer.stats), (&rho, &stats)) {
                report.fail(format!("seed {seed}: service reply differs from the serial answer"));
            }
        }
        let size = built.truth_len(seed);
        let cluster = top_k_cluster(&rho, seed, size);
        if !valid_cluster(&cluster, seed, size) {
            report.fail(format!("seed {seed}: malformed cluster of {}", cluster.len()));
        }
        precision += built.precision(seed, &cluster);
    }
    Ok(precision / seeds.len() as f64)
}
