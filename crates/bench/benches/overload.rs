//! Open-loop overload benchmark for `laca-service`: tail latency of
//! *admitted* queries when offered load exceeds capacity, under the
//! shedding admission policy.
//!
//! Unlike the closed-loop serving bench (which submits the next query
//! when the previous one answers, so offered load can never exceed
//! capacity), this harness fires requests on a fixed arrival schedule —
//! `λ = multiplier × capacity` — whether or not earlier requests have
//! resolved. That is the regime admission control exists for: with
//! [`AdmissionPolicy::Shed`] and a shallow queue, an admitted query's
//! queueing delay is bounded by queue depth × service time no matter how
//! far the offered load exceeds capacity, so admitted-side p99 at 4×
//! should sit within ~2× of the 1× baseline while the excess turns into
//! explicit `Overloaded` rejections (`shed_fraction/*`).
//!
//! Legs (single worker; capacity is calibrated closed-loop first):
//!
//! * `overload/shed/x1` — cache off, `Shed`, offered load ≈ capacity.
//! * `overload/shed/x4` — same service, offered load ≈ 4× capacity.
//! * `overload/smart/x4` — cache on, `Shed`, 4×: the Zipf head resolves
//!   as hits/joins (never shed), so far less is shed at the same load.
//!
//! Requests draw seeds from a Zipf(1.0) distribution over a 256-seed
//! pool (hand-rolled sampler — no `rand` in the hot path). Writes
//! `BENCH_overload.json` at the repo root (override with
//! `BENCH_OVERLOAD_JSON`): per-leg percentile timings over admitted
//! queries plus derived shed fractions, the p99 degradation ratio, and
//! the `host/threads` caveat field (the committed baseline comes from a
//! 1-core container).

use criterion::{percentile_ns, BenchResult};
use laca_core::tnam::TnamConfig;
use laca_core::{LacaParams, MetricFn};
use laca_graph::datasets::pubmed_like;
use laca_graph::NodeId;
use laca_service::{
    AdmissionPolicy, ClusterIndex, QueryHandle, QueryService, ServiceConfig, ServiceError,
};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Distinct seeds in the Zipf pool.
const SEED_POOL: usize = 256;
/// Zipf exponent (1.0 = classic web-like skew).
const ZIPF_S: f64 = 1.0;
/// Requests fired per open-loop leg.
const REQUESTS: usize = 800;
/// Submission-queue depth for the overload legs: shallow, so admitted
/// queueing delay (≈ depth × service time) stays bounded.
const QUEUE_DEPTH: usize = 4;
/// Closed-loop queries used to calibrate the service rate.
const CALIBRATION: usize = 64;

fn build_index() -> ClusterIndex {
    let ds = pubmed_like().generate("pubmed").unwrap();
    ClusterIndex::from_dataset(&ds, &TnamConfig::new(32, MetricFn::Cosine), LacaParams::new(1e-4))
        .unwrap()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic Zipf(`ZIPF_S`) request stream over the seed pool.
fn zipf_workload(n_nodes: usize, len: usize, rng_seed: u64) -> Vec<NodeId> {
    let pool: Vec<NodeId> = (0..SEED_POOL).map(|i| ((i * 37) % n_nodes) as NodeId).collect();
    // Cumulative weights 1/rank^s, normalized.
    let mut cdf = Vec::with_capacity(SEED_POOL);
    let mut acc = 0.0f64;
    for rank in 1..=SEED_POOL {
        acc += 1.0 / (rank as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    let total = acc;
    (0..len)
        .map(|i| {
            let bits = splitmix64(rng_seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let u = (bits >> 11) as f64 / (1u64 << 53) as f64 * total;
            let idx = cdf.partition_point(|&c| c < u).min(SEED_POOL - 1);
            pool[idx]
        })
        .collect()
}

/// Mean closed-loop service time per query (cache off, one worker) —
/// the capacity estimate the open-loop arrival schedules multiply.
fn calibrate_service_ns(index: &ClusterIndex) -> u64 {
    let service = QueryService::start(
        index.clone(),
        ServiceConfig::default().with_workers(1).with_cache_per_worker(0).with_queue_capacity(16),
    );
    let seeds: Vec<NodeId> = (0..CALIBRATION).map(|i| ((i * 37) % index.n()) as NodeId).collect();
    // Warm up allocators and branch predictors, then time a full pass.
    for r in service.query_batch(&seeds) {
        criterion::black_box(r.expect("calibration query failed"));
    }
    let t0 = Instant::now();
    for r in service.query_batch(&seeds) {
        criterion::black_box(r.expect("calibration query failed"));
    }
    (t0.elapsed().as_nanos() as u64 / CALIBRATION as u64).max(1)
}

/// Outcome of one open-loop leg.
struct LegOutcome {
    result: BenchResult,
    admitted: usize,
    shed: usize,
    offered_qps: f64,
    elapsed: Duration,
}

/// Sleeps-then-yields until `deadline`. Yielding (not spinning) matters
/// on the 1-core container the baselines come from: a spin-waiting
/// submitter would steal the worker's CPU and inflate the very service
/// times the leg measures.
fn pace_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_millis(1) {
            std::thread::sleep(remaining - Duration::from_micros(500));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Runs one open-loop leg: fire `REQUESTS` submissions on the arrival
/// schedule, collect admitted-query latencies on a side thread (waits in
/// submission order — completion order under the FIFO queue), and fold
/// them into a [`BenchResult`].
fn run_leg(
    label: &str,
    service: &QueryService,
    workload: &[NodeId],
    interarrival: Duration,
) -> LegOutcome {
    let (tx, rx) = mpsc::channel::<(Instant, QueryHandle)>();
    let collector = std::thread::spawn(move || {
        let mut latencies_ns: Vec<u128> = Vec::new();
        let mut late_shed = 0usize;
        while let Ok((submitted, handle)) = rx.recv() {
            match handle.wait() {
                Ok(answer) => {
                    criterion::black_box(answer.rho.support_size());
                    latencies_ns.push(submitted.elapsed().as_nanos());
                }
                // A flight leader shed at the queue resolves its whole
                // flight `Overloaded` *after* submit returned — the
                // cache-on (`overload/smart/x4`) leg's shed verdicts land
                // here.
                Err(ServiceError::Overloaded) => late_shed += 1,
                Err(e) => panic!("admitted query failed mid-leg: {e}"),
            }
        }
        (latencies_ns, late_shed)
    });
    let mut shed = 0usize;
    let start = Instant::now();
    for (i, &seed) in workload.iter().enumerate() {
        pace_until(start + interarrival * i as u32);
        let handle = service.submit(seed);
        if matches!(handle.immediate_error(), Some(ServiceError::Overloaded)) {
            shed += 1;
        } else {
            tx.send((Instant::now(), handle)).expect("collector died");
        }
    }
    drop(tx);
    let (mut latencies_ns, late_shed) = collector.join().expect("collector panicked");
    shed += late_shed;
    let elapsed = start.elapsed();
    assert!(!latencies_ns.is_empty(), "{label}: every request was shed — calibration is off");
    latencies_ns.sort_unstable();
    let n = latencies_ns.len();
    let mean = latencies_ns.iter().sum::<u128>() / n as u128;
    let result = BenchResult {
        label: label.to_string(),
        mean_ns: mean,
        min_ns: latencies_ns[0],
        max_ns: latencies_ns[n - 1],
        tmin_ns: latencies_ns[n / 10],
        median_ns: latencies_ns[n / 2],
        p50_ns: percentile_ns(&latencies_ns, 50, 100),
        p99_ns: percentile_ns(&latencies_ns, 99, 100),
        p999_ns: percentile_ns(&latencies_ns, 999, 1000),
        samples: n,
    };
    LegOutcome {
        result,
        admitted: n,
        shed,
        offered_qps: 1e9 / interarrival.as_nanos() as f64,
        elapsed,
    }
}

fn main() {
    eprintln!("[overload bench] building pubmed-like index (TNAM k=32)...");
    let index = build_index();
    let service_ns = calibrate_service_ns(&index);
    eprintln!(
        "[overload bench] calibrated service time: {:?}/query ({:.0} q/s capacity)",
        Duration::from_nanos(service_ns),
        1e9 / service_ns as f64
    );

    let mut results: Vec<BenchResult> = Vec::new();
    let mut derived: Vec<(String, f64)> = Vec::new();
    let mut record = |outcome: LegOutcome| {
        let frac = outcome.shed as f64 / (outcome.admitted + outcome.shed) as f64;
        let leg = outcome.result.label.trim_start_matches("overload/").replace('/', "_");
        eprintln!(
            "[overload bench] {}: {} admitted / {} shed in {:?} (p99 {:?})",
            outcome.result.label,
            outcome.admitted,
            outcome.shed,
            outcome.elapsed,
            Duration::from_nanos(outcome.result.p99_ns as u64),
        );
        derived.push((format!("shed_fraction/{leg}"), frac));
        derived.push((format!("offered_qps/{leg}"), outcome.offered_qps));
        derived.push((
            format!("served_qps/{leg}"),
            outcome.admitted as f64 / outcome.elapsed.as_secs_f64(),
        ));
        results.push(outcome.result);
    };

    // Shed legs share one service: same cache state (none), same queue.
    let shed_service = QueryService::start(
        index.clone(),
        ServiceConfig::default()
            .with_workers(1)
            .with_cache_per_worker(0)
            .with_queue_capacity(QUEUE_DEPTH)
            .with_admission(AdmissionPolicy::Shed),
    );
    let workload = zipf_workload(index.n(), REQUESTS, 0x10ad);
    record(run_leg("overload/shed/x1", &shed_service, &workload, Duration::from_nanos(service_ns)));
    record(run_leg(
        "overload/shed/x4",
        &shed_service,
        &workload,
        Duration::from_nanos(service_ns / 4),
    ));
    drop(shed_service);

    // Cache-on leg: the Zipf head coalesces and hits.
    let smart_service = QueryService::start(
        index.clone(),
        ServiceConfig::default()
            .with_workers(1)
            .with_cache_per_worker(SEED_POOL)
            .with_queue_capacity(QUEUE_DEPTH)
            .with_admission(AdmissionPolicy::Shed),
    );
    record(run_leg(
        "overload/smart/x4",
        &smart_service,
        &workload,
        Duration::from_nanos(service_ns / 4),
    ));
    let smart_stats = smart_service.stats();
    derived.push(("hit_rate/smart_x4".to_string(), smart_stats.hit_rate()));
    derived.push(("coalesced/smart_x4".to_string(), smart_stats.coalesced as f64));
    drop(smart_service);

    // The acceptance headline: admitted-query p99 at 4× offered load
    // versus the 1× baseline, both under Shed. Bounded queueing delay
    // should keep this well under the 2× bar.
    let p99 = |label: &str| {
        results.iter().find(|r| r.label == label).map(|r| r.p99_ns as f64).unwrap_or(f64::NAN)
    };
    derived.push((
        "p99_ratio_4x_over_1x".to_string(),
        p99("overload/shed/x4") / p99("overload/shed/x1"),
    ));
    derived.push(("service_time_ns".to_string(), service_ns as f64));
    derived.push(("workload/seed_pool".to_string(), SEED_POOL as f64));
    derived.push(("workload/zipf_s".to_string(), ZIPF_S));
    derived.push(("workload/requests".to_string(), REQUESTS as f64));
    derived.push(("workload/queue_depth".to_string(), QUEUE_DEPTH as f64));
    // Committed baselines come from a 1-core container: read absolute
    // times and ratios together with this field (PR 4 convention).
    derived.push(("host/threads".to_string(), rayon::current_num_threads() as f64));

    let path =
        std::env::var("BENCH_OVERLOAD_JSON").map(std::path::PathBuf::from).unwrap_or_else(|_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_overload.json")
        });
    criterion::write_json(&path, &results, &derived).expect("failed to write bench JSON");
    if let Ok(generic) = std::env::var("CRITERION_JSON") {
        if !generic.is_empty() {
            criterion::write_json(std::path::Path::new(&generic), &results, &derived)
                .expect("failed to write CRITERION_JSON");
        }
    }
    println!(
        "\nwrote {} results and {} derived entries to {}",
        results.len(),
        derived.len(),
        path.display()
    );
    for (k, v) in &derived {
        println!("{k:<28} {v:.2}");
    }
}
