//! Seed → cluster through `Laca::cluster`: the closed loop of the query
//! workloads, and the traced run that rebuilds each query from the public
//! calls of every layer to split it into Algo. 4's steps.

use crate::setup::Built;
use crate::stats::ms;
use crate::{Report, Res};
use laca_core::extract::top_k_cluster;
use laca_core::laca::LacaQueryStats;
use laca_core::{Laca, LacaParams};
use laca_diffusion::{
    adaptive_diffuse_in, DiffusionParams, DiffusionResult, DiffusionWorkspace, SparseVec,
};
use laca_graph::NodeId;
use std::time::{Duration, Instant};

/// Timed queries a run needs at least, so that ten samples lie beyond
/// its 99th percentile.
pub const MIN_SAMPLES: usize = 1000;
/// Warm-up before timing: page faults, workspace growth and cache warmth
/// otherwise land in the first timed queries.
pub const WARM: Duration = Duration::from_secs(1);

/// What the closed loop measured.
pub struct Closed {
    pub latency_ms: Vec<f64>,
    pub wall_s: f64,
    pub precision: f64,
}

/// One thread answers `Laca::cluster(seed, |Ys|)` for distinct seeds back
/// to back: first the `warm` seeds for [`WARM`], then the `timed` seeds
/// until `seconds` have passed and at least [`MIN_SAMPLES`] were timed.
pub fn closed_loop(
    built: &Built,
    params: &LacaParams,
    warm: &[NodeId],
    timed: &[NodeId],
    seconds: f64,
    report: &mut Report,
) -> Res<Closed> {
    let engine = Laca::new(&built.graph, Some(&built.tnam), params.clone())?;
    let warm_end = Instant::now() + WARM;
    for &seed in warm.iter().take_while(|_| Instant::now() < warm_end) {
        report.attempted += 1;
        if let Err(e) = engine.cluster(seed, built.truth_len(seed)) {
            report.fail(format!("warm-up seed {seed}: {e}"));
        }
    }
    let mut latency_ms = Vec::new();
    let mut precision = 0.0;
    let start = Instant::now();
    for &seed in timed {
        if latency_ms.len() >= MIN_SAMPLES && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let size = built.truth_len(seed);
        report.attempted += 1;
        let t = Instant::now();
        let result = engine.cluster(seed, size);
        let dt = t.elapsed();
        match result {
            Ok(cluster) if valid_cluster(&cluster, seed, size) => {
                latency_ms.push(ms(dt));
                precision += built.precision(seed, &cluster);
            }
            Ok(cluster) => {
                report.fail(format!("seed {seed}: malformed cluster of {}", cluster.len()))
            }
            Err(e) => report.fail(format!("seed {seed}: {e}")),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let precision = precision / latency_ms.len() as f64;
    Ok(Closed { latency_ms, wall_s, precision })
}

/// A cluster holds the seed and at most `size` nodes.
pub fn valid_cluster(cluster: &[NodeId], seed: NodeId, size: usize) -> bool {
    cluster.len() <= size.max(1) && cluster.contains(&seed)
}

/// `(node, bit pattern)` pairs in node order: equality is bit-identity.
fn bits(v: &SparseVec) -> Vec<(NodeId, u64)> {
    let mut p: Vec<(NodeId, u64)> = v.iter().map(|(i, x)| (i, x.to_bits())).collect();
    p.sort_unstable();
    p
}

/// Two answers are the same when ρ' matches bit for bit and both
/// diffusions made the same pushes over the same Step-1 support.
pub fn same_answer(
    (rho, stats): (&SparseVec, &LacaQueryStats),
    (ref_rho, ref_stats): (&SparseVec, &LacaQueryStats),
) -> bool {
    stats.rwr.push_operations == ref_stats.rwr.push_operations
        && stats.bdd.push_operations == ref_stats.bdd.push_operations
        && stats.rwr_support == ref_stats.rwr_support
        && stats.phi_l1.to_bits() == ref_stats.phi_l1.to_bits()
        && bits(rho) == bits(ref_rho)
}

/// One query rebuilt step by step, with the time each step took.
struct Traced {
    rho: SparseVec,
    stats: LacaQueryStats,
    cluster: Vec<NodeId>,
    step_ns: [f64; 4],
}

/// Algo. 4 composed from the public calls each layer exposes, in the
/// order and with the arguments `Laca::bdd_with_stats_in` uses, followed
/// by the extraction `Laca::cluster` runs. Temporaries are dropped where
/// the library drops them, so each step is charged for its own frees.
fn composed(
    built: &Built,
    params: &LacaParams,
    seed: NodeId,
    size: usize,
    ws: &mut DiffusionWorkspace,
) -> Res<Traced> {
    let (graph, tnam) = (&*built.graph, &*built.tnam);
    let at = |epsilon| DiffusionParams {
        alpha: params.alpha,
        epsilon,
        sigma: params.sigma,
        record_residuals: false,
    };
    let t0 = Instant::now();
    // Step 1: π' = AdaptiveDiffuse(1⁽ˢ⁾) at ε.
    let DiffusionResult { reserve: pi, residual: pi_residual, stats: rwr } =
        adaptive_diffuse_in(graph, &SparseVec::unit(seed), &at(params.epsilon), ws)?;
    let t1 = Instant::now();
    // Step 2 (Eq. 12–13) over π' in ascending node order.
    let phi = {
        let pairs = pi.to_sorted_pairs();
        let mut psi = tnam.new_accumulator();
        for &(i, v) in &pairs {
            tnam.accumulate_into(&mut psi, i as usize, v);
        }
        let mut phi = SparseVec::new();
        for &(i, _) in &pairs {
            phi.set(i, tnam.dot_row(&psi, i as usize).max(0.0) * graph.weighted_degree(i));
        }
        phi
    };
    let phi_l1 = phi.l1_norm();
    let t2 = Instant::now();
    // Step 3: diffuse φ' at ε·‖φ'‖₁ (skipped when φ' is empty).
    let bdd = if phi_l1 == 0.0 {
        None
    } else {
        Some(adaptive_diffuse_in(graph, &phi, &at(params.epsilon * phi_l1), ws)?)
    };
    let t3 = Instant::now();
    // Finish: ρ' = q/d over the sorted reserve, then the top-|Ys| nodes.
    let mut rho = SparseVec::new();
    if let Some(q) = &bdd {
        for (i, v) in q.reserve.to_sorted_pairs() {
            rho.set(i, v / graph.weighted_degree(i));
        }
    }
    let stats = LacaQueryStats {
        rwr,
        bdd: bdd.map(|q| q.stats).unwrap_or_default(),
        rwr_support: pi.support_size(),
        phi_l1,
    };
    drop((pi, pi_residual, phi));
    let cluster = top_k_cluster(&rho, seed, size);
    let t4 = Instant::now();
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
    Ok(Traced { rho, stats, cluster, step_ns: [ns(t0, t1), ns(t1, t2), ns(t2, t3), ns(t3, t4)] })
}

/// Sums over the traced seeds.
#[derive(Default)]
pub struct Split {
    pub queries: usize,
    /// Time in Step 1, Step 2, Step 3 and the finish.
    pub step_ns: [f64; 4],
    /// The same queries through `Laca::cluster`, untraced.
    pub untraced_ns: f64,
    pub step1_pushes: f64,
    pub step1_support: f64,
    pub step1_touched: f64,
    pub step3_pushes: f64,
    pub step3_support: f64,
    pub step3_touched: f64,
    pub kept: f64,
}

/// Runs every seed both through the composed pipeline (timed per step)
/// and through `Laca::cluster` (timed whole), alternating which goes
/// first, and checks each composed ρ' against `Laca::bdd_with_stats_in`
/// bit for bit: the split must measure the shipped path, not a copy
/// that drifted from it.
pub fn split(
    built: &Built,
    params: &LacaParams,
    seeds: &[NodeId],
    report: &mut Report,
) -> Res<Split> {
    let engine = Laca::new(&built.graph, Some(&built.tnam), params.clone())?;
    let (mut ws, mut ref_ws) = (DiffusionWorkspace::new(), DiffusionWorkspace::new());
    let untraced = |seed, size| -> Res<(Vec<NodeId>, f64)> {
        let t = Instant::now();
        let cluster = engine.cluster(seed, size)?;
        Ok((cluster, t.elapsed().as_nanos() as f64))
    };
    let mut s = Split::default();
    for (k, &seed) in seeds.iter().enumerate() {
        let size = built.truth_len(seed);
        report.attempted += 1;
        let (traced, (cluster, whole_ns)) = if k % 2 == 0 {
            let u = untraced(seed, size)?;
            (composed(built, params, seed, size, &mut ws)?, u)
        } else {
            let t = composed(built, params, seed, size, &mut ws)?;
            (t, untraced(seed, size)?)
        };
        let (ref_rho, ref_stats) = engine.bdd_with_stats_in(seed, &mut ref_ws)?;
        if !same_answer((&traced.rho, &traced.stats), (&ref_rho, &ref_stats))
            || traced.cluster != cluster
        {
            report
                .fail(format!("seed {seed}: composed steps diverge from Laca::bdd_with_stats_in"));
        }
        s.queries += 1;
        for (sum, t) in s.step_ns.iter_mut().zip(traced.step_ns) {
            *sum += t;
        }
        s.untraced_ns += whole_ns;
        let st = &traced.stats;
        s.step1_pushes += st.rwr.push_operations as f64;
        s.step1_support += st.rwr_support as f64;
        s.step1_touched += st.rwr.touched as f64;
        s.step3_pushes += st.bdd.push_operations as f64;
        s.step3_support += traced.rho.support_size() as f64;
        s.step3_touched += st.bdd.touched as f64;
        s.kept += traced.cluster.len() as f64;
    }
    Ok(s)
}
