//! **AdaptiveDiffuse** (Algo. 2) and the pure non-greedy iteration
//! (Eq. 17) it interleaves with the greedy one.
//!
//! The paper's Section IV-B observation: GreedyDiffuse converts only a
//! small, low-degree moiety of the residual per iteration and so converges
//! slowly on real graphs, while the non-greedy full-front update
//! `q += (1−α)·r; r ← α·r·P` shrinks `‖r‖₁` geometrically but costs up to
//! `vol(supp(r))` per iteration. AdaptiveDiffuse runs non-greedy steps
//! while (a) the above-threshold fraction `|supp(γ)|/|supp(r)|` exceeds
//! `σ` and (b) the accumulated non-greedy cost stays below the greedy
//! budget `‖f‖₁ / ((1−α)ε)`; otherwise it falls back to greedy steps,
//! preserving Theorem IV.2's guarantee and Lemma IV.3's volume bound.
//!
//! Both loops run on a [`DiffusionWorkspace`], which maintains `vol(r)`
//! and the above-threshold count incrementally as pushes happen — the
//! Algo. 2 branch test is `O(1)` per iteration instead of the reference
//! implementation's `O(|supp(r)|)` rescan. Both take their non-greedy
//! steps through one workspace method, which runs a step whose `vol(r)`
//! covers most of an unweighted graph as a pull over the CSR rows
//! instead of a scatter, with the same bits (see the workspace docs).

use crate::greedy::greedy_run_in;
use crate::workspace::{with_thread_workspace, DiffusionWorkspace};
use crate::SparseVec;
use crate::{check_input, DiffusionError, DiffusionParams, DiffusionResult, DiffusionStats};
use laca_graph::CsrGraph;

/// Pure non-greedy diffusion: iterates Eq. 17 until every residual entry is
/// below the Eq. 15 threshold. This is the "Non-greedy" series of Fig. 5 and
/// Table II; it satisfies the same Eq. 14 bound but without the
/// `O(‖f‖₁/((1−α)ε))` work bound (each iteration may cost `O(m)`).
pub fn nongreedy_diffuse(
    graph: &CsrGraph,
    f: &SparseVec,
    params: &DiffusionParams,
) -> Result<DiffusionResult, DiffusionError> {
    with_thread_workspace(|ws| nongreedy_diffuse_in(graph, f, params, ws))
}

/// [`nongreedy_diffuse`] on a caller-managed workspace.
// lint: hot-path
pub fn nongreedy_diffuse_in(
    graph: &CsrGraph,
    f: &SparseVec,
    params: &DiffusionParams,
    ws: &mut DiffusionWorkspace,
) -> Result<DiffusionResult, DiffusionError> {
    let stats = nongreedy_run_in(graph, f, params, ws)?;
    let (reserve, residual) = ws.to_sparse();
    Ok(DiffusionResult { reserve, residual, stats })
}

/// The non-greedy loop itself: runs [`nongreedy_diffuse_in`]'s iteration
/// but leaves `q` and `r` in `ws` instead of converting them to
/// [`SparseVec`]s; [`DiffusionWorkspace::reserve_into`] reads `q` back.
// lint: hot-path
pub fn nongreedy_run_in(
    graph: &CsrGraph,
    f: &SparseVec,
    params: &DiffusionParams,
    ws: &mut DiffusionWorkspace,
) -> Result<DiffusionStats, DiffusionError> {
    params.validate()?;
    check_input(f)?;
    let epoch_resets_before = ws.epoch_resets_total();
    ws.begin(graph.n());
    ws.seed::<true>(graph, params.epsilon, f);
    let mut stats = DiffusionStats::default();
    while ws.has_above() {
        stats.iterations += 1;
        stats.nongreedy_iterations += 1;
        stats.nongreedy_cost += ws.vol_r();
        stats.push_operations += ws.nongreedy_step(graph, params.alpha, params.epsilon);
        if params.record_residuals {
            stats.residual_history.push(ws.residual_l1());
        }
    }
    stats.frontier_peak = ws.frontier_peak();
    stats.touched = ws.touched_len();
    stats.epoch_resets = (ws.epoch_resets_total() - epoch_resets_before) as usize;
    Ok(stats)
}

/// Runs AdaptiveDiffuse (Algo. 2) on `graph` from the initial vector `f`,
/// using the calling thread's cached workspace.
///
/// Guarantees (Theorem IV.2, Lemma IV.3): the returned reserve satisfies
/// Eq. 14, runs in `O(max{|supp(f)|, ‖f‖₁/((1−α)ε)})`, and has
/// `|supp(q)| ≤ vol(q) ≤ β·‖f‖₁/((1−α)ε)` with `β ∈ [1, 2]`
/// (`β = 1` when `σ ≥ 1`).
pub fn adaptive_diffuse(
    graph: &CsrGraph,
    f: &SparseVec,
    params: &DiffusionParams,
) -> Result<DiffusionResult, DiffusionError> {
    with_thread_workspace(|ws| adaptive_diffuse_in(graph, f, params, ws))
}

/// [`adaptive_diffuse`] on a caller-managed workspace.
// lint: hot-path
pub fn adaptive_diffuse_in(
    graph: &CsrGraph,
    f: &SparseVec,
    params: &DiffusionParams,
    ws: &mut DiffusionWorkspace,
) -> Result<DiffusionResult, DiffusionError> {
    let stats = adaptive_run_in(graph, f, params, ws)?;
    let (reserve, residual) = ws.to_sparse();
    Ok(DiffusionResult { reserve, residual, stats })
}

/// The AdaptiveDiffuse loop itself: runs [`adaptive_diffuse_in`]'s
/// iteration but leaves `q` and `r` in `ws` instead of converting them to
/// [`SparseVec`]s; [`DiffusionWorkspace::reserve_into`] reads `q` back.
// lint: hot-path
pub fn adaptive_run_in(
    graph: &CsrGraph,
    f: &SparseVec,
    params: &DiffusionParams,
    ws: &mut DiffusionWorkspace,
) -> Result<DiffusionStats, DiffusionError> {
    params.validate()?;
    if params.sigma >= 1.0 {
        // `|supp(γ)|/|supp(r)| ≤ 1`, so σ = 1 never takes the non-greedy
        // branch: run Algo. 1's loop, which skips the branch-test
        // aggregates. Same steps, same bits (Lemma IV.3).
        return greedy_run_in(graph, f, params, ws);
    }
    check_input(f)?;
    let epoch_resets_before = ws.epoch_resets_total();
    ws.begin(graph.n());
    ws.seed::<true>(graph, params.epsilon, f);
    let mut stats = DiffusionStats::default();
    let budget = f.l1_norm() / ((1.0 - params.alpha) * params.epsilon);
    loop {
        // Branch test (Algo. 2 line 3) — all three quantities are
        // maintained incrementally by the workspace, so this is O(1).
        let vol_r = ws.vol_r();
        if ws.gamma_ratio() > params.sigma && stats.nongreedy_cost + vol_r < budget {
            // Non-greedy branch (Algo. 2 lines 4–6).
            stats.iterations += 1;
            stats.nongreedy_iterations += 1;
            stats.nongreedy_cost += vol_r;
            stats.push_operations += ws.nongreedy_step(graph, params.alpha, params.epsilon);
        } else {
            // Greedy branch (Algo. 2 lines 8–11 = Algo. 1 lines 4–7).
            if ws.frontier_is_empty() {
                break;
            }
            ws.extract_frontier::<true>(graph, params.alpha);
            stats.iterations += 1;
            stats.greedy_iterations += 1;
            stats.push_operations += ws.push_gamma::<true>(graph, params.alpha, params.epsilon);
        }
        if params.record_residuals {
            stats.residual_history.push(ws.residual_l1());
        }
    }
    stats.frontier_peak = ws.frontier_peak();
    stats.touched = ws.touched_len();
    stats.epoch_resets = (ws.epoch_resets_total() - epoch_resets_before) as usize;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_diffuse;
    use crate::greedy::greedy_diffuse;
    use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
    use laca_graph::NodeId;

    fn test_graph() -> CsrGraph {
        AttributedGraphSpec {
            n: 300,
            n_clusters: 3,
            avg_degree: 10.0,
            p_intra: 0.8,
            missing_intra: 0.0,
            degree_exponent: 2.5,
            cluster_size_skew: 0.2,
            attributes: Some(AttributeSpec::default_for(32)),
            seed: 5,
        }
        .generate("t")
        .unwrap()
        .graph
    }

    fn assert_eq14(graph: &CsrGraph, f: &SparseVec, out: &DiffusionResult, eps: f64) {
        let exact = exact_diffuse(graph, f, 0.8, 1e-14);
        for t in 0..graph.n() as NodeId {
            let gap = exact[t as usize] - out.reserve.get(t);
            assert!(gap >= -1e-9, "t={t}: negative gap {gap}");
            assert!(
                gap <= eps * graph.weighted_degree(t) + 1e-9,
                "t={t}: gap {gap} > {}",
                eps * graph.weighted_degree(t)
            );
        }
    }

    #[test]
    fn adaptive_satisfies_eq14_for_all_sigma() {
        let g = test_graph();
        let f = SparseVec::unit(0);
        for &sigma in &[0.0, 0.1, 0.5, 1.0] {
            let params = DiffusionParams::new(0.8, 1e-4).with_sigma(sigma);
            let out = adaptive_diffuse(&g, &f, &params).unwrap();
            assert_eq14(&g, &f, &out, 1e-4);
        }
    }

    #[test]
    fn kernel_profile_is_populated() {
        let g = test_graph();
        let f = SparseVec::unit(0);
        let params = DiffusionParams::new(0.8, 1e-4);
        for out in [
            adaptive_diffuse(&g, &f, &params).unwrap(),
            nongreedy_diffuse(&g, &f, &params).unwrap(),
            greedy_diffuse(&g, &f, &params).unwrap(),
        ] {
            assert!(out.stats.frontier_peak > 0, "a converging run extracts a frontier");
            assert!(
                out.stats.touched >= out.reserve.support_size(),
                "every reserve node was touched ({} touched, {} reserve)",
                out.stats.touched,
                out.reserve.support_size()
            );
            assert!(out.stats.touched <= g.n(), "touched is bounded by n");
            assert_eq!(out.stats.epoch_resets, 0, "no stamp wrap in a fresh workspace");
        }
    }

    #[cfg(laca_trace)]
    #[test]
    fn per_push_trace_matches_push_count_and_respects_cap() {
        use crate::workspace::DiffusionWorkspace;
        let g = test_graph();
        let f = SparseVec::unit(3);
        let params = DiffusionParams::new(0.8, 1e-3);
        let mut ws = DiffusionWorkspace::for_graph(&g);
        ws.enable_trace(1 << 20);
        let out = adaptive_diffuse_in(&g, &f, &params, &mut ws).unwrap();
        let trace = ws.take_trace();
        assert_eq!(
            trace.len(),
            out.stats.push_operations,
            "with a roomy cap, every push is traced"
        );
        assert_eq!(ws.trace_dropped(), 0);
        assert!(trace.iter().all(|e| e.delta > 0.0 && (e.node as usize) < g.n()));

        // A tiny cap bounds the buffer and counts the overflow.
        ws.enable_trace(8);
        let out = adaptive_diffuse_in(&g, &f, &params, &mut ws).unwrap();
        let trace = ws.take_trace();
        assert_eq!(trace.len(), 8);
        assert_eq!(ws.trace_dropped(), out.stats.push_operations as u64 - 8);
    }

    #[test]
    fn nongreedy_satisfies_eq14() {
        let g = test_graph();
        let f = SparseVec::unit(7);
        let params = DiffusionParams::new(0.8, 1e-4);
        let out = nongreedy_diffuse(&g, &f, &params).unwrap();
        assert_eq14(&g, &f, &out, 1e-4);
    }

    #[test]
    fn sigma_one_matches_greedy_exactly() {
        // Lemma IV.3: σ ≥ 1 → AdaptiveDiffuse degenerates to GreedyDiffuse.
        let g = test_graph();
        let f = SparseVec::unit(3);
        let params = DiffusionParams::new(0.8, 1e-5).with_sigma(1.0);
        let adaptive = adaptive_diffuse(&g, &f, &params).unwrap();
        let greedy = greedy_diffuse(&g, &f, &params).unwrap();
        assert_eq!(adaptive.stats.nongreedy_iterations, 0);
        assert_eq!(adaptive.reserve.to_sorted_pairs(), greedy.reserve.to_sorted_pairs());
    }

    #[test]
    fn volume_bound_of_lemma_iv3() {
        let g = test_graph();
        let f = SparseVec::unit(11);
        for &(sigma, beta) in &[(0.0, 2.0), (0.1, 2.0), (1.0, 1.0)] {
            let eps = 1e-3;
            let alpha = 0.8;
            let params = DiffusionParams::new(alpha, eps).with_sigma(sigma);
            let out = adaptive_diffuse(&g, &f, &params).unwrap();
            let bound = beta * f.l1_norm() / ((1.0 - alpha) * eps);
            let vol = out.reserve.volume(&g);
            assert!(
                vol <= bound + 1e-9,
                "sigma {sigma}: vol(q) = {vol} exceeds β‖f‖₁/((1−α)ε) = {bound}"
            );
            assert!(out.reserve.support_size() as f64 <= vol + 1e-9);
        }
    }

    #[test]
    fn adaptive_converges_faster_than_greedy() {
        // The whole point of Algo. 2 (Fig. 5): fewer iterations to reach the
        // same threshold.
        let g = test_graph();
        let f = SparseVec::unit(0);
        let eps = 1e-6;
        let greedy = greedy_diffuse(&g, &f, &DiffusionParams::new(0.8, eps)).unwrap();
        let adaptive =
            adaptive_diffuse(&g, &f, &DiffusionParams::new(0.8, eps).with_sigma(0.1)).unwrap();
        assert!(
            adaptive.stats.iterations <= greedy.stats.iterations,
            "adaptive {} vs greedy {}",
            adaptive.stats.iterations,
            greedy.stats.iterations
        );
        assert!(adaptive.stats.nongreedy_iterations > 0, "adaptive never used Eq. 17");
    }

    #[test]
    fn nongreedy_cost_stays_below_budget() {
        let g = test_graph();
        let f = SparseVec::unit(9);
        let eps = 1e-5;
        let alpha = 0.8;
        let params = DiffusionParams::new(alpha, eps).with_sigma(0.0);
        let out = adaptive_diffuse(&g, &f, &params).unwrap();
        let budget = f.l1_norm() / ((1.0 - alpha) * eps);
        assert!(out.stats.nongreedy_cost < budget);
    }

    #[test]
    fn reserve_plus_residual_conserves_mass() {
        let g = test_graph();
        let f = SparseVec::from_pairs([(0, 0.5), (100, 0.25), (200, 0.25)]);
        let params = DiffusionParams::new(0.8, 1e-5).with_sigma(0.2);
        let out = adaptive_diffuse(&g, &f, &params).unwrap();
        let total = out.reserve.l1_norm() + out.residual.l1_norm();
        assert!((total - f.l1_norm()).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn final_residual_is_below_threshold_everywhere() {
        let g = test_graph();
        let f = SparseVec::unit(42);
        let eps = 1e-4;
        let out = adaptive_diffuse(&g, &f, &DiffusionParams::new(0.8, eps)).unwrap();
        for (i, v) in out.residual.iter() {
            assert!(v / g.weighted_degree(i) < eps, "node {i} residual {v}");
        }
    }

    #[test]
    fn greedy_and_nongreedy_agree_in_the_limit() {
        // As ε → 0 both reserves approach the exact diffusion, hence agree.
        let g = test_graph();
        let f = SparseVec::unit(1);
        let eps = 1e-8;
        let a = adaptive_diffuse(&g, &f, &DiffusionParams::new(0.8, eps)).unwrap();
        let b = nongreedy_diffuse(&g, &f, &DiffusionParams::new(0.8, eps)).unwrap();
        for t in 0..g.n() as NodeId {
            assert!((a.reserve.get(t) - b.reserve.get(t)).abs() < 1e-4);
        }
    }
}
