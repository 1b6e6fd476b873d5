//! **GreedyDiffuse** (Algo. 1 of the paper).
//!
//! Repeatedly sifts the residual entries whose degree-normalized value is
//! at or above the threshold (Eq. 15), converts the `1 − α` fraction of
//! each into reserve, and scatters the remaining `α` fraction across the
//! out-neighbors (Eq. 16), until no residual exceeds the threshold.
//!
//! The loop runs on a [`DiffusionWorkspace`]: the above-threshold set `γ`
//! is a frontier queue maintained as pushes cross the threshold, so each
//! iteration costs `O(|γ| + pushes)` with no rescan of `supp(r)` and no
//! hashing. The hash-map original survives as
//! [`crate::reference::greedy_diffuse`].

use crate::workspace::{with_thread_workspace, DiffusionWorkspace};
use crate::SparseVec;
use crate::{check_input, DiffusionError, DiffusionParams, DiffusionResult, DiffusionStats};
use laca_graph::CsrGraph;

/// Runs GreedyDiffuse on `graph` from the initial vector `f`, using the
/// calling thread's cached workspace.
///
/// Returns `q` satisfying Eq. 14 in
/// `O(max{|supp(f)|, ‖f‖₁ / ((1−α)ε)})` time (Theorem IV.1).
pub fn greedy_diffuse(
    graph: &CsrGraph,
    f: &SparseVec,
    params: &DiffusionParams,
) -> Result<DiffusionResult, DiffusionError> {
    with_thread_workspace(|ws| greedy_diffuse_in(graph, f, params, ws))
}

/// [`greedy_diffuse`] on a caller-managed workspace (zero allocation in
/// the push loop once `ws` is warm).
// lint: hot-path
pub fn greedy_diffuse_in(
    graph: &CsrGraph,
    f: &SparseVec,
    params: &DiffusionParams,
    ws: &mut DiffusionWorkspace,
) -> Result<DiffusionResult, DiffusionError> {
    let stats = greedy_run_in(graph, f, params, ws)?;
    let (reserve, residual) = ws.to_sparse();
    Ok(DiffusionResult { reserve, residual, stats })
}

/// The GreedyDiffuse loop itself: runs [`greedy_diffuse_in`]'s iteration
/// but leaves `q` and `r` in `ws` instead of converting them to
/// [`SparseVec`]s; [`DiffusionWorkspace::reserve_into`] reads `q` back.
// lint: hot-path
pub fn greedy_run_in(
    graph: &CsrGraph,
    f: &SparseVec,
    params: &DiffusionParams,
    ws: &mut DiffusionWorkspace,
) -> Result<DiffusionStats, DiffusionError> {
    params.validate()?;
    check_input(f)?;
    let epoch_resets_before = ws.epoch_resets_total();
    ws.begin(graph.n());
    ws.seed::<false>(graph, params.epsilon, f);
    let mut stats = DiffusionStats::default();
    while !ws.frontier_is_empty() {
        ws.extract_frontier::<false>(graph, params.alpha);
        stats.iterations += 1;
        stats.greedy_iterations += 1;
        stats.push_operations += ws.push_gamma::<false>(graph, params.alpha, params.epsilon);
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
    use laca_graph::NodeId;

    /// The 10-node graph of Fig. 4 in the paper.
    ///
    /// Degrees: d(v1)=4, d(v2)=3, d(v3)=d(v4)=2, d(v5)=5 (0-indexed here).
    pub(crate) fn fig4_graph() -> CsrGraph {
        CsrGraph::from_edges(
            10,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (4, 5),
                (4, 6),
                (4, 7),
                (4, 8),
                (8, 9),
            ],
        )
        .unwrap()
    }

    #[test]
    fn reproduces_the_papers_running_example() {
        // Fig. 4: f = (0.4, 0.6, 0, …), α = 0.8, ε = 0.1.
        let g = fig4_graph();
        let f = SparseVec::from_pairs([(0, 0.4), (1, 0.6)]);
        let params = DiffusionParams::new(0.8, 0.1);
        let out = greedy_diffuse(&g, &f, &params).unwrap();
        // Terminates after exactly 2 iterations.
        assert_eq!(out.stats.iterations, 2);
        // Reserves: q1 = 0.08, q2 = 0.12, q3 = q4 = 0.048.
        assert!((out.reserve.get(0) - 0.08).abs() < 1e-12);
        assert!((out.reserve.get(1) - 0.12).abs() < 1e-12);
        assert!((out.reserve.get(2) - 0.048).abs() < 1e-12);
        assert!((out.reserve.get(3) - 0.048).abs() < 1e-12);
        // Final residuals: r1 = 0.352, r2 = 0.272, r5 = 0.08.
        assert!((out.residual.get(0) - 0.352).abs() < 1e-12);
        assert!((out.residual.get(1) - 0.272).abs() < 1e-12);
        assert!((out.residual.get(4) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn satisfies_eq14_bound() {
        let g = fig4_graph();
        let f = SparseVec::from_pairs([(0, 1.0), (4, 0.5)]);
        for &eps in &[0.1, 0.01, 1e-4] {
            let params = DiffusionParams::new(0.8, eps);
            let out = greedy_diffuse(&g, &f, &params).unwrap();
            let exact = exact_diffuse(&g, &f, 0.8, 1e-14);
            for t in 0..g.n() as NodeId {
                let gap = exact[t as usize] - out.reserve.get(t);
                assert!(gap >= -1e-10, "t={t}: negative gap {gap}");
                assert!(
                    gap <= eps * g.weighted_degree(t) + 1e-10,
                    "t={t}: gap {gap} > ε·d = {}",
                    eps * g.weighted_degree(t)
                );
            }
        }
    }

    #[test]
    fn mass_is_conserved() {
        let g = fig4_graph();
        let f = SparseVec::from_pairs([(2, 0.7), (9, 0.3)]);
        let params = DiffusionParams::new(0.5, 1e-3);
        let out = greedy_diffuse(&g, &f, &params).unwrap();
        // Every unit of f is either still residual, in the reserve, or
        // "in flight" — but at termination in-flight is zero, and the
        // geometric conversion keeps q + r mass ≤ ‖f‖₁ only approximately:
        // exactly, q + r accounts for all mass because pushes conserve ‖·‖₁.
        let total = out.reserve.l1_norm() + out.residual.l1_norm();
        // Each greedy iteration conserves mass except the (1−α) conversion,
        // which moves it into q; pushing moves α of it into r. So the sum
        // must equal ‖f‖₁ exactly (up to float error).
        assert!((total - 1.0).abs() < 1e-12, "total {total}");
    }

    #[test]
    fn zero_epsilon_rejected() {
        let g = fig4_graph();
        let f = SparseVec::unit(0);
        assert!(greedy_diffuse(&g, &f, &DiffusionParams::new(0.8, 0.0)).is_err());
    }

    #[test]
    fn negative_input_rejected() {
        let g = fig4_graph();
        let f = SparseVec::from_pairs([(0, -1.0)]);
        assert_eq!(
            greedy_diffuse(&g, &f, &DiffusionParams::new(0.8, 0.1)).unwrap_err(),
            DiffusionError::BadInput(0)
        );
    }

    #[test]
    fn empty_input_returns_empty_output() {
        let g = fig4_graph();
        let out = greedy_diffuse(&g, &SparseVec::new(), &DiffusionParams::new(0.8, 0.1)).unwrap();
        assert!(out.reserve.is_empty());
        assert_eq!(out.stats.iterations, 0);
    }

    #[test]
    fn large_epsilon_short_circuits() {
        // With ε so large nothing passes Eq. 15, f stays residual.
        let g = fig4_graph();
        let f = SparseVec::unit(0);
        let out = greedy_diffuse(&g, &f, &DiffusionParams::new(0.8, 10.0)).unwrap();
        assert!(out.reserve.is_empty());
        assert_eq!(out.residual.get(0), 1.0);
    }

    #[test]
    fn works_on_weighted_graphs() {
        // A weighted triangle: pushes must split ∝ weights.
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 3.0), (0, 2, 1.0), (1, 2, 1.0)]).unwrap();
        let f = SparseVec::unit(0);
        let params = DiffusionParams::new(0.8, 1e-6);
        let out = greedy_diffuse(&g, &f, &params).unwrap();
        let exact = exact_diffuse(&g, &f, 0.8, 1e-14);
        for t in 0..3 {
            let gap = exact[t as usize] - out.reserve.get(t);
            assert!(gap >= -1e-10 && gap <= 1e-6 * g.weighted_degree(t) + 1e-10);
        }
        // Node 1 gets more mass than node 2 (heavier edge from the seed).
        assert!(out.reserve.get(1) > out.reserve.get(2));
    }

    #[test]
    fn residual_history_is_recorded() {
        let g = fig4_graph();
        let f = SparseVec::unit(0);
        let params = DiffusionParams::new(0.8, 1e-4).with_residual_recording();
        let out = greedy_diffuse(&g, &f, &params).unwrap();
        assert_eq!(out.stats.residual_history.len(), out.stats.iterations);
        assert!(!out.stats.residual_history.is_empty());
    }
}
