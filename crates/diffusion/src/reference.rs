//! Straightforward [`SparseVec`]-based solver implementations.
//!
//! These are the original hash-map push loops: one `FxHashMap` probe per
//! push, a full rescan of `supp(r)` per AdaptiveDiffuse iteration to
//! recompute `|supp(γ)|/|supp(r)|` and `vol(r)`, and fresh allocations per
//! query. The production solvers run on [`crate::DiffusionWorkspace`]
//! instead; these stay as differential-testing oracles: the property
//! suite (`tests/properties.rs`) checks the workspace solvers against
//! them entry by entry.
//!
//! The arithmetic mirrors the workspace (threshold tests and push spreads
//! multiply by the cached `1/d(v)` rather than dividing), so the two
//! implementations differ only by float summation order — which keeps
//! branch decisions identical except on inputs where a residual lands
//! within an ulp of the ε threshold. The property suite's equivalence
//! test pins a deterministic corpus where no such knife-edge occurs.

use crate::{
    check_input, DiffusionError, DiffusionParams, DiffusionResult, DiffusionStats, SparseVec,
};
use laca_graph::{CsrGraph, NodeId};

/// Extracts the above-threshold entries `γ` from `r` (Eq. 15), removing
/// them from `r`. Returns `(node, value)` pairs.
fn extract_gamma(graph: &CsrGraph, r: &mut SparseVec, epsilon: f64) -> Vec<(NodeId, f64)> {
    let mut gamma: Vec<(NodeId, f64)> = Vec::new();
    for (i, v) in r.iter() {
        if v * graph.inv_degree(i) >= epsilon {
            gamma.push((i, v));
        }
    }
    for &(i, _) in &gamma {
        r.take(i);
    }
    gamma
}

/// Converts `(1 − α)` of every `γ` entry into reserve and pushes the `α`
/// remainder to neighbors, accumulating into `r`. Returns the number of
/// push operations.
fn push_gamma(
    graph: &CsrGraph,
    gamma: &[(NodeId, f64)],
    alpha: f64,
    q: &mut SparseVec,
    r: &mut SparseVec,
) -> usize {
    let mut pushes = 0usize;
    for &(i, v) in gamma {
        q.add(i, (1.0 - alpha) * v);
        let spread = alpha * v * graph.inv_degree(i);
        for (j, w) in graph.edges_of(i) {
            r.add(j, spread * w);
            pushes += 1;
        }
    }
    pushes
}

/// One non-greedy step (Eq. 17): converts `(1−α)` of *all* residual mass
/// into reserve and pushes the rest. Returns the number of pushes.
fn nongreedy_step(graph: &CsrGraph, alpha: f64, q: &mut SparseVec, r: &mut SparseVec) -> usize {
    let mut pushes = 0usize;
    let old = std::mem::take(r);
    for (i, v) in old.iter() {
        q.add(i, (1.0 - alpha) * v);
        let spread = alpha * v * graph.inv_degree(i);
        for (j, w) in graph.edges_of(i) {
            r.add(j, spread * w);
            pushes += 1;
        }
    }
    pushes
}

/// Reference GreedyDiffuse (Algo. 1) on hash-map state.
pub fn greedy_diffuse(
    graph: &CsrGraph,
    f: &SparseVec,
    params: &DiffusionParams,
) -> Result<DiffusionResult, DiffusionError> {
    params.validate()?;
    check_input(f)?;
    let mut r = f.clone();
    let mut q = SparseVec::new();
    let mut stats = DiffusionStats::default();
    loop {
        let gamma = extract_gamma(graph, &mut r, params.epsilon);
        if gamma.is_empty() {
            break;
        }
        stats.iterations += 1;
        stats.greedy_iterations += 1;
        stats.push_operations += push_gamma(graph, &gamma, params.alpha, &mut q, &mut r);
        if params.record_residuals {
            stats.residual_history.push(r.l1_norm());
        }
    }
    Ok(DiffusionResult { reserve: q, residual: r, stats })
}

/// Reference pure non-greedy diffusion (Eq. 17) on hash-map state.
pub fn nongreedy_diffuse(
    graph: &CsrGraph,
    f: &SparseVec,
    params: &DiffusionParams,
) -> Result<DiffusionResult, DiffusionError> {
    params.validate()?;
    check_input(f)?;
    let mut r = f.clone();
    let mut q = SparseVec::new();
    let mut stats = DiffusionStats::default();
    loop {
        let above = r.iter().any(|(i, v)| v * graph.inv_degree(i) >= params.epsilon);
        if !above {
            break;
        }
        stats.iterations += 1;
        stats.nongreedy_iterations += 1;
        stats.nongreedy_cost += r.volume(graph);
        stats.push_operations += nongreedy_step(graph, params.alpha, &mut q, &mut r);
        if params.record_residuals {
            stats.residual_history.push(r.l1_norm());
        }
    }
    Ok(DiffusionResult { reserve: q, residual: r, stats })
}

/// Reference AdaptiveDiffuse (Algo. 2) on hash-map state, with the
/// per-iteration `O(|supp(r)|)` rescan for the branch test.
pub fn adaptive_diffuse(
    graph: &CsrGraph,
    f: &SparseVec,
    params: &DiffusionParams,
) -> Result<DiffusionResult, DiffusionError> {
    params.validate()?;
    check_input(f)?;
    let mut r = f.clone();
    let mut q = SparseVec::new();
    let mut stats = DiffusionStats::default();
    let budget = f.l1_norm() / ((1.0 - params.alpha) * params.epsilon);
    loop {
        // Count the above-threshold fraction without yet removing entries.
        let supp_r = r.support_size();
        let supp_gamma =
            r.iter().filter(|&(i, v)| v * graph.inv_degree(i) >= params.epsilon).count();
        let ratio = if supp_r == 0 { 0.0 } else { supp_gamma as f64 / supp_r as f64 };
        let vol_r = r.volume(graph);
        if ratio > params.sigma && stats.nongreedy_cost + vol_r < budget {
            // Non-greedy branch (Algo. 2 lines 4–6).
            stats.iterations += 1;
            stats.nongreedy_iterations += 1;
            stats.nongreedy_cost += vol_r;
            stats.push_operations += nongreedy_step(graph, params.alpha, &mut q, &mut r);
        } else {
            // Greedy branch (Algo. 2 lines 8–11 = Algo. 1 lines 4–7).
            let gamma = extract_gamma(graph, &mut r, params.epsilon);
            if gamma.is_empty() {
                break;
            }
            stats.iterations += 1;
            stats.greedy_iterations += 1;
            stats.push_operations += push_gamma(graph, &gamma, params.alpha, &mut q, &mut r);
        }
        if params.record_residuals {
            stats.residual_history.push(r.l1_norm());
        }
    }
    Ok(DiffusionResult { reserve: q, residual: r, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 10-node graph of Fig. 4 in the paper.
    fn fig4_graph() -> CsrGraph {
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
    fn reference_reproduces_the_papers_running_example() {
        let g = fig4_graph();
        let f = SparseVec::from_pairs([(0, 0.4), (1, 0.6)]);
        let params = DiffusionParams::new(0.8, 0.1);
        let out = greedy_diffuse(&g, &f, &params).unwrap();
        assert_eq!(out.stats.iterations, 2);
        assert!((out.reserve.get(0) - 0.08).abs() < 1e-12);
        assert!((out.reserve.get(1) - 0.12).abs() < 1e-12);
        assert!((out.reserve.get(2) - 0.048).abs() < 1e-12);
        assert!((out.reserve.get(3) - 0.048).abs() < 1e-12);
        assert!((out.residual.get(0) - 0.352).abs() < 1e-12);
        assert!((out.residual.get(1) - 0.272).abs() < 1e-12);
        assert!((out.residual.get(4) - 0.08).abs() < 1e-12);
    }
}
