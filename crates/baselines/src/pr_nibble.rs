//! PR-Nibble (Andersen–Chung–Lang, FOCS'06 — citation \[15\]) and its
//! attribute-reweighted variant APR-Nibble.
//!
//! Approximate personalized PageRank push: while some node has residual
//! `r(u) ≥ ε·d(u)`, convert `(1−α)·r(u)` into the estimate and spread
//! `α·r(u)` over the neighbors. That is exactly GreedyDiffuse (Algo. 1)
//! from a unit vector, so the push runs on the same kernel as LACA
//! ([`greedy_run_in`] over the thread's [`DiffusionWorkspace`]): every
//! above-threshold node is pushed per round, in ascending node order.
//! Scores are degree-normalized (`p(u)/d(u)`) before ranking/sweeping, as
//! in the original sweep-cut analysis.
//!
//! APR-Nibble is PR-Nibble run on the Gaussian-kernel reweighted graph
//! ([`crate::kernel::gaussian_reweighted`]), matching the paper's
//! description ("edges weighted by the Gaussian kernel of their endpoints'
//! attribute vectors").
//!
//! [`DiffusionWorkspace`]: laca_diffusion::DiffusionWorkspace

use crate::{BaselineError, Score};
use laca_diffusion::workspace::with_thread_workspace;
use laca_diffusion::{greedy_run_in, DiffusionParams, SparseVec};
use laca_graph::{CsrGraph, NodeId};

/// Approximate PPR push from `seed`.
///
/// Returns the (un-normalized) PPR estimate `p` with the ACL residual
/// guarantee `r(u) < ε·d(u)` for all `u`. `α` must lie in `(0, 1)` and
/// `ε` must be positive (NaN is rejected).
pub fn approximate_ppr(
    graph: &CsrGraph,
    seed: NodeId,
    alpha: f64,
    epsilon: f64,
) -> Result<SparseVec, BaselineError> {
    if seed as usize >= graph.n() {
        return Err(BaselineError::BadSeed(seed));
    }
    let params = DiffusionParams::new(alpha, epsilon);
    with_thread_workspace(|ws| {
        greedy_run_in(graph, &SparseVec::unit(seed), &params, ws)?;
        Ok(ws.reserve_into().iter().copied().collect())
    })
}

/// PR-Nibble local clusterer.
#[derive(Debug, Clone)]
pub struct PrNibble<'g> {
    graph: &'g CsrGraph,
    /// Continue probability `α` of the underlying RWR (paper convention).
    pub alpha: f64,
    /// Push threshold `ε`.
    pub epsilon: f64,
}

impl<'g> PrNibble<'g> {
    /// Creates a PR-Nibble instance with the given parameters.
    pub fn new(graph: &'g CsrGraph, alpha: f64, epsilon: f64) -> Self {
        PrNibble { graph, alpha, epsilon }
    }

    /// Degree-normalized PPR score vector for a seed.
    pub fn score(&self, seed: NodeId) -> Result<Score, BaselineError> {
        let p = approximate_ppr(self.graph, seed, self.alpha, self.epsilon)?;
        let mut normalized = SparseVec::new();
        for (u, v) in p.iter() {
            normalized.set(u, v / self.graph.weighted_degree(u));
        }
        Ok(Score::Sparse(normalized))
    }

    /// Top-`size` cluster by degree-normalized PPR.
    pub fn cluster(&self, seed: NodeId, size: usize) -> Result<Vec<NodeId>, BaselineError> {
        Ok(self.score(seed)?.top_k(seed, size))
    }

    /// Sweep-cut cluster (no size constraint).
    pub fn sweep(&self, seed: NodeId) -> Result<(Vec<NodeId>, f64), BaselineError> {
        let score = match self.score(seed)? {
            Score::Sparse(s) => s,
            Score::Dense(_) => unreachable!("PPR scores are sparse"),
        };
        Ok(laca_core::extract::sweep_cut(self.graph, &score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laca_diffusion::exact::exact_rwr;
    use laca_graph::gen::AttributedGraphSpec;

    fn graph() -> CsrGraph {
        AttributedGraphSpec {
            n: 200,
            n_clusters: 2,
            avg_degree: 8.0,
            p_intra: 0.9,
            missing_intra: 0.0,
            degree_exponent: 2.5,
            cluster_size_skew: 0.0,
            attributes: None,
            seed: 21,
        }
        .generate("g")
        .unwrap()
        .graph
    }

    #[test]
    fn push_satisfies_acl_residual_bound() {
        let g = graph();
        let eps = 1e-4;
        let p = approximate_ppr(&g, 0, 0.8, eps).unwrap();
        let exact = exact_rwr(&g, 0, 0.8, 1e-14);
        for t in 0..g.n() as NodeId {
            let gap = exact[t as usize] - p.get(t);
            assert!(gap >= -1e-9, "t={t}");
            assert!(gap <= eps * g.weighted_degree(t) + 1e-9, "t={t}: {gap}");
        }
    }

    #[test]
    fn recovers_planted_community() {
        let ds = AttributedGraphSpec {
            n: 200,
            n_clusters: 2,
            avg_degree: 8.0,
            p_intra: 0.9,
            missing_intra: 0.0,
            degree_exponent: 2.5,
            cluster_size_skew: 0.0,
            attributes: None,
            seed: 21,
        }
        .generate("g")
        .unwrap();
        let pr = PrNibble::new(&ds.graph, 0.8, 1e-6);
        let seed = 0;
        let truth = ds.ground_truth(seed);
        let cluster = pr.cluster(seed, truth.len()).unwrap();
        let tset: std::collections::HashSet<_> = truth.iter().collect();
        let precision =
            cluster.iter().filter(|v| tset.contains(v)).count() as f64 / cluster.len() as f64;
        assert!(precision > 0.7, "precision {precision}");
    }

    #[test]
    fn sweep_returns_low_conductance_set() {
        let g = graph();
        let pr = PrNibble::new(&g, 0.8, 1e-6);
        let (cluster, phi) = pr.sweep(0).unwrap();
        assert!(!cluster.is_empty());
        assert!(phi < 0.5, "conductance {phi}");
        assert!((g.conductance(&cluster) - phi).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = graph();
        assert!(approximate_ppr(&g, 9999, 0.8, 1e-4).is_err());
        assert!(approximate_ppr(&g, 0, 1.5, 1e-4).is_err());
        assert!(approximate_ppr(&g, 0, 0.8, 0.0).is_err());
        assert!(approximate_ppr(&g, 0, 0.8, f64::NAN).is_err());
    }

    #[test]
    fn mass_never_exceeds_one() {
        let g = graph();
        let p = approximate_ppr(&g, 5, 0.9, 1e-5).unwrap();
        assert!(p.l1_norm() <= 1.0 + 1e-9);
    }
}
