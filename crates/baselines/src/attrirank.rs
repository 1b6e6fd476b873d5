//! AttriRank (Hsu et al., 2017 — citation \[58\]): unsupervised PageRank
//! with an attribute-derived restart prior.
//!
//! The original computes a global ranking: PageRank whose teleport
//! distribution weights node `v` by its aggregate attribute similarity to
//! the rest of the graph, `prior(v) ∝ Σ_u sim(u, v)`. We approximate the
//! quadratic similarity mass with a rank-`k` factorization of `X` (the
//! `O(nd²)` preprocessing slot of Table IV), then run standard damped
//! power iteration.
//!
//! For the *local* clustering protocol a query-independent ranking must be
//! conditioned on the seed; following the paper's placement of AttriRank
//! in the "attribute similarity" group, the per-seed score is
//! `rank(v) · cos(x⁽ˢ⁾, x⁽ᵛ⁾)` — the global importance weighted by the
//! attribute match with the seed (an adaptation for the local protocol,
//! not part of the original AttriRank).

use crate::{BaselineError, Score};
use laca_graph::{AttributeMatrix, CsrGraph, NodeId};
use laca_linalg::randomized_svd;

/// AttriRank scorer.
#[derive(Debug, Clone)]
pub struct AttriRank<'g, 'a> {
    graph: &'g CsrGraph,
    attrs: &'a AttributeMatrix,
    /// The precomputed global ranking.
    rank: Vec<f64>,
}

impl<'g, 'a> AttriRank<'g, 'a> {
    /// Preprocesses the global attribute-informed PageRank.
    ///
    /// * `damping` — PageRank damping (0.85 classically),
    /// * `k` — factorization rank for the similarity prior,
    /// * `iters` — power iterations,
    /// * `seed` — RNG seed for the randomized factorization.
    pub fn new(
        graph: &'g CsrGraph,
        attrs: &'a AttributeMatrix,
        damping: f64,
        k: usize,
        iters: usize,
        seed: u64,
    ) -> Result<Self, BaselineError> {
        if attrs.is_empty() {
            return Err(BaselineError::NoAttributes);
        }
        if !(damping > 0.0 && damping < 1.0) {
            return Err(BaselineError::BadParameter("damping outside (0,1)"));
        }
        let n = graph.n();
        // prior(v) ∝ Σ_u x⁽ᵘ⁾·x⁽ᵛ⁾ ≈ (UΛ)·((UΛ)ᵀ·1) via the k-SVD.
        let svd = randomized_svd(attrs, k, 8, 2, seed)?;
        let us = svd.u_sigma();
        let mut colsum = vec![0.0; us.cols()];
        for i in 0..n {
            for (c, &v) in colsum.iter_mut().zip(us.row(i)) {
                *c += v;
            }
        }
        let mut prior: Vec<f64> =
            (0..n).map(|i| laca_linalg::dense::dot(us.row(i), &colsum).max(0.0)).collect();
        let total: f64 = prior.iter().sum();
        if total <= 0.0 {
            prior = vec![1.0 / n as f64; n];
        } else {
            for p in &mut prior {
                *p /= total;
            }
        }
        // Damped power iteration: r ← (1−β)·prior + β·r·P.
        let mut rank = prior.clone();
        let mut next = vec![0.0; n];
        for _ in 0..iters {
            next.iter_mut().for_each(|v| *v = 0.0);
            for (v, &rv) in rank.iter().enumerate() {
                if rv == 0.0 {
                    continue;
                }
                let share = rv / graph.weighted_degree(v as NodeId);
                for (u, w) in graph.edges_of(v as NodeId) {
                    next[u as usize] += share * w;
                }
            }
            for i in 0..n {
                rank[i] = (1.0 - damping) * prior[i] + damping * next[i];
            }
        }
        Ok(AttriRank { graph, attrs, rank })
    }

    /// The global (seed-independent) ranking.
    pub fn global_rank(&self) -> &[f64] {
        &self.rank
    }

    /// Seed-conditioned score: global rank × attribute match with the seed.
    pub fn score(&self, seed: NodeId) -> Result<Score, BaselineError> {
        if seed as usize >= self.graph.n() {
            return Err(BaselineError::BadSeed(seed));
        }
        let seed_row = self.attrs.dense_row(seed as usize);
        let cos = self.attrs.mul_vec(&seed_row)?;
        let score: Vec<f64> = self.rank.iter().zip(&cos).map(|(&r, &c)| r * c.max(0.0)).collect();
        Ok(Score::Dense(score))
    }

    /// Top-`size` cluster.
    pub fn cluster(&self, seed: NodeId, size: usize) -> Result<Vec<NodeId>, BaselineError> {
        Ok(self.score(seed)?.top_k(seed, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
    use laca_graph::AttributedDataset;

    fn dataset() -> AttributedDataset {
        AttributedGraphSpec {
            n: 150,
            n_clusters: 3,
            avg_degree: 8.0,
            p_intra: 0.85,
            missing_intra: 0.0,
            degree_exponent: 2.3,
            cluster_size_skew: 0.2,
            attributes: Some(AttributeSpec {
                dim: 50,
                topic_words: 10,
                tokens_per_node: 20,
                attr_noise: 0.2,
            }),
            seed: 19,
        }
        .generate("ar")
        .unwrap()
    }

    #[test]
    fn global_rank_is_a_distribution() {
        let ds = dataset();
        let ar = AttriRank::new(&ds.graph, &ds.attributes, 0.85, 8, 30, 1).unwrap();
        let sum: f64 = ar.global_rank().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        assert!(ar.global_rank().iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn cluster_prefers_attribute_matches() {
        let ds = dataset();
        let ar = AttriRank::new(&ds.graph, &ds.attributes, 0.85, 8, 30, 1).unwrap();
        let seed = 0;
        let truth = ds.ground_truth(seed);
        let cluster = ar.cluster(seed, truth.len()).unwrap();
        let tset: std::collections::HashSet<_> = truth.iter().collect();
        let precision =
            cluster.iter().filter(|v| tset.contains(v)).count() as f64 / cluster.len() as f64;
        // Chance level is ~1/3 on this dataset.
        assert!(precision > 0.4, "precision {precision}");
    }

    #[test]
    fn rejects_bad_inputs() {
        let ds = dataset();
        assert!(AttriRank::new(&ds.graph, &AttributeMatrix::empty(150), 0.85, 8, 10, 0).is_err());
        assert!(AttriRank::new(&ds.graph, &ds.attributes, 1.5, 8, 10, 0).is_err());
    }
}
