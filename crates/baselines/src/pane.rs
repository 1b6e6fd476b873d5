//! PANE-style attributed network embedding (Yang et al., VLDB'20/'23 —
//! citations \[60\], \[61\]).
//!
//! PANE's forward affinity is the random-walk-with-restart smoothing of
//! attribute information, factorized into low-dimensional embeddings. We
//! implement that core directly: compress the attributes to rank `k`
//! (randomized SVD, as PANE's own initialization does), then apply the RWR
//! smoother `F = Σ_{ℓ=0}^{L} (1−α)·αˡ·Pˡ·X̂` and L2-normalize rows.
//! (PANE's joint forward/backward factorization and greedy seeding are
//! engineering refinements of this same affinity, left out here.)

use crate::BaselineError;
use laca_graph::{AttributeMatrix, CsrGraph, NodeId};
use laca_linalg::{randomized_svd, DenseMatrix};

/// PANE hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PaneConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// RWR continue probability for the affinity smoothing.
    pub alpha: f64,
    /// Smoothing truncation length.
    pub hops: usize,
    /// RNG seed for the factorization.
    pub seed: u64,
}

impl Default for PaneConfig {
    fn default() -> Self {
        PaneConfig { dim: 64, alpha: 0.8, hops: 10, seed: 0x9A4E }
    }
}

/// Computes PANE-style embeddings for all nodes.
pub fn pane_embeddings(
    graph: &CsrGraph,
    attrs: &AttributeMatrix,
    cfg: &PaneConfig,
) -> Result<DenseMatrix, BaselineError> {
    if attrs.is_empty() {
        return Err(BaselineError::NoAttributes);
    }
    if !(cfg.alpha > 0.0 && cfg.alpha < 1.0) {
        return Err(BaselineError::BadParameter("alpha outside (0,1)"));
    }
    let n = graph.n();
    let svd = randomized_svd(attrs, cfg.dim, 8, 2, cfg.seed)?;
    let x_hat = svd.u_sigma();
    let k = x_hat.cols();
    // F = Σ (1−α)αˡ Pˡ X̂.
    let mut cur = x_hat.clone();
    let mut f = DenseMatrix::zeros(n, k);
    let mut weight = 1.0 - cfg.alpha;
    for _ in 0..=cfg.hops {
        for i in 0..n {
            let crow: Vec<f64> = cur.row(i).to_vec();
            for (o, &x) in f.row_mut(i).iter_mut().zip(&crow) {
                *o += weight * x;
            }
        }
        let mut next = DenseMatrix::zeros(n, k);
        for i in 0..n {
            let d = graph.weighted_degree(i as NodeId);
            let mut acc = vec![0.0; k];
            for (j, w) in graph.edges_of(i as NodeId) {
                let share = w / d;
                for (a, &v) in acc.iter_mut().zip(cur.row(j as usize)) {
                    *a += share * v;
                }
            }
            next.row_mut(i).copy_from_slice(&acc);
        }
        cur = next;
        weight *= cfg.alpha;
    }
    // L2-normalize rows for cosine-based extraction.
    for i in 0..n {
        let norm = laca_linalg::dense::norm2(f.row(i));
        if norm > 0.0 {
            for v in f.row_mut(i) {
                *v /= norm;
            }
        }
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed_cluster::knn_cluster;
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
                dim: 60,
                topic_words: 12,
                tokens_per_node: 20,
                attr_noise: 0.25,
            }),
            seed: 31,
        }
        .generate("pane")
        .unwrap()
    }

    #[test]
    fn recovers_planted_communities() {
        let ds = dataset();
        let emb = pane_embeddings(&ds.graph, &ds.attributes, &PaneConfig::default()).unwrap();
        let seed = 0;
        let truth = ds.ground_truth(seed);
        let cluster = knn_cluster(&emb, seed, truth.len());
        let tset: std::collections::HashSet<_> = truth.iter().collect();
        let precision =
            cluster.iter().filter(|v| tset.contains(v)).count() as f64 / cluster.len() as f64;
        assert!(precision > 0.6, "precision {precision}");
    }

    #[test]
    fn smoothing_brings_neighbors_together() {
        let ds = dataset();
        let smoothed = pane_embeddings(&ds.graph, &ds.attributes, &PaneConfig::default()).unwrap();
        let raw = pane_embeddings(
            &ds.graph,
            &ds.attributes,
            &PaneConfig { hops: 0, alpha: 1e-9, ..Default::default() },
        )
        .unwrap();
        // Average cosine over edges must increase after smoothing.
        let avg_edge_cos = |emb: &DenseMatrix| {
            let mut acc = 0.0;
            let mut cnt = 0usize;
            for (u, v) in ds.graph.edge_list() {
                acc += laca_linalg::dense::dot(emb.row(u as usize), emb.row(v as usize));
                cnt += 1;
            }
            acc / cnt as f64
        };
        assert!(avg_edge_cos(&smoothed) > avg_edge_cos(&raw));
    }

    #[test]
    fn rejects_bad_inputs() {
        let ds = dataset();
        assert!(pane_embeddings(&ds.graph, &AttributeMatrix::empty(150), &PaneConfig::default())
            .is_err());
        let bad = PaneConfig { alpha: 1.0, ..Default::default() };
        assert!(pane_embeddings(&ds.graph, &ds.attributes, &bad).is_err());
    }
}
