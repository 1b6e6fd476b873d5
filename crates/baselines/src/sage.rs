//! GraphSAGE-mean encoder (Hamilton et al., NeurIPS'17 — citation \[38\]).
//!
//! Two mean-aggregator layers over k-SVD-compressed input features:
//! `h' = ReLU(W_self·h + W_nbr·mean_{u∈N(v)} h_u)`, rows L2-normalized
//! after each layer. Weights are Xavier-initialized from a seeded RNG and
//! left untrained — *random-weight GraphSAGE*, a standard strong baseline
//! for unsupervised settings (training a full unsupervised loss would add
//! stochastic-optimization noise without changing the comparison). The
//! attribute compression
//! replaces the raw `d`-dimensional bag-of-words input, exactly as large-
//! scale SAGE deployments do.

use crate::BaselineError;
use laca_graph::{AttributeMatrix, CsrGraph, NodeId};
use laca_linalg::random::standard_normal;
use laca_linalg::{randomized_svd, DenseMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SAGE hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SageConfig {
    /// Input feature dimension (k-SVD rank on the attributes).
    pub input_dim: usize,
    /// Hidden/output dimension per layer.
    pub hidden_dim: usize,
    /// Number of mean-aggregator layers.
    pub layers: usize,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl Default for SageConfig {
    fn default() -> Self {
        SageConfig { input_dim: 64, hidden_dim: 64, layers: 2, seed: 0x5A6E }
    }
}

fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> DenseMatrix {
    let scale = (2.0 / (rows + cols) as f64).sqrt();
    DenseMatrix::from_fn(rows, cols, |_, _| standard_normal(rng) * scale)
}

fn l2_normalize_rows(m: &mut DenseMatrix) {
    for i in 0..m.rows() {
        let norm = laca_linalg::dense::norm2(m.row(i));
        if norm > 0.0 {
            for v in m.row_mut(i) {
                *v /= norm;
            }
        }
    }
}

/// Computes SAGE-mean embeddings for all nodes.
pub fn sage_embeddings(
    graph: &CsrGraph,
    attrs: &AttributeMatrix,
    cfg: &SageConfig,
) -> Result<DenseMatrix, BaselineError> {
    if attrs.is_empty() {
        return Err(BaselineError::NoAttributes);
    }
    if cfg.layers == 0 || cfg.hidden_dim == 0 {
        return Err(BaselineError::BadParameter("layers and hidden_dim must be positive"));
    }
    let n = graph.n();
    let svd = randomized_svd(attrs, cfg.input_dim, 8, 2, cfg.seed)?;
    let mut h = svd.u_sigma();
    l2_normalize_rows(&mut h);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5AA5);
    for _layer in 0..cfg.layers {
        let in_dim = h.cols();
        let w_self = xavier(in_dim, cfg.hidden_dim, &mut rng);
        let w_nbr = xavier(in_dim, cfg.hidden_dim, &mut rng);
        // Neighbor mean.
        let mut agg = DenseMatrix::zeros(n, in_dim);
        for v in 0..n {
            let dv = graph.weighted_degree(v as NodeId);
            let mut acc = vec![0.0; in_dim];
            for (u, w) in graph.edges_of(v as NodeId) {
                let share = w / dv;
                for (a, &x) in acc.iter_mut().zip(h.row(u as usize)) {
                    *a += share * x;
                }
            }
            agg.row_mut(v).copy_from_slice(&acc);
        }
        let mut next = h.matmul(&w_self)?;
        let nbr_part = agg.matmul(&w_nbr)?;
        for i in 0..n {
            let nrow = nbr_part.row(i).to_vec();
            for (o, &x) in next.row_mut(i).iter_mut().zip(&nrow) {
                *o = (*o + x).max(0.0); // ReLU
            }
        }
        l2_normalize_rows(&mut next);
        h = next;
    }
    Ok(h)
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
                attr_noise: 0.2,
            }),
            seed: 29,
        }
        .generate("sage")
        .unwrap()
    }

    #[test]
    fn embeddings_have_unit_rows() {
        let ds = dataset();
        let emb = sage_embeddings(&ds.graph, &ds.attributes, &SageConfig::default()).unwrap();
        for i in 0..emb.rows() {
            let norm = laca_linalg::dense::norm2(emb.row(i));
            assert!(norm < 1.0 + 1e-9);
            // ReLU can zero a row in principle, but most rows must be unit.
        }
        let nonzero =
            (0..emb.rows()).filter(|&i| laca_linalg::dense::norm2(emb.row(i)) > 0.9).count();
        assert!(nonzero > emb.rows() / 2);
    }

    #[test]
    fn knn_over_sage_recovers_community_better_than_chance() {
        let ds = dataset();
        let emb = sage_embeddings(&ds.graph, &ds.attributes, &SageConfig::default()).unwrap();
        let seed = 0;
        let truth = ds.ground_truth(seed);
        let cluster = knn_cluster(&emb, seed, truth.len());
        let tset: std::collections::HashSet<_> = truth.iter().collect();
        let precision =
            cluster.iter().filter(|v| tset.contains(v)).count() as f64 / cluster.len() as f64;
        assert!(precision > 0.45, "precision {precision}");
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset();
        let a = sage_embeddings(&ds.graph, &ds.attributes, &SageConfig::default()).unwrap();
        let b = sage_embeddings(&ds.graph, &ds.attributes, &SageConfig::default()).unwrap();
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let ds = dataset();
        assert!(sage_embeddings(&ds.graph, &AttributeMatrix::empty(150), &SageConfig::default())
            .is_err());
        let bad = SageConfig { layers: 0, ..Default::default() };
        assert!(sage_embeddings(&ds.graph, &ds.attributes, &bad).is_err());
    }
}
