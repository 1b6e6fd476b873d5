//! CFANE-style cross-fusion attributed network embedding (Pan et al.,
//! 2021 — citation \[62\]).
//!
//! CFANE fuses a topology channel and an attribute channel into one
//! embedding. We implement the fusion skeleton without the deep
//! attention stack: the topology channel is a rank-`k`
//! spectral embedding of the normalized adjacency
//! `Â = D^{−1/2} A D^{−1/2}` (randomized SVD over its sparse rows); the
//! attribute channel is the rank-`k` SVD of `X`; the channels are
//! row-normalized, concatenated, and passed through one propagation step
//! so each channel sees the other's neighborhood context — the
//! "cross-fusion" coupling.
//!
//! CFANE is the most expensive baseline in the paper (it times out on the
//! large datasets in Fig. 7); our version is polynomial but still the
//! slowest embedding baseline here, matching its Table IV role.

use crate::BaselineError;
use laca_graph::{AttributeMatrix, CsrGraph, NodeId};
use laca_linalg::{randomized_svd, DenseMatrix};

/// CFANE hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CfaneConfig {
    /// Per-channel embedding dimension (total = 2×).
    pub dim: usize,
    /// Cross-fusion propagation steps.
    pub fusion_hops: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CfaneConfig {
    fn default() -> Self {
        CfaneConfig { dim: 48, fusion_hops: 2, seed: 0xCFA4E }
    }
}

/// Builds the normalized adjacency as a sparse "attribute" matrix so the
/// randomized SVD machinery applies to it.
fn normalized_adjacency(graph: &CsrGraph) -> Result<AttributeMatrix, BaselineError> {
    let n = graph.n();
    let mut rows: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n);
    for v in 0..n as NodeId {
        let dv = graph.weighted_degree(v);
        let row: Vec<(u32, f64)> = graph
            .edges_of(v)
            .map(|(u, w)| (u, w / (dv * graph.weighted_degree(u)).sqrt()))
            .collect();
        rows.push(row);
    }
    Ok(AttributeMatrix::from_rows(n, &rows)?)
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

/// Computes CFANE-style fused embeddings for all nodes.
pub fn cfane_embeddings(
    graph: &CsrGraph,
    attrs: &AttributeMatrix,
    cfg: &CfaneConfig,
) -> Result<DenseMatrix, BaselineError> {
    if attrs.is_empty() {
        return Err(BaselineError::NoAttributes);
    }
    if cfg.dim == 0 {
        return Err(BaselineError::BadParameter("dim must be positive"));
    }
    let n = graph.n();
    // Topology channel.
    let adj = normalized_adjacency(graph)?;
    let mut topo = randomized_svd(&adj, cfg.dim, 8, 2, cfg.seed)?.u_sigma();
    l2_normalize_rows(&mut topo);
    // Attribute channel.
    let mut attr = randomized_svd(attrs, cfg.dim, 8, 2, cfg.seed ^ 0xFFFF)?.u_sigma();
    l2_normalize_rows(&mut attr);
    // Concatenate and cross-fuse via propagation.
    let mut fused = topo.hconcat(&attr)?;
    let k = fused.cols();
    for _ in 0..cfg.fusion_hops {
        let mut next = DenseMatrix::zeros(n, k);
        for v in 0..n {
            let dv = graph.weighted_degree(v as NodeId);
            // Self + neighbor mean, 50/50 (a residual connection).
            let mut acc: Vec<f64> = fused.row(v).iter().map(|&x| 0.5 * x).collect();
            for (u, w) in graph.edges_of(v as NodeId) {
                let share = 0.5 * w / dv;
                for (a, &x) in acc.iter_mut().zip(fused.row(u as usize)) {
                    *a += share * x;
                }
            }
            next.row_mut(v).copy_from_slice(&acc);
        }
        fused = next;
    }
    l2_normalize_rows(&mut fused);
    Ok(fused)
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
            seed: 37,
        }
        .generate("cfane")
        .unwrap()
    }

    #[test]
    fn fused_embedding_has_double_width() {
        let ds = dataset();
        let emb = cfane_embeddings(&ds.graph, &ds.attributes, &CfaneConfig::default()).unwrap();
        assert_eq!(emb.cols(), 96);
        assert_eq!(emb.rows(), 150);
    }

    #[test]
    fn recovers_planted_communities() {
        let ds = dataset();
        let emb = cfane_embeddings(&ds.graph, &ds.attributes, &CfaneConfig::default()).unwrap();
        let seed = 0;
        let truth = ds.ground_truth(seed);
        let cluster = knn_cluster(&emb, seed, truth.len());
        let tset: std::collections::HashSet<_> = truth.iter().collect();
        let precision =
            cluster.iter().filter(|v| tset.contains(v)).count() as f64 / cluster.len() as f64;
        assert!(precision > 0.6, "precision {precision}");
    }

    #[test]
    fn fusion_uses_both_channels() {
        // Zeroing fusion hops should still work (pure concat).
        let ds = dataset();
        let cfg = CfaneConfig { fusion_hops: 0, ..Default::default() };
        let emb = cfane_embeddings(&ds.graph, &ds.attributes, &cfg).unwrap();
        assert_eq!(emb.cols(), 96);
    }

    #[test]
    fn rejects_bad_inputs() {
        let ds = dataset();
        assert!(cfane_embeddings(&ds.graph, &AttributeMatrix::empty(150), &CfaneConfig::default())
            .is_err());
        let bad = CfaneConfig { dim: 0, ..Default::default() };
        assert!(cfane_embeddings(&ds.graph, &ds.attributes, &bad).is_err());
    }
}
