//! Cluster extraction from a score vector.
//!
//! The paper's evaluation protocol (Section VI-B) extracts the `|Cs| = |Ys|`
//! nodes with the largest BDD values. The classic alternative — the sweep
//! cut minimizing conductance along the score order — is also provided; the
//! LGC baselines use it when a target size is not imposed.

use laca_diffusion::sparse_vec::by_rank;
use laca_diffusion::SparseVec;
use laca_graph::{CsrGraph, NodeId};
use rustc_hash::FxHashSet;

/// The `size` nodes with the largest scores, seed always included.
///
/// Deterministic: ties break by node id. If the score support is smaller
/// than `size`, the result is simply shorter (the caller decides whether to
/// pad; precision evaluation does not reward padding with random nodes).
pub fn top_k_cluster(score: &SparseVec, seed: NodeId, size: usize) -> Vec<NodeId> {
    let mut pairs: Vec<(NodeId, f64)> = score.iter().collect();
    top_k_cluster_from_pairs(&mut pairs, seed, size)
}

/// Same extraction from a dense score vector (global baselines produce
/// dense scores); zero entries are outside the support and never ranked.
pub fn top_k_cluster_dense(score: &[f64], seed: NodeId, size: usize) -> Vec<NodeId> {
    let mut pairs: Vec<(NodeId, f64)> = score
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0.0)
        .map(|(i, &v)| (i as NodeId, v))
        .collect();
    top_k_cluster_from_pairs(&mut pairs, seed, size)
}

/// [`top_k_cluster`] over `(node, score)` pairs with unique node ids, in
/// any order: the one extraction every entry point (and `Laca::cluster`,
/// straight from the diffusion workspace) goes through.
///
/// Selects the top `size` pairs in [`by_rank`] order with
/// `select_nth_unstable_by` and sorts only that prefix —
/// `O(len + size·log size)` rather than a full sort. Because the order is
/// total over unique ids, the result equals sorting everything and taking
/// `size`. `pairs` is permuted in place.
pub fn top_k_cluster_from_pairs(
    pairs: &mut [(NodeId, f64)],
    seed: NodeId,
    size: usize,
) -> Vec<NodeId> {
    if size == 0 {
        return vec![seed];
    }
    let k = size.min(pairs.len());
    if k < pairs.len() {
        pairs.select_nth_unstable_by(k, by_rank);
    }
    let top = &mut pairs[..k];
    top.sort_unstable_by(by_rank);
    // At most `size` nodes, and at most one more than the ranked prefix
    // when the seed has to be added.
    let mut cluster = Vec::with_capacity(size.min(k + 1));
    let mut has_seed = false;
    for &(v, _) in top.iter() {
        if v == seed {
            has_seed = true;
        }
        cluster.push(v);
    }
    if !has_seed {
        if cluster.len() == size {
            cluster.pop();
        }
        cluster.insert(0, seed);
    }
    cluster
}

/// Sweep cut: scans prefixes of the score order and returns the prefix with
/// the smallest conductance, together with that conductance.
///
/// Runs in `O(vol(supp(score)))` using incremental cut/volume maintenance.
pub fn sweep_cut(graph: &CsrGraph, score: &SparseVec) -> (Vec<NodeId>, f64) {
    let ranked = score.to_ranked_pairs();
    if ranked.is_empty() {
        return (Vec::new(), 1.0);
    }
    let total_vol = graph.total_volume();
    let mut in_set: FxHashSet<NodeId> = FxHashSet::default();
    let mut cut = 0.0;
    let mut vol = 0.0;
    let mut best_phi = f64::INFINITY;
    let mut best_len = 1usize;
    for (idx, &(v, _)) in ranked.iter().enumerate() {
        let d = graph.weighted_degree(v);
        vol += d;
        // Adding v: edges to the current set stop being cut; the rest start.
        let mut to_set = 0.0;
        for (u, w) in graph.edges_of(v) {
            if in_set.contains(&u) {
                to_set += w;
            }
        }
        cut += d - 2.0 * to_set;
        in_set.insert(v);
        let denom = vol.min(total_vol - vol);
        let phi = if denom <= 0.0 { 1.0 } else { cut / denom };
        if phi < best_phi {
            best_phi = phi;
            best_len = idx + 1;
        }
    }
    let cluster = ranked.iter().take(best_len).map(|&(v, _)| v).collect();
    (cluster, best_phi.min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn two_triangles() -> CsrGraph {
        // Two triangles joined by one edge: the sweep must find a triangle.
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn top_k_takes_largest() {
        let score = SparseVec::from_pairs([(0, 0.9), (1, 0.5), (2, 0.7), (3, 0.1)]);
        assert_eq!(top_k_cluster(&score, 0, 2), vec![0, 2]);
    }

    #[test]
    fn top_k_forces_seed_membership() {
        let score = SparseVec::from_pairs([(1, 0.9), (2, 0.8), (3, 0.7)]);
        let c = top_k_cluster(&score, 5, 2);
        assert!(c.contains(&5));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn top_k_handles_small_support() {
        let score = SparseVec::from_pairs([(0, 1.0)]);
        let c = top_k_cluster(&score, 0, 10);
        assert_eq!(c, vec![0]);
    }

    #[test]
    fn top_k_zero_size() {
        let score = SparseVec::from_pairs([(1, 1.0)]);
        assert_eq!(top_k_cluster(&score, 7, 0), vec![7]);
    }

    #[test]
    fn dense_extraction_matches_sparse() {
        let dense = vec![0.9, 0.5, 0.7, 0.1];
        let sparse = SparseVec::from_pairs([(0, 0.9), (1, 0.5), (2, 0.7), (3, 0.1)]);
        assert_eq!(top_k_cluster_dense(&dense, 0, 3), top_k_cluster(&sparse, 0, 3));
    }

    /// `top_k_cluster_dense` as it was before the select helper: a full
    /// `partial_cmp` sort, the top `size + 1` into a `SparseVec`, then the
    /// sparse extraction (a full sort again).
    fn dense_by_full_sorts(score: &[f64], seed: NodeId, size: usize) -> Vec<NodeId> {
        if size == 0 {
            return vec![seed];
        }
        let mut ranked: Vec<(NodeId, f64)> = score
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(i, &v)| (i as NodeId, v))
            .collect();
        ranked.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let sparse = SparseVec::from_pairs(ranked.into_iter().take(size + 1));
        let ranked = sparse.to_ranked_pairs();
        let mut cluster: Vec<NodeId> = ranked.iter().take(size).map(|&(v, _)| v).collect();
        if !cluster.contains(&seed) {
            if cluster.len() == size {
                cluster.pop();
            }
            cluster.insert(0, seed);
        }
        cluster
    }

    #[test]
    fn dense_extraction_matches_the_full_sort_composition_under_heavy_ties() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7135);
        for case in 0..300 {
            let n = rng.gen_range(0..120usize);
            // Few distinct levels (and many zeros) so most scores tie.
            let levels = rng.gen_range(1..5u32);
            let score: Vec<f64> =
                (0..n).map(|_| f64::from(rng.gen_range(0..=levels)) * 0.25).collect();
            let seed = rng.gen_range(0..n.max(1)) as NodeId;
            for size in [0, 1, 2, n / 3, n / 2, n, n + 3] {
                assert_eq!(
                    top_k_cluster_dense(&score, seed, size),
                    dense_by_full_sorts(&score, seed, size),
                    "case {case}: n {n}, seed {seed}, size {size}"
                );
            }
        }
    }

    #[test]
    fn nan_scores_rank_instead_of_panicking() {
        // A NaN attribute row can reach a baseline's dense score.
        let dense = vec![0.2, f64::NAN, 0.9, 0.0, 0.4];
        // Rank: NaN (1), 0.9 (2), 0.4 (4), 0.2 (0); zero (3) is unranked.
        assert_eq!(top_k_cluster_dense(&dense, 4, 3), vec![1, 2, 4]);
        assert_eq!(top_k_cluster_dense(&dense, 0, 3), vec![0, 1, 2]);
        let mut sparse = SparseVec::new();
        for (i, &v) in dense.iter().enumerate() {
            sparse.set(i as NodeId, v);
        }
        assert_eq!(top_k_cluster(&sparse, 4, 3), top_k_cluster_dense(&dense, 4, 3));
    }

    #[test]
    fn sweep_finds_the_triangle() {
        let g = two_triangles();
        let score = SparseVec::from_pairs([(0, 1.0), (1, 0.9), (2, 0.8), (3, 0.2), (4, 0.1)]);
        let (cluster, phi) = sweep_cut(&g, &score);
        let mut sorted = cluster.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        // Triangle: cut 1, vol 7 (node 2 has degree 3) → φ = 1/7.
        assert!((phi - 1.0 / 7.0).abs() < 1e-12, "phi {phi}");
    }

    #[test]
    fn sweep_on_empty_score() {
        let g = two_triangles();
        let (cluster, phi) = sweep_cut(&g, &SparseVec::new());
        assert!(cluster.is_empty());
        assert_eq!(phi, 1.0);
    }

    #[test]
    fn sweep_conductance_matches_graph_conductance() {
        let g = two_triangles();
        let score = SparseVec::from_pairs([(3, 1.0), (4, 0.9), (5, 0.8), (0, 0.05)]);
        let (cluster, phi) = sweep_cut(&g, &score);
        assert!((g.conductance(&cluster) - phi).abs() < 1e-12);
    }
}
