//! Local-cluster extraction from node embeddings.
//!
//! The embedding baselines (Node2Vec, SAGE, PANE, CFANE) produce a dense
//! embedding per node; the paper evaluates each with three extractors
//! (Table V rows "(K-NN)", "(SC)", "(DBSCAN)"):
//!
//! * **K-NN** — the `size` nearest neighbors of the seed by cosine;
//! * **SC** — partition the embedding space into `K` groups and return the
//!   seed's group (we use k-means++, the standard final step of spectral
//!   clustering pipelines, over the already-spectral embeddings);
//! * **DBSCAN** — density-based expansion around the seed.
//!
//! All extractors trim/pad to the requested size by seed distance so the
//! `|Cs| = |Ys|` protocol applies uniformly.

use laca_diffusion::sparse_vec::by_rank;
use laca_graph::NodeId;
use laca_linalg::dense::dot;
use laca_linalg::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cosine similarity between two embedding rows (0 when either is zero).
fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// Ranks all nodes by cosine similarity to the seed's embedding row and
/// returns the top `size` (seed first).
pub fn knn_cluster(emb: &DenseMatrix, seed: NodeId, size: usize) -> Vec<NodeId> {
    let n = emb.rows();
    let srow = emb.row(seed as usize);
    let mut scored: Vec<(NodeId, f64)> =
        (0..n).map(|v| (v as NodeId, cosine(srow, emb.row(v)))).collect();
    scored.sort_unstable_by(by_rank);
    let mut out: Vec<NodeId> = vec![seed];
    for (v, _) in scored {
        if out.len() >= size.max(1) {
            break;
        }
        if v != seed {
            out.push(v);
        }
    }
    out
}

/// k-means++ over the embedding rows; returns the members of the seed's
/// cluster, trimmed/padded to `size` by distance to the seed.
pub fn kmeans_cluster(
    emb: &DenseMatrix,
    seed: NodeId,
    size: usize,
    num_clusters: usize,
    rng_seed: u64,
) -> Vec<NodeId> {
    let n = emb.rows();
    let d = emb.cols();
    let k = num_clusters.clamp(1, n);
    let mut rng = StdRng::seed_from_u64(rng_seed);

    // k-means++ initialization.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(emb.row(rng.gen_range(0..n)).to_vec());
    let mut dist2 = vec![0.0f64; n];
    while centroids.len() < k {
        let mut total = 0.0;
        for (v, dv) in dist2.iter_mut().enumerate() {
            let best =
                centroids.iter().map(|c| sq_dist(emb.row(v), c)).fold(f64::INFINITY, f64::min);
            *dv = best;
            total += best;
        }
        if total <= 0.0 {
            centroids.push(emb.row(rng.gen_range(0..n)).to_vec());
            continue;
        }
        let mut x = rng.gen::<f64>() * total;
        let mut pick = n - 1;
        for (v, &dv) in dist2.iter().enumerate() {
            x -= dv;
            if x <= 0.0 {
                pick = v;
                break;
            }
        }
        centroids.push(emb.row(pick).to_vec());
    }

    // Lloyd iterations.
    let mut assign = vec![0usize; n];
    for _ in 0..25 {
        let mut changed = false;
        for (v, a) in assign.iter_mut().enumerate() {
            let row = emb.row(v);
            let (best, _) = centroids
                .iter()
                .enumerate()
                .map(|(c, cent)| (c, sq_dist(row, cent)))
                .min_by(|x, y| x.1.total_cmp(&y.1))
                .expect("k-means++ seeds at least one centroid");
            if *a != best {
                *a = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let mut sums = vec![vec![0.0; d]; k];
        let mut counts = vec![0usize; k];
        for v in 0..n {
            counts[assign[v]] += 1;
            for (s, &x) in sums[assign[v]].iter_mut().zip(emb.row(v)) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for s in &mut sums[c] {
                    *s /= counts[c] as f64;
                }
                centroids[c] = sums[c].clone();
            }
        }
    }

    let seed_cluster = assign[seed as usize];
    let members: Vec<NodeId> =
        (0..n).filter(|&v| assign[v] == seed_cluster).map(|v| v as NodeId).collect();
    trim_or_pad(emb, seed, size, members)
}

/// Query-independent DBSCAN structure over an embedding, built once and
/// shared across seed queries.
///
/// The density-connected components of an embedding do not depend on the
/// query seed, so the `O(n²·d)` neighborhood scan is paid once here
/// instead of once per `dbscan_cluster` call (the evaluation protocol
/// runs hundreds of seeds against the same embedding).
#[derive(Debug, Clone)]
pub struct DbscanIndex {
    /// Component id for core nodes, `None` for non-core nodes.
    core_comp: Vec<Option<u32>>,
    /// Members of each component: its core nodes plus every border node
    /// within `eps` of one of them — exactly the set the seed-expansion
    /// reaches from any core node of the component.
    members: Vec<Vec<NodeId>>,
}

impl DbscanIndex {
    /// Builds the index: one `O(n²·d)` counting pass classifies core
    /// nodes, then a BFS over cores recomputes each core's neighborhood
    /// exactly once more while expanding. Regions are never all held in
    /// memory at once (a cohesive embedding's neighborhoods total
    /// `O(n²)` entries), so peak extra memory stays `O(n)`.
    pub fn build(emb: &DenseMatrix, eps: f64, min_pts: usize) -> Self {
        let n = emb.rows();
        let region_of = |v: usize, out: &mut Vec<usize>| {
            out.clear();
            let row = emb.row(v);
            out.extend((0..n).filter(|&u| 1.0 - cosine(row, emb.row(u)) <= eps));
        };
        let mut region: Vec<usize> = Vec::new();
        let is_core: Vec<bool> = (0..n)
            .map(|v| {
                let row = emb.row(v);
                (0..n).filter(|&u| 1.0 - cosine(row, emb.row(u)) <= eps).count() >= min_pts
            })
            .collect();
        let mut core_comp: Vec<Option<u32>> = vec![None; n];
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        // `marked[u] == comp + 1` means `u` is already a member of `comp`
        // (stamp avoids an O(n) clear per component).
        let mut marked = vec![0u32; n];
        for v in 0..n {
            if !is_core[v] || core_comp[v].is_some() {
                continue;
            }
            let comp = members.len() as u32;
            let stamp = comp + 1;
            let mut stack = vec![v];
            core_comp[v] = Some(comp);
            marked[v] = stamp;
            let mut comp_members = vec![v as NodeId];
            while let Some(c) = stack.pop() {
                region_of(c, &mut region);
                for &u in &region {
                    if marked[u] != stamp {
                        marked[u] = stamp;
                        comp_members.push(u as NodeId);
                    }
                    if is_core[u] && core_comp[u].is_none() {
                        core_comp[u] = Some(comp);
                        stack.push(u);
                    }
                }
            }
            comp_members.sort_unstable();
            members.push(comp_members);
        }
        DbscanIndex { core_comp, members }
    }

    /// The cluster of `seed`: its density-connected component when the
    /// seed is a core point, K-NN fallback otherwise — identical to what
    /// per-query seed expansion computes.
    pub fn cluster(&self, emb: &DenseMatrix, seed: NodeId, size: usize) -> Vec<NodeId> {
        match self.core_comp[seed as usize] {
            Some(comp) => trim_or_pad(emb, seed, size, self.members[comp as usize].clone()),
            None => knn_cluster(emb, seed, size),
        }
    }
}

/// DBSCAN in cosine-distance space (`1 − cos`), expanded from the seed's
/// density-connected component; falls back to K-NN when the seed is not
/// density-reachable.
///
/// Convenience one-shot wrapper; repeated queries against the same
/// embedding should build a [`DbscanIndex`] once instead.
pub fn dbscan_cluster(
    emb: &DenseMatrix,
    seed: NodeId,
    size: usize,
    eps: f64,
    min_pts: usize,
) -> Vec<NodeId> {
    DbscanIndex::build(emb, eps, min_pts).cluster(emb, seed, size)
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Trims an over-sized member set (keeping the nodes closest to the seed)
/// or pads an under-sized one with the globally nearest non-members.
fn trim_or_pad(emb: &DenseMatrix, seed: NodeId, size: usize, members: Vec<NodeId>) -> Vec<NodeId> {
    let size = size.max(1);
    let srow = emb.row(seed as usize);
    let mut scored: Vec<(NodeId, f64)> =
        members.iter().map(|&v| (v, cosine(srow, emb.row(v as usize)))).collect();
    scored.sort_unstable_by(by_rank);
    let mut out: Vec<NodeId> = vec![seed];
    let mut seen: rustc_hash::FxHashSet<NodeId> = [seed].into_iter().collect();
    for (v, _) in scored {
        if out.len() >= size {
            break;
        }
        if seen.insert(v) {
            out.push(v);
        }
    }
    if out.len() < size {
        for v in knn_cluster(emb, seed, emb.rows()) {
            if out.len() >= size {
                break;
            }
            if seen.insert(v) {
                out.push(v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs in 2-D.
    fn blobs() -> DenseMatrix {
        DenseMatrix::from_fn(10, 2, |i, j| {
            let base: [f64; 2] = if i < 5 { [1.0, 0.1] } else { [0.1, 1.0] };
            base[j] + 0.01 * (i as f64)
        })
    }

    #[test]
    fn knn_finds_the_blob() {
        let e = blobs();
        let c = knn_cluster(&e, 0, 5);
        assert_eq!(c.len(), 5);
        assert!(c.iter().all(|&v| v < 5), "{c:?}");
    }

    #[test]
    fn kmeans_separates_blobs() {
        let e = blobs();
        let c = kmeans_cluster(&e, 7, 5, 2, 42);
        assert_eq!(c.len(), 5);
        assert!(c.iter().all(|&v| v >= 5), "{c:?}");
    }

    #[test]
    fn dbscan_expands_the_dense_region() {
        let e = blobs();
        let c = dbscan_cluster(&e, 1, 5, 0.05, 3);
        assert_eq!(c.len(), 5);
        assert!(c.iter().all(|&v| v < 5), "{c:?}");
    }

    #[test]
    fn dbscan_falls_back_to_knn_for_isolated_seed() {
        let mut rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 10.0, 1.0]).collect();
        rows[3] = vec![1000.0, -500.0];
        let e = DenseMatrix::from_fn(6, 2, |i, j| rows[i][j]);
        let c = dbscan_cluster(&e, 3, 3, 1e-6, 4);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0], 3);
    }

    #[test]
    fn extraction_pads_to_requested_size() {
        let e = blobs();
        // DBSCAN with tight eps gives a small set; padding must fill to 8.
        let c = dbscan_cluster(&e, 0, 8, 0.001, 2);
        assert_eq!(c.len(), 8);
        // No duplicates.
        let set: std::collections::HashSet<_> = c.iter().collect();
        assert_eq!(set.len(), 8);
    }

    #[test]
    fn kmeans_is_deterministic_per_seed() {
        let e = blobs();
        assert_eq!(kmeans_cluster(&e, 0, 4, 2, 7), kmeans_cluster(&e, 0, 4, 2, 7));
    }
}
