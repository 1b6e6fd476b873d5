//! Compressed-sparse-row storage for connected, undirected graphs.
//!
//! Every LGC algorithm in this workspace walks adjacency lists in tight
//! loops, so the representation is a flat CSR: an `offsets` array of length
//! `n + 1` into a `neighbors` array of length `2m`. Weighted graphs (used by
//! the attribute-reweighted baselines APR-Nibble and WFD) carry a parallel
//! `weights` array; unweighted graphs omit it entirely so the common path
//! pays nothing for the option.

use crate::{GraphError, NodeId};
use rustc_hash::FxHashSet;

/// An undirected graph in CSR form, optionally edge-weighted.
///
/// Invariants maintained by all constructors:
/// * adjacency lists are sorted by neighbor id and contain no duplicates,
/// * there are no self-loops,
/// * the adjacency relation is symmetric (`(u,v)` present iff `(v,u)` is),
/// * all weights (if present) are finite and strictly positive.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    /// Parallel to `neighbors`; `None` means every edge has weight 1.
    weights: Option<Vec<f64>>,
    /// Weighted degree per node (`= adjacency-list length` when unweighted).
    degrees: Vec<f64>,
    /// Cached `1 / d(v)` per node (`+∞` for isolated nodes). The diffusion
    /// push loops spend one multiply here per push, so the reciprocal is
    /// computed once at construction instead of dividing in the hot path.
    inv_degrees: Vec<f64>,
}

fn reciprocals(degrees: &[f64]) -> Vec<f64> {
    degrees.iter().map(|&d| 1.0 / d).collect()
}

/// Rejects a node count no [`NodeId`] range can hold (or zero) before any
/// `O(n)` allocation is attempted.
fn check_node_count(n: usize) -> Result<(), GraphError> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if n > NodeId::MAX as usize + 1 {
        return Err(GraphError::TooManyNodes { n });
    }
    Ok(())
}

impl CsrGraph {
    /// Builds an unweighted graph on `n` nodes from an edge list.
    ///
    /// Self-loops and duplicate edges are dropped. Each pair may be given in
    /// either or both orientations.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        check_node_count(n)?;
        for &(u, v) in edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
        }
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            if u == v {
                continue;
            }
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::with_capacity(edges.len() * 2);
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        let degrees: Vec<f64> = (0..n).map(|i| (offsets[i + 1] - offsets[i]) as f64).collect();
        let inv_degrees = reciprocals(&degrees);
        Ok(CsrGraph { offsets, neighbors, weights: None, degrees, inv_degrees })
    }

    /// Builds a weighted graph on `n` nodes from `(u, v, w)` triples.
    ///
    /// Duplicate pairs keep the weight of the first occurrence. Weights must
    /// be finite and strictly positive.
    pub fn from_weighted_edges(
        n: usize,
        edges: &[(NodeId, NodeId, f64)],
    ) -> Result<Self, GraphError> {
        check_node_count(n)?;
        for &(u, v, w) in edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if !w.is_finite() || w <= 0.0 {
                return Err(GraphError::InvalidWeight { u, v });
            }
        }
        let mut adj: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
        for &(u, v, w) in edges {
            if u == v {
                continue;
            }
            adj[u as usize].push((v, w));
            adj[v as usize].push((u, w));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::with_capacity(edges.len() * 2);
        let mut weights = Vec::with_capacity(edges.len() * 2);
        for list in &mut adj {
            list.sort_unstable_by_key(|&(v, _)| v);
            list.dedup_by_key(|&mut (v, _)| v);
            for &(v, w) in list.iter() {
                neighbors.push(v);
                weights.push(w);
            }
            offsets.push(neighbors.len());
        }
        let degrees: Vec<f64> =
            (0..n).map(|i| weights[offsets[i]..offsets[i + 1]].iter().sum()).collect();
        let inv_degrees = reciprocals(&degrees);
        Ok(CsrGraph { offsets, neighbors, weights: Some(weights), degrees, inv_degrees })
    }

    /// Reassembles a graph from raw CSR arrays, as produced by
    /// [`CsrGraph::offsets`] / [`CsrGraph::neighbors_flat`] /
    /// [`CsrGraph::weights_flat`].
    ///
    /// This is the deserialization entry point (`laca-persist` loads
    /// sections straight into these vectors), so it re-validates every
    /// invariant the ordinary constructors establish and **fails closed**
    /// on malformed input instead of panicking later in a push loop:
    ///
    /// * `offsets` starts at 0, is monotone non-decreasing, and ends at
    ///   `neighbors.len()`;
    /// * adjacency lists are strictly ascending (sorted, deduplicated),
    ///   in range, and free of self-loops;
    /// * the adjacency relation is symmetric, with bit-equal mirrored
    ///   weights when present;
    /// * `weights` (if given) parallels `neighbors` and is finite and
    ///   strictly positive.
    ///
    /// Degrees and cached reciprocals are recomputed with the same
    /// arithmetic as the ordinary constructors, so a round-tripped graph
    /// is bit-identical to the original (`PartialEq` compares only the
    /// stored arrays, but the derived arrays match bit-for-bit too).
    pub fn from_raw_parts(
        offsets: Vec<usize>,
        neighbors: Vec<NodeId>,
        weights: Option<Vec<f64>>,
    ) -> Result<Self, GraphError> {
        if offsets.len() < 2 {
            return Err(GraphError::Empty);
        }
        let n = offsets.len() - 1;
        if offsets[0] != 0 {
            return Err(GraphError::InvalidCsr { reason: "offsets must start at 0" });
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::InvalidCsr { reason: "offsets must be monotone" });
        }
        if offsets[n] != neighbors.len() {
            return Err(GraphError::InvalidCsr { reason: "offsets must end at neighbors.len()" });
        }
        if let Some(w) = &weights {
            if w.len() != neighbors.len() {
                return Err(GraphError::InvalidCsr { reason: "weights must parallel neighbors" });
            }
        }
        for u in 0..n {
            let (start, end) = (offsets[u], offsets[u + 1]);
            let list = &neighbors[start..end];
            let mut prev: Option<NodeId> = None;
            for (i, &v) in list.iter().enumerate() {
                if v as usize >= n {
                    return Err(GraphError::NodeOutOfRange { node: v, n });
                }
                if v as usize == u {
                    return Err(GraphError::InvalidCsr { reason: "self-loop in adjacency list" });
                }
                if prev.is_some_and(|p| p >= v) {
                    return Err(GraphError::InvalidCsr {
                        reason: "adjacency list not strictly ascending",
                    });
                }
                prev = Some(v);
                if let Some(w) = &weights {
                    let wv = w[start + i];
                    if !wv.is_finite() || wv <= 0.0 {
                        return Err(GraphError::InvalidWeight { u: u as NodeId, v });
                    }
                }
            }
        }
        // Symmetry (and mirrored-weight equality): every (u, v) must have
        // its (v, u) counterpart. O(m log d) binary searches — cheap next
        // to any index build, and it closes the "checksummed but
        // logically inconsistent" corruption class.
        for u in 0..n {
            let (start, end) = (offsets[u], offsets[u + 1]);
            for idx in start..end {
                let v = neighbors[idx] as usize;
                let vlist = &neighbors[offsets[v]..offsets[v + 1]];
                match vlist.binary_search(&(u as NodeId)) {
                    Ok(pos) => {
                        if let Some(w) = &weights {
                            if w[idx].to_bits() != w[offsets[v] + pos].to_bits() {
                                return Err(GraphError::InvalidCsr {
                                    reason: "asymmetric edge weights",
                                });
                            }
                        }
                    }
                    Err(_) => {
                        return Err(GraphError::InvalidCsr {
                            reason: "adjacency relation not symmetric",
                        })
                    }
                }
            }
        }
        let degrees: Vec<f64> = match &weights {
            None => (0..n).map(|i| (offsets[i + 1] - offsets[i]) as f64).collect(),
            Some(w) => (0..n).map(|i| w[offsets[i]..offsets[i + 1]].iter().sum()).collect(),
        };
        let inv_degrees = reciprocals(&degrees);
        Ok(CsrGraph { offsets, neighbors, weights, degrees, inv_degrees })
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// `true` if the graph carries per-edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Unweighted degree (adjacency-list length) of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Weighted degree `d(v)`: the sum of incident edge weights, equal to the
    /// adjacency-list length for unweighted graphs. This is the `d(v_i)` the
    /// paper's thresholds and bounds refer to.
    #[inline]
    pub fn weighted_degree(&self, v: NodeId) -> f64 {
        self.degrees[v as usize]
    }

    /// Cached reciprocal `1 / d(v)` (`+∞` for isolated nodes).
    ///
    /// Diffusion pushes scale by `α·r(v)/d(v)` once per neighbor; using the
    /// cached reciprocal turns that division into a multiply.
    #[inline]
    pub fn inv_degree(&self, v: NodeId) -> f64 {
        self.inv_degrees[v as usize]
    }

    /// Neighbors of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Weights parallel to [`CsrGraph::neighbors`], or `None` when unweighted.
    #[inline]
    pub fn neighbor_weights(&self, v: NodeId) -> Option<&[f64]> {
        let w = self.weights.as_ref()?;
        let v = v as usize;
        Some(&w[self.offsets[v]..self.offsets[v + 1]])
    }

    /// Iterates `(neighbor, weight)` pairs of `v` (weight 1 when unweighted).
    pub fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let v = v as usize;
        let range = self.offsets[v]..self.offsets[v + 1];
        let nbrs = &self.neighbors[range.clone()];
        let ws = self.weights.as_ref().map(|w| &w[range]);
        nbrs.iter().enumerate().map(move |(i, &u)| (u, ws.map_or(1.0, |w| w[i])))
    }

    /// `true` if `(u, v)` is an edge (binary search on the sorted list).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Total volume `vol(V) = Σ_v d(v)` (`= 2m` when unweighted).
    pub fn total_volume(&self) -> f64 {
        self.degrees.iter().sum()
    }

    /// Volume of a node set, `vol(C) = Σ_{v ∈ C} d(v)`.
    pub fn volume(&self, nodes: &[NodeId]) -> f64 {
        nodes.iter().map(|&v| self.weighted_degree(v)).sum()
    }

    /// Conductance `Φ(C) = cut(C, V∖C) / min(vol(C), vol(V∖C))` of a node set.
    ///
    /// Returns 1.0 for empty or all-of-`V` sets, matching the convention used
    /// by sweep cuts in the LGC literature.
    pub fn conductance(&self, nodes: &[NodeId]) -> f64 {
        if nodes.is_empty() {
            return 1.0;
        }
        let set: FxHashSet<NodeId> = nodes.iter().copied().collect();
        let mut cut = 0.0;
        let mut vol = 0.0;
        for &v in nodes {
            vol += self.weighted_degree(v);
            for (u, w) in self.edges_of(v) {
                if !set.contains(&u) {
                    cut += w;
                }
            }
        }
        let complement = self.total_volume() - vol;
        let denom = vol.min(complement);
        if denom <= 0.0 {
            1.0
        } else {
            cut / denom
        }
    }

    /// Replaces edge weights via `f(u, v)`, keeping the structure.
    ///
    /// Weights are evaluated once per undirected edge (`u < v`) and clamped
    /// below at `min_weight` so the reweighted graph remains connected
    /// whenever the input is. This is the preprocessing step of APR-Nibble
    /// and WFD, which reweight each edge by the attribute similarity of its
    /// endpoints.
    pub fn reweighted<F>(&self, min_weight: f64, mut f: F) -> CsrGraph
    where
        F: FnMut(NodeId, NodeId) -> f64,
    {
        let n = self.n();
        let mut weights = vec![0.0f64; self.neighbors.len()];
        for u in 0..n as NodeId {
            let (start, end) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
            for idx in start..end {
                let v = self.neighbors[idx];
                if u < v {
                    let w = f(u, v).max(min_weight);
                    weights[idx] = w;
                    // Mirror into v's list via binary search.
                    let vs = self.offsets[v as usize];
                    let pos = self.neighbors[vs..self.offsets[v as usize + 1]]
                        .binary_search(&u)
                        .expect("CSR symmetry invariant violated");
                    weights[vs + pos] = w;
                }
            }
        }
        let degrees: Vec<f64> =
            (0..n).map(|i| weights[self.offsets[i]..self.offsets[i + 1]].iter().sum()).collect();
        let inv_degrees = reciprocals(&degrees);
        CsrGraph {
            offsets: self.offsets.clone(),
            neighbors: self.neighbors.clone(),
            weights: Some(weights),
            degrees,
            inv_degrees,
        }
    }

    /// `true` if the graph is connected (BFS from node 0).
    pub fn is_connected(&self) -> bool {
        let n = self.n();
        let mut seen = vec![false; n];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &u in self.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == n
    }

    /// Connected components as (component id per node, number of components).
    pub fn components(&self) -> (Vec<u32>, usize) {
        let n = self.n();
        let mut comp = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut stack = Vec::new();
        for start in 0..n {
            if comp[start] != u32::MAX {
                continue;
            }
            comp[start] = next;
            stack.push(start as NodeId);
            while let Some(v) = stack.pop() {
                for &u in self.neighbors(v) {
                    if comp[u as usize] == u32::MAX {
                        comp[u as usize] = next;
                        stack.push(u);
                    }
                }
            }
            next += 1;
        }
        (comp, next as usize)
    }

    /// The raw CSR offset array (`n + 1` entries into
    /// [`CsrGraph::neighbors_flat`]). Serializers write these arrays
    /// verbatim; [`CsrGraph::from_raw_parts`] reassembles them.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat adjacency array (length `2m`), concatenating every node's
    /// sorted neighbor list.
    #[inline]
    pub fn neighbors_flat(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// The flat edge-weight array parallel to
    /// [`CsrGraph::neighbors_flat`], or `None` when unweighted.
    #[inline]
    pub fn weights_flat(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// All undirected edges as `(u, v)` with `u < v`.
    pub fn edge_list(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.m());
        for u in 0..self.n() as NodeId {
            for &v in self.neighbors(u) {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }
}

// The CSR graph is the immutable artifact every serving thread shares;
// catch any future interior mutability at compile time.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CsrGraph>();
};

/// Incremental edge accumulator used by the generators.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: FxHashSet<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: FxHashSet::default() }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct undirected edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge; returns `false` if it was a self-loop,
    /// out of range, or already present.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || u as usize >= self.n || v as usize >= self.n {
            return false;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.insert(key)
    }

    /// `true` if the undirected edge is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.contains(&key)
    }

    /// Finalizes into a [`CsrGraph`].
    pub fn build(self) -> Result<CsrGraph, GraphError> {
        let edges: Vec<(NodeId, NodeId)> = self.edges.into_iter().collect();
        CsrGraph::from_edges(self.n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn builds_and_sorts_adjacency() {
        let g = CsrGraph::from_edges(4, &[(2, 1), (0, 1), (3, 2), (1, 2)]).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1, 3]);
    }

    #[test]
    fn drops_self_loops_and_duplicates() {
        let g = CsrGraph::from_edges(3, &[(0, 0), (0, 1), (1, 0), (1, 2)]).unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = CsrGraph::from_edges(2, &[(0, 5)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 5, n: 2 });
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(CsrGraph::from_edges(0, &[]).unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn weighted_degrees_sum_weights() {
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)]).unwrap();
        assert_eq!(g.weighted_degree(1), 5.0);
        assert_eq!(g.weighted_degree(0), 2.0);
        assert!(g.is_weighted());
    }

    #[test]
    fn rejects_bad_weight() {
        let err = CsrGraph::from_weighted_edges(2, &[(0, 1, -1.0)]).unwrap_err();
        assert_eq!(err, GraphError::InvalidWeight { u: 0, v: 1 });
        let err = CsrGraph::from_weighted_edges(2, &[(0, 1, f64::NAN)]).unwrap_err();
        assert_eq!(err, GraphError::InvalidWeight { u: 0, v: 1 });
    }

    #[test]
    fn edges_of_yields_unit_weights_when_unweighted() {
        let g = path4();
        let es: Vec<_> = g.edges_of(1).collect();
        assert_eq!(es, vec![(0, 1.0), (2, 1.0)]);
    }

    #[test]
    fn has_edge_works() {
        let g = path4();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn conductance_of_half_path() {
        let g = path4();
        // C = {0, 1}: cut = 1, vol = 3, complement vol = 3.
        let phi = g.conductance(&[0, 1]);
        assert!((phi - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn conductance_extremes() {
        let g = path4();
        assert_eq!(g.conductance(&[]), 1.0);
        assert_eq!(g.conductance(&[0, 1, 2, 3]), 1.0);
    }

    #[test]
    fn reweighted_preserves_structure_and_symmetry() {
        let g = path4();
        let w = g.reweighted(1e-9, |u, v| (u + v) as f64);
        assert_eq!(w.n(), 4);
        assert_eq!(w.m(), 3);
        assert_eq!(w.neighbor_weights(1).unwrap(), &[1.0, 3.0]);
        assert_eq!(w.neighbor_weights(2).unwrap(), &[3.0, 5.0]);
        assert_eq!(w.weighted_degree(1), 4.0);
    }

    #[test]
    fn connectivity_and_components() {
        let g = path4();
        assert!(g.is_connected());
        let g2 = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g2.is_connected());
        let (comp, k) = g2.components();
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn builder_dedups_and_builds() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge(0, 1));
        assert!(!b.add_edge(1, 0));
        assert!(!b.add_edge(1, 1));
        assert!(b.add_edge(1, 2));
        assert_eq!(b.num_edges(), 2);
        let g = b.build().unwrap();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn edge_list_round_trip() {
        let g = path4();
        let edges = g.edge_list();
        let g2 = CsrGraph::from_edges(4, &edges).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn total_volume_is_twice_m() {
        let g = path4();
        assert_eq!(g.total_volume(), 2.0 * g.m() as f64);
    }

    #[test]
    fn raw_parts_round_trip_unweighted_and_weighted() {
        let g = path4();
        let back = CsrGraph::from_raw_parts(
            g.offsets().to_vec(),
            g.neighbors_flat().to_vec(),
            g.weights_flat().map(|w| w.to_vec()),
        )
        .unwrap();
        assert_eq!(g, back);
        for v in 0..4 {
            assert_eq!(g.inv_degree(v).to_bits(), back.inv_degree(v).to_bits());
        }

        let w = CsrGraph::from_weighted_edges(3, &[(0, 1, 2.5), (1, 2, 0.25)]).unwrap();
        let back = CsrGraph::from_raw_parts(
            w.offsets().to_vec(),
            w.neighbors_flat().to_vec(),
            w.weights_flat().map(|x| x.to_vec()),
        )
        .unwrap();
        assert_eq!(w, back);
        assert_eq!(w.weighted_degree(1).to_bits(), back.weighted_degree(1).to_bits());
    }

    #[test]
    fn raw_parts_reject_malformed_input() {
        let g = path4();
        let off = g.offsets().to_vec();
        let nbr = g.neighbors_flat().to_vec();
        // Non-monotone offsets.
        let mut bad = off.clone();
        bad[1] = 5;
        assert!(matches!(
            CsrGraph::from_raw_parts(bad, nbr.clone(), None),
            Err(GraphError::InvalidCsr { .. })
        ));
        // Offsets not ending at neighbors.len().
        let mut bad = off.clone();
        bad[4] = 3;
        assert!(CsrGraph::from_raw_parts(bad, nbr.clone(), None).is_err());
        // Out-of-range neighbor.
        let mut bad_n = nbr.clone();
        bad_n[0] = 99;
        assert!(matches!(
            CsrGraph::from_raw_parts(off.clone(), bad_n, None),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        // Asymmetric adjacency: swap one endpoint.
        let mut bad_n = nbr.clone();
        bad_n[0] = 3;
        assert!(CsrGraph::from_raw_parts(off.clone(), bad_n, None).is_err());
        // Unsorted list (node 1 has [0, 2]; reverse it).
        let mut bad_n = nbr.clone();
        bad_n.swap(1, 2);
        assert!(CsrGraph::from_raw_parts(off.clone(), bad_n, None).is_err());
        // Bad weight.
        let w = vec![1.0; nbr.len()];
        let mut bad_w = w.clone();
        bad_w[2] = -1.0;
        assert!(matches!(
            CsrGraph::from_raw_parts(off.clone(), nbr.clone(), Some(bad_w)),
            Err(GraphError::InvalidWeight { .. })
        ));
        // Asymmetric weights (edge (0,1) has different bits each way).
        let mut bad_w = w.clone();
        bad_w[0] = 2.0;
        assert!(CsrGraph::from_raw_parts(off.clone(), nbr.clone(), Some(bad_w)).is_err());
        // Wrong weight arity.
        assert!(CsrGraph::from_raw_parts(off, nbr, Some(vec![1.0])).is_err());
        // Empty.
        assert!(matches!(
            CsrGraph::from_raw_parts(vec![0], Vec::new(), None),
            Err(GraphError::Empty)
        ));
    }
}
