//! Hashed sparse vectors for diffusion state.
//!
//! The solvers touch `O(1/ε)` nodes regardless of graph size, so their
//! state must not allocate `O(n)`. `FxHashMap` (integer-keyed, per the
//! perf-guide hashing advice) keeps gets/adds cheap in the push loop.

use laca_graph::{CsrGraph, NodeId};
use rustc_hash::FxHashMap;
use std::cmp::Ordering;

/// A sparse non-negative vector indexed by node id.
///
/// Stored entries are non-zero by construction: writes of exactly `0.0`
/// remove the entry, so `support_size` equals the paper's `|supp(·)|`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    map: FxHashMap<NodeId, f64>,
}

impl SparseVec {
    /// Empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty vector pre-sized for `cap` entries (no rehash growth while
    /// filling — used when converting dense workspace scratch back to the
    /// sparse boundary type).
    pub fn with_capacity(cap: usize) -> Self {
        SparseVec { map: FxHashMap::with_capacity_and_hasher(cap, Default::default()) }
    }

    /// The unit vector `1⁽ˢ⁾` (Algo. 4 line 1).
    pub fn unit(s: NodeId) -> Self {
        let mut v = Self::new();
        v.set(s, 1.0);
        v
    }

    /// Builds from `(node, value)` pairs, summing duplicates.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (NodeId, f64)>) -> Self {
        let mut v = Self::new();
        for (i, x) in pairs {
            v.add(i, x);
        }
        v
    }

    /// Value at `i` (0 when absent).
    #[inline]
    pub fn get(&self, i: NodeId) -> f64 {
        self.map.get(&i).copied().unwrap_or(0.0)
    }

    /// Sets entry `i` (removing it when `v == 0`).
    #[inline]
    pub fn set(&mut self, i: NodeId, v: f64) {
        if v == 0.0 {
            self.map.remove(&i);
        } else {
            self.map.insert(i, v);
        }
    }

    /// Adds `delta` to entry `i`.
    #[inline]
    pub fn add(&mut self, i: NodeId, delta: f64) {
        if delta == 0.0 {
            return;
        }
        let e = self.map.entry(i).or_insert(0.0);
        *e += delta;
        if *e == 0.0 {
            self.map.remove(&i);
        }
    }

    /// Removes and returns entry `i`.
    pub fn take(&mut self, i: NodeId) -> f64 {
        self.map.remove(&i).unwrap_or(0.0)
    }

    /// `|supp(·)|` — number of stored (non-zero) entries.
    #[inline]
    pub fn support_size(&self) -> usize {
        self.map.len()
    }

    /// `true` when the support is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `‖·‖₁` over stored entries.
    pub fn l1_norm(&self) -> f64 {
        self.map.values().map(|v| v.abs()).sum()
    }

    /// `vol(·) = Σ_{i ∈ supp} d(v_i)` (Table I).
    pub fn volume(&self, graph: &CsrGraph) -> f64 {
        self.map.keys().map(|&i| graph.weighted_degree(i)).sum()
    }

    /// Iterates `(node, value)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.map.iter().map(|(&i, &v)| (i, v))
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, s: f64) {
        if s == 0.0 {
            self.map.clear();
        } else {
            for v in self.map.values_mut() {
                *v *= s;
            }
        }
    }

    /// Entries sorted by node id (deterministic output order).
    pub fn to_sorted_pairs(&self) -> Vec<(NodeId, f64)> {
        let mut out: Vec<(NodeId, f64)> = self.iter().collect();
        out.sort_unstable_by_key(|&(i, _)| i);
        out
    }

    /// Entries sorted by value descending (cluster extraction order),
    /// ties broken by node id for determinism; see [`by_rank`].
    pub fn to_ranked_pairs(&self) -> Vec<(NodeId, f64)> {
        let mut out: Vec<(NodeId, f64)> = self.iter().collect();
        out.sort_unstable_by(by_rank);
        out
    }

    /// Densifies into a length-`n` vector.
    pub fn to_dense(&self, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        for (i, v) in self.iter() {
            out[i as usize] = v;
        }
        out
    }
}

/// Cluster-extraction order on `(node, score)` pairs: score descending
/// under [`f64::total_cmp`], then node id ascending.
///
/// A total order, so ranking never panics: on the finite non-zero values a
/// [`SparseVec`] stores it agrees with `partial_cmp`, and a NaN score gets
/// a defined place (a positive NaN ranks above `+∞`, a negative one below
/// `−∞`).
pub fn by_rank(a: &(NodeId, f64), b: &(NodeId, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

impl FromIterator<(NodeId, f64)> for SparseVec {
    fn from_iter<T: IntoIterator<Item = (NodeId, f64)>>(iter: T) -> Self {
        Self::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_vector_has_single_entry() {
        let v = SparseVec::unit(3);
        assert_eq!(v.get(3), 1.0);
        assert_eq!(v.support_size(), 1);
        assert_eq!(v.l1_norm(), 1.0);
    }

    #[test]
    fn zero_writes_remove_entries() {
        let mut v = SparseVec::new();
        v.set(1, 2.0);
        v.set(1, 0.0);
        assert!(v.is_empty());
        v.add(2, 1.5);
        v.add(2, -1.5);
        assert_eq!(v.support_size(), 0);
    }

    #[test]
    fn from_pairs_sums_duplicates() {
        let v = SparseVec::from_pairs([(0, 1.0), (0, 2.0), (5, 3.0)]);
        assert_eq!(v.get(0), 3.0);
        assert_eq!(v.support_size(), 2);
    }

    #[test]
    fn volume_uses_weighted_degree() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]).unwrap();
        let v = SparseVec::from_pairs([(1, 0.5), (3, 0.1)]);
        assert_eq!(v.volume(&g), 3.0 + 1.0);
    }

    #[test]
    fn ranked_pairs_order_deterministic() {
        let v = SparseVec::from_pairs([(2, 1.0), (7, 3.0), (1, 1.0)]);
        assert_eq!(v.to_ranked_pairs(), vec![(7, 3.0), (1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn ranked_pairs_give_nan_a_defined_place() {
        let mut v = SparseVec::new();
        for (i, x) in [(4, 0.5), (2, f64::NAN), (9, -f64::NAN), (1, 2.0)] {
            v.set(i, x);
        }
        let ids: Vec<NodeId> = v.to_ranked_pairs().iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![2, 1, 4, 9]);
    }

    #[test]
    fn scale_multiplies_every_entry_and_zero_clears() {
        let mut a = SparseVec::from_pairs([(0, 1.0), (1, 2.0)]);
        a.scale(0.5);
        assert_eq!(a.get(0), 0.5);
        assert_eq!(a.get(1), 1.0);
        a.scale(0.0);
        assert!(a.is_empty());
    }

    #[test]
    fn dense_round_trip() {
        let v = SparseVec::from_pairs([(0, 0.25), (3, 0.75)]);
        assert_eq!(v.to_dense(4), vec![0.25, 0.0, 0.0, 0.75]);
    }
}
