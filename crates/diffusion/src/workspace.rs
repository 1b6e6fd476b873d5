//! Epoch-stamped dense scratch for the diffusion push loops.
//!
//! The solvers in [`crate::greedy`] and [`crate::adaptive`] originally ran
//! on [`SparseVec`] hash maps, paying a hash probe per push and an
//! `O(|supp(r)|)` rescan per iteration to recompute `|supp(γ)|/|supp(r)|`
//! and `vol(r)` for the Algo. 2 branch test. A [`DiffusionWorkspace`]
//! replaces that state with the classic dense-scratch/touched-list layout
//! used by real local-clustering codes (e.g. Weighted Flow Diffusion):
//!
//! * one dense `Slot` array indexed by node id holding the node's entire
//!   diffusion state — residual, reserve, cached `1/d(v)` and a stamp —
//!   in exactly 32 aligned bytes, so a steady-state push costs **one**
//!   cache-line access, validated by **epoch stamps** (beginning a query
//!   bumps one counter instead of clearing `O(n)` memory: zero allocation,
//!   zero hashing, zero clearing);
//! * a **touched list** recording each node's first touch, so converting
//!   the result back to [`SparseVec`] and scanning the residual support
//!   both cost `O(touched)`, never `O(n)`;
//! * two **support bitsets** (`supp(r)` and the above-threshold set `γ`),
//!   maintained as pushes cross the Eq. 15 threshold — extraction scans
//!   set bits in ascending node order, so every solver converts and
//!   pushes `γ` in one *canonical* order. Floating-point sums depend on
//!   push order, so that order is part of every answer's bits: the
//!   persist golden fixtures and perfbench's bit-identity guard pin it;
//! * **incremental aggregates** `|supp(r)|`, `|supp(γ)|` and `vol(r)`,
//!   updated as pushes happen — the AdaptiveDiffuse branch test becomes
//!   `O(1)` per iteration.
//!
//! The workspace is sized to the largest graph it has seen and is reusable
//! across queries *and* across graphs (per-graph data such as `1/d(v)`
//! lives in [`CsrGraph`] and is cached into slots per query, guarded by
//! the stamp). [`with_thread_workspace`] hands out one lazily-initialized
//! workspace per thread, which is how the query loops in `laca-core` and
//! `laca-eval` share scratch under the rayon shim's persistent worker
//! pool.

use crate::SparseVec;
use laca_graph::{CsrGraph, NodeId};
use std::cell::RefCell;

/// A node's complete diffusion state, packed into one half-cache-line.
///
/// `align(32)` keeps a slot from straddling two 64-byte lines, so a
/// steady-state push — read/update `r`, test the threshold against the
/// cached `inv_d` — is a single random memory access. The hash-map
/// original paid a control-byte probe *and* a bucket access per push, on
/// top of hashing. (Frontier membership lives in the workspace bitsets,
/// not the slot, so extraction can scan it in ascending node order.)
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct Slot {
    /// Residual value `r(v)`; meaningful only when `stamp` matches.
    r: f64,
    /// Reserve value `q(v)`; meaningful only when `stamp` matches.
    q: f64,
    /// `1 / d(v)` copied from the graph at first touch this query (the
    /// graph can change between queries; the stamp guards staleness).
    inv_d: f64,
    /// Epoch stamp: slot is valid iff equal to the workspace epoch.
    stamp: u32,
}

/// Reusable per-thread (or per-caller) scratch for the diffusion solvers.
///
/// All state is invalidated in `O(1)` by `DiffusionWorkspace::begin`;
/// nothing is cleared eagerly. See the module docs for the layout.
#[derive(Debug, Clone, Default)]
pub struct DiffusionWorkspace {
    /// Current query stamp; slots are valid iff their stamp matches.
    /// Starts at 1 so zero-initialized slots mean "stale".
    epoch: u32,
    slots: Vec<Slot>,
    /// Nodes touched this query, in first-touch order (no duplicates).
    touched: Vec<NodeId>,
    /// Bitset over node ids: bit `v` set iff `r(v) != 0` this query.
    /// Scanned ascending by non-greedy extraction; cleared lazily in
    /// `begin` via the touched list (bits are only ever set on touched
    /// nodes), so per-query cost stays `O(touched)`.
    supp_bits: Vec<u64>,
    /// Bitset over node ids: bit `v` set iff `r(v)/d(v) ≥ ε` this query
    /// (the greedy frontier `γ`, a subset of `supp_bits`).
    above_bits: Vec<u64>,
    /// Bitset words covering the current graph (`⌈n/64⌉`), bounding the
    /// extraction scans.
    words: usize,
    /// Extracted `γ` entries `(node, value, 1/d)` between the extract and
    /// push phases.
    gamma: Vec<(NodeId, f64, f64)>,
    /// Reserve read-out filled by [`DiffusionWorkspace::reserve_into`];
    /// kept across queries so reading a result back allocates nothing.
    pairs: Vec<(NodeId, f64)>,
    /// `|supp(r)|`, maintained incrementally.
    supp_r: usize,
    /// Nodes whose reserve went non-zero (sizes the output map exactly).
    supp_q: usize,
    /// `vol(r) = Σ_{v ∈ supp(r)} d(v)`, maintained incrementally.
    vol_r: f64,
    /// `|supp(γ)|` — residual entries at or above the threshold.
    above: usize,
    /// Total queries begun on this workspace (reuse telemetry).
    queries: u64,
    /// Peak frontier size `|γ|` of the current query (telemetry; sampled
    /// at extraction, where the frontier is at its fullest).
    frontier_peak: usize,
    /// Total epoch-stamp wrap resets over the workspace's lifetime.
    epoch_resets: u64,
    /// Per-push trace of the current query (node, mass delta), bounded
    /// by `trace_cap`. Deep tracing only; compiled out of default
    /// builds so the push loop stays at its measured baseline.
    #[cfg(laca_trace)]
    trace: Vec<TraceEvent>,
    /// Capacity bound on `trace`; 0 (the default) disables capture.
    #[cfg(laca_trace)]
    trace_cap: usize,
    /// Pushes not traced because `trace` was full.
    #[cfg(laca_trace)]
    trace_dropped: u64,
}

/// One traced push operation (`--cfg laca_trace` builds only): the
/// receiving node and the residual mass scattered onto it.
#[cfg(laca_trace)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Node that received the push.
    pub node: NodeId,
    /// Residual mass added (`α · r(v) / d(v)`, edge-weighted).
    pub delta: f64,
}

impl DiffusionWorkspace {
    /// An empty workspace; arrays grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for `graph`, so even the first query on it
    /// allocates nothing beyond the output vectors.
    pub fn for_graph(graph: &CsrGraph) -> Self {
        let mut ws = Self::new();
        ws.ensure_capacity(graph.n());
        ws
    }

    /// Number of queries begun on this workspace.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Peak frontier size `|γ|` of the current (or last) query.
    pub fn frontier_peak(&self) -> usize {
        self.frontier_peak
    }

    /// Nodes touched by the current (or last) query.
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// Epoch-stamp wrap resets absorbed over the workspace's lifetime
    /// (one full `O(n)` re-stamp every 2³² queries; solvers report the
    /// per-query delta as [`crate::DiffusionStats::epoch_resets`]).
    pub fn epoch_resets_total(&self) -> u64 {
        self.epoch_resets
    }

    /// Arms per-push tracing for subsequent queries: up to `cap` pushes
    /// per query are captured (the rest are counted as dropped). The
    /// buffer is reserved here so the push loop itself never grows it.
    #[cfg(laca_trace)]
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace_cap = cap;
        if self.trace.capacity() < cap {
            self.trace.reserve(cap - self.trace.len());
        }
    }

    /// Takes the current query's push trace (empties the buffer).
    #[cfg(laca_trace)]
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Pushes the current query could not trace (buffer at `cap`).
    #[cfg(laca_trace)]
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped
    }

    /// Capacities of every internal buffer. Two equal signatures around a
    /// query prove the query allocated nothing inside the workspace — the
    /// steady-state zero-allocation property the tests assert.
    pub fn capacity_signature(&self) -> [usize; 5] {
        [
            self.slots.len(),
            self.touched.capacity(),
            self.supp_bits.len(),
            self.gamma.capacity(),
            self.pairs.capacity(),
        ]
    }

    fn ensure_capacity(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        let words = n.div_ceil(64);
        if self.supp_bits.len() < words {
            self.supp_bits.resize(words, 0);
            self.above_bits.resize(words, 0);
        }
    }

    /// Starts a query on a graph of `n` nodes: grows the slot array if
    /// this is the largest graph seen, then invalidates all previous state
    /// by bumping the epoch.
    pub(crate) fn begin(&mut self, n: usize) {
        self.ensure_capacity(n);
        if self.epoch == u32::MAX {
            // Stamp wrap-around: reset all stamps once every 2³² queries.
            for s in &mut self.slots {
                s.stamp = 0;
            }
            self.epoch = 1;
            self.epoch_resets += 1;
        } else {
            self.epoch += 1;
        }
        // Bits are not epoch-guarded: clear the previous query's leftovers
        // (set bits only exist on touched nodes) word-by-word, keeping the
        // reset `O(touched)` rather than `O(n)`.
        for &v in &self.touched {
            self.supp_bits[v as usize >> 6] = 0;
            self.above_bits[v as usize >> 6] = 0;
        }
        self.words = n.div_ceil(64);
        self.touched.clear();
        self.gamma.clear();
        self.supp_r = 0;
        self.supp_q = 0;
        self.vol_r = 0.0;
        self.above = 0;
        self.queries += 1;
        self.frontier_peak = 0;
        #[cfg(laca_trace)]
        {
            self.trace.clear();
            self.trace_dropped = 0;
        }
    }

    /// `|supp(γ)| / |supp(r)|`, the Algo. 2 branch ratio, in `O(1)`.
    #[inline]
    pub(crate) fn gamma_ratio(&self) -> f64 {
        if self.supp_r == 0 {
            0.0
        } else {
            self.above as f64 / self.supp_r as f64
        }
    }

    /// `vol(r)` in `O(1)`.
    #[inline]
    pub(crate) fn vol_r(&self) -> f64 {
        self.vol_r
    }

    /// `true` when some residual entry is at or above the threshold.
    #[inline]
    pub(crate) fn has_above(&self) -> bool {
        self.above > 0
    }

    /// `true` when the greedy frontier is empty (no `γ` to extract).
    #[inline]
    pub(crate) fn frontier_is_empty(&self) -> bool {
        self.above == 0
    }

    /// Seeds the residual from the query's input vector.
    ///
    /// `TRACK` selects whether the adaptive aggregates (`supp_r`, `vol_r`,
    /// `above`) are maintained; GreedyDiffuse never reads them, so its
    /// instantiation skips that work throughout the query.
    // lint: hot-path
    pub(crate) fn seed<const TRACK: bool>(
        &mut self,
        graph: &CsrGraph,
        epsilon: f64,
        f: &SparseVec,
    ) {
        let epoch = self.epoch;
        let mut agg = Aggregates { supp_r: self.supp_r, vol_r: self.vol_r, above: self.above };
        for (i, v) in f.iter() {
            r_add::<TRACK>(
                &mut self.slots,
                &mut self.touched,
                &mut self.supp_bits,
                &mut self.above_bits,
                &mut agg,
                graph,
                epoch,
                epsilon,
                i,
                v,
            );
        }
        self.supp_r = agg.supp_r;
        self.vol_r = agg.vol_r;
        self.above = agg.above;
    }

    /// Greedy extraction (Algo. 1 line 4): scans `above_bits` in ascending
    /// node order into `γ`, zeroing those residual entries and crediting
    /// `(1−α)` of each to the reserve — the slot is hot, so the reserve
    /// update is free. `O(⌈n/64⌉ + |γ|)`, no rescan of `r`; the word scan
    /// is sequential over an L1-resident array.
    // lint: hot-path
    pub(crate) fn extract_frontier<const TRACK: bool>(&mut self, graph: &CsrGraph, alpha: f64) {
        // The frontier only grows between extractions, so sampling here
        // (and in `extract_all`) captures its per-query peak without a
        // branch in the push loop.
        self.frontier_peak = self.frontier_peak.max(self.above);
        self.gamma.clear();
        for wi in 0..self.words {
            let mut word = self.above_bits[wi];
            if word == 0 {
                continue;
            }
            self.above_bits[wi] = 0;
            while word != 0 {
                let v = ((wi << 6) + word.trailing_zeros() as usize) as NodeId;
                word &= word - 1;
                self.supp_bits[wi] &= !(1u64 << (v as usize & 63));
                let slot = &mut self.slots[v as usize];
                debug_assert!(slot.stamp == self.epoch && slot.r != 0.0);
                let val = slot.r;
                slot.r = 0.0;
                self.supp_r -= 1;
                self.above -= 1;
                if TRACK {
                    self.vol_r -= graph.weighted_degree(v);
                }
                if slot.q == 0.0 {
                    self.supp_q += 1;
                }
                slot.q += (1.0 - alpha) * val;
                self.gamma.push((v, val, slot.inv_d));
            }
        }
    }

    /// Non-greedy extraction (Eq. 17): takes the *entire* residual support
    /// into `γ` by scanning `supp_bits` in the same ascending order,
    /// crediting reserves as it goes. `O(⌈n/64⌉ + |supp(r)|)`.
    // lint: hot-path
    pub(crate) fn extract_all(&mut self, _graph: &CsrGraph, alpha: f64) {
        self.frontier_peak = self.frontier_peak.max(self.above);
        self.gamma.clear();
        for wi in 0..self.words {
            let mut word = self.supp_bits[wi];
            if word == 0 {
                continue;
            }
            self.supp_bits[wi] = 0;
            // γ ⊆ supp(r): the frontier empties with the support.
            self.above_bits[wi] = 0;
            while word != 0 {
                let v = ((wi << 6) + word.trailing_zeros() as usize) as NodeId;
                word &= word - 1;
                let slot = &mut self.slots[v as usize];
                debug_assert!(slot.stamp == self.epoch && slot.r != 0.0);
                let val = slot.r;
                slot.r = 0.0;
                if slot.q == 0.0 {
                    self.supp_q += 1;
                }
                slot.q += (1.0 - alpha) * val;
                self.gamma.push((v, val, slot.inv_d));
            }
        }
        // Stamps stay valid (entries are "touched, now zero"), so the
        // touched list keeps its no-duplicates invariant when mass flows
        // back; the aggregates reset wholesale.
        self.supp_r = 0;
        self.vol_r = 0.0;
        self.above = 0;
    }

    /// Push phase shared by both branches (Eq. 16 / Eq. 17): scatters the
    /// `α` fraction of every `γ` entry to its neighbors (the `1−α` reserve
    /// credit already happened at extraction). Returns the number of push
    /// operations.
    ///
    /// The loop runs on split borrows of the workspace fields rather than
    /// through `&mut self`: each borrow is `noalias`, so the aggregates
    /// live in registers across pushes instead of being reloaded around
    /// every slot write.
    // lint: hot-path
    pub(crate) fn push_gamma<const TRACK: bool>(
        &mut self,
        graph: &CsrGraph,
        alpha: f64,
        epsilon: f64,
    ) -> usize {
        let mut pushes = 0usize;
        let mut gamma = std::mem::take(&mut self.gamma);
        let epoch = self.epoch;
        let mut agg = Aggregates { supp_r: self.supp_r, vol_r: self.vol_r, above: self.above };
        {
            let slots = &mut self.slots;
            let touched = &mut self.touched;
            let supp_bits = &mut self.supp_bits;
            let above_bits = &mut self.above_bits;
            #[cfg(laca_trace)]
            let trace = (&mut self.trace, self.trace_cap, &mut self.trace_dropped);
            #[cfg(laca_trace)]
            let (trace_buf, trace_cap, trace_dropped) = trace;
            for &(v, val, inv_d) in &gamma {
                let spread = alpha * val * inv_d;
                // Split on weightedness outside the inner loop: unweighted
                // pushes (`w = 1`) skip the per-edge weight load and
                // multiply (`spread * 1.0 == spread` bit-for-bit, so
                // results match the reference exactly).
                match graph.neighbor_weights(v) {
                    None => {
                        for &j in graph.neighbors(v) {
                            #[cfg(laca_trace)]
                            trace_push(trace_buf, trace_cap, trace_dropped, j, spread);
                            r_add::<TRACK>(
                                slots, touched, supp_bits, above_bits, &mut agg, graph, epoch,
                                epsilon, j, spread,
                            );
                            pushes += 1;
                        }
                    }
                    Some(weights) => {
                        for (&j, &w) in graph.neighbors(v).iter().zip(weights) {
                            #[cfg(laca_trace)]
                            trace_push(trace_buf, trace_cap, trace_dropped, j, spread * w);
                            r_add::<TRACK>(
                                slots,
                                touched,
                                supp_bits,
                                above_bits,
                                &mut agg,
                                graph,
                                epoch,
                                epsilon,
                                j,
                                spread * w,
                            );
                            pushes += 1;
                        }
                    }
                }
            }
        }
        self.supp_r = agg.supp_r;
        self.vol_r = agg.vol_r;
        self.above = agg.above;
        gamma.clear();
        self.gamma = gamma;
        pushes
    }

    /// `‖r‖₁` over the touched set (Fig. 5 telemetry only; not on the
    /// steady-state path).
    pub(crate) fn residual_l1(&self) -> f64 {
        self.touched
            .iter()
            .map(|&v| self.slots[v as usize])
            .filter(|slot| slot.stamp == self.epoch)
            .map(|slot| slot.r.abs())
            .sum()
    }

    /// The last run's reserve as `(node, q)` pairs, one per node with
    /// `q != 0`, in first-touch order: one pass over the touched list into
    /// a buffer the workspace owns, so a warm workspace allocates nothing
    /// here. The buffer is the caller's to sort, rescale or filter; the
    /// next `reserve_into` overwrites it.
    ///
    /// Holds the same entries (same bits) as the reserve
    /// [`SparseVec`] that the matching `*_diffuse_in` call returns.
    // lint: hot-path
    pub fn reserve_into(&mut self) -> &mut Vec<(NodeId, f64)> {
        self.pairs.clear();
        self.pairs.reserve(self.supp_q);
        for &v in &self.touched {
            let q = self.slots[v as usize].q;
            if q != 0.0 {
                self.pairs.push((v, q));
            }
        }
        &mut self.pairs
    }

    /// Converts the scratch back to the public [`SparseVec`] boundary
    /// types: `(reserve, residual)`. One pass over the touched list; the
    /// output maps are pre-sized so filling them never rehashes.
    pub(crate) fn to_sparse(&self) -> (SparseVec, SparseVec) {
        let mut reserve = SparseVec::with_capacity(self.supp_q);
        let mut residual = SparseVec::with_capacity(self.supp_r);
        for &v in &self.touched {
            let slot = &self.slots[v as usize];
            if slot.q != 0.0 {
                reserve.set(v, slot.q);
            }
            if slot.r != 0.0 {
                residual.set(v, slot.r);
            }
        }
        (reserve, residual)
    }
}

/// Captures one push into the bounded per-query trace buffer
/// (`--cfg laca_trace` builds only): appends below `cap`, counts drops
/// above it. The buffer is reserved by `enable_trace`, so the append
/// never allocates on the steady-state path.
#[cfg(laca_trace)]
#[inline]
fn trace_push(
    trace: &mut Vec<TraceEvent>,
    cap: usize,
    dropped: &mut u64,
    node: NodeId,
    delta: f64,
) {
    if trace.len() < cap {
        trace.push(TraceEvent { node, delta });
    } else if cap > 0 {
        *dropped += 1;
    }
}

/// The incrementally maintained residual aggregates, held in registers by
/// the push loops (see [`DiffusionWorkspace::push_gamma`]).
struct Aggregates {
    supp_r: usize,
    vol_r: f64,
    above: usize,
}

/// Adds residual mass at `v`, keeping `supp(r)`, `vol(r)`, the
/// above-threshold count and both membership bitsets consistent.
///
/// Free function over split `noalias` borrows — the hot path of every
/// solver. Steady-state cost: one [`Slot`] access (a single cache line)
/// plus register ops and (on the rare transitions) one bitset word; no
/// graph loads, no hashing.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn r_add<const TRACK: bool>(
    slots: &mut [Slot],
    touched: &mut Vec<NodeId>,
    supp_bits: &mut [u64],
    above_bits: &mut [u64],
    agg: &mut Aggregates,
    graph: &CsrGraph,
    epoch: u32,
    epsilon: f64,
    v: NodeId,
    delta: f64,
) {
    if delta == 0.0 {
        return;
    }
    let slot = &mut slots[v as usize];
    if slot.stamp != epoch {
        // First touch this query: stamp, reset, cache 1/d(v).
        slot.stamp = epoch;
        slot.r = 0.0;
        slot.q = 0.0;
        slot.inv_d = graph.inv_degree(v);
        touched.push(v);
    }
    let old = slot.r;
    let new = old + delta;
    slot.r = new;
    let inv_d = slot.inv_d;
    if old == 0.0 {
        agg.supp_r += 1;
        supp_bits[v as usize >> 6] |= 1u64 << (v as usize & 63);
        if TRACK {
            agg.vol_r += graph.weighted_degree(v);
        }
    }
    // Residual mass only grows between extractions (pushes are
    // non-negative), so a threshold crossing happens at most once per
    // residence in supp(r): detect it here instead of rescanning `r`.
    let was_above = old * inv_d >= epsilon;
    let is_above = new * inv_d >= epsilon;
    if is_above && !was_above {
        agg.above += 1;
        above_bits[v as usize >> 6] |= 1u64 << (v as usize & 63);
    }
}

thread_local! {
    static THREAD_WORKSPACE: RefCell<DiffusionWorkspace> =
        RefCell::new(DiffusionWorkspace::new());
}

/// Runs `f` with this thread's diffusion workspace.
///
/// The workspace is created lazily, grows to the largest graph the thread
/// has queried, and lives as long as the thread — under the rayon shim's
/// persistent pool that means scratch survives across whole
/// `evaluate_parallel` calls. Re-entrant calls (the workspace is already
/// borrowed higher up the stack) fall back to a fresh temporary workspace
/// rather than panicking.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut DiffusionWorkspace) -> R) -> R {
    THREAD_WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut DiffusionWorkspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        adaptive_diffuse_in, adaptive_run_in, greedy_diffuse_in, greedy_run_in,
        nongreedy_diffuse_in, nongreedy_run_in, DiffusionParams,
    };

    fn graph() -> CsrGraph {
        CsrGraph::from_edges(
            8,
            &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (4, 7)],
        )
        .unwrap()
    }

    #[test]
    fn slot_is_one_half_cache_line() {
        assert_eq!(std::mem::size_of::<Slot>(), 32);
        assert_eq!(std::mem::align_of::<Slot>(), 32);
    }

    #[test]
    fn steady_state_queries_do_not_allocate_in_the_workspace() {
        let g = graph();
        let f = SparseVec::unit(0);
        let params = DiffusionParams::new(0.8, 1e-6);
        let mut ws = DiffusionWorkspace::for_graph(&g);
        // Warm-up query lets the touched/frontier/gamma buffers reach their
        // steady-state capacity.
        greedy_diffuse_in(&g, &f, &params, &mut ws).unwrap();
        let warm = ws.capacity_signature();
        for _ in 0..5 {
            let out = greedy_diffuse_in(&g, &f, &params, &mut ws).unwrap();
            assert!(!out.reserve.is_empty());
            assert_eq!(ws.capacity_signature(), warm, "workspace grew after warm-up");
        }
        for _ in 0..5 {
            adaptive_diffuse_in(&g, &f, &params, &mut ws).unwrap();
            assert_eq!(ws.capacity_signature(), warm, "adaptive grew the warm workspace");
        }
        assert_eq!(ws.queries(), 11);
    }

    #[test]
    fn reserve_into_matches_the_sparse_reserve_and_reuses_its_buffer() {
        let g = graph();
        let params = DiffusionParams::new(0.8, 1e-6);
        let inputs = [SparseVec::unit(0), SparseVec::from_pairs([(3, 0.5), (6, 0.25)])];
        let bits = |pairs: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
            let mut b: Vec<_> = pairs.iter().map(|&(v, q)| (v, q.to_bits())).collect();
            b.sort_unstable();
            b
        };
        let mut ws = DiffusionWorkspace::for_graph(&g);
        for f in &inputs {
            for diffuse in [adaptive_diffuse_in, greedy_diffuse_in, nongreedy_diffuse_in] {
                let want = diffuse(&g, f, &params, &mut ws).unwrap();
                let got = ws.reserve_into();
                assert_eq!(got.len(), want.reserve.support_size());
                assert_eq!(bits(got), bits(&want.reserve.to_sorted_pairs()));
            }
        }
        // Warm: the run-then-read path grows no buffer, the pair buffer
        // included.
        let warm = ws.capacity_signature();
        for f in &inputs {
            for run in [adaptive_run_in, greedy_run_in, nongreedy_run_in] {
                run(&g, f, &params, &mut ws).unwrap();
                assert!(!ws.reserve_into().is_empty());
                assert_eq!(ws.capacity_signature(), warm, "reading the reserve grew the workspace");
            }
        }
    }

    #[test]
    fn workspace_is_reusable_across_solvers_and_graphs() {
        let g1 = graph();
        let g2 = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let params = DiffusionParams::new(0.8, 1e-4);
        let mut ws = DiffusionWorkspace::new();
        let a = greedy_diffuse_in(&g1, &SparseVec::unit(0), &params, &mut ws).unwrap();
        let b = greedy_diffuse_in(&g2, &SparseVec::unit(2), &params, &mut ws).unwrap();
        let c = nongreedy_diffuse_in(&g1, &SparseVec::unit(0), &params, &mut ws).unwrap();
        // Stale state from g1's first query must not leak into g2's.
        let fresh =
            greedy_diffuse_in(&g2, &SparseVec::unit(2), &params, &mut DiffusionWorkspace::new())
                .unwrap();
        assert_eq!(b.reserve.to_sorted_pairs(), fresh.reserve.to_sorted_pairs());
        assert_eq!(b.residual.to_sorted_pairs(), fresh.residual.to_sorted_pairs());
        assert!(!a.reserve.is_empty() && !c.reserve.is_empty());
    }

    #[test]
    fn thread_workspace_is_shared_within_a_thread() {
        let before = with_thread_workspace(|ws| ws.queries());
        let g = graph();
        crate::greedy_diffuse(&g, &SparseVec::unit(1), &DiffusionParams::new(0.8, 1e-4)).unwrap();
        let after = with_thread_workspace(|ws| ws.queries());
        assert_eq!(after, before + 1);
    }
}
