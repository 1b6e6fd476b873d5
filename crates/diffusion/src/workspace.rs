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
//! That one-cache-line story is the **scatter**, which every greedy step
//! and every small non-greedy step uses. A non-greedy step (Eq. 17) whose
//! `vol(r)` covers at least `PULL_MIN_VOL_SHARE` of an unweighted graph's
//! volume runs as a **pull** instead: extraction's `α·r(u)/d(u)` go into
//! a dense per-node array, and one sequential pass over the CSR rows sets
//! `r(v) = Σ_{u∈N(v)} spread(u)`, rebuilding the bitsets, the aggregates
//! and the touched list as it goes. The pull leaves the scatter's bits:
//! the scatter adds each `v`'s terms to a zeroed residual in ascending
//! source order, which is the order of `v`'s sorted row, and the pull's
//! extra `+0.0` terms change no non-negative sum (the argument is spelled
//! out on `pull_gamma`). The one visible difference is that nodes first
//! reached by a pull join the touched list in ascending id order, not
//! in push order; every reader of that list is order-free or sorts.
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
    /// Nodes touched this query, in first-touch order (no duplicates;
    /// a pulled step adds its new nodes in ascending id order).
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
    /// Dense `α·r(u)/d(u)` per node, read by the pull form of a
    /// non-greedy step; all zero outside [`DiffusionWorkspace::pull_gamma`].
    spread: Vec<f64>,
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
    pub fn capacity_signature(&self) -> [usize; 6] {
        [
            self.slots.len(),
            self.touched.capacity(),
            self.supp_bits.len(),
            self.gamma.capacity(),
            self.spread.len(),
            self.pairs.capacity(),
        ]
    }

    fn ensure_capacity(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
            self.spread.resize(n, 0.0);
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

    /// One non-greedy step (Eq. 17: `q += (1−α)·r; r ← α·r·P`), the only
    /// entry point for it: extracts the whole residual support, then
    /// moves the `α` fraction either by the scatter ([`Self::push_gamma`])
    /// or, when `vol(r)` covers at least [`PULL_MIN_VOL_SHARE`] of an
    /// unweighted graph's volume, by the pull ([`Self::pull_gamma`]). Both
    /// forms leave the same bits. Returns the number of push operations.
    // lint: hot-path
    pub(crate) fn nongreedy_step(&mut self, graph: &CsrGraph, alpha: f64, epsilon: f64) -> usize {
        let pull = self.pull_pays(graph);
        self.extract_all(alpha);
        if pull {
            self.pull_gamma(graph, alpha, epsilon)
        } else {
            self.push_gamma::<true>(graph, alpha, epsilon)
        }
    }

    /// `true` when the next non-greedy step runs as a pull: the graph is
    /// unweighted and `vol(r) ≥ PULL_MIN_VOL_SHARE · vol(G)`. Weighted
    /// graphs keep the scatter: there `vol(r)` is a float sum of weighted
    /// degrees, which the pull would reorder.
    #[inline]
    fn pull_pays(&self, graph: &CsrGraph) -> bool {
        !graph.is_weighted()
            && self.vol_r >= PULL_MIN_VOL_SHARE * graph.neighbors_flat().len() as f64
    }

    /// Non-greedy extraction (Eq. 17): takes the *entire* residual support
    /// into `γ` by scanning `supp_bits` in the same ascending order,
    /// crediting reserves as it goes. `O(⌈n/64⌉ + |supp(r)|)`.
    // lint: hot-path
    pub(crate) fn extract_all(&mut self, alpha: f64) {
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

    /// Pull form of the non-greedy push phase, for unweighted graphs and
    /// a `γ` extracted by [`Self::extract_all`]: writes each entry's
    /// `α·r(u)/d(u)` into the dense `spread` array, then sets
    /// `r(v) = Σ_{u∈N(v)} spread(u)` in one pass over the CSR rows,
    /// rebuilding both bitsets word by word and `|supp(r)|`, `|supp(γ)|`,
    /// `vol(r)` and the touched list as it goes. `O(n + m)` sequential
    /// work in place of `vol(r)` random slot updates. Returns the number
    /// of push operations, `Σ_{u∈γ} d(u)`, as the scatter counts them.
    ///
    /// Same bits as [`Self::push_gamma`]: extraction zeroed every
    /// residual, so the scatter adds each `v`'s contributions to 0.0 in
    /// ascending source order, and `v`'s sorted, deduplicated row adds
    /// the same terms in the same order; non-members of `γ` add `+0.0`,
    /// which leaves a non-negative sum unchanged. Pushes never lower a
    /// residual, so the threshold test on the final sum equals the
    /// scatter's running test, and `vol(r)` is an integer sum of degrees
    /// whose order does not matter. Only the touched list differs: nodes
    /// first reached here join it in ascending id order.
    // lint: hot-path
    fn pull_gamma(&mut self, graph: &CsrGraph, alpha: f64, epsilon: f64) -> usize {
        debug_assert!(!graph.is_weighted() && self.supp_r == 0);
        let n = graph.n();
        let mut pushes = 0usize;
        for &(u, val, inv_d) in &self.gamma {
            // The scatter's `spread` expression, so the terms match bit for bit.
            self.spread[u as usize] = alpha * val * inv_d;
            pushes += graph.degree(u);
        }
        let offsets = graph.offsets();
        let nbrs = graph.neighbors_flat();
        let spread = &self.spread[..n];
        let slots = &mut self.slots[..n];
        let touched = &mut self.touched;
        let epoch = self.epoch;
        let (mut supp_r, mut above, mut vol) = (0usize, 0usize, 0usize);
        let words = self.supp_bits[..self.words].iter_mut().zip(&mut self.above_bits[..self.words]);
        for (wi, (supp_word, above_word)) in words.enumerate() {
            let lo = wi << 6;
            let hi = (lo + 64).min(n);
            let rows = offsets[lo..=hi].windows(2);
            // Gather the word's row sums first: the slot updates below then
            // do not stall the independent gathers behind them.
            let mut sums = [0.0f64; 64];
            for (sum, row) in sums.iter_mut().zip(rows.clone()) {
                *sum = row_sum(nbrs, spread, row[0], row[1]);
            }
            let (mut supp, mut abv) = (0u64, 0u64);
            for ((v, row), &sum) in (lo..hi).zip(rows).zip(&sums) {
                let slot = &mut slots[v];
                if slot.stamp != epoch && sum != 0.0 {
                    slot.stamp = epoch;
                    slot.q = 0.0;
                    slot.inv_d = graph.inv_degree(v as NodeId);
                    touched.push(v as NodeId);
                }
                // A stale slot only ever receives 0.0 here, which its
                // first touch would overwrite anyway; and `0·(1/d) ≥ ε`
                // is false for any `1/d`, `+∞` included (NaN compares
                // false), so the updates below need no branch.
                slot.r = sum;
                let nonzero = (sum != 0.0) as u64;
                supp |= nonzero << (v & 63);
                abv |= ((sum * slot.inv_d >= epsilon) as u64) << (v & 63);
                vol += (row[1] - row[0]) & 0usize.wrapping_sub(nonzero as usize);
            }
            *supp_word = supp;
            *above_word = abv;
            supp_r += supp.count_ones() as usize;
            above += abv.count_ones() as usize;
        }
        for &(u, ..) in &self.gamma {
            self.spread[u as usize] = 0.0;
        }
        // One event per push, in the order the scatter would record them.
        #[cfg(laca_trace)]
        for &(u, val, inv_d) in &self.gamma {
            for &j in graph.neighbors(u) {
                trace_push(
                    &mut self.trace,
                    self.trace_cap,
                    &mut self.trace_dropped,
                    j,
                    alpha * val * inv_d,
                );
            }
        }
        self.supp_r = supp_r;
        self.vol_r = vol as f64;
        self.above = above;
        self.gamma.clear();
        pushes
    }

    /// `‖r‖₁` over the touched set (Fig. 5 telemetry only; not on the
    /// steady-state path). Summed in touched-list order, so a pulled step
    /// can move its last bits.
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
    /// First-touch order is an artifact of the kernel, not part of the
    /// answer: nodes first reached by a pulled non-greedy step come in
    /// ascending id order, the rest in push order. Callers that fold the
    /// pairs into a float must sort them first, as LACA's Step 2 does.
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

/// Share of `vol(G)` that `vol(r)` must reach before a non-greedy step
/// runs as a pull rather than a scatter. The pull costs a pass over the
/// whole CSR whatever `vol(r)`: about 10 ns per node plus 1.2 ns per edge,
/// extraction included. The scatter costs 11–19 ns per push, that is per
/// unit of `vol(r)`. Timed per step over LACA queries (2-vCPU Xeon,
/// release build), the two forms break even at a share of 0.2–0.3 on
/// pubmed-like (n = 19.7k, `vol(G)` = 91.8k) and cora-like at ε ≤ 1e-5,
/// where a step at 0.3–0.4 took 411 µs pulled against 565 µs scattered.
/// At pubmed-like ε = 1e-4 the scatter is cheaper per push and the pull
/// still lost at 0.3–0.4 (441 against 374 µs), so the rule waits for 0.4.
/// On the amazon2m-like slice (average degree 25) a pulled step took
/// 4.6–5.1 ms and a scattered push 12–14 ns, a break-even near 0.13–0.15.
const PULL_MIN_VOL_SHARE: f64 = 0.4;

/// Lanes of the pull's masked row gather: a row of up to this many
/// neighbors is summed with no branch on its length.
const PULL_LANES: usize = 8;

/// `PULL_MASKS[len][k]` keeps lane `k` (all bits set) iff `k < len`. The
/// masks are loaded from a table so the compiler cannot turn them back
/// into one mispredicted branch per row.
const PULL_MASKS: [[u64; PULL_LANES]; PULL_LANES + 1] = {
    let mut masks = [[0u64; PULL_LANES]; PULL_LANES + 1];
    let mut len = 0;
    while len <= PULL_LANES {
        let mut k = 0;
        while k < len {
            masks[len][k] = u64::MAX;
            k += 1;
        }
        len += 1;
    }
    masks
};

/// `Σ_{u ∈ nbrs[start..end]} spread(u)`, added in row order starting
/// from 0.0. The first [`PULL_LANES`] lanes are gathered whatever the
/// row's length, and lanes past its end (the next rows' ids, always
/// valid) are masked to `+0.0`, which leaves a non-negative sum
/// unchanged: same bits as the plain loop, without its per-row
/// mispredicted exit.
#[inline(always)]
fn row_sum(nbrs: &[NodeId], spread: &[f64], start: usize, end: usize) -> f64 {
    let mut sum = 0.0;
    match nbrs.get(start..start + PULL_LANES) {
        Some(lanes) => {
            let len = end - start;
            for (&u, &mask) in lanes.iter().zip(&PULL_MASKS[len.min(PULL_LANES)]) {
                sum += f64::from_bits(spread[u as usize].to_bits() & mask);
            }
            if len > PULL_LANES {
                for &u in &nbrs[start + PULL_LANES..end] {
                    sum += spread[u as usize];
                }
            }
        }
        // The last rows of the CSR, with fewer than `PULL_LANES` ids
        // after their start.
        None => {
            for &u in &nbrs[start..end] {
                sum += spread[u as usize];
            }
        }
    }
    sum
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
    use proptest::prelude::*;

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

    /// A pubmed-shaped graph (power-law degrees, rows longer than
    /// `PULL_LANES`) small enough for debug-build tests.
    fn skewed_graph() -> CsrGraph {
        laca_graph::gen::AttributedGraphSpec {
            n: 600,
            n_clusters: 3,
            avg_degree: 4.5,
            p_intra: 0.8,
            missing_intra: 0.0,
            degree_exponent: 2.2,
            cluster_size_skew: 0.2,
            attributes: None,
            seed: 11,
        }
        .generate("skewed")
        .unwrap()
        .graph
    }

    /// `f_i = d_i / vol(G)`: a residual covering the whole graph at once.
    fn degree_input(g: &CsrGraph) -> SparseVec {
        let vol = g.total_volume();
        SparseVec::from_pairs((0..g.n() as NodeId).map(|v| (v, g.weighted_degree(v) / vol)))
    }

    /// A fresh workspace mid-query: seeded from `f`, then `greedy` Algo. 1
    /// steps taken.
    fn mid_query(
        g: &CsrGraph,
        f: &SparseVec,
        params: &DiffusionParams,
        greedy: usize,
    ) -> DiffusionWorkspace {
        let mut ws = DiffusionWorkspace::new();
        ws.begin(g.n());
        ws.seed::<true>(g, params.epsilon, f);
        for _ in 0..greedy {
            if ws.frontier_is_empty() {
                break;
            }
            ws.extract_frontier::<true>(g, params.alpha);
            ws.push_gamma::<true>(g, params.alpha, params.epsilon);
        }
        ws
    }

    /// Touched slots' `(r, q, 1/d)` bits by node, both bitsets, and the
    /// aggregates with the touched count.
    type State = (Vec<(NodeId, [u64; 3])>, Vec<u64>, [u64; 5]);

    /// Everything a later step or read-out can see, with the touched list
    /// as a set: the pull adds new nodes in id order.
    fn state(ws: &DiffusionWorkspace) -> State {
        let mut slots: Vec<_> = ws
            .touched
            .iter()
            .map(|&v| {
                let s = ws.slots[v as usize];
                assert_eq!(s.stamp, ws.epoch, "a touched slot carries the query's stamp");
                (v, [s.r.to_bits(), s.q.to_bits(), s.inv_d.to_bits()])
            })
            .collect();
        slots.sort_unstable_by_key(|&(v, _)| v);
        let words = ws.words;
        let bits = [&ws.supp_bits[..words], &ws.above_bits[..words]].concat();
        let aggregates = [
            ws.supp_r as u64,
            ws.supp_q as u64,
            ws.vol_r.to_bits(),
            ws.above as u64,
            ws.touched.len() as u64,
        ];
        (slots, bits, aggregates)
    }

    /// Takes one non-greedy step on two clones of `ws`, one scattered and
    /// one pulled, and asserts they leave the same bits and push count.
    fn assert_pull_matches_scatter(
        g: &CsrGraph,
        ws: &DiffusionWorkspace,
        params: &DiffusionParams,
    ) {
        let (mut scatter, mut pull) = (ws.clone(), ws.clone());
        scatter.extract_all(params.alpha);
        let pushes = scatter.push_gamma::<true>(g, params.alpha, params.epsilon);
        pull.extract_all(params.alpha);
        assert_eq!(pull.pull_gamma(g, params.alpha, params.epsilon), pushes, "push count");
        assert_eq!(state(&pull), state(&scatter));
        assert!(pull.spread.iter().all(|x| x.to_bits() == 0), "spread is zeroed after the pull");
    }

    /// Compares pull and scatter on every non-greedy step from `ws` to
    /// convergence; returns the number of steps compared.
    fn compare_steps_to_convergence(
        g: &CsrGraph,
        mut ws: DiffusionWorkspace,
        params: &DiffusionParams,
    ) -> usize {
        let mut steps = 0;
        while ws.has_above() {
            assert_pull_matches_scatter(g, &ws, params);
            ws.nongreedy_step(g, params.alpha, params.epsilon);
            steps += 1;
        }
        steps
    }

    /// Runs [`nongreedy_run_in`]'s steps from `f` on `ws`, returning how
    /// many of them took the pull form.
    fn pulled_steps(
        g: &CsrGraph,
        f: &SparseVec,
        params: &DiffusionParams,
        ws: &mut DiffusionWorkspace,
    ) -> usize {
        ws.begin(g.n());
        ws.seed::<true>(g, params.epsilon, f);
        let mut pulled = 0;
        while ws.has_above() {
            pulled += usize::from(ws.pull_pays(g));
            ws.nongreedy_step(g, params.alpha, params.epsilon);
        }
        pulled
    }

    #[test]
    fn pull_step_equals_scatter_bit_for_bit() {
        let g = skewed_graph();
        assert!((0..g.n() as NodeId).any(|v| g.degree(v) > PULL_LANES), "long rows are covered");
        for eps in [1e-4, 1e-6] {
            let params = DiffusionParams::new(0.8, eps);
            // The first non-greedy step from a unit seed, then every later one.
            let unit = mid_query(&g, &SparseVec::unit(3), &params, 0);
            assert!(compare_steps_to_convergence(&g, unit, &params) > 1);
            // A wide multi-entry input: the first step pulls the whole graph.
            let wide = mid_query(&g, &degree_input(&g), &params, 0);
            assert!(wide.pull_pays(&g));
            assert!(compare_steps_to_convergence(&g, wide, &params) > 0);
            // Steps taken after greedy ones: zeroed residuals, a part-built
            // touched list and reserves already credited.
            let after_greedy =
                mid_query(&g, &SparseVec::from_pairs([(0, 0.5), (77, 0.5)]), &params, 3);
            assert!(after_greedy.supp_q > 0);
            assert!(compare_steps_to_convergence(&g, after_greedy, &params) > 0);
        }
        // Residuals landing exactly on the threshold: the test is `≥`.
        let path = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let tie = DiffusionParams::new(0.8, 0.8 * 0.5);
        let mut ws = mid_query(&path, &SparseVec::unit(1), &tie, 0);
        assert_pull_matches_scatter(&path, &ws, &tie);
        ws.nongreedy_step(&path, tie.alpha, tie.epsilon);
        assert_eq!(ws.above, 2, "both leaves sit on the threshold");
    }

    #[test]
    fn weighted_graphs_never_take_the_pull() {
        let g = graph();
        let edges: Vec<_> = g.edge_list().into_iter().map(|(u, v)| (u, v, 1.0)).collect();
        let weighted = CsrGraph::from_weighted_edges(g.n(), &edges).unwrap();
        let params = DiffusionParams::new(0.8, 1e-6);
        let mut ws = DiffusionWorkspace::for_graph(&g);
        assert!(pulled_steps(&g, &degree_input(&g), &params, &mut ws) > 0);
        assert_eq!(pulled_steps(&weighted, &degree_input(&weighted), &params, &mut ws), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pull_equals_scatter_on_random_unweighted_graphs(
            (g, f) in (2usize..80).prop_flat_map(|n| {
                // No backbone: isolated nodes (`1/d = +∞`) and empty rows occur.
                let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..4 * n);
                let f = proptest::collection::vec((0..n as u32, 0.01f64..2.0), 1..6);
                (edges, f).prop_map(move |(edges, f)| {
                    let edges: Vec<_> = edges.into_iter().filter(|&(a, b)| a != b).collect();
                    (CsrGraph::from_edges(n, &edges).unwrap(), SparseVec::from_pairs(f))
                })
            }),
            eps in 1e-6f64..1e-2,
            greedy in 0usize..4,
        ) {
            let params = DiffusionParams::new(0.8, eps);
            compare_steps_to_convergence(&g, mid_query(&g, &f, &params, greedy), &params);
        }
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
        // The pull form fires on this graph and allocates nothing either.
        let skewed = skewed_graph();
        let wide = degree_input(&skewed);
        assert!(pulled_steps(&skewed, &wide, &params, &mut ws) > 0);
        nongreedy_run_in(&skewed, &wide, &params, &mut ws).unwrap();
        let warm = ws.capacity_signature();
        for _ in 0..3 {
            nongreedy_run_in(&skewed, &wide, &params, &mut ws).unwrap();
            adaptive_run_in(&skewed, &wide, &params, &mut ws).unwrap();
            assert_eq!(ws.capacity_signature(), warm, "a pulled step grew the warm workspace");
        }
    }

    #[cfg(laca_trace)]
    #[test]
    fn pulled_steps_trace_every_push_in_scatter_order() {
        let g = skewed_graph();
        let params = DiffusionParams::new(0.8, 1e-5);
        let wide = degree_input(&g);
        let mut ws = DiffusionWorkspace::for_graph(&g);
        ws.enable_trace(1 << 18);
        assert!(pulled_steps(&g, &wide, &params, &mut ws) > 0);
        let out = nongreedy_diffuse_in(&g, &wide, &params, &mut ws).unwrap();
        assert_eq!(ws.take_trace().len(), out.stats.push_operations, "one event per push");
        assert_eq!(ws.trace_dropped(), 0);

        // One pulled step records the scatter's events, in its order.
        let mut scatter = mid_query(&g, &wide, &params, 0);
        scatter.enable_trace(1 << 18);
        let mut pull = scatter.clone();
        scatter.extract_all(params.alpha);
        let pushes = scatter.push_gamma::<true>(&g, params.alpha, params.epsilon);
        pull.extract_all(params.alpha);
        pull.pull_gamma(&g, params.alpha, params.epsilon);
        let trace = pull.take_trace();
        assert_eq!(trace.len(), pushes);
        assert_eq!(trace, scatter.take_trace());
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
