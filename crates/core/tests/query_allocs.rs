//! The allocation ledger of a warm query, counted rather than timed.
//!
//! This test binary installs a counting `#[global_allocator]` (the library
//! never carries one) that tallies the allocations and bytes requested by
//! the current thread while a closure runs. A warm `Laca::cluster` must
//! allocate strictly fewer bytes than the map-based composition it
//! replaced, and exactly the allocations it documents; everything else
//! lives in the reused `DiffusionWorkspace`.

mod common;

use common::{build, old_bdd, old_top_k, pubmed_small_spec};
use laca_core::{Laca, LacaParams};
use laca_diffusion::DiffusionWorkspace;
use laca_graph::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Tallies one allocation of `bytes` if this thread is counting.
/// `try_with` keeps it safe during thread teardown.
fn tally(bytes: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.with(|c| c.set(c.get() + 1));
            BYTES.with(|c| c.set(c.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the tally only touches const-initialised thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards to `System::alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards to `System::alloc_zeroed` under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards to `System::realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards to `System::dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes requested on this thread while `f` ran.
#[derive(Debug, Clone, Copy)]
struct Ledger {
    allocs: u64,
    bytes: u64,
}

fn counted<R>(f: impl FnOnce() -> R) -> (R, Ledger) {
    ALLOCS.with(|c| c.set(0));
    BYTES.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, Ledger { allocs: ALLOCS.with(Cell::get), bytes: BYTES.with(Cell::get) })
}

/// Fixed seeds on the 2,000-node pubmed-like graph at ε = 1e-4, with the
/// pinned allocation count of a warm `Laca::cluster` (SNAS, then
/// without SNAS). Each count is
///
/// * 1 — the unit seed vector `1⁽ˢ⁾` (a one-entry map);
/// * 1 — Step 2's `ψ` accumulator (SNAS only);
/// * the growth steps of the `φ'` map, built by one `set` per Step-1
///   support node: a table of 4, 8, 16, … buckets, one allocation per
///   size until it holds `|supp φ'|` entries;
/// * 1 — the returned cluster `Vec`.
///
/// Nothing else: `π'`, `q` and `ρ'` are read from the workspace, and the
/// top-|Cs| selection permutes the workspace's own pair buffer.
///
/// The map pipeline allocated 28–31 times per query on these seeds, and
/// 6–20× the bytes.
const PINNED: [(NodeId, u64, u64); 4] = [
    // |supp π'| = 376: φ' tables of 4…512 buckets, 8 growth allocations.
    (0, 11, 10),
    // |supp π'| = 1,117: tables of 4…2,048 buckets, 10 growth allocations.
    (7, 13, 12),
    // |supp π'| = 1,190: tables of 4…2,048 buckets, 10 growth allocations.
    (311, 13, 12),
    // |supp π'| = 565: tables of 4…1,024 buckets, 9 growth allocations.
    (998, 12, 11),
];

#[test]
fn a_warm_cluster_query_allocates_less_than_the_map_pipeline_and_only_what_it_documents() {
    let (ds, tnam) = build(&pubmed_small_spec());
    for (k, use_snas) in [true, false].into_iter().enumerate() {
        let params =
            if use_snas { LacaParams::new(1e-4) } else { LacaParams::new(1e-4).without_snas() };
        let engine = Laca::new(&ds.graph, Some(&tnam), params).expect("engine");
        let mut old_ws = DiffusionWorkspace::new();
        let old = |seed: NodeId, size: usize, ws: &mut DiffusionWorkspace| {
            let (rho, _) = old_bdd(&engine, seed, ws).expect("old path");
            old_top_k(&rho, seed, size)
        };
        // Warm-up: both workspaces grow to the largest of these queries.
        for &(seed, ..) in &PINNED {
            let size = ds.ground_truth(seed).len();
            engine.cluster(seed, size).expect("cluster");
            old(seed, size, &mut old_ws);
        }
        for &(seed, snas_allocs, plain_allocs) in &PINNED {
            let size = ds.ground_truth(seed).len();
            let (cluster, new) = counted(|| engine.cluster(seed, size).expect("cluster"));
            let (old_cluster, before) = counted(|| old(seed, size, &mut old_ws));
            assert_eq!(cluster, old_cluster, "seed {seed}: answers differ");
            assert!(
                new.bytes < before.bytes,
                "seed {seed}: {} bytes, not fewer than the map pipeline's {}",
                new.bytes,
                before.bytes
            );
            let pinned = [snas_allocs, plain_allocs][k];
            assert_eq!(new.allocs, pinned, "seed {seed} (snas={use_snas}): allocation count");
        }
    }
}
