//! Single-flight coalescing suite: concurrent identical misses must
//! compute **once**, every waiter must receive bit-identical answers, and
//! LRU eviction of an in-flight key must neither deadlock nor force a
//! second compute for the same flight.
//!
//! Determinism technique: a 1-worker service is first loaded with a FIFO
//! "plug" of distinct-seed jobs, so a target seed submitted afterwards is
//! guaranteed to still be in flight (queued behind the plug) when the
//! follow-up submissions for the same seed arrive — they must join the
//! flight, not lead a second one.

use laca_core::tnam::TnamConfig;
use laca_core::{Laca, LacaParams, MetricFn, Tnam};
use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
use laca_graph::{AttributedDataset, NodeId};
use laca_service::{ClusterIndex, QueryService, ServiceConfig, ServiceStats, SpanOutcome};
use std::sync::Arc;

fn dataset() -> AttributedDataset {
    AttributedGraphSpec {
        n: 300,
        n_clusters: 4,
        avg_degree: 8.0,
        p_intra: 0.85,
        missing_intra: 0.05,
        degree_exponent: 2.5,
        cluster_size_skew: 0.2,
        attributes: Some(AttributeSpec {
            dim: 64,
            topic_words: 12,
            tokens_per_node: 20,
            attr_noise: 0.25,
        }),
        seed: 2024,
    }
    .generate("coalesce-test")
    .unwrap()
}

fn index(ds: &AttributedDataset, params: LacaParams) -> ClusterIndex {
    ClusterIndex::from_dataset(ds, &TnamConfig::new(12, MetricFn::Cosine), params).unwrap()
}

/// Exact f64 bit patterns — "close enough" is not the bar here.
fn bit_pairs(v: &laca_diffusion::SparseVec) -> Vec<(NodeId, u64)> {
    v.to_sorted_pairs().into_iter().map(|(i, x)| (i, x.to_bits())).collect()
}

const TARGET: NodeId = 0;
const PLUGS: usize = 48;

/// Plug seeds: distinct, and distinct from `TARGET`.
fn plug_seeds() -> Vec<NodeId> {
    (1..=PLUGS as NodeId).collect()
}

#[test]
fn concurrent_identical_misses_compute_once_bit_identical() {
    let ds = dataset();
    let params = LacaParams::new(1e-5);
    let (serial_bits, serial_rwr, serial_bdd) = {
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(12, MetricFn::Cosine)).unwrap();
        let engine = Laca::new(&ds.graph, Some(&tnam), params.clone()).unwrap();
        let (rho, stats) = engine.bdd_with_stats(TARGET).unwrap();
        (bit_pairs(&rho), stats.rwr.push_operations, stats.bdd.push_operations)
    };

    let service = QueryService::start(
        index(&ds, params),
        ServiceConfig::default()
            .with_workers(1)
            .with_cache_per_worker(256)
            .with_queue_capacity(256),
    );
    // Plug the single worker, then submit the same key repeatedly: the
    // first submission leads the flight, every later one (while the plug
    // holds the worker) must coalesce onto it.
    let plug_handles: Vec<_> = plug_seeds().iter().map(|&s| service.submit(s)).collect();
    const WAITERS: usize = 6;
    let target_handles: Vec<_> = (0..WAITERS).map(|_| service.submit(TARGET)).collect();

    let answers: Vec<_> =
        target_handles.into_iter().map(|h| h.wait().expect("target query failed")).collect();
    // Each span is recorded before its reply is sent, so the flight's
    // whole timeline is in the recorder once the last waiter has its
    // answer: the leader's compute and every follower's join.
    let target_outcomes: Vec<SpanOutcome> = service
        .flight_recorder()
        .snapshot(64)
        .iter()
        .filter(|span| span.seed == u64::from(TARGET))
        .map(|span| span.outcome)
        .collect();
    let count = |outcome| target_outcomes.iter().filter(|&&o| o == outcome).count();
    assert_eq!(
        (count(SpanOutcome::Computed), count(SpanOutcome::Coalesced)),
        (1, WAITERS - 1),
        "target spans {target_outcomes:?}"
    );
    for h in plug_handles {
        h.wait().expect("plug query failed");
    }

    // One compute, N identical bit patterns — every waiter holds the very
    // allocation the single compute produced, and its push counters match
    // the serial oracle's.
    for a in &answers {
        assert!(Arc::ptr_eq(a, &answers[0]), "waiters got different answer allocations");
        assert_eq!(bit_pairs(&a.rho), serial_bits, "coalesced answer diverged from serial");
        assert_eq!(a.stats.rwr.push_operations, serial_rwr);
        assert_eq!(a.stats.bdd.push_operations, serial_bdd);
    }
    let stats = service.stats();
    assert_eq!(stats.completed, (PLUGS + 1) as u64, "target must compute exactly once");
    assert_eq!(stats.coalesced, (WAITERS - 1) as u64, "every follow-up must join the flight");
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, (PLUGS + 1) as u64);
    assert_eq!(stats.errors, 0);
}

#[test]
fn interleaved_thread_misses_coalesce_and_stay_bit_identical() {
    let ds = dataset();
    let params = LacaParams::new(1e-5);
    let service = Arc::new(QueryService::start(
        index(&ds, params),
        ServiceConfig::default()
            .with_workers(2)
            .with_cache_per_worker(256)
            .with_queue_capacity(256),
    ));
    // Both workers busy on plugs while 8 threads race to submit the same
    // fresh key through a barrier.
    let plug_handles: Vec<_> = plug_seeds().iter().map(|&s| service.submit(s)).collect();
    const THREADS: usize = 8;
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let racers: Vec<_> = (0..THREADS)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service.submit(TARGET).wait().expect("racing query failed")
            })
        })
        .collect();
    let answers: Vec<_> = racers.into_iter().map(|h| h.join().unwrap()).collect();
    for h in plug_handles {
        h.wait().expect("plug query failed");
    }

    for a in &answers {
        assert!(Arc::ptr_eq(a, &answers[0]), "racing waiters got different allocations");
        assert_eq!(bit_pairs(&a.rho), bit_pairs(&answers[0].rho));
    }
    let stats = service.stats();
    // The invariant that must hold under ANY interleaving: the target key
    // computed exactly once, so every racer either joined the flight or
    // (if it lost the race entirely) hit the cache.
    assert_eq!(stats.completed, (PLUGS + 1) as u64, "concurrent misses double-computed");
    assert_eq!(stats.cache_hits + stats.coalesced, (THREADS - 1) as u64);
    assert_eq!(stats.errors, 0);
}

#[test]
fn lru_eviction_of_inflight_key_no_deadlock_no_double_compute() {
    let ds = dataset();
    let params = LacaParams::new(1e-4);
    // Aggregate cache capacity 1: every completed plug evicts the
    // previous answer, so the target's cache entry is inserted into — and
    // immediately churned out of — a thrashing cache while its flight's
    // waiters are still draining.
    let service = QueryService::start(
        index(&ds, params),
        ServiceConfig::default().with_workers(1).with_cache_per_worker(1).with_queue_capacity(256),
    );
    let pre: Vec<_> = plug_seeds().iter().map(|&s| service.submit(s)).collect();
    let lead = service.submit(TARGET);
    let joined = service.submit(TARGET);
    // Churn queued *behind* the flight: evicts the target's entry right
    // after it lands in the 1-deep cache.
    let post: Vec<_> = (100..116).map(|s| service.submit(s)).collect();

    let a = lead.wait().expect("leader failed");
    let b = joined.wait().expect("joined waiter failed");
    assert!(Arc::ptr_eq(&a, &b), "flight waiters must share one answer despite eviction");
    assert_eq!(bit_pairs(&a.rho), bit_pairs(&b.rho));
    for h in pre.into_iter().chain(post) {
        h.wait().expect("churn query failed");
    }
    let computed_so_far = (PLUGS + 1 + 16) as u64;
    let stats = service.stats();
    assert_eq!(stats.completed, computed_so_far, "in-flight eviction caused a double compute");
    assert_eq!(stats.coalesced, 1);
    assert!(stats.cache_entries <= 1);

    // The evicted key is a plain miss afterwards: recomputes (no stale
    // flight left behind), same bits.
    let again = service.query(TARGET).expect("re-query after eviction failed");
    assert_eq!(bit_pairs(&again.rho), bit_pairs(&a.rho));
    assert_eq!(service.stats().completed, computed_so_far + 1);
}

#[test]
fn delta_since_subtracts_the_earlier_snapshot() {
    let ds = dataset();
    let service = QueryService::start(
        index(&ds, LacaParams::new(1e-3)),
        ServiceConfig::default().with_workers(1).with_cache_per_worker(64),
    );
    let seeds: Vec<NodeId> = (0..8).collect();
    for r in service.query_batch(&seeds) {
        r.expect("cold query failed");
    }
    let before = service.stats();
    for r in service.query_batch(&seeds) {
        r.expect("warm query failed");
    }
    let window = service.stats().delta_since(&before);
    assert_eq!(window.cache_hits, 8);
    assert_eq!(window.cache_misses, 0);
    assert_eq!(window.completed, 0);
    assert_eq!(window.workers, 1, "gauges come from the later snapshot");
    assert_eq!(window.cache_entries, 8);
    assert!((window.hit_rate() - 1.0).abs() < 1e-12);
}

/// The exposition renders `laca_*_total` series and windows come from
/// `delta_since`, so every counter and histogram total must only go up —
/// even while workers are serving and snapshots race them.
#[test]
fn counters_only_go_up_under_concurrent_snapshots() {
    let ds = dataset();
    let service = QueryService::start(
        index(&ds, LacaParams::new(1e-3)),
        ServiceConfig::default().with_workers(2).with_cache_per_worker(16),
    );
    // Mixed stream: a hot head that hits and coalesces, plus a cold tail
    // wide enough to keep missing and evicting.
    let seeds: Vec<NodeId> =
        (0..600u32).map(|i| if i % 3 == 0 { i % 5 } else { (i * 37) % 300 }).collect();
    let totals = |s: &ServiceStats| {
        [
            s.cache_hits,
            s.cache_misses,
            s.coalesced,
            s.completed,
            s.errors,
            s.shed,
            s.expired,
            s.retried,
            s.drained,
            s.kernel_pushes,
            s.queue_wait_hist.count,
            s.queue_wait_hist.sum,
            s.compute_hist.count,
            s.compute_hist.sum,
            s.total_hist.count,
            s.total_hist.sum,
        ]
    };
    let snapshots = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            (0..50)
                .map(|_| {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    service.stats()
                })
                .collect::<Vec<_>>()
        });
        for chunk in seeds.chunks(50) {
            for r in service.query_batch(chunk) {
                r.expect("mixed-stream query failed");
            }
        }
        reader.join().unwrap()
    });
    let mut prev = [0u64; 16];
    for (i, snap) in snapshots.iter().chain([&service.stats()]).enumerate() {
        let now = totals(snap);
        for (field, (&a, &b)) in prev.iter().zip(&now).enumerate() {
            assert!(b >= a, "total #{field} went down at snapshot {i}: {a} -> {b}");
        }
        prev = now;
    }
    let end = service.stats();
    assert_eq!(end.cache_hits + end.cache_misses + end.coalesced, seeds.len() as u64);
    assert!(end.cache_hits > 0 && end.cache_misses > 0, "the stream must mix hits and misses");
}
