//! Concurrency-correctness suite: answers served through the worker pool
//! must be **bit-identical** to the serial engine, under interleaved
//! multi-threaded submission, with and without the result cache.

use laca_core::tnam::TnamConfig;
use laca_core::{Laca, LacaParams, MetricFn, Tnam};
use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
use laca_graph::{AttributedDataset, NodeId};
use laca_service::{ClusterIndex, QueryService, ServiceConfig, ServiceError, SpanOutcome};
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
    .generate("service-test")
    .unwrap()
}

fn index(ds: &AttributedDataset, params: LacaParams) -> ClusterIndex {
    ClusterIndex::from_dataset(ds, &TnamConfig::new(12, MetricFn::Cosine), params).unwrap()
}

/// One serial answer: sorted `(node, value-bits)` pairs plus the rwr/bdd
/// push counts.
type SerialAnswer = (Vec<(NodeId, u64)>, usize, usize);

/// Serial ground truth per seed, via the borrowing engine on the caller
/// thread.
fn serial_answers(
    ds: &AttributedDataset,
    params: &LacaParams,
    seeds: &[NodeId],
) -> Vec<SerialAnswer> {
    let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(12, MetricFn::Cosine)).unwrap();
    let engine = Laca::new(&ds.graph, Some(&tnam), params.clone()).unwrap();
    seeds
        .iter()
        .map(|&s| {
            let (rho, stats) = engine.bdd_with_stats(s).unwrap();
            (bit_pairs(&rho), stats.rwr.push_operations, stats.bdd.push_operations)
        })
        .collect()
}

/// Exact f64 bit patterns — "close enough" is not the bar here.
fn bit_pairs(v: &laca_diffusion::SparseVec) -> Vec<(NodeId, u64)> {
    v.to_sorted_pairs().into_iter().map(|(i, x)| (i, x.to_bits())).collect()
}

#[test]
fn interleaved_concurrent_queries_are_bit_identical_to_serial() {
    let ds = dataset();
    let params = LacaParams::new(1e-4);
    let seeds: Vec<NodeId> = (0..24).collect();
    let expected = serial_answers(&ds, &params, &seeds);

    // 4 workers × 3 submitter threads, each cycling the seed list in a
    // different order so queries interleave; cache off so every answer is
    // computed on whatever worker/workspace happens to pick it up.
    let service = Arc::new(QueryService::start(
        index(&ds, params),
        ServiceConfig::default().with_workers(4).with_cache_per_worker(0).with_queue_capacity(8),
    ));
    let submitters: Vec<_> = (0..3u32)
        .map(|t| {
            let service = Arc::clone(&service);
            let seeds = seeds.clone();
            std::thread::spawn(move || {
                let rotated: Vec<NodeId> = seeds
                    .iter()
                    .cycle()
                    .skip(t as usize * 7)
                    .take(seeds.len() * 2)
                    .copied()
                    .collect();
                service
                    .query_batch(&rotated)
                    .into_iter()
                    .zip(rotated)
                    .map(|(r, s)| (s, r.expect("query failed")))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for handle in submitters {
        for (seed, answer) in handle.join().unwrap() {
            let (ref rho_bits, rwr_pushes, bdd_pushes) = expected[seed as usize];
            assert_eq!(answer.seed, seed);
            assert_eq!(&bit_pairs(&answer.rho), rho_bits, "seed {seed}: ρ' diverged");
            assert_eq!(answer.stats.rwr.push_operations, rwr_pushes, "seed {seed}: rwr pushes");
            assert_eq!(answer.stats.bdd.push_operations, bdd_pushes, "seed {seed}: bdd pushes");
        }
    }
    let stats = service.stats();
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.completed, 3 * 2 * 24);
    assert_eq!(stats.errors, 0);
}

#[test]
fn cache_hits_return_the_same_answer_and_count_in_stats() {
    let ds = dataset();
    let params = LacaParams::new(1e-4);
    let seeds: Vec<NodeId> = (0..10).collect();
    let expected = serial_answers(&ds, &params, &seeds);

    let service = QueryService::start(
        index(&ds, params),
        ServiceConfig::default().with_workers(2).with_cache_per_worker(64),
    );
    let first: Vec<_> = service.query_batch(&seeds).into_iter().map(Result::unwrap).collect();
    let second: Vec<_> = service.query_batch(&seeds).into_iter().map(Result::unwrap).collect();
    for ((a, b), (ref bits, _, _)) in first.iter().zip(&second).zip(&expected) {
        // The warm pass hands out the very allocation the cold pass made.
        assert!(Arc::ptr_eq(a, b), "cache hit did not share the answer");
        assert_eq!(&bit_pairs(&a.rho), bits);
    }
    let stats = service.stats();
    assert_eq!(stats.cache_misses, 10);
    assert_eq!(stats.cache_hits, 10);
    assert_eq!(stats.completed, 10, "warm pass must not recompute");
    assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    assert_eq!(stats.cache_entries, 10);
    assert!(stats.compute_hist.sum > 0);
    // The histograms sample exactly what the counters count: one
    // queue-wait and one compute sample per computed job, none per hit.
    assert_eq!(stats.compute_hist.count, stats.completed, "compute histogram count");
    assert_eq!(stats.queue_wait_hist.count, stats.completed, "queue-wait histogram count");
    // The flight recorder holds both sides of the mixed workload: hits
    // from the submit-path ring, computes from the worker rings. A worker
    // records its span before it replies, so every compute is already
    // there once its answer is.
    let spans = service.flight_recorder().snapshot(64);
    let outcomes: Vec<SpanOutcome> = spans.iter().map(|span| span.outcome).collect();
    assert!(outcomes.contains(&SpanOutcome::Hit), "no hit span in {outcomes:?}");
    let mut computed: Vec<u64> = spans
        .iter()
        .filter(|span| span.outcome == SpanOutcome::Computed)
        .map(|span| span.seed)
        .collect();
    computed.sort_unstable();
    assert_eq!(computed, (0..10).collect::<Vec<u64>>(), "computed spans in {outcomes:?}");
}

#[test]
fn tiny_queue_applies_backpressure_without_deadlock() {
    let ds = dataset();
    let params = LacaParams::new(1e-3);
    let service = QueryService::start(
        index(&ds, params),
        ServiceConfig::default().with_workers(1).with_queue_capacity(1).with_cache_per_worker(0),
    );
    // 64 queries through a 1-deep queue and 1 worker: submit must block
    // and resume rather than drop or deadlock.
    let seeds: Vec<NodeId> = (0..64).map(|i| i % 7).collect();
    let answers = service.query_batch(&seeds);
    assert_eq!(answers.len(), 64);
    assert!(answers.iter().all(Result::is_ok));
    assert_eq!(service.stats().completed, 64);
}

#[test]
fn bad_seed_surfaces_as_core_error_not_poison() {
    let ds = dataset();
    let service = QueryService::start(
        index(&ds, LacaParams::new(1e-3)),
        ServiceConfig::default().with_workers(2),
    );
    let out = service.query(999_999);
    assert!(matches!(out, Err(ServiceError::Core(_))), "got {out:?}");
    // The worker that hit the error keeps serving.
    assert!(service.query(0).is_ok());
    let stats = service.stats();
    assert_eq!(stats.errors, 1);
}

#[test]
fn without_snas_index_serves_topology_only_queries() {
    let ds = dataset();
    let params = LacaParams::new(1e-4).without_snas();
    let serial = {
        let engine = Laca::new(&ds.graph, None, params.clone()).unwrap();
        engine.bdd(5).unwrap()
    };
    let index = ClusterIndex::new(Arc::new(ds.graph.clone()), None, params).unwrap();
    let service = QueryService::with_defaults(index);
    let answer = service.query(5).unwrap();
    assert_eq!(bit_pairs(&answer.rho), bit_pairs(&serial));
}

#[test]
fn drop_joins_workers_and_later_handles_fail_closed() {
    let ds = dataset();
    let service = QueryService::start(
        index(&ds, LacaParams::new(1e-3)),
        ServiceConfig::default().with_workers(2),
    );
    let pending = service.submit(3);
    drop(service);
    // Shutdown drains the queue: an accepted job always gets a real
    // answer. `Closed` / `WorkerLost` here would mean the orderly drop
    // dropped a reply on the floor — exactly the hang-precursor the
    // WorkerLost machinery exists to rule out.
    match pending.wait() {
        Ok(answer) => assert_eq!(answer.seed, 3),
        Err(e) => panic!("orderly drop must flush accepted jobs, got {e}"),
    }
}
