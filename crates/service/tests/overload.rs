//! Overload-handling suite: admission policies (shed vs block),
//! per-query deadlines and cancellation, retry-with-backoff
//! through the router, and graceful drain — plus a property test that
//! random (policy, capacity, deadline) configurations always resolve
//! every submission and keep the admission accounting exact.

use laca_core::tnam::TnamConfig;
use laca_core::{Laca, LacaParams, MetricFn, Tnam};
use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
use laca_graph::{AttributedDataset, NodeId};
use laca_service::{
    AdmissionPolicy, ClusterIndex, QueryHandle, QueryOptions, QueryResult, QueryService,
    RetryPolicy, RouterError, ServiceConfig, ServiceError, ServiceRouter,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Generous per-wait watchdog: a handle that has not resolved in this
/// long is a hang, which is exactly what this suite exists to rule out.
const WATCHDOG: Duration = Duration::from_secs(30);

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
    .generate("overload-test")
    .unwrap()
}

fn index(ds: &AttributedDataset, params: LacaParams) -> ClusterIndex {
    ClusterIndex::from_dataset(ds, &TnamConfig::new(12, MetricFn::Cosine), params).unwrap()
}

/// Serial ground-truth bit patterns per seed.
fn serial_bits(
    ds: &AttributedDataset,
    params: &LacaParams,
    seeds: &[NodeId],
) -> Vec<Vec<(NodeId, u64)>> {
    let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(12, MetricFn::Cosine)).unwrap();
    let engine = Laca::new(&ds.graph, Some(&tnam), params.clone()).unwrap();
    seeds.iter().map(|&s| bit_pairs(&engine.bdd(s).unwrap())).collect()
}

fn bit_pairs(v: &laca_diffusion::SparseVec) -> Vec<(NodeId, u64)> {
    v.to_sorted_pairs().into_iter().map(|(i, x)| (i, x.to_bits())).collect()
}

/// Resolves a handle under the watchdog; panics on a hang.
fn resolve(handle: QueryHandle) -> QueryResult {
    match handle.wait_timeout(WATCHDOG) {
        Ok(result) => result,
        Err(_still_pending) => panic!("query hung past the {WATCHDOG:?} watchdog"),
    }
}

#[test]
fn shed_policy_bounds_the_queue_and_accounts_for_rejections() {
    let ds = dataset();
    let params = LacaParams::new(1e-4);
    let expected = serial_bits(&ds, &params, &[0, 1, 2, 3]);
    // Cache off: every admitted submission computes, so the queue is the
    // only buffer and a burst must overflow it.
    let service = QueryService::start(
        index(&ds, params),
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(2)
            .with_cache_per_worker(0)
            .with_admission(AdmissionPolicy::Shed),
    );
    const BURST: u64 = 200;
    let handles: Vec<QueryHandle> = (0..BURST).map(|i| service.submit((i % 4) as NodeId)).collect();
    let mut ok = 0u64;
    let mut overloaded = 0u64;
    for handle in handles {
        // A shed submission is decided at submit time and says so.
        let shed_at_submit = matches!(handle.immediate_error(), Some(ServiceError::Overloaded));
        match resolve(handle) {
            Ok(answer) => {
                assert!(!shed_at_submit);
                assert_eq!(
                    bit_pairs(&answer.rho),
                    expected[answer.seed as usize],
                    "admitted answers must stay bit-identical under overload"
                );
                ok += 1;
            }
            Err(ServiceError::Overloaded) => {
                assert!(shed_at_submit, "Overloaded must be an immediate verdict");
                overloaded += 1;
            }
            Err(e) => panic!("unexpected error under shed: {e}"),
        }
    }
    assert_eq!(ok + overloaded, BURST);
    assert!(overloaded > 0, "a 200-burst through a 2-deep queue must shed");
    let stats = service.shutdown();
    assert_eq!(stats.shed, overloaded);
    assert_eq!(stats.cache_misses, ok, "cache off: every admitted submission is a miss");
    assert_eq!(stats.completed, ok);
    assert_eq!(
        stats.cache_hits + stats.coalesced + stats.cache_misses + stats.shed,
        BURST,
        "every submission lands in exactly one admission counter"
    );
}

/// Hot-key skew under `Shed` with the cache on (the `overload/smart/x4`
/// bench leg's scenario): only work that would enqueue is ever shed.
#[test]
fn smart_shed_never_rejects_a_hot_key_that_can_coalesce() {
    let ds = dataset();
    let service = Arc::new(QueryService::start(
        index(&ds, LacaParams::new(1e-4)),
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_cache_per_worker(64)
            .with_admission(AdmissionPolicy::Shed),
    ));
    // 4 threads hammer one seed through a 1-deep queue. Exactly one
    // submission leads the flight; every other one either joins it or
    // hits the cache once the flight lands — `Shed` admits them all,
    // full queue or not, because a join occupies no queue slot.
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                (0..50).map(|_| resolve(service.submit(3))).collect::<Vec<_>>()
            })
        })
        .collect();
    for t in threads {
        for result in t.join().unwrap() {
            assert!(result.is_ok(), "hot-key traffic must never shed under Shed");
        }
    }
    let stats = service.stats();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.cache_misses, 1, "single-flight: exactly one leader computes");
    assert_eq!(stats.cache_hits + stats.coalesced, 4 * 50 - 1);
}

/// `Shed` admits a join onto a live flight while the queue is full. One
/// thread submits everything, and only its own submissions fill the
/// queue, so a shed before the join and a shed after it prove the queue
/// was full — holding the same queued job — the whole time in between.
#[test]
fn shed_admits_a_join_while_the_queue_is_full() {
    let ds = dataset();
    let params = LacaParams::new(1e-5);
    let service = QueryService::start(
        index(&ds, params.clone()),
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_cache_per_worker(512)
            .with_admission(AdmissionPolicy::Shed),
    );
    let shed_count = || service.stats().shed;
    let mut fresh = 1..ds.graph.n() as NodeId;
    let mut proven = 0;
    let mut joined = Vec::new();
    for _ in 0..20 {
        // Submit fresh seeds until one sheds: the 1-deep queue then holds
        // exactly the last admitted job, whose flight is live.
        let mut admitted = Vec::new();
        let queued = loop {
            let seed = fresh.next().expect("ran out of fresh seeds");
            let before = shed_count();
            let handle = service.submit(seed);
            if shed_count() > before {
                assert_eq!(resolve(handle).unwrap_err(), ServiceError::Overloaded);
                break admitted.last().map(|&(s, _)| s).expect("an idle worker admits a job");
            }
            admitted.push((seed, handle));
        };
        let before = service.stats();
        let join = service.submit(queued);
        let after_join = service.stats();
        let probe = service.submit(fresh.next().expect("ran out of fresh seeds"));
        if shed_count() > after_join.shed {
            assert_eq!(after_join.shed, before.shed, "a join was shed while the queue was full");
            assert_eq!(after_join.coalesced, before.coalesced + 1, "the join did not coalesce");
            proven += 1;
        }
        joined.push((queued, resolve(join).expect("joined query failed")));
        drop(resolve(probe));
        for (_, handle) in admitted {
            resolve(handle).expect("admitted query failed");
        }
    }
    assert!(proven > 0, "no attempt kept the queue full across the join");
    let seeds: Vec<NodeId> = joined.iter().map(|&(s, _)| s).collect();
    for ((_, answer), expected) in joined.iter().zip(serial_bits(&ds, &params, &seeds)) {
        assert_eq!(bit_pairs(&answer.rho), expected, "a joined answer diverged from serial");
    }
}

#[test]
fn expired_deadlines_drop_queued_work_without_computing() {
    let ds = dataset();
    let service = QueryService::start(
        index(&ds, LacaParams::new(1e-4)),
        ServiceConfig::default().with_workers(1).with_queue_capacity(64).with_cache_per_worker(0),
    );
    // One live query, then a pile of already-expired ones behind it.
    let live = service.submit(0);
    let doomed: Vec<QueryHandle> = (1..=16)
        .map(|s| service.submit_with(s, &QueryOptions::new().with_deadline(Duration::ZERO)))
        .collect();
    assert!(resolve(live).is_ok());
    for handle in doomed {
        assert!(matches!(resolve(handle), Err(ServiceError::Expired)));
    }
    let stats = service.shutdown();
    assert_eq!(stats.expired, 16);
    assert_eq!(stats.completed, 1, "expired jobs must never reach the engine");
    assert_eq!(stats.cache_misses, 17, "expired jobs were admitted, then dropped at dequeue");
}

#[test]
fn cancel_abandons_a_queued_job_before_it_computes() {
    let ds = dataset();
    let service = QueryService::start(
        index(&ds, LacaParams::new(1e-4)),
        ServiceConfig::default().with_workers(1).with_queue_capacity(64).with_cache_per_worker(0),
    );
    // Pad the single worker's queue so the victim sits well behind the
    // dequeue frontier when we cancel it.
    let padding: Vec<QueryHandle> = (0..5).map(|s| service.submit(s)).collect();
    let victim = service.submit(6);
    victim.cancel();
    let tail = service.submit(7);
    for handle in padding {
        assert!(resolve(handle).is_ok());
    }
    assert!(resolve(tail).is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.expired, 1, "the cancelled job must be dropped at dequeue");
    assert_eq!(
        stats.completed, 6,
        "five padding queries plus the tail compute; the victim never does"
    );
}

#[test]
fn wait_timeout_hands_the_pending_handle_back() {
    let ds = dataset();
    let service = QueryService::start(
        index(&ds, LacaParams::new(1e-4)),
        ServiceConfig::default().with_workers(1).with_queue_capacity(64).with_cache_per_worker(64),
    );
    // Queue depth guarantees the last submission cannot have resolved by
    // the time we poll it with a zero timeout.
    let padding: Vec<QueryHandle> = (0..8).map(|s| service.submit(s)).collect();
    let last = service.submit(9);
    let last = match last.wait_timeout(Duration::ZERO) {
        Err(still_pending) => still_pending,
        Ok(result) => panic!("a queued job resolved inside a zero timeout: {result:?}"),
    };
    // The handed-back handle is still live and resolves normally.
    assert!(resolve(last).is_ok());
    for handle in padding {
        assert!(resolve(handle).is_ok());
    }
    // Cache hits resolve at submit time: `immediate` sees the verdict.
    let hit = service.submit(9);
    assert!(matches!(hit.immediate(), Some(Ok(_))));
    assert!(resolve(hit).is_ok());
}

#[test]
fn router_retry_rides_out_transient_overload() {
    let ds = dataset();
    let router = ServiceRouter::new();
    let key = router
        .register(
            index(&ds, LacaParams::new(1e-4)),
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_cache_per_worker(0)
                .with_admission(AdmissionPolicy::Shed),
        )
        .unwrap();
    // Saturate the route, then keep submitting with retry: the queue
    // frees a slot every few hundred microseconds as the worker drains,
    // so a backoff-paced retry budget of 64 always lands eventually.
    let burst: Vec<QueryHandle> = (0..64).map(|i| router.submit(&key, i % 8).unwrap()).collect();
    let retry =
        RetryPolicy::default().with_max_retries(64).with_base_backoff(Duration::from_micros(200));
    let opts = QueryOptions::default();
    // Back-to-back, so each successful admission refills the 1-slot
    // queue before the next call's first attempt — forcing retries.
    let insistent: Vec<QueryHandle> =
        (0..16).map(|i| router.submit_with_retry(&key, i % 8, &opts, &retry).unwrap()).collect();
    for handle in insistent {
        resolve(handle).expect("a retry budget of 64 outlasts a 1-deep queue");
    }
    for handle in burst {
        // The saturating burst itself may shed — that's the point.
        match resolve(handle) {
            Ok(_) | Err(ServiceError::Overloaded) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        router.aggregate_stats().retried > 0,
        "16 submissions against a saturated 1-deep queue must retry at least once"
    );
}

#[test]
fn drain_flushes_the_backlog_then_fences_everything() {
    let ds = dataset();
    let params = LacaParams::new(1e-4);
    let expected = serial_bits(&ds, &params, &(0..16).collect::<Vec<_>>());
    let router = ServiceRouter::new();
    let key = router
        .register(
            index(&ds, params.clone()),
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(64)
                .with_cache_per_worker(0),
        )
        .unwrap();
    // Build a backlog the single worker cannot have finished, then drain
    // under it: every queued job must flush with a real answer.
    let backlog: Vec<QueryHandle> = (0..16).map(|s| router.submit(&key, s).unwrap()).collect();
    let report = router.drain();
    assert_eq!(report.routes.len(), 1);
    assert_eq!(report.pinned, 0, "nothing pins the route; its pool joins inside drain");
    assert_eq!(report.totals.completed, 16, "drain flushes the whole backlog");
    assert!(report.totals.drained > 0, "a 16-deep backlog cannot clear before the fence");
    assert_eq!(
        report.totals.cache_hits
            + report.totals.coalesced
            + report.totals.cache_misses
            + report.totals.shed,
        16
    );
    for (i, handle) in backlog.into_iter().enumerate() {
        let answer = resolve(handle).expect("drained jobs get real answers");
        assert_eq!(bit_pairs(&answer.rho), expected[i], "drained answers stay bit-identical");
    }
    // Drain is terminal: every admission-side entry point fails fast.
    assert!(matches!(router.submit(&key, 0), Err(RouterError::Draining)));
    assert!(matches!(router.query_batch(&key, &[0]), Err(RouterError::Draining)));
    assert!(matches!(
        router.register(index(&ds, params), ServiceConfig::default().with_workers(1)),
        Err(RouterError::Draining)
    ));
    // ...and idempotent: the second pass has nothing left to flush.
    let again = router.drain();
    assert!(again.routes.is_empty());
    assert_eq!(again.totals.completed, 0);
}

/// Shared tiny fixture for the property test: building the dataset once
/// keeps the per-case cost at "start a service, run a burst".
fn prop_fixture() -> &'static (AttributedDataset, LacaParams) {
    static FIXTURE: OnceLock<(AttributedDataset, LacaParams)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = AttributedGraphSpec {
            n: 80,
            n_clusters: 3,
            avg_degree: 6.0,
            p_intra: 0.85,
            missing_intra: 0.05,
            degree_exponent: 0.0,
            cluster_size_skew: 0.0,
            attributes: Some(AttributeSpec {
                dim: 24,
                topic_words: 8,
                tokens_per_node: 12,
                attr_noise: 0.2,
            }),
            seed: 7,
        }
        .generate("overload-prop")
        .unwrap();
        (ds, LacaParams::new(1e-3))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the (admission policy, queue bound, worker count, cache
    /// budget, deadline) configuration, a burst of submissions always
    /// resolves — answer, `Overloaded`, or `Expired`, never a hang — and
    /// the admission ledger balances exactly:
    /// `hits + coalesced + misses + shed == submitted` and
    /// `misses == completed + expired` once the service drains.
    #[test]
    fn every_configuration_resolves_every_submission_with_exact_accounting(
        policy_idx in 0usize..2,
        capacity in 1usize..8,
        workers in 1usize..3,
        cache_per_worker in 0usize..12,
        deadline_idx in 0usize..3,
        n_queries in 8usize..48,
    ) {
        let policy = [AdmissionPolicy::Block, AdmissionPolicy::Shed][policy_idx];
        let deadline = [None, Some(Duration::ZERO), Some(Duration::from_secs(30))][deadline_idx];
        let (ds, params) = prop_fixture();
        let service = QueryService::start(
            index(ds, params.clone()),
            ServiceConfig::default()
                .with_workers(workers)
                .with_queue_capacity(capacity)
                .with_cache_per_worker(cache_per_worker)
                .with_admission(policy),
        );
        let mut opts = QueryOptions::new();
        if let Some(d) = deadline {
            opts = opts.with_deadline(d);
        }
        let handles: Vec<QueryHandle> =
            (0..n_queries).map(|i| service.submit_with((i % 7) as NodeId, &opts)).collect();
        for handle in handles {
            match resolve(handle) {
                Ok(_) | Err(ServiceError::Expired) => {}
                Err(ServiceError::Overloaded) => {
                    prop_assert_ne!(policy, AdmissionPolicy::Block, "Block admission never sheds");
                }
                Err(e) => panic!("unexpected outcome: {e}"),
            }
        }
        let stats = service.shutdown();
        prop_assert_eq!(
            stats.cache_hits + stats.coalesced + stats.cache_misses + stats.shed,
            n_queries as u64,
            "every submission lands in exactly one admission counter"
        );
        prop_assert_eq!(
            stats.cache_misses,
            stats.completed + stats.expired,
            "every admitted job either computes or expires — none linger"
        );
    }
}
