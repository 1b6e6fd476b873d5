//! Seeded fault-injection invariant suite, compiled only under
//! `--cfg laca_fault_inject` (CI runs it as a dedicated leg).
//!
//! The contract under test: **every submitted query resolves** — with an
//! answer, `Overloaded`, `Expired`, `QueryPanicked`, `Closed`, or
//! `WorkerLost` — no matter which faults the plan injects, every wait
//! returns well inside the watchdog (zero hangs), and every answer that
//! does come back is bit-identical to the serial engine's.
#![cfg(laca_fault_inject)]

use laca_core::tnam::TnamConfig;
use laca_core::{Laca, LacaParams, MetricFn, Tnam};
use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
use laca_graph::{AttributedDataset, NodeId};
use laca_service::{
    AdmissionPolicy, ClusterIndex, FaultPlan, QueryHandle, QueryOptions, QueryResult, QueryService,
    ServiceConfig, ServiceError, ServiceRouter,
};
use std::sync::Arc;
use std::time::Duration;

/// A handle that has not resolved in this long is a hang — the exact
/// failure mode this suite exists to rule out.
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
    .generate("faults-test")
    .unwrap()
}

fn index(ds: &AttributedDataset, params: LacaParams) -> ClusterIndex {
    ClusterIndex::from_dataset(ds, &TnamConfig::new(12, MetricFn::Cosine), params).unwrap()
}

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

fn resolve(handle: QueryHandle) -> QueryResult {
    match handle.wait_timeout(WATCHDOG) {
        Ok(result) => result,
        Err(_still_pending) => panic!("query hung past the {WATCHDOG:?} watchdog"),
    }
}

#[test]
fn contained_job_panics_fail_exactly_the_scheduled_queries() {
    let ds = dataset();
    let params = LacaParams::new(1e-4);
    let expected = serial_bits(&ds, &params, &(0..6).collect::<Vec<_>>());
    for plan_seed in [1u64, 7, 0xfau64] {
        // Panic every 3rd computed query: over 30 computes that is
        // exactly 10 firings, whatever the seed's phase and whatever
        // order the two workers pick jobs up in.
        let plan = Arc::new(FaultPlan::new(plan_seed).with_job_panic_every(3));
        let service = QueryService::start(
            index(&ds, params.clone()),
            ServiceConfig::default()
                .with_workers(2)
                .with_queue_capacity(64)
                .with_cache_per_worker(0)
                .with_fault_plan(plan),
        );
        let handles: Vec<QueryHandle> = (0..30).map(|i| service.submit(i % 6)).collect();
        let mut ok = 0u64;
        let mut panicked = 0u64;
        for handle in handles {
            match resolve(handle) {
                Ok(answer) => {
                    assert_eq!(
                        bit_pairs(&answer.rho),
                        expected[answer.seed as usize],
                        "surviving answers stay bit-identical under injected panics"
                    );
                    ok += 1;
                }
                Err(ServiceError::QueryPanicked) => panicked += 1,
                Err(e) => panic!("unexpected outcome: {e}"),
            }
        }
        assert_eq!(panicked, 10, "period-3 schedule over 30 computes (seed {plan_seed})");
        assert_eq!(ok, 20);
        let stats = service.shutdown();
        assert_eq!(stats.errors, 10);
        assert_eq!(stats.completed, 30, "panicked queries still count as computed");
    }
}

#[test]
fn worker_kills_never_strand_a_waiter() {
    let ds = dataset();
    let params = LacaParams::new(1e-4);
    let expected = serial_bits(&ds, &params, &(0..6).collect::<Vec<_>>());
    for plan_seed in [3u64, 11, 0x5eed] {
        let plan = Arc::new(FaultPlan::new(plan_seed).with_worker_kill_every(4));
        let service = QueryService::start(
            index(&ds, params.clone()),
            ServiceConfig::default()
                .with_workers(2)
                // Deeper than the burst, so `Block` admission can never
                // park a submitter against a dead pool.
                .with_queue_capacity(64)
                .with_cache_per_worker(0)
                .with_fault_plan(plan),
        );
        let handles: Vec<QueryHandle> = (0..40).map(|i| service.submit(i % 6)).collect();
        let mut ok = 0u64;
        let mut lost = 0u64;
        let mut closed = 0u64;
        for handle in handles {
            match resolve(handle) {
                Ok(answer) => {
                    assert_eq!(
                        bit_pairs(&answer.rho),
                        expected[answer.seed as usize],
                        "answers computed before the kill stay bit-identical"
                    );
                    ok += 1;
                }
                // The job's worker died under it, or the last worker's
                // exit guard drained it from the dead queue.
                Err(ServiceError::WorkerLost) => lost += 1,
                // Shed at submit time: the first kill already closed the
                // queue.
                Err(ServiceError::Closed) => closed += 1,
                Err(e) => panic!("unexpected outcome: {e}"),
            }
        }
        assert_eq!(ok + lost + closed, 40, "every submission resolves, none hang");
        assert!(lost + closed > 0, "a period-4 kill schedule must bite within 40 jobs");
        let stats = service.stats();
        assert_eq!(stats.completed, ok);
        assert_eq!(
            stats.cache_misses,
            ok + lost,
            "admitted jobs either compute or surface WorkerLost — none vanish"
        );
        // The pool is dead: later submissions fail fast instead of
        // hanging (the exit guard closed the queue).
        assert!(matches!(
            resolve(service.submit(0)),
            Err(ServiceError::Closed | ServiceError::WorkerLost)
        ));
        drop(service);
    }
}

#[test]
fn slow_compute_expires_deadlined_work_instead_of_serving_it_late() {
    let ds = dataset();
    let params = LacaParams::new(1e-4);
    let expected = serial_bits(&ds, &params, &(0..12).collect::<Vec<_>>());
    // Every compute takes an extra 5 ms on a single worker: a 10 ms
    // deadline lets the head of the queue through and expires the tail.
    let plan = Arc::new(FaultPlan::new(21).with_slow_compute_every(1, Duration::from_millis(5)));
    let service = QueryService::start(
        index(&ds, params),
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(64)
            .with_cache_per_worker(0)
            .with_fault_plan(plan),
    );
    let opts = QueryOptions::new().with_deadline(Duration::from_millis(10));
    let handles: Vec<QueryHandle> = (0..12).map(|s| service.submit_with(s, &opts)).collect();
    let mut ok = 0u64;
    let mut expired = 0u64;
    for handle in handles {
        match resolve(handle) {
            Ok(answer) => {
                assert_eq!(bit_pairs(&answer.rho), expected[answer.seed as usize]);
                ok += 1;
            }
            Err(ServiceError::Expired) => expired += 1,
            Err(e) => panic!("unexpected outcome: {e}"),
        }
    }
    assert!(expired > 0, "5 ms × 12 jobs must push the tail past a 10 ms deadline");
    let stats = service.shutdown();
    assert_eq!(stats.completed + stats.expired, 12, "every admitted job computes or expires");
    assert_eq!(stats.completed, ok);
    assert_eq!(stats.expired, expired);
}

#[test]
fn queue_stalls_back_up_into_shedding_not_blocking() {
    let ds = dataset();
    // Every dequeue stalls 3 ms on the lone worker; a 2-deep queue under
    // a fast burst must shed almost everything — and never park the
    // submitter.
    let plan = Arc::new(FaultPlan::new(33).with_queue_stall_every(1, Duration::from_millis(3)));
    let service = QueryService::start(
        index(&ds, LacaParams::new(1e-4)),
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(2)
            .with_cache_per_worker(0)
            .with_admission(AdmissionPolicy::Shed)
            .with_fault_plan(plan),
    );
    let handles: Vec<QueryHandle> = (0..40).map(|i| service.submit(i % 6)).collect();
    let mut ok = 0u64;
    let mut overloaded = 0u64;
    for handle in handles {
        match resolve(handle) {
            Ok(_) => ok += 1,
            Err(ServiceError::Overloaded) => overloaded += 1,
            Err(e) => panic!("unexpected outcome: {e}"),
        }
    }
    assert_eq!(ok + overloaded, 40);
    assert!(overloaded > 0, "a stalled 2-deep queue must shed a 40-burst");
    let stats = service.shutdown();
    assert_eq!(stats.shed, overloaded);
    assert_eq!(stats.cache_hits + stats.coalesced + stats.cache_misses + stats.shed, 40);
}

#[test]
fn drain_under_faulty_traffic_resolves_every_handle() {
    let ds = dataset();
    let params = LacaParams::new(1e-4);
    let expected = serial_bits(&ds, &params, &(0..6).collect::<Vec<_>>());
    let plan = Arc::new(
        FaultPlan::new(55)
            .with_job_panic_every(5)
            .with_slow_compute_every(3, Duration::from_millis(1)),
    );
    let router = ServiceRouter::new();
    let key = router
        .register(
            index(&ds, params),
            ServiceConfig::default()
                .with_workers(2)
                .with_queue_capacity(64)
                .with_cache_per_worker(32)
                .with_admission(AdmissionPolicy::SmartShed)
                .with_fault_plan(plan),
        )
        .unwrap();
    // Drain lands mid-backlog: the report must flush everything and the
    // handles must still all resolve afterwards.
    let backlog: Vec<QueryHandle> = (0..60).map(|i| router.submit(&key, i % 6).unwrap()).collect();
    let report = router.drain();
    assert_eq!(report.pinned, 0);
    for handle in backlog {
        match resolve(handle) {
            Ok(answer) => {
                assert_eq!(bit_pairs(&answer.rho), expected[answer.seed as usize]);
            }
            // Contained panics fail their flight; everything else is a
            // fault-free outcome.
            Err(ServiceError::QueryPanicked | ServiceError::Overloaded) => {}
            Err(e) => panic!("unexpected outcome: {e}"),
        }
    }
    let totals = &report.totals;
    assert_eq!(
        totals.cache_hits + totals.coalesced + totals.cache_misses + totals.shed,
        60,
        "the drain report's ledger covers the whole backlog"
    );
    assert_eq!(totals.completed, totals.cache_misses, "no deadlines: every admitted job computes");
}
