//! # `laca-service` — a concurrent query-serving engine for LACA
//!
//! The paper's split is *offline preprocessing* (build the TNAM once)
//! versus *online queries* (sub-second per seed). This crate adds the
//! third piece a production deployment needs: a serving layer that
//! accepts, schedules and answers **many concurrent queries** over one
//! immutable preprocessed index.
//!
//! * [`ClusterIndex`] — graph + TNAM + params behind `Arc`s, cheap to
//!   clone, `Send + Sync` (statically asserted);
//! * [`QueryService`] — a fixed worker pool where each worker owns one
//!   [`laca_diffusion::DiffusionWorkspace`] for its lifetime and borrows
//!   the index's engine, fed by a bounded submission queue, with single
//!   ([`QueryService::query`]) and batched ([`QueryService::query_batch`])
//!   entry points;
//! * [`ServiceRouter`] — one front door over many indices, keyed by
//!   [`RouteKey`] = `(dataset, index-fingerprint)`, with hot
//!   registration/retirement behind an `Arc`-swapped routing snapshot;
//! * [`cache::ShardedCache`] — a sharded LRU result cache keyed by
//!   `(seed, index-fingerprint)`, consulted on the submit path so hits
//!   never occupy a worker;
//! * [`cache::InFlightTable`] — single-flight coalescing: two concurrent
//!   misses on one key compute once, and both waiters receive the cached
//!   answer ([`ServiceStats::coalesced`] counts the joins);
//! * [`ServiceStats`] — a snapshot API over the monotonic hit/miss/latency
//!   counters; [`ServiceStats::delta_since`] between two snapshots gives
//!   an exact measurement window;
//! * **flight-recorder telemetry** — every submission is traced as a
//!   [`laca_telemetry::QuerySpan`] (admission → cache probe → queue →
//!   compute → reply, plus kernel counters) into preallocated
//!   per-worker rings ([`QueryService::flight_recorder`]), latencies
//!   land in log-bucketed histograms ([`ServiceStats::queue_wait_hist`]
//!   etc.), and [`QueryService::telemetry`] /
//!   [`ServiceRouter::telemetry`] render a Prometheus-style text
//!   exposition with stable `laca_*` names.
//!
//! Answers are **bit-identical** to serial [`laca_core::Laca::bdd`]; the
//! integration tests assert it across interleaved multi-threaded loads.
//!
//! ```
//! use laca_core::{LacaParams, MetricFn};
//! use laca_core::tnam::TnamConfig;
//! use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
//! use laca_service::{ClusterIndex, QueryService, ServiceConfig};
//!
//! let ds = AttributedGraphSpec {
//!     n: 200, n_clusters: 4, avg_degree: 6.0, p_intra: 0.85,
//!     missing_intra: 0.05, degree_exponent: 2.5, cluster_size_skew: 0.2,
//!     attributes: Some(AttributeSpec::default_for(32)), seed: 7,
//! }
//! .generate("demo")
//! .unwrap();
//!
//! // Offline: build the shared index once.
//! let index = ClusterIndex::from_dataset(
//!     &ds,
//!     &TnamConfig::new(8, MetricFn::Cosine),
//!     LacaParams::new(1e-4),
//! )
//! .unwrap();
//!
//! // Online: serve concurrent queries.
//! let service = QueryService::start(index, ServiceConfig::default().with_workers(2));
//! let answers = service.query_batch(&[0, 1, 2]);
//! assert!(answers.iter().all(|a| a.is_ok()));
//! // Re-querying an answered seed is a cache hit sharing the same Arc.
//! let again = service.query(0).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&again, answers[0].as_ref().unwrap()));
//! assert_eq!(service.stats().cache_hits, 1);
//! ```

pub mod admission;
pub mod cache;
#[cfg(laca_fault_inject)]
pub mod fault;
pub mod index;
pub mod router;
pub mod service;
pub mod snapshot;
pub mod sync;

#[cfg(all(test, laca_model_check))]
mod model_tests;

pub use admission::{AdmissionPolicy, QueryOptions, RetryPolicy};
pub use cache::ShardedCache;
#[cfg(laca_fault_inject)]
pub use fault::FaultPlan;
pub use index::ClusterIndex;
pub use router::{DrainReport, RouteKey, RouterError, ServiceRouter};
pub use service::{
    QueryAnswer, QueryHandle, QueryResult, QueryService, ServiceConfig, ServiceError, ServiceStats,
};
// Telemetry vocabulary re-exported so downstreams can consume spans and
// registries without naming `laca-telemetry` directly.
pub use laca_telemetry::{
    FlightRecorder, HistogramSnapshot, MetricsRegistry, QuerySpan, SpanOutcome,
};

// The whole serving surface crosses threads by design; if any layer grows
// non-`Send`/`Sync` state, fail the build here rather than racing at
// runtime (`std::sync::mpsc::Receiver` keeps `QueryHandle` single-owner,
// which is intentional — a handle is waited on by its submitter).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ClusterIndex>();
    assert_send_sync::<QueryService>();
    assert_send_sync::<ServiceRouter>();
    assert_send_sync::<RouteKey>();
    assert_send_sync::<QueryAnswer>();
    assert_send_sync::<ServiceStats>();
    assert_send_sync::<AdmissionPolicy>();
    assert_send_sync::<QueryOptions>();
    assert_send_sync::<RetryPolicy>();
    assert_send_sync::<DrainReport>();
    #[cfg(laca_fault_inject)]
    assert_send_sync::<FaultPlan>();
    assert_send_sync::<ShardedCache<(laca_graph::NodeId, u64), std::sync::Arc<QueryAnswer>>>();
    assert_send_sync::<cache::InFlightTable<(laca_graph::NodeId, u64), QueryResult>>();
    assert_send_sync::<snapshot::CowMap<RouteKey, std::sync::Arc<QueryService>>>();
};
