//! Multi-index routing: one serving front door over many
//! [`ClusterIndex`]es.
//!
//! The paper's query model is inherently multi-tenant — every query
//! carries its own seed *and* parameterization over a fixed preprocessed
//! index, and user-preference variants imply many param-distinct indices
//! served side by side. The [`ServiceRouter`] owns one [`QueryService`]
//! (worker pool + result cache + in-flight table) per registered index,
//! keyed by [`RouteKey`] = `(dataset, index-fingerprint)`, and routes
//! each submission to its index's pool.
//!
//! Registration and retirement are **hot**: the routing table is an
//! immutable snapshot behind an `Arc` that writers replace wholesale
//! (copy-on-write) — readers clone the `Arc` under a briefly-held lock
//! and then route against the snapshot lock-free, so a registration can
//! never stall the submit path behind an index build, and retiring an
//! index lets its in-flight queries drain before the worker pool joins
//! (whoever drops the last reference joins it).

use crate::admission::{QueryOptions, RetryPolicy};
use crate::service::{fill_route_metrics, QueryHandle, QueryResult, ServiceStats};
use crate::snapshot::CowMap;
use crate::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use crate::sync::{Arc, Mutex, PoisonError};
use crate::{ClusterIndex, QueryService, ServiceConfig, ServiceError};
use laca_graph::NodeId;
use laca_telemetry::MetricsRegistry;
use rustc_hash::FxHashMap;

/// Identity of one served index: the dataset it was built over plus the
/// index fingerprint ([`ClusterIndex::fingerprint`] —
/// [`laca_core::LacaParams::fingerprint`] combined with the TNAM
/// config's fingerprint). Two indices over the same dataset with
/// different `ε`/`α`/`σ` — or the same params over TNAMs built with
/// different `k`/metric/seed — get distinct keys, so routing can never
/// mix parameterizations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RouteKey {
    dataset: Arc<str>,
    fingerprint: u64,
}

impl RouteKey {
    /// A key from a dataset label and an index fingerprint (usually via
    /// [`ClusterIndex::route_key`], which derives both from the index).
    pub fn new(dataset: impl Into<Arc<str>>, fingerprint: u64) -> Self {
        RouteKey { dataset: dataset.into(), fingerprint }
    }

    /// The dataset label.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The index fingerprint (params + TNAM identity).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl std::fmt::Display for RouteKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{:016x}", self.dataset, self.fingerprint)
    }
}

/// Errors surfaced by the router API (on top of per-query
/// [`ServiceError`]s).
#[derive(Debug, Clone, PartialEq)]
pub enum RouterError {
    /// No index is registered under the requested key.
    UnknownRoute(RouteKey),
    /// [`ServiceRouter::register`] was asked to overwrite a live route;
    /// retire the old index first (or pick a distinct key) so replacement
    /// is always an explicit two-step.
    DuplicateRoute(RouteKey),
    /// The router is draining ([`ServiceRouter::drain`]): admission and
    /// registration are fenced while in-flight work flushes. Drain is
    /// terminal — route new traffic to another router.
    Draining,
    /// The routed query itself failed.
    Service(ServiceError),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::UnknownRoute(key) => write!(f, "no index registered for {key}"),
            RouterError::DuplicateRoute(key) => {
                write!(f, "an index is already registered for {key}")
            }
            RouterError::Draining => write!(f, "router is draining; admission is fenced"),
            RouterError::Service(e) => write!(f, "routed query failed: {e}"),
        }
    }
}

impl std::error::Error for RouterError {}

impl From<ServiceError> for RouterError {
    fn from(e: ServiceError) -> Self {
        RouterError::Service(e)
    }
}

/// The immutable routing snapshot writers swap wholesale (the map
/// behind [`crate::snapshot::CowMap::snapshot`]).
type RouteTable = FxHashMap<RouteKey, Arc<QueryService>>;

/// A serving front door over many indices: routes each submission to the
/// [`QueryService`] registered for its [`RouteKey`].
///
/// ```text
/// clients ──▶ ServiceRouter ──(RouteKey)──▶ QueryService (pubmed, ε=1e-4)
///                          └──(RouteKey)──▶ QueryService (pubmed, ε=1e-3)
///                          └──(RouteKey)──▶ QueryService (arxiv,  ε=1e-4)
/// ```
///
/// Each route keeps its own worker pool, workspace pool, result cache and
/// in-flight coalescing table, so tenants are fully isolated: a hot
/// dataset saturating its workers cannot starve another route's queue,
/// and cache keys never collide across parameterizations. Registration
/// and retirement swap an `Arc`'d snapshot of the table (the
/// [`CowMap`] copy-on-write protocol, model-checked in
/// `model_tests`), so routing stays lock-free-in-spirit — readers hold
/// the lock only to clone the `Arc` — while indices come and go under
/// live traffic.
pub struct ServiceRouter {
    routes: CowMap<RouteKey, Arc<QueryService>>,
    /// One-way drain latch (0 = admitting, 1 = draining; the sync facade
    /// carries no `AtomicBool`). Set by [`Self::drain`], checked on
    /// every admission-side entry point.
    draining: AtomicU32,
    /// Submissions re-attempted by [`Self::submit_with_retry`] after an
    /// `Overloaded` rejection; surfaced as [`ServiceStats::retried`] in
    /// the router's aggregates.
    retried: AtomicU64,
    /// Final counter snapshots of retired routes, in retirement order.
    /// Retirement would otherwise erase a route's history from
    /// [`Self::telemetry`] mid-scrape; archiving the last [`ServiceStats`]
    /// keeps `laca_*_total` series monotone across the route's lifetime.
    /// Level 4 (`telemetry-archive`) in the lock hierarchy: always
    /// acquired *after* any snapshot walk that touches cache shards.
    archive: Mutex<Vec<(RouteKey, ServiceStats)>>,
}

impl ServiceRouter {
    /// An empty router; add indices with [`Self::register`].
    pub fn new() -> Self {
        ServiceRouter {
            routes: CowMap::new(),
            draining: AtomicU32::new(0),
            retried: AtomicU64::new(0),
            archive: Mutex::new(Vec::new()),
        }
    }

    /// `Err(Draining)` once [`Self::drain`] has fenced admission.
    fn admitting(&self) -> Result<(), RouterError> {
        // ordering: Relaxed load — the drain latch is one-way and
        // advisory on the admission path; a submission racing the flip
        // is indistinguishable from one ordered just before it, and the
        // drained services themselves fail late submissions `Closed`.
        if self.draining.load(Ordering::Relaxed) != 0 {
            return Err(RouterError::Draining);
        }
        Ok(())
    }

    /// The current routing snapshot (cheap: one `Arc` clone under a read
    /// lock).
    fn snapshot(&self) -> Arc<RouteTable> {
        self.routes.snapshot()
    }

    /// Registers `index` under its own [`ClusterIndex::route_key`] and
    /// starts a [`QueryService`] worker pool for it. Returns the key
    /// submissions should use. Fails with [`RouterError::DuplicateRoute`]
    /// when the key is already live — replacement is retire-then-register.
    pub fn register(
        &self,
        index: ClusterIndex,
        config: ServiceConfig,
    ) -> Result<RouteKey, RouterError> {
        self.admitting()?;
        let key = index.route_key();
        // Cheap duplicate probe first, so re-registering a live key does
        // not pay worker-pool spin-up and teardown just to be rejected...
        if self.snapshot().contains_key(&key) {
            return Err(RouterError::DuplicateRoute(key));
        }
        // ...then start the pool before taking the write lock: index
        // spin-up must not stall concurrent registrations behind thread
        // creation. `insert_if_absent` re-checks under the write lock,
        // settling races the probe above cannot (two concurrent
        // registers of the same key); the loser's freshly started pool
        // is handed back and joins here, outside the lock.
        let service = Arc::new(QueryService::start(index, config));
        match self.routes.insert_if_absent(key.clone(), service) {
            Ok(()) => Ok(key),
            Err(rejected) => {
                drop(rejected);
                Err(RouterError::DuplicateRoute(key))
            }
        }
    }

    /// Removes the key's route. Returns `false` when the key was not
    /// registered. In-flight queries on the retired index complete
    /// normally: submissions that already resolved the old snapshot keep
    /// the service alive, and its worker pool drains and joins when the
    /// last reference drops.
    pub fn retire(&self, key: &RouteKey) -> bool {
        // If ours was the last reference, the worker pool joins on this
        // drop — `CowMap::remove` returns the value after releasing the
        // write lock, so retirement can never block routing on a drain.
        match self.routes.remove(key) {
            Some(service) => {
                self.archive_route(key.clone(), service.stats());
                true
            }
            None => false,
        }
    }

    /// Parks a retired route's final counters for [`Self::telemetry`].
    /// Must be called with no snapshot-walk locks held above level 4 —
    /// i.e. after `stats()` has already released every cache shard.
    fn archive_route(&self, key: RouteKey, stats: ServiceStats) {
        let mut archive = self.archive.lock().unwrap_or_else(PoisonError::into_inner);
        match archive.iter_mut().find(|(k, _)| *k == key) {
            // A key can retire more than once (retire, re-register,
            // retire again); generations merge so the archive keeps one
            // entry per distinct route identity.
            Some((_, prior)) => prior.merge(&stats),
            None => archive.push((key, stats)),
        }
    }

    /// The service behind `key`, if registered. Handy for pinning a route
    /// across many calls ([`QueryService::query_batch`] etc.) without
    /// re-resolving per query; the returned service outlives retirement.
    pub fn route(&self, key: &RouteKey) -> Option<Arc<QueryService>> {
        self.snapshot().get(key).map(Arc::clone)
    }

    /// Submits one seed query to the index registered under `key`.
    /// Identical semantics to [`QueryService::submit`] — cache fast path,
    /// single-flight coalescing of concurrent identical misses, bounded
    /// backpressure — plus the routing hop.
    ///
    /// # Example
    ///
    /// ```
    /// use laca_core::tnam::TnamConfig;
    /// use laca_core::{LacaParams, MetricFn};
    /// use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
    /// use laca_service::{ClusterIndex, ServiceConfig, ServiceRouter};
    ///
    /// let ds = AttributedGraphSpec {
    ///     n: 120, n_clusters: 3, avg_degree: 6.0, p_intra: 0.85,
    ///     missing_intra: 0.05, degree_exponent: 0.0, cluster_size_skew: 0.0,
    ///     attributes: Some(AttributeSpec::default_for(24)), seed: 3,
    /// }
    /// .generate("demo")
    /// .unwrap();
    /// let tnam_config = TnamConfig::new(8, MetricFn::Cosine);
    ///
    /// // One router, two parameterizations of the same dataset.
    /// let router = ServiceRouter::new();
    /// let fine = router
    ///     .register(
    ///         ClusterIndex::from_dataset(&ds, &tnam_config, LacaParams::new(1e-4)).unwrap(),
    ///         ServiceConfig::default().with_workers(1),
    ///     )
    ///     .unwrap();
    /// let coarse = router
    ///     .register(
    ///         ClusterIndex::from_dataset(&ds, &tnam_config, LacaParams::new(1e-2)).unwrap(),
    ///         ServiceConfig::default().with_workers(1),
    ///     )
    ///     .unwrap();
    /// assert_ne!(fine, coarse, "distinct params, distinct routes");
    ///
    /// // Submissions carry the route key; handles wait as usual.
    /// let handle = router.submit(&fine, 0).unwrap();
    /// let answer = handle.wait().unwrap();
    /// assert!(answer.rho.support_size() > 0);
    ///
    /// // Retiring a route fails later submissions fast; the other route
    /// // keeps serving.
    /// assert!(router.retire(&coarse));
    /// assert!(router.submit(&coarse, 0).is_err());
    /// assert!(router.submit(&fine, 1).unwrap().wait().is_ok());
    /// ```
    pub fn submit(&self, key: &RouteKey, seed: NodeId) -> Result<QueryHandle, RouterError> {
        self.submit_with(key, seed, &QueryOptions::default())
    }

    /// [`Self::submit`] with per-query options (deadline); see
    /// [`QueryService::submit_with`].
    pub fn submit_with(
        &self,
        key: &RouteKey,
        seed: NodeId,
        opts: &QueryOptions,
    ) -> Result<QueryHandle, RouterError> {
        self.admitting()?;
        match self.snapshot().get(key) {
            Some(service) => Ok(service.submit_with(seed, opts)),
            None => Err(RouterError::UnknownRoute(key.clone())),
        }
    }

    /// [`Self::submit_with`] plus bounded retry of submissions the
    /// route shed with [`ServiceError::Overloaded`]: each rejection
    /// sleeps the policy's jittered exponential backoff and resubmits,
    /// up to [`RetryPolicy::max_retries`] times (every retry counted in
    /// [`ServiceStats::retried`]). The final attempt's handle is
    /// returned as-is — still `Overloaded` if the overload outlasted the
    /// retry budget. Routing errors (unknown route, draining) are never
    /// retried; only overload is transient by construction.
    pub fn submit_with_retry(
        &self,
        key: &RouteKey,
        seed: NodeId,
        opts: &QueryOptions,
        retry: &RetryPolicy,
    ) -> Result<QueryHandle, RouterError> {
        let mut attempt = 0;
        loop {
            let handle = self.submit_with(key, seed, opts)?;
            if attempt >= retry.max_retries
                || !matches!(handle.immediate_error(), Some(ServiceError::Overloaded))
            {
                return Ok(handle);
            }
            self.retried.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(retry.backoff(attempt));
            attempt += 1;
        }
    }

    /// Routes one seed query and blocks for its answer.
    pub fn query(
        &self,
        key: &RouteKey,
        seed: NodeId,
    ) -> Result<Arc<crate::QueryAnswer>, RouterError> {
        self.submit(key, seed)?.wait().map_err(RouterError::from)
    }

    /// Submits a batch to one route and waits for every answer in input
    /// order, resolving the route once for the whole batch.
    pub fn query_batch(
        &self,
        key: &RouteKey,
        seeds: &[NodeId],
    ) -> Result<Vec<QueryResult>, RouterError> {
        self.admitting()?;
        match self.snapshot().get(key) {
            Some(service) => Ok(service.query_batch(seeds)),
            None => Err(RouterError::UnknownRoute(key.clone())),
        }
    }

    /// Keys of every live route, in unspecified order.
    pub fn keys(&self) -> Vec<RouteKey> {
        self.snapshot().keys().cloned().collect()
    }

    /// Number of live routes.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// `true` when no index is registered.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// One route's counter snapshot, if the route is live.
    pub fn stats(&self, key: &RouteKey) -> Option<ServiceStats> {
        self.snapshot().get(key).map(|s| s.stats())
    }

    /// Per-route counter snapshots for every live route.
    pub fn stats_by_route(&self) -> Vec<(RouteKey, ServiceStats)> {
        self.snapshot().iter().map(|(k, s)| (k.clone(), s.stats())).collect()
    }

    /// Prometheus-style exposition across every route, live and retired.
    ///
    /// Each live route renders the full per-route family set
    /// ([`QueryService::telemetry`] semantics: `laca_*_total` counters,
    /// worker/cache gauges, latency summaries, and per-ring span-drop
    /// counters from its flight recorder). Retired routes contribute
    /// their archived final counters — no gauges change meaning, but the
    /// `_total` series survive retirement, so a scraper never sees a
    /// counter vanish or reset just because an index was swapped out. A
    /// key that was retired and re-registered folds its archived
    /// generations into the live snapshot, keeping its series monotone.
    ///
    /// Lock order: live `stats()` snapshots (cache shards, level 3)
    /// complete before the archive lock (level 4, `telemetry-archive`)
    /// is acquired.
    pub fn telemetry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        // Snapshot live stats first: `stats()` walks each route's cache
        // shards, so every level-3 lock is released before the archive
        // lock below.
        let live: Vec<_> = self
            .snapshot()
            .iter()
            .map(|(key, service)| (key.clone(), service.stats(), Arc::clone(service)))
            .collect();
        let archived = self.archive.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let live_keys: Vec<RouteKey> = live.iter().map(|(key, _, _)| key.clone()).collect();
        for (key, mut stats, service) in live {
            if let Some((_, prior)) = archived.iter().find(|(k, _)| *k == key) {
                stats.merge(prior);
            }
            fill_route_metrics(
                &mut registry,
                &key.to_string(),
                &stats,
                Some(service.flight_recorder()),
            );
        }
        for (key, stats) in &archived {
            if !live_keys.contains(key) {
                fill_route_metrics(&mut registry, &key.to_string(), stats, None);
            }
        }
        registry
    }

    /// Counters summed across every live route (gauges — workers, cache
    /// capacity/entries — sum too: they describe the aggregate fleet).
    pub fn aggregate_stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for service in self.snapshot().values() {
            total.merge(&service.stats());
        }
        // ordering: Relaxed load — advisory telemetry, same contract as
        // every per-service counter snapshot.
        total.retried += self.retried.load(Ordering::Relaxed);
        total
    }

    /// Graceful drain: fence admission, then flush and retire every
    /// route.
    ///
    /// The sequence per route mirrors hot retirement ([`Self::retire`]),
    /// plus a flush barrier:
    ///
    /// 1. the route is removed from the table (new resolutions of the
    ///    key fail [`RouterError::UnknownRoute`]; the router-wide fence
    ///    already fails everything [`RouterError::Draining`]);
    /// 2. its service's queue closes — submissions through pinned
    ///    [`Self::route`] handles fail fast with
    ///    [`ServiceError::Closed`] while queued jobs keep draining;
    /// 3. if ours was the last reference, the worker pool flushes every
    ///    queued job (each resolves: answer, error, or `Expired`) and
    ///    joins; otherwise the route is reported as *pinned* and its
    ///    pool joins when the pinning `Arc` drops.
    ///
    /// The report carries each route's final counters and the merged
    /// totals — [`ServiceStats::drained`], [`ServiceStats::shed`] and
    /// [`ServiceStats::expired`] say what the drain flushed and what the
    /// overload path refused. Draining is **terminal**: the router never
    /// admits again (register/submit/query all fail `Draining`).
    /// Idempotent — a second call reports whatever routes remain (none,
    /// unless registrations raced the first drain).
    pub fn drain(&self) -> DrainReport {
        // ordering: Relaxed store — the one-way latch needs no ordering
        // against the table walk below; `CowMap::remove` is the
        // authoritative fence per route.
        self.draining.store(1, Ordering::Relaxed);
        let mut routes = Vec::new();
        let mut totals = ServiceStats::default();
        let mut pinned = 0;
        for key in self.keys() {
            let Some(service) = self.routes.remove(&key) else { continue };
            // Fence the route's own admission immediately: queued work
            // keeps draining, pinned-handle submissions fail `Closed`.
            service.close();
            let stats = match Arc::try_unwrap(service) {
                // Ours was the last reference: flush the queue, join the
                // pool, report the final counters.
                Ok(service) => service.shutdown(),
                // Someone still pins the route (`Self::route`); its pool
                // joins when they drop it. Snapshot what is visible now.
                Err(service) => {
                    pinned += 1;
                    service.stats()
                }
            };
            totals.merge(&stats);
            self.archive_route(key.clone(), stats.clone());
            routes.push((key, stats));
        }
        // ordering: Relaxed load — advisory telemetry (see
        // `aggregate_stats`).
        totals.retried += self.retried.load(Ordering::Relaxed);
        DrainReport { routes, totals, pinned }
    }
}

/// What [`ServiceRouter::drain`] flushed: per-route final counter
/// snapshots, their merged totals, and how many routes could not be
/// fully joined because external `Arc`s still pin them.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainReport {
    /// Final counters per drained route, in drain order.
    pub routes: Vec<(RouteKey, ServiceStats)>,
    /// All per-route snapshots merged, plus the router's retry counter.
    /// `totals.drained` is the number of jobs flushed after the fence;
    /// `totals.shed`/`totals.expired` are what overload handling refused
    /// or timed out across the router's lifetime.
    pub totals: ServiceStats,
    /// Routes whose worker pools could not be joined here because
    /// external [`ServiceRouter::route`] handles still pin them (their
    /// stats are point-in-time snapshots, and their pools join when the
    /// last pin drops).
    pub pinned: usize,
}

impl Default for ServiceRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ServiceRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceRouter").field("routes", &self.keys()).finish()
    }
}
