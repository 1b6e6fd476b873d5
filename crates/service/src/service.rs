//! The concurrent query engine: bounded submission queue with
//! configurable overload admission, fixed worker pool with persistent
//! diffusion workspaces, the cache fast path, single-flight coalescing
//! of concurrent misses, per-query deadlines dropped at dequeue, and
//! flight-recorder telemetry (per-query [`QuerySpan`] timelines plus
//! log-bucketed latency histograms) stamped along the whole lifecycle.

use crate::admission::{AdmissionPolicy, QueryOptions};
use crate::cache::{InFlightTable, ShardedCache, Submission};
use crate::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use crate::ClusterIndex;
use laca_core::laca::LacaQueryStats;
use laca_core::CoreError;
use laca_diffusion::{SparseVec, WorkspacePool};
use laca_graph::NodeId;
use laca_telemetry::{
    FlightRecorder, HistogramSnapshot, LogHistogram, MetricsRegistry, QuerySpan, SpanOutcome,
    SUBMIT_WORKER,
};
use std::collections::VecDeque;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`QueryService`]. `Default` is a reasonable
/// embedded setup: one worker per hardware thread, a 1 024-deep queue,
/// and a per-worker result-cache budget of 512 answers.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (≥ 1). Each holds a persistent
    /// [`laca_diffusion::DiffusionWorkspace`] checked out of the service's
    /// pool for its whole lifetime, so steady-state queries allocate
    /// nothing inside the push loops.
    pub workers: usize,
    /// Bound of the submission queue (≥ 1). When full, `submit` blocks —
    /// backpressure, not unbounded memory growth.
    pub queue_capacity: usize,
    /// Result-cache budget *per worker*, in answers; the total cache
    /// capacity is `workers × cache_per_worker`, mirroring sharded serving
    /// systems where every worker brings its own memory budget (so
    /// provisioning more workers also grows the aggregate cache). `0`
    /// disables caching entirely.
    pub cache_per_worker: usize,
    /// Lock shards of the result cache (≥ 1; more shards, less contention).
    pub cache_shards: usize,
    /// What `submit` does when the queue is at capacity: park the
    /// submitter ([`AdmissionPolicy::Block`], the default) or shed load
    /// with [`ServiceError::Overloaded`] (see [`AdmissionPolicy`]).
    pub admission: AdmissionPolicy,
    /// Flight-recorder depth: how many finished [`QuerySpan`]s each
    /// worker's ring retains (rounded up to a power of two, minimum 1;
    /// the shared submit-path ring gets the same depth). Span recording
    /// is always on — it is a handful of atomic stores per query — so
    /// this knob only sizes the retained window.
    pub spans_per_worker: usize,
    /// Seeded fault schedule injected into the worker loop; only
    /// available under `--cfg laca_fault_inject` (the invariant test
    /// suite's build), absent from release builds entirely.
    #[cfg(laca_fault_inject)]
    pub fault_plan: Option<std::sync::Arc<crate::fault::FaultPlan>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue_capacity: 1024,
            cache_per_worker: 512,
            cache_shards: 8,
            admission: AdmissionPolicy::Block,
            spans_per_worker: 256,
            #[cfg(laca_fault_inject)]
            fault_plan: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the submission-queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the per-worker cache budget (`0` disables the cache).
    pub fn with_cache_per_worker(mut self, entries: usize) -> Self {
        self.cache_per_worker = entries;
        self
    }

    /// Sets the cache shard count.
    pub fn with_cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards;
        self
    }

    /// Sets the overload-admission policy.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Sets the per-worker flight-recorder span depth.
    pub fn with_spans_per_worker(mut self, spans: usize) -> Self {
        self.spans_per_worker = spans;
        self
    }

    /// Attaches a seeded fault-injection schedule (invariant-test builds
    /// only; see [`crate::fault::FaultPlan`]).
    #[cfg(laca_fault_inject)]
    pub fn with_fault_plan(mut self, plan: std::sync::Arc<crate::fault::FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// Errors surfaced by the service API.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The service was shut down before (or while) the query ran.
    Closed,
    /// The underlying LACA query failed (bad seed, solver error, ...).
    Core(CoreError),
    /// The query panicked on its worker; the worker survived and keeps
    /// serving (the panic payload went to the worker's stderr).
    QueryPanicked,
    /// Shed at admission: the submission queue was at capacity under a
    /// shedding [`AdmissionPolicy`]. The query was never enqueued; retry
    /// later (or via [`crate::ServiceRouter::submit_with_retry`]).
    Overloaded,
    /// The query was still queued when its
    /// [`QueryOptions::deadline`] passed (or its handle was cancelled);
    /// it was dropped at dequeue without computing.
    Expired,
    /// The worker that owed this query its reply died before sending
    /// it — a panic escaped the per-query containment. Distinct from
    /// [`Self::QueryPanicked`] (query failed, worker fine) and
    /// [`Self::Closed`] (orderly shutdown).
    WorkerLost,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Closed => write!(f, "query service is shut down"),
            ServiceError::Core(e) => write!(f, "query failed: {e}"),
            ServiceError::QueryPanicked => write!(f, "query panicked on its worker"),
            ServiceError::Overloaded => write!(f, "submission shed: queue at capacity"),
            ServiceError::Expired => write!(f, "query expired before a worker picked it up"),
            ServiceError::WorkerLost => write!(f, "query's worker died before replying"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

/// One answered seed query. Shared via `Arc`: cache hits hand out the
/// same allocation the original computation produced.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The queried seed.
    pub seed: NodeId,
    /// The approximate BDD vector `ρ'` — exactly what serial
    /// [`laca_core::Laca::bdd_with_stats`] returns for this seed.
    pub rho: SparseVec,
    /// Query telemetry (push counts etc.), identical to the serial path's.
    pub stats: LacaQueryStats,
}

/// What a query ultimately yields: the (possibly cached) answer, or the
/// error that ended it.
pub type QueryResult = Result<Arc<QueryAnswer>, ServiceError>;

/// The result-cache / in-flight key: `(seed, index-fingerprint)`.
type CacheKey = (NodeId, u64);

/// A pending (or already-answered) query returned by
/// [`QueryService::submit`].
#[derive(Debug)]
pub struct QueryHandle {
    inner: HandleInner,
    /// One-way cancel latch shared with the queued job (direct-reply
    /// submissions only; coalesced flights have many owners).
    cancel: Option<Arc<AtomicU32>>,
}

#[derive(Debug)]
enum HandleInner {
    /// Answered at submit time (cache hit, or rejected before enqueue).
    Ready(QueryResult),
    /// In flight; the worker sends exactly one result.
    Pending(mpsc::Receiver<QueryResult>),
}

impl QueryHandle {
    /// A handle that was answered (or rejected) at submit time.
    fn ready(result: QueryResult) -> Self {
        QueryHandle { inner: HandleInner::Ready(result), cancel: None }
    }

    /// Blocks until the answer is available.
    pub fn wait(self) -> QueryResult {
        match self.inner {
            HandleInner::Ready(result) => result,
            // A dropped sender means the worker that owed us a reply died
            // before sending it: orderly shutdown drains the queue and
            // answers every accepted job, so only worker loss gets here.
            HandleInner::Pending(rx) => rx.recv().unwrap_or(Err(ServiceError::WorkerLost)),
        }
    }

    /// Blocks until the answer is available or `timeout` elapses. On
    /// timeout the handle is returned so the caller can keep waiting,
    /// [`Self::cancel`], or drop it (abandoning the reply).
    ///
    /// # Errors
    ///
    /// The `Err` arm is the *timeout* (carrying the still-pending
    /// handle); query failures come back as `Ok(Err(service_error))`
    /// like [`Self::wait`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<QueryResult, QueryHandle> {
        let QueryHandle { inner, cancel } = self;
        match inner {
            HandleInner::Ready(result) => Ok(result),
            HandleInner::Pending(rx) => match rx.recv_timeout(timeout) {
                Ok(result) => Ok(result),
                Err(mpsc::RecvTimeoutError::Disconnected) => Ok(Err(ServiceError::WorkerLost)),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    Err(QueryHandle { inner: HandleInner::Pending(rx), cancel })
                }
            },
        }
    }

    /// Abandons the query. If it is still queued when a worker reaches
    /// it, it is dropped without computing (counted in
    /// [`ServiceStats::expired`]); if it is already computing, the
    /// compute finishes and the reply goes nowhere. Cancelling a
    /// coalesced (single-flight) submission only abandons *this*
    /// handle — the shared computation still serves its other waiters.
    pub fn cancel(self) {
        if let Some(flag) = &self.cancel {
            // ordering: Relaxed store — the cancel latch is advisory
            // (one-way, checked once at dequeue); observing it late only
            // costs one wasted compute, never correctness.
            flag.store(1, Ordering::Relaxed);
        }
    }

    /// The result, if it was already determined at submit time: a cache
    /// hit, or a rejection ([`ServiceError::Overloaded`] under a
    /// shedding policy, [`ServiceError::Closed`] after shutdown).
    /// `None` means the query is in flight and must be waited on.
    pub fn immediate(&self) -> Option<&QueryResult> {
        match &self.inner {
            HandleInner::Ready(result) => Some(result),
            HandleInner::Pending(_) => None,
        }
    }

    /// The submit-time rejection, if any — the probe
    /// [`crate::ServiceRouter::submit_with_retry`] uses to decide
    /// whether a retry can help.
    pub fn immediate_error(&self) -> Option<&ServiceError> {
        match self.immediate() {
            Some(Err(e)) => Some(e),
            _ => None,
        }
    }
}

/// Where a computed answer goes.
enum Reply {
    /// Straight to the submitter (cache — and with it coalescing — is
    /// disabled, so every submission has exactly one waiter).
    Direct(mpsc::Sender<QueryResult>),
    /// Through the in-flight table: the leader and every coalesced
    /// follower are parked as waiters on the job's key.
    Flight,
}

/// One queued unit of work.
struct Job {
    seed: NodeId,
    reply: Reply,
    /// Absolute deadline; a job dequeued past it is dropped, not
    /// computed.
    deadline: Option<Instant>,
    /// Cancel latch shared with the submitter's [`QueryHandle`]
    /// (direct-reply jobs only).
    cancel: Option<Arc<AtomicU32>>,
    /// The partially-assembled span timeline (admission/probe/enqueue
    /// already stamped); the worker finishes and records it.
    span: QuerySpan,
}

impl Job {
    /// Whether this job must be dropped at dequeue without computing:
    /// past its deadline, or cancelled by its submitter.
    fn expired(&self) -> bool {
        let past_deadline = self.deadline.is_some_and(|d| Instant::now() >= d);
        // ordering: Relaxed load — the cancel latch is advisory (set
        // once, checked once); racing the store only costs one extra
        // compute, never correctness.
        let cancelled = self.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed) != 0);
        past_deadline || cancelled
    }
}

/// The bounded MPMC submission queue (mutex + two condvars; jobs are
/// milliseconds of work, so queue-lock contention is noise).
///
/// Generic over the item so the model-checking tests (`model_tests`)
/// can schedule-explore the push/pop/close protocol with plain payloads;
/// the service instantiates it as `JobQueue<Job>`.
///
/// Lock poisoning is recovered, not propagated: every critical section
/// is a single `VecDeque` operation or flag write, so the state a
/// panicking thread leaves behind is always consistent — and a worker
/// dying mid-`pop` must degrade (other workers and submitters keep
/// going, `close` still drains) rather than cascade the panic into
/// every thread that touches the queue.
pub(crate) struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct QueueState<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// Why [`JobQueue::try_push`] refused a job; the job rides along so the
/// caller can fail its waiters.
pub(crate) enum TryPushError<T> {
    /// Queue at capacity — the admission policy decides what happens.
    Full(T),
    /// Queue closed by shutdown.
    Closed(T),
}

impl<T> JobQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `job`, blocking while the queue is full. Fails only after
    /// shutdown.
    pub(crate) fn push(&self, job: T) -> Result<(), ServiceError> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.closed {
                return Err(ServiceError::Closed);
            }
            if state.jobs.len() < self.capacity {
                state.jobs.push_back(job);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking enqueue: `Full` when at capacity instead of parking
    /// the caller — the shedding admission path. The refused job is
    /// handed back so the caller can resolve its waiters.
    pub(crate) fn try_push(&self, job: T) -> Result<(), TryPushError<T>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return Err(TryPushError::Closed(job));
        }
        if state.jobs.len() >= self.capacity {
            return Err(TryPushError::Full(job));
        }
        state.jobs.push_back(job);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Advisory fullness probe. The answer can be stale by the time the
    /// caller acts on it — [`Self::try_push`] is the authoritative
    /// admission check; this one only lets `Shed` refuse cheap work
    /// (would-be coalesced joins) early.
    pub(crate) fn is_full(&self) -> bool {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.jobs.len() >= self.capacity
    }

    /// Dequeues the next job, blocking while empty. `None` once the queue
    /// is closed *and* drained — workers finish in-flight work before
    /// exiting.
    pub(crate) fn pop(&self) -> Option<T> {
        self.pop_drained().map(|(job, _)| job)
    }

    /// Like [`Self::pop`], but also reports whether the queue was
    /// already closed when the job was handed out — i.e. whether the
    /// job is being *drained* through shutdown rather than served in
    /// steady state ([`ServiceStats::drained`]).
    pub(crate) fn pop_drained(&self) -> Option<(T, bool)> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                self.not_full.notify_one();
                return Some((job, state.closed));
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub(crate) fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Monotonic service counters (updated with relaxed atomics; the snapshot
/// is advisory telemetry, not a synchronization point).
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    drained: AtomicU64,
    kernel_pushes: AtomicU64,
}

impl Counters {
    /// Zeroes every counter ([`QueryService::reset_stats`]). Resets racing
    /// in-flight updates lose those increments — acceptable for the
    /// advisory telemetry these are; quiesce the service first when exact
    /// windows matter.
    fn reset(&self) {
        for c in [
            &self.hits,
            &self.misses,
            &self.coalesced,
            &self.completed,
            &self.errors,
            &self.shed,
            &self.expired,
            &self.drained,
            &self.kernel_pushes,
        ] {
            // ordering: Relaxed store is deliberate — each counter is
            // independent advisory telemetry; a reset needs no ordering
            // against concurrent bumps (racing increments may be lost,
            // as documented on `reset_stats`).
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time snapshot of a service's counters
/// ([`QueryService::stats`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Total result-cache capacity in answers (0 = caching disabled).
    pub cache_capacity: usize,
    /// Answers currently cached.
    pub cache_entries: usize,
    /// Queries answered from the cache at submit time.
    pub cache_hits: u64,
    /// Queries that missed the cache and were enqueued (flight leaders
    /// when coalescing is active).
    pub cache_misses: u64,
    /// Queries that missed the cache but joined an in-flight computation
    /// of the same key instead of enqueueing a second compute
    /// (single-flight coalescing; zero when the cache is disabled).
    pub coalesced: u64,
    /// Queries computed to completion by workers (success or error).
    pub completed: u64,
    /// Queries that failed in the core algorithm.
    pub errors: u64,
    /// Submissions rejected at admission with
    /// [`ServiceError::Overloaded`] (queue at capacity under a shedding
    /// [`AdmissionPolicy`]); they were never enqueued.
    pub shed: u64,
    /// Jobs dropped at dequeue — past their [`QueryOptions::deadline`]
    /// or cancelled — and resolved with [`ServiceError::Expired`]
    /// without computing.
    pub expired: u64,
    /// Submissions re-attempted after an `Overloaded` rejection. Only
    /// [`crate::ServiceRouter::submit_with_retry`] bumps this (merged in
    /// by the router's aggregates); a standalone service reports 0.
    pub retried: u64,
    /// Jobs a worker picked up *after* the queue closed — work flushed
    /// through shutdown or [`crate::ServiceRouter::drain`] rather than
    /// served in steady state.
    pub drained: u64,
    /// Kernel profile: total diffusion push operations across every
    /// computed query (the paper's cost measure, aggregated fleet-wide).
    pub kernel_pushes: u64,
    /// Log-bucketed distribution of per-job queue wait, nanoseconds —
    /// the one source of truth for queue-wait latency. Percentiles
    /// (p50/p99/p999) and the (sum, count) pair behind
    /// [`avg_queue_wait`](Self::avg_queue_wait) survive merging across
    /// routes and windowing via [`delta_since`](Self::delta_since).
    pub queue_wait_hist: HistogramSnapshot,
    /// Log-bucketed distribution of per-job compute time, nanoseconds
    /// (one sample per computed job; same role as
    /// [`queue_wait_hist`](Self::queue_wait_hist)).
    pub compute_hist: HistogramSnapshot,
    /// Log-bucketed distribution of end-to-end latency (admission to
    /// reply) for every finished span — computed, hit, coalesced, shed.
    pub total_hist: HistogramSnapshot,
}

impl ServiceStats {
    /// Cache hit rate over all submissions (0 when nothing was
    /// submitted). Coalesced submissions count toward the denominator but
    /// not the numerator: they missed the cache, they just didn't pay for
    /// a second compute.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Adds every field of `other` into `self` — counters and gauges
    /// alike (summed gauges describe the aggregate fleet). This is the
    /// one place the full field list is enumerated for aggregation;
    /// [`crate::ServiceRouter::aggregate_stats`] folds per-route
    /// snapshots through it.
    pub fn merge(&mut self, other: &ServiceStats) {
        self.workers += other.workers;
        self.cache_capacity += other.cache_capacity;
        self.cache_entries += other.cache_entries;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.coalesced += other.coalesced;
        self.completed += other.completed;
        self.errors += other.errors;
        self.shed += other.shed;
        self.expired += other.expired;
        self.retried += other.retried;
        self.drained += other.drained;
        self.kernel_pushes += other.kernel_pushes;
        self.queue_wait_hist.merge(&other.queue_wait_hist);
        self.compute_hist.merge(&other.compute_hist);
        self.total_hist.merge(&other.total_hist);
    }

    /// The counter deltas accrued since `earlier` (an older snapshot of
    /// the *same* service): monotonic counters subtract, gauges
    /// (`workers`, `cache_capacity`, `cache_entries`) keep `self`'s
    /// values. This is how benches carve a warm measurement window out of
    /// counters that aggregate across workers for the service's lifetime
    /// — snapshot, run the window, snapshot again, diff.
    pub fn delta_since(&self, earlier: &ServiceStats) -> ServiceStats {
        ServiceStats {
            workers: self.workers,
            cache_capacity: self.cache_capacity,
            cache_entries: self.cache_entries,
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
            completed: self.completed.saturating_sub(earlier.completed),
            errors: self.errors.saturating_sub(earlier.errors),
            shed: self.shed.saturating_sub(earlier.shed),
            expired: self.expired.saturating_sub(earlier.expired),
            retried: self.retried.saturating_sub(earlier.retried),
            drained: self.drained.saturating_sub(earlier.drained),
            kernel_pushes: self.kernel_pushes.saturating_sub(earlier.kernel_pushes),
            queue_wait_hist: self.queue_wait_hist.delta_since(&earlier.queue_wait_hist),
            compute_hist: self.compute_hist.delta_since(&earlier.compute_hist),
            total_hist: self.total_hist.delta_since(&earlier.total_hist),
        }
    }

    /// Mean compute time per computed job, from
    /// [`compute_hist`](Self::compute_hist)'s (sum, count) — exact across
    /// [`merge`](Self::merge)d and [`delta_since`](Self::delta_since)
    /// windows, because the pair travels together (zero before any
    /// sample).
    pub fn avg_compute(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.compute_hist.mean())
    }

    /// Mean queue wait per computed job, from
    /// [`queue_wait_hist`](Self::queue_wait_hist); same contract as
    /// [`avg_compute`](Self::avg_compute).
    pub fn avg_queue_wait(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.queue_wait_hist.mean())
    }
}

/// The span outcome a query that failed with `err` records.
fn outcome_for(err: &ServiceError) -> SpanOutcome {
    match err {
        ServiceError::Closed => SpanOutcome::Closed,
        ServiceError::Core(_) | ServiceError::QueryPanicked => SpanOutcome::Failed,
        ServiceError::Overloaded => SpanOutcome::Shed,
        ServiceError::Expired => SpanOutcome::Expired,
        ServiceError::WorkerLost => SpanOutcome::WorkerLost,
    }
}

/// Per-service observability state: the flight recorder holding recent
/// [`QuerySpan`]s (one ring per worker plus the shared submit-path ring)
/// and the route's log-bucketed latency histograms. All memory is
/// allocated at service start; the record paths are lock-free and
/// allocation-free.
struct ServiceTelemetry {
    recorder: FlightRecorder,
    queue_wait: LogHistogram,
    compute: LogHistogram,
    total: LogHistogram,
}

impl ServiceTelemetry {
    fn new(workers: usize, spans_per_worker: usize) -> Self {
        ServiceTelemetry {
            recorder: FlightRecorder::new(workers, spans_per_worker),
            queue_wait: LogHistogram::new(),
            compute: LogHistogram::new(),
            total: LogHistogram::new(),
        }
    }
}

/// State shared between the service handle and its workers. `cache` and
/// `inflight` are both `Some` or both `None`: coalescing rides on the
/// cache (followers receive "the cached answer"), so disabling the cache
/// also restores strict compute-per-submission semantics — which the
/// cold-throughput benches rely on.
struct Shared {
    index: ClusterIndex,
    queue: JobQueue<Job>,
    cache: Option<ShardedCache<CacheKey, Arc<QueryAnswer>>>,
    inflight: Option<InFlightTable<CacheKey, QueryResult>>,
    counters: Counters,
    telemetry: ServiceTelemetry,
    workspaces: WorkspacePool,
    admission: AdmissionPolicy,
    /// Workers still running their loop. The last worker to die by an
    /// escaped panic drains the queue on the way out, failing stranded
    /// jobs with [`ServiceError::WorkerLost`] so no waiter hangs.
    live_workers: AtomicUsize,
    #[cfg(laca_fault_inject)]
    faults: Option<std::sync::Arc<crate::fault::FaultPlan>>,
}

impl Shared {
    /// Finishes a span that terminated without ever reaching a worker
    /// (cache hit, shed, closed-at-admission): stamps the reply event,
    /// records the end-to-end latency, and pushes the span into the
    /// submit-path ring.
    fn finish_submit_span(&self, mut span: QuerySpan, outcome: SpanOutcome) {
        span.replied_ns = self.telemetry.recorder.now_ns();
        self.finish_submit_span_prestamped(span, outcome);
    }

    /// [`Self::finish_submit_span`] for callers that already stamped
    /// `replied_ns` — the cache-hit fast path folds the probe and reply
    /// stamps into one clock reading, because a clock read costs more
    /// than everything between those two events combined.
    fn finish_submit_span_prestamped(&self, mut span: QuerySpan, outcome: SpanOutcome) {
        span.worker = SUBMIT_WORKER;
        span.outcome = outcome;
        self.telemetry.total.record(span.total_ns());
        self.telemetry.recorder.record_submit(&span);
    }

    /// Finishes the waiter spans an [`InFlightTable::resolve`] handed
    /// back: stamps resume/reply, records end-to-end latency, and pushes
    /// each span into `worker`'s ring (the resolver is its only
    /// producer) or the submit ring for submit-path resolutions. The
    /// leader's placeholder (id 0) is skipped — its real span rides the
    /// queued job.
    fn finish_waiter_spans(
        &self,
        spans: Vec<QuerySpan>,
        outcome: SpanOutcome,
        worker: Option<usize>,
    ) {
        let tel = &self.telemetry;
        let now = tel.recorder.now_ns();
        for mut span in spans {
            if span.id == 0 {
                continue;
            }
            span.outcome = outcome;
            span.resumed_ns = now;
            span.replied_ns = now;
            tel.total.record(span.total_ns());
            match worker {
                Some(w) => tel.recorder.record_worker(w, &span),
                None => tel.recorder.record_submit(&span),
            };
        }
    }

    /// Replies `Err(err)` to a job that will never compute (expired at
    /// dequeue, or stranded by the death of the last worker), finishing
    /// its span — and, for flight jobs, every coalesced waiter's span —
    /// into `worker`'s ring (or the submit ring when no worker owns the
    /// failure).
    fn fail_job(&self, job: Job, err: ServiceError, worker: Option<usize>) {
        let outcome = outcome_for(&err);
        let mut span = job.span;
        match job.reply {
            // The submitter may have dropped its handle; that's fine.
            Reply::Direct(tx) => drop(tx.send(Err(err))),
            Reply::Flight => {
                let inflight =
                    self.inflight.as_ref().expect("flight job without an in-flight table");
                let waiters = inflight.resolve(&(job.seed, self.index.fingerprint()), Err(err));
                self.finish_waiter_spans(waiters, outcome, worker);
            }
        }
        span.worker = worker.map_or(SUBMIT_WORKER, |w| w as u32);
        span.outcome = outcome;
        span.replied_ns = self.telemetry.recorder.now_ns();
        self.telemetry.total.record(span.total_ns());
        match worker {
            Some(w) => self.telemetry.recorder.record_worker(w, &span),
            None => self.telemetry.recorder.record_submit(&span),
        };
    }

    /// Finishes one computed job on worker `wid`: counters, histograms,
    /// span kernel profile, cache insert, reply delivery (direct send or
    /// flight resolution), span recording. The job's span already carries
    /// its dequeue and compute stamps, so queue wait and compute time are
    /// read off it.
    fn deliver(
        &self,
        wid: usize,
        job: Job,
        outcome: Result<(SparseVec, LacaQueryStats), ServiceError>,
        fingerprint: u64,
    ) {
        let counters = &self.counters;
        let telemetry = &self.telemetry;
        let mut span = job.span;
        counters.completed.fetch_add(1, Ordering::Relaxed);
        telemetry.queue_wait.record(span.queue_wait_ns());
        telemetry.compute.record(span.compute_ns());
        let reply: QueryResult = match outcome {
            Ok((rho, stats)) => {
                // Kernel profile: both diffusions (RWR seed expansion +
                // BDD) contribute; peaks take the max, costs sum.
                span.pushes = (stats.rwr.push_operations + stats.bdd.push_operations) as u64;
                span.iterations = (stats.rwr.iterations + stats.bdd.iterations) as u64;
                span.frontier_peak = stats.rwr.frontier_peak.max(stats.bdd.frontier_peak) as u64;
                span.touched = stats.rwr.touched.max(stats.bdd.touched) as u64;
                span.epoch_resets = (stats.rwr.epoch_resets + stats.bdd.epoch_resets) as u64;
                span.outcome = SpanOutcome::Computed;
                counters.kernel_pushes.fetch_add(span.pushes, Ordering::Relaxed);
                let answer = Arc::new(QueryAnswer { seed: job.seed, rho, stats });
                // Cache insert MUST happen before the flight resolves
                // below: `submit`'s under-lock re-check relies on
                // "no in-flight entry → a finished flight's answer is
                // already visible in the cache".
                if let Some(cache) = &self.cache {
                    cache.insert((job.seed, fingerprint), Arc::clone(&answer));
                }
                Ok(answer)
            }
            Err(e) => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
                span.outcome = SpanOutcome::Failed;
                Err(e)
            }
        };
        // Waiters that coalesced onto this flight resume with the
        // leader's answer; an error resolution propagates its outcome.
        let waiter_outcome = match &reply {
            Ok(_) => SpanOutcome::Coalesced,
            Err(e) => outcome_for(e),
        };
        span.worker = wid as u32;
        span.replied_ns = telemetry.recorder.now_ns();
        match &job.reply {
            // The submitter may have dropped its handle; that's fine.
            Reply::Direct(tx) => drop(tx.send(reply)),
            Reply::Flight => {
                let inflight =
                    self.inflight.as_ref().expect("flight job without an in-flight table");
                let waiters = inflight.resolve(&(job.seed, fingerprint), reply);
                self.finish_waiter_spans(waiters, waiter_outcome, Some(wid));
            }
        }
        telemetry.total.record(span.total_ns());
        telemetry.recorder.record_worker(wid, &span);
    }
}

/// An embeddable concurrent query engine over one [`ClusterIndex`].
///
/// * **Shared index** — graph + TNAM + params behind `Arc`s; worker
///   engines are pointer copies.
/// * **Worker pool** — `config.workers` threads, each holding a
///   persistent [`laca_diffusion::DiffusionWorkspace`] checked out of a
///   [`WorkspacePool`] for its lifetime (steady-state queries allocate
///   nothing in the push loops).
/// * **Bounded queue** — `submit` applies backpressure once
///   `config.queue_capacity` jobs are in flight.
/// * **Result cache** — sharded LRU keyed `(seed, index-fingerprint)`,
///   consulted on the submit path; hits never touch the queue.
///
/// Results are **bit-identical** to serial [`laca_core::Laca::bdd`]: the
/// solvers are deterministic and per-worker scratch does not affect
/// arithmetic (asserted by `tests/concurrency.rs`).
///
/// Dropping the service closes the queue, lets workers drain in-flight
/// jobs, and joins them.
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Starts `config.workers` worker threads over `index`.
    pub fn start(index: ClusterIndex, config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let cache_capacity = workers * config.cache_per_worker;
        let cache =
            (cache_capacity > 0).then(|| ShardedCache::new(cache_capacity, config.cache_shards));
        let inflight = cache.as_ref().map(|_| InFlightTable::new());
        let workspaces = WorkspacePool::for_graph(index.graph(), workers);
        let shared = Arc::new(Shared {
            index,
            queue: JobQueue::new(config.queue_capacity.max(1)),
            cache,
            inflight,
            counters: Counters::default(),
            telemetry: ServiceTelemetry::new(workers, config.spans_per_worker),
            workspaces,
            admission: config.admission,
            live_workers: AtomicUsize::new(workers),
            #[cfg(laca_fault_inject)]
            faults: config.fault_plan,
        });
        let handles = (0..workers)
            .map(|wid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("laca-service-{wid}"))
                    .spawn(move || worker_loop(&shared, wid))
                    .expect("failed to spawn service worker")
            })
            .collect();
        QueryService { shared, workers: handles }
    }

    /// Starts a service with the default configuration.
    pub fn with_defaults(index: ClusterIndex) -> Self {
        Self::start(index, ServiceConfig::default())
    }

    /// Submits one seed query. Returns immediately on a cache hit;
    /// otherwise enqueues the query (blocking only when the queue is at
    /// capacity) and returns a handle to wait on.
    ///
    /// Misses are **single-flight** (when the cache is enabled): if an
    /// identical `(seed, params)` computation is already in flight, this
    /// submission joins it instead of enqueueing a second compute — both
    /// waiters receive the same shared answer, and the join is counted in
    /// [`ServiceStats::coalesced`].
    ///
    /// # Example
    ///
    /// ```
    /// use laca_core::tnam::TnamConfig;
    /// use laca_core::{LacaParams, MetricFn};
    /// use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
    /// use laca_service::{ClusterIndex, QueryService, ServiceConfig};
    ///
    /// let ds = AttributedGraphSpec {
    ///     n: 120, n_clusters: 3, avg_degree: 6.0, p_intra: 0.85,
    ///     missing_intra: 0.05, degree_exponent: 0.0, cluster_size_skew: 0.0,
    ///     attributes: Some(AttributeSpec::default_for(24)), seed: 3,
    /// }
    /// .generate("demo")
    /// .unwrap();
    /// let index = ClusterIndex::from_dataset(
    ///     &ds,
    ///     &TnamConfig::new(8, MetricFn::Cosine),
    ///     LacaParams::new(1e-4),
    /// )
    /// .unwrap();
    /// let service = QueryService::start(index, ServiceConfig::default().with_workers(2));
    ///
    /// // Submit returns a handle immediately…
    /// let handle = service.submit(0);
    /// // …and `wait` blocks for the worker's (bit-deterministic) answer.
    /// let answer = handle.wait().unwrap();
    /// assert!(answer.rho.support_size() > 0);
    /// ```
    pub fn submit(&self, seed: NodeId) -> QueryHandle {
        self.submit_with(seed, &QueryOptions::default())
    }

    /// [`Self::submit`] with per-query options: an optional deadline
    /// (expired jobs are dropped at dequeue, never computed) on top of
    /// the service-level [`AdmissionPolicy`].
    pub fn submit_with(&self, seed: NodeId, opts: &QueryOptions) -> QueryHandle {
        let shared = &self.shared;
        let key = (seed, shared.index.fingerprint());
        let counters = &shared.counters;
        let recorder = &shared.telemetry.recorder;
        let deadline = opts.deadline.map(|d| Instant::now() + d);
        // Span birth: every submission gets a recorder-unique id and an
        // admission stamp; later lifecycle events fill in as they happen.
        let mut span = QuerySpan {
            id: recorder.next_id(),
            seed: u64::from(seed),
            admitted_ns: recorder.now_ns(),
            ..QuerySpan::default()
        };
        let (cache, inflight) = match (&shared.cache, &shared.inflight) {
            (Some(cache), Some(inflight)) => {
                // Fast path: answered straight from the cache. Hits are
                // admitted under every policy — they occupy nothing.
                let probe = cache.get(&key);
                if let Some(answer) = probe {
                    counters.hits.fetch_add(1, Ordering::Relaxed);
                    // One reading serves both stamps: on the hit path
                    // nothing measurable happens between probe return
                    // and reply, and a second clock read would dominate
                    // the whole fast path.
                    span.probed_ns = recorder.now_ns();
                    span.replied_ns = span.probed_ns;
                    shared.finish_submit_span_prestamped(span, SpanOutcome::Hit);
                    return QueryHandle::ready(Ok(answer));
                }
                span.probed_ns = recorder.now_ns();
                (cache, inflight)
            }
            // Cache (and with it coalescing) disabled: every submission
            // computes, with a private reply channel and a cancel latch
            // its handle can trip.
            _ => {
                let (tx, rx) = mpsc::channel();
                let cancel = Arc::new(AtomicU32::new(0));
                let job = Job {
                    seed,
                    reply: Reply::Direct(tx),
                    deadline,
                    cancel: Some(Arc::clone(&cancel)),
                    span: QuerySpan { enqueued_ns: recorder.now_ns(), ..span },
                };
                return match self.admit(job) {
                    Ok(()) => {
                        counters.misses.fetch_add(1, Ordering::Relaxed);
                        QueryHandle { inner: HandleInner::Pending(rx), cancel: Some(cancel) }
                    }
                    Err(e) => {
                        if e == ServiceError::Overloaded {
                            counters.shed.fetch_add(1, Ordering::Relaxed);
                        }
                        // Record `span` (no enqueue stamp): the job —
                        // and its optimistic stamp — never entered the
                        // queue.
                        shared.finish_submit_span(span, outcome_for(&e));
                        QueryHandle::ready(Err(e))
                    }
                };
            }
        };
        // Under plain `Shed`, a full queue sheds every submission that
        // is not a cache hit — even one that could have coalesced onto a
        // live flight. `SmartShed` skips this probe: a join costs no
        // queue slot and no compute, so it consults the in-flight table
        // first and sheds only work that would enqueue.
        if shared.admission == AdmissionPolicy::Shed && shared.queue.is_full() {
            counters.shed.fetch_add(1, Ordering::Relaxed);
            shared.finish_submit_span(span, SpanOutcome::Shed);
            return QueryHandle::ready(Err(ServiceError::Overloaded));
        }
        // Miss: join the key's in-flight computation if there is one,
        // else lead a new flight. Leader and followers alike are parked
        // as waiters on the flight entry; a joiner's span parks with its
        // waiter and is finished by whoever resolves the flight.
        let (tx, rx) = mpsc::channel();
        let parked = QuerySpan { parked_ns: recorder.now_ns(), ..span };
        match inflight.join_or_lead(key, tx, parked, || cache.get(&key).map(Ok)) {
            Submission::Joined => {
                counters.coalesced.fetch_add(1, Ordering::Relaxed);
                QueryHandle { inner: HandleInner::Pending(rx), cancel: None }
            }
            Submission::Resolved(result) => {
                // The racing flight resolved between our fast-path probe
                // and the shard lock; its answer is in the cache now.
                counters.hits.fetch_add(1, Ordering::Relaxed);
                shared.finish_submit_span(span, SpanOutcome::Hit);
                QueryHandle::ready(result)
            }
            Submission::Leading => {
                let job = Job {
                    seed,
                    reply: Reply::Flight,
                    deadline,
                    cancel: None,
                    span: QuerySpan { enqueued_ns: recorder.now_ns(), ..span },
                };
                match self.admit(job) {
                    Ok(()) => {
                        counters.misses.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        if e == ServiceError::Overloaded {
                            counters.shed.fetch_add(1, Ordering::Relaxed);
                        }
                        // The flight must resolve on every leader path;
                        // this also serves any follower that joined since
                        // (their parked spans come back for finishing).
                        let outcome = outcome_for(&e);
                        let waiters = inflight.resolve(&key, Err(e));
                        shared.finish_waiter_spans(waiters, outcome, None);
                        shared.finish_submit_span(span, outcome);
                    }
                }
                QueryHandle { inner: HandleInner::Pending(rx), cancel: None }
            }
        }
    }

    /// Enqueues per the admission policy: `Block` parks on a full queue,
    /// the shedding policies convert "full" into
    /// [`ServiceError::Overloaded`] without blocking.
    fn admit(&self, job: Job) -> Result<(), ServiceError> {
        match self.shared.admission {
            AdmissionPolicy::Block => self.shared.queue.push(job),
            AdmissionPolicy::Shed | AdmissionPolicy::SmartShed => {
                self.shared.queue.try_push(job).map_err(|e| match e {
                    TryPushError::Full(_) => ServiceError::Overloaded,
                    TryPushError::Closed(_) => ServiceError::Closed,
                })
            }
        }
    }

    /// Answers one seed query, blocking until it completes.
    pub fn query(&self, seed: NodeId) -> QueryResult {
        self.submit(seed).wait()
    }

    /// Submits a batch and waits for every answer, in input order. All
    /// queries are in flight before the first wait, so a batch pipelines
    /// across the whole worker pool.
    pub fn query_batch(&self, seeds: &[NodeId]) -> Vec<QueryResult> {
        let handles: Vec<QueryHandle> = seeds.iter().map(|&s| self.submit(s)).collect();
        handles.into_iter().map(QueryHandle::wait).collect()
    }

    /// The index this service answers over.
    pub fn index(&self) -> &ClusterIndex {
        &self.shared.index
    }

    /// A point-in-time snapshot of the hit/miss/latency counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        // ordering: Relaxed loads are deliberate — the snapshot is
        // advisory telemetry, not a synchronization point; each field is
        // independently monotonic and `ServiceStats::delta_since`
        // saturates, so cross-counter skew is benign.
        ServiceStats {
            workers: self.workers.len(),
            cache_capacity: self.shared.cache.as_ref().map_or(0, ShardedCache::capacity),
            cache_entries: self.shared.cache.as_ref().map_or(0, ShardedCache::len),
            cache_hits: c.hits.load(Ordering::Relaxed),
            cache_misses: c.misses.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            retried: 0,
            drained: c.drained.load(Ordering::Relaxed),
            kernel_pushes: c.kernel_pushes.load(Ordering::Relaxed),
            queue_wait_hist: self.shared.telemetry.queue_wait.snapshot(),
            compute_hist: self.shared.telemetry.compute.snapshot(),
            total_hist: self.shared.telemetry.total.snapshot(),
        }
    }

    /// The service's flight recorder: the last
    /// [`ServiceConfig::spans_per_worker`] finished [`QuerySpan`]s per
    /// worker (plus the submit-path ring). Use
    /// [`FlightRecorder::snapshot`] for the merged "what just happened"
    /// timeline.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.shared.telemetry.recorder
    }

    /// Renders the service's current counters, histograms and span-ring
    /// occupancy into a fresh [`MetricsRegistry`] (Prometheus text via
    /// [`MetricsRegistry::render_text`]), labeled with this service's
    /// route key. Routers expose the multi-route equivalent as
    /// [`crate::ServiceRouter::telemetry`].
    pub fn telemetry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        let route = self.shared.index.route_key().to_string();
        fill_route_metrics(
            &mut registry,
            &route,
            &self.stats(),
            Some(&self.shared.telemetry.recorder),
        );
        registry
    }

    /// Zeroes the hit/miss/latency counters and the latency histograms,
    /// so the next [`Self::stats`] snapshot covers only work submitted
    /// after this call — benches use it to measure a warm window without
    /// lifetime-aggregate noise (the gauges — cache entries/capacity,
    /// workers — are unaffected, and the flight-recorder rings keep
    /// their spans). Increments racing with the reset may be lost;
    /// quiesce the service first when exact counts matter.
    /// [`ServiceStats::delta_since`] is the non-destructive alternative.
    pub fn reset_stats(&self) {
        self.shared.counters.reset();
        self.shared.telemetry.queue_wait.reset();
        self.shared.telemetry.compute.reset();
        self.shared.telemetry.total.reset();
    }

    /// Fences admission: closes the submission queue, so every later
    /// submission fails fast with [`ServiceError::Closed`] while workers
    /// keep draining already-accepted jobs (each still gets its reply).
    /// Idempotent; [`Self::shutdown`], [`crate::ServiceRouter::drain`]
    /// and `Drop` all go through it.
    pub fn close(&self) {
        self.shared.queue.close();
    }

    /// Graceful shutdown: close the queue, let workers flush every
    /// queued job (each resolves — answer, error, or
    /// [`ServiceError::Expired`]; flushed jobs are counted in
    /// [`ServiceStats::drained`]), join the pool, and report the
    /// service's final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        let workers = self.workers.len();
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            // A worker that panicked already printed its message; its
            // exit guard failed any jobs it would have stranded.
            let _ = handle.join();
        }
        let mut stats = self.stats();
        // Report the pool as it served, not the just-joined remnant.
        stats.workers = workers;
        stats
    }
}

/// Appends one route's samples to `registry` under the stable `laca_*`
/// metric names, every sample labeled `route=<route>`. `recorder` adds
/// the per-ring span family (labels `route`, `worker` — worker rings by
/// number plus the `"submit"` ring); pass `None` for retired routes
/// whose recorder is gone but whose final counters are archived.
pub(crate) fn fill_route_metrics(
    registry: &mut MetricsRegistry,
    route: &str,
    stats: &ServiceStats,
    recorder: Option<&FlightRecorder>,
) {
    let route_label = [("route", route)];
    let counters: [(&str, &str, u64); 10] = [
        (
            "laca_cache_hits_total",
            "Queries answered from the result cache at submit time.",
            stats.cache_hits,
        ),
        (
            "laca_cache_misses_total",
            "Queries that missed the cache and enqueued a compute.",
            stats.cache_misses,
        ),
        (
            "laca_coalesced_total",
            "Misses that joined an in-flight computation instead of enqueueing.",
            stats.coalesced,
        ),
        (
            "laca_completed_total",
            "Queries computed to completion by workers (success or error).",
            stats.completed,
        ),
        (
            "laca_errors_total",
            "Queries that failed in the core algorithm or panicked.",
            stats.errors,
        ),
        (
            "laca_shed_total",
            "Submissions rejected at admission with queue at capacity.",
            stats.shed,
        ),
        (
            "laca_expired_total",
            "Jobs dropped at dequeue past their deadline or cancelled.",
            stats.expired,
        ),
        (
            "laca_retried_total",
            "Submissions re-attempted after an overload rejection.",
            stats.retried,
        ),
        (
            "laca_drained_total",
            "Jobs flushed through shutdown or drain after the queue closed.",
            stats.drained,
        ),
        (
            "laca_kernel_pushes_total",
            "Diffusion push operations across every computed query.",
            stats.kernel_pushes,
        ),
    ];
    for (name, help, value) in counters {
        registry.counter(name, help, &route_label, value);
    }
    registry.gauge(
        "laca_workers",
        "Worker threads serving the queue.",
        &route_label,
        stats.workers as f64,
    );
    registry.gauge(
        "laca_cache_entries",
        "Answers currently cached.",
        &route_label,
        stats.cache_entries as f64,
    );
    registry.gauge(
        "laca_cache_capacity",
        "Total result-cache capacity in answers.",
        &route_label,
        stats.cache_capacity as f64,
    );
    registry.summary(
        "laca_queue_wait_seconds",
        "Time jobs spent queued before a worker picked them up.",
        &route_label,
        &stats.queue_wait_hist,
        1e-9,
    );
    registry.summary(
        "laca_compute_seconds",
        "Worker compute time per query.",
        &route_label,
        &stats.compute_hist,
        1e-9,
    );
    registry.summary(
        "laca_total_seconds",
        "End-to-end latency from admission to reply, every outcome.",
        &route_label,
        &stats.total_hist,
        1e-9,
    );
    let Some(recorder) = recorder else { return };
    for ring_index in 0..=recorder.workers() {
        let ring = recorder.ring(ring_index);
        let worker = recorder.ring_label(ring_index);
        let labels = [("route", route), ("worker", worker.as_str())];
        registry.counter(
            "laca_spans_recorded_total",
            "Query spans recorded into this ring of the flight recorder.",
            &labels,
            ring.claimed().saturating_sub(ring.dropped()),
        );
        registry.counter(
            "laca_spans_dropped_total",
            "Query spans dropped by a contested ring-slot claim.",
            &labels,
            ring.dropped(),
        );
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            // A worker that panicked already printed its message; the
            // service is going away either way.
            let _ = handle.join();
        }
    }
}

/// Body of one worker thread: one engine (pointer copies of the index),
/// one workspace for life, then serve until the queue closes and drains.
/// `wid` names the worker's flight-recorder ring (it is that ring's only
/// producer).
fn worker_loop(shared: &Shared, wid: usize) {
    // Runs however the worker exits. If the exit is a panic that escaped
    // the per-job containment below, close the queue on the way out:
    // submitters then fail fast with `Closed` instead of enqueueing into
    // a queue nobody may drain. And if this was the LAST live worker,
    // fail every still-queued job with `WorkerLost` — their reply
    // senders would otherwise sit in the dead queue forever and every
    // waiter would hang.
    struct ExitGuard<'a>(&'a Shared);
    impl Drop for ExitGuard<'_> {
        fn drop(&mut self) {
            let shared = self.0;
            let survivors = shared.live_workers.fetch_sub(1, Ordering::AcqRel) - 1;
            if std::thread::panicking() {
                shared.queue.close();
                if survivors == 0 {
                    while let Some(job) = shared.queue.pop() {
                        // No worker owns these failures — the spans go
                        // to the submit ring (MP-safe by design).
                        shared.fail_job(job, ServiceError::WorkerLost, None);
                    }
                }
            }
        }
    }
    let _exit_guard = ExitGuard(shared);

    /// Resolves the in-progress flight's key with an error if processing
    /// unwinds past the per-query containment (e.g. a poisoned cache
    /// shard): without this, the coalesced waiters' senders stay parked
    /// in the in-flight table and every waiter blocks until service drop.
    /// On the normal path the worker resolves first, so this drop-time
    /// resolve is a no-op (the entry is already gone). The unwind means
    /// this worker is dying, so the waiters' error is `WorkerLost` (a
    /// panic contained *inside* a query stays `QueryPanicked`).
    struct ResolveOnUnwind<'a> {
        shared: &'a Shared,
        /// The job's flight key; `None` for direct-reply jobs.
        key: Option<CacheKey>,
    }
    impl Drop for ResolveOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                if let (Some(key), Some(inflight)) = (&self.key, &self.shared.inflight) {
                    inflight.resolve(key, Err(ServiceError::WorkerLost));
                }
            }
        }
    }

    let engine = shared.index.engine();
    let fingerprint = shared.index.fingerprint();
    let mut workspace = shared.workspaces.checkout();
    let recorder = &shared.telemetry.recorder;
    while let Some((mut job, drained)) = shared.queue.pop_drained() {
        job.span.dequeued_ns = recorder.now_ns();
        if drained {
            shared.counters.drained.fetch_add(1, Ordering::Relaxed);
        }
        // Deadline/cancel check at dequeue: expired work is dropped,
        // never computed — under overload, queued time eats the
        // deadline, and computing a dead query would only push the next
        // one past its deadline too.
        if job.expired() {
            shared.counters.expired.fetch_add(1, Ordering::Relaxed);
            shared.fail_job(job, ServiceError::Expired, Some(wid));
            continue;
        }
        let _resolve_on_unwind = ResolveOnUnwind {
            shared,
            key: matches!(job.reply, Reply::Flight).then_some((job.seed, fingerprint)),
        };
        #[cfg(laca_fault_inject)]
        if let Some(faults) = &shared.faults {
            // Site 1 (stall the worker), then site 2 (kill it) — the
            // kill panics past the containment below; `ResolveOnUnwind`
            // is already armed, so flight waiters still resolve.
            faults.stall_point();
            faults.worker_kill_point();
        }
        job.span.compute_start_ns = recorder.now_ns();
        // Contain per-query panics: one poisoned query must not take the
        // worker (and with it the whole service) down. The workspace is
        // safe to reuse afterwards — `begin` epoch-invalidates all slot
        // state and clears every list at the next query.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(laca_fault_inject)]
            if let Some(faults) = &shared.faults {
                // Sites 3 and 4: slow the query down / fail it in a
                // contained panic.
                faults.compute_point();
            }
            engine.bdd_with_stats_in(job.seed, &mut workspace)
        }));
        job.span.compute_end_ns = recorder.now_ns();
        let outcome = match result {
            Ok(r) => r.map_err(ServiceError::Core),
            Err(_panic) => Err(ServiceError::QueryPanicked),
        };
        shared.deliver(wid, job, outcome, fingerprint);
    }
}
