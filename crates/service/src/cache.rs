//! Sharded LRU result cache keyed by `(seed, index-fingerprint)`, plus
//! the single-flight [`InFlightTable`] that coalesces concurrent misses.
//!
//! Shape follows the classic serving-cache layout: the key space is
//! hash-partitioned into independent shards, each a fixed-capacity LRU so
//! concurrent lookups from different submitters contend on different
//! locks. Each shard's recency list is intrusive — nodes live in a slab
//! `Vec` and link by index — so a hit costs one hash probe plus two link
//! splices, with no allocation after the shard fills.
//!
//! The in-flight table is the cache's other half on the submit path: a
//! miss first consults it so that two concurrent misses on one key
//! compute once (the *leader* enqueues; *followers* park a waiter and
//! receive the leader's answer when it resolves). Entry lifetime is
//! independent of the LRU — evicting a cached answer never touches an
//! in-flight entry, so eviction under churn cannot deadlock a waiter or
//! force a second compute for the same flight.

use crate::sync::{mpsc, Mutex, PoisonError};
use laca_telemetry::QuerySpan;
use rustc_hash::FxHashMap;
use std::hash::{Hash, Hasher};

/// Sentinel index for "no node" in the intrusive list.
const NIL: usize = usize::MAX;

/// One entry of the slab-backed doubly-linked recency list.
#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map (single shard).
#[derive(Debug)]
pub struct LruShard<K, V> {
    map: FxHashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    /// Most-recently used node, or `NIL` when empty.
    head: usize,
    /// Least-recently used node (the eviction candidate), or `NIL`.
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> LruShard<K, V> {
    /// An empty shard holding at most `capacity ≥ 1` entries.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruShard {
            map: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Detaches node `idx` from the recency list (its links keep their
    /// stale values; callers re-link immediately).
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    /// Links node `idx` in as the new head (most recently used).
    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slab[h].prev = idx,
        }
        self.head = idx;
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(self.slab[idx].value.clone())
    }

    /// Inserts (or refreshes) `key → value`, evicting the least-recently
    /// used entry when the shard is full.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            if idx != self.head {
                self.unlink(idx);
                self.push_front(idx);
            }
            return;
        }
        let idx = if self.map.len() < self.capacity {
            // Room left: take a fresh slab slot.
            self.slab.push(Node { key: key.clone(), value, prev: NIL, next: NIL });
            self.slab.len() - 1
        } else {
            // Full: recycle the LRU node in place.
            let idx = self.tail;
            debug_assert_ne!(idx, NIL);
            self.unlink(idx);
            let old_key = std::mem::replace(&mut self.slab[idx].key, key.clone());
            self.map.remove(&old_key);
            self.slab[idx].value = value;
            idx
        };
        self.push_front(idx);
        self.map.insert(key, idx);
    }
}

/// A hash-sharded LRU cache: `shards` independent [`LruShard`]s behind
/// their own locks, splitting `capacity` evenly (rounded up).
///
/// Shard locks recover from poisoning instead of panicking. The
/// critical sections run no user code for the service's key/value
/// shapes (keys are `(NodeId, u64)`, values are `Arc`s — their
/// `Hash`/`Eq`/`Clone` cannot panic), so a poisoned shard can only be
/// left behind by a panic *outside* the LRU mutation itself; recovering
/// keeps one crashed worker from cascading `Closed`-style failures into
/// every submitter's cache fast path.
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<LruShard<K, V>>>,
}

/// Minimum per-shard depth: below this, hash imbalance between shards
/// dominates (a 1-deep shard thrashes on any key collision), so small
/// caches collapse to fewer shards instead.
const MIN_PER_SHARD: usize = 8;

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache of ≈`capacity` total entries split over at most `shards`
    /// shards (per-shard capacity `ceil(capacity / shards)`). The shard
    /// count is reduced so each shard holds at least `MIN_PER_SHARD`
    /// entries — lock sharding only pays once shards are deep enough that
    /// hash imbalance doesn't evict hot keys.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity.div_ceil(MIN_PER_SHARD));
        let per_shard = capacity.div_ceil(shards);
        ShardedCache { shards: (0..shards).map(|_| Mutex::new(LruShard::new(per_shard))).collect() }
    }

    fn shard(&self, key: &K) -> &Mutex<LruShard<K, V>> {
        let mut h = rustc_hash::FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up `key` in its shard, refreshing recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key).lock().unwrap_or_else(PoisonError::into_inner).get(key)
    }

    /// Inserts `key → value` into its shard.
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key).lock().unwrap_or_else(PoisonError::into_inner).insert(key, value);
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    /// `true` when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().unwrap_or_else(PoisonError::into_inner).is_empty())
    }

    /// Total capacity (sum of shard capacities).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).capacity).sum()
    }
}

/// Outcome of [`InFlightTable::join_or_lead`] for one submission.
#[derive(Debug)]
pub enum Submission<V> {
    /// A flight for this key already exists; the caller's waiter was
    /// registered and will receive the leader's result.
    Joined,
    /// No flight exists but the re-check closure produced a value: the
    /// previous flight resolved (cache insert happens-before entry
    /// removal) between the caller's fast-path miss and this call.
    Resolved(V),
    /// The caller leads a new flight (its waiter is registered too). It
    /// must enqueue the compute and eventually call
    /// [`InFlightTable::resolve`] for this key — on *every* path,
    /// including enqueue failure — or waiters hang until service drop.
    Leading,
}

/// Hash-sharded single-flight table: at most one in-flight computation
/// per key, with all interested submitters parked as `mpsc` waiters on
/// the entry.
///
/// Each waiter carries the [`QuerySpan`] it had assembled when it
/// parked; [`Self::resolve`] hands the spans back to the resolver so it
/// can stamp the resume/reply events and record them — the table itself
/// never touches a clock.
///
/// The submit-path protocol (see [`crate::QueryService::submit`]):
///
/// 1. fast path — probe the result cache; a hit never touches this table;
/// 2. on a miss, [`Self::join_or_lead`] under the key's shard lock:
///    an existing entry means a compute is in flight → join it; no entry
///    → re-check the cache (the flight may have resolved in between) and
///    otherwise insert a new entry and lead;
/// 3. whoever computed calls [`Self::resolve`], which removes the entry
///    and hands every waiter a clone of the result.
///
/// The re-check in step 2 runs under the shard lock, and resolvers insert
/// into the result cache *before* removing the entry, so the
/// "no entry + cache miss" state is only observable when no flight is in
/// progress — two concurrent misses on one key can never both lead.
///
/// Shard locks recover from poisoning instead of panicking: each map
/// operation is a single push/insert/remove with no invariant spanning
/// operations, so the state a panicking thread leaves behind is always
/// consistent — and the error-path resolves that unblock waiters after a
/// worker panic (see `worker_loop`) must keep working precisely when
/// something already panicked.
#[derive(Debug)]
pub struct InFlightTable<K, V> {
    shards: Vec<Mutex<FxHashMap<K, FlightWaiters<V>>>>,
}

/// One flight's parked waiters: each submitter's reply channel plus the
/// span it had assembled when it parked.
type FlightWaiters<V> = Vec<(mpsc::Sender<V>, QuerySpan)>;

/// In-flight shard count. Entries live for one compute (milliseconds) and
/// the population is bounded by the submission-queue depth, so a small
/// fixed fan-out is plenty.
const INFLIGHT_SHARDS: usize = 8;

impl<K: Hash + Eq, V: Clone> InFlightTable<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        InFlightTable {
            shards: (0..INFLIGHT_SHARDS).map(|_| Mutex::new(FxHashMap::default())).collect(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<FxHashMap<K, FlightWaiters<V>>> {
        let mut h = rustc_hash::FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Joins the key's flight if one is in progress, else re-checks the
    /// cache via `recheck`, else registers `waiter` on a fresh entry and
    /// makes the caller the leader. `span` is parked with the waiter and
    /// handed to [`Self::resolve`]'s `finish` callback (the
    /// leader's own span rides its queued job, so leaders register a
    /// placeholder — id 0 — that resolvers skip). `recheck` runs under
    /// the shard lock — it must only take locks that are never held
    /// while calling into this table (the result cache qualifies:
    /// resolvers insert into it *before* locking the shard here).
    pub fn join_or_lead(
        &self,
        key: K,
        waiter: mpsc::Sender<V>,
        span: QuerySpan,
        recheck: impl FnOnce() -> Option<V>,
    ) -> Submission<V> {
        let mut shard = self.shard(&key).lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(waiters) = shard.get_mut(&key) {
            waiters.push((waiter, span));
            return Submission::Joined;
        }
        if let Some(value) = recheck() {
            return Submission::Resolved(value);
        }
        // The leader's real span rides its queued job; its table entry
        // parks the id-0 placeholder so resolvers know to skip it.
        shard.insert(key, vec![(waiter, QuerySpan::default())]);
        Submission::Leading
    }

    /// Ends the key's flight: removes the entry, then, waiter by waiter
    /// in registration order, hands the parked span to `finish` and sends
    /// `value`. Finishing first lets the resolver record a waiter's span
    /// before that waiter can see its reply. Waiters that dropped their
    /// receiver are skipped by the send, but their spans still reach
    /// `finish` (they parked; their timeline is still real). A no-op when
    /// the key has no flight.
    pub fn resolve(&self, key: &K, value: V, mut finish: impl FnMut(QuerySpan)) {
        let waiters = {
            let mut shard = self.shard(key).lock().unwrap_or_else(PoisonError::into_inner);
            shard.remove(key)
        };
        // Send outside the lock: new submissions for this key can lead a
        // fresh flight while the old one's waiters drain.
        for (w, span) in waiters.unwrap_or_default() {
            finish(span);
            let _ = w.send(value.clone());
        }
    }

    /// Number of keys currently in flight (telemetry; racy by nature).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    /// `true` when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().unwrap_or_else(PoisonError::into_inner).is_empty())
    }
}

impl<K: Hash + Eq, V: Clone> Default for InFlightTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lru_evicts_in_recency_order() {
        let mut lru = LruShard::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.get(&"a"), Some(1)); // refresh "a": "b" is now LRU
        lru.insert("c", 3); // evicts "b"
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.get(&"a"), Some(1));
        assert_eq!(lru.get(&"c"), Some(3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_insert_refreshes_existing_key() {
        let mut lru = LruShard::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.insert("a", 10); // refresh + overwrite: "b" is LRU
        lru.insert("c", 3); // evicts "b"
        assert_eq!(lru.get(&"a"), Some(10));
        assert_eq!(lru.get(&"b"), None);
    }

    #[test]
    fn capacity_one_keeps_only_latest() {
        let mut lru = LruShard::new(1);
        for i in 0..10u32 {
            lru.insert(i, i);
        }
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&9), Some(9));
    }

    #[test]
    fn sharded_cache_splits_capacity_and_counts() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(64, 8);
        assert_eq!(cache.capacity(), 64);
        assert!(cache.is_empty());
        for i in 0..64 {
            cache.insert(i, i * 2);
        }
        assert!(cache.len() <= 64);
        let hits = (0..64).filter(|&i| cache.get(&i) == Some(i * 2)).count();
        // Uneven hashing can evict within a shard, but most entries fit.
        assert!(hits >= 48, "only {hits}/64 entries survived");
    }

    #[test]
    fn tiny_caches_collapse_to_one_deep_shard() {
        // 8 entries over a requested 8 shards would be 1-deep shards that
        // thrash on the first hash collision; the constructor must give a
        // single 8-deep shard instead, so a pool of ≤ 8 keys fully fits.
        let cache: ShardedCache<u32, u32> = ShardedCache::new(8, 8);
        assert_eq!(cache.capacity(), 8);
        for i in 0..8 {
            cache.insert(i, i);
        }
        for i in 0..8 {
            assert_eq!(cache.get(&i), Some(i), "entry {i} was evicted below capacity");
        }
    }

    /// A parked span distinguishable from the leader's placeholder.
    fn waiter_span(id: u64) -> QuerySpan {
        QuerySpan { id, parked_ns: id * 10, ..QuerySpan::default() }
    }

    #[test]
    fn inflight_leader_then_joiners_all_receive_one_resolve() {
        let table: InFlightTable<u32, u32> = InFlightTable::new();
        let (lead_tx, lead_rx) = mpsc::channel();
        assert!(matches!(
            table.join_or_lead(7, lead_tx, QuerySpan::default(), || None),
            Submission::Leading
        ));
        assert_eq!(table.len(), 1);
        let followers: Vec<_> = (0..3u64)
            .map(|i| {
                let (tx, rx) = mpsc::channel();
                assert!(matches!(
                    table.join_or_lead(7, tx, waiter_span(i + 1), || panic!(
                        "recheck must not run for joiners"
                    )),
                    Submission::Joined
                ));
                rx
            })
            .collect();
        let mut spans = Vec::new();
        table.resolve(&7, 42, |span| spans.push(span));
        assert!(table.is_empty());
        assert_eq!(lead_rx.recv(), Ok(42));
        for rx in followers {
            assert_eq!(rx.recv(), Ok(42));
        }
        // The resolver gets every parked span back: the leader's
        // placeholder plus the three joiners, registration order.
        let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(spans[2].parked_ns, 20);
    }

    #[test]
    fn inflight_recheck_resolves_the_leader_race() {
        // A flight that resolved between the fast-path miss and
        // join_or_lead must surface as Resolved, not a second Leading.
        let table: InFlightTable<u32, u32> = InFlightTable::new();
        let (tx, _rx) = mpsc::channel();
        match table.join_or_lead(7, tx, QuerySpan::default(), || Some(99)) {
            Submission::Resolved(v) => assert_eq!(v, 99),
            other => panic!("expected Resolved, got {other:?}"),
        }
        assert!(table.is_empty(), "Resolved must not insert an entry");
    }

    #[test]
    fn inflight_resolve_ignores_dropped_waiters_and_missing_keys() {
        let table: InFlightTable<u32, u32> = InFlightTable::new();
        let (lead_tx, lead_rx) = mpsc::channel();
        assert!(matches!(
            table.join_or_lead(1, lead_tx, QuerySpan::default(), || None),
            Submission::Leading
        ));
        let (tx, rx) = mpsc::channel();
        assert!(matches!(table.join_or_lead(1, tx, waiter_span(9), || None), Submission::Joined));
        drop(rx);
        drop(lead_rx);
        // Dropped receivers: send errors swallowed, spans still handed
        // back (leader placeholder first, then the joiner).
        let mut spans = Vec::new();
        table.resolve(&1, 5, |span| spans.push(span));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 0);
        assert_eq!(spans[1].id, 9);
        table.resolve(&2, 6, |_| panic!("never-led key has no waiters")); // no-op
        assert!(table.is_empty());
    }

    #[test]
    fn inflight_keys_are_independent_flights() {
        let table: InFlightTable<u32, u32> = InFlightTable::new();
        let rxs: Vec<_> = (0..INFLIGHT_SHARDS as u32 * 2)
            .map(|k| {
                let (tx, rx) = mpsc::channel();
                assert!(matches!(
                    table.join_or_lead(k, tx, QuerySpan::default(), || None),
                    Submission::Leading
                ));
                (k, rx)
            })
            .collect();
        assert_eq!(table.len(), INFLIGHT_SHARDS * 2);
        for (k, rx) in rxs {
            table.resolve(&k, k * 10, drop);
            assert_eq!(rx.recv(), Ok(k * 10));
        }
        assert!(table.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential test against a naive recency-list model: any
        /// operation sequence must produce identical hit/miss behavior.
        #[test]
        fn lru_matches_naive_model(
            capacity in 1usize..6,
            ops in proptest::collection::vec((0u32..8, 0u32..2), 1..60),
        ) {
            let mut lru = LruShard::new(capacity);
            // Model: Vec of (key, value), front = MRU, truncated to capacity.
            let mut model: Vec<(u32, u32)> = Vec::new();
            for (key, op) in ops {
                if op == 0 {
                    let expected = model.iter().position(|&(k, _)| k == key).map(|pos| {
                        let entry = model.remove(pos);
                        model.insert(0, entry);
                        model[0].1
                    });
                    prop_assert_eq!(lru.get(&key), expected, "get({}) diverged", key);
                } else {
                    let value = key.wrapping_mul(31);
                    if let Some(pos) = model.iter().position(|&(k, _)| k == key) {
                        model.remove(pos);
                    }
                    model.insert(0, (key, value));
                    model.truncate(capacity);
                    lru.insert(key, value);
                }
                prop_assert_eq!(lru.len(), model.len());
            }
        }
    }
}
