//! Per-query span timelines and the flight recorder that stores them.
//!
//! A [`QuerySpan`] is a fixed set of `u64` stamps — one per lifecycle
//! event (admission, cache probe, enqueue, coalesce park, dequeue,
//! compute start/end, coalesce resume, reply) plus kernel profile
//! counters — cheap to copy and encodable as [`QuerySpan::WORDS`] plain
//! words. Finished spans are recorded into a [`SpanRing`]: a
//! preallocated, lock-free, fixed-capacity ring of per-slot seqlocks
//! that overwrites oldest-first and never allocates after construction,
//! so recording is legal inside `hot-path-no-alloc` lint regions.
//!
//! The [`FlightRecorder`] owns one ring per worker (single producer
//! each) plus one shared submit-path ring (multi-producer, for spans
//! that terminate before reaching a worker: cache hits, sheds), a
//! monotonic span-id sequence, and the time epoch all stamps are
//! relative to. [`FlightRecorder::snapshot`] merges the last N spans
//! across rings on demand — the "what was in flight when it tripped"
//! view (`laca-service`'s concurrency tests check it holds both hit and
//! computed spans after a mixed workload).
//!
//! # Ring protocol
//!
//! Writers claim a ticket with a relaxed `fetch_add` on the ring head,
//! then CAS the target slot's sequence word from the previous
//! resident's *even* value to this ticket's *odd* value, store the span
//! words, and publish by storing the ticket's even value. A failed
//! claim CAS (only possible when a producer laps the whole ring while
//! another is mid-write on the same slot) drops the span and bumps a
//! `dropped` counter instead of tearing. Readers accept a slot only if
//! its sequence is even and unchanged across the word reads — so a
//! snapshot can miss a span being written, but can never surface a torn
//! one. `model_tests.rs` schedule-explores exactly this invariant
//! through the loom facade.

use crate::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Worker index recorded on spans that terminate on the submit path
/// (cache hits, sheds, submit-side failures) and never reach a worker.
pub const SUBMIT_WORKER: u32 = u32::MAX;

/// How a query's lifecycle ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanOutcome {
    /// Span is still being assembled (never recorded in this state).
    #[default]
    Pending = 0,
    /// Answered from the result cache on the submit path.
    Hit = 1,
    /// Computed by a worker (single-flight leader or uncoalesced miss).
    Computed = 2,
    /// Joined an in-flight computation and received the leader's answer.
    Coalesced = 3,
    /// Rejected at admission by a shedding policy.
    Shed = 4,
    /// Deadline passed while queued; dropped at dequeue, never computed.
    Expired = 5,
    /// Compute failed (engine error or a panicking query).
    Failed = 6,
    /// The owning worker died with the job stranded.
    WorkerLost = 7,
    /// The service closed before the job ran.
    Closed = 8,
}

impl SpanOutcome {
    /// Wire code for ring encoding.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code); unknown codes decode as
    /// `Pending`.
    pub fn from_code(code: u8) -> Self {
        match code {
            1 => SpanOutcome::Hit,
            2 => SpanOutcome::Computed,
            3 => SpanOutcome::Coalesced,
            4 => SpanOutcome::Shed,
            5 => SpanOutcome::Expired,
            6 => SpanOutcome::Failed,
            7 => SpanOutcome::WorkerLost,
            8 => SpanOutcome::Closed,
            _ => SpanOutcome::Pending,
        }
    }

    /// Stable lowercase label (metric/exposition vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Pending => "pending",
            SpanOutcome::Hit => "hit",
            SpanOutcome::Computed => "computed",
            SpanOutcome::Coalesced => "coalesced",
            SpanOutcome::Shed => "shed",
            SpanOutcome::Expired => "expired",
            SpanOutcome::Failed => "failed",
            SpanOutcome::WorkerLost => "worker-lost",
            SpanOutcome::Closed => "closed",
        }
    }
}

/// One query's lifecycle timeline: event stamps in nanoseconds since the
/// owning [`FlightRecorder`]'s epoch (`0` = the event never happened),
/// plus the kernel profile the diffusion workspace reported.
///
/// Spans are plain `Copy` values assembled incrementally — stamped on
/// the submit path, carried inside the job through the queue, finished
/// by the worker — and recorded whole into a [`SpanRing`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuerySpan {
    /// Recorder-unique id (1-based; `0` marks a placeholder span).
    pub id: u64,
    /// The query's seed node.
    pub seed: u64,
    /// Worker that finished the span, or [`SUBMIT_WORKER`].
    pub worker: u32,
    /// How the lifecycle ended.
    pub outcome: SpanOutcome,
    /// Submission entered `submit_with` (span birth).
    pub admitted_ns: u64,
    /// Result-cache probe completed (hit or miss).
    pub probed_ns: u64,
    /// Job accepted into the bounded queue.
    pub enqueued_ns: u64,
    /// Parked onto an in-flight computation (coalesced joiners only).
    pub parked_ns: u64,
    /// Worker popped the job off the queue.
    pub dequeued_ns: u64,
    /// Diffusion compute began.
    pub compute_start_ns: u64,
    /// Diffusion compute returned.
    pub compute_end_ns: u64,
    /// Parked joiner was resumed by the leader's resolution.
    pub resumed_ns: u64,
    /// Answer (or error) handed to the submitter's channel.
    pub replied_ns: u64,
    /// Kernel profile: total push operations across both diffusions.
    pub pushes: u64,
    /// Kernel profile: total solver iterations.
    pub iterations: u64,
    /// Kernel profile: peak frontier-queue occupancy.
    pub frontier_peak: u64,
    /// Kernel profile: distinct nodes touched by the push loops.
    pub touched: u64,
    /// Kernel profile: workspace epoch-counter wrap resets (≈ always 0).
    pub epoch_resets: u64,
}

impl QuerySpan {
    /// Words a span occupies in a ring slot.
    pub const WORDS: usize = 17;

    /// Queue residency: dequeue − enqueue (0 if either is unset).
    pub fn queue_wait_ns(&self) -> u64 {
        self.dequeued_ns.saturating_sub(self.enqueued_ns)
    }

    /// Compute duration: end − start.
    pub fn compute_ns(&self) -> u64 {
        self.compute_end_ns.saturating_sub(self.compute_start_ns)
    }

    /// End-to-end latency: reply − admission.
    pub fn total_ns(&self) -> u64 {
        self.replied_ns.saturating_sub(self.admitted_ns)
    }

    fn encode(&self) -> [u64; Self::WORDS] {
        [
            self.id,
            self.seed,
            (u64::from(self.worker) << 32) | u64::from(self.outcome.code()),
            self.admitted_ns,
            self.probed_ns,
            self.enqueued_ns,
            self.parked_ns,
            self.dequeued_ns,
            self.compute_start_ns,
            self.compute_end_ns,
            self.resumed_ns,
            self.replied_ns,
            self.pushes,
            self.iterations,
            self.frontier_peak,
            self.touched,
            self.epoch_resets,
        ]
    }

    fn decode(words: &[u64; Self::WORDS]) -> Self {
        QuerySpan {
            id: words[0],
            seed: words[1],
            worker: (words[2] >> 32) as u32,
            outcome: SpanOutcome::from_code(words[2] as u8),
            admitted_ns: words[3],
            probed_ns: words[4],
            enqueued_ns: words[5],
            parked_ns: words[6],
            dequeued_ns: words[7],
            compute_start_ns: words[8],
            compute_end_ns: words[9],
            resumed_ns: words[10],
            replied_ns: words[11],
            pushes: words[12],
            iterations: words[13],
            frontier_peak: words[14],
            touched: words[15],
            epoch_resets: words[16],
        }
    }
}

/// One ring slot: a per-slot seqlock (`seq` odd = write in progress,
/// even = ticket `seq/2 − 1` published) over the span's encoded words.
#[derive(Debug)]
struct SpanSlot {
    seq: AtomicU64,
    words: [AtomicU64; QuerySpan::WORDS],
}

/// A preallocated, lock-free ring of the most recent spans.
///
/// Capacity rounds up to a power of two. The ring overwrites
/// oldest-first; writers never block, readers never block, and nothing
/// allocates after construction. See the [module docs](self) for the
/// claim/publish protocol and its torn-read guarantee.
#[derive(Debug)]
pub struct SpanRing {
    mask: usize,
    head: AtomicU64,
    dropped: AtomicU64,
    slots: Box<[SpanSlot]>,
}

impl SpanRing {
    /// A ring holding the last `capacity` spans (rounded up to a power
    /// of two, minimum 1). All slots are allocated here, up front.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        let slots = (0..cap)
            .map(|_| SpanSlot {
                seq: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        SpanRing { mask: cap - 1, head: AtomicU64::new(0), dropped: AtomicU64::new(0), slots }
    }

    /// Slot count (power of two).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Tickets claimed so far (= spans recorded or dropped).
    pub fn claimed(&self) -> u64 {
        // ordering: monotone counter read; staleness is acceptable.
        self.head.load(Ordering::Relaxed)
    }

    /// Spans dropped by a contested slot claim (only possible when a
    /// producer laps the ring while another is mid-write; zero on the
    /// single-producer per-worker rings).
    pub fn dropped(&self) -> u64 {
        // ordering: monotone counter read; staleness is acceptable.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one finished span. Returns `false` iff the slot claim was
    /// contested and the span dropped (see [`dropped`](Self::dropped)).
    ///
    /// Cost: one relaxed RMW, one CAS, eighteen release stores. No
    /// allocation — legal inside `hot-path-no-alloc` regions.
    // lint: hot-path
    pub fn record(&self, span: &QuerySpan) -> bool {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & self.mask];
        // The slot's previous resident (ticket − capacity) must have
        // fully published; otherwise a slower producer is still writing
        // here and we drop rather than tear.
        let expected = match ticket.checked_sub(self.capacity() as u64) {
            Some(prev) => 2 * prev + 2,
            None => 0,
        };
        // ordering: acquire on success pairs with the previous
        // resident's publishing release store; relaxed on failure — the
        // span is dropped without reading slot state.
        if slot
            .seq
            .compare_exchange(expected, 2 * ticket + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        for (word, value) in slot.words.iter().zip(span.encode()) {
            word.store(value, Ordering::Release);
        }
        slot.seq.store(2 * ticket + 2, Ordering::Release);
        true
    }

    /// Appends up to `max` of the ring's most recent published spans to
    /// `out` (oldest first). Slots mid-write or overwritten during the
    /// read are skipped — never surfaced torn.
    pub fn snapshot_into(&self, out: &mut Vec<QuerySpan>, max: usize) {
        let head = self.head.load(Ordering::Acquire);
        let take = (max.min(self.capacity()) as u64).min(head);
        for ticket in head - take..head {
            let slot = &self.slots[(ticket as usize) & self.mask];
            let published = 2 * ticket + 2;
            if slot.seq.load(Ordering::Acquire) != published {
                continue;
            }
            let mut words = [0u64; QuerySpan::WORDS];
            for (value, word) in words.iter_mut().zip(slot.words.iter()) {
                *value = word.load(Ordering::Acquire);
            }
            if slot.seq.load(Ordering::Acquire) == published {
                out.push(QuerySpan::decode(&words));
            }
        }
    }
}

/// The per-service flight recorder: one [`SpanRing`] per worker plus a
/// shared submit-path ring, a monotonic span-id sequence, and the
/// [`Instant`] epoch every span stamp is relative to.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    next_id: AtomicU64,
    rings: Box<[SpanRing]>,
}

impl FlightRecorder {
    /// A recorder for `workers` workers, each ring holding the last
    /// `capacity` spans (plus one submit-path ring of the same size).
    /// All memory is allocated here; recording never allocates.
    pub fn new(workers: usize, capacity: usize) -> Self {
        FlightRecorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            rings: (0..=workers).map(|_| SpanRing::new(capacity)).collect(),
        }
    }

    /// Worker rings in this recorder (excludes the submit ring).
    pub fn workers(&self) -> usize {
        self.rings.len() - 1
    }

    /// Nanoseconds since the recorder's epoch — the clock every span
    /// stamp uses.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocates the next span id (1-based, recorder-unique).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records a span finished by `worker` into that worker's ring
    /// (single producer by construction).
    pub fn record_worker(&self, worker: usize, span: &QuerySpan) -> bool {
        self.rings[worker.min(self.workers().saturating_sub(1))].record(span)
    }

    /// Records a submit-path-terminal span (hit, shed, submit-side
    /// failure) into the shared multi-producer submit ring.
    pub fn record_submit(&self, span: &QuerySpan) -> bool {
        self.rings[self.rings.len() - 1].record(span)
    }

    /// The ring for `worker`, or the submit ring for `index ==`
    /// [`workers`](Self::workers) — per-ring depth/drop metrics read
    /// through this.
    pub fn ring(&self, index: usize) -> &SpanRing {
        &self.rings[index]
    }

    /// Stable label for ring `index`: the worker number, or `"submit"`
    /// for the submit-path ring.
    pub fn ring_label(&self, index: usize) -> String {
        if index == self.workers() {
            "submit".to_owned()
        } else {
            index.to_string()
        }
    }

    /// Total spans recorded across all rings (excludes drops).
    pub fn recorded(&self) -> u64 {
        self.rings.iter().map(|r| r.claimed() - r.dropped()).sum()
    }

    /// Total spans dropped to contested slot claims across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(SpanRing::dropped).sum()
    }

    /// The last `last` spans across every ring, merged and sorted by
    /// span id (ascending — oldest first). Allocates; not a hot-path
    /// API.
    pub fn snapshot(&self, last: usize) -> Vec<QuerySpan> {
        let mut all = Vec::with_capacity(last.saturating_mul(2));
        for ring in self.rings.iter() {
            ring.snapshot_into(&mut all, last);
        }
        all.sort_by_key(|s| s.id);
        if all.len() > last {
            all.drain(..all.len() - last);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64) -> QuerySpan {
        QuerySpan {
            id,
            seed: id * 3,
            worker: 2,
            outcome: SpanOutcome::Computed,
            admitted_ns: id,
            probed_ns: id + 1,
            enqueued_ns: id + 2,
            dequeued_ns: id + 10,
            compute_start_ns: id + 11,
            compute_end_ns: id + 50,
            replied_ns: id + 52,
            pushes: 1000 + id,
            iterations: 7,
            frontier_peak: 40,
            touched: 900,
            ..QuerySpan::default()
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = span(42);
        assert_eq!(QuerySpan::decode(&s.encode()), s);
        assert_eq!(s.queue_wait_ns(), 8);
        assert_eq!(s.compute_ns(), 39);
        assert_eq!(s.total_ns(), 52);
        for code in 0..=9u8 {
            let o = SpanOutcome::from_code(code);
            assert_eq!(SpanOutcome::from_code(o.code()), o);
        }
    }

    #[test]
    fn ring_keeps_most_recent_on_wraparound() {
        let ring = SpanRing::new(4);
        for id in 1..=10 {
            assert!(ring.record(&span(id)));
        }
        let mut out = Vec::new();
        ring.snapshot_into(&mut out, 16);
        let ids: Vec<u64> = out.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10], "last capacity spans, oldest first");
        assert_eq!(ring.claimed(), 10);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn recorder_merges_rings_by_span_id() {
        let rec = FlightRecorder::new(2, 8);
        for i in 0..6u64 {
            let mut s = span(rec.next_id());
            s.worker = (i % 2) as u32;
            rec.record_worker(s.worker as usize, &s);
        }
        let mut hit = span(rec.next_id());
        hit.worker = SUBMIT_WORKER;
        hit.outcome = SpanOutcome::Hit;
        rec.record_submit(&hit);

        assert_eq!(rec.recorded(), 7);
        let snap = rec.snapshot(4);
        let ids: Vec<u64> = snap.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![4, 5, 6, 7], "globally most recent, ascending");
        assert_eq!(snap.last().unwrap().outcome, SpanOutcome::Hit);
        assert_eq!(rec.ring_label(0), "0");
        assert_eq!(rec.ring_label(2), "submit");
    }

    #[test]
    fn snapshot_of_empty_recorder_is_empty() {
        let rec = FlightRecorder::new(1, 8);
        assert!(rec.snapshot(10).is_empty());
        assert_eq!(rec.recorded(), 0);
        assert_eq!(rec.dropped(), 0);
        // now_ns is monotone non-decreasing from the epoch.
        let a = rec.now_ns();
        let b = rec.now_ns();
        assert!(b >= a);
    }
}
