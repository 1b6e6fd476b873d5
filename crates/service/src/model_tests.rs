//! Schedule-exploring model checks over the crate's real concurrency
//! primitives: the bounded [`JobQueue`], the single-flight
//! [`InFlightTable`], and the router's [`CowMap`] snapshot.
//!
//! Compiled (and run) only under `--cfg laca_model_check`, where the
//! crate's `sync` facade resolves to the loom stand-in — the code under
//! test here is byte-for-byte the code production uses, not a model of
//! it. Each test wraps its body in `loom::model`, which executes the
//! closure under every thread interleaving within the preemption bound
//! and fails on any deadlock (= lost wakeup), panic, or violated
//! assertion on any schedule.

use crate::cache::{InFlightTable, Submission};
use crate::service::{JobQueue, TryPushError};
use crate::snapshot::CowMap;
use crate::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use crate::sync::{mpsc, Arc, Mutex};
use laca_telemetry::QuerySpan;
use loom::thread;

/// Two producers racing a consumer through a capacity-1 queue: every
/// push must eventually be popped on every schedule. A lost wakeup in
/// the push/pop condvar protocol (e.g. a `notify_one` consumed by the
/// wrong waiter class, or a check-then-wait window) surfaces as a model
/// deadlock here.
#[test]
fn job_queue_no_lost_wakeups_under_backpressure() {
    loom::model(|| {
        let queue = Arc::new(JobQueue::<u32>::new(1));
        let q2 = Arc::clone(&queue);
        let producer = thread::spawn(move || {
            for i in 0..3u32 {
                q2.push(i).expect("queue closed prematurely");
            }
        });
        let mut seen = Vec::new();
        for _ in 0..3 {
            seen.push(queue.pop().expect("queue closed prematurely"));
        }
        producer.join().unwrap();
        // Single producer, single consumer: strict FIFO even while the
        // bound forces the producer to block between pushes.
        assert_eq!(seen, vec![0, 1, 2]);
    });
}

/// `close` must wake both waiter classes: a consumer parked on
/// `not_empty` gets `None`, and a producer parked on `not_full` (queue
/// at capacity) gets `Err(Closed)` instead of sleeping forever.
#[test]
fn job_queue_close_unblocks_producers_and_consumers() {
    loom::model(|| {
        let queue = Arc::new(JobQueue::<u32>::new(1));
        queue.push(7).unwrap();
        let q2 = Arc::clone(&queue);
        // Blocks on the full queue until the consumer pops or close runs.
        let producer = thread::spawn(move || q2.push(8));
        let q3 = Arc::clone(&queue);
        let closer = thread::spawn(move || q3.close());
        closer.join().unwrap();
        let _ = producer.join().unwrap(); // Ok(()) or Err(Closed), never hangs
                                          // Whatever was enqueued before the close still drains...
        let mut drained = 0;
        while queue.pop().is_some() {
            drained += 1;
        }
        assert!((1..=2).contains(&drained));
        // ...and a drained+closed queue pops `None` forever.
        assert!(queue.pop().is_none());
    });
}

/// The shed-vs-enqueue race: a blocking `push` and a non-blocking
/// `try_push` racing a consumer through a capacity-1 queue. On every
/// schedule `try_push` returns immediately (admitted, or `Full` with
/// the job handed back — the shed path never parks a submitter), and
/// exactly the admitted jobs come out: nothing lost, nothing invented.
#[test]
fn job_queue_try_push_sheds_or_admits_never_blocks() {
    loom::model(|| {
        let queue = Arc::new(JobQueue::<u32>::new(1));
        let q2 = Arc::clone(&queue);
        let blocking = thread::spawn(move || q2.push(1).is_ok());
        let q3 = Arc::clone(&queue);
        let shedding = thread::spawn(move || match q3.try_push(2) {
            Ok(()) => true,
            Err(TryPushError::Full(job)) => {
                assert_eq!(job, 2, "a shed job is handed back intact");
                false
            }
            Err(TryPushError::Closed(_)) => panic!("nobody closes this queue"),
        });
        // One pop is always safe: the blocking push succeeds eventually
        // on every schedule. Then the shed thread's verdict tells us
        // exactly how many more to expect.
        let first = queue.pop().expect("open queue");
        let admitted = shedding.join().unwrap();
        let mut seen = vec![first];
        if admitted {
            seen.push(queue.pop().expect("open queue"));
        }
        assert!(blocking.join().unwrap(), "blocking push always lands");
        seen.sort_unstable();
        let expected: Vec<u32> = if admitted { vec![1, 2] } else { vec![1] };
        assert_eq!(seen, expected);
    });
}

/// The deadline-expiry/cancel-vs-dequeue race, modeled over the real
/// queue and reply protocol: a canceller flips the job's one-way latch
/// while the worker dequeues, checks it, and replies "computed" or
/// "expired". Exactly one reply reaches the waiter on every schedule —
/// a lost reply (the hang this protocol must exclude) would deadlock
/// the model's `recv`.
#[test]
fn job_queue_cancel_vs_dequeue_exactly_one_reply() {
    loom::model(|| {
        let queue = Arc::new(JobQueue::<(Arc<AtomicU32>, mpsc::Sender<bool>)>::new(1));
        let cancel = Arc::new(AtomicU32::new(0));
        let (tx, rx) = mpsc::channel();
        queue.push((Arc::clone(&cancel), tx)).expect("open queue");
        let c2 = Arc::clone(&cancel);
        let canceller = thread::spawn(move || c2.store(1, Ordering::Relaxed));
        let q2 = Arc::clone(&queue);
        let worker = thread::spawn(move || {
            let (latch, reply) = q2.pop().expect("job queued");
            // The worker-loop protocol: check the latch once at dequeue,
            // then send exactly one reply either way.
            let computed = latch.load(Ordering::Relaxed) == 0;
            reply.send(computed).expect("waiter alive");
        });
        // Either verdict is legal (the cancel raced the dequeue); the
        // invariant is one reply on every schedule, never zero.
        let _verdict = rx.recv().expect("exactly one reply");
        canceller.join().unwrap();
        worker.join().unwrap();
    });
}

/// The drain-vs-submit race: `close` racing a non-blocking submission.
/// On every schedule the submission either lands before the fence (and
/// is then handed out flagged as drained) or fails `Closed` with the
/// job handed back — accepted-implies-resolved, rejected-implies-
/// hands-back, no third outcome.
#[test]
fn job_queue_close_vs_try_push_no_job_stranded() {
    loom::model(|| {
        let queue = Arc::new(JobQueue::<u32>::new(2));
        let q2 = Arc::clone(&queue);
        let submitter = thread::spawn(move || match q2.try_push(5) {
            Ok(()) => true,
            Err(TryPushError::Closed(job)) => {
                assert_eq!(job, 5, "a rejected job is handed back intact");
                false
            }
            Err(TryPushError::Full(_)) => panic!("capacity-2 queue never fills here"),
        });
        let q3 = Arc::clone(&queue);
        let closer = thread::spawn(move || q3.close());
        closer.join().unwrap();
        let admitted = submitter.join().unwrap();
        let mut drained = 0;
        while let Some((job, closed)) = queue.pop_drained() {
            assert_eq!(job, 5);
            assert!(closed, "post-close pops are flagged as drain flushes");
            drained += 1;
        }
        assert_eq!(drained, usize::from(admitted), "admitted ⇔ flushed");
    });
}

/// Two concurrent misses on one key: exactly one submission leads (and
/// computes); the other joins the flight or observes the resolved
/// answer through the under-lock re-check. All waiters receive the
/// answer on every schedule.
#[test]
fn inflight_exactly_one_leader_per_flight() {
    loom::model(|| {
        let table: Arc<InFlightTable<u32, u64>> = Arc::new(InFlightTable::new());
        let cache: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
        let leads = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let table = Arc::clone(&table);
                let cache = Arc::clone(&cache);
                let leads = Arc::clone(&leads);
                thread::spawn(move || {
                    let (tx, rx) = mpsc::channel();
                    match table.join_or_lead(9, tx, QuerySpan::default(), || *cache.lock().unwrap())
                    {
                        Submission::Leading => {
                            leads.fetch_add(1, Ordering::Relaxed);
                            // Cache insert happens-before entry removal —
                            // the ordering `submit`'s re-check relies on.
                            *cache.lock().unwrap() = Some(42);
                            table.resolve(&9, 42, drop);
                            rx.recv().expect("leader is a registered waiter too")
                        }
                        Submission::Joined => rx.recv().expect("flight resolved"),
                        Submission::Resolved(v) => v,
                    }
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 42);
        }
        assert_eq!(leads.load(Ordering::Relaxed), 1, "two leaders for one key");
        assert!(table.is_empty(), "resolved flight left an entry behind");
    });
}

/// Evicting the cached answer while a flight is in progress must never
/// provoke a second *concurrent* compute: entry lifetime is independent
/// of the LRU, so the second submitter joins the live flight (or leads
/// a new one only after the first fully resolved).
#[test]
fn inflight_no_double_compute_on_evict_while_in_flight() {
    loom::model(|| {
        let table: Arc<InFlightTable<u32, u64>> = Arc::new(InFlightTable::new());
        let cache: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
        let computing = Arc::new(AtomicU64::new(0));
        let submit =
            |table: &InFlightTable<u32, u64>, cache: &Mutex<Option<u64>>, computing: &AtomicU64| {
                let (tx, rx) = mpsc::channel();
                match table.join_or_lead(3, tx, QuerySpan::default(), || *cache.lock().unwrap()) {
                    Submission::Leading => {
                        let concurrent = computing.fetch_add(1, Ordering::Relaxed);
                        assert_eq!(concurrent, 0, "two computes in flight for one key");
                        *cache.lock().unwrap() = Some(5);
                        computing.fetch_sub(1, Ordering::Relaxed);
                        table.resolve(&3, 5, drop);
                        rx.recv().unwrap()
                    }
                    Submission::Joined => rx.recv().unwrap(),
                    Submission::Resolved(v) => v,
                }
            };
        let t2 = Arc::clone(&table);
        let c2 = Arc::clone(&cache);
        let k2 = Arc::clone(&computing);
        let second = thread::spawn(move || submit(&t2, &c2, &k2));
        // The "evictor": clears the cached answer at an arbitrary point
        // relative to both submissions.
        let c3 = Arc::clone(&cache);
        let evictor = thread::spawn(move || {
            *c3.lock().unwrap() = None;
        });
        let first = submit(&table, &cache, &computing);
        assert_eq!(first, 5);
        assert_eq!(second.join().unwrap(), 5);
        evictor.join().unwrap();
    });
}

/// Register/retire-under-traffic on the copy-on-write snapshot: a
/// reader sees either the old or the new table (never a torn state),
/// and two concurrent registrations of one key admit exactly one.
#[test]
fn cow_map_register_retire_under_concurrent_reads() {
    loom::model(|| {
        let map: Arc<CowMap<u32, u64>> = Arc::new(CowMap::new());
        map.insert_if_absent(1, 10).unwrap();
        let m2 = Arc::clone(&map);
        let registrar = thread::spawn(move || m2.insert_if_absent(2, 20).is_ok());
        let m3 = Arc::clone(&map);
        let retirer = thread::spawn(move || m3.remove(&1).is_some());
        // Reader under churn: key 1 is live-or-retired, key 2 is
        // absent-or-registered, and each observed snapshot is internally
        // consistent (a clone of one published Arc).
        let snap = map.snapshot();
        assert!(matches!(snap.get(&1), None | Some(&10)));
        assert!(matches!(snap.get(&2), None | Some(&20)));
        assert!(registrar.join().unwrap(), "fresh key must register");
        assert!(retirer.join().unwrap(), "live key must retire");
        let end = map.snapshot();
        assert_eq!(end.get(&1), None);
        assert_eq!(end.get(&2), Some(&20));
    });
}

/// Two concurrent registrations of the *same* key: exactly one wins,
/// the loser gets its value handed back (the router drops the loser's
/// freshly started pool outside the lock).
#[test]
fn cow_map_duplicate_register_race_admits_one() {
    loom::model(|| {
        let map: Arc<CowMap<u32, u64>> = Arc::new(CowMap::new());
        let m2 = Arc::clone(&map);
        let other = thread::spawn(move || m2.insert_if_absent(7, 200).is_ok());
        let mine = map.insert_if_absent(7, 100).is_ok();
        let theirs = other.join().unwrap();
        assert!(
            mine ^ theirs,
            "exactly one of two racing registrations must win (mine={mine}, theirs={theirs})"
        );
        let winner = *map.snapshot().get(&7).expect("one registration committed");
        assert!(winner == 100 || winner == 200);
    });
}
