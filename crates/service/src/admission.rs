//! Overload-admission policy and retry/backoff knobs for the serving
//! layer: what [`crate::QueryService::submit`] does when the bounded
//! submission queue is at capacity, per-submission deadline options, and
//! how [`crate::ServiceRouter::submit_with_retry`] paces bounded retries
//! of shed submissions.

use std::time::Duration;

/// How a [`crate::QueryService`] admits work when the bounded submission
/// queue is full.
///
/// | Policy | Full queue means… | Latency profile |
/// |--------|-------------------|-----------------|
/// | `Block` | the submitter parks until a slot frees (backpressure) | unbounded submit latency, zero rejections |
/// | `Shed` | work that would *enqueue a compute* is rejected with [`crate::ServiceError::Overloaded`]; cache hits and joins onto a live flight are admitted | submit never blocks; queueing delay bounded by queue depth |
///
/// `Block` (the default, and the crate's historical behavior) is right
/// for embedded batch use where the submitter *is* the workload and
/// backpressure is the contract. `Shed` is for serving: under a traffic
/// spike it bounds every admitted query's queueing delay by the queue
/// depth and converts the excess into fast, explicit
/// [`crate::ServiceError::Overloaded`] rejections the caller can retry
/// against another replica (or via
/// [`crate::ServiceRouter::submit_with_retry`]).
///
/// Cache hits and coalesced joins are admitted under both policies: they
/// take no queue slot and no compute, so shedding them would waste a
/// nearly-free answer. A shed flight leader fails the waiters that joined
/// it too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Park the submitter until a queue slot frees (backpressure).
    #[default]
    Block,
    /// Reject work that would enqueue a new compute with
    /// [`crate::ServiceError::Overloaded`] while the queue is full; cache
    /// hits and joins onto a live flight are always admitted.
    Shed,
}

/// Per-submission options for [`crate::QueryService::submit_with`] /
/// [`crate::ServiceRouter::submit_with`].
///
/// The default carries no deadline and is exactly
/// [`crate::QueryService::submit`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryOptions {
    /// Relative deadline for the query, measured from submission. A job
    /// still queued when its deadline passes is dropped at dequeue —
    /// never computed — and resolves with
    /// [`crate::ServiceError::Expired`]. A job already computing when
    /// the deadline passes completes normally (compute is never
    /// interrupted mid-query; answers stay bit-identical).
    pub deadline: Option<Duration>,
}

impl QueryOptions {
    /// Options with no deadline (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a relative deadline for the query.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Bounded retry-with-jittered-backoff for submissions rejected with
/// [`crate::ServiceError::Overloaded`]
/// ([`crate::ServiceRouter::submit_with_retry`]).
///
/// Backoff for retry `n` (0-based) is `base_backoff · 2ⁿ`, capped at
/// `max_backoff`, then scaled by a deterministic jitter factor in
/// `[0.5, 1.0)` derived from `jitter_seed` — jitter decorrelates retry
/// herds without making test runs irreproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (`0` = try once, never retry).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling on the exponential backoff.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter sequence.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(20),
            jitter_seed: 0x5ca1_ab1e,
        }
    }
}

impl RetryPolicy {
    /// Sets the retry budget.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the first-retry backoff.
    pub fn with_base_backoff(mut self, base: Duration) -> Self {
        self.base_backoff = base;
        self
    }

    /// Sets the backoff ceiling.
    pub fn with_max_backoff(mut self, max: Duration) -> Self {
        self.max_backoff = max;
        self
    }

    /// Sets the jitter seed.
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The pause before retry number `attempt` (0-based): capped
    /// exponential backoff with deterministic jitter in `[0.5, 1.0)` of
    /// the capped value.
    pub fn backoff(&self, attempt: u32) -> Duration {
        // Saturate the shift well before `Duration` arithmetic can
        // overflow; the cap below bounds the result anyway.
        let factor = 1u32 << attempt.min(20);
        let capped = self.base_backoff.saturating_mul(factor).min(self.max_backoff);
        let bits =
            splitmix64(self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Top 53 bits → uniform fraction in [0, 1), mapped to [0.5, 1.0)
        // so jitter never collapses a pause to zero.
        let fraction = 0.5 + (bits >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        capped.mul_f64(fraction)
    }
}

/// SplitMix64: a tiny seedable mixer, plenty for backoff jitter and the
/// fault plan's firing phases — keeps this crate free of a `rand`
/// dependency.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_nonzero() {
        let policy = RetryPolicy::default();
        for attempt in 0..40 {
            let a = policy.backoff(attempt);
            let b = policy.backoff(attempt);
            assert_eq!(a, b, "same (seed, attempt) must give the same pause");
            assert!(a <= policy.max_backoff, "backoff must respect the cap");
            assert!(a >= policy.base_backoff / 2, "jitter floor is half the base");
        }
    }

    #[test]
    fn backoff_grows_before_the_cap() {
        let policy = RetryPolicy::default().with_max_backoff(Duration::from_secs(10));
        // With jitter in [0.5, 1.0), one doubling step may not be
        // monotone, but two always are: 2²·0.5 > 1·1.0.
        for attempt in 0..8 {
            assert!(
                policy.backoff(attempt + 2) > policy.backoff(attempt),
                "exponential growth must dominate jitter two steps apart"
            );
        }
    }

    #[test]
    fn jitter_seed_changes_the_sequence() {
        let a = RetryPolicy::default().with_jitter_seed(1);
        let b = RetryPolicy::default().with_jitter_seed(2);
        assert!(
            (0..8).any(|n| a.backoff(n) != b.backoff(n)),
            "distinct seeds should decorrelate at least one pause"
        );
    }

    #[test]
    fn default_policy_is_block() {
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::Block);
        assert_eq!(QueryOptions::default().deadline, None);
    }
}
