//! Log-bucketed latency histograms: power-of-2 buckets, saturating
//! atomic counts, and exact nearest-rank percentile *bucket*
//! reconstruction.
//!
//! A [`LogHistogram`] is a fixed array of 65 [`AtomicU64`] counters —
//! bucket `b ≥ 1` counts every sample whose bit length is `b` (i.e.
//! values in `[2^(b-1), 2^b − 1]`), bucket `0` counts exact zeros — plus
//! a running `(sum, count)` pair. Recording is three relaxed RMWs with
//! no allocation and no locks, cheap enough to sit on the serving hot
//! path unconditionally. Reads go through [`LogHistogram::snapshot`],
//! which yields a plain-value [`HistogramSnapshot`] supporting merge
//! (route aggregation, drain) and nearest-rank quantile reconstruction:
//! the reconstructed quantile is the upper bound of the bucket holding
//! the exact nearest-rank sample, so it is always within one power-of-2
//! bucket of the true value (property-tested against the sorted-slice
//! nearest rank used by the bench harness).
//!
//! [`AtomicU64`]: crate::sync::atomic::AtomicU64

use crate::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per possible bit length of a `u64` sample
/// (1..=64), plus bucket `0` for exact zeros.
pub const BUCKETS: usize = 65;

/// The bucket a sample lands in: `0` for `0`, otherwise the sample's bit
/// length (`64 − leading_zeros`), so bucket `b ≥ 1` spans
/// `[2^(b-1), 2^b − 1]`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of `bucket` (the value quantile reconstruction
/// reports): `0` for bucket `0`, `u64::MAX` for bucket `64`, otherwise
/// `2^b − 1`.
#[inline]
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b if b >= 64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// Bumps `counter` by `delta`, pinning at `u64::MAX` instead of
/// wrapping. The pin is best-effort under concurrency (a racing bump
/// between the wrap and the corrective store can be absorbed), which is
/// fine for telemetry: once a counter saturates, every later read is
/// `u64::MAX` or within one racing delta of it.
#[inline]
fn saturating_bump(counter: &AtomicU64, delta: u64) {
    let prev = counter.fetch_add(delta, Ordering::Relaxed);
    if prev.checked_add(delta).is_none() {
        // ordering: corrective store on a monotone telemetry counter;
        // readers tolerate any interleaving.
        counter.store(u64::MAX, Ordering::Relaxed);
    }
}

/// A lock-free log-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, by convention).
///
/// Writers call [`record`](Self::record) concurrently from any thread;
/// readers take a [`snapshot`](Self::snapshot) and reconstruct
/// percentiles from it. All counters saturate at `u64::MAX` rather than
/// wrapping.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample: three relaxed RMWs, no allocation, no locks.
    // lint: hot-path
    #[inline]
    pub fn record(&self, value: u64) {
        saturating_bump(&self.buckets[bucket_index(value)], 1);
        saturating_bump(&self.count, 1);
        saturating_bump(&self.sum, value);
    }

    /// Total samples recorded (saturating).
    pub fn count(&self) -> u64 {
        // ordering: monotone counter read; staleness is acceptable.
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the counters into a plain-value snapshot.
    ///
    /// The copy is not atomic across buckets: a snapshot taken while
    /// writers are active may be mid-sample (e.g. a bucket bumped but
    /// `count` not yet), which percentile reconstruction tolerates by
    /// clamping ranks to the observed totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ordering: bulk read of monotone counters; cross-counter skew
        // of at most the in-flight samples is acceptable for telemetry.
        HistogramSnapshot {
            buckets: std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value copy of a [`LogHistogram`]: mergeable, comparable, and
/// the input to percentile reconstruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
    /// Total samples (saturating).
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], count: 0, sum: 0 }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (identity element of [`merge`](Self::merge)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `other` into `self` bucket-by-bucket with saturating adds.
    ///
    /// Merge is commutative and associative (each counter is an
    /// independent saturating sum), so per-route snapshots can be folded
    /// in any order — route aggregation and [`drain`] totals rely on
    /// this.
    ///
    /// [`drain`]: https://docs.rs/laca-service
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The per-bucket deltas accrued since `earlier` (an older snapshot
    /// of the *same* histogram): every counter subtracts, saturating at
    /// zero. This is how benches carve a warm measurement window out of
    /// lifetime-aggregate histograms — snapshot, run the window,
    /// snapshot again, diff. Exact while no counter has saturated
    /// (saturated counters stop carrying window information, like any
    /// pinned telemetry counter).
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::new();
        for (o, (s, e)) in
            out.buckets.iter_mut().zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *o = s.saturating_sub(*e);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// Mean sample value, or 0 with no samples. Exact up to saturation
    /// (the `(sum, count)` pair is carried explicitly, never derived
    /// from bucket midpoints).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank quantile reconstruction: the upper bound of the
    /// bucket containing the sample of rank `⌈q·count⌉` (1-based,
    /// clamped to `[1, count]`). Returns `None` with no samples.
    ///
    /// Because bucket membership is exact, the reconstructed value is in
    /// the same power-of-2 bucket as the true nearest-rank sample —
    /// "within one bucket" is the precision contract the proptests pin.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return Some(bucket_upper_bound(b));
            }
        }
        // A torn snapshot can leave `count` ahead of the bucket total;
        // fall back to the highest occupied bucket.
        let top = self.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
        Some(bucket_upper_bound(top))
    }

    /// Reconstructed median (`quantile(0.50)`, 0 if empty).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50).unwrap_or(0)
    }

    /// Reconstructed 99th percentile (0 if empty).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99).unwrap_or(0)
    }

    /// Reconstructed 99.9th percentile (0 if empty).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for b in 1..64 {
            let lo = 1u64 << (b - 1);
            let hi = (1u64 << b) - 1;
            assert_eq!(bucket_index(lo), b, "lower edge of bucket {b}");
            assert_eq!(bucket_index(hi), b, "upper edge of bucket {b}");
            assert_eq!(bucket_upper_bound(b), hi);
        }
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn zero_samples_yields_no_quantiles() {
        let h = LogHistogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn single_bucket_reports_that_bucket_at_every_quantile() {
        let h = LogHistogram::new();
        for _ in 0..1000 {
            h.record(700); // bucket 10: [512, 1023]
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 700_000);
        assert_eq!(s.mean(), 700);
        for q in [0.0, 0.001, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(s.quantile(q), Some(1023), "q={q}");
        }
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        let h = LogHistogram::new();
        h.record(u64::MAX - 3);
        h.record(7);
        let s = h.snapshot();
        assert_eq!(s.sum, u64::MAX, "sum pins at MAX");
        assert_eq!(s.count, 2);

        let mut a = HistogramSnapshot::new();
        a.count = u64::MAX - 1;
        a.sum = u64::MAX;
        a.buckets[3] = u64::MAX;
        let mut b = HistogramSnapshot::new();
        b.count = 10;
        b.sum = 10;
        b.buckets[3] = 10;
        a.merge(&b);
        assert_eq!(a.count, u64::MAX);
        assert_eq!(a.sum, u64::MAX);
        assert_eq!(a.buckets[3], u64::MAX);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let (a, b, c) = (mk(&[1, 5, 900]), mk(&[0, 0, 1 << 40]), mk(&[u64::MAX, 17]));

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut a_bc = b.clone();
        a_bc.merge(&c);
        let mut left = a.clone();
        left.merge(&a_bc);
        assert_eq!(ab_c, left, "associativity");

        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "commutativity");
    }

    #[test]
    fn delta_since_inverts_merge() {
        let h = LogHistogram::new();
        for v in [3, 900, 0, 1 << 33] {
            h.record(v);
        }
        let earlier = h.snapshot();
        for v in [17, 17, 1 << 50] {
            h.record(v);
        }
        let later = h.snapshot();
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.count, 3);
        assert_eq!(delta.sum, 34 + (1 << 50));
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, later, "earlier + delta must reproduce later");
        // Subtracting a snapshot from itself is the empty histogram.
        assert_eq!(later.delta_since(&later), HistogramSnapshot::new());
    }

    #[test]
    fn quantiles_track_nearest_rank_within_one_bucket() {
        let h = LogHistogram::new();
        let mut vals: Vec<u64> = (0..500).map(|i| (i * i * 37 + 11) % 100_000).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        let s = h.snapshot();
        for q in [0.5, 0.99, 0.999] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1];
            let got = s.quantile(q).unwrap();
            assert_eq!(
                bucket_index(got),
                bucket_index(exact),
                "q={q}: reconstructed {got} must share the exact sample {exact}'s bucket"
            );
        }
    }
}
