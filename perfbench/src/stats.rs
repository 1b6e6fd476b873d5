//! Seeded input streams and the summary statistics the report prints.

use laca_graph::NodeId;
use laca_telemetry::{bucket_upper_bound, HistogramSnapshot};
use std::time::Duration;

/// SplitMix64: a tiny seeded generator, so the inputs depend on `--seed`
/// alone and not on any library's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x005E_ED0F_1ACA)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2⁻⁴⁰ here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A uniformly random ordering of the nodes `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut SplitMix) -> Vec<NodeId> {
    let mut p: Vec<NodeId> = (0..n as NodeId).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// The first `k` distinct entries of `stream`, in order of appearance.
pub fn distinct_prefix(stream: &[NodeId], k: usize) -> Vec<NodeId> {
    let mut seen = std::collections::HashSet::new();
    stream.iter().copied().filter(|&s| seen.insert(s)).take(k).collect()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Quantile of unsorted samples, interpolated linearly between order
/// statistics; NaN when there are none (the report then refuses to print).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Quantile of a log-bucketed service histogram (nanoseconds): the rank is
/// located exactly, then interpolated linearly inside its power-of-two
/// bucket, so the value moves with the counts instead of snapping to a
/// bucket bound.
pub fn hist_quantile_ns(h: &HistogramSnapshot, q: f64) -> f64 {
    let total: u64 = h.buckets.iter().sum();
    let rank = (q * total as f64).max(1.0);
    let mut seen = 0u64;
    for (b, &count) in h.buckets.iter().enumerate() {
        if count > 0 && (seen + count) as f64 >= rank {
            let lo = if b == 0 { 0.0 } else { bucket_upper_bound(b - 1) as f64 + 1.0 };
            let hi = bucket_upper_bound(b) as f64;
            return lo + (hi - lo) * (rank - seen as f64) / count as f64;
        }
        seen += count;
    }
    f64::NAN
}

/// `numerator / denominator`, NaN on an empty denominator.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        f64::NAN
    } else {
        numerator / denominator
    }
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in the process status")?;
    Ok(kib / 1024.0)
}
