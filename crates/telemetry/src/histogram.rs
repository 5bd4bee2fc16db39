//! Fixed-bucket latency histograms with an atomic fast path.
//!
//! A [`Histogram`] owns a fixed, immutable set of log-spaced upper bounds
//! plus one overflow bucket; [`Histogram::observe`] is three atomic
//! operations (bucket increment, sum accumulate, count increment) and
//! never takes a lock, so it is cheap enough for the per-genome hot path.
//! Reading happens through [`HistogramSnapshot`], a plain-old-data copy
//! that estimates quantiles by linear interpolation inside the bucket
//! that crosses the target rank — the same estimation Prometheus's
//! `histogram_quantile` performs server-side, done here so reports can
//! print p50/p90/p99 without a scrape pipeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log-spaced finite buckets in [`default_latency_bounds`]:
/// powers of two from 1 µs up to ~8.4 s, plus the implicit overflow bucket.
pub const DEFAULT_LATENCY_BUCKETS: usize = 24;

/// The default latency bounds, in seconds: `1e-6 * 2^i` for
/// `i in 0..DEFAULT_LATENCY_BUCKETS` (1 µs, 2 µs, 4 µs, … ~8.4 s).
///
/// Log spacing keeps relative quantile error bounded (each bucket spans a
/// factor of two) across the six decades the workspace cares about, from
/// single cached-genome lookups to full `--quick` chip explorations.
pub fn default_latency_bounds() -> Vec<f64> {
    (0..DEFAULT_LATENCY_BUCKETS as i32)
        .map(|i| 1e-6 * f64::powi(2.0, i))
        .collect()
}

/// Interior of a histogram, shared by all clones of its handle.
#[derive(Debug)]
struct HistogramInner {
    /// Finite upper bounds, strictly increasing. `buckets[i]` counts
    /// observations `<= bounds[i]`; `buckets[bounds.len()]` is overflow.
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    /// Sum of all observed values, stored as `f64` bits and accumulated
    /// with a CAS loop (observations are far rarer than counter bumps, so
    /// the loop retry rate is negligible).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A cheaply cloneable handle onto a fixed-bucket histogram.
///
/// All clones share the same buckets; recording is lock-free.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Creates a histogram with the given finite upper bounds (an overflow
    /// bucket is added implicitly). Non-finite bounds are dropped and the
    /// rest sorted, so a malformed caller degrades instead of panicking.
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds compare"));
        bounds.dedup();
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramInner {
                bounds,
                buckets,
                sum_bits: AtomicU64::new(0f64.to_bits()),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Creates a histogram with the [`default_latency_bounds`].
    pub fn latency() -> Self {
        Self::new(&default_latency_bounds())
    }

    /// Records one observation. Negative or non-finite values are clamped
    /// to zero so the histogram can never poison downstream quantile math.
    pub fn observe(&self, value: f64) {
        let value = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        let idx = self
            .inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.inner.bounds.len());
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let mut current = self.inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.inner.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in seconds.
    pub fn observe_duration(&self, duration: std::time::Duration) {
        self.observe(duration.as_secs_f64());
    }

    /// Total observations recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Copies the current bucket state out as plain data.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            counts: self
                .inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed)),
            count: self.inner.count.load(Ordering::Relaxed),
        }
    }
}

/// Plain-old-data copy of a histogram: finite bounds, per-bucket counts
/// (one longer than `bounds`, the extra slot being overflow), total sum
/// and total count. Every accessor is NaN/inf-free by construction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Finite upper bounds, strictly increasing.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (overflow last).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) by linear
    /// interpolation within the bucket containing the target rank.
    ///
    /// Returns `0.0` for an empty histogram; observations in the overflow
    /// bucket report the largest finite bound. Never NaN or infinite.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cumulative + c;
            if next >= target && c > 0 {
                let Some(&upper) = self.bounds.get(i) else {
                    // Overflow bucket: the best finite answer is the top bound.
                    return self.bounds.last().copied().unwrap_or(0.0);
                };
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let into = (target - cumulative) as f64 / c as f64;
                return lower + (upper - lower) * into;
            }
            cumulative = next;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }

    /// Mean observed value, `0.0` when empty. Never NaN or infinite.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.sum / self.count as f64;
        if mean.is_finite() {
            mean.max(0.0)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bounds_are_log_spaced_and_sorted() {
        let bounds = default_latency_bounds();
        assert_eq!(bounds.len(), DEFAULT_LATENCY_BUCKETS);
        assert!((bounds[0] - 1e-6).abs() < 1e-12);
        for pair in bounds.windows(2) {
            assert!((pair[1] / pair[0] - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn observe_routes_to_the_right_bucket() {
        let hist = Histogram::new(&[1.0, 2.0, 4.0]);
        hist.observe(0.5);
        hist.observe(1.5);
        hist.observe(3.0);
        hist.observe(100.0); // overflow
        let snap = hist.snapshot();
        assert_eq!(snap.counts, vec![1, 1, 1, 1]);
        assert_eq!(snap.count, 4);
        assert!((snap.sum - 105.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_and_never_produce_nan() {
        let hist = Histogram::new(&[1.0, 2.0, 4.0]);
        for _ in 0..50 {
            hist.observe(0.5);
        }
        for _ in 0..50 {
            hist.observe(3.0);
        }
        let snap = hist.snapshot();
        let p50 = snap.quantile(0.5);
        assert!(p50 > 0.0 && p50 <= 1.0, "p50 = {p50}");
        let p99 = snap.quantile(0.99);
        assert!(p99 > 2.0 && p99 <= 4.0, "p99 = {p99}");
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0, -1.0, 2.0] {
            assert!(snap.quantile(q).is_finite());
        }
        assert!(snap.mean().is_finite());
    }

    #[test]
    fn empty_and_overflow_quantiles_are_finite() {
        let empty = Histogram::new(&[1.0]).snapshot();
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(empty.mean(), 0.0);

        let hist = Histogram::new(&[1.0, 8.0]);
        hist.observe(1e9); // everything overflows
        let snap = hist.snapshot();
        assert_eq!(snap.quantile(0.99), 8.0);
    }

    #[test]
    fn hostile_observations_are_clamped() {
        let hist = Histogram::new(&[1.0]);
        hist.observe(f64::NAN);
        hist.observe(f64::INFINITY);
        hist.observe(-5.0);
        let snap = hist.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.counts[0], 3);
        assert_eq!(snap.sum, 0.0);
    }
}
