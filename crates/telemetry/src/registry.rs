//! Named metric registry vending lock-free counter, gauge and histogram
//! handles.
//!
//! Registration (rare: once per metric name + label set) takes a
//! poison-tolerant mutex; the handles it returns are `Arc`-backed atomics,
//! so the hot path — `counter.inc()`, `gauge.set(..)`,
//! `histogram.observe(..)` — never locks. Registering the same
//! `(name, labels)` twice returns a handle onto the *same* underlying
//! metric, which is what lets independently constructed components (the
//! cached-problem wrapper, the macro-cache client, the service worker)
//! share counters without threading handles through every constructor.

use crate::histogram::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotonically increasing counter. Clones share the same value.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a free-standing counter (not attached to any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic). Clones share
/// the same value.
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Creates a free-standing gauge (not attached to any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge. Non-finite values are stored as zero so exposition
    /// output stays NaN/inf-free.
    pub fn set(&self, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) with a CAS loop.
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = f64::from_bits(current) + delta;
            let next = if next.is_finite() { next } else { 0.0 };
            match self.bits.compare_exchange_weak(
                current,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
    }

    /// Adds one (e.g. a job entering a queue).
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Subtracts one (e.g. a job leaving a queue).
    pub fn dec(&self) {
        self.add(-1.0);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A label set: sorted `key=value` pairs identifying one time series.
pub type Labels = Vec<(String, String)>;

/// Normalises a label slice into the canonical sorted ordering used for
/// identity comparisons and exposition.
fn canonical_labels(labels: &[(&str, &str)]) -> Labels {
    let mut labels: Labels = labels
        .iter()
        .map(|(k, v)| (sanitise_name(k), (*v).to_string()))
        .collect();
    labels.sort();
    labels.dedup_by(|a, b| a.0 == b.0);
    labels
}

/// Restricts a metric or label name to the Prometheus charset
/// `[a-zA-Z_][a-zA-Z0-9_]*`, replacing anything else with `_`.
fn sanitise_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// One registered time series: identity plus its handle.
#[derive(Debug)]
struct Registered<H> {
    name: String,
    labels: Labels,
    help: String,
    handle: H,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Vec<Registered<Counter>>,
    gauges: Vec<Registered<Gauge>>,
    histograms: Vec<Registered<Histogram>>,
}

impl RegistryInner {
    fn find_or_insert<H: Clone>(
        series: &mut Vec<Registered<H>>,
        name: String,
        labels: Labels,
        help: &str,
        make: impl FnOnce() -> H,
    ) -> H {
        if let Some(existing) = series.iter().find(|r| r.name == name && r.labels == labels) {
            return existing.handle.clone();
        }
        let handle = make();
        series.push(Registered {
            name,
            labels,
            help: help.to_string(),
            handle: handle.clone(),
        });
        handle
    }
}

/// The metric registry. Cheap to clone; all clones share the same metrics.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        // Poison tolerance mirrors SharedCache: metric state is a bag of
        // atomics, valid regardless of where a panicking thread stopped.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or re-fetches) a counter under `name` + `labels`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let name = sanitise_name(name);
        let labels = canonical_labels(labels);
        RegistryInner::find_or_insert(&mut self.lock().counters, name, labels, help, Counter::new)
    }

    /// Registers (or re-fetches) a gauge under `name` + `labels`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let name = sanitise_name(name);
        let labels = canonical_labels(labels);
        RegistryInner::find_or_insert(&mut self.lock().gauges, name, labels, help, Gauge::new)
    }

    /// Registers (or re-fetches) a histogram with the default latency
    /// buckets under `name` + `labels`.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with_bounds(
            name,
            help,
            labels,
            &crate::histogram::default_latency_bounds(),
        )
    }

    /// Registers (or re-fetches) a histogram with explicit bucket bounds.
    /// Bounds only apply on first registration; later calls return the
    /// existing series unchanged.
    pub fn histogram_with_bounds(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        let name = sanitise_name(name);
        let labels = canonical_labels(labels);
        RegistryInner::find_or_insert(&mut self.lock().histograms, name, labels, help, || {
            Histogram::new(bounds)
        })
    }

    /// Copies every registered series into a plain-data snapshot, sorted
    /// by `(name, labels)` for stable exposition output.
    pub fn snapshot(&self) -> Vec<crate::snapshot::MetricSample> {
        use crate::snapshot::{MetricSample, MetricValue};
        let inner = self.lock();
        let mut samples: Vec<MetricSample> =
            Vec::with_capacity(inner.counters.len() + inner.gauges.len() + inner.histograms.len());
        for r in &inner.counters {
            samples.push(MetricSample {
                name: r.name.clone(),
                help: r.help.clone(),
                labels: r.labels.clone(),
                value: MetricValue::Counter(r.handle.get()),
            });
        }
        for r in &inner.gauges {
            samples.push(MetricSample {
                name: r.name.clone(),
                help: r.help.clone(),
                labels: r.labels.clone(),
                value: MetricValue::Gauge(r.handle.get()),
            });
        }
        for r in &inner.histograms {
            samples.push(MetricSample {
                name: r.name.clone(),
                help: r.help.clone(),
                labels: r.labels.clone(),
                value: MetricValue::Histogram(r.handle.snapshot()),
            });
        }
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(2.5);
        g.inc();
        g.dec();
        g.add(0.5);
        assert!((g.get() - 3.0).abs() < 1e-12);
        g.set(f64::NAN);
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn re_registration_returns_the_same_series() {
        let registry = Registry::new();
        let a = registry.counter("hits_total", "cache hits", &[("space", "m1")]);
        let b = registry.counter("hits_total", "cache hits", &[("space", "m1")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Different labels are a different series.
        let other = registry.counter("hits_total", "cache hits", &[("space", "m2")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let registry = Registry::new();
        let a = registry.gauge("g", "", &[("a", "1"), ("b", "2")]);
        let b = registry.gauge("g", "", &[("b", "2"), ("a", "1")]);
        a.set(7.0);
        assert_eq!(b.get(), 7.0);
    }

    #[test]
    fn names_are_sanitised_to_the_prometheus_charset() {
        assert_eq!(sanitise_name("macro/8x[4..16]"), "macro_8x_4__16_");
        assert_eq!(sanitise_name("1bad"), "_bad");
        assert_eq!(sanitise_name(""), "_");
        assert_eq!(sanitise_name("ok_name2"), "ok_name2");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let registry = Registry::new();
        registry.counter("z_total", "", &[]).add(1);
        registry.gauge("a_gauge", "", &[]).set(4.0);
        registry.histogram("m_seconds", "", &[]).observe(0.001);
        let samples = registry.snapshot();
        let names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a_gauge", "m_seconds", "z_total"]);
    }
}
