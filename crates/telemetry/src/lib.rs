//! Dependency-free telemetry substrate for the EasyACIM reproduction.
//!
//! Three pillars, mirroring what the DAC'24 flow needs to *observe* its
//! own agility claims:
//!
//! 1. **Metrics registry** ([`Registry`]): named counters, gauges and
//!    fixed-bucket histograms (log-spaced latency buckets with
//!    p50/p90/p99 estimation). Increments are single atomic operations —
//!    cheap enough for the per-genome hot path — and the registry mutex
//!    is poison-tolerant like the workspace's `ClockMap`.
//! 2. **Tracing spans** ([`Span`], [`SpanRecorder`]): guard-based spans
//!    with start/stop timestamps, parent links and `key=value`
//!    attributes, recorded into a bounded ring buffer so memory stays
//!    flat under sustained service load.
//! 3. **Exposition** ([`expose::prometheus_text`], [`expose::json_text`]):
//!    point-in-time [`TelemetrySnapshot`]s rendered as Prometheus text or
//!    JSON.
//!
//! The [`Telemetry`] bundle ties the pillars together and carries an
//! enabled flag: a disabled bundle vends inert spans and empty snapshots,
//! and the workspace's tests prove instrumented runs produce bit-identical
//! Pareto frontiers either way.
//!
//! This crate is std-only, `forbid(unsafe)`, and intentionally small —
//! it is a measurement substrate, not a framework.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(missing_docs)]

pub mod expose;
pub mod histogram;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use expose::{json_text, prometheus_text};
pub use histogram::{default_latency_bounds, Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Labels, Registry};
pub use snapshot::{MetricSample, MetricValue, TelemetrySnapshot};
pub use span::{Span, SpanId, SpanRecord, SpanRecorder, SpanText};

/// The telemetry bundle: one registry, one span recorder, one enabled
/// flag. Cheap to clone (all clones share state); pass it by value across
/// thread and stage boundaries.
#[derive(Debug, Clone)]
pub struct Telemetry {
    registry: Registry,
    spans: SpanRecorder,
    enabled: bool,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An enabled bundle with the default span-ring capacity.
    pub fn new() -> Self {
        Self::with_span_capacity(SpanRecorder::DEFAULT_CAPACITY)
    }

    /// An enabled bundle retaining at most `capacity` completed spans.
    pub fn with_span_capacity(capacity: usize) -> Self {
        Self {
            registry: Registry::new(),
            spans: SpanRecorder::new(capacity),
            enabled: true,
        }
    }

    /// A disabled bundle: spans are inert, snapshots empty. Instrumented
    /// code paths stay observably passive.
    pub fn disabled() -> Self {
        Self {
            registry: Registry::new(),
            spans: SpanRecorder::new(1),
            enabled: false,
        }
    }

    /// Whether this bundle records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The metric registry. Metrics registered on a disabled bundle still
    /// work (atomics are cheaper than a branch on every increment); they
    /// are simply never exposed because [`Telemetry::snapshot`] returns
    /// an empty snapshot.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span recorder.
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// Opens a root span, inert when disabled.
    pub fn span(&self, name: impl Into<SpanText>) -> Span {
        if self.enabled {
            self.spans.span(name)
        } else {
            Span::inert()
        }
    }

    /// Opens a span under an explicit parent id, inert when disabled.
    pub fn span_with_parent(&self, name: impl Into<SpanText>, parent: Option<SpanId>) -> Span {
        if self.enabled {
            self.spans.span_with_parent(name, parent)
        } else {
            Span::inert()
        }
    }

    /// A point-in-time snapshot of every metric and recorded span; empty
    /// when disabled.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        if !self.enabled {
            return TelemetrySnapshot::default();
        }
        TelemetrySnapshot {
            samples: self.registry.snapshot(),
            spans: self.spans.snapshot(),
            spans_dropped: self.spans.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_bundle_records_and_snapshots() {
        let telemetry = Telemetry::with_span_capacity(8);
        assert!(telemetry.is_enabled());
        telemetry.registry().counter("c_total", "", &[]).add(2);
        {
            let mut span = telemetry.span("request");
            span.attr("kind", "macro");
            drop(span.child("explore"));
        }
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("c_total", &[]), Some(2));
        assert_eq!(snapshot.spans.len(), 2);
        assert!(!snapshot.is_empty());
    }

    #[test]
    fn disabled_bundle_is_inert() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        telemetry.registry().counter("c_total", "", &[]).add(2);
        let span = telemetry.span("request");
        assert!(!span.is_recording());
        assert_eq!(span.as_parent(), None);
        drop(span);
        let snapshot = telemetry.snapshot();
        assert!(snapshot.is_empty());
        assert_eq!(expose::prometheus_text(&snapshot), "");
    }

    #[test]
    fn clones_share_state() {
        let telemetry = Telemetry::new();
        let clone = telemetry.clone();
        clone.registry().counter("shared_total", "", &[]).inc();
        drop(clone.span("from-clone"));
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("shared_total", &[]), Some(1));
        assert_eq!(snapshot.spans.len(), 1);
    }
}
