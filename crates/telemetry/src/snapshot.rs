//! Point-in-time telemetry snapshots.
//!
//! A [`TelemetrySnapshot`] is plain data: every registered metric series
//! (copied out of the registry) plus the recorded span ring. Snapshots
//! are what cross API boundaries — `ExplorationService::telemetry()`
//! returns one — and what the encoders in [`crate::expose`] render.

use crate::histogram::HistogramSnapshot;
use crate::registry::Labels;
use crate::span::SpanRecord;

/// The value of one metric series at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone counter value.
    Counter(u64),
    /// Instantaneous gauge value (always finite).
    Gauge(f64),
    /// Full bucket state of a histogram.
    Histogram(HistogramSnapshot),
}

/// One metric series: name, help text, sorted labels, and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Prometheus-charset metric name.
    pub name: String,
    /// Help text emitted as `# HELP`.
    pub help: String,
    /// Sorted `key=value` label pairs.
    pub labels: Labels,
    /// The sampled value.
    pub value: MetricValue,
}

/// A point-in-time copy of a [`crate::Telemetry`] bundle: all metric
/// series plus the span ring. Plain data — safe to hold and encode
/// long after the source has moved on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// All metric series, sorted by `(name, labels)`.
    pub samples: Vec<MetricSample>,
    /// Recorded spans, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Spans evicted from the ring before this snapshot was taken.
    pub spans_dropped: u64,
}

impl TelemetrySnapshot {
    /// `true` when the snapshot carries no metrics and no spans (the
    /// shape returned for disabled telemetry).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty() && self.spans.is_empty()
    }

    /// Finds a series by name and labels (labels in any order).
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSample> {
        let mut wanted: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        wanted.sort();
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == wanted)
    }

    /// Convenience: the value of a counter series, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: the value of a gauge series, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.find(name, labels)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: the bucket state of a histogram series, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match &self.find(name, labels)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::span::SpanRecorder;

    fn sample_snapshot() -> (Registry, SpanRecorder) {
        let registry = Registry::new();
        registry.counter("req_total", "requests", &[("kind", "macro")]);
        registry.gauge("active", "active jobs", &[]);
        registry.histogram_with_bounds("lat_seconds", "latency", &[], &[1.0, 2.0]);
        (registry, SpanRecorder::new(8))
    }

    fn snap(registry: &Registry, spans: &SpanRecorder) -> TelemetrySnapshot {
        TelemetrySnapshot {
            samples: registry.snapshot(),
            spans: spans.snapshot(),
            spans_dropped: spans.dropped(),
        }
    }

    #[test]
    fn find_and_typed_accessors_work() {
        let (registry, spans) = sample_snapshot();
        registry
            .counter("req_total", "requests", &[("kind", "macro")])
            .add(3);
        registry.gauge("active", "", &[]).set(2.0);
        registry
            .histogram_with_bounds("lat_seconds", "", &[], &[1.0, 2.0])
            .observe(0.5);
        let snapshot = snap(&registry, &spans);
        assert_eq!(snapshot.counter("req_total", &[("kind", "macro")]), Some(3));
        assert_eq!(snapshot.gauge("active", &[]), Some(2.0));
        assert_eq!(snapshot.histogram("lat_seconds", &[]).unwrap().count, 1);
        assert_eq!(snapshot.counter("missing", &[]), None);
        assert_eq!(snapshot.counter("active", &[]), None); // wrong type
    }
}
