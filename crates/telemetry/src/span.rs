//! Structured tracing spans with a bounded ring-buffer recorder.
//!
//! A [`Span`] is a guard: it captures a start timestamp when created and
//! records itself — name, parent link, duration, `key=value` attributes —
//! into its [`SpanRecorder`] when dropped. Parent links (span ids) tie
//! the records into per-request trees: a `request` root whose children
//! are its steps (`explore`, `distill`, `netlist`, `layout`, `chip`) and
//! one `generation` span per NSGA-II generation.
//!
//! The recorder is a fixed-capacity ring (`VecDeque`): once full, the
//! oldest record is evicted and a `dropped` counter bumped, so memory
//! stays flat no matter how long the service runs. Recording takes the
//! ring mutex once per span *completion* (not per hot-path event), which
//! keeps the cost well away from the per-genome path.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Identifier of a recorded span, unique within one recorder (ids start
/// at 1 and increase monotonically; 0 is never issued).
pub type SpanId = u64;

/// Span name / attribute text.  `Cow` so the common case — `'static`
/// literals like `"request"` or `"stage"` — records without allocating;
/// only genuinely dynamic text (job ids, space signatures) pays for an
/// owned `String`.
pub type SpanText = Cow<'static, str>;

/// One completed span as stored in the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Recorder-unique id (monotonic, so later spans have larger ids).
    pub id: SpanId,
    /// Id of the enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Span name, e.g. `"request"`, `"explore"`, `"generation"`.
    pub name: SpanText,
    /// Start time in microseconds since the recorder was created.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Free-form `key=value` attributes, in insertion order.
    pub attributes: Vec<(SpanText, SpanText)>,
}

#[derive(Debug)]
struct Ring {
    records: std::collections::VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

#[derive(Debug)]
struct RecorderInner {
    epoch: Instant,
    next_id: AtomicU64,
    ring: Mutex<Ring>,
}

/// A bounded, cheaply cloneable recorder of completed spans.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    inner: Arc<RecorderInner>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl SpanRecorder {
    /// Default ring capacity: enough for several `--quick` requests' worth
    /// of stage + generation spans without growing past ~1 MB.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a recorder keeping at most `capacity` completed spans
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(RecorderInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                ring: Mutex::new(Ring {
                    records: std::collections::VecDeque::new(),
                    capacity: capacity.max(1),
                    dropped: 0,
                }),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        // Poison-tolerant like the registry: a ring of plain records is
        // valid no matter where a panicking thread stopped.
        self.inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn allocate_id(&self) -> SpanId {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, record: SpanRecord) {
        let mut ring = self.lock();
        if ring.records.len() == ring.capacity {
            ring.records.pop_front();
            ring.dropped += 1;
        }
        ring.records.push_back(record);
    }

    /// Opens a root span. The span records itself when dropped.
    pub fn span(&self, name: impl Into<SpanText>) -> Span {
        self.span_with_parent(name, None)
    }

    /// Opens a span under an explicit parent id.
    pub fn span_with_parent(&self, name: impl Into<SpanText>, parent: Option<SpanId>) -> Span {
        Span {
            recorder: Some(self.clone()),
            id: self.allocate_id(),
            parent,
            name: name.into(),
            started: Instant::now(),
            attributes: Vec::new(),
        }
    }

    /// Records an already-measured interval as a completed span — the
    /// escape hatch for call sites (e.g. progress-observer callbacks) that
    /// know a phase's start and end but cannot hold a guard across it.
    /// Returns the id so callers can parent further spans under it.
    pub fn record_complete(
        &self,
        name: impl Into<SpanText>,
        parent: Option<SpanId>,
        started: Instant,
        duration: Duration,
        attributes: Vec<(SpanText, SpanText)>,
    ) -> SpanId {
        let id = self.allocate_id();
        self.push(SpanRecord {
            id,
            parent,
            name: name.into(),
            start_us: started
                .saturating_duration_since(self.inner.epoch)
                .as_micros() as u64,
            duration_us: duration.as_micros() as u64,
            attributes,
        });
        id
    }

    /// Copies out the recorded spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.lock().records.iter().cloned().collect()
    }

    /// Number of spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// `true` when no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }
}

/// A live span guard. Records itself into its recorder on drop; inert
/// spans (from [`Span::inert`]) record nothing, so disabled-telemetry
/// call sites pay only an `Option` check.
#[derive(Debug)]
pub struct Span {
    recorder: Option<SpanRecorder>,
    id: SpanId,
    parent: Option<SpanId>,
    name: SpanText,
    started: Instant,
    attributes: Vec<(SpanText, SpanText)>,
}

impl Span {
    /// A no-op span: records nothing, children are also inert.
    pub fn inert() -> Self {
        Self {
            recorder: None,
            id: 0,
            parent: None,
            name: SpanText::Borrowed(""),
            started: Instant::now(),
            attributes: Vec::new(),
        }
    }

    /// `true` when this span will record on drop.
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// This span's id (0 for inert spans).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// This span's id as a parent link: `None` for inert spans, so child
    /// records never point at the unissued id 0.
    pub fn as_parent(&self) -> Option<SpanId> {
        if self.recorder.is_some() {
            Some(self.id)
        } else {
            None
        }
    }

    /// Attaches a `key=value` attribute.
    pub fn attr(&mut self, key: impl Into<SpanText>, value: impl Into<SpanText>) {
        if self.recorder.is_some() {
            self.attributes.push((key.into(), value.into()));
        }
    }

    /// Opens a child span.
    pub fn child(&self, name: impl Into<SpanText>) -> Span {
        match &self.recorder {
            Some(recorder) => recorder.span_with_parent(name, Some(self.id)),
            None => Span::inert(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(recorder) = self.recorder.take() {
            let record = SpanRecord {
                id: self.id,
                parent: self.parent,
                name: std::mem::replace(&mut self.name, SpanText::Borrowed("")),
                start_us: self
                    .started
                    .saturating_duration_since(recorder.inner.epoch)
                    .as_micros() as u64,
                duration_us: self.started.elapsed().as_micros() as u64,
                attributes: std::mem::take(&mut self.attributes),
            };
            recorder.push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop_with_parent_links() {
        let recorder = SpanRecorder::new(16);
        {
            let mut root = recorder.span("request");
            root.attr("kind", "macro");
            let child = root.child("explore");
            drop(child);
        }
        let records = recorder.snapshot();
        assert_eq!(records.len(), 2);
        // Children drop first, so they appear before their parent.
        let child = &records[0];
        let root = &records[1];
        assert_eq!(child.name, "explore");
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(root.name, "request");
        assert_eq!(root.parent, None);
        assert_eq!(
            root.attributes,
            vec![(SpanText::from("kind"), SpanText::from("macro"))]
        );
        assert!(root.id >= 1);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let recorder = SpanRecorder::new(3);
        for i in 0..5 {
            drop(recorder.span(format!("s{i}")));
        }
        assert_eq!(recorder.len(), 3);
        assert_eq!(recorder.capacity(), 3);
        assert_eq!(recorder.dropped(), 2);
        let names: Vec<String> = recorder
            .snapshot()
            .into_iter()
            .map(|r| r.name.into_owned())
            .collect();
        assert_eq!(names, vec!["s2", "s3", "s4"]);
    }

    #[test]
    fn inert_spans_record_nothing() {
        let recorder = SpanRecorder::new(4);
        let mut inert = Span::inert();
        inert.attr("ignored", "yes");
        assert!(!inert.is_recording());
        assert_eq!(inert.as_parent(), None);
        let child = inert.child("also-inert");
        assert!(!child.is_recording());
        drop(child);
        drop(inert);
        assert!(recorder.is_empty());
    }

    #[test]
    fn record_complete_backfills_measured_intervals() {
        let recorder = SpanRecorder::new(4);
        let started = Instant::now();
        let id = recorder.record_complete(
            "generation",
            Some(7),
            started,
            Duration::from_millis(5),
            vec![("stage".into(), "explore".into())],
        );
        assert!(id >= 1);
        let records = recorder.snapshot();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].parent, Some(7));
        assert_eq!(records[0].duration_us, 5000);
    }
}
