//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions: name, start, end, parent and request id.  They stay
//! in memory while the workload runs and are written out as JSON when it
//! ends.  A span's self time is its duration minus the part of its
//! interval that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: String,
    pub request: u64,
    pub parent: Option<SpanId>,
    pub start_s: f64,
    pub end_s: f64,
    /// Informational spans time extra calls the request itself does not
    /// make; they are excluded from the accounting.
    pub informational: bool,
}

impl SpanRecord {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Seconds of `instant` since the tracer was created.
    pub fn at(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, request: u64, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        self.push(name, request, parent, start, start)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_s = self.now();
    }

    /// Marks a span as informational (outside the accounting).
    pub fn informational(&mut self, id: SpanId) {
        self.spans[id].informational = true;
    }

    /// Records an already-completed span.
    pub fn push(
        &mut self,
        name: &str,
        request: u64,
        parent: Option<SpanId>,
        start_s: f64,
        end_s: f64,
    ) -> SpanId {
        self.spans.push(SpanRecord {
            name: name.to_string(),
            request,
            parent,
            start_s,
            end_s,
            informational: false,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_s, span.end_s));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| span.duration() - covered(span.start_s, span.end_s, kids))
            .collect()
    }

    /// Summed self time per span name over non-informational spans.
    pub fn self_time_by_name(&self) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        for (span, self_time) in self.spans.iter().zip(self.self_times()) {
            if !span.informational {
                *totals.entry(span.name.clone()).or_insert(0.0) += self_time;
            }
        }
        totals
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .fold(0.0, |total, span| total + span.duration())
    }

    /// Writes every span as a JSON array.
    pub fn write_json(&self, path: &Path) -> Result<(), String> {
        let self_times = self.self_times();
        let mut out = String::from("[\n");
        for (i, (span, self_time)) in self.spans.iter().zip(self_times).enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_s\": {:?}, \"end_s\": {:?}, \"self_s\": {:?}, \"informational\": {}}}{sep}",
                span.name, span.request, span.start_s, span.end_s, self_time, span.informational
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|err| format!("cannot create {}: {err}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|err| format!("cannot write {}: {err}", path.display()))
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered(start: f64, end: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = start;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tracer = Tracer::default();
        let root = tracer.push("request", 0, None, 0.0, 10.0);
        tracer.push("a", 0, Some(root), 1.0, 4.0);
        tracer.push("b", 0, Some(root), 3.0, 5.0);
        let info = tracer.push("c", 0, Some(root), 6.0, 7.0);
        tracer.informational(info);
        let self_times = tracer.self_times();
        assert!((self_times[0] - 5.0).abs() < 1e-12);
        let by_name = tracer.self_time_by_name();
        assert!(!by_name.contains_key("c"));
        assert!((by_name["a"] - 3.0).abs() < 1e-12);
    }
}
