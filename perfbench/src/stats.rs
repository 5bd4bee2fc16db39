//! Order statistics, process memory and the result line.

use std::fmt::Write as _;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples;
/// `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of unsorted samples (`0.0` for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run reports: the end-to-end or per-layer metrics (the final JSON
/// line) plus informational lines printed before it.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub info: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds the informational `request_p90_s` line, with its sample
    /// count, when at least 100 requests completed, and `failed_ratio`.
    pub fn latency_tail(&mut self, latencies: &[f64]) {
        if latencies.len() >= 100 {
            if let Some(p90) = quantile(latencies, 0.9) {
                self.info("request_p90_s", p90, "s");
                self.notes
                    .push(format!("request_p90_s over {} requests", latencies.len()));
            }
        }
        let failed_ratio = self.failed as f64 / self.attempted as f64;
        self.info("failed_ratio", failed_ratio, "ratio");
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints the human-readable table, then the JSON result line last.
    pub fn print(&self, workload: &str) {
        for note in &self.notes {
            println!("# {note}");
        }
        for metric in &self.metrics {
            println!(
                "{workload} {} = {} {}",
                metric.name, metric.value, metric.unit
            );
        }
        for metric in &self.info {
            println!(
                "{workload} {} = {} {} (informational)",
                metric.name, metric.value, metric.unit
            );
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest round-trip form: every digit kept.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                metric.name,
                finite(metric.value),
                metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn json_line_has_result_keys() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.metric("latency_ms", 1.25, "ms");
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
