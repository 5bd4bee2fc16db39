//! The bench-regression gate: compares fresh medians from the vendored
//! criterion shim (`ACIM_BENCH_JSON` lines) against the checked-in
//! baseline JSONs next to the benches, with a tolerance multiplier.
//!
//! CI runs the quick-mode benches, feeds the fresh JSON-lines file and
//! the baselines to the `bench_gate` binary, and fails the job when any
//! benchmark regressed past tolerance *or went missing* (a bench that
//! silently stopped running is as bad as one that got slower).  Absolute
//! nanoseconds differ across machines, so the tolerance is deliberately
//! generous — the gate catches step-change regressions (a quadratic
//! loop, a cache that stopped hitting), not single-digit percentages.
//!
//! The parsers below cover exactly the two formats this workspace emits —
//! flat `{"id":..,"median_ns":..}` lines and baseline files with a flat
//! `"medians_ns"` object — rather than general JSON, which would need a
//! dependency the offline build cannot fetch.

/// One checked-in baseline: the bench group name and its recorded medians.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The benchmark group (`"bench"` field), e.g. `nsga2_batch`.
    pub bench: String,
    /// `(benchmark id within the group, median nanoseconds)`.
    pub medians_ns: Vec<(String, f64)>,
}

/// Verdict for one baseline entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Fresh median within tolerance of the baseline.
    Pass,
    /// Fresh median exceeded `baseline * tolerance`.
    Regressed,
    /// The benchmark produced no fresh measurement at all.
    Missing,
}

/// One row of the gate report.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Fully-qualified benchmark id, `group/name`.
    pub id: String,
    /// Baseline median in nanoseconds.
    pub baseline_ns: f64,
    /// Fresh median in nanoseconds, when the bench ran.
    pub fresh_ns: Option<f64>,
    /// The verdict under the gate's tolerance.
    pub verdict: Verdict,
}

impl GateRow {
    /// Fresh-to-baseline ratio (`>1` is slower), when the bench ran.
    pub fn ratio(&self) -> Option<f64> {
        self.fresh_ns.map(|fresh| fresh / self.baseline_ns.max(1.0))
    }
}

/// Finds the text after `"key":`, skipping occurrences of the quoted key
/// that are not followed by a colon (e.g. the key's name quoted inside a
/// description string), so an unlucky description cannot shadow the field.
fn after_key<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let needle = format!("\"{key}\"");
    let mut search = text;
    while let Some(at) = search.find(&needle) {
        let rest = &search[at + needle.len()..];
        if let Some(after_colon) = rest.trim_start().strip_prefix(':') {
            return Some(after_colon);
        }
        search = rest;
    }
    None
}

/// Extracts the string value of `"key": "value"` from `text`.
fn extract_string_field(text: &str, key: &str) -> Option<String> {
    let value = after_key(text, key)?.trim_start().strip_prefix('"')?;
    Some(value[..value.find('"')?].to_string())
}

/// Extracts the numeric value of `"key": 123` from `text`.
fn extract_number_field(text: &str, key: &str) -> Option<f64> {
    let value = after_key(text, key)?.trim_start();
    let end = value
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(value.len());
    value[..end].parse().ok()
}

/// Parses one checked-in baseline JSON: the `"bench"` name and the flat
/// `"medians_ns"` object.
///
/// # Errors
///
/// Returns a description of what is missing or malformed.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let bench =
        extract_string_field(text, "bench").ok_or("baseline is missing the \"bench\" field")?;
    let medians_at = text
        .find("\"medians_ns\"")
        .ok_or("baseline is missing the \"medians_ns\" object")?;
    let object = &text[medians_at..];
    let open = object
        .find('{')
        .ok_or("\"medians_ns\" is not followed by an object")?;
    let close = object[open..]
        .find('}')
        .ok_or("unterminated \"medians_ns\" object")?;
    let body = &object[open + 1..open + close];
    let mut medians_ns = Vec::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        // entry is `"name": value`; read the quoted name directly.
        let key = entry
            .strip_prefix('"')
            .and_then(|name| Some(name[..name.find('"')?].to_string()))
            .ok_or_else(|| format!("malformed medians_ns entry: {entry}"))?;
        let value: f64 = entry[entry.find(':').ok_or("entry without value")? + 1..]
            .trim()
            .parse()
            .map_err(|_| format!("non-numeric median in entry: {entry}"))?;
        medians_ns.push((key, value));
    }
    if medians_ns.is_empty() {
        return Err("\"medians_ns\" object holds no entries".into());
    }
    Ok(Baseline { bench, medians_ns })
}

/// Parses the shim's `ACIM_BENCH_JSON` lines into `(id, median_ns)` pairs.
/// A repeated id keeps the **last** line (benches append on re-runs).
pub fn parse_fresh(text: &str) -> Vec<(String, f64)> {
    let mut fresh: Vec<(String, f64)> = Vec::new();
    for line in text.lines() {
        let Some(id) = extract_string_field(line, "id") else {
            continue;
        };
        let Some(median) = extract_number_field(line, "median_ns") else {
            continue;
        };
        if let Some(existing) = fresh.iter_mut().find(|(name, _)| *name == id) {
            existing.1 = median;
        } else {
            fresh.push((id, median));
        }
    }
    fresh
}

/// A paired-benchmark ratio bound: `fresh[numerator] / fresh[denominator]`
/// must not exceed `max`.  Unlike the absolute baseline comparison, a
/// ratio within one run is immune to how fast the CI machine is — the
/// telemetry-overhead gate (`telemetry/instrumented` vs
/// `telemetry/uninstrumented` at 1.05) is the canonical user.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioCheck {
    /// Fully-qualified id of the numerator benchmark.
    pub numerator: String,
    /// Fully-qualified id of the denominator benchmark.
    pub denominator: String,
    /// Maximum allowed `numerator / denominator`.
    pub max: f64,
}

/// Verdict of one [`RatioCheck`].
#[derive(Debug, Clone, PartialEq)]
pub enum RatioVerdict {
    /// The observed ratio, within bound.
    Pass(f64),
    /// The observed ratio, over bound.
    Exceeded(f64),
    /// One or both benchmarks produced no fresh measurement.
    Missing,
}

/// Parses a `--max-ratio` spec: `numerator:denominator:max`, where the
/// ids are `group/name` pairs (so `:` never collides with an id).
///
/// A bound above 1.0 caps an overhead (instrumented may cost at most 5%
/// over uninstrumented); a bound *below* 1.0 demands a speedup — the
/// persistence gate's `restored:cold:0.67` requires the restored side to
/// be at least 1.5x faster, so the bound only needs to be positive.
///
/// # Errors
///
/// Returns a description of the malformed part.
pub fn parse_ratio_spec(text: &str) -> Result<RatioCheck, String> {
    let mut parts = text.split(':');
    let (Some(numerator), Some(denominator), Some(max), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(format!(
            "ratio spec must be <numerator>:<denominator>:<max>, got {text}"
        ));
    };
    let max: f64 = max
        .parse()
        .map_err(|_| format!("non-numeric ratio bound in spec: {text}"))?;
    if max.is_nan() || max <= 0.0 {
        return Err(format!("ratio bound must be > 0, got {max}"));
    }
    if numerator.is_empty() || denominator.is_empty() {
        return Err(format!("empty benchmark id in ratio spec: {text}"));
    }
    Ok(RatioCheck {
        numerator: numerator.to_string(),
        denominator: denominator.to_string(),
        max,
    })
}

/// Evaluates one ratio bound against the fresh medians.
pub fn check_ratio(check: &RatioCheck, fresh: &[(String, f64)]) -> RatioVerdict {
    let median = |id: &str| {
        fresh
            .iter()
            .find(|(name, _)| name == id)
            .map(|(_, median)| *median)
    };
    match (median(&check.numerator), median(&check.denominator)) {
        (Some(numerator), Some(denominator)) => {
            let ratio = numerator / denominator.max(1.0);
            if ratio > check.max {
                RatioVerdict::Exceeded(ratio)
            } else {
                RatioVerdict::Pass(ratio)
            }
        }
        _ => RatioVerdict::Missing,
    }
}

/// Serialises the gate outcome as a machine-readable JSON report (the CI
/// artifact): one object per compared benchmark carrying both the
/// fresh-to-baseline ratio (`> 1` is slower) and its inverse, the
/// `speedup` (`> 1` is faster), so a PR's perf effect is readable from
/// the artifact without re-running the benches.  Missing fresh medians
/// serialise as `null`.
pub fn render_report(rows: &[GateRow], tolerance: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"tolerance\": {tolerance},\n"));
    out.push_str("  \"benches\": [\n");
    for (index, row) in rows.iter().enumerate() {
        let fresh = row
            .fresh_ns
            .map_or_else(|| "null".to_string(), |ns| format!("{ns}"));
        let ratio = row
            .ratio()
            .map_or_else(|| "null".to_string(), |r| format!("{r:.4}"));
        let speedup = match row.ratio() {
            Some(r) if r > 0.0 => format!("{:.4}", 1.0 / r),
            _ => "null".to_string(),
        };
        let verdict = match row.verdict {
            Verdict::Pass => "pass",
            Verdict::Regressed => "regressed",
            Verdict::Missing => "missing",
        };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"baseline_ns\": {}, \"fresh_ns\": {fresh}, \
             \"ratio\": {ratio}, \"speedup\": {speedup}, \"verdict\": \"{verdict}\"}}{}\n",
            row.id,
            row.baseline_ns,
            if index + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Compares fresh medians against every baseline entry.  Each baseline key
/// is looked up as `"<bench>/<key>"` in the fresh results; a missing fresh
/// entry is a failure (the bench silently stopped running), as is a fresh
/// median above `baseline * tolerance`.
pub fn compare(baselines: &[Baseline], fresh: &[(String, f64)], tolerance: f64) -> Vec<GateRow> {
    assert!(tolerance >= 1.0, "tolerance is a slowdown multiplier >= 1");
    let mut rows = Vec::new();
    for baseline in baselines {
        for (key, baseline_ns) in &baseline.medians_ns {
            let id = format!("{}/{}", baseline.bench, key);
            let fresh_ns = fresh
                .iter()
                .find(|(name, _)| *name == id)
                .map(|(_, median)| *median);
            let verdict = match fresh_ns {
                None => Verdict::Missing,
                Some(median) if median > baseline_ns * tolerance => Verdict::Regressed,
                Some(_) => Verdict::Pass,
            };
            rows.push(GateRow {
                id,
                baseline_ns: *baseline_ns,
                fresh_ns,
                verdict,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "bench": "nsga2_batch",
  "description": "some text that mentions bench results and medians_ns-like words",
  "machine": { "available_parallelism": 1 },
  "medians_ns": {
    "serial_eval": 1388000,
    "batch_parallel_eval": 1343000.5
  },
  "derived": { "cached_vs_serial_speedup": 1.9 }
}"#;

    #[test]
    fn parses_baseline_name_and_medians() {
        let baseline = parse_baseline(BASELINE).expect("parses");
        assert_eq!(baseline.bench, "nsga2_batch");
        assert_eq!(baseline.medians_ns.len(), 2);
        assert_eq!(baseline.medians_ns[0], ("serial_eval".into(), 1_388_000.0));
        assert_eq!(
            baseline.medians_ns[1],
            ("batch_parallel_eval".into(), 1_343_000.5)
        );
    }

    #[test]
    fn quoted_key_without_a_colon_does_not_shadow_the_field() {
        // A bare "bench" string appearing before the real key (an array
        // element, a description fragment) must be skipped in favour of
        // the occurrence that is actually a key.
        let text = r#"{
  "tags": ["bench", "gate"],
  "bench": "steal",
  "medians_ns": { "serial": 10 }
}"#;
        let baseline = parse_baseline(text).expect("parses");
        assert_eq!(baseline.bench, "steal");
    }

    #[test]
    fn baseline_errors_are_described() {
        assert!(parse_baseline("{}").unwrap_err().contains("bench"));
        assert!(parse_baseline("{\"bench\": \"x\"}")
            .unwrap_err()
            .contains("medians_ns"));
        assert!(parse_baseline("{\"bench\": \"x\", \"medians_ns\": {}}")
            .unwrap_err()
            .contains("no entries"));
    }

    #[test]
    fn parses_fresh_lines_last_entry_wins() {
        let text = "\
{\"id\":\"nsga2_batch/serial_eval\",\"median_ns\":1500000}\n\
garbage line without fields\n\
{\"id\":\"nsga2_batch/serial_eval\",\"median_ns\":1400000}\n\
{\"id\":\"steal/stealing_pool\",\"median_ns\":42}\n";
        let fresh = parse_fresh(text);
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh[0], ("nsga2_batch/serial_eval".into(), 1_400_000.0));
        assert_eq!(fresh[1], ("steal/stealing_pool".into(), 42.0));
    }

    #[test]
    fn compare_flags_regressions_and_missing_benches() {
        let baselines = vec![Baseline {
            bench: "g".into(),
            medians_ns: vec![
                ("fast".into(), 100.0),
                ("slow".into(), 100.0),
                ("gone".into(), 100.0),
            ],
        }];
        let fresh = vec![("g/fast".into(), 150.0), ("g/slow".into(), 400.0)];
        let rows = compare(&baselines, &fresh, 3.0);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].verdict, Verdict::Pass);
        assert_eq!(rows[1].verdict, Verdict::Regressed);
        assert_eq!(rows[2].verdict, Verdict::Missing);
        assert_eq!(rows[1].ratio(), Some(4.0));
        assert_eq!(rows[2].ratio(), None);
    }

    #[test]
    fn ratio_specs_parse_and_reject_malformed_bounds() {
        let check = parse_ratio_spec("telemetry/instrumented:telemetry/uninstrumented:1.05")
            .expect("parses");
        assert_eq!(check.numerator, "telemetry/instrumented");
        assert_eq!(check.denominator, "telemetry/uninstrumented");
        assert!((check.max - 1.05).abs() < 1e-12);

        assert!(parse_ratio_spec("a:b").unwrap_err().contains("ratio spec"));
        assert!(parse_ratio_spec("a:b:c:d")
            .unwrap_err()
            .contains("ratio spec"));
        assert!(parse_ratio_spec("a:b:x")
            .unwrap_err()
            .contains("non-numeric"));
        assert!(parse_ratio_spec("a:b:0").unwrap_err().contains("> 0"));
        assert!(parse_ratio_spec("a:b:-0.5").unwrap_err().contains("> 0"));
        assert!(parse_ratio_spec("a:b:NaN").unwrap_err().contains("> 0"));
        assert!(parse_ratio_spec(":b:1.5").unwrap_err().contains("empty"));

        // Sub-1.0 bounds demand a speedup rather than capping an overhead
        // (the persistence gate's restored-vs-cold check).
        let speedup =
            parse_ratio_spec("persist/restored_first_request:persist/cold_first_request:0.67")
                .expect("parses");
        assert!((speedup.max - 0.67).abs() < 1e-12);
    }

    #[test]
    fn ratio_checks_pass_exceed_and_flag_missing() {
        let fresh = vec![("g/on".into(), 105.0), ("g/off".into(), 100.0)];
        let bound = |max| RatioCheck {
            numerator: "g/on".into(),
            denominator: "g/off".into(),
            max,
        };
        assert_eq!(check_ratio(&bound(1.05), &fresh), RatioVerdict::Pass(1.05));
        assert_eq!(
            check_ratio(&bound(1.04), &fresh),
            RatioVerdict::Exceeded(1.05)
        );
        let gone = RatioCheck {
            numerator: "g/on".into(),
            denominator: "g/gone".into(),
            max: 2.0,
        };
        assert_eq!(check_ratio(&gone, &fresh), RatioVerdict::Missing);
    }

    #[test]
    fn report_serialises_rows_with_ratio_and_speedup() {
        let rows = vec![
            GateRow {
                id: "model_eval/four_objectives".into(),
                baseline_ns: 100.0,
                fresh_ns: Some(50.0),
                verdict: Verdict::Pass,
            },
            GateRow {
                id: "g/gone".into(),
                baseline_ns: 10.0,
                fresh_ns: None,
                verdict: Verdict::Missing,
            },
        ];
        let report = render_report(&rows, 4.0);
        assert!(report.contains("\"tolerance\": 4"));
        assert!(report.contains(
            "{\"id\": \"model_eval/four_objectives\", \"baseline_ns\": 100, \
             \"fresh_ns\": 50, \"ratio\": 0.5000, \"speedup\": 2.0000, \"verdict\": \"pass\"},"
        ));
        assert!(report.contains(
            "{\"id\": \"g/gone\", \"baseline_ns\": 10, \"fresh_ns\": null, \
             \"ratio\": null, \"speedup\": null, \"verdict\": \"missing\"}"
        ));
        // The report must itself round-trip through the fresh-lines parser
        // (it carries "id"/fresh medians in the same key style).
        let parsed = parse_fresh(&report);
        assert_eq!(parsed.len(), 0, "report lines are not bench JSONL");
    }

    #[test]
    fn checked_in_baselines_parse() {
        // The real files CI feeds to the gate must stay parseable.
        for path in [
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benches/nsga2_batch_baseline.json"
            ),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benches/chip_eval_baseline.json"
            ),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benches/model_eval_baseline.json"
            ),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benches/telemetry_baseline.json"
            ),
            concat!(env!("CARGO_MANIFEST_DIR"), "/benches/persist_baseline.json"),
            concat!(env!("CARGO_MANIFEST_DIR"), "/benches/backend_baseline.json"),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benches/dse_runtime_baseline.json"
            ),
            concat!(env!("CARGO_MANIFEST_DIR"), "/benches/service_baseline.json"),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benches/service_sched_baseline.json"
            ),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benches/macro_reuse_baseline.json"
            ),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benches/chip_mix_baseline.json"
            ),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benches/macro_sim_baseline.json"
            ),
            concat!(env!("CARGO_MANIFEST_DIR"), "/benches/nsga2_baseline.json"),
            concat!(env!("CARGO_MANIFEST_DIR"), "/benches/router_baseline.json"),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/benches/layout_runtime_baseline.json"
            ),
        ] {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("baseline {path} must exist: {e}"));
            let baseline = parse_baseline(&text).unwrap_or_else(|e| panic!("baseline {path}: {e}"));
            assert!(!baseline.medians_ns.is_empty());
        }
    }
}
