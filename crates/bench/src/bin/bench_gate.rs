//! CI bench-regression gate.
//!
//! Compares the fresh medians a quick-mode bench sweep wrote (via the
//! criterion shim's `ACIM_BENCH_JSON` hook) against the checked-in
//! baseline JSONs, and exits non-zero when a benchmark regressed past
//! tolerance or went missing.
//!
//! ```bash
//! ACIM_BENCH_QUICK=1 ACIM_BENCH_JSON=target/bench-fresh.jsonl \
//!     cargo bench -p acim-bench --bench nsga2_batch --bench chip_eval --bench model_eval
//! cargo run -p acim-bench --bin bench_gate -- \
//!     --fresh target/bench-fresh.jsonl \
//!     --baseline crates/bench/benches/nsga2_batch_baseline.json \
//!     --baseline crates/bench/benches/chip_eval_baseline.json \
//!     --baseline crates/bench/benches/model_eval_baseline.json
//! ```
//!
//! The tolerance is a slowdown multiplier (`--tolerance 3.0`, or the
//! `ACIM_BENCH_TOLERANCE` env var): generous, because absolute
//! nanoseconds differ between the machine that recorded a baseline and
//! the CI runner — the gate exists to catch step changes (a quadratic
//! loop, a bench that stopped running), not single-digit noise.

use acim_bench::gate::{
    check_ratio, compare, parse_baseline, parse_fresh, parse_ratio_spec, render_report, Baseline,
    RatioCheck, RatioVerdict, Verdict,
};

fn usage() -> ! {
    eprintln!(
        "usage: bench_gate --fresh <jsonl> --baseline <json> [--baseline <json> ...] \
         [--tolerance <multiplier>] [--max-ratio <numerator>:<denominator>:<max> ...] \
         [--report <json>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut fresh_path: Option<String> = None;
    let mut baseline_paths: Vec<String> = Vec::new();
    let mut tolerance: Option<f64> = None;
    let mut ratio_checks: Vec<RatioCheck> = Vec::new();
    let mut report_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--fresh" => fresh_path = Some(args.next().unwrap_or_else(|| usage())),
            "--baseline" => baseline_paths.push(args.next().unwrap_or_else(|| usage())),
            "--report" => report_path = Some(args.next().unwrap_or_else(|| usage())),
            "--tolerance" => {
                tolerance = Some(
                    args.next()
                        .and_then(|value| value.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--max-ratio" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match parse_ratio_spec(&spec) {
                    Ok(check) => ratio_checks.push(check),
                    Err(error) => {
                        eprintln!("bench_gate: {error}");
                        std::process::exit(2);
                    }
                }
            }
            _ => usage(),
        }
    }
    let Some(fresh_path) = fresh_path else {
        usage()
    };
    if baseline_paths.is_empty() {
        usage();
    }
    let tolerance = tolerance
        .or_else(|| {
            std::env::var("ACIM_BENCH_TOLERANCE")
                .ok()
                .and_then(|value| value.parse().ok())
        })
        .unwrap_or(3.0);
    if tolerance < 1.0 {
        eprintln!("tolerance must be >= 1.0 (it is a slowdown multiplier)");
        std::process::exit(2);
    }

    let fresh_text = match std::fs::read_to_string(&fresh_path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("bench_gate: cannot read fresh results {fresh_path}: {error}");
            std::process::exit(2);
        }
    };
    let fresh = parse_fresh(&fresh_text);

    let mut baselines: Vec<Baseline> = Vec::new();
    for path in &baseline_paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("bench_gate: cannot read baseline {path}: {error}");
                std::process::exit(2);
            }
        };
        match parse_baseline(&text) {
            Ok(baseline) => baselines.push(baseline),
            Err(error) => {
                eprintln!("bench_gate: malformed baseline {path}: {error}");
                std::process::exit(2);
            }
        }
    }

    let rows = compare(&baselines, &fresh, tolerance);
    // Write the artifact before the pass/fail verdict: a failed gate's
    // report is exactly the one worth inspecting.
    if let Some(path) = &report_path {
        if let Err(error) = std::fs::write(path, render_report(&rows, tolerance)) {
            eprintln!("bench_gate: cannot write report {path}: {error}");
            std::process::exit(2);
        }
    }
    println!(
        "bench-regression gate (tolerance {tolerance:.1}x, {} fresh medians)",
        fresh.len()
    );
    println!(
        "{:<44} {:>14} {:>14} {:>7}  status",
        "benchmark", "baseline_ns", "fresh_ns", "ratio"
    );
    let mut failures = 0usize;
    for row in &rows {
        let (fresh_cell, ratio_cell) = match (row.fresh_ns, row.ratio()) {
            (Some(fresh), Some(ratio)) => (format!("{fresh:.0}"), format!("{ratio:.2}x")),
            _ => ("-".into(), "-".into()),
        };
        let status = match row.verdict {
            Verdict::Pass => "ok",
            Verdict::Regressed => {
                failures += 1;
                "REGRESSED"
            }
            Verdict::Missing => {
                failures += 1;
                "MISSING"
            }
        };
        println!(
            "{:<44} {:>14.0} {:>14} {:>7}  {status}",
            row.id, row.baseline_ns, fresh_cell, ratio_cell
        );
    }
    for check in &ratio_checks {
        let label = format!("{} / {}", check.numerator, check.denominator);
        match check_ratio(check, &fresh) {
            RatioVerdict::Pass(ratio) => {
                println!("ratio {label}: {ratio:.3} <= {:.3}  ok", check.max);
            }
            RatioVerdict::Exceeded(ratio) => {
                failures += 1;
                println!("ratio {label}: {ratio:.3} > {:.3}  EXCEEDED", check.max);
            }
            RatioVerdict::Missing => {
                failures += 1;
                println!("ratio {label}: fresh measurement MISSING");
            }
        }
    }

    if failures > 0 {
        eprintln!(
            "bench_gate: {failures} check(s) failed (regressed past {tolerance:.1}x, \
             missing, or over a ratio bound)"
        );
        std::process::exit(1);
    }
    println!(
        "bench_gate: all {} benchmarks within tolerance{}",
        rows.len(),
        if ratio_checks.is_empty() {
            String::new()
        } else {
            format!(", {} ratio bound(s) held", ratio_checks.len())
        }
    );
}
