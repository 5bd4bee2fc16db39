//! The EasyACIM benchmark: end-to-end and per-layer metrics of three
//! workloads driven through the workspace's public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow_backend|explore_paper|service_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run (spans are written to `perfbench/out/`).  The
//! last line of standard output is the JSON result.  The exit code is 0
//! when every output check passed, 1 when one failed, 2 on a usage or
//! set-up error.  See `perfbench/README.md`.

mod checks;
mod common;
mod explore_paper;
mod flow_backend;
mod pins;
mod service_mix;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::Report;

/// The end-to-end metrics of every untraced run, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("request_p50_s", "s"),
    ("requests_per_s", "1/s"),
    ("evals_per_s", "1/s"),
    ("frontier_hv", "hv"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of every traced run, with their units.  A layer a
/// workload never calls reports 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("dse.explore_s", "s"),
    ("dse.distill_s", "s"),
    ("dse.evaluations", "count"),
    ("dse.cache_hit_ratio", "ratio"),
    ("moga.eval_s", "s"),
    ("moga.select_s", "s"),
    ("moga.generation_p50_s", "s"),
    ("model.kernel_evals", "count"),
    ("netlist.generate_s", "s"),
    ("netlist.stats_s", "s"),
    ("netlist.spice_s", "s"),
    ("netlist.spice_bytes", "B"),
    ("netlist.validate_s", "s"),
    ("layout.generate_s", "s"),
    ("layout.def_s", "s"),
    ("layout.gds_s", "s"),
    ("layout.emit_bytes", "B"),
    ("layout.column_s", "s"),
    ("layout.drc_s", "s"),
    ("layout.drc_violations", "count"),
    ("layout.column_template_repeats", "count"),
    ("chip.explore_s", "s"),
    ("chip.evaluations", "count"),
    ("chip.cache_hit_ratio", "ratio"),
    ("chip.macro_cache_hit_ratio", "ratio"),
    ("chip.simulate_s", "s"),
    ("chip.evaluate_mix_s", "s"),
    ("service.overhead_s", "s"),
    ("service.rejected", "count"),
    ("rayon.tasks", "count"),
    ("rayon.steals", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.rounds", "count"),
];

const WORKLOADS: [&str; 3] = ["flow_backend", "explore_paper", "service_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = args.next() {
        if flag == "--print-pins" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    }))
}

fn run(args: &Args) -> Result<Report, String> {
    let trace_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    let (seed, seconds) = (args.seed, args.seconds);
    let mut report = match (args.workload.as_str(), args.trace) {
        ("flow_backend", false) => flow_backend::untraced(seed, seconds),
        ("flow_backend", true) => flow_backend::traced(seed, seconds, &trace_path),
        ("explore_paper", false) => explore_paper::untraced(seed, seconds),
        ("explore_paper", true) => explore_paper::traced(seed, seconds, &trace_path),
        ("service_mix", false) => service_mix::untraced(seed, seconds),
        ("service_mix", true) => service_mix::traced(seed, seconds, &trace_path),
        (other, _) => Err(format!("unknown workload {other}")),
    }?;
    let expected: &[(&str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    conform(&mut report, expected, args.trace)?;
    if args.trace {
        report
            .notes
            .push(format!("spans written to {}", trace_path.display()));
    }
    Ok(report)
}

/// Orders the report's metrics as `expected`, checks names and units, and
/// fills per-layer metrics of layers the workload never calls with 0.
fn conform(
    report: &mut Report,
    expected: &[(&str, &'static str)],
    fill: bool,
) -> Result<(), String> {
    let mut metrics = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        match report.metrics.iter().position(|m| m.name == name) {
            Some(i) => {
                let metric = report.metrics.swap_remove(i);
                if metric.unit != unit {
                    return Err(format!("{name} reported in {} not {unit}", metric.unit));
                }
                metrics.push(metric);
            }
            None if fill => metrics.push(stats::Metric {
                name: name.to_string(),
                value: 0.0,
                unit,
            }),
            None => return Err(format!("metric {name} missing")),
        }
    }
    if let Some(extra) = report.metrics.first() {
        return Err(format!("unexpected metric {}", extra.name));
    }
    report.metrics = metrics;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match pins::generate() {
                Ok(source) => {
                    print!("{source}");
                    ExitCode::SUCCESS
                }
                Err(err) => {
                    eprintln!("perfbench: {err}");
                    ExitCode::from(2)
                }
            };
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print(&args.workload);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(2)
        }
    }
}
