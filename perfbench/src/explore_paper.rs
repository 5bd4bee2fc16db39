//! `explore_paper`: closed loop, one client, exploration-only requests
//! (explore, then distill) at the paper's NSGA-II budget.

use std::time::Instant;

use acim_dse::{DesignPoint, DesignSpaceExplorer, DseConfig, ExploreOptions, UserRequirements};
use easyacim::stage::{DistillStage, ExploreStage};
use easyacim::Stage;

use crate::checks;
use crate::common::{
    another_round, paired, report_accounting, sized_round, timed_setup, warm_up_config, MogaTotals,
    PoolTotals, SizedRequest,
};
use crate::pins;
use crate::stats::{median, peak_rss_mb, Report};
use crate::trace::Tracer;

pub fn config(request: SizedRequest) -> DseConfig {
    DseConfig {
        array_size: request.kb * 1024,
        population_size: 200,
        generations: 100,
        seed: request.seed,
        ..DseConfig::default()
    }
}

/// Runs one request through the `ExploreStage` → `DistillStage` pipeline;
/// returns the distilled frontier and the evaluations requested.
pub fn run(request: SizedRequest) -> Result<(Vec<DesignPoint>, usize), String> {
    let distilled = ExploreStage::new(config(request))
        .then(DistillStage::new(UserRequirements::none()))
        .run(())
        .map_err(|e| e.to_string())?;
    Ok((distilled.distilled, distilled.engine.evaluations))
}

/// The same request driven through `DesignSpaceExplorer::explore_with`
/// and `UserRequirements::distill`, with a span around each call.
pub fn run_traced(
    request: SizedRequest,
    id: u64,
    tracer: &mut Tracer,
    moga: &mut MogaTotals,
    pool: &mut PoolTotals,
) -> Result<Vec<DesignPoint>, String> {
    let root = tracer.begin("request", id, None);
    let explorer = DesignSpaceExplorer::new(config(request)).map_err(|e| e.to_string())?;
    let frontier = tracer
        .span("dse.explore", id, Some(root), || {
            pool.measure(|| explorer.explore_with(&ExploreOptions::default(), |_| {}))
        })
        .map_err(|e| e.to_string())?;
    moga.add(&frontier.engine);
    let points = frontier.into_points();
    let distilled = tracer.span("dse.distill", id, Some(root), || {
        UserRequirements::none().distill(&points)
    });
    tracer.end(root);
    Ok(distilled)
}

fn check(request: SizedRequest, distilled: &[DesignPoint]) -> Result<(), String> {
    let pinned =
        pins::explore_paper(request).ok_or_else(|| format!("no pinned digest for {request:?}"))?;
    let digest = checks::macro_frontier_digest(distilled);
    if digest != pinned {
        return Err(format!(
            "{request:?}: frontier digest {digest:016x} != pinned {pinned:016x}"
        ));
    }
    Ok(())
}

/// The set-up this workload runs: the warm-up request's exploration
/// through the `ExploreStage` → `DistillStage` pipeline, which spins up
/// the pool.
fn set_up() -> Result<(), String> {
    ExploreStage::new(warm_up_config().dse)
        .then(DistillStage::new(UserRequirements::none()))
        .run(())
        .map_err(|e| e.to_string())?;
    Ok(())
}

pub fn untraced(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let ((), setup_s) = timed_setup(set_up)?;
    let mut latencies = Vec::new();
    let mut evaluations = 0usize;
    let mut fronts = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    // Whole rounds only: every run measures the same mix of requests.
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        for request in sized_round(seed, round) {
            report.attempted += 1;
            let t0 = Instant::now();
            let result = run(request);
            let latency = t0.elapsed().as_secs_f64();
            match result.and_then(|(distilled, evals)| {
                check(request, &distilled)?;
                Ok((distilled, evals))
            }) {
                Ok((distilled, evals)) => {
                    latencies.push(latency);
                    evaluations += evals;
                    if round == 0 {
                        fronts.push((request, distilled));
                    }
                }
                Err(err) => {
                    report.failed += 1;
                    report.notes.push(format!("failed: {err}"));
                }
            }
        }
        round += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let busy: f64 = latencies.iter().sum();
    report.metric("request_p50_s", median(&latencies), "s");
    report.metric("requests_per_s", latencies.len() as f64 / wall, "1/s");
    report.metric("evals_per_s", evaluations as f64 / busy, "1/s");
    report.metric("frontier_hv", checks::macro_frontier_hv(&fronts)?, "hv");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    report.latency_tail(&latencies);
    report
        .notes
        .push(format!("{} requests in {wall:.2} s", latencies.len()));
    Ok(report)
}

pub fn traced(seed: u64, seconds: f64, trace_path: &std::path::Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::default();
    let mut moga = MogaTotals::default();
    let mut pool = PoolTotals::default();
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut rounds = 0;
    let requests = sized_round(seed, 0);
    let start = Instant::now();
    while another_round(start, rounds, seconds) {
        for (i, &request) in requests.iter().enumerate() {
            report.attempted += 1;
            let id = (rounds * requests.len() + i) as u64;
            let (plain, traced) = paired(
                i % 2 == 0,
                || {
                    let t0 = Instant::now();
                    let out = run(request).map(|(distilled, _)| distilled);
                    untraced_s += t0.elapsed().as_secs_f64();
                    out
                },
                || {
                    let from = tracer.spans().len();
                    let out = run_traced(request, id, &mut tracer, &mut moga, &mut pool);
                    traced_s += tracer.spans()[from].duration();
                    out
                },
            );
            let outcome = plain.and_then(|plain| {
                check(request, &plain)?;
                check(request, &traced?)
            });
            if let Err(err) = outcome {
                report.failed += 1;
                report.notes.push(format!("failed: {err}"));
            }
        }
        rounds += 1;
    }
    report_accounting(&tracer, rounds, untraced_s, traced_s, &mut report);
    moga.report_cache("dse", rounds, &mut report);
    moga.report(rounds, &mut report);
    pool.report(rounds, &mut report);
    tracer.write_json(trace_path)?;
    Ok(report)
}
