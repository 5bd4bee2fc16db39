//! `flow_backend`: closed loop, one client, sequential macro-flow
//! requests that take many distilled designs through netlist, layout and
//! SPICE/DEF/GDS emission.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use acim_arch::AcimSpec;
use acim_dse::{DesignPoint, DesignSpaceExplorer, ExploreOptions};
use acim_layout::{check_layout, write_def, write_gds_text, ColumnTemplate, LayoutFlow};
use acim_netlist::{design_stats, write_spice, NetlistGenerator};
use acim_tech::Technology;
use easyacim::{FlowConfig, FlowOptions, ProgressObserver, TopFlowController};

use crate::checks::{self, Digest};
use crate::common::{
    another_round, paired, report_accounting, sized_round, timed_setup, warm_up_config, MogaTotals,
    PoolTotals, SizedRequest,
};
use crate::pins;
use crate::stats::{median, peak_rss_mb, Report};
use crate::trace::Tracer;

/// Distilled designs each request takes through the back half.
pub const DESIGNS_PER_REQUEST: usize = 8;

/// The fixed DRC subset of the traced run: (H, W, L, B_ADC).  Full-macro
/// DRC is quadratic, so only these macros are checked, every traced run.
pub const DRC_SUBSET: [(usize, usize, usize, u32); 3] =
    [(64, 16, 4, 3), (256, 16, 4, 4), (1024, 4, 2, 8)];

pub fn config(request: SizedRequest) -> FlowConfig {
    let mut config = FlowConfig::new(request.kb * 1024);
    config.dse.population_size = 40;
    config.dse.generations = 25;
    config.dse.seed = request.seed;
    config.max_layouts = DESIGNS_PER_REQUEST;
    config.emit_files = true;
    config
}

/// The checked outputs of one request.
#[derive(Debug)]
pub struct Outputs {
    pub distilled: Vec<DesignPoint>,
    pub frontier_digest: u64,
    pub emit_digest: u64,
    pub designs: usize,
    pub evaluations: usize,
    /// (H, L, B_ADC) of every emitted design, in order.
    pub templates: Vec<(usize, usize, u32)>,
    pub spice_bytes: usize,
    /// SPICE + DEF + GDS bytes.
    pub emit_bytes: usize,
}

/// One emitted design as the checks see it.
struct Emitted<'a> {
    spec: AcimSpec,
    sram_cells: usize,
    spice: &'a str,
    def: &'a str,
    gds: &'a str,
}

fn outputs(
    distilled: Vec<DesignPoint>,
    emitted: &[Emitted<'_>],
    evaluations: usize,
) -> Result<Outputs, String> {
    let mut digest = Digest::default();
    let mut spice_bytes = 0;
    let mut emit_bytes = 0;
    for design in emitted {
        spice_bytes += design.spice.len();
        emit_bytes += design.spice.len() + design.def.len() + design.gds.len();
        let spec = design.spec;
        if design.sram_cells != spec.height() * spec.width() {
            return Err(format!(
                "{}x{}: netlist has {} SRAM cells",
                spec.height(),
                spec.width(),
                design.sram_cells
            ));
        }
        if !design.spice.contains(".SUBCKT ACIM_TOP") {
            return Err("SPICE lacks .SUBCKT ACIM_TOP".into());
        }
        digest = digest
            .bytes(design.spice.as_bytes())
            .bytes(design.def.as_bytes())
            .bytes(design.gds.as_bytes());
    }
    Ok(Outputs {
        frontier_digest: checks::macro_frontier_digest(&distilled),
        emit_digest: digest.finish(),
        designs: emitted.len(),
        evaluations,
        templates: emitted
            .iter()
            .map(|d| (d.spec.height(), d.spec.local_array(), d.spec.adc_bits()))
            .collect(),
        spice_bytes,
        emit_bytes,
        distilled,
    })
}

/// Runs one request through `TopFlowController::run_with`, then writes
/// DEF and GDS per design.  Returns the outputs and the time from request
/// start to the first "layout" progress tick.
pub fn run(request: SizedRequest) -> Result<(Outputs, Duration), String> {
    let start = Instant::now();
    let controller = TopFlowController::new(config(request)).map_err(|e| e.to_string())?;
    let first_layout: Arc<Mutex<Option<Duration>>> = Arc::default();
    let tick = first_layout.clone();
    let observer: ProgressObserver = Arc::new(move |event| {
        if event.stage == "layout" && event.completed == 1 {
            *tick.lock().expect("observer lock") = Some(start.elapsed());
        }
    });
    let options = FlowOptions {
        observer: Some(observer),
        ..FlowOptions::default()
    };
    let result = controller.run_with(&options).map_err(|e| e.to_string())?;
    let technology = &controller.config().technology;
    let files: Vec<(String, String)> = result
        .designs
        .iter()
        .map(|d| {
            (
                write_def(&d.layout.layout),
                write_gds_text(&d.layout.layout, technology),
            )
        })
        .collect();
    let first = first_layout
        .lock()
        .expect("observer lock")
        .ok_or("no layout progress tick")?;
    let emitted: Vec<Emitted<'_>> = result
        .designs
        .iter()
        .zip(&files)
        .map(|(d, (def, gds))| Emitted {
            spec: d.point.spec,
            sram_cells: d.netlist_stats.sram_cells,
            spice: d.spice.as_deref().unwrap_or(""),
            def,
            gds,
        })
        .collect();
    let out = outputs(
        result.distilled.clone(),
        &emitted,
        result.engine.evaluations,
    )?;
    Ok((out, first))
}

/// The same request driven layer by layer through public functions, with
/// a span around every call.
pub fn run_traced(
    request: SizedRequest,
    id: u64,
    tracer: &mut Tracer,
    moga: &mut MogaTotals,
    pool: &mut PoolTotals,
) -> Result<Outputs, String> {
    let root = tracer.begin("request", id, None);
    let controller = TopFlowController::new(config(request)).map_err(|e| e.to_string())?;
    let config = controller.config();
    let library = controller.library();
    let technology = &config.technology;
    let explorer = DesignSpaceExplorer::new(config.dse.clone()).map_err(|e| e.to_string())?;
    let frontier = tracer
        .span("dse.explore", id, Some(root), || {
            pool.measure(|| explorer.explore_with(&ExploreOptions::default(), |_| {}))
        })
        .map_err(|e| e.to_string())?;
    moga.add(&frontier.engine);
    let evaluations = frontier.engine.evaluations;
    let points = frontier.into_points();
    let distilled = tracer.span("dse.distill", id, Some(root), || {
        config.requirements.distill(&points)
    });
    if distilled.is_empty() {
        return Err("empty distilled set".into());
    }

    let generator = NetlistGenerator::new(library);
    let mut netlisted = Vec::new();
    for point in distilled.iter().take(config.max_layouts) {
        let netlist = tracer
            .span("netlist.generate", id, Some(root), || {
                generator.generate(&point.spec)
            })
            .map_err(|e| e.to_string())?;
        let check = tracer.begin("netlist.validate", id, Some(root));
        tracer.informational(check);
        netlist.validate(library).map_err(|e| e.to_string())?;
        tracer.end(check);
        let stats = tracer
            .span("netlist.stats", id, Some(root), || {
                design_stats(&netlist, library)
            })
            .map_err(|e| e.to_string())?;
        let spice = tracer
            .span("netlist.spice", id, Some(root), || {
                write_spice(&netlist, library)
            })
            .map_err(|e| e.to_string())?;
        netlisted.push((point.spec, stats.sram_cells, spice));
    }

    let flow = LayoutFlow::new(technology, library);
    let mut layouts = Vec::new();
    for (spec, _, _) in &netlisted {
        let layout = tracer
            .span("layout.generate", id, Some(root), || flow.generate(spec))
            .map_err(|e| e.to_string())?;
        let column = tracer.begin("layout.column", id, Some(root));
        tracer.informational(column);
        ColumnTemplate::build(spec, technology, library).map_err(|e| e.to_string())?;
        tracer.end(column);
        layouts.push(layout);
    }
    let mut files = Vec::new();
    for layout in &layouts {
        let def = tracer.span("layout.def", id, Some(root), || write_def(&layout.layout));
        let gds = tracer.span("layout.gds", id, Some(root), || {
            write_gds_text(&layout.layout, technology)
        });
        files.push((def, gds));
    }
    tracer.end(root);
    let emitted: Vec<Emitted<'_>> = netlisted
        .iter()
        .zip(&files)
        .map(|((spec, sram_cells, spice), (def, gds))| Emitted {
            spec: *spec,
            sram_cells: *sram_cells,
            spice,
            def,
            gds,
        })
        .collect();
    outputs(distilled, &emitted, evaluations)
}

/// Checks a request's outputs against the pinned digests, which also
/// makes every repetition of a request emit identical bytes.
fn check(request: SizedRequest, out: &Outputs) -> Result<(), String> {
    let (frontier, emit) =
        pins::flow_backend(request).ok_or_else(|| format!("no pinned digest for {request:?}"))?;
    if out.frontier_digest != frontier {
        return Err(format!(
            "{request:?}: frontier digest {:016x} != pinned {frontier:016x}",
            out.frontier_digest
        ));
    }
    if out.emit_digest != emit {
        return Err(format!(
            "{request:?}: emitted bytes digest {:016x} != pinned {emit:016x}",
            out.emit_digest
        ));
    }
    if out.designs != DESIGNS_PER_REQUEST {
        return Err(format!(
            "{request:?}: emitted {} designs, expected {DESIGNS_PER_REQUEST}",
            out.designs
        ));
    }
    Ok(())
}

/// The set-up this workload runs: technology and cell-library build
/// (`FlowConfig::new`, `TopFlowController::new`) and the warm-up request
/// through the flow, which spins up the pool.
fn set_up() -> Result<(), String> {
    let controller = TopFlowController::new(warm_up_config()).map_err(|e| e.to_string())?;
    controller.run().map_err(|e| e.to_string())?;
    Ok(())
}

pub fn untraced(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let ((), setup_s) = timed_setup(set_up)?;
    let mut latencies = Vec::new();
    let mut first_design = Vec::new();
    let mut evaluations = 0usize;
    let mut designs = 0usize;
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
            match result.and_then(|(out, first)| {
                check(request, &out)?;
                Ok((out, first))
            }) {
                Ok((out, first)) => {
                    latencies.push(latency);
                    first_design.push(first.as_secs_f64());
                    evaluations += out.evaluations;
                    designs += out.designs;
                    if round == 0 {
                        fronts.push((request, out.distilled));
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
    report.info("designs_per_s", designs as f64 / wall, "1/s");
    report.info("first_design_s", median(&first_design), "s");
    report.latency_tail(&latencies);
    report.notes.push(format!(
        "{} requests in {wall:.2} s, {designs} designs emitted",
        latencies.len()
    ));
    Ok(report)
}

pub fn traced(seed: u64, seconds: f64, trace_path: &std::path::Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::default();
    let mut moga = MogaTotals::default();
    let mut pool = PoolTotals::default();
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut template_repeats = 0usize;
    let mut spice_bytes = 0usize;
    let mut emit_bytes = 0usize;
    let mut rounds = 0;
    let start = Instant::now();
    let requests = sized_round(seed, 0);
    while another_round(start, rounds, seconds) {
        let mut templates = HashSet::new();
        for (i, &request) in requests.iter().enumerate() {
            report.attempted += 1;
            let id = (rounds * requests.len() + i) as u64;
            let (plain, traced) = paired(
                i % 2 == 0,
                || {
                    let t0 = Instant::now();
                    let out = run(request).map(|(out, _)| out);
                    untraced_s += t0.elapsed().as_secs_f64();
                    out
                },
                || {
                    let from = tracer.spans().len();
                    let out = run_traced(request, id, &mut tracer, &mut moga, &mut pool);
                    traced_s += traced_request_time(&tracer, from);
                    out
                },
            );
            let outcome = plain.and_then(|plain| {
                let traced = traced?;
                check(request, &plain)?;
                check(request, &traced)?;
                Ok(traced)
            });
            match outcome {
                Ok(out) => {
                    for key in &out.templates {
                        if !templates.insert(*key) {
                            template_repeats += 1;
                        }
                    }
                    spice_bytes += out.spice_bytes;
                    emit_bytes += out.emit_bytes;
                }
                Err(err) => {
                    report.failed += 1;
                    report.notes.push(format!("failed: {err}"));
                }
            }
        }
        rounds += 1;
    }
    let technology = Technology::s28();
    let library = acim_cell::CellLibrary::s28_default(&technology);
    let flow = LayoutFlow::new(&technology, &library);
    let mut violations = 0usize;
    for (h, w, l, b) in DRC_SUBSET {
        let spec = AcimSpec::new(h * w, h, w, l, b).map_err(|e| e.to_string())?;
        let layout = flow.generate(&spec).map_err(|e| e.to_string())?;
        let drc = tracer.begin("layout.drc", u64::MAX, None);
        tracer.informational(drc);
        let result = check_layout(&layout.layout, &technology);
        tracer.end(drc);
        violations += result.violations.len();
    }
    report_accounting(&tracer, rounds, untraced_s, traced_s, &mut report);
    // The DRC subset runs once per traced run, not once per round.
    report.metric("layout.drc_s", tracer.total("layout.drc"), "s");
    report.metric("layout.drc_violations", violations as f64, "count");
    moga.report_cache("dse", rounds, &mut report);
    moga.report(rounds, &mut report);
    pool.report(rounds, &mut report);
    let per_round = |n: usize| n as f64 / rounds as f64;
    report.metric("netlist.spice_bytes", per_round(spice_bytes), "B");
    report.metric("layout.emit_bytes", per_round(emit_bytes), "B");
    report.metric(
        "layout.column_template_repeats",
        per_round(template_repeats),
        "count",
    );
    tracer.write_json(trace_path)?;
    Ok(report)
}

/// Traced request time: the root spans recorded since `from`, less the
/// informational calls inside them.
fn traced_request_time(tracer: &Tracer, from: usize) -> f64 {
    tracer.spans()[from..]
        .iter()
        .map(|span| {
            if span.name == "request" {
                span.duration()
            } else if span.informational {
                -span.duration()
            } else {
                0.0
            }
        })
        .sum()
}
