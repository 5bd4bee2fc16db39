//! Pieces shared by the workloads: the seeded input generator, set-up
//! timing and the per-layer accounting of a traced run.

use std::time::Instant;

use acim_cell::CellLibrary;
use acim_tech::Technology;
use easyacim::service::{ExplorationService, ServiceConfig};
use easyacim::{ExplorationRequest, FlowConfig};

use crate::stats::{median, Report};
use crate::trace::Tracer;

/// NSGA-II seeds of the request catalogue.  Every workload draws its
/// requests from a finite catalogue so every request's frontier digest
/// can be pinned.
pub const SEEDS: [u64; 3] = [11, 22, 33];

/// Array sizes (kb) of the macro request catalogues.
pub const SIZES_KB: [usize; 5] = [1, 2, 4, 8, 16];

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 31;

/// SplitMix64: the benchmark's input generator.  The same `--seed` gives
/// the same request stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One macro request of the catalogue: array size and NSGA-II seed.
#[derive(Debug, Clone, Copy)]
pub struct SizedRequest {
    pub kb: usize,
    pub seed: u64,
}

/// Round `index` of a macro workload: the whole catalogue (every size
/// with every seed) in a seeded order, so every round does the same work.
pub fn sized_round(seed: u64, index: u64) -> Vec<SizedRequest> {
    let mut rng = Rng::new(seed, index + 1);
    let mut requests: Vec<SizedRequest> = SIZES_KB
        .iter()
        .flat_map(|&kb| SEEDS.iter().map(move |&seed| SizedRequest { kb, seed }))
        .collect();
    rng.shuffle(&mut requests);
    requests
}

/// The minimal request every set-up runs once: a 1 kb macro flow at
/// population 8 × 2 generations with one design, which spins up the pool.
pub fn warm_up_config() -> FlowConfig {
    let mut warm = FlowConfig::new(1024);
    warm.dse.population_size = 8;
    warm.dse.generations = 2;
    warm.max_layouts = 1;
    warm
}

/// The set-up of `service_mix`: technology and cell-library build,
/// service construction with `workers` workers, and the warm-up request
/// through it.
pub fn service_setup(workers: usize, telemetry: bool) -> Result<ExplorationService, String> {
    let technology = Technology::s28();
    std::hint::black_box(CellLibrary::s28_default(&technology));
    let config = ServiceConfig::default().with_workers(workers);
    let config = if telemetry {
        config
    } else {
        config.without_telemetry()
    };
    let service = ExplorationService::with_config(config);
    service
        .run(ExplorationRequest::macro_space(warm_up_config()))
        .map_err(|e| e.to_string())?;
    Ok(service)
}

/// Runs a workload's set-up `SETUP_REPEATS` times and returns the last
/// result with the median set-up time (`setup_s`).
pub fn timed_setup<T>(mut set_up: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(set_up()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Whether a traced run starts another repetition of its round: always
/// the first, then only while one more, as long as the mean so far, still
/// ends within `seconds`.  This keeps a traced run near `seconds` even
/// when one round takes most of it.
pub fn another_round(start: Instant, rounds: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    rounds == 0 || elapsed + elapsed / rounds as f64 <= seconds
}

/// Runs the untraced and the traced pass of one request, in the order
/// `plain_first` gives; callers alternate it so warm-up favours neither.
pub fn paired<A, B>(
    plain_first: bool,
    plain: impl FnOnce() -> A,
    traced: impl FnOnce() -> B,
) -> (A, B) {
    if plain_first {
        let a = plain();
        (a, traced())
    } else {
        let b = traced();
        (plain(), b)
    }
}

/// Pool tasks and steals summed over the traced calls.
#[derive(Debug, Default)]
pub struct PoolTotals {
    tasks: u64,
    steals: u64,
}

impl PoolTotals {
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = rayon::pool_metrics();
        let out = f();
        let delta = rayon::pool_metrics().delta_since(&before);
        self.tasks += delta.tasks_executed();
        self.steals += delta.steals();
        out
    }

    pub fn report(&self, rounds: usize, report: &mut Report) {
        let rounds = rounds as f64;
        report.metric("rayon.tasks", self.tasks as f64 / rounds, "count");
        report.metric("rayon.steals", self.steals as f64 / rounds, "count");
    }
}

/// NSGA-II figures summed over the traced rounds.
#[derive(Debug, Default)]
pub struct MogaTotals {
    pub evaluations: usize,
    pub hits: usize,
    pub misses: usize,
    pub eval_s: f64,
    pub generation_s: f64,
    pub generations: Vec<f64>,
}

impl MogaTotals {
    pub fn add(&mut self, engine: &acim_moga::EvalStats) {
        self.evaluations += engine.evaluations;
        self.hits += engine.cache.hits;
        self.misses += engine.cache.misses;
        self.eval_s += engine.eval_seconds;
        self.generation_s += engine.generation_seconds.iter().sum::<f64>();
        self.generations
            .extend_from_slice(&engine.generation_seconds);
    }

    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits as f64, (self.hits + self.misses) as f64)
    }

    /// Reports `<layer>.evaluations` and `<layer>.cache_hit_ratio`, per
    /// round.
    pub fn report_cache(&self, layer: &str, rounds: usize, report: &mut Report) {
        let evaluations = self.evaluations as f64 / rounds as f64;
        report.metric(format!("{layer}.evaluations"), evaluations, "count");
        report.metric(
            format!("{layer}.cache_hit_ratio"),
            self.hit_ratio(),
            "ratio",
        );
    }

    /// Reports the `moga.*` and `model.kernel_evals` metrics, per round.
    pub fn report(&self, rounds: usize, report: &mut Report) {
        let rounds = rounds as f64;
        report.metric("moga.eval_s", self.eval_s / rounds, "s");
        report.metric(
            "moga.select_s",
            (self.generation_s - self.eval_s) / rounds,
            "s",
        );
        report.metric("moga.generation_p50_s", median(&self.generations), "s");
        report.metric("model.kernel_evals", self.misses as f64 / rounds, "count");
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Names of the accounted per-layer spans, with the metric each feeds.
const LAYER_SPANS: [(&str, &str); 10] = [
    ("dse.explore", "dse.explore_s"),
    ("dse.distill", "dse.distill_s"),
    ("netlist.generate", "netlist.generate_s"),
    ("netlist.stats", "netlist.stats_s"),
    ("netlist.spice", "netlist.spice_s"),
    ("layout.generate", "layout.generate_s"),
    ("layout.def", "layout.def_s"),
    ("layout.gds", "layout.gds_s"),
    ("chip.explore", "chip.explore_s"),
    ("chip.simulate", "chip.simulate_s"),
];

/// Reports the self time of every accounted layer span, the informational
/// spans, the service residual, and the accounting ratios of a traced
/// round: `trace.unattributed_ratio` (share of the untraced request time
/// the layer self times do not cover) and `trace.overhead_ratio` (traced
/// over untraced request time).
pub fn report_accounting(
    tracer: &Tracer,
    rounds: usize,
    untraced_s: f64,
    traced_s: f64,
    report: &mut Report,
) {
    let per_round = |seconds: f64| seconds / rounds as f64;
    let by_name = tracer.self_time_by_name();
    let mut attributed = 0.0;
    for (span, metric) in LAYER_SPANS {
        let seconds = by_name.get(span).copied().unwrap_or(0.0);
        attributed += seconds;
        report.metric(metric, per_round(seconds), "s");
    }
    for (span, metric) in [
        ("netlist.validate", "netlist.validate_s"),
        ("layout.column", "layout.column_s"),
        ("chip.evaluate_mix", "chip.evaluate_mix_s"),
    ] {
        report.metric(metric, per_round(tracer.total(span)), "s");
    }
    // The self time of a `service` root span is client latency no stage
    // span covers: reported, but not attributed to any layer.
    let service = by_name.get("service").copied().unwrap_or(0.0);
    report.metric("service.overhead_s", per_round(service), "s");
    let unattributed = 1.0 - ratio(attributed, untraced_s);
    if unattributed > 0.10 {
        report.notes.push(format!(
            "FLAG: trace.unattributed_ratio {unattributed:.3} exceeds 0.10"
        ));
    }
    report.metric("trace.unattributed_ratio", unattributed, "ratio");
    report.metric("trace.overhead_ratio", ratio(traced_s, untraced_s), "ratio");
    report.metric("trace.rounds", rounds as f64, "count");
}
