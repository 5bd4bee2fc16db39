//! `service_mix`: closed loop, two clients against one long-lived
//! `ExplorationService`, a seeded stream of chip, mix and small macro
//! requests, some warm-started from the client's earlier sessions.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use acim_chip::{ChipEvaluator, Network, WorkloadMix};
use acim_dse::ChipDesignPoint;
use acim_moga::EvalStats;
use easyacim::service::{ExplorationResponse, ExplorationService, SessionArchive};
use easyacim::{ChipFlowConfig, ExplorationRequest, FlowConfig, TelemetrySnapshot};

use crate::checks;
use crate::common::{
    another_round, ratio, report_accounting, service_setup, timed_setup, MogaTotals, PoolTotals,
    Rng, SEEDS,
};
use crate::pins;
use crate::stats::{median, peak_rss_mb, Report};
use crate::trace::Tracer;

/// Concurrent closed-loop clients.
pub const CLIENTS: usize = 2;

/// Requests per client round: every kind with every seed.  The first
/// round is all cold and the same set for every seed; its frontiers feed
/// `frontier_hv`, and it is the round the traced run replays.
pub const ROUND: usize = Kind::ALL.len() * SEEDS.len();

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    EdgeCnn,
    Transformer,
    EdgeMix,
    Macro1k,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::EdgeCnn,
        Kind::Transformer,
        Kind::EdgeMix,
        Kind::Macro1k,
    ];

    /// The workload a chip request co-schedules; `None` for macro requests.
    pub fn mix(self) -> Option<WorkloadMix> {
        match self {
            Kind::EdgeCnn => Some(WorkloadMix::single(Network::edge_cnn(3))),
            Kind::Transformer => Some(WorkloadMix::single(Network::transformer_block())),
            Kind::EdgeMix => Some(WorkloadMix::edge_mix()),
            Kind::Macro1k => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::EdgeCnn => "edge_cnn",
            Kind::Transformer => "transformer_block",
            Kind::EdgeMix => "edge_mix",
            Kind::Macro1k => "macro_1k",
        }
    }
}

/// One request of the stream: kind, NSGA-II seed, and the seed of the
/// client's earlier cold session it warm-starts from, if any.
#[derive(Debug, Clone, Copy)]
pub struct MixRequest {
    pub kind: Kind,
    pub seed: u64,
    pub warm_from: Option<u64>,
}

/// NSGA-II budget of every request, taken from the `exploration_service`
/// example (population 40 × 24 generations, with `edge_cnn(3)`).
pub const POPULATION: usize = 40;
pub const GENERATIONS: usize = 24;

pub fn chip_config(mix: WorkloadMix, seed: u64) -> ChipFlowConfig {
    let mut config = ChipFlowConfig::for_mix(mix);
    config.dse.population_size = POPULATION;
    config.dse.generations = GENERATIONS;
    config.dse.seed = seed;
    config
}

pub fn macro_config(seed: u64) -> FlowConfig {
    let mut config = FlowConfig::new(1024);
    config.dse.population_size = POPULATION;
    config.dse.generations = GENERATIONS;
    config.dse.seed = seed;
    config.max_layouts = 1;
    config
}

pub fn build(request: MixRequest, session: Option<SessionArchive>) -> ExplorationRequest {
    let built = match request.kind.mix() {
        Some(mix) => ExplorationRequest::chip_space(chip_config(mix, request.seed)),
        None => ExplorationRequest::macro_space(macro_config(request.seed)),
    };
    match session {
        Some(session) => built.warm_start(session),
        None => built,
    }
}

/// The seeded request stream of one client, in rounds: every (kind, seed)
/// pair of the catalogue once, in a seeded order.  From the second round
/// on, one request of each kind (a seeded pick) warm-starts from the
/// client's latest cold session of that kind; the rest run cold.
pub struct Stream {
    rng: Rng,
    round: usize,
    pending: Vec<(Kind, u64, bool)>,
    cold: HashMap<Kind, u64>,
}

impl Stream {
    pub fn new(seed: u64, client: usize) -> Self {
        Self {
            rng: Rng::new(seed, 100 + client as u64),
            round: 0,
            pending: Vec::new(),
            cold: HashMap::new(),
        }
    }

    fn refill(&mut self) {
        self.pending = Kind::ALL
            .iter()
            .flat_map(|&kind| {
                let warm = self.round > 0;
                let pick = self.rng.below(SEEDS.len());
                SEEDS
                    .iter()
                    .enumerate()
                    .map(move |(i, &seed)| (kind, seed, warm && i == pick))
                    .collect::<Vec<_>>()
            })
            .collect();
        self.rng.shuffle(&mut self.pending);
        self.round += 1;
    }
}

impl Iterator for Stream {
    type Item = MixRequest;

    fn next(&mut self) -> Option<MixRequest> {
        if self.pending.is_empty() {
            self.refill();
        }
        let (kind, seed, warm) = self.pending.pop().expect("refilled above");
        let warm_from = if warm {
            self.cold.get(&kind).copied()
        } else {
            None
        };
        if warm_from.is_none() {
            self.cold.insert(kind, seed);
        }
        Some(MixRequest {
            kind,
            seed,
            warm_from,
        })
    }
}

/// Digest and quality-guard front of one response, after the per-kind
/// output checks.
pub struct Checked {
    pub digest: u64,
    pub hv_front: Vec<Vec<f64>>,
}

pub fn check_response(response: &ExplorationResponse) -> Result<Checked, String> {
    match response {
        ExplorationResponse::Macro(macro_response) => {
            let result = &macro_response.result;
            if result.designs.len() != 1 {
                return Err(format!(
                    "macro request laid out {} designs",
                    result.designs.len()
                ));
            }
            for design in &result.designs {
                let spec = design.point.spec;
                if design.netlist_stats.sram_cells != spec.height() * spec.width() {
                    return Err("netlist SRAM cell count differs from H*W".into());
                }
            }
            Ok(Checked {
                digest: checks::macro_frontier_digest(&result.distilled),
                hv_front: checks::macro_hv_front(&result.distilled),
            })
        }
        ExplorationResponse::Chip(chip_response) => {
            let result = &chip_response.result;
            if result.validation.is_none() && result.mix_validation.is_none() {
                return Err("chip request returned no behavioural validation".into());
            }
            Ok(Checked {
                digest: checks::chip_frontier_digest(&result.front),
                hv_front: checks::chip_hv_front(&result.front),
            })
        }
    }
}

/// One finished request, as a client saw it.
pub struct Done {
    pub client: usize,
    pub index: usize,
    pub request: MixRequest,
    pub submitted: Instant,
    pub latency: f64,
    pub outcome: Result<Finished, String>,
}

pub struct Finished {
    pub digest: u64,
    /// The frontier in hypervolume coordinates (first round only).
    pub hv_front: Option<Vec<Vec<f64>>>,
    pub engine: EvalStats,
    pub chip_exploration: Option<Duration>,
    /// The chip front for the traced `evaluate_mix` replay (first round
    /// only, so the run's memory does not grow with its request count).
    pub chip_front: Option<Vec<ChipDesignPoint>>,
}

/// Replays a chip front through `ChipEvaluator::evaluate_mix`; each
/// replayed chip must keep its area.
fn replay(request: MixRequest, mix: WorkloadMix, front: &[ChipDesignPoint]) -> Result<(), String> {
    let config = chip_config(mix, request.seed);
    let evaluator =
        ChipEvaluator::new(config.dse.params, config.dse.cost).map_err(|e| e.to_string())?;
    for point in front {
        let metrics = evaluator
            .evaluate_mix(&point.chip, &config.dse.mix)
            .map_err(|e| e.to_string())?;
        if metrics.area_mf2.to_bits() != point.metrics.area_mf2.to_bits() {
            return Err(format!(
                "{request:?}: evaluate_mix replay changed a chip's area"
            ));
        }
    }
    Ok(())
}

fn label(client: usize, index: usize) -> String {
    format!("c{client}-{index}")
}

/// Runs one client's closed loop against `service`: whole rounds, at
/// least the first, until `seconds` have passed since `start`, at most
/// `limit` requests.
fn client(
    service: &ExplorationService,
    client: usize,
    seed: u64,
    start: Instant,
    seconds: f64,
    limit: usize,
) -> Vec<Done> {
    let mut sessions: HashMap<(Kind, u64), SessionArchive> = HashMap::new();
    let mut done = Vec::new();
    let mut stream = Stream::new(seed, client);
    for index in 0..limit {
        // Whole rounds only: every run measures the same mix of requests.
        if index > 0 && index % ROUND == 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let request = stream.next().expect("endless stream");
        let session = request
            .warm_from
            .and_then(|from| sessions.get(&(request.kind, from)).cloned());
        let submitted = Instant::now();
        let outcome = if request.warm_from.is_some() && session.is_none() {
            Err(format!("{request:?}: warm-start session missing"))
        } else {
            let built = build(request, session).label(label(client, index));
            service
                .submit(built)
                .map_err(|e| format!("rejected: {e}"))
                .and_then(|handle| handle.join().map_err(|e| e.to_string()))
        };
        let latency = submitted.elapsed().as_secs_f64();
        let outcome = outcome.and_then(|response| {
            let checked = check_response(&response)?;
            let pinned = pins::service_mix(request)
                .ok_or_else(|| format!("no pinned digest for {request:?}"))?;
            if checked.digest != pinned {
                return Err(format!(
                    "{request:?}: frontier digest {:016x} != pinned {pinned:016x}",
                    checked.digest
                ));
            }
            let first_round = index < ROUND;
            let hv_front = first_round.then_some(checked.hv_front);
            if request.warm_from.is_none() {
                sessions.insert((request.kind, request.seed), response.session().clone());
            }
            let engine = response.engine().clone();
            let (chip_exploration, chip_front) = match response {
                ExplorationResponse::Chip(chip) => (
                    Some(chip.result.exploration_time),
                    first_round.then_some(chip.result.front),
                ),
                ExplorationResponse::Macro(_) => (None, None),
            };
            Ok(Finished {
                digest: checked.digest,
                hv_front,
                engine,
                chip_exploration,
                chip_front,
            })
        });
        done.push(Done {
            client,
            index,
            request,
            submitted,
            latency,
            outcome,
        });
    }
    done
}

/// Runs every client against `service`; see [`client`].
fn run_clients(
    service: &ExplorationService,
    seed: u64,
    seconds: f64,
    limit: usize,
) -> (Vec<Done>, f64) {
    let start = Instant::now();
    let mut done: Vec<Done> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(service, c, seed, start, seconds, limit)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    done.sort_by_key(|d| (d.client, d.index));
    (done, start.elapsed().as_secs_f64())
}

fn tally(done: &[Done], report: &mut Report) {
    for d in done {
        report.attempted += 1;
        if let Err(err) = &d.outcome {
            report.failed += 1;
            report.notes.push(format!("failed: {err}"));
        }
    }
}

pub fn untraced(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let (service, setup_s) = timed_setup(|| service_setup(CLIENTS, false))?;
    let (done, wall) = run_clients(&service, seed, seconds, usize::MAX);
    report.notes.push(format!(
        "shared caches: {} evaluations, {} macro metrics, {} evictions",
        service.cached_evaluations(),
        service.cached_macro_metrics(),
        service.total_evictions()
    ));
    service.shutdown();
    tally(&done, &mut report);
    let ok: Vec<&Finished> = done
        .iter()
        .filter_map(|d| d.outcome.as_ref().ok())
        .collect();
    let latencies: Vec<f64> = done
        .iter()
        .filter(|d| d.outcome.is_ok())
        .map(|d| d.latency)
        .collect();
    let evaluations: usize = ok.iter().map(|f| f.engine.evaluations).sum();
    let mut hv = Vec::new();
    for d in &done {
        if let Ok(Finished {
            hv_front: Some(front),
            ..
        }) = &d.outcome
        {
            let reference = pins::service_mix_reference(d.request.kind)
                .ok_or_else(|| format!("no pinned reference for {:?}", d.request.kind))?;
            hv.push(checks::hypervolume(front, &reference));
        }
    }
    report.metric("request_p50_s", median(&latencies), "s");
    report.metric("requests_per_s", latencies.len() as f64 / wall, "1/s");
    report.metric(
        "evals_per_s",
        evaluations as f64 / latencies.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("frontier_hv", crate::common::mean(&hv), "hv");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    report.latency_tail(&latencies);
    report.notes.push(format!(
        "{} requests from {CLIENTS} clients in {wall:.2} s",
        latencies.len()
    ));
    Ok(report)
}

/// One stage span of a service request, on the telemetry clock.
struct StageSpan {
    name: String,
    start_us: u64,
    duration_us: u64,
}

/// The root-span start and the stage spans of one labelled request.
struct RequestSpans {
    start_us: u64,
    stages: Vec<StageSpan>,
}

/// The spans of every labelled request in a service telemetry snapshot.
fn request_spans(snapshot: &TelemetrySnapshot) -> HashMap<String, RequestSpans> {
    let mut labels = HashMap::new();
    let mut out = HashMap::new();
    for span in snapshot.spans.iter().filter(|s| s.name == "request") {
        if let Some((_, label)) = span.attributes.iter().find(|(k, _)| k == "label") {
            labels.insert(span.id, label.to_string());
            let spans = RequestSpans {
                start_us: span.start_us,
                stages: Vec::new(),
            };
            out.insert(label.to_string(), spans);
        }
    }
    for span in snapshot.spans.iter().filter(|s| s.name != "generation") {
        if let Some(label) = span.parent.and_then(|p| labels.get(&p)) {
            let spans = out.get_mut(label).expect("registered with its label");
            spans.stages.push(StageSpan {
                name: span.name.to_string(),
                start_us: span.start_us,
                duration_us: span.duration_us,
            });
        }
    }
    out
}

/// The accounted layer span a service stage maps to.
fn layer_of(stage: &str) -> Result<&'static str, String> {
    match stage {
        "explore" => Ok("dse.explore"),
        "distill" => Ok("dse.distill"),
        "netlist" => Ok("netlist.generate"),
        "layout" => Ok("layout.generate"),
        other => Err(format!("unexpected service stage span {other}")),
    }
}

/// Records one traced request: a `service` root span over the client
/// latency, with the request's stage spans as children.  The chip stage
/// splits into `chip.explore` (the exploration time the result reports)
/// and `chip.simulate` (the rest of the stage).
fn record(tracer: &mut Tracer, id: u64, d: &Done, spans: &RequestSpans) -> Result<(), String> {
    let Ok(finished) = &d.outcome else {
        return Ok(());
    };
    let submitted = tracer.at(d.submitted);
    let root = tracer.push("service", id, None, submitted, submitted + d.latency);
    for stage in &spans.stages {
        let begin = submitted + stage.start_us.saturating_sub(spans.start_us) as f64 * 1e-6;
        let end = begin + stage.duration_us as f64 * 1e-6;
        if stage.name == "chip" {
            let explore = finished
                .chip_exploration
                .map_or(0.0, |t| t.as_secs_f64())
                .min(end - begin);
            tracer.push("chip.explore", id, Some(root), begin, begin + explore);
            tracer.push("chip.simulate", id, Some(root), begin + explore, end);
        } else {
            tracer.push(layer_of(&stage.name)?, id, Some(root), begin, end);
        }
    }
    Ok(())
}

pub fn traced(seed: u64, seconds: f64, trace_path: &std::path::Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::default();
    let mut moga = MogaTotals::default();
    let mut macro_moga = MogaTotals::default();
    let mut chip_moga = MogaTotals::default();
    let mut chip_macro = (0usize, 0usize);
    let mut pool = PoolTotals::default();
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut rejected = 0usize;
    let mut rounds = 0;
    let start = Instant::now();
    while another_round(start, rounds, seconds) {
        // One client round per pass, each on a fresh service; alternate
        // which pass goes first, so warm-up favours neither.
        let mut plain = Vec::new();
        let mut done = Vec::new();
        let mut snapshot = None;
        for pass in [rounds % 2, 1 - rounds % 2] {
            if pass == 0 {
                let service = service_setup(CLIENTS, false)?;
                plain = run_clients(&service, seed, 0.0, ROUND).0;
                service.shutdown();
            } else {
                let service = service_setup(CLIENTS, true)?;
                done = pool.measure(|| run_clients(&service, seed, 0.0, ROUND).0);
                snapshot = Some(service.telemetry());
                service.shutdown();
            }
        }
        let snapshot = snapshot.expect("traced pass ran");
        if snapshot.spans_dropped > 0 {
            return Err(format!("{} service spans dropped", snapshot.spans_dropped));
        }
        untraced_s += plain.iter().map(|d| d.latency).sum::<f64>();
        traced_s += done.iter().map(|d| d.latency).sum::<f64>();
        tally(&plain, &mut report);
        tally(&done, &mut report);
        let spans = request_spans(&snapshot);
        for d in &done {
            if matches!(&d.outcome, Err(err) if err.starts_with("rejected")) {
                rejected += 1;
            }
            let id = (rounds * CLIENTS * ROUND + d.client * ROUND + d.index) as u64;
            let name = label(d.client, d.index);
            let request_spans = spans
                .get(&name)
                .ok_or_else(|| format!("no service spans for {name}"))?;
            record(&mut tracer, id, d, request_spans)?;
            let Ok(finished) = &d.outcome else { continue };
            moga.add(&finished.engine);
            match (&finished.chip_front, d.request.kind.mix()) {
                (Some(front), Some(mix)) => {
                    chip_moga.add(&finished.engine);
                    chip_macro.0 += finished.engine.macro_cache.hits;
                    chip_macro.1 += finished.engine.macro_cache.misses;
                    let span = tracer.begin("chip.evaluate_mix", id, None);
                    tracer.informational(span);
                    let replayed = replay(d.request, mix, front);
                    tracer.end(span);
                    if let Err(err) = replayed {
                        report.failed += 1;
                        report.notes.push(format!("failed: {err}"));
                    }
                }
                _ => macro_moga.add(&finished.engine),
            }
        }
        // Both passes ran the same requests: their frontiers must agree.
        for (d, p) in done.iter().zip(&plain) {
            if let (Ok(a), Ok(b)) = (&d.outcome, &p.outcome) {
                if a.digest != b.digest {
                    report.failed += 1;
                    report.notes.push(format!(
                        "failed: {:?} traced and untraced frontiers differ",
                        d.request
                    ));
                }
            }
        }
        rounds += 1;
    }
    report_accounting(&tracer, rounds, untraced_s, traced_s, &mut report);
    moga.report(rounds, &mut report);
    macro_moga.report_cache("dse", rounds, &mut report);
    chip_moga.report_cache("chip", rounds, &mut report);
    report.metric(
        "chip.macro_cache_hit_ratio",
        ratio(chip_macro.0 as f64, (chip_macro.0 + chip_macro.1) as f64),
        "ratio",
    );
    report.metric("service.rejected", rejected as f64 / rounds as f64, "count");
    pool.report(rounds, &mut report);
    tracer.write_json(trace_path)?;
    Ok(report)
}
