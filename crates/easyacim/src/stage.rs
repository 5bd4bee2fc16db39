//! Typed, composable flow stages.
//!
//! The paper's Figure-4 flow used to be a hard-coded sequence inside
//! `TopFlowController::run`.  This module breaks it into four [`Stage`]s
//! with typed inputs and outputs, plus the chip exploration —
//!
//! ```text
//! ExploreStage   ()              -> Explored        (NSGA-II Pareto frontier)
//! DistillStage   Explored        -> Distilled       (user requirements applied)
//! NetlistStage   DesignPoint     -> NetlistedDesign (one hierarchical netlist)
//! LayoutStage    NetlistedDesign -> GeneratedDesign (one template-based P&R)
//! ChipStage      ()              -> ChipFlowResult  (multi-macro composition)
//! ```
//!
//! — chained with [`Stage::then`], which only compiles when the output
//! type of one stage is the input type of the next.  Exploration and
//! distillation run once per request; the netlist and layout stages run
//! once per distilled design, in the one loop of
//! [`crate::flow::TopFlowController::run_with`] that bounds the designs,
//! polls the cancel token and ticks their progress.  `ChipStage` runs on
//! its own: it explores a chip design space, not the macro flow's.  The
//! controller in [`crate::flow`] and the multi-tenant service in
//! [`crate::service`] both assemble their pipelines from these pieces;
//! the exploring stages accept [`ExploreOptions`] (shared cache,
//! warm-start seeds) and an optional [`ProgressObserver`], which is how
//! one long-lived service thread observes many concurrent explorations.

use std::sync::Arc;
use std::time::{Duration, Instant};

use acim_cell::CellLibrary;
use acim_chip::simulate_mix;
use acim_dse::{
    ChipExplorer, DesignPoint, DesignSpaceExplorer, DseConfig, ExploreOptions, Frontier,
    UserRequirements,
};
use acim_layout::LayoutFlow;
use acim_moga::{CancelReason, EvalStats};
use acim_netlist::{design_stats, write_spice, Design, DesignStats, NetlistGenerator};
use acim_tech::Technology;
use acim_telemetry::{Histogram, SpanId, Telemetry};

use crate::chip::{ChipFlowConfig, ChipFlowResult};
use crate::error::FlowError;
use crate::flow::GeneratedDesign;

/// One progress tick from a running stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageProgress {
    /// Name of the reporting stage (`"explore"`, `"chip"`, …).
    pub stage: &'static str,
    /// Units of work finished so far (generations for the exploration
    /// stages, designs for netlist/layout).
    pub completed: usize,
    /// Total units of work the stage will perform.
    pub total: usize,
}

/// A shareable progress callback: stages invoke it after every unit of
/// work.  `Arc` so one observer can watch several concurrently running
/// stages (the service's job handles are built on this).
pub type ProgressObserver = Arc<dyn Fn(StageProgress) + Send + Sync>;

/// Maps a tripped [`acim_moga::CancelToken`] to the matching [`FlowError`]
/// variant, tagging it with the interrupted stage's partial progress.
pub(crate) fn cancel_error(reason: CancelReason, completed: usize, total: usize) -> FlowError {
    match reason {
        CancelReason::Cancelled => FlowError::Cancelled { completed, total },
        CancelReason::DeadlineExceeded => FlowError::DeadlineExceeded { completed, total },
    }
}

/// One typed step of the EasyACIM flow.
///
/// A stage consumes its `Input` and produces its `Output` (or a
/// [`FlowError`]); [`Stage::then`] chains two stages into a new one when
/// the types line up, so mis-ordered pipelines fail to compile instead of
/// failing at run time.
pub trait Stage {
    /// What the stage consumes.
    type Input;
    /// What the stage produces.
    type Output;

    /// Short stable name, used in progress events and reports.
    fn name(&self) -> &'static str;

    /// Executes the stage.
    ///
    /// # Errors
    ///
    /// Returns the stage's [`FlowError`] on failure.
    fn run(&self, input: Self::Input) -> Result<Self::Output, FlowError>;

    /// Chains `next` after this stage: the result is itself a [`Stage`]
    /// from this stage's input to `next`'s output.
    fn then<Next>(self, next: Next) -> Then<Self, Next>
    where
        Self: Sized,
        Next: Stage<Input = Self::Output>,
    {
        Then {
            first: self,
            second: next,
        }
    }
}

/// Two stages chained by [`Stage::then`].
#[derive(Debug, Clone)]
pub struct Then<A, B> {
    first: A,
    second: B,
}

impl<A, B> Stage for Then<A, B>
where
    A: Stage,
    B: Stage<Input = A::Output>,
{
    type Input = A::Input;
    type Output = B::Output;

    fn name(&self) -> &'static str {
        "pipeline"
    }

    fn run(&self, input: Self::Input) -> Result<Self::Output, FlowError> {
        self.second.run(self.first.run(input)?)
    }
}

/// Telemetry context threaded through a pipeline assembly: the bundle to
/// record into, plus the span id stage spans are parented under
/// (typically a request's root span, so per-request span trees read
/// `request → stage → generation`).
///
/// Build it once per bundle and clone it per request, setting
/// [`TraceContext::parent`]: clones share the resolved stage histograms
/// instead of walking the registry again.
#[derive(Debug, Clone)]
pub struct TraceContext {
    /// The telemetry bundle (metric registry + span recorder).
    pub telemetry: Telemetry,
    /// Parent span id for stage spans recorded under this context.
    pub parent: Option<SpanId>,
    stages: Arc<StageHistograms>,
}

impl TraceContext {
    /// A context parenting stage spans under `parent`.
    pub fn under(telemetry: Telemetry, parent: Option<SpanId>) -> Self {
        let stages = Arc::new(StageHistograms::resolve(&telemetry));
        Self {
            telemetry,
            parent,
            stages,
        }
    }
}

/// Pre-resolved `stage_seconds{stage}` histogram handles for the known
/// pipeline stages, so an instrumented stage run costs an atomic
/// observation instead of a locked registry walk.
#[derive(Debug)]
struct StageHistograms {
    entries: [(&'static str, Histogram); 5],
}

impl StageHistograms {
    /// Registers (or re-fetches) the histogram of every known stage.
    fn resolve(telemetry: &Telemetry) -> Self {
        let histogram = |stage: &'static str| {
            let handle = telemetry.registry().histogram(
                "stage_seconds",
                "Wall-clock duration of one flow-stage run",
                &[("stage", stage)],
            );
            (stage, handle)
        };
        Self {
            entries: [
                histogram("explore"),
                histogram("distill"),
                histogram("netlist"),
                histogram("layout"),
                histogram("chip"),
            ],
        }
    }

    fn get(&self, stage: &str) -> Option<&Histogram> {
        self.entries
            .iter()
            .find(|(name, _)| *name == stage)
            .map(|(_, handle)| handle)
    }
}

/// A [`Stage`] wrapper that records one tracing span and one
/// `stage_seconds{stage=...}` duration-histogram observation per run.
///
/// With no context attached (`trace: None`) it is a pure pass-through, so
/// pipeline assemblies can wrap unconditionally and let the option decide
/// — telemetry stays observably passive either way.
#[derive(Debug, Clone)]
pub struct Instrumented<S> {
    inner: S,
    trace: Option<TraceContext>,
}

impl<S: Stage> Instrumented<S> {
    /// Wraps `inner`, recording into `trace` when present.
    pub fn new(inner: S, trace: Option<TraceContext>) -> Self {
        Self { inner, trace }
    }

    /// The wrapped stage.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Stage> Stage for Instrumented<S> {
    type Input = S::Input;
    type Output = S::Output;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, input: Self::Input) -> Result<Self::Output, FlowError> {
        let Some(trace) = &self.trace else {
            return self.inner.run(input);
        };
        let mut span = trace
            .telemetry
            .span_with_parent(self.inner.name(), trace.parent);
        let started = Instant::now();
        let result = self.inner.run(input);
        span.attr("ok", if result.is_ok() { "true" } else { "false" });
        let elapsed = started.elapsed();
        match trace.stages.get(self.inner.name()) {
            Some(histogram) => histogram.observe_duration(elapsed),
            None => trace
                .telemetry
                .registry()
                .histogram(
                    "stage_seconds",
                    "Wall-clock duration of one flow-stage run",
                    &[("stage", self.inner.name())],
                )
                .observe_duration(elapsed),
        }
        result
    }
}

/// Output of [`ExploreStage`]: the raw Pareto frontier.
#[derive(Debug, Clone)]
pub struct Explored {
    /// The full frontier set (points + evaluation-engine stats).
    pub frontier: Frontier<DesignPoint>,
    /// Wall-clock time of the exploration.
    pub exploration_time: Duration,
}

/// Output of [`DistillStage`]: the frontier after user distillation.
#[derive(Debug, Clone)]
pub struct Distilled {
    /// The full Pareto frontier found by the explorer.
    pub frontier: Vec<DesignPoint>,
    /// The frontier points surviving the user requirements.
    pub distilled: Vec<DesignPoint>,
    /// Evaluation-engine statistics of the exploration.
    pub engine: EvalStats,
    /// Wall-clock time of the exploration.
    pub exploration_time: Duration,
}

/// One netlisted design, produced by [`NetlistStage`].
#[derive(Debug, Clone)]
pub struct NetlistedDesign {
    /// The design point (spec + estimated metrics).
    pub point: DesignPoint,
    /// The hierarchical netlist.
    pub netlist: Design,
    /// Netlist statistics (cell/transistor counts).
    pub stats: DesignStats,
    /// SPICE text, when the stage was asked to emit files.
    pub spice: Option<String>,
    /// Wall-clock time spent generating the netlist.
    pub netlist_time: Duration,
}

/// The MOGA design-space exploration stage (`() -> Explored`).
#[derive(Clone)]
pub struct ExploreStage {
    config: DseConfig,
    options: ExploreOptions,
    observer: Option<ProgressObserver>,
}

impl ExploreStage {
    /// Creates the stage for one exploration configuration.
    pub fn new(config: DseConfig) -> Self {
        Self {
            config,
            options: ExploreOptions::default(),
            observer: None,
        }
    }

    /// Injects a shared cache / warm-start seeds.
    #[must_use]
    pub fn with_options(mut self, options: ExploreOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a progress observer (one event per generation).
    #[must_use]
    pub fn with_observer(mut self, observer: ProgressObserver) -> Self {
        self.observer = Some(observer);
        self
    }
}

impl std::fmt::Debug for ExploreStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExploreStage")
            .field("config", &self.config)
            .field("options", &self.options)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl Stage for ExploreStage {
    type Input = ();
    type Output = Explored;

    fn name(&self) -> &'static str {
        "explore"
    }

    fn run(&self, (): ()) -> Result<Explored, FlowError> {
        let start = Instant::now();
        let explorer = DesignSpaceExplorer::new(self.config.clone())?;
        let total = self.config.generations;
        let observer = self.observer.clone();
        let frontier = explorer.explore_with(&self.options, |generation| {
            if let Some(observer) = &observer {
                observer(StageProgress {
                    stage: "explore",
                    completed: generation + 1,
                    total,
                });
            }
        })?;
        Ok(Explored {
            frontier,
            exploration_time: start.elapsed(),
        })
    }
}

/// The user-distillation stage (`Explored -> Distilled`).
#[derive(Debug, Clone)]
pub struct DistillStage {
    requirements: UserRequirements,
}

impl DistillStage {
    /// Creates the stage from the user's requirements.
    pub fn new(requirements: UserRequirements) -> Self {
        Self { requirements }
    }
}

impl Stage for DistillStage {
    type Input = Explored;
    type Output = Distilled;

    fn name(&self) -> &'static str {
        "distill"
    }

    fn run(&self, input: Explored) -> Result<Distilled, FlowError> {
        let exploration_time = input.exploration_time;
        let engine = input.frontier.engine.clone();
        let frontier = input.frontier.into_points();
        let distilled = self.requirements.distill(&frontier);
        if distilled.is_empty() {
            return Err(FlowError::EmptyDistilledSet);
        }
        Ok(Distilled {
            frontier,
            distilled,
            engine,
            exploration_time,
        })
    }
}

/// The template-based netlist-generation stage (`DesignPoint ->
/// NetlistedDesign`): one design's hierarchical netlist, its statistics
/// and, when asked, its SPICE text.
pub struct NetlistStage<'a> {
    library: &'a CellLibrary,
    emit_spice: bool,
}

impl<'a> NetlistStage<'a> {
    /// Creates the stage over a cell library.
    pub fn new(library: &'a CellLibrary, emit_spice: bool) -> Self {
        Self {
            library,
            emit_spice,
        }
    }
}

impl std::fmt::Debug for NetlistStage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetlistStage")
            .field("emit_spice", &self.emit_spice)
            .finish_non_exhaustive()
    }
}

impl Stage for NetlistStage<'_> {
    type Input = DesignPoint;
    type Output = NetlistedDesign;

    fn name(&self) -> &'static str {
        "netlist"
    }

    fn run(&self, point: DesignPoint) -> Result<NetlistedDesign, FlowError> {
        let start = Instant::now();
        let netlist = NetlistGenerator::new(self.library).generate(&point.spec)?;
        let stats = design_stats(&netlist, self.library)?;
        let spice = if self.emit_spice {
            Some(write_spice(&netlist, self.library)?)
        } else {
            None
        };
        Ok(NetlistedDesign {
            point,
            netlist,
            stats,
            spice,
            netlist_time: start.elapsed(),
        })
    }
}

/// The template-based place-and-route stage (`NetlistedDesign ->
/// GeneratedDesign`): lays out one netlisted design.
pub struct LayoutStage<'a> {
    technology: &'a Technology,
    library: &'a CellLibrary,
}

impl<'a> LayoutStage<'a> {
    /// Creates the stage over a technology and cell library.
    pub fn new(technology: &'a Technology, library: &'a CellLibrary) -> Self {
        Self {
            technology,
            library,
        }
    }
}

impl std::fmt::Debug for LayoutStage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayoutStage").finish_non_exhaustive()
    }
}

impl Stage for LayoutStage<'_> {
    type Input = NetlistedDesign;
    type Output = GeneratedDesign;

    fn name(&self) -> &'static str {
        "layout"
    }

    fn run(&self, netlisted: NetlistedDesign) -> Result<GeneratedDesign, FlowError> {
        let start = Instant::now();
        let layout =
            LayoutFlow::new(self.technology, self.library).generate(&netlisted.point.spec)?;
        Ok(GeneratedDesign {
            point: netlisted.point,
            netlist: netlisted.netlist,
            netlist_stats: netlisted.stats,
            layout,
            spice: netlisted.spice,
            generation_time: netlisted.netlist_time + start.elapsed(),
        })
    }
}

/// The chip-composition stage (`() -> ChipFlowResult`): multi-macro
/// co-exploration plus optional behavioural validation of the best chip.
///
/// Input-free like [`ExploreStage`]: it depends only on its
/// configuration.  It is a run of its own, not a step of the macro flow;
/// the service runs it for chip requests.
#[derive(Clone)]
pub struct ChipStage {
    config: ChipFlowConfig,
    options: ExploreOptions,
    observer: Option<ProgressObserver>,
}

impl ChipStage {
    /// Creates the stage.
    pub fn new(config: ChipFlowConfig) -> Self {
        Self {
            config,
            options: ExploreOptions::default(),
            observer: None,
        }
    }

    /// Injects a shared cache / warm-start seeds.
    #[must_use]
    pub fn with_options(mut self, options: ExploreOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a progress observer (one event per generation).
    #[must_use]
    pub fn with_observer(mut self, observer: ProgressObserver) -> Self {
        self.observer = Some(observer);
        self
    }
}

impl std::fmt::Debug for ChipStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChipStage")
            .field("config", &self.config)
            .field("options", &self.options)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl Stage for ChipStage {
    type Input = ();
    type Output = ChipFlowResult;

    fn name(&self) -> &'static str {
        "chip"
    }

    fn run(&self, (): ()) -> Result<ChipFlowResult, FlowError> {
        let start = Instant::now();
        let explorer = ChipExplorer::new(self.config.dse.clone())?;
        let total = self.config.dse.generations;
        let observer = self.observer.clone();
        let frontier = explorer.explore_with(&self.options, |generation| {
            if let Some(observer) = &observer {
                observer(StageProgress {
                    stage: "chip",
                    completed: generation + 1,
                    total,
                });
            }
        })?;
        let engine = frontier.engine.clone();
        let front = frontier.into_points();
        let exploration_time = start.elapsed();

        let mut result = ChipFlowResult {
            front,
            engine,
            exploration_time,
            validation: None,
            mix_validation: None,
        };
        if self.config.validate_best {
            if let Some(best) = result.best_throughput() {
                // Simulate with the parameters the exploration scored with,
                // so the behavioural latencies and energy match the
                // analytic ones.
                let mut report = simulate_mix(
                    &best.chip,
                    explorer.problem().mix(),
                    &self.config.dse.params,
                    self.config.validation_seed,
                )?;
                // A mix of one reports its lone tenant's validation.
                if report.tenants.len() == 1 {
                    result.validation = report.tenants.pop().map(|tenant| tenant.report);
                } else {
                    result.mix_validation = Some(report);
                }
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn quick_dse() -> DseConfig {
        DseConfig {
            array_size: 4 * 1024,
            population_size: 24,
            generations: 8,
            ..Default::default()
        }
    }

    #[test]
    fn explore_then_distill_composes() {
        let events = Arc::new(AtomicUsize::new(0));
        let counter = events.clone();
        let observer: ProgressObserver = Arc::new(move |event: StageProgress| {
            assert_eq!(event.stage, "explore");
            assert_eq!(event.total, 8);
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let pipeline = ExploreStage::new(quick_dse())
            .with_observer(observer)
            .then(DistillStage::new(UserRequirements::none()));
        assert_eq!(pipeline.name(), "pipeline");
        let distilled = pipeline.run(()).unwrap();
        assert!(!distilled.frontier.is_empty());
        assert!(!distilled.distilled.is_empty());
        assert!(distilled.engine.evaluations > 0);
        assert_eq!(events.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn distill_can_reject_everything() {
        let requirements = UserRequirements {
            min_snr_db: Some(500.0),
            ..UserRequirements::none()
        };
        let pipeline = ExploreStage::new(quick_dse()).then(DistillStage::new(requirements));
        assert!(matches!(
            pipeline.run(()),
            Err(FlowError::EmptyDistilledSet)
        ));
    }

    #[test]
    fn netlist_then_layout_stages_generate_one_design() {
        let technology = Technology::s28();
        let library = CellLibrary::s28_default(&technology);
        let distilled = ExploreStage::new(quick_dse())
            .then(DistillStage::new(UserRequirements::none()))
            .run(())
            .unwrap();
        let point = distilled.distilled[0];
        let design = NetlistStage::new(&library, false)
            .then(LayoutStage::new(&technology, &library))
            .run(point)
            .unwrap();
        assert_eq!(design.point, point);
        assert_eq!(
            design.netlist_stats.sram_cells,
            design.point.spec.array_size()
        );
        assert!(design.spice.is_none());
        assert!(design.generation_time > Duration::ZERO);
    }

    #[test]
    fn instrumented_stage_records_span_and_histogram() {
        let telemetry = Telemetry::new();
        let root = telemetry.span("request");
        let trace = TraceContext::under(telemetry.clone(), root.as_parent());
        let stage = Instrumented::new(
            ExploreStage::new(quick_dse()).then(DistillStage::new(UserRequirements::none())),
            Some(trace),
        );
        assert_eq!(stage.name(), "pipeline");
        let distilled = stage.run(()).unwrap();
        assert!(!distilled.distilled.is_empty());
        let root_id = root.id();
        drop(root);
        let snapshot = telemetry.snapshot();
        let hist = snapshot
            .histogram("stage_seconds", &[("stage", "pipeline")])
            .expect("stage histogram registered");
        assert_eq!(hist.count, 1);
        assert!(hist.quantile(0.5).is_finite());
        let span = snapshot
            .spans
            .iter()
            .find(|s| s.name == "pipeline")
            .expect("stage span recorded");
        assert_eq!(span.parent, Some(root_id));
        assert!(span.attributes.contains(&("ok".into(), "true".into())));
    }

    #[test]
    fn uninstrumented_wrapper_is_a_pure_pass_through() {
        let stage = Instrumented::new(
            ExploreStage::new(quick_dse()).then(DistillStage::new(UserRequirements::none())),
            None,
        );
        assert!(stage.inner().name() == "pipeline");
        assert!(!stage.run(()).unwrap().distilled.is_empty());
    }

    #[test]
    fn stage_names_are_stable() {
        let technology = Technology::s28();
        let library = CellLibrary::s28_default(&technology);
        assert_eq!(ExploreStage::new(quick_dse()).name(), "explore");
        assert_eq!(
            DistillStage::new(UserRequirements::none()).name(),
            "distill"
        );
        assert_eq!(NetlistStage::new(&library, false).name(), "netlist");
        assert_eq!(LayoutStage::new(&technology, &library).name(), "layout");
    }
}
