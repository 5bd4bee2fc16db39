//! Typed, composable flow stages.
//!
//! The paper's Figure-4 flow used to be a hard-coded sequence inside
//! `TopFlowController::run`.  This module holds its exploring stages as
//! [`Stage`]s with typed inputs and outputs —
//!
//! ```text
//! ExploreStage   ()       -> Explored       (NSGA-II Pareto frontier)
//! DistillStage   Explored -> Distilled      (user requirements applied)
//! ChipStage      ()       -> ChipFlowResult (multi-macro composition)
//! ```
//!
//! — chained with [`Stage::then`], which only compiles when the output
//! type of one stage is the input type of the next.  Exploration and
//! distillation run once per request; each distilled design's netlist and
//! layout are generated in the one loop of
//! [`crate::flow::TopFlowController::run_with`] that bounds the designs,
//! polls the cancel token and ticks their progress.  `ChipStage` runs on
//! its own: it explores a chip design space, not the macro flow's.  The
//! exploring stages accept [`ExploreOptions`] (shared cache, warm-start
//! seeds) and an optional [`ProgressObserver`], which is how one
//! long-lived service thread observes many concurrent explorations.
//!
//! A [`TraceContext`] records each step the flow and the service run —
//! explore, distill, each design's netlist and layout, a chip
//! exploration — as one span and one `stage_seconds{stage}` observation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use acim_chip::simulate_mix;
use acim_dse::{
    ChipExplorer, DesignPoint, DesignSpaceExplorer, DseConfig, ExploreOptions, Frontier,
    UserRequirements,
};
use acim_moga::{CancelReason, EvalStats};
use acim_telemetry::{Histogram, SpanId, Telemetry};

use crate::chip::{ChipFlowConfig, ChipFlowResult};
use crate::error::FlowError;

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

    fn run(&self, input: Self::Input) -> Result<Self::Output, FlowError> {
        self.second.run(self.first.run(input)?)
    }
}

/// Telemetry context threaded through a flow run: the bundle to record
/// into, plus the span id step spans are parented under (typically a
/// request's root span, so per-request span trees read
/// `request → stage → generation`).
///
/// Build it once per bundle and clone it per request, setting
/// [`TraceContext::parent`]: clones share the `stage_seconds` histograms
/// resolved once in [`TraceContext::under`].
#[derive(Debug, Clone)]
pub struct TraceContext {
    /// The telemetry bundle (metric registry + span recorder).
    pub telemetry: Telemetry,
    /// Parent span id for step spans recorded under this context.
    pub parent: Option<SpanId>,
    stages: Arc<[Histogram; TracedStage::ALL.len()]>,
}

impl TraceContext {
    /// A context parenting step spans under `parent`.
    pub fn under(telemetry: Telemetry, parent: Option<SpanId>) -> Self {
        let stages = Arc::new(TracedStage::ALL.map(|stage| {
            telemetry.registry().histogram(
                "stage_seconds",
                "Wall-clock duration of one flow-stage run",
                &[("stage", stage.name())],
            )
        }));
        Self {
            telemetry,
            parent,
            stages,
        }
    }
}

/// The steps a [`TraceContext`] records, one span name and one
/// `stage_seconds{stage}` series each.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TracedStage {
    Explore,
    Distill,
    Netlist,
    Layout,
    Chip,
}

impl TracedStage {
    const ALL: [Self; 5] = [
        Self::Explore,
        Self::Distill,
        Self::Netlist,
        Self::Layout,
        Self::Chip,
    ];

    /// The span name and `stage` label.
    fn name(self) -> &'static str {
        match self {
            Self::Explore => "explore",
            Self::Distill => "distill",
            Self::Netlist => "netlist",
            Self::Layout => "layout",
            Self::Chip => "chip",
        }
    }
}

/// Runs one flow step.  Under a context it records one span named after
/// `stage`, parented under the context's parent and carrying an `ok`
/// attribute, and one `stage_seconds{stage}` observation; without one it
/// only runs the step, so telemetry stays observably passive either way.
pub(crate) fn traced<T>(
    trace: Option<&TraceContext>,
    stage: TracedStage,
    step: impl FnOnce() -> Result<T, FlowError>,
) -> Result<T, FlowError> {
    let Some(trace) = trace else {
        return step();
    };
    let mut span = trace.telemetry.span_with_parent(stage.name(), trace.parent);
    let started = Instant::now();
    let result = step();
    span.attr("ok", if result.is_ok() { "true" } else { "false" });
    trace.stages[stage as usize].observe_duration(started.elapsed());
    result
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
    fn traced_records_one_span_and_one_sample_per_step() {
        let telemetry = Telemetry::new();
        let root = telemetry.span("request");
        let trace = TraceContext::under(telemetry.clone(), root.as_parent());
        assert_eq!(
            traced(Some(&trace), TracedStage::Netlist, || Ok(7)).unwrap(),
            7
        );
        let failing = traced(Some(&trace), TracedStage::Layout, || {
            Err::<(), _>(FlowError::EmptyDistilledSet)
        });
        assert!(matches!(failing, Err(FlowError::EmptyDistilledSet)));
        // Without a context the step just runs.
        assert_eq!(traced(None, TracedStage::Chip, || Ok(3)).unwrap(), 3);
        let root_id = root.id();
        drop(root);

        let snapshot = telemetry.snapshot();
        for (stage, ok) in [("netlist", "true"), ("layout", "false")] {
            let spans: Vec<_> = snapshot.spans.iter().filter(|s| s.name == stage).collect();
            assert_eq!(spans.len(), 1, "{stage} spans");
            assert_eq!(spans[0].parent, Some(root_id));
            assert!(spans[0].attributes.contains(&("ok".into(), ok.into())));
            let hist = snapshot
                .histogram("stage_seconds", &[("stage", stage)])
                .expect("stage histogram registered");
            assert_eq!(hist.count, 1);
        }
        assert!(snapshot.spans.iter().all(|s| s.name != "chip"));
        let chip = snapshot
            .histogram("stage_seconds", &[("stage", "chip")])
            .expect("every stage resolved up front");
        assert_eq!(chip.count, 0);
    }
}
