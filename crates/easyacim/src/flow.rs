//! The top flow controller (Figure 4), assembled from the typed stages of
//! [`crate::stage`].
//!
//! [`TopFlowController::run`] is the cold single-tenant entry point; the
//! multi-tenant [`crate::service::ExplorationService`] drives the same
//! stages through [`TopFlowController::run_with`], injecting shared
//! caches, warm-start seeds and a progress observer via [`FlowOptions`].
//! Both paths produce bit-identical results for a fixed configuration —
//! the options only change *how fast* the frontier is found, never what
//! it is.
//!
//! A flow explores exactly one macro design space.  Composing chips from
//! macros is a separate exploration: a [`crate::stage::ChipStage`] run, or
//! a chip request beside the macro request on the service, which shares
//! one macro-metric cache between the two.

use std::time::{Duration, Instant};

use acim_cell::CellLibrary;
use acim_dse::{DesignPoint, ExploreOptions};
use acim_layout::MacroLayout;
use acim_moga::EvalStats;
use acim_netlist::{Design, DesignStats};

use crate::config::FlowConfig;
use crate::error::FlowError;
use crate::stage::{
    DistillStage, ExploreStage, Instrumented, LayoutStage, NetlistStage, ProgressObserver, Stage,
    TraceContext,
};

/// One fully generated design: the distilled Pareto point, its hierarchical
/// netlist and its layout.
#[derive(Debug, Clone)]
pub struct GeneratedDesign {
    /// The design point (spec + estimated metrics).
    pub point: DesignPoint,
    /// The hierarchical netlist.
    pub netlist: Design,
    /// Netlist statistics (cell/transistor counts).
    pub netlist_stats: DesignStats,
    /// The generated macro layout and its measured metrics.
    pub layout: MacroLayout,
    /// SPICE text of the netlist, when `emit_files` was requested.
    pub spice: Option<String>,
    /// Wall-clock time spent generating this design's netlist and layout.
    pub generation_time: Duration,
}

/// The result of an end-to-end run.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The full Pareto-frontier set found by the explorer.
    pub frontier: Vec<DesignPoint>,
    /// The frontier after user distillation.
    pub distilled: Vec<DesignPoint>,
    /// Netlists + layouts for the distilled solutions (up to `max_layouts`).
    pub designs: Vec<GeneratedDesign>,
    /// Wall-clock time of the design-space exploration.
    pub exploration_time: Duration,
    /// Total wall-clock time of the run.
    pub total_time: Duration,
    /// Evaluation-engine statistics of the macro exploration
    /// (evaluations, cache hit/miss counters, wall-clock breakdown).
    pub engine: EvalStats,
}

/// Injection points a long-lived caller (the
/// [`crate::service::ExplorationService`]) threads into one flow run:
/// a shared evaluation cache, warm-start seeds, a cancellation token, a
/// progress observer and a telemetry context.  The default is a cold,
/// unobserved, self-contained run.
#[derive(Clone, Default)]
pub struct FlowOptions {
    /// Cache / warm-start / cancellation injection for the exploration.
    /// Its [`ExploreOptions::cancel`] token is the run's only one: the
    /// exploration polls it at generation boundaries, the netlist and
    /// layout stages before every design.
    pub exploration: ExploreOptions,
    /// Observer receiving one event per unit of stage progress.
    pub observer: Option<ProgressObserver>,
    /// Telemetry context: when present, every stage is wrapped in an
    /// [`Instrumented`] adapter recording per-stage spans (parented under
    /// the context's parent span) and `stage_seconds` histograms.
    pub trace: Option<TraceContext>,
}

impl std::fmt::Debug for FlowOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowOptions")
            .field("exploration", &self.exploration)
            .field("observed", &self.observer.is_some())
            .field("traced", &self.trace.is_some())
            .finish()
    }
}

/// The EasyACIM top flow controller.
#[derive(Debug, Clone)]
pub struct TopFlowController {
    config: FlowConfig,
    library: CellLibrary,
}

impl TopFlowController {
    /// Creates the controller, building the customized cell library for the
    /// configured technology.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn new(config: FlowConfig) -> Result<Self, FlowError> {
        config.validate()?;
        let library = CellLibrary::s28_default(&config.technology);
        Ok(Self { config, library })
    }

    /// The cell library used by the flow.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// The configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Runs the full flow: exploration → distillation → netlist → layout.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] when any stage fails, or
    /// [`FlowError::EmptyDistilledSet`] when the user requirements reject
    /// every frontier solution.
    pub fn run(&self) -> Result<FlowResult, FlowError> {
        self.run_with(&FlowOptions::default())
    }

    /// Runs the full flow with caller-injected [`FlowOptions`].
    ///
    /// The stages are the typed pipeline of [`crate::stage`]:
    /// explore → distill → netlist → layout.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] when any stage fails.
    pub fn run_with(&self, options: &FlowOptions) -> Result<FlowResult, FlowError> {
        let start = Instant::now();
        let mut explore =
            ExploreStage::new(self.config.dse.clone()).with_options(options.exploration.clone());
        let mut netlist = NetlistStage::new(
            &self.library,
            self.config.emit_files,
            self.config.max_layouts,
        );
        let mut layout = LayoutStage::new(&self.config.technology, &self.library);
        if let Some(observer) = &options.observer {
            explore = explore.with_observer(observer.clone());
            netlist = netlist.with_observer(observer.clone());
            layout = layout.with_observer(observer.clone());
        }
        if let Some(cancel) = &options.exploration.cancel {
            netlist = netlist.with_cancel(cancel.clone());
            layout = layout.with_cancel(cancel.clone());
        }
        let trace = &options.trace;
        let laid_out = Instrumented::new(explore, trace.clone())
            .then(Instrumented::new(
                DistillStage::new(self.config.requirements),
                trace.clone(),
            ))
            .then(Instrumented::new(netlist, trace.clone()))
            .then(Instrumented::new(layout, trace.clone()))
            .run(())?;

        Ok(FlowResult {
            frontier: laid_out.frontier,
            distilled: laid_out.distilled,
            designs: laid_out.designs,
            exploration_time: laid_out.exploration_time,
            total_time: start.elapsed(),
            engine: laid_out.engine,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acim_dse::UserRequirements;

    fn quick_config(array_size: usize) -> FlowConfig {
        let mut config = FlowConfig::new(array_size);
        config.dse.population_size = 24;
        config.dse.generations = 12;
        config.max_layouts = 2;
        config
    }

    #[test]
    fn end_to_end_flow_produces_designs() {
        let controller = TopFlowController::new(quick_config(4 * 1024)).unwrap();
        let result = controller.run().unwrap();
        assert!(!result.frontier.is_empty());
        assert!(!result.distilled.is_empty());
        assert!(!result.designs.is_empty());
        assert!(result.designs.len() <= 2);
        assert!(result.engine.evaluations > 0);
        assert!(result.total_time >= result.exploration_time);
        for design in &result.designs {
            assert_eq!(
                design.netlist_stats.sram_cells,
                design.point.spec.array_size()
            );
            assert!(design.layout.metrics.core_area_f2_per_bit > 1000.0);
            assert!(design.spice.is_none());
        }
    }

    #[test]
    fn distillation_filters_and_can_empty_the_set() {
        let mut config = quick_config(4 * 1024);
        config.requirements = UserRequirements {
            min_snr_db: Some(500.0),
            ..UserRequirements::none()
        };
        let controller = TopFlowController::new(config).unwrap();
        assert!(matches!(
            controller.run(),
            Err(FlowError::EmptyDistilledSet)
        ));
    }

    #[test]
    fn emit_files_produces_spice_text() {
        let mut config = quick_config(4 * 1024);
        config.max_layouts = 1;
        config.emit_files = true;
        let result = TopFlowController::new(config).unwrap().run().unwrap();
        let spice = result.designs[0].spice.as_ref().expect("spice emitted");
        assert!(spice.contains(".SUBCKT ACIM_TOP"));
    }

    #[test]
    fn the_exploration_token_also_stops_netlist_and_layout() {
        use crate::stage::StageProgress;
        use acim_moga::CancelToken;
        use std::sync::Arc;

        let cancel = CancelToken::new();
        let trip = cancel.clone();
        // Tripped after the first netlist, when the exploration is over:
        // only the netlist stage's poll before the second design can stop
        // the run.
        let observer: ProgressObserver = Arc::new(move |event: StageProgress| {
            if event.stage == "netlist" {
                trip.cancel();
            }
        });
        let options = FlowOptions {
            exploration: ExploreOptions {
                cancel: Some(cancel),
                ..ExploreOptions::default()
            },
            observer: Some(observer),
            ..FlowOptions::default()
        };
        let controller = TopFlowController::new(quick_config(4 * 1024)).unwrap();
        assert!(matches!(
            controller.run_with(&options),
            Err(FlowError::Cancelled {
                completed: 1,
                total: 2
            })
        ));
    }

    #[test]
    fn library_has_all_cells() {
        let controller = TopFlowController::new(quick_config(1024)).unwrap();
        assert_eq!(controller.library().len(), 7);
        assert_eq!(controller.config().dse.array_size, 1024);
    }
}
