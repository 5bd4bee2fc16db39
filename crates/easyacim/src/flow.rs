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
use acim_layout::{LayoutFlow, MacroLayout};
use acim_moga::{CancelToken, EvalStats};
use acim_netlist::{design_stats, write_spice, Design, DesignStats, NetlistGenerator};

use crate::config::FlowConfig;
use crate::error::FlowError;
use crate::stage::{
    cancel_error, traced, DistillStage, ExploreStage, ProgressObserver, Stage, StageProgress,
    TraceContext, TracedStage,
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
    /// exploration polls it at generation boundaries, the controller
    /// before every design's netlist.
    pub exploration: ExploreOptions,
    /// Observer receiving one event per unit of stage progress.
    pub observer: Option<ProgressObserver>,
    /// Telemetry context: when present, every step records one span
    /// (parented under the context's parent span) and one
    /// `stage_seconds` observation — once per request for exploration and
    /// distillation, once per design for netlist and layout.
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
    /// Explore → distill run once, as the typed pipeline of
    /// [`crate::stage`]; then each of the first `max_layouts` distilled
    /// designs (`0` = all) gets its netlist (with statistics and, when
    /// `emit_files` is set, SPICE text) and its layout, in distilled
    /// order.  Before each design the cancel token is polled; after each
    /// step of a design the observer gets a `netlist` or `layout` tick.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] when any stage fails, or the cancellation
    /// error counting the designs finished before the token tripped.
    pub fn run_with(&self, options: &FlowOptions) -> Result<FlowResult, FlowError> {
        let start = Instant::now();
        let mut explore =
            ExploreStage::new(self.config.dse.clone()).with_options(options.exploration.clone());
        if let Some(observer) = &options.observer {
            explore = explore.with_observer(observer.clone());
        }
        let trace = options.trace.as_ref();
        let explored = traced(trace, TracedStage::Explore, || explore.run(()))?;
        let distill = DistillStage::new(self.config.requirements);
        let distilled = traced(trace, TracedStage::Distill, || distill.run(explored))?;

        let library = &self.library;
        let generator = NetlistGenerator::new(library);
        let layout_flow = LayoutFlow::new(&self.config.technology, library);
        let total = match self.config.max_layouts {
            0 => distilled.distilled.len(),
            limit => limit.min(distilled.distilled.len()),
        };
        let tick = |stage, completed| {
            if let Some(observer) = &options.observer {
                observer(StageProgress {
                    stage,
                    completed,
                    total,
                });
            }
        };
        let cancel = options.exploration.cancel.as_ref();
        let mut designs = Vec::with_capacity(total);
        for (index, point) in distilled.distilled.iter().take(total).enumerate() {
            if let Some(reason) = cancel.and_then(CancelToken::status) {
                return Err(cancel_error(reason, index, total));
            }
            let started = Instant::now();
            let (netlist, netlist_stats, spice) = traced(trace, TracedStage::Netlist, || {
                let netlist = generator.generate(&point.spec)?;
                let stats = design_stats(&netlist, library)?;
                let spice = if self.config.emit_files {
                    Some(write_spice(&netlist, library)?)
                } else {
                    None
                };
                Ok((netlist, stats, spice))
            })?;
            let netlist_time = started.elapsed();
            tick("netlist", index + 1);
            let started = Instant::now();
            let layout = traced(trace, TracedStage::Layout, || {
                Ok(layout_flow.generate(&point.spec)?)
            })?;
            designs.push(GeneratedDesign {
                point: *point,
                netlist,
                netlist_stats,
                layout,
                spice,
                generation_time: netlist_time + started.elapsed(),
            });
            tick("layout", index + 1);
        }

        Ok(FlowResult {
            frontier: distilled.frontier,
            distilled: distilled.distilled,
            designs,
            exploration_time: distilled.exploration_time,
            total_time: start.elapsed(),
            engine: distilled.engine,
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
            assert!(design.generation_time > Duration::ZERO);
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

    type Tick = (&'static str, usize, usize);

    /// Runs a `max_layouts = 2` flow that records every progress event as
    /// `(stage, completed, total)` and trips its token on the first event
    /// of stage `trip_on`.
    fn observed_run(trip_on: &'static str) -> (Vec<Tick>, Result<FlowResult, FlowError>) {
        use std::sync::{Arc, Mutex};

        let cancel = CancelToken::new();
        let trip = cancel.clone();
        let events = Arc::new(Mutex::new(Vec::new()));
        let seen = events.clone();
        let observer: ProgressObserver = Arc::new(move |e: StageProgress| {
            seen.lock().unwrap().push((e.stage, e.completed, e.total));
            if e.stage == trip_on {
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
        let result = controller.run_with(&options);
        let events = events.lock().unwrap().clone();
        (events, result)
    }

    #[test]
    fn each_design_is_laid_out_before_the_next_is_netlisted() {
        let (events, result) = observed_run("none");
        assert_eq!(result.unwrap().designs.len(), 2);
        let generations = quick_config(4 * 1024).dse.generations;
        let explore: Vec<Tick> = (1..=generations)
            .map(|g| ("explore", g, generations))
            .collect();
        assert_eq!(events[..generations], explore[..]);
        assert_eq!(
            events[generations..],
            [
                ("netlist", 1, 2),
                ("layout", 1, 2),
                ("netlist", 2, 2),
                ("layout", 2, 2)
            ]
        );
    }

    #[test]
    fn a_cancel_after_the_first_layout_stops_before_the_second_netlist() {
        let (events, result) = observed_run("layout");
        assert!(matches!(
            result,
            Err(FlowError::Cancelled {
                completed: 1,
                total: 2
            })
        ));
        let generations = quick_config(4 * 1024).dse.generations;
        assert_eq!(events[generations..], [("netlist", 1, 2), ("layout", 1, 2)]);
    }

    #[test]
    fn designs_match_the_direct_generators_in_distilled_order() {
        use acim_layout::LayoutFlow;
        use acim_netlist::{write_spice, NetlistGenerator};

        for max_layouts in [2, 0] {
            let mut config = quick_config(4 * 1024);
            config.max_layouts = max_layouts;
            config.emit_files = true;
            let controller = TopFlowController::new(config).unwrap();
            let result = controller.run().unwrap();
            let expected = match max_layouts {
                0 => result.distilled.len(),
                limit => limit,
            };
            assert_eq!(result.designs.len(), expected);

            let library = controller.library();
            let generator = NetlistGenerator::new(library);
            let layout = LayoutFlow::new(&controller.config().technology, library);
            for (design, point) in result.designs.iter().zip(&result.distilled) {
                assert_eq!(design.point, *point);
                let spice = write_spice(&generator.generate(&point.spec).unwrap(), library);
                assert_eq!(design.spice, Some(spice.unwrap()));
                let metrics = layout.generate(&point.spec).unwrap().metrics;
                assert_eq!(design.layout.metrics, metrics);
            }
        }
    }

    #[test]
    fn library_has_all_cells() {
        let controller = TopFlowController::new(quick_config(1024)).unwrap();
        assert_eq!(controller.library().len(), 7);
        assert_eq!(controller.config().dse.array_size, 1024);
    }
}
