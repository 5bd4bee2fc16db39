//! # easyacim
//!
//! The end-to-end automated ACIM flow of the paper *"EasyACIM: An End-to-End
//! Automated Analog CIM with Synthesizable Architecture and Agile Design
//! Space Exploration"* (DAC 2024), reproduced in Rust.
//!
//! The crate wires the sub-crates of this workspace into the flow of the
//! paper's Figure 4:
//!
//! ```text
//! customized cell library ──┐
//! synthesizable architecture ├─> MOGA-based DSE (NSGA-II) ─> Pareto-frontier set
//! technology files ─────────┘            │ user distillation
//!                                         v
//!                template-based netlist generator ─> template-based
//!                hierarchical placer & router ─> ACIM layouts + reports
//! ```
//!
//! * [`FlowConfig`] collects the three inputs (technology, cell library,
//!   array size) and the exploration/distillation settings,
//! * [`TopFlowController::run`] executes the whole flow and returns a
//!   [`FlowResult`] with the frontier, the distilled set and one
//!   [`GeneratedDesign`] (netlist + layout + metrics) per distilled
//!   solution,
//! * the flow explores and distills through the **typed stages** of
//!   [`stage`], chained with [`stage::Stage::then`], then generates each
//!   distilled design's netlist and layout in one loop,
//! * [`ChipStage`] is this reproduction's extension beyond the paper: a
//!   separate exploration composing chips from several macros against a
//!   workload mix ([`ChipFlowConfig`]); every run and every service
//!   request explores exactly one design space, macro or chip,
//! * [`service::ExplorationService`] is the **multi-tenant front door**:
//!   a bounded, deadline-aware admission scheduler (fixed worker set,
//!   priority queue, cooperative cancellation) runs many concurrent
//!   exploration requests against shared per-design-space evaluation
//!   caches and returns [`service::SessionArchive`]s that warm-start
//!   follow-up requests,
//! * the sub-crates are re-exported under [`prelude`] so downstream users
//!   need a single dependency.
//!
//! # Example
//!
//! ```
//! use easyacim::{FlowConfig, TopFlowController};
//!
//! # fn main() -> Result<(), easyacim::FlowError> {
//! let mut config = FlowConfig::new(4 * 1024);
//! config.dse.population_size = 24;
//! config.dse.generations = 10;
//! config.max_layouts = 1;
//! let result = TopFlowController::new(config)?.run()?;
//! assert!(!result.frontier.is_empty());
//! assert!(!result.designs.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(missing_docs)]

pub mod chip;
pub mod config;
pub mod error;
pub mod flow;
pub mod persistence;
pub mod report;
mod sched;
pub mod service;
pub mod stage;

pub use chip::{ChipFlowConfig, ChipFlowResult};
pub use config::FlowConfig;
pub use error::FlowError;
pub use flow::{FlowOptions, FlowResult, GeneratedDesign, TopFlowController};
pub use persistence::{RestoreReport, SnapshotReport};
pub use report::{
    chip_frontier_table, chip_report, design_report, frontier_table, telemetry_section,
    tenant_table,
};
pub use service::{
    Deadline, ExplorationRequest, ExplorationResponse, ExplorationService, JobHandle, JobProgress,
    Priority, ServiceConfig, ServiceError, SessionArchive, SubmitError,
};
pub use stage::{ChipStage, ProgressObserver, Stage, StageProgress, TraceContext};

// The cooperative-cancellation vocabulary of
// [`acim_dse::ExploreOptions::cancel`], re-exported so downstream users
// can build and trip tokens without naming the MOGA crate.
pub use acim_moga::{CancelReason, CancelToken};

// The typed error vocabulary of [`service::ExplorationService::restore`],
// re-exported so downstream users can match rejection reasons without
// naming the persistence crate.
pub use acim_persist::PersistError;

// The telemetry vocabulary of [`ExplorationService::telemetry`] and
// [`FlowOptions::trace`], re-exported so downstream users can encode and
// diff snapshots without naming the telemetry crate.
pub use acim_telemetry::{json_text, prometheus_text, Telemetry, TelemetrySnapshot};

/// Convenience re-exports of the whole EasyACIM workspace.
pub mod prelude {
    pub use acim_arch::{AcimMacro, AcimSpec, NoiseConfig};
    pub use acim_cell::{CellKind, CellLibrary};
    pub use acim_chip::{
        simulate_mix, ChipEvaluator, ChipMetrics, ChipSimReport, ChipSpec, MacroGrid,
        MacroMetricsCache, MixMetrics, MixObjective, MixSimReport, Network, Tenant, TenantMetrics,
        TenantQuant, WorkloadMix,
    };
    pub use acim_dse::{
        ChipDesignPoint, ChipDseConfig, ChipExplorer, DesignPoint, DesignSpaceExplorer, DseConfig,
        ExploreOptions, RobustnessConfig, RobustnessSweep, UserRequirements,
    };
    pub use acim_layout::{LayoutFlow, MacroLayout};
    pub use acim_model::{evaluate, DesignMetrics, ModelParams};
    pub use acim_moga::{
        CacheStats, CacheStore, CachedProblem, CancelReason, CancelToken, EvalStats, Nsga2,
        Nsga2Config, Problem,
    };
    pub use acim_netlist::{write_spice, NetlistGenerator};
    pub use acim_tech::Technology;
    pub use acim_workloads::ApplicationProfile;

    pub use acim_telemetry::{
        json_text, prometheus_text, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Span,
        SpanRecord, SpanRecorder, Telemetry, TelemetrySnapshot,
    };

    pub use crate::{
        ChipFlowConfig, ChipFlowResult, ChipStage, Deadline, ExplorationRequest,
        ExplorationResponse, ExplorationService, FlowConfig, FlowOptions, FlowResult,
        GeneratedDesign, JobHandle, JobProgress, PersistError, Priority, RestoreReport,
        ServiceConfig, ServiceError, SessionArchive, SnapshotReport, Stage, SubmitError,
        TopFlowController, TraceContext,
    };
}
