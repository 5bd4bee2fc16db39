//! # acim-chip
//!
//! Chip-level multi-macro accelerator model for the EasyACIM
//! reproduction.
//!
//! The paper's flow produces *one* distilled ACIM macro, but the
//! applications that motivate it (Figure 1's transformers, CNNs and SNNs)
//! never fit a single array.  This crate composes distilled macros into a
//! full accelerator and turns per-macro figures of merit into end-to-end
//! network objectives:
//!
//! * [`grid`] — a mesh of (possibly heterogeneous) macro instances,
//! * [`partition`] — deterministic least-finish-time tiling of every
//!   layer across the grid, co-scheduling the tenants of a
//!   [`WorkloadMix`] round by round,
//! * [`interconnect`] — mesh, global-buffer and digital-accumulation cost
//!   parameters,
//! * [`evaluate`] — the analytic chip evaluator: throughput, energy per
//!   inference, area and an accuracy proxy per tenant, through one method,
//!   [`ChipEvaluator::evaluate_mix`],
//! * [`metrics_cache`] — the macro-metric reuse layer: a shared, bounded,
//!   poison-tolerant cache of per-macro `DesignMetrics` the evaluator
//!   consults instead of re-deriving the same macros chip after chip,
//! * [`simulate`] — the behavioural validation path, driving one
//!   `acim_arch::AcimMacro` per tile with the evaluator's timing and
//!   energy parameters; a single macro is the 1×1 grid.
//!
//! Workloads come from `acim-workloads` (re-exported here): a single
//! [`Network`] is the mix of one, `WorkloadMix::from(network)`.
//!
//! `acim-dse` builds a `ChipDesignProblem` on top of this crate so NSGA-II
//! can co-explore macro shape × macro count × buffer sizing, and
//! `easyacim` runs it as its `ChipStage`.
//!
//! # Example
//!
//! ```
//! use acim_arch::AcimSpec;
//! use acim_chip::{ChipEvaluator, ChipSpec, MacroGrid, Network, WorkloadMix};
//!
//! # fn main() -> Result<(), acim_chip::ChipError> {
//! let spec = AcimSpec::from_dimensions(128, 32, 4, 4)?;
//! let chip = ChipSpec::new(MacroGrid::uniform(2, 2, spec)?, 64)?;
//! let mix = WorkloadMix::from(Network::edge_cnn(2));
//! let metrics = ChipEvaluator::s28_default().evaluate_mix(&chip, &mix)?;
//! let cnn = &metrics.tenants[0].metrics;
//! assert!(cnn.throughput_tops > 0.0);
//! assert!(cnn.layers.len() == 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(missing_docs)]

pub mod error;
pub mod evaluate;
pub mod grid;
pub mod interconnect;
pub mod metrics_cache;
pub mod partition;
pub mod simulate;

pub use error::ChipError;
pub use evaluate::{
    ChipEvaluator, ChipMetrics, ChipSpec, LayerCost, MixMetrics, MixObjective, TenantMetrics,
};
pub use grid::MacroGrid;
pub use interconnect::{AccumulatorParams, BufferParams, ChipCostParams, InterconnectParams};
pub use metrics_cache::{MacroMetrics, MacroMetricsCache};
pub use partition::{
    partition_mix, LayerPartition, MixPartition, Partition, RoundPartition, TileAssignment,
};
pub use simulate::{simulate_mix, ChipSimReport, LayerSimReport, MixSimReport, TenantSimReport};

pub use acim_workloads::{LayerKind, Network, NetworkLayer, Tenant, TenantQuant, WorkloadMix};
