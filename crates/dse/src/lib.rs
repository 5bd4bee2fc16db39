//! # acim-dse
//!
//! The MOGA-based design-space explorer of EasyACIM (Section 3.2).
//!
//! Given a user-defined array size, the explorer searches the
//! (H, W, L, B_ADC) space for the Pareto frontier of the four objectives
//! `[−SNR, −throughput, energy, area]` (Equation 12), subject to
//!
//! * `H · W = ArraySize`,
//! * `H ≥ L`, `L | H`, `2 ≤ L ≤ 32`,
//! * `H / L ≥ 2^B_ADC`, `1 ≤ B_ADC ≤ 8`.
//!
//! The pieces:
//!
//! * [`encoding`] — maps a real-coded NSGA-II genome to a candidate
//!   (H, W, L, B_ADC) tuple,
//! * [`problem`] — the [`acim_moga::Problem`] implementation that evaluates
//!   candidates with the analytic model of `acim-model`,
//! * [`explorer`] — the one exploration loop (NSGA-II behind a memoizing
//!   genome cache, with a Pareto archive of every feasible non-dominated
//!   genome it ever evaluates) and its result type, [`Frontier`]; the
//!   macro explorer returns a `Frontier<DesignPoint>`, the chip explorer a
//!   `Frontier<ChipDesignPoint>`,
//! * [`enumerate`] — exhaustive enumeration of the (small) discrete space,
//!   used as ground truth in the ablation benchmarks,
//! * [`distill`] — the "user distillation" step of Figure 4: filtering the
//!   frontier with application requirements,
//! * [`chip`] — the chip-level co-exploration problem (macro shape ×
//!   macro count × buffer sizing) built on `acim-chip`, explored by the
//!   same loop,
//! * [`sweep`] — the parameter sweeps behind Figure 9.
//!
//! # Example
//!
//! ```
//! use acim_dse::{DseConfig, DesignSpaceExplorer};
//!
//! # fn main() -> Result<(), acim_dse::DseError> {
//! let config = DseConfig {
//!     array_size: 16 * 1024,
//!     population_size: 40,
//!     generations: 20,
//!     ..Default::default()
//! };
//! let explorer = DesignSpaceExplorer::new(config)?;
//! let frontier = explorer.explore()?;
//! assert!(!frontier.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(missing_docs)]

pub mod chip;
pub mod distill;
pub mod encoding;
pub mod enumerate;
pub mod error;
pub mod explorer;
pub mod problem;
pub mod robustness;
pub mod solution;
pub mod sweep;

pub use acim_moga::{CacheStats, CacheStore, CachedProblem, CancelReason, CancelToken, EvalStats};
pub use chip::{ChipDesignPoint, ChipDesignProblem, ChipDseConfig, ChipExplorer};
pub use distill::UserRequirements;
pub use encoding::DesignEncoding;
pub use enumerate::enumerate_design_space;
pub use error::DseError;
pub use explorer::{DesignSpaceExplorer, DseConfig, ExploreOptions, Frontier};
pub use problem::AcimDesignProblem;
pub use robustness::{RobustnessConfig, RobustnessSweep};
pub use solution::DesignPoint;
pub use sweep::{sweep_by_array_size, sweep_by_parameter, SweepSeries};
