//! # acim-model
//!
//! The analytic ACIM performance-estimation model of EasyACIM
//! (Section 3.2.1, Equations 2–11 of the paper).
//!
//! The design-space explorer needs to evaluate thousands of candidate
//! (H, W, L, B_ADC) specifications, far too many for behavioural
//! simulation.  The paper therefore drives NSGA-II with closed-form
//! estimates of the four competing objectives:
//!
//! * **SNR** — Equations 2–6 in full, or the simplified Equation 11 used by
//!   the optimiser ([`snr`]),
//! * **throughput** — Equation 7 ([`acim_arch::TimingModel`]),
//! * **energy** — Equations 8–9 ([`acim_arch::EnergyModelParams`]),
//! * **area** — Equation 10 ([`area`]).
//!
//! [`objectives::evaluate`] is the one way the workspace scores a macro: it
//! validates the parameters once, derives the Equation 8 energy once, and
//! returns every metric as a [`DesignMetrics`] value with an objective
//! vector in the `[−f_SNR, −f_T, f_E, f_A]` form of Equation 12.
//! [`calibrate`] fits the model's empirical constants against the
//! behavioural simulator in `acim-arch`, which plays the role of the
//! paper's post-layout simulation.
//!
//! # Example
//!
//! ```
//! use acim_arch::AcimSpec;
//! use acim_model::{ModelParams, objectives};
//!
//! # fn main() -> Result<(), acim_model::ModelError> {
//! let spec = AcimSpec::from_dimensions(128, 128, 8, 3)?;
//! let params = ModelParams::s28_default();
//! let metrics = objectives::evaluate(&spec, &params)?;
//! assert!(metrics.area_f2_per_bit > 1000.0);
//! assert!(metrics.throughput_tops > 0.1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod calibrate;
pub mod error;
pub mod key;
pub mod math;
pub mod objectives;
pub mod params;
pub mod snr;

pub use area::area_f2_per_bit;
pub use calibrate::{calibrate_adc_energy, calibrate_snr_offset, CalibrationReport};
pub use error::ModelError;
pub use key::SpecKey;
pub use objectives::{evaluate, DesignMetrics};
pub use params::{AreaParams, DataDistribution, ModelParams, SnrParams};
pub use snr::{snr_detailed_db, snr_simplified_db, SnrBreakdown};
