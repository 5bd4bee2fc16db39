//! # acim-tech
//!
//! Synthetic technology substrate for the EasyACIM reproduction.
//!
//! The original EasyACIM paper is implemented on the proprietary TSMC28 PDK.
//! This crate replaces that gated dependency with a self-contained,
//! 28 nm-class synthetic technology ("S28") that holds exactly what the
//! rest of the flow reads:
//!
//! * the GDS layer/datatype numbers of every mask layer ([`layers`]),
//! * each layer's minimum width and spacing ([`rules`]),
//! * the feature size, supply voltage and temperature,
//! * the unit MOM capacitance, its mismatch coefficient κ and the
//!   comparator noise and offset used by the behavioural simulator
//!   ([`device`]),
//! * physical unit newtypes ([`units`]),
//!
//! bundled by the [`Technology`] aggregate.
//!
//! # Example
//!
//! ```
//! use acim_tech::Technology;
//!
//! let tech = Technology::s28();
//! assert_eq!(tech.feature_size_nm(), 28.0);
//! assert_eq!(tech.layers().by_name("M2").map(|l| l.gds_layer()), Some(32));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(missing_docs)]

pub mod device;
pub mod error;
pub mod layers;
pub mod rules;
pub mod technology;
pub mod units;

pub use device::{CapacitorModel, ComparatorModel};
pub use error::TechError;
pub use layers::{Layer, LayerMap};
pub use rules::{DesignRules, RuleSet};
pub use technology::Technology;
pub use units::{Femtofarad, Femtojoule, Kelvin, Nanometer, Picosecond, SquareF, Volt};

/// Boltzmann constant in J/K, used by thermal (kT/C) noise computations.
pub const BOLTZMANN_J_PER_K: f64 = 1.380_649e-23;
