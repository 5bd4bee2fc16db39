//! # acim-netlist
//!
//! Hierarchical netlist data model, SPICE writer and the template-based ACIM
//! netlist generator of EasyACIM (the "Template-based ACIM Netlist
//! Generator" block of Figure 4).
//!
//! A [`design::Design`] is a set of [`module::Module`]s.  A module owns one
//! net table, its ports first and then its internal nets, and a
//! [`module::NetId`] indexes it.  An instance refers either to a leaf cell
//! of the customized cell library (`acim-cell`, by [`acim_cell::CellKind`])
//! or to a module added before its parent (by [`module::ModuleId`]), and
//! holds one net per port of that target, in the target's port order.
//! Net names are formatted once, into the net tables; validation, the
//! statistics and the SPICE writer walk indices, and only the writer reads
//! names.  The hierarchy is the one the template-based placer and router
//! walks bottom-up.
//!
//! [`generator::NetlistGenerator`] expands a validated
//! [`acim_arch::AcimSpec`] into the full macro netlist:
//!
//! ```text
//! ACIM_TOP
//! ├── COLUMN × W
//! │   ├── LOCAL_ARRAY × (H / L)      (L SRAM cells + 1 compute cell)
//! │   ├── CMOS switch (CDAC isolation)
//! │   ├── comparator / SA
//! │   ├── SAR_DFF × B_ADC + SAR_CTRL
//! └── input / output buffers
//! ```
//!
//! # Example
//!
//! ```
//! use acim_arch::AcimSpec;
//! use acim_cell::CellLibrary;
//! use acim_netlist::NetlistGenerator;
//! use acim_tech::Technology;
//!
//! # fn main() -> Result<(), acim_netlist::NetlistError> {
//! let tech = Technology::s28();
//! let library = CellLibrary::s28_default(&tech);
//! let spec = AcimSpec::from_dimensions(64, 16, 4, 3)?;
//! let design = NetlistGenerator::new(&library).generate(&spec)?;
//! assert!(design.module("ACIM_TOP").is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod error;
pub mod generator;
pub mod module;
pub mod spice;
pub mod stats;

pub use design::Design;
pub use error::NetlistError;
pub use generator::NetlistGenerator;
pub use module::{Instance, InstanceRef, Module, ModuleId, NetId, PortDirection};
pub use spice::write_spice;
pub use stats::{design_stats, DesignStats};
