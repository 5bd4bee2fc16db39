//! # acim-cell
//!
//! The customized cell library of EasyACIM (one of the three inputs of the
//! flow in Figure 4).
//!
//! The paper's flow consumes a library of manually designed leaf cells —
//! the 8T SRAM bit cell, the local-array-shared computing cell (compute
//! capacitor plus group control), the sense amplifier / dynamic comparator,
//! the SAR-logic D flip-flop, the CMOS switch and the input/output buffers —
//! each with a transistor-level netlist and a finished layout that the
//! template-based placer and router treats as an opaque "Std" block.
//!
//! In this reproduction the cells are synthetic but complete: every leaf
//! cell is a sized box reached through its pins, as the placer and router
//! see it.  It carries
//!
//! * a transistor-level netlist template ([`netlist_template`]),
//! * its width and height, calibrated so that the assembled macro
//!   reproduces the paper's Figure 8 area/dimension anchors (pinned by
//!   `acim_model::area::tests::figure8_area_anchors`,
//!   `acim_model::params::tests::area_defaults_match_design_doc_anchors`
//!   and `acim_layout::flow::tests::figure8b_dimensions_reproduce_within_tolerance`),
//! * pin definitions, each an access shape inside the box on a metal layer
//!   ([`pin`]).
//!
//! # Example
//!
//! ```
//! use acim_cell::{CellKind, CellLibrary};
//! use acim_tech::Technology;
//!
//! let library = CellLibrary::s28_default(&Technology::s28());
//! let sram = library.cell(CellKind::Sram8T).expect("8T cell exists");
//! assert!(sram.height_nm() > 0.0);
//! assert!(!sram.pins().is_empty());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(missing_docs)]

pub mod cell;
pub mod error;
pub mod geom;
pub mod library;
pub mod netlist_template;
pub mod pin;

pub use cell::{CellKind, LeafCell};
pub use error::CellError;
pub use geom::{half_perimeter_wire_length, Orientation, Point, Rect};
pub use library::CellLibrary;
pub use netlist_template::{CellNetlist, Device, DeviceKind};
pub use pin::{Pin, PinDirection};
