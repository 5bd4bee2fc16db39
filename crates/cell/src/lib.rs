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
//! cell carries
//!
//! * a transistor-level netlist template ([`netlist_template`]),
//! * a rectilinear layout template (boundary, per-layer shapes, pin shapes
//!   — [`layout_template`]),
//! * pin definitions ([`pin`]),
//! * physical dimensions calibrated so that the assembled macro reproduces
//!   the paper's Figure 8 area/dimension anchors (see `DESIGN.md`).
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
pub mod layout_template;
pub mod library;
pub mod netlist_template;
pub mod pin;

pub use cell::{CellKind, LeafCell};
pub use error::CellError;
pub use geom::{half_perimeter_wire_length, Orientation, Point, Rect};
pub use layout_template::{LayoutShape, LayoutTemplate, RoutingTrack};
pub use library::CellLibrary;
pub use netlist_template::{CellNetlist, Device, DeviceKind};
pub use pin::{Pin, PinDirection};
