//! # acim-layout
//!
//! The template-based hierarchical placer and router of EasyACIM
//! (Sections 2.3 and 3.3, Figure 7 of the paper).
//!
//! The flow follows the paper's strategy: manually designed leaf cells
//! ("Std" layout cells from `acim-cell`) are never opened; each hierarchy
//! level only places whole blocks and routes the interconnect between them,
//! bottom-up:
//!
//! 1. **Column template** ([`mod@column`]) — the `H / L` local arrays (each `L`
//!    SRAM cells plus one compute cell), the CMOS switch, the comparator and
//!    the SAR logic/flip-flops are stacked deterministically into a column
//!    block; the read bit-line and the power rails use pre-defined routing
//!    tracks, the remaining intra-column nets are routed by the grid-based
//!    maze router ([`router`]).
//! 2. **Macro assembly** ([`flow`]) — the one column template is placed `W`
//!    times, abutted, as a shared block ([`Layout::place`]); the
//!    input/output buffer peripheries are placed, the shared word-lines and
//!    control nets are routed on pre-defined horizontal tracks, and the
//!    power grid is dropped on the top metals.
//! 3. **Checks and output** — a lightweight DRC ([`drc`]) verifies spacing
//!    and overlap rules, and the result can be written as text GDS/DEF
//!    ([`gds`]); [`metrics`] extracts the dimensions and F²/bit density the
//!    paper reports in Figure 8.  All three read the layout's flat view
//!    ([`db`]), which names and places every column's objects as a copy
//!    of each column would.
//!
//! The 3-D grid maze router is exposed on its own, so the `router` bench
//! can exercise it in isolation (e.g. routing with and without pre-defined
//! tracks).
//!
//! # Example
//!
//! ```
//! use acim_arch::AcimSpec;
//! use acim_cell::CellLibrary;
//! use acim_layout::LayoutFlow;
//! use acim_tech::Technology;
//!
//! # fn main() -> Result<(), acim_layout::LayoutError> {
//! let tech = Technology::s28();
//! let library = CellLibrary::s28_default(&tech);
//! let spec = AcimSpec::from_dimensions(32, 8, 4, 3)?;
//! let result = LayoutFlow::new(&tech, &library).generate(&spec)?;
//! assert!(result.metrics.core_area_f2_per_bit > 1000.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(missing_docs)]

pub mod column;
pub mod db;
pub mod drc;
pub mod error;
pub mod flow;
pub mod gds;
pub mod grid;
pub mod metrics;
pub mod router;

pub use column::ColumnTemplate;
pub use db::{Flat, Layout, LayoutPin, PlacedInstance, Via, Wire};
pub use drc::{check_layout, DrcReport, DrcViolation};
pub use error::LayoutError;
pub use flow::{LayoutFlow, MacroLayout};
pub use gds::{write_def, write_gds_text};
pub use grid::RoutingGrid;
pub use metrics::LayoutMetrics;
pub use router::{MazeRouter, RouteRequest, RouterStats};
