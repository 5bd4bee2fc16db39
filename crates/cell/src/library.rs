//! The customized cell library.
//!
//! [`CellLibrary::s28_default`] builds all seven leaf cells of the
//! EasyACIM architecture with physical dimensions calibrated so that the
//! hierarchically assembled macro reproduces the paper's Figure 8 area and
//! dimension anchors (see `DESIGN.md`):
//!
//! | cell | width × height (µm) | amortised area (F²) |
//! |---|---|---|
//! | 8T SRAM          | 2.0 × 0.632 | `A_SRAM` ≈ 1612 |
//! | compute cell     | 2.0 × 1.98  | `A_LC` ≈ 5050 |
//! | comparator / SA  | 2.0 × 15.68 | `A_COMP` ≈ 40 000 |
//! | SAR DFF          | 2.0 × 0.912 | `A_DFF` ≈ 2326 |
//!
//! The columns of the macro abut these cells vertically, so the width of
//! every cell equals the column pitch (2.0 µm).

use std::collections::BTreeMap;

use acim_tech::Technology;

use crate::cell::{CellKind, LeafCell};
use crate::error::CellError;
use crate::geom::Rect;
use crate::layout_template::LayoutTemplate;
use crate::netlist_template::{
    buffer_netlist, cmos_switch_netlist, comparator_netlist, compute_cell_netlist, dff_netlist,
    sar_logic_netlist, sram_8t_netlist, CellNetlist,
};
use crate::pin::{Pin, PinDirection};

/// Column pitch of the macro in nanometres; every leaf cell is this wide so
/// columns abut cleanly.
pub const COLUMN_PITCH_NM: f64 = 2000.0;

/// The collection of leaf cells used by netlist generation and layout.
#[derive(Debug, Clone, Default)]
pub struct CellLibrary {
    cells: BTreeMap<CellKind, LeafCell>,
}

impl CellLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a cell.
    pub fn insert(&mut self, cell: LeafCell) {
        self.cells.insert(cell.kind(), cell);
    }

    /// Looks a cell up by kind.
    pub fn cell(&self, kind: CellKind) -> Option<&LeafCell> {
        self.cells.get(&kind)
    }

    /// Looks a cell up by kind, returning an error when it is missing.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::UnknownCell`] when the kind is not registered.
    pub fn require(&self, kind: CellKind) -> Result<&LeafCell, CellError> {
        self.cell(kind)
            .ok_or_else(|| CellError::UnknownCell(kind.cell_name().to_string()))
    }

    /// Number of registered cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` when the library is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over the registered cells.
    pub fn iter(&self) -> impl Iterator<Item = &LeafCell> {
        self.cells.values()
    }

    /// Builds the default S28 library with all seven leaf cells.
    ///
    /// # Panics
    ///
    /// Panics only if the built-in templates are internally inconsistent,
    /// which would be a bug in this crate.
    pub fn s28_default(tech: &Technology) -> Self {
        let mut library = Self::new();
        let rail = tech
            .rules()
            .layer_rule("M1")
            .map(|r| r.min_width.value())
            .unwrap_or(50.0);
        let cap_ff = tech.capacitor().unit_cap.value();

        library.insert(build_sram_cell(rail).expect("SRAM template is consistent"));
        library
            .insert(build_compute_cell(rail, cap_ff).expect("compute-cell template is consistent"));
        library.insert(build_comparator(rail).expect("comparator template is consistent"));
        library.insert(build_sar_dff(rail).expect("DFF template is consistent"));
        library.insert(build_sar_logic(rail).expect("SAR-logic template is consistent"));
        library.insert(build_cmos_switch(rail).expect("switch template is consistent"));
        library.insert(build_buffer(rail).expect("buffer template is consistent"));
        library
    }
}

/// Places a pin strip on the left or right edge at a fractional height.
fn edge_pin(
    name: &str,
    direction: PinDirection,
    layer: &str,
    width_nm: f64,
    height_nm: f64,
    fraction: f64,
    left: bool,
) -> Pin {
    let pin_h = 60.0;
    let pin_w = 120.0;
    let y = (height_nm - pin_h) * fraction;
    let x0 = if left { 0.0 } else { width_nm - pin_w };
    Pin::new(
        name,
        direction,
        layer,
        Rect::new(x0, y, x0 + pin_w, y + pin_h),
    )
}

fn supply_pins(width_nm: f64, height_nm: f64, rail: f64) -> Vec<Pin> {
    vec![
        Pin::new(
            "VSS",
            PinDirection::Ground,
            "M1",
            Rect::new(0.0, 0.0, width_nm, rail),
        ),
        Pin::new(
            "VDD",
            PinDirection::Power,
            "M1",
            Rect::new(0.0, height_nm - rail, width_nm, height_nm),
        ),
    ]
}

fn build_cell(
    kind: CellKind,
    netlist: CellNetlist,
    width_nm: f64,
    height_nm: f64,
    rail: f64,
    signal_pins: &[(&str, PinDirection, f64, bool)],
) -> Result<LeafCell, CellError> {
    let mut template = LayoutTemplate::standard(width_nm, height_nm, rail);
    let mut pins = supply_pins(width_nm, height_nm, rail);
    for &(name, direction, fraction, left) in signal_pins {
        let pin = edge_pin(name, direction, "M2", width_nm, height_nm, fraction, left);
        template.add_shape("M2", pin.shape());
        pins.push(pin);
    }
    LeafCell::new(kind, netlist, template, pins)
}

fn build_sram_cell(rail: f64) -> Result<LeafCell, CellError> {
    build_cell(
        CellKind::Sram8T,
        sram_8t_netlist(),
        COLUMN_PITCH_NM,
        632.0,
        rail,
        &[
            ("WL", PinDirection::Input, 0.75, true),
            ("BL", PinDirection::Inout, 0.5, true),
            ("BLB", PinDirection::Inout, 0.25, true),
            ("RWL", PinDirection::Input, 0.75, false),
            ("RBL", PinDirection::Inout, 0.4, false),
        ],
    )
}

fn build_compute_cell(rail: f64, cap_ff: f64) -> Result<LeafCell, CellError> {
    build_cell(
        CellKind::ComputeCell,
        compute_cell_netlist(cap_ff),
        COLUMN_PITCH_NM,
        1980.0,
        rail,
        &[
            ("RBL", PinDirection::Inout, 0.85, false),
            ("MOUT", PinDirection::Inout, 0.7, false),
            ("PCH", PinDirection::Input, 0.55, true),
            ("RST", PinDirection::Input, 0.4, true),
            ("P", PinDirection::Input, 0.3, true),
            ("N", PinDirection::Input, 0.2, true),
            ("VCM", PinDirection::Inout, 0.1, true),
        ],
    )
}

fn build_comparator(rail: f64) -> Result<LeafCell, CellError> {
    build_cell(
        CellKind::Comparator,
        comparator_netlist(),
        COLUMN_PITCH_NM,
        15_680.0,
        rail,
        &[
            ("INP", PinDirection::Input, 0.8, true),
            ("INN", PinDirection::Input, 0.7, true),
            ("CLK", PinDirection::Input, 0.5, true),
            ("COM", PinDirection::Output, 0.6, false),
            ("COMB", PinDirection::Output, 0.4, false),
        ],
    )
}

fn build_sar_dff(rail: f64) -> Result<LeafCell, CellError> {
    build_cell(
        CellKind::SarDff,
        dff_netlist(),
        COLUMN_PITCH_NM,
        912.0,
        rail,
        &[
            ("D", PinDirection::Input, 0.6, true),
            ("CLK", PinDirection::Input, 0.3, true),
            ("Q", PinDirection::Output, 0.6, false),
            ("QB", PinDirection::Output, 0.3, false),
        ],
    )
}

fn build_sar_logic(rail: f64) -> Result<LeafCell, CellError> {
    build_cell(
        CellKind::SarLogic,
        sar_logic_netlist(),
        COLUMN_PITCH_NM,
        2000.0,
        rail,
        &[
            ("CLK", PinDirection::Input, 0.8, true),
            ("COM", PinDirection::Input, 0.6, true),
            ("COMB", PinDirection::Input, 0.4, true),
            ("START", PinDirection::Input, 0.2, true),
            ("DONE", PinDirection::Output, 0.5, false),
        ],
    )
}

fn build_cmos_switch(rail: f64) -> Result<LeafCell, CellError> {
    build_cell(
        CellKind::CmosSwitch,
        cmos_switch_netlist(),
        COLUMN_PITCH_NM,
        500.0,
        rail,
        &[
            ("A", PinDirection::Inout, 0.6, true),
            ("B", PinDirection::Inout, 0.6, false),
            ("EN", PinDirection::Input, 0.3, true),
            ("ENB", PinDirection::Input, 0.3, false),
        ],
    )
}

fn build_buffer(rail: f64) -> Result<LeafCell, CellError> {
    build_cell(
        CellKind::Buffer,
        buffer_netlist(),
        COLUMN_PITCH_NM,
        600.0,
        rail,
        &[
            ("A", PinDirection::Input, 0.5, true),
            ("Y", PinDirection::Output, 0.5, false),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn library() -> CellLibrary {
        CellLibrary::s28_default(&Technology::s28())
    }

    #[test]
    fn library_contains_all_seven_cells() {
        let lib = library();
        assert_eq!(lib.len(), 7);
        assert!(!lib.is_empty());
        for kind in CellKind::all() {
            assert!(lib.cell(kind).is_some(), "missing {kind}");
            assert!(lib.require(kind).is_ok());
        }
    }

    #[test]
    fn cell_dimensions_match_area_calibration() {
        // The amortised-area parameters of the estimation model follow
        // directly from width × height of these cells at F = 28 nm
        // (F² = 784 nm²); check the anchors hold.
        let lib = library();
        let f2 = 28.0f64 * 28.0;
        let area_f2 = |kind: CellKind| {
            let c = lib.cell(kind).unwrap();
            c.width_nm() * c.height_nm() / f2
        };
        assert!((area_f2(CellKind::Sram8T) - 1612.0).abs() < 10.0);
        assert!((area_f2(CellKind::ComputeCell) - 5050.0).abs() < 10.0);
        assert!((area_f2(CellKind::Comparator) - 40_000.0).abs() < 10.0);
        assert!((area_f2(CellKind::SarDff) - 2326.0).abs() < 10.0);
    }

    #[test]
    fn every_cell_shares_the_column_pitch() {
        let lib = library();
        for cell in lib.iter() {
            assert!(
                (cell.width_nm() - COLUMN_PITCH_NM).abs() < 1e-9,
                "{} width {}",
                cell.name(),
                cell.width_nm()
            );
        }
    }

    #[test]
    fn every_cell_has_supply_pins_and_valid_shapes() {
        let lib = library();
        for cell in lib.iter() {
            assert!(cell.pin("VDD").is_some(), "{} lacks VDD", cell.name());
            assert!(cell.pin("VSS").is_some(), "{} lacks VSS", cell.name());
            assert!(cell.layout().shapes_within_boundary());
            assert!(cell.netlist().transistor_count() >= 2);
        }
    }

    #[test]
    fn missing_cell_is_an_error() {
        let lib = CellLibrary::new();
        assert!(matches!(
            lib.require(CellKind::Sram8T),
            Err(CellError::UnknownCell(name)) if name == "SRAM8T"
        ));
    }

    #[test]
    fn compute_cell_capacitor_tracks_technology_value() {
        let tech = Technology::s28();
        let lib = CellLibrary::s28_default(&tech);
        let lc = lib.cell(CellKind::ComputeCell).unwrap();
        let cap = lc
            .netlist()
            .devices
            .iter()
            .find(|d| d.kind == crate::netlist_template::DeviceKind::Capacitor)
            .unwrap();
        assert!((cap.size - tech.capacitor().unit_cap.value()).abs() < 1e-12);
    }
}
