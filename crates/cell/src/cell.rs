//! Leaf-cell definition.

use std::fmt;

use crate::error::CellError;
use crate::geom::Rect;
use crate::netlist_template::CellNetlist;
use crate::pin::Pin;

/// The kinds of leaf cells the EasyACIM architecture is assembled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// 8T SRAM bit cell.
    Sram8T,
    /// Local-array-shared computing cell: compute capacitor `C_F`, reset /
    /// precharge devices and group-control switches.
    ComputeCell,
    /// Sense amplifier / dynamic comparator.
    Comparator,
    /// Dynamic D flip-flop of the SAR logic.
    SarDff,
    /// SAR sequencing logic.
    SarLogic,
    /// CMOS switch isolating redundant CDAC capacitance.
    CmosSwitch,
    /// Input/output buffer.
    Buffer,
}

impl CellKind {
    /// All leaf-cell kinds.
    pub fn all() -> [CellKind; 7] {
        [
            CellKind::Sram8T,
            CellKind::ComputeCell,
            CellKind::Comparator,
            CellKind::SarDff,
            CellKind::SarLogic,
            CellKind::CmosSwitch,
            CellKind::Buffer,
        ]
    }

    /// Canonical cell name used in netlists and layouts.
    pub fn cell_name(self) -> &'static str {
        match self {
            CellKind::Sram8T => "SRAM8T",
            CellKind::ComputeCell => "LC_CELL",
            CellKind::Comparator => "COMP_SA",
            CellKind::SarDff => "SAR_DFF",
            CellKind::SarLogic => "SAR_CTRL",
            CellKind::CmosSwitch => "CSW",
            CellKind::Buffer => "BUF",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.cell_name())
    }
}

/// A manually designed leaf cell as the placer and router see it: a sized
/// box reached through its pins, plus the netlist it instantiates.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafCell {
    kind: CellKind,
    netlist: CellNetlist,
    width_nm: f64,
    height_nm: f64,
    pins: Vec<Pin>,
}

impl LeafCell {
    /// Assembles a `width_nm` × `height_nm` leaf cell, validating that
    /// every pin name exists in the netlist ports and every pin shape lies
    /// inside the cell boundary.
    ///
    /// # Errors
    ///
    /// Returns [`CellError`] when a pin references an unknown port or falls
    /// outside the cell boundary.
    pub fn new(
        kind: CellKind,
        netlist: CellNetlist,
        width_nm: f64,
        height_nm: f64,
        pins: Vec<Pin>,
    ) -> Result<Self, CellError> {
        let boundary = Rect::new(0.0, 0.0, width_nm, height_nm);
        for pin in &pins {
            if !netlist.ports.iter().any(|p| p == pin.name()) {
                return Err(CellError::UnknownPinPort {
                    cell: kind.cell_name().to_string(),
                    pin: pin.name().to_string(),
                });
            }
            if !boundary.contains_rect(&pin.shape()) {
                return Err(CellError::PinOutsideBoundary {
                    cell: kind.cell_name().to_string(),
                    pin: pin.name().to_string(),
                });
            }
        }
        Ok(Self {
            kind,
            netlist,
            width_nm,
            height_nm,
            pins,
        })
    }

    /// The cell kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Canonical cell name.
    pub fn name(&self) -> &'static str {
        self.kind.cell_name()
    }

    /// Transistor-level netlist template.
    pub fn netlist(&self) -> &CellNetlist {
        &self.netlist
    }

    /// Pins.
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// Looks a pin up by name.
    pub fn pin(&self, name: &str) -> Option<&Pin> {
        self.pins.iter().find(|p| p.name() == name)
    }

    /// Cell width in nanometres.
    pub fn width_nm(&self) -> f64 {
        self.width_nm
    }

    /// Cell height in nanometres.
    pub fn height_nm(&self) -> f64 {
        self.height_nm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist_template::buffer_netlist;
    use crate::pin::PinDirection;

    fn buffer_pins() -> Vec<Pin> {
        vec![
            Pin::new(
                "A",
                PinDirection::Input,
                "M1",
                Rect::new(50.0, 250.0, 100.0, 300.0),
            ),
            Pin::new(
                "Y",
                PinDirection::Output,
                "M1",
                Rect::new(400.0, 250.0, 450.0, 300.0),
            ),
            Pin::new(
                "VDD",
                PinDirection::Power,
                "M1",
                Rect::new(0.0, 550.0, 500.0, 600.0),
            ),
            Pin::new(
                "VSS",
                PinDirection::Ground,
                "M1",
                Rect::new(0.0, 0.0, 500.0, 50.0),
            ),
        ]
    }

    #[test]
    fn valid_cell_assembles() {
        let cell = LeafCell::new(
            CellKind::Buffer,
            buffer_netlist(),
            500.0,
            600.0,
            buffer_pins(),
        )
        .unwrap();
        assert_eq!(cell.name(), "BUF");
        assert_eq!(cell.width_nm(), 500.0);
        assert!(cell.pin("A").is_some());
        assert!(cell.pin("MISSING").is_none());
    }

    #[test]
    fn pin_with_unknown_port_is_rejected() {
        let mut pins = buffer_pins();
        pins.push(Pin::new(
            "NOT_A_PORT",
            PinDirection::Input,
            "M1",
            Rect::new(0.0, 0.0, 10.0, 10.0),
        ));
        let err =
            LeafCell::new(CellKind::Buffer, buffer_netlist(), 500.0, 600.0, pins).unwrap_err();
        assert!(matches!(err, CellError::UnknownPinPort { pin, .. } if pin == "NOT_A_PORT"));
    }

    #[test]
    fn pin_outside_boundary_is_rejected() {
        let mut pins = buffer_pins();
        pins.push(Pin::new(
            "A",
            PinDirection::Input,
            "M1",
            Rect::new(490.0, 0.0, 700.0, 50.0),
        ));
        let err =
            LeafCell::new(CellKind::Buffer, buffer_netlist(), 500.0, 600.0, pins).unwrap_err();
        assert!(matches!(err, CellError::PinOutsideBoundary { .. }));
    }

    #[test]
    fn cell_kinds_have_unique_names() {
        let names: std::collections::BTreeSet<&str> =
            CellKind::all().iter().map(|k| k.cell_name()).collect();
        assert_eq!(names.len(), CellKind::all().len());
        assert_eq!(CellKind::Sram8T.to_string(), "SRAM8T");
    }
}
