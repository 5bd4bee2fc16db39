//! Cell pins.

use std::fmt;

use crate::geom::Rect;

/// Electrical direction of a pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinDirection {
    /// Signal input.
    Input,
    /// Signal output.
    Output,
    /// Bidirectional signal.
    Inout,
    /// Power supply (VDD).
    Power,
    /// Ground (VSS).
    Ground,
}

impl fmt::Display for PinDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            PinDirection::Input => "input",
            PinDirection::Output => "output",
            PinDirection::Inout => "inout",
            PinDirection::Power => "power",
            PinDirection::Ground => "ground",
        };
        f.write_str(text)
    }
}

/// A physical pin of a leaf cell: name, direction, the metal layer its
/// access shape sits on, and the shape itself (in the cell's local
/// coordinate frame, nanometres).
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    name: String,
    direction: PinDirection,
    layer: String,
    shape: Rect,
}

impl Pin {
    /// Creates a pin.
    pub fn new(
        name: impl Into<String>,
        direction: PinDirection,
        layer: impl Into<String>,
        shape: Rect,
    ) -> Self {
        Self {
            name: name.into(),
            direction,
            layer: layer.into(),
            shape,
        }
    }

    /// Pin name, e.g. `"RWL"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Electrical direction.
    pub fn direction(&self) -> PinDirection {
        self.direction
    }

    /// Metal layer of the access shape.
    pub fn layer(&self) -> &str {
        &self.layer
    }

    /// Access shape in the cell's local frame.
    pub fn shape(&self) -> Rect {
        self.shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;

    #[test]
    fn pin_accessors() {
        let pin = Pin::new(
            "RBL",
            PinDirection::Inout,
            "M2",
            Rect::new(0.0, 0.0, 50.0, 100.0),
        );
        assert_eq!(pin.name(), "RBL");
        assert_eq!(pin.direction(), PinDirection::Inout);
        assert_eq!(pin.layer(), "M2");
        assert!(pin.shape().contains_point(&Point::new(25.0, 50.0)));
    }

    #[test]
    fn direction_display() {
        assert_eq!(PinDirection::Output.to_string(), "output");
        assert_eq!(PinDirection::Ground.to_string(), "ground");
    }
}
