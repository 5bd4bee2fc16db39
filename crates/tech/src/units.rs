//! Physical unit newtypes.
//!
//! The flow moves between several unit systems: layout rules are expressed
//! in nanometres, capacitance in femtofarads, time in picoseconds, energy
//! in femtojoules, and normalised area in F² (squared feature size, the
//! unit used by the paper's "F²/bit" area metric).  Newtypes keep these
//! from being mixed up (C-NEWTYPE).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul};

/// Declares a simple `f64`-backed unit newtype with display and the
/// arithmetic the flow uses: sums of like quantities and scaling by a
/// plain number.
macro_rules! unit_newtype {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Creates a new value from a raw `f64`.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw `f64` value.
            pub const fn value(self) -> f64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }
    };
}

unit_newtype!(
    /// A length in nanometres.  Layout databases in this repository use an
    /// integer-free nanometre grid, but the value is kept as `f64` so that
    /// derived quantities (pitches divided by two, etc.) stay exact enough.
    Nanometer,
    "nm"
);

unit_newtype!(
    /// A normalised area in units of F² (squared minimum feature size).
    /// The paper reports macro density as F²/bit.
    SquareF,
    "F^2"
);

unit_newtype!(
    /// A capacitance in femtofarads.
    Femtofarad,
    "fF"
);

unit_newtype!(
    /// A time duration in picoseconds.
    Picosecond,
    "ps"
);

unit_newtype!(
    /// An energy in femtojoules.
    Femtojoule,
    "fJ"
);

unit_newtype!(
    /// A voltage in volts.
    Volt,
    "V"
);

unit_newtype!(
    /// A temperature in Kelvin.
    Kelvin,
    "K"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_on_nanometers() {
        let a = Nanometer::new(100.0);
        let b = Nanometer::new(28.0);
        assert_eq!((a + b).value(), 128.0);
        assert_eq!((a * 2.0).value(), 200.0);
        assert_eq!((a / 2.0).value(), 50.0);
    }

    #[test]
    fn sum_and_ordering() {
        assert!(Femtojoule::new(1.0) < Femtojoule::new(2.0));
    }

    #[test]
    fn display_includes_suffix() {
        assert_eq!(format!("{}", Femtofarad::new(1.2)), "1.2fF");
        assert_eq!(format!("{}", Picosecond::new(5.0)), "5ps");
        assert_eq!(format!("{}", SquareF::new(4504.0)), "4504F^2");
    }
}
