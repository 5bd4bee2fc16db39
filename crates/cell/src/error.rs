//! Error types of the cell-library crate.

use std::error::Error;
use std::fmt;

/// Errors produced while assembling leaf cells or querying the library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// A pin references a port that does not exist in the cell netlist.
    UnknownPinPort {
        /// Cell name.
        cell: String,
        /// Offending pin name.
        pin: String,
    },
    /// A pin access shape falls outside the cell boundary.
    PinOutsideBoundary {
        /// Cell name.
        cell: String,
        /// Offending pin name.
        pin: String,
    },
    /// The requested cell does not exist in the library.
    UnknownCell(String),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::UnknownPinPort { cell, pin } => {
                write!(f, "pin `{pin}` of cell `{cell}` references an unknown port")
            }
            CellError::PinOutsideBoundary { cell, pin } => {
                write!(
                    f,
                    "pin `{pin}` of cell `{cell}` lies outside the cell boundary"
                )
            }
            CellError::UnknownCell(name) => write!(f, "unknown cell `{name}`"),
        }
    }
}

impl Error for CellError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offenders() {
        let e = CellError::UnknownPinPort {
            cell: "BUF".into(),
            pin: "Z".into(),
        };
        assert!(e.to_string().contains("BUF"));
        assert!(e.to_string().contains("Z"));
        assert!(CellError::UnknownCell("X".into()).to_string().contains("X"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CellError>();
    }
}
