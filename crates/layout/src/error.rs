//! Error types of the layout crate.

use std::error::Error;
use std::fmt;

use acim_arch::ArchError;
use acim_cell::CellError;
use acim_tech::TechError;

/// Errors produced by placement, routing or layout assembly.
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutError {
    /// A net could not be routed within the available resources.
    Unroutable {
        /// Net name.
        net: String,
        /// Context (block or level being routed).
        context: String,
    },
    /// A configuration or geometric parameter was invalid.
    InvalidParameter {
        /// Parameter name.
        name: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A cell or block lacks a pin the flow connects to.
    MissingPin {
        /// Cell or block name.
        cell: String,
        /// Name of the missing pin.
        pin: String,
    },
    /// An error bubbled up from the cell library.
    Cell(CellError),
    /// An error bubbled up from the architecture crate.
    Arch(ArchError),
    /// An error bubbled up from the technology, such as a missing layer
    /// rule.
    Tech(TechError),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Unroutable { net, context } => {
                write!(f, "net `{net}` could not be routed in {context}")
            }
            LayoutError::InvalidParameter { name, reason } => {
                write!(f, "invalid layout parameter `{name}`: {reason}")
            }
            LayoutError::MissingPin { cell, pin } => {
                write!(f, "cell `{cell}` has no pin `{pin}`")
            }
            LayoutError::Cell(err) => write!(f, "cell library error: {err}"),
            LayoutError::Arch(err) => write!(f, "architecture error: {err}"),
            LayoutError::Tech(err) => write!(f, "technology error: {err}"),
        }
    }
}

impl Error for LayoutError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LayoutError::Cell(err) => Some(err),
            LayoutError::Arch(err) => Some(err),
            LayoutError::Tech(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CellError> for LayoutError {
    fn from(err: CellError) -> Self {
        LayoutError::Cell(err)
    }
}

impl From<ArchError> for LayoutError {
    fn from(err: ArchError) -> Self {
        LayoutError::Arch(err)
    }
}

impl From<TechError> for LayoutError {
    fn from(err: TechError) -> Self {
        LayoutError::Tech(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = LayoutError::Unroutable {
            net: "RBL".into(),
            context: "COLUMN".into(),
        };
        assert!(e.to_string().contains("RBL"));
        let e: LayoutError = CellError::UnknownCell("X".into()).into();
        assert!(e.to_string().contains("cell library error"));
        let e: LayoutError = ArchError::invalid_spec("a", "b").into();
        assert!(e.to_string().contains("architecture error"));
        let e: LayoutError = TechError::MissingRule("M9".into()).into();
        assert!(e.to_string().contains("technology error"));
        assert!(e.source().is_some());
        let e = LayoutError::MissingPin {
            cell: "COMP_SA".into(),
            pin: "COM".into(),
        };
        assert_eq!(e.to_string(), "cell `COMP_SA` has no pin `COM`");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LayoutError>();
    }
}
