//! Error types of the layout crate.

use std::error::Error;
use std::fmt;

use acim_arch::ArchError;
use acim_cell::CellError;
use acim_netlist::NetlistError;

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
    /// An error bubbled up from the cell library.
    Cell(CellError),
    /// An error bubbled up from the netlist crate.
    Netlist(NetlistError),
    /// An error bubbled up from the architecture crate.
    Arch(ArchError),
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
            LayoutError::Cell(err) => write!(f, "cell library error: {err}"),
            LayoutError::Netlist(err) => write!(f, "netlist error: {err}"),
            LayoutError::Arch(err) => write!(f, "architecture error: {err}"),
        }
    }
}

impl Error for LayoutError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LayoutError::Cell(err) => Some(err),
            LayoutError::Netlist(err) => Some(err),
            LayoutError::Arch(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CellError> for LayoutError {
    fn from(err: CellError) -> Self {
        LayoutError::Cell(err)
    }
}

impl From<NetlistError> for LayoutError {
    fn from(err: NetlistError) -> Self {
        LayoutError::Netlist(err)
    }
}

impl From<ArchError> for LayoutError {
    fn from(err: ArchError) -> Self {
        LayoutError::Arch(err)
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
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LayoutError>();
    }
}
