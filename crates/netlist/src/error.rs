//! Error types of the netlist crate.

use std::error::Error;
use std::fmt;

use acim_arch::ArchError;
use acim_cell::CellError;

/// Errors produced while building or generating netlists.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistError {
    /// A module with the same name already exists in the design.
    DuplicateModule(String),
    /// [`Design::set_top`](crate::Design::set_top) named a module the
    /// design does not have.
    UnknownModule(String),
    /// An instance refers to a leaf cell missing from the library, or to a
    /// module not added before the instance's parent.
    UnknownReference {
        /// Instance name.
        instance: String,
        /// Name of the missing cell or module (`module #k` for an id the
        /// design does not have).
        target: String,
    },
    /// An instance's net count differs from its target's port count.
    ArityMismatch {
        /// Instance name.
        instance: String,
        /// Target module or cell name.
        target: String,
        /// The target's port count.
        expected: usize,
        /// The instance's net count.
        actual: usize,
    },
    /// An instance connects a net id beyond its parent's net table.
    NetOutOfRange {
        /// Instance name.
        instance: String,
        /// Target module or cell name.
        target: String,
        /// The offending net index.
        net: usize,
        /// Size of the parent's net table.
        nets: usize,
    },
    /// A template wires a port the library's leaf cell does not have.
    UnknownPort {
        /// Instance name.
        instance: String,
        /// Leaf cell name.
        target: String,
        /// The missing port.
        port: String,
    },
    /// An error bubbled up from the cell library.
    Cell(CellError),
    /// An error bubbled up from the architecture crate (spec validation).
    Arch(ArchError),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateModule(name) => write!(f, "duplicate module `{name}`"),
            NetlistError::UnknownModule(name) => write!(f, "unknown module `{name}`"),
            NetlistError::UnknownReference { instance, target } => write!(
                f,
                "instance `{instance}` refers to `{target}`, which is neither a library cell \
                 nor a module added before its parent"
            ),
            NetlistError::ArityMismatch {
                instance,
                target,
                expected,
                actual,
            } => write!(
                f,
                "instance `{instance}` of `{target}` connects {actual} nets to {expected} ports"
            ),
            NetlistError::NetOutOfRange {
                instance,
                target,
                net,
                nets,
            } => write!(
                f,
                "instance `{instance}` of `{target}` connects net {net} of a {nets}-net table"
            ),
            NetlistError::UnknownPort {
                instance,
                target,
                port,
            } => write!(
                f,
                "instance `{instance}` wires port `{port}`, which leaf cell `{target}` lacks"
            ),
            NetlistError::Cell(err) => write!(f, "cell library error: {err}"),
            NetlistError::Arch(err) => write!(f, "architecture error: {err}"),
        }
    }
}

impl Error for NetlistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetlistError::Cell(err) => Some(err),
            NetlistError::Arch(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CellError> for NetlistError {
    fn from(err: CellError) -> Self {
        NetlistError::Cell(err)
    }
}

impl From<ArchError> for NetlistError {
    fn from(err: ArchError) -> Self {
        NetlistError::Arch(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: NetlistError = CellError::UnknownCell("X".into()).into();
        assert!(e.to_string().contains("cell library error"));
        let e: NetlistError = ArchError::invalid_spec("c", "d").into();
        assert!(e.to_string().contains("architecture error"));
        let e = NetlistError::UnknownReference {
            instance: "XFOO".into(),
            target: "FOO".into(),
        };
        assert!(e.to_string().contains("XFOO") && e.to_string().contains("`FOO`"));
        let e = NetlistError::ArityMismatch {
            instance: "X1".into(),
            target: "T".into(),
            expected: 1,
            actual: 3,
        };
        assert_eq!(
            e.to_string(),
            "instance `X1` of `T` connects 3 nets to 1 ports"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}
