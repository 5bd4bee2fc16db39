//! Error type of the workloads crate.

use std::error::Error;
use std::fmt;

/// Errors produced while building workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// Two operands have incompatible shapes.
    ShapeMismatch {
        /// Description of the operation.
        operation: String,
        /// Left-hand shape.
        left: (usize, usize),
        /// Right-hand shape.
        right: (usize, usize),
    },
    /// A workload parameter was invalid.
    InvalidParameter {
        /// Parameter name.
        name: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::ShapeMismatch {
                operation,
                left,
                right,
            } => write!(
                f,
                "shape mismatch in {operation}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            WorkloadError::InvalidParameter { name, reason } => {
                write!(f, "invalid workload parameter `{name}`: {reason}")
            }
        }
    }
}

impl Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = WorkloadError::ShapeMismatch {
            operation: "matmul".into(),
            left: (3, 4),
            right: (5, 6),
        };
        assert!(e.to_string().contains("3x4"));
        let e = WorkloadError::InvalidParameter {
            name: "rows".into(),
            reason: "must be positive".into(),
        };
        assert_eq!(
            e.to_string(),
            "invalid workload parameter `rows`: must be positive"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WorkloadError>();
    }
}
