//! Error type of the end-to-end flow.

use std::error::Error;
use std::fmt;

use acim_chip::ChipError;
use acim_dse::DseError;
use acim_layout::LayoutError;
use acim_netlist::NetlistError;

/// Errors produced by the top flow controller.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The flow configuration is inconsistent.
    InvalidConfig(String),
    /// The user distillation removed every Pareto-frontier solution.
    EmptyDistilledSet,
    /// A warm-start session archive was recorded over a different design
    /// space than the one the request explores.
    WarmStartMismatch {
        /// Design-space signature of the request.
        requested: String,
        /// Design-space signature the session archive was recorded over.
        session: String,
    },
    /// An error from the design-space explorer.
    Dse(DseError),
    /// An error from the netlist generator.
    Netlist(NetlistError),
    /// An error from the placer/router.
    Layout(LayoutError),
    /// An error from the chip-composition stage.
    Chip(ChipError),
    /// The job was cancelled (`JobHandle::cancel` or a tripped
    /// `CancelToken`) and stopped cooperatively at the next generation /
    /// design boundary, carrying its partial progress.
    Cancelled {
        /// Work units fully completed before the job stopped (generations
        /// for the exploration stages, designs for netlist/layout).
        completed: usize,
        /// Work units the interrupted stage was going to perform.
        total: usize,
    },
    /// The job's deadline expired before it finished; it stopped
    /// cooperatively at the next generation / design boundary, carrying
    /// its partial progress.
    DeadlineExceeded {
        /// Work units fully completed before the job stopped.
        completed: usize,
        /// Work units the interrupted stage was going to perform.
        total: usize,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::InvalidConfig(reason) => write!(f, "invalid flow configuration: {reason}"),
            FlowError::EmptyDistilledSet => {
                write!(
                    f,
                    "user distillation removed every Pareto-frontier solution"
                )
            }
            FlowError::WarmStartMismatch { requested, session } => {
                write!(
                    f,
                    "warm-start session covers design space `{session}`, \
                     but the request explores `{requested}`"
                )
            }
            FlowError::Dse(err) => write!(f, "design-space exploration failed: {err}"),
            FlowError::Netlist(err) => write!(f, "netlist generation failed: {err}"),
            FlowError::Layout(err) => write!(f, "layout generation failed: {err}"),
            FlowError::Chip(err) => write!(f, "chip composition failed: {err}"),
            FlowError::Cancelled { completed, total } => {
                write!(f, "job cancelled after {completed}/{total} work units")
            }
            FlowError::DeadlineExceeded { completed, total } => {
                write!(
                    f,
                    "job deadline exceeded after {completed}/{total} work units"
                )
            }
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Dse(err) => Some(err),
            FlowError::Netlist(err) => Some(err),
            FlowError::Layout(err) => Some(err),
            FlowError::Chip(err) => Some(err),
            _ => None,
        }
    }
}

impl From<DseError> for FlowError {
    fn from(err: DseError) -> Self {
        match err {
            // Cancellation surfaces as one typed variant regardless of
            // which layer noticed the tripped token, so callers match on
            // `FlowError::Cancelled` / `FlowError::DeadlineExceeded`
            // instead of digging through stage-specific wrappers.
            DseError::Cancelled { completed, total } => FlowError::Cancelled { completed, total },
            DseError::DeadlineExceeded { completed, total } => {
                FlowError::DeadlineExceeded { completed, total }
            }
            other => FlowError::Dse(other),
        }
    }
}

impl From<NetlistError> for FlowError {
    fn from(err: NetlistError) -> Self {
        FlowError::Netlist(err)
    }
}

impl From<LayoutError> for FlowError {
    fn from(err: LayoutError) -> Self {
        FlowError::Layout(err)
    }
}

impl From<ChipError> for FlowError {
    fn from(err: ChipError) -> Self {
        FlowError::Chip(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: FlowError = DseError::InvalidConfig("x".into()).into();
        assert!(e.to_string().contains("design-space exploration"));
        assert!(FlowError::EmptyDistilledSet
            .to_string()
            .contains("distillation"));
    }

    #[test]
    fn dse_cancellation_surfaces_as_the_flow_level_variant() {
        let e: FlowError = DseError::Cancelled {
            completed: 2,
            total: 9,
        }
        .into();
        assert_eq!(
            e,
            FlowError::Cancelled {
                completed: 2,
                total: 9
            }
        );
        assert!(e.to_string().contains("2/9"));
        let e: FlowError = DseError::DeadlineExceeded {
            completed: 8,
            total: 9,
        }
        .into();
        assert_eq!(
            e,
            FlowError::DeadlineExceeded {
                completed: 8,
                total: 9
            }
        );
        assert!(e.to_string().contains("deadline"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlowError>();
    }
}
