//! Error types of the technology crate.

use std::error::Error;
use std::fmt;

/// Errors produced while querying a technology description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TechError {
    /// No design rule was registered for the requested layer.
    MissingRule(String),
}

impl fmt::Display for TechError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TechError::MissingRule(name) => write!(f, "no design rule registered for `{name}`"),
        }
    }
}

impl Error for TechError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = TechError::MissingRule("VIA2".into());
        assert!(e.to_string().contains("VIA2"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TechError>();
    }
}
