//! Flow configuration.

use acim_dse::{DseConfig, UserRequirements};
use acim_tech::Technology;

use crate::error::FlowError;

/// Configuration of one end-to-end EasyACIM run.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// The technology files (layer map, design rules, device statistics).
    pub technology: Technology,
    /// Design-space-exploration settings (array size, NSGA-II parameters,
    /// estimation-model parameters).
    pub dse: DseConfig,
    /// The user-distillation requirements applied to the Pareto frontier.
    pub requirements: UserRequirements,
    /// Maximum number of distilled solutions taken through netlist and
    /// layout generation (the most expensive stage); `0` means "all".
    pub max_layouts: usize,
    /// Whether to render each generated design's SPICE netlist text into
    /// `GeneratedDesign::spice`.  The flow renders no DEF or GDS text:
    /// `acim_layout::write_def` and `acim_layout::write_gds_text` emit
    /// those from each returned design's `layout.layout`.
    pub emit_files: bool,
}

impl FlowConfig {
    /// Creates a configuration for a user-defined array size with default
    /// exploration settings, no distillation constraints, and at most three
    /// generated layouts.
    pub fn new(array_size: usize) -> Self {
        Self {
            technology: Technology::s28(),
            dse: DseConfig {
                array_size,
                ..DseConfig::default()
            },
            requirements: UserRequirements::none(),
            max_layouts: 3,
            emit_files: false,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] for obviously inconsistent
    /// settings; deeper validation happens inside the explorer.
    pub fn validate(&self) -> Result<(), FlowError> {
        if self.dse.array_size == 0 {
            return Err(FlowError::InvalidConfig(
                "array size must be positive".into(),
            ));
        }
        if self.dse.population_size < 4 {
            return Err(FlowError::InvalidConfig(
                "population size must be at least 4".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_is_valid() {
        let config = FlowConfig::new(16 * 1024);
        assert!(config.validate().is_ok());
        assert_eq!(config.dse.array_size, 16 * 1024);
        assert_eq!(config.max_layouts, 3);
    }

    #[test]
    fn invalid_configurations_detected() {
        let mut config = FlowConfig::new(0);
        assert!(config.validate().is_err());
        config = FlowConfig::new(1024);
        config.dse.population_size = 2;
        assert!(config.validate().is_err());
    }
}
