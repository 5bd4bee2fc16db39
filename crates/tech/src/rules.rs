//! Design rules.
//!
//! A deliberately small rule deck: the minimum width and the minimum
//! same-layer spacing of every mask layer.  The lightweight DRC checker in
//! `acim-layout` checks both; the cell library and the layout flow size
//! their rails, tracks and stripes at the minimum width.

use std::collections::BTreeMap;

use crate::error::TechError;
use crate::units::Nanometer;

/// Width/spacing rule pair for a single layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleSet {
    /// Minimum drawn width.
    pub min_width: Nanometer,
    /// Minimum same-layer spacing.
    pub min_spacing: Nanometer,
}

/// The design-rule portion of the technology files.
#[derive(Debug, Clone)]
pub struct DesignRules {
    pub(crate) layer_rules: BTreeMap<&'static str, RuleSet>,
}

impl DesignRules {
    /// Looks up the width/spacing rule for a layer name.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::MissingRule`] when the layer has no registered
    /// rule.
    pub fn layer_rule(&self, layer: &str) -> Result<RuleSet, TechError> {
        self.layer_rules
            .get(layer)
            .copied()
            .ok_or_else(|| TechError::MissingRule(layer.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use crate::{TechError, Technology};

    #[test]
    fn every_s28_layer_has_a_rule() {
        let tech = Technology::s28();
        let layers: Vec<_> = tech.layers().layers.keys().collect();
        let rules: Vec<_> = tech.rules().layer_rules.keys().collect();
        assert_eq!(layers, rules);
    }

    #[test]
    fn missing_rule_is_an_error() {
        let err = Technology::s28()
            .rules()
            .layer_rule("M9")
            .expect_err("M9 does not exist");
        assert!(matches!(err, TechError::MissingRule(name) if name == "M9"));
    }

    #[test]
    fn via_rules_exist_for_all_cut_layers() {
        let tech = Technology::s28();
        for i in 1..=5 {
            assert!(tech.rules().layer_rule(&format!("VIA{i}")).is_ok());
        }
        assert!(tech.rules().layer_rule("VIA6").is_err());
    }

    #[test]
    fn thick_top_metal_has_wider_spacing_than_width() {
        let tech = Technology::s28();
        let m6 = tech.rules().layer_rule("M6").unwrap();
        assert!(m6.min_spacing.value() > m6.min_width.value());
        let m2 = tech.rules().layer_rule("M2").unwrap();
        assert_eq!(m2.min_spacing.value(), m2.min_width.value());
    }
}
