//! The [`Technology`] aggregate: everything the EasyACIM flow needs to know
//! about the target process.

use crate::device::{CapacitorModel, ComparatorModel};
use crate::layers::{Layer, LayerMap};
use crate::rules::{DesignRules, RuleSet};
use crate::units::{Femtofarad, Kelvin, Nanometer, Volt};

/// The S28 mask layers: name, GDS layer number (every datatype is 0),
/// minimum width and minimum spacing in nanometres.  The OD/PO/CO front
/// end and the N-well come first, then the six routing metals, whose width
/// grows with the index as in a typical 28 nm stack (M5/M6 are
/// semi-global layers used for power), each followed by the via up to the
/// next metal; a via is as wide as the thinner of its metal and 56 nm.
/// Spacing equals width on the metals and vias but for the thick top metal
/// M6, which spaces at 1.25× its width.
const S28_LAYERS: [(&str, u16, f64, f64); 16] = [
    ("OD", 6, 90.0, 90.0),
    ("PO", 17, 30.0, 87.0),
    ("CO", 30, 40.0, 70.0),
    ("NW", 3, 200.0, 250.0),
    ("M1", 31, 50.0, 50.0),
    ("VIA1", 51, 50.0, 50.0),
    ("M2", 32, 50.0, 50.0),
    ("VIA2", 52, 50.0, 50.0),
    ("M3", 33, 56.0, 56.0),
    ("VIA3", 53, 56.0, 56.0),
    ("M4", 34, 56.0, 56.0),
    ("VIA4", 54, 56.0, 56.0),
    ("M5", 35, 90.0, 90.0),
    ("VIA5", 55, 56.0, 56.0),
    ("M6", 36, 400.0, 500.0),
    ("MARKER", 100, 10.0, 10.0),
];

/// A complete technology description ("technology files" input of Figure 4).
///
/// # Example
///
/// ```
/// use acim_tech::Technology;
///
/// let tech = Technology::s28();
/// let m2 = tech.rules().layer_rule("M2").expect("M2 has a rule");
/// assert_eq!(m2.min_width.value(), 50.0);
/// ```
#[derive(Debug, Clone)]
pub struct Technology {
    feature_size_nm: f64,
    vdd: Volt,
    temperature: Kelvin,
    layers: LayerMap,
    rules: DesignRules,
    capacitor: CapacitorModel,
    comparator: ComparatorModel,
}

impl Technology {
    /// Builds the synthetic 28 nm-class technology used throughout the
    /// reproduction (substitute for the paper's TSMC28 PDK).
    pub fn s28() -> Self {
        let layers = S28_LAYERS.iter().map(|&(name, gds_layer, _, _)| {
            let layer = Layer {
                gds_layer,
                gds_datatype: 0,
            };
            (name, layer)
        });
        let rules = S28_LAYERS.iter().map(|&(name, _, width, spacing)| {
            let rule = RuleSet {
                min_width: Nanometer::new(width),
                min_spacing: Nanometer::new(spacing),
            };
            (name, rule)
        });
        Self {
            feature_size_nm: 28.0,
            vdd: Volt::new(0.9),
            temperature: Kelvin::new(300.0),
            layers: LayerMap {
                layers: layers.collect(),
            },
            rules: DesignRules {
                layer_rules: rules.collect(),
            },
            capacitor: CapacitorModel {
                unit_cap: Femtofarad::new(1.2),
                kappa: 0.01,
            },
            comparator: ComparatorModel {
                noise_sigma_v: 0.35e-3,
                offset_sigma_v: 2.0e-3,
            },
        }
    }

    /// Minimum feature size F in nanometres.
    pub fn feature_size_nm(&self) -> f64 {
        self.feature_size_nm
    }

    /// Nominal supply voltage.
    pub fn vdd(&self) -> Volt {
        self.vdd
    }

    /// Nominal operating temperature.
    pub fn temperature(&self) -> Kelvin {
        self.temperature
    }

    /// Layer map.
    pub fn layers(&self) -> &LayerMap {
        &self.layers
    }

    /// Design rules.
    pub fn rules(&self) -> &DesignRules {
        &self.rules
    }

    /// Compute/CDAC capacitor model.
    pub fn capacitor(&self) -> &CapacitorModel {
        &self.capacitor
    }

    /// Dynamic-comparator model.
    pub fn comparator(&self) -> &ComparatorModel {
        &self.comparator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s28_defaults() {
        let tech = Technology::s28();
        assert_eq!(tech.feature_size_nm(), 28.0);
        assert!((tech.vdd().value() - 0.9).abs() < 1e-12);
        assert!((tech.temperature().value() - 300.0).abs() < 1e-12);
    }

    /// Every value the flow reads from the technology, at the values the
    /// S28 technology has always had: each layer's GDS numbers and width
    /// and spacing rules, the feature size, VDD, temperature and the
    /// capacitor and comparator statistics.
    #[test]
    fn s28_values_are_pinned() {
        // Name, GDS layer, minimum width and minimum spacing in nm; every
        // layer's GDS datatype is 0.
        const LAYERS: [(&str, u16, f64, f64); 16] = [
            ("OD", 6, 90.0, 90.0),
            ("PO", 17, 30.0, 87.0),
            ("CO", 30, 40.0, 70.0),
            ("NW", 3, 200.0, 250.0),
            ("M1", 31, 50.0, 50.0),
            ("VIA1", 51, 50.0, 50.0),
            ("M2", 32, 50.0, 50.0),
            ("VIA2", 52, 50.0, 50.0),
            ("M3", 33, 56.0, 56.0),
            ("VIA3", 53, 56.0, 56.0),
            ("M4", 34, 56.0, 56.0),
            ("VIA4", 54, 56.0, 56.0),
            ("M5", 35, 90.0, 90.0),
            ("VIA5", 55, 56.0, 56.0),
            ("M6", 36, 400.0, 500.0),
            ("MARKER", 100, 10.0, 10.0),
        ];
        let tech = Technology::s28();
        for (name, gds_layer, width, spacing) in LAYERS {
            let layer = tech.layers().by_name(name).unwrap();
            let rule = tech.rules().layer_rule(name).unwrap();
            assert_eq!(
                (
                    layer.gds_layer(),
                    layer.gds_datatype(),
                    rule.min_width.value(),
                    rule.min_spacing.value()
                ),
                (gds_layer, 0, width, spacing),
                "{name}"
            );
        }
        assert_eq!(tech.feature_size_nm(), 28.0);
        assert_eq!(tech.vdd().value(), 0.9);
        assert_eq!(tech.temperature().value(), 300.0);
        assert_eq!(tech.capacitor().unit_cap.value(), 1.2);
        assert_eq!(tech.capacitor().kappa, 0.01);
        assert_eq!(tech.comparator().noise_sigma_v, 0.35e-3);
        assert_eq!(tech.comparator().offset_sigma_v, 2.0e-3);
    }
}
