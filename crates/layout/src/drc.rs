//! Lightweight design-rule checking.
//!
//! A small but real subset of a DRC deck, sufficient to catch the mistakes
//! a placer/router can actually make in this flow:
//!
//! * placed instances must not overlap,
//! * wires of different nets on the same layer must keep the layer's
//!   minimum spacing,
//! * wires must meet the layer's minimum width,
//! * everything must stay inside the layout boundary.

use acim_tech::Technology;

use crate::db::Layout;

/// One rule violation.
#[derive(Debug, Clone, PartialEq)]
pub enum DrcViolation {
    /// Two placed instances overlap.
    InstanceOverlap {
        /// First instance name.
        a: String,
        /// Second instance name.
        b: String,
    },
    /// Two wires of different nets on the same layer are closer than the
    /// minimum spacing.
    SpacingViolation {
        /// Layer name.
        layer: String,
        /// First net.
        net_a: String,
        /// Second net.
        net_b: String,
        /// Measured spacing in nanometres.
        spacing: f64,
        /// Required spacing in nanometres.
        required: f64,
    },
    /// A wire is narrower than the layer's minimum width.
    WidthViolation {
        /// Layer name.
        layer: String,
        /// Net name.
        net: String,
        /// Measured width in nanometres.
        width: f64,
        /// Required width in nanometres.
        required: f64,
    },
    /// Geometry extends outside the layout boundary.
    OutsideBoundary {
        /// Description of the offending object.
        what: String,
    },
}

/// The result of a DRC run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DrcReport {
    /// All violations found.
    pub violations: Vec<DrcViolation>,
    /// Number of objects checked (instances + wires).
    pub checked_objects: usize,
}

impl DrcReport {
    /// Returns `true` when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the checks on a layout's flat view.
pub fn check_layout(layout: &Layout, tech: &Technology) -> DrcReport {
    // The checks compare shapes pairwise across placements, so they run on
    // the flattened copy of a layout that places blocks.
    let flat;
    let layout = if layout.placements.is_empty() {
        layout
    } else {
        flat = layout.flattened();
        &flat
    };
    let mut report = DrcReport {
        checked_objects: layout.instances.len() + layout.wires.len(),
        ..Default::default()
    };

    // Instance overlap and boundary containment.
    let boundaries: Vec<_> = layout
        .instances
        .iter()
        .map(|i| (i.name.clone(), i.boundary()))
        .collect();
    for (i, (name_a, rect_a)) in boundaries.iter().enumerate() {
        if !layout.boundary.contains_rect(rect_a) {
            report.violations.push(DrcViolation::OutsideBoundary {
                what: format!("instance {name_a}"),
            });
        }
        for (name_b, rect_b) in boundaries.iter().skip(i + 1) {
            if rect_a.overlaps(rect_b) {
                report.violations.push(DrcViolation::InstanceOverlap {
                    a: name_a.clone(),
                    b: name_b.clone(),
                });
            }
        }
    }

    // Wire width, spacing and containment, grouped per layer.
    let mut by_layer: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
    for (index, wire) in layout.wires.iter().enumerate() {
        by_layer.entry(wire.layer.as_str()).or_default().push(index);
    }
    for (layer, indices) in by_layer {
        let Ok(rule) = tech.rules().layer_rule(layer) else {
            continue;
        };
        for &i in &indices {
            let wire = &layout.wires[i];
            let width = wire.rect.width().min(wire.rect.height());
            if width + 1e-9 < rule.min_width.value() {
                report.violations.push(DrcViolation::WidthViolation {
                    layer: layer.to_string(),
                    net: wire.net.clone(),
                    width,
                    required: rule.min_width.value(),
                });
            }
            if !layout.boundary.contains_rect(&wire.rect) {
                report.violations.push(DrcViolation::OutsideBoundary {
                    what: format!("wire {} on {}", wire.net, layer),
                });
            }
        }
        for (pos, &i) in indices.iter().enumerate() {
            for &j in indices.iter().skip(pos + 1) {
                let (wa, wb) = (&layout.wires[i], &layout.wires[j]);
                if wa.net == wb.net {
                    continue;
                }
                let spacing = wa.rect.spacing_to(&wb.rect);
                if wa.rect.overlaps(&wb.rect) || spacing + 1e-9 < rule.min_spacing.value() {
                    report.violations.push(DrcViolation::SpacingViolation {
                        layer: layer.to_string(),
                        net_a: wa.net.clone(),
                        net_b: wb.net.clone(),
                        spacing,
                        required: rule.min_spacing.value(),
                    });
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnTemplate;
    use crate::db::{PlacedInstance, Wire};
    use acim_arch::AcimSpec;
    use acim_cell::{CellLibrary, Orientation, Point, Rect};

    fn tech() -> Technology {
        Technology::s28()
    }

    #[test]
    fn clean_layout_passes() {
        let mut layout = Layout::new("clean", 10_000.0, 10_000.0);
        layout.wires.push(Wire {
            net: "A".into(),
            layer: "M2".into(),
            rect: Rect::new(0.0, 0.0, 50.0, 5000.0),
        });
        layout.wires.push(Wire {
            net: "B".into(),
            layer: "M2".into(),
            rect: Rect::new(500.0, 0.0, 550.0, 5000.0),
        });
        let report = check_layout(&layout, &tech());
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.checked_objects, 2);
    }

    #[test]
    fn overlapping_instances_are_caught() {
        let mut layout = Layout::new("bad", 10_000.0, 10_000.0);
        for (name, x) in [("X0", 0.0), ("X1", 500.0)] {
            layout.instances.push(PlacedInstance {
                name: name.into(),
                cell: "SRAM8T".into(),
                origin: Point::new(x, 0.0),
                orientation: Orientation::R0,
                width: 2000.0,
                height: 632.0,
            });
        }
        let report = check_layout(&layout, &tech());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, DrcViolation::InstanceOverlap { .. })));
    }

    #[test]
    fn spacing_and_width_violations_are_caught() {
        let mut layout = Layout::new("bad", 10_000.0, 10_000.0);
        // Two different nets 10 nm apart on M2 (minimum spacing is 50 nm).
        layout.wires.push(Wire {
            net: "A".into(),
            layer: "M2".into(),
            rect: Rect::new(0.0, 0.0, 50.0, 1000.0),
        });
        layout.wires.push(Wire {
            net: "B".into(),
            layer: "M2".into(),
            rect: Rect::new(60.0, 0.0, 110.0, 1000.0),
        });
        // A 20 nm-wide wire on M3 (minimum width 56 nm).
        layout.wires.push(Wire {
            net: "C".into(),
            layer: "M3".into(),
            rect: Rect::new(0.0, 2000.0, 1000.0, 2020.0),
        });
        let report = check_layout(&layout, &tech());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, DrcViolation::SpacingViolation { .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, DrcViolation::WidthViolation { .. })));
    }

    #[test]
    fn same_net_wires_may_touch() {
        let mut layout = Layout::new("ok", 10_000.0, 10_000.0);
        layout.wires.push(Wire {
            net: "A".into(),
            layer: "M2".into(),
            rect: Rect::new(0.0, 0.0, 50.0, 1000.0),
        });
        layout.wires.push(Wire {
            net: "A".into(),
            layer: "M2".into(),
            rect: Rect::new(0.0, 950.0, 1000.0, 1000.0),
        });
        assert!(check_layout(&layout, &tech()).is_clean());
    }

    #[test]
    fn geometry_outside_the_boundary_is_caught() {
        let mut layout = Layout::new("bad", 1000.0, 1000.0);
        layout.wires.push(Wire {
            net: "A".into(),
            layer: "M2".into(),
            rect: Rect::new(900.0, 0.0, 1500.0, 60.0),
        });
        let report = check_layout(&layout, &tech());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, DrcViolation::OutsideBoundary { .. })));
    }

    #[test]
    fn generated_column_template_is_drc_clean() {
        let technology = tech();
        let library = CellLibrary::s28_default(&technology);
        let spec = AcimSpec::from_dimensions(32, 8, 4, 3).unwrap();
        let template = ColumnTemplate::build(&spec, &technology, &library).unwrap();
        let report = check_layout(&template.layout, &technology);
        assert!(
            report.is_clean(),
            "column template has violations: {:?}",
            report.violations.iter().take(5).collect::<Vec<_>>()
        );
    }
}
