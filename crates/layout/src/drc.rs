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
//!
//! The checks read the layout's walk ([`Layout::parts`]).  Two wires are of
//! one net when they share a part, a column or the layout's own objects,
//! and hold one name id ([`crate::db`]).  Names are text only in the
//! violations: an object's part prefix followed by its own name.

use std::collections::BTreeMap;

use acim_cell::Rect;
use acim_tech::Technology;

use crate::db::{Layout, NameId, Part};

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
        layer: &'static str,
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
        layer: &'static str,
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

/// Runs the checks on a layout's walk, in place: an object's name is
/// formatted only for a violation that reports it.
pub fn check_layout(layout: &Layout, tech: &Technology) -> DrcReport {
    let parts: Vec<Part<'_>> = layout.parts().collect();
    let instance_count = layout.instance_count();
    let mut report = DrcReport {
        checked_objects: instance_count + layout.wire_count(),
        ..Default::default()
    };

    // Instance overlap and boundary containment.  Each object keeps its
    // rectangle beside its part's index in `parts` and its name id.
    let mut instances = Vec::with_capacity(instance_count);
    for (p, part) in parts.iter().enumerate() {
        for instance in &part.block.instances {
            let origin = part.point(instance.origin);
            let rect = Rect::from_size(origin, instance.width, instance.height);
            instances.push((rect, p, instance.name));
        }
    }
    for (index, &(rect_a, a, name_a)) in instances.iter().enumerate() {
        if !layout.boundary.contains_rect(&rect_a) {
            report.violations.push(DrcViolation::OutsideBoundary {
                what: format!("instance {}", flat_name(&parts[a], name_a)),
            });
        }
        for &(rect_b, b, name_b) in &instances[index + 1..] {
            if rect_a.overlaps(&rect_b) {
                report.violations.push(DrcViolation::InstanceOverlap {
                    a: flat_name(&parts[a], name_a),
                    b: flat_name(&parts[b], name_b),
                });
            }
        }
    }

    // Wire width, spacing and containment, grouped per layer.
    let mut by_layer: BTreeMap<&'static str, Vec<_>> = BTreeMap::new();
    for (p, part) in parts.iter().enumerate() {
        for wire in &part.block.wires {
            let wires = by_layer.entry(wire.layer).or_default();
            wires.push((part.rect(wire.rect), p, wire.net));
        }
    }
    for (layer, wires) in by_layer {
        let Ok(rule) = tech.rules().layer_rule(layer) else {
            continue;
        };
        for &(rect, p, net) in &wires {
            let width = rect.width().min(rect.height());
            if width + 1e-9 < rule.min_width.value() {
                report.violations.push(DrcViolation::WidthViolation {
                    layer,
                    net: flat_name(&parts[p], net),
                    width,
                    required: rule.min_width.value(),
                });
            }
            if !layout.boundary.contains_rect(&rect) {
                report.violations.push(DrcViolation::OutsideBoundary {
                    what: format!("wire {} on {layer}", flat_name(&parts[p], net)),
                });
            }
        }
        for (index, &(rect_a, a, net_a)) in wires.iter().enumerate() {
            for &(rect_b, b, net_b) in &wires[index + 1..] {
                if (a, net_a) == (b, net_b) {
                    continue;
                }
                let spacing = rect_a.spacing_to(&rect_b);
                if rect_a.overlaps(&rect_b) || spacing + 1e-9 < rule.min_spacing.value() {
                    report.violations.push(DrcViolation::SpacingViolation {
                        layer,
                        net_a: flat_name(&parts[a], net_a),
                        net_b: flat_name(&parts[b], net_b),
                        spacing,
                        required: rule.min_spacing.value(),
                    });
                }
            }
        }
    }
    report
}

/// The name of `id` in `part`'s block, in the layout: the part's prefix
/// followed by the id's text.
fn flat_name(part: &Part<'_>, id: NameId) -> String {
    format!("{}{}", part.prefix().as_str(), part.block.names.get(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnTemplate;
    use crate::db::{Columns, PlacedInstance, Wire};
    use acim_arch::AcimSpec;
    use acim_cell::{CellLibrary, Orientation, Point};

    fn tech() -> Technology {
        Technology::s28()
    }

    #[test]
    fn clean_layout_passes() {
        let mut layout = Layout::new("clean", 10_000.0, 10_000.0);
        layout.wires.push(Wire {
            net: layout.names.add("A"),
            layer: "M2",
            rect: Rect::new(0.0, 0.0, 50.0, 5000.0),
        });
        layout.wires.push(Wire {
            net: layout.names.add("B"),
            layer: "M2",
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
                name: layout.names.add(name),
                cell: "SRAM8T",
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
            net: layout.names.add("A"),
            layer: "M2",
            rect: Rect::new(0.0, 0.0, 50.0, 1000.0),
        });
        layout.wires.push(Wire {
            net: layout.names.add("B"),
            layer: "M2",
            rect: Rect::new(60.0, 0.0, 110.0, 1000.0),
        });
        // A 20 nm-wide wire on M3 (minimum width 56 nm).
        layout.wires.push(Wire {
            net: layout.names.add("C"),
            layer: "M3",
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
        let net = layout.names.add("A");
        layout.wires.push(Wire {
            net,
            layer: "M2",
            rect: Rect::new(0.0, 0.0, 50.0, 1000.0),
        });
        layout.wires.push(Wire {
            net,
            layer: "M2",
            rect: Rect::new(0.0, 950.0, 1000.0, 1000.0),
        });
        assert!(check_layout(&layout, &tech()).is_clean());
    }

    /// Nets compare by column and name id: one local net in two columns is
    /// two nets, and an own wire whose text equals a column wire's name is
    /// a net of its own.
    #[test]
    fn placements_and_ids_decide_which_wires_share_a_net() {
        let mut block = Layout::new("BLOCK", 100.0, 1000.0);
        block.wires.push(Wire {
            net: block.names.add("A"),
            layer: "M2",
            rect: Rect::new(0.0, 0.0, 50.0, 1000.0),
        });
        let mut top = Layout::new("TOP", 1000.0, 1000.0);
        top.place_columns(Columns {
            block: std::sync::Arc::new(block),
            origin: Point::new(0.0, 0.0),
            pitch: 60.0,
            count: 2,
        })
        .unwrap();
        top.wires.push(Wire {
            net: top.names.add("COL_0/A"),
            layer: "M2",
            rect: Rect::new(0.0, 0.0, 50.0, 500.0),
        });
        let report = check_layout(&top, &tech());
        assert_eq!(report.checked_objects, 3);
        let pairs: Vec<(&str, &str)> = report
            .violations
            .iter()
            .map(|v| match v {
                DrcViolation::SpacingViolation { net_a, net_b, .. } => {
                    (net_a.as_str(), net_b.as_str())
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            pairs,
            [
                ("COL_0/A", "COL_1/A"),
                ("COL_0/A", "COL_0/A"),
                ("COL_1/A", "COL_0/A")
            ]
        );
    }

    #[test]
    fn geometry_outside_the_boundary_is_caught() {
        let mut layout = Layout::new("bad", 1000.0, 1000.0);
        layout.wires.push(Wire {
            net: layout.names.add("A"),
            layer: "M2",
            rect: Rect::new(900.0, 0.0, 1500.0, 60.0),
        });
        let report = check_layout(&layout, &tech());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, DrcViolation::OutsideBoundary { .. })));
    }

    /// FNV-1a, 64 bit.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The reports of the perfbench DRC-subset macros and of their column
    /// templates, pinned in full as `(checked_objects, violation count,
    /// FNV-1a of the violation list's Debug text)`: every violation, in
    /// order, with its flat names and measurements.  The macros'
    /// violations are the known shorts between one column's output
    /// stitches on M4.
    #[test]
    fn drc_subset_reports_are_pinned() {
        type Dims = (usize, usize, usize, u32);
        type Pins = (usize, usize, u64);
        const CLEAN: u64 = 0x0961_2b07_b5ec_b5a5;
        const PINS: [(Dims, Pins, Pins); 3] = [
            (
                (64, 16, 4, 3),
                (518, 0, CLEAN),
                (8_520, 48, 0x0116_7a34_fc17_ebd7),
            ),
            (
                (256, 16, 4, 4),
                (798, 0, CLEAN),
                (13_416, 96, 0xabbe_444a_9a6b_aa0d),
            ),
            (
                (1024, 4, 2, 8),
                (2_174, 0, CLEAN),
                (10_815, 112, 0xe5ab_39cf_e4b5_adf1),
            ),
        ];
        let technology = tech();
        let library = CellLibrary::s28_default(&technology);
        let flow = crate::flow::LayoutFlow::new(&technology, &library);
        for ((h, w, l, bits), column_pins, macro_pins) in PINS {
            let spec = AcimSpec::from_dimensions(h, w, l, bits).unwrap();
            let column = ColumnTemplate::build(&spec, &technology, &library).unwrap();
            let layout = flow.generate(&spec).unwrap().layout;
            for (what, layout, pinned) in [
                ("column", &*column.layout, column_pins),
                ("macro", &layout, macro_pins),
            ] {
                let report = check_layout(layout, &technology);
                let text = format!("{:?}", report.violations);
                let got = (
                    report.checked_objects,
                    report.violations.len(),
                    fnv1a(text.as_bytes()),
                );
                assert_eq!(
                    got, pinned,
                    "{h}x{w} L{l} B{bits} {what}: got ({}, {}, 0x{:016x})",
                    got.0, got.1, got.2
                );
            }
        }
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
