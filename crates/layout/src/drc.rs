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

use std::collections::BTreeMap;

use acim_cell::Rect;
use acim_tech::Technology;

use crate::db::{Flat, Layout, Wire};

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

/// Runs the checks on a layout's flat view, in place: a flat object's
/// name, its placement's prefix followed by its own name, is formatted
/// only for a violation that reports it.
pub fn check_layout(layout: &Layout, tech: &Technology) -> DrcReport {
    let mut report = DrcReport {
        checked_objects: layout.instance_count() + layout.wire_count(),
        ..Default::default()
    };

    // Instance overlap and boundary containment.
    let instances: Vec<_> = layout
        .flat_instances()
        .map(|i| {
            (
                Rect::from_size(i.origin(), i.local.width, i.local.height),
                i,
            )
        })
        .collect();
    for (index, (rect_a, a)) in instances.iter().enumerate() {
        if !layout.boundary.contains_rect(rect_a) {
            report.violations.push(DrcViolation::OutsideBoundary {
                what: format!("instance {}{}", a.prefix, a.local.name),
            });
        }
        for (rect_b, b) in &instances[index + 1..] {
            if rect_a.overlaps(rect_b) {
                report.violations.push(DrcViolation::InstanceOverlap {
                    a: format!("{}{}", a.prefix, a.local.name),
                    b: format!("{}{}", b.prefix, b.local.name),
                });
            }
        }
    }

    // Wire width, spacing and containment, grouped per layer.  Each wire
    // keeps its rectangle and a hash of its flat net name beside it, so
    // the pairwise loop compares names only when the hashes agree.
    let mut by_layer: BTreeMap<&str, Vec<_>> = BTreeMap::new();
    for wire in layout.flat_wires() {
        let hash = flat_net(&wire).fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        });
        by_layer
            .entry(wire.local.layer.as_str())
            .or_default()
            .push((wire.rect(), hash, wire));
    }
    for (layer, wires) in by_layer {
        let Ok(rule) = tech.rules().layer_rule(layer) else {
            continue;
        };
        for (rect, _, wire) in &wires {
            let width = rect.width().min(rect.height());
            if width + 1e-9 < rule.min_width.value() {
                report.violations.push(DrcViolation::WidthViolation {
                    layer: layer.to_string(),
                    net: format!("{}{}", wire.prefix, wire.local.net),
                    width,
                    required: rule.min_width.value(),
                });
            }
            if !layout.boundary.contains_rect(rect) {
                report.violations.push(DrcViolation::OutsideBoundary {
                    what: format!("wire {}{} on {layer}", wire.prefix, wire.local.net),
                });
            }
        }
        for (index, (rect_a, hash_a, a)) in wires.iter().enumerate() {
            for (rect_b, hash_b, b) in &wires[index + 1..] {
                if hash_a == hash_b && flat_net(a).eq(flat_net(b)) {
                    continue;
                }
                let spacing = rect_a.spacing_to(rect_b);
                if rect_a.overlaps(rect_b) || spacing + 1e-9 < rule.min_spacing.value() {
                    report.violations.push(DrcViolation::SpacingViolation {
                        layer: layer.to_string(),
                        net_a: format!("{}{}", a.prefix, a.local.net),
                        net_b: format!("{}{}", b.prefix, b.local.net),
                        spacing,
                        required: rule.min_spacing.value(),
                    });
                }
            }
        }
    }
    report
}

/// The bytes of a flat wire's net name, `prefix + net`, without
/// formatting it.
fn flat_net<'a>(wire: &Flat<'a, Wire>) -> impl Iterator<Item = u8> + 'a {
    wire.prefix.bytes().chain(wire.local.net.bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnTemplate;
    use crate::db::PlacedInstance;
    use acim_arch::AcimSpec;
    use acim_cell::{CellLibrary, Orientation, Point};

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

    /// Nets compare by flat name, placement prefix included: one local net
    /// in two placements is two nets, and an own wire named like a placed
    /// wire's flat name is that wire's net.
    #[test]
    fn flat_names_decide_which_wires_share_a_net() {
        let mut block = Layout::new("BLOCK", 100.0, 1000.0);
        block.wires.push(Wire {
            net: "A".into(),
            layer: "M2".into(),
            rect: Rect::new(0.0, 0.0, 50.0, 1000.0),
        });
        let block = std::sync::Arc::new(block);
        let mut top = Layout::new("TOP", 1000.0, 1000.0);
        top.place(block.clone(), Point::new(0.0, 0.0), "COL_0/")
            .unwrap();
        top.place(block, Point::new(60.0, 0.0), "COL_1/").unwrap();
        top.wires.push(Wire {
            net: "COL_0/A".into(),
            layer: "M2".into(),
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
        assert_eq!(pairs, [("COL_0/A", "COL_1/A"), ("COL_1/A", "COL_0/A")]);
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
