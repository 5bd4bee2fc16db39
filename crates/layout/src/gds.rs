//! Text GDS-like and DEF-like writers.
//!
//! The reproduction has no binary GDSII dependency; instead the layout can
//! be dumped in two human-readable exchange formats:
//!
//! * a GDS-like text stream (`STRUCT` / `SREF` / `RECT` records keyed by the
//!   technology's GDS layer numbers),
//! * a DEF-like file (`COMPONENTS` / `SPECIALNETS` sections) that follows
//!   the usual LEF/DEF structure closely enough to be diffed and inspected.

use std::fmt::Write as _;

use acim_cell::{Point, Rect};
use acim_tech::Technology;

use crate::db::Layout;

/// Writes a GDS-like text representation of the layout.
pub fn write_gds_text(layout: &Layout, tech: &Technology) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "HEADER 600");
    let _ = writeln!(out, "BGNLIB EASYACIM");
    let _ = writeln!(out, "LIBNAME {}", layout.name);
    let _ = writeln!(out, "UNITS 0.001 1e-09");
    let _ = writeln!(out, "BGNSTR {}", layout.name);
    out.push_str("BOUNDARY_BOX ");
    push_rect(&mut out, &layout.boundary, " ");
    out.push('\n');
    for instance in &layout.instances {
        push_strs(
            &mut out,
            &["SREF ", &instance.cell, " ", &instance.name, " "],
        );
        push_point(&mut out, instance.origin);
        let _ = writeln!(out, " {:?}", instance.orientation);
    }
    // Each wire layer's GDS numbers, resolved once per layer name into the
    // record prefix they give.
    let mut prefixes: Vec<(&str, String)> = Vec::new();
    for wire in &layout.wires {
        let at = match prefixes.iter().position(|(layer, _)| *layer == wire.layer) {
            Some(at) => at,
            None => {
                let (gds_layer, datatype) = tech
                    .layers()
                    .by_name(&wire.layer)
                    .map(|l| (l.gds_layer(), l.gds_datatype()))
                    .unwrap_or((0, 0));
                prefixes.push((&wire.layer, format!("RECT {gds_layer} {datatype} ")));
                prefixes.len() - 1
            }
        };
        out.push_str(&prefixes[at].1);
        push_rect(&mut out, &wire.rect, " ");
        push_strs(&mut out, &[" NET ", &wire.net, "\n"]);
    }
    for via in &layout.vias {
        push_strs(
            &mut out,
            &["VIA ", &via.from_layer, " ", &via.to_layer, " "],
        );
        push_point(&mut out, via.at);
        push_strs(&mut out, &[" NET ", &via.net, "\n"]);
    }
    let _ = writeln!(out, "ENDSTR");
    let _ = writeln!(out, "ENDLIB");
    out
}

/// Writes a DEF-like representation of the layout.
pub fn write_def(layout: &Layout) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "DESIGN {} ;", layout.name);
    let _ = writeln!(out, "UNITS DISTANCE MICRONS 1000 ;");
    out.push_str("DIEAREA ");
    push_def_rect(&mut out, &layout.boundary);

    let _ = writeln!(out, "COMPONENTS {} ;", layout.instances.len());
    for instance in &layout.instances {
        push_strs(
            &mut out,
            &["- ", &instance.name, " ", &instance.cell, " + PLACED ( "],
        );
        push_point(&mut out, instance.origin);
        let _ = writeln!(out, " ) {:?} ;", instance.orientation);
    }
    let _ = writeln!(out, "END COMPONENTS");

    let _ = writeln!(out, "PINS {} ;", layout.pins.len());
    for pin in &layout.pins {
        push_strs(
            &mut out,
            &[
                "- ",
                &pin.net,
                " + NET ",
                &pin.net,
                " + LAYER ",
                &pin.layer,
                " ",
            ],
        );
        push_def_rect(&mut out, &pin.rect);
    }
    let _ = writeln!(out, "END PINS");

    let _ = writeln!(out, "SPECIALNETS {} ;", layout.wires.len());
    for wire in &layout.wires {
        push_strs(&mut out, &["- ", &wire.net, " + ROUTED ", &wire.layer, " "]);
        push_def_rect(&mut out, &wire.rect);
    }
    let _ = writeln!(out, "END SPECIALNETS");
    let _ = writeln!(out, "END DESIGN");
    out
}

/// Appends `parts` to `out` in order.
fn push_strs(out: &mut String, parts: &[&str]) {
    for part in parts {
        out.push_str(part);
    }
}

/// Appends `( x0 y0 ) ( x1 y1 ) ;` and a newline: a DEF rectangle ending
/// its statement.
fn push_def_rect(out: &mut String, rect: &Rect) {
    out.push_str("( ");
    push_rect(out, rect, " ) ( ");
    out.push_str(" ) ;\n");
}

/// Appends the two corners of `rect` with `separator` between them.
fn push_rect(out: &mut String, rect: &Rect, separator: &str) {
    push_point(out, rect.min);
    out.push_str(separator);
    push_point(out, rect.max);
}

/// Appends `x y`.
fn push_point(out: &mut String, point: Point) {
    push_coord(out, point.x);
    out.push(' ');
    push_coord(out, point.y);
}

/// Appends `value` exactly as `format!("{value:.0}")` would.  Integral
/// values in `i64` range, which nanometre coordinates are, print as that
/// integer.  Everything else goes through `{:.0}` itself: fractions (which
/// it rounds half to even), `-0.0` (which it prints as `-0`) and
/// non-finite values.
fn push_coord(out: &mut String, value: f64) {
    /// 2^63: the first magnitude `i64` cannot hold.
    const LIMIT: f64 = 9_223_372_036_854_775_808.0;
    let negative_zero = value == 0.0 && value.is_sign_negative();
    if value.fract() == 0.0 && (-LIMIT..LIMIT).contains(&value) && !negative_zero {
        let _ = write!(out, "{}", value as i64);
    } else {
        let _ = write!(out, "{value:.0}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{LayoutPin, PlacedInstance, Wire};
    use acim_cell::Orientation;
    use proptest::prelude::*;

    fn coord(value: f64) -> String {
        let mut out = String::new();
        push_coord(&mut out, value);
        out
    }

    #[test]
    fn coordinates_print_as_format_precision_zero() {
        for value in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            2.5,
            -0.4,
            -2.5,
            632.0,
            -1264.0,
            2f64.powi(53) + 1.0,
            2f64.powi(53) + 2.0,
            i64::MAX as f64,
            i64::MIN as f64,
            1e20,
            -1e20,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(coord(value), format!("{value:.0}"), "{value:e}");
        }
        assert_eq!(coord(-0.0), "-0");
        assert_eq!(coord(2.5), "2");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn any_f64_prints_as_format_precision_zero(bits in 0u64..=u64::MAX) {
            let value = f64::from_bits(bits);
            prop_assert_eq!(coord(value), format!("{value:.0}"), "bits {:#x}", bits);
        }

        #[test]
        fn grid_coordinates_print_as_format_precision_zero(
            units in 0u64..4_000_000,
            half in 0u64..2,
        ) {
            // Integral and half-step nanometres around zero, where layouts
            // live and ties to even matter.
            let value = (units as f64 - 2_000_000.0) + half as f64 * 0.5;
            prop_assert_eq!(coord(value), format!("{value:.0}"));
        }
    }

    fn sample() -> Layout {
        let mut layout = Layout::new("SAMPLE", 4000.0, 4000.0);
        layout.instances.push(PlacedInstance {
            name: "X0".into(),
            cell: "SRAM8T".into(),
            origin: Point::new(0.0, 0.0),
            orientation: Orientation::R0,
            width: 2000.0,
            height: 632.0,
        });
        layout.wires.push(Wire {
            net: "RBL".into(),
            layer: "M2".into(),
            rect: Rect::new(100.0, 0.0, 150.0, 4000.0),
        });
        layout.pins.push(LayoutPin {
            net: "CLK".into(),
            layer: "M3".into(),
            rect: Rect::new(0.0, 0.0, 100.0, 100.0),
        });
        layout
    }

    #[test]
    fn gds_text_contains_structures_and_nets() {
        let text = write_gds_text(&sample(), &Technology::s28());
        assert!(text.contains("BGNSTR SAMPLE"));
        assert!(text.contains("SREF SRAM8T X0"));
        assert!(text.contains("NET RBL"));
        assert!(text.contains("ENDLIB"));
        // The M2 wire uses the GDS layer number from the layer map (32).
        assert!(text.lines().any(|l| l.starts_with("RECT 32 ")));
    }

    #[test]
    fn def_sections_are_well_formed() {
        let text = write_def(&sample());
        assert!(text.contains("DESIGN SAMPLE ;"));
        assert!(text.contains("COMPONENTS 1 ;"));
        assert!(text.contains("END COMPONENTS"));
        assert!(text.contains("PINS 1 ;"));
        assert!(text.contains("SPECIALNETS 1 ;"));
        assert!(text.trim_end().ends_with("END DESIGN"));
    }

    #[test]
    fn component_count_matches_instances() {
        let mut layout = sample();
        for i in 0..5 {
            layout.instances.push(PlacedInstance {
                name: format!("X{}", i + 1),
                cell: "BUF".into(),
                origin: Point::new(0.0, 632.0 * (i + 1) as f64),
                orientation: Orientation::R0,
                width: 2000.0,
                height: 600.0,
            });
        }
        let text = write_def(&layout);
        assert!(text.contains("COMPONENTS 6 ;"));
        assert_eq!(text.matches("+ PLACED").count(), 6);
    }
}
