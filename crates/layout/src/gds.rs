//! Text GDS-like and DEF-like writers.
//!
//! The reproduction has no binary GDSII dependency; instead the layout can
//! be dumped in two human-readable exchange formats:
//!
//! * a GDS-like text stream (`STRUCT` / `SREF` / `RECT` records keyed by the
//!   technology's GDS layer numbers),
//! * a DEF-like file (`COMPONENTS` / `SPECIALNETS` sections) that follows
//!   the usual LEF/DEF structure closely enough to be diffed and inspected.
//!
//! Both write the layout's flat view (see [`crate::db`]), so a macro that
//! places its column template `W` times emits every column's shapes under
//! their prefixed names.
//!
//! Both build their file the same way: every line is appended to one byte
//! buffer, reserved once from the flat view's counts, which becomes the
//! returned `String` at the end.  Names are copied as they are, every
//! coordinate goes through one formatter and orientations are written by
//! name.

use std::io::Write as _;

use acim_cell::{Orientation, Point, Rect};
use acim_tech::Technology;

use crate::db::Layout;

/// Writes a GDS-like text representation of the layout.
pub fn write_gds_text(layout: &Layout, tech: &Technology) -> String {
    let mut out = buffer(layout);
    let _ = writeln!(out, "HEADER 600");
    let _ = writeln!(out, "BGNLIB EASYACIM");
    let _ = writeln!(out, "LIBNAME {}", layout.name);
    let _ = writeln!(out, "UNITS 0.001 1e-09");
    let _ = writeln!(out, "BGNSTR {}", layout.name);
    out.extend_from_slice(b"BOUNDARY_BOX ");
    push_rect(&mut out, &layout.boundary, b" ");
    out.push(b'\n');
    for instance in layout.flat_instances() {
        let local = instance.local;
        out.extend_from_slice(b"SREF ");
        out.extend_from_slice(local.cell.as_bytes());
        out.push(b' ');
        out.extend_from_slice(instance.prefix.as_bytes());
        out.extend_from_slice(local.name.as_bytes());
        out.push(b' ');
        push_point(&mut out, instance.origin());
        out.push(b' ');
        out.extend_from_slice(orientation(local.orientation));
        out.push(b'\n');
    }
    // Each wire layer's GDS numbers, resolved once per layer name into the
    // record prefix they give.
    let mut prefixes: Vec<(&str, String)> = Vec::new();
    for wire in layout.flat_wires() {
        let layer = wire.local.layer;
        let at = match prefixes.iter().position(|(seen, _)| *seen == layer) {
            Some(at) => at,
            None => {
                let (gds_layer, datatype) = tech
                    .layers()
                    .by_name(layer)
                    .map(|l| (l.gds_layer(), l.gds_datatype()))
                    .unwrap_or((0, 0));
                prefixes.push((layer, format!("RECT {gds_layer} {datatype} ")));
                prefixes.len() - 1
            }
        };
        out.extend_from_slice(prefixes[at].1.as_bytes());
        push_rect(&mut out, &wire.rect(), b" ");
        out.extend_from_slice(b" NET ");
        out.extend_from_slice(wire.prefix.as_bytes());
        out.extend_from_slice(wire.local.net.as_bytes());
        out.push(b'\n');
    }
    for via in layout.flat_vias() {
        let local = via.local;
        out.extend_from_slice(b"VIA ");
        out.extend_from_slice(local.from_layer.as_bytes());
        out.push(b' ');
        out.extend_from_slice(local.to_layer.as_bytes());
        out.push(b' ');
        push_point(&mut out, via.at());
        out.extend_from_slice(b" NET ");
        out.extend_from_slice(via.prefix.as_bytes());
        out.extend_from_slice(local.net.as_bytes());
        out.push(b'\n');
    }
    let _ = writeln!(out, "ENDSTR");
    let _ = writeln!(out, "ENDLIB");
    into_string(out)
}

/// Writes a DEF-like representation of the layout.
pub fn write_def(layout: &Layout) -> String {
    let mut out = buffer(layout);
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "DESIGN {} ;", layout.name);
    let _ = writeln!(out, "UNITS DISTANCE MICRONS 1000 ;");
    out.extend_from_slice(b"DIEAREA ");
    push_def_rect(&mut out, &layout.boundary);

    let _ = writeln!(out, "COMPONENTS {} ;", layout.instance_count());
    for instance in layout.flat_instances() {
        let local = instance.local;
        out.extend_from_slice(b"- ");
        out.extend_from_slice(instance.prefix.as_bytes());
        out.extend_from_slice(local.name.as_bytes());
        out.push(b' ');
        out.extend_from_slice(local.cell.as_bytes());
        out.extend_from_slice(b" + PLACED ( ");
        push_point(&mut out, instance.origin());
        out.extend_from_slice(b" ) ");
        out.extend_from_slice(orientation(local.orientation));
        out.extend_from_slice(b" ;\n");
    }
    let _ = writeln!(out, "END COMPONENTS");

    let _ = writeln!(out, "PINS {} ;", layout.pins.len());
    for pin in &layout.pins {
        out.extend_from_slice(b"- ");
        out.extend_from_slice(pin.net.as_bytes());
        out.extend_from_slice(b" + NET ");
        out.extend_from_slice(pin.net.as_bytes());
        out.extend_from_slice(b" + LAYER ");
        out.extend_from_slice(pin.layer.as_bytes());
        out.push(b' ');
        push_def_rect(&mut out, &pin.rect);
    }
    let _ = writeln!(out, "END PINS");

    let _ = writeln!(out, "SPECIALNETS {} ;", layout.wire_count());
    for wire in layout.flat_wires() {
        let local = wire.local;
        out.extend_from_slice(b"- ");
        out.extend_from_slice(wire.prefix.as_bytes());
        out.extend_from_slice(local.net.as_bytes());
        out.extend_from_slice(b" + ROUTED ");
        out.extend_from_slice(local.layer.as_bytes());
        out.push(b' ');
        push_def_rect(&mut out, &wire.rect());
    }
    let _ = writeln!(out, "END SPECIALNETS");
    let _ = writeln!(out, "END DESIGN");
    into_string(out)
}

/// Bytes reserved per line of a file.  The flow's DEF files run to 55-60
/// bytes per instance, wire, via and pin of their layout, and its GDS
/// files to 33-51, so both are written without the buffer growing.
const LINE_BYTES: usize = 64;

/// The file's fixed lines: headers, section counts and ends.
const FIXED_LINES: usize = 11;

/// An empty buffer with room for `LINE_BYTES` per instance, wire, via and
/// pin of `layout`'s flat view and per fixed line, which is at least one
/// per line of either file.  Should the reservation fail, the buffer grows
/// as it is written.
fn buffer(layout: &Layout) -> Vec<u8> {
    let lines = FIXED_LINES
        + layout.instance_count()
        + layout.wire_count()
        + layout.via_count()
        + layout.pins.len();
    let mut out = Vec::new();
    let _ = out.try_reserve(lines.saturating_mul(LINE_BYTES));
    out
}

/// The finished file.  Every byte came from a `&str` or is an ASCII digit,
/// sign or separator, so the buffer is UTF-8.
fn into_string(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("the writers append only UTF-8 text")
}

/// The DEF and GDS name of `orientation`.
fn orientation(orientation: Orientation) -> &'static [u8] {
    match orientation {
        Orientation::R0 => b"R0",
        Orientation::MX => b"MX",
        Orientation::MY => b"MY",
        Orientation::R180 => b"R180",
    }
}

/// Appends `( x0 y0 ) ( x1 y1 ) ;` and a newline: a DEF rectangle ending
/// its statement.
fn push_def_rect(out: &mut Vec<u8>, rect: &Rect) {
    out.extend_from_slice(b"( ");
    push_rect(out, rect, b" ) ( ");
    out.extend_from_slice(b" ) ;\n");
}

/// Appends the two corners of `rect` with `separator` between them.
fn push_rect(out: &mut Vec<u8>, rect: &Rect, separator: &[u8]) {
    push_point(out, rect.min);
    out.extend_from_slice(separator);
    push_point(out, rect.max);
}

/// Appends `x y`.
fn push_point(out: &mut Vec<u8>, point: Point) {
    push_coord(out, point.x);
    out.push(b' ');
    push_coord(out, point.y);
}

/// Appends `value` exactly as `format!("{value:.0}")` would.  Integral
/// values in `i64` range, which nanometre coordinates are, print as that
/// integer, two digits at a time: the formatting machinery costs more per
/// coordinate.  Everything else goes through `{:.0}` itself: fractions
/// (which it rounds half to even), `-0.0` (which it prints as `-0`),
/// magnitudes from 2^63 up and non-finite values.
fn push_coord(out: &mut Vec<u8>, value: f64) {
    /// 2^63: the first magnitude `i64` cannot hold.
    const LIMIT: f64 = 9_223_372_036_854_775_808.0;
    // The cast saturates, and NaN casts to 0, so the round trip holds
    // exactly for the integral values in [-2^63, 2^63] and for -0.0; the
    // two checks after it drop 2^63 and -0.0.
    let integer = value as i64;
    if integer as f64 == value && value < LIMIT && !(integer == 0 && value.is_sign_negative()) {
        if integer < 0 {
            out.push(b'-');
        }
        push_digits(out, integer.unsigned_abs());
    } else {
        let _ = write!(out, "{value:.0}");
    }
}

/// `"00"`, `"01"`, ..., `"99"`: the decimal digits of every number below
/// 100, two bytes each.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// Appends the decimal digits of `value`, written from the right two at a
/// time.
fn push_digits(out: &mut Vec<u8>, mut value: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0; 20];
    let mut start = digits.len();
    while value >= 100 {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if value >= 10 {
        let pair = value as usize * 2;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        digits[start] = b'0' + value as u8;
    }
    out.extend_from_slice(&digits[start..]);
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::db::{LayoutPin, PlacedInstance, Via, Wire};
    use proptest::prelude::*;

    fn coord(value: f64) -> String {
        let mut out = Vec::new();
        push_coord(&mut out, value);
        String::from_utf8(out).expect("UTF-8")
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
            cell: "SRAM8T",
            origin: Point::new(0.0, 0.0),
            orientation: Orientation::R0,
            width: 2000.0,
            height: 632.0,
        });
        layout.wires.push(Wire {
            net: "RBL".into(),
            layer: "M2",
            rect: Rect::new(100.0, 0.0, 150.0, 4000.0),
        });
        layout.pins.push(LayoutPin {
            net: "CLK".into(),
            layer: "M3",
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
                cell: "BUF",
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

    /// The DEF of `layout` built the plain way: `{:.0}` per coordinate,
    /// `{:?}` per orientation and one `String` push per line.
    fn oracle_def(layout: &Layout) -> String {
        let rect = |r: Rect| {
            format!(
                "( {:.0} {:.0} ) ( {:.0} {:.0} ) ;",
                r.min.x, r.min.y, r.max.x, r.max.y
            )
        };
        let mut out = String::new();
        out.push_str("VERSION 5.8 ;\n");
        out.push_str(&format!("DESIGN {} ;\n", layout.name));
        out.push_str("UNITS DISTANCE MICRONS 1000 ;\n");
        out.push_str(&format!("DIEAREA {}\n", rect(layout.boundary)));
        out.push_str(&format!("COMPONENTS {} ;\n", layout.instance_count()));
        for instance in layout.flat_instances() {
            let (local, origin) = (instance.local, instance.origin());
            out.push_str(&format!(
                "- {}{} {} + PLACED ( {:.0} {:.0} ) {:?} ;\n",
                instance.prefix, local.name, local.cell, origin.x, origin.y, local.orientation
            ));
        }
        out.push_str("END COMPONENTS\n");
        out.push_str(&format!("PINS {} ;\n", layout.pins.len()));
        for pin in &layout.pins {
            out.push_str(&format!(
                "- {0} + NET {0} + LAYER {1} {2}\n",
                pin.net,
                pin.layer,
                rect(pin.rect)
            ));
        }
        out.push_str("END PINS\n");
        out.push_str(&format!("SPECIALNETS {} ;\n", layout.wire_count()));
        for wire in layout.flat_wires() {
            out.push_str(&format!(
                "- {}{} + ROUTED {} {}\n",
                wire.prefix,
                wire.local.net,
                wire.local.layer,
                rect(wire.rect())
            ));
        }
        out.push_str("END SPECIALNETS\n");
        out.push_str("END DESIGN\n");
        out
    }

    /// The GDS text of `layout` built the same plain way.
    fn oracle_gds(layout: &Layout, tech: &Technology) -> String {
        let corners = |r: Rect| {
            format!(
                "{:.0} {:.0} {:.0} {:.0}",
                r.min.x, r.min.y, r.max.x, r.max.y
            )
        };
        let mut out = String::new();
        out.push_str("HEADER 600\n");
        out.push_str("BGNLIB EASYACIM\n");
        out.push_str(&format!("LIBNAME {}\n", layout.name));
        out.push_str("UNITS 0.001 1e-09\n");
        out.push_str(&format!("BGNSTR {}\n", layout.name));
        out.push_str(&format!("BOUNDARY_BOX {}\n", corners(layout.boundary)));
        for instance in layout.flat_instances() {
            let (local, origin) = (instance.local, instance.origin());
            out.push_str(&format!(
                "SREF {} {}{} {:.0} {:.0} {:?}\n",
                local.cell, instance.prefix, local.name, origin.x, origin.y, local.orientation
            ));
        }
        for wire in layout.flat_wires() {
            let (gds_layer, datatype) = tech
                .layers()
                .by_name(wire.local.layer)
                .map_or((0, 0), |l| (l.gds_layer(), l.gds_datatype()));
            out.push_str(&format!(
                "RECT {gds_layer} {datatype} {} NET {}{}\n",
                corners(wire.rect()),
                wire.prefix,
                wire.local.net
            ));
        }
        for via in layout.flat_vias() {
            let at = via.at();
            out.push_str(&format!(
                "VIA {} {} {:.0} {:.0} NET {}{}\n",
                via.local.from_layer, via.local.to_layer, at.x, at.y, via.prefix, via.local.net
            ));
        }
        out.push_str("ENDSTR\n");
        out.push_str("ENDLIB\n");
        out
    }

    /// Wire and pin layers: M2 to M6 of `Technology::s28()`, and `M9`,
    /// which its layer map lacks.
    const LAYERS: [&str; 6] = ["M2", "M3", "M4", "M5", "M6", "M9"];
    const NAMES: [&str; 4] = ["X0", "XSRAM_12", "RBL_3", "OUT_0_2"];
    const CELLS: [&str; 3] = ["SRAM8T", "BUF", "DFF"];
    const ORIENTATIONS: [Orientation; 4] = [
        Orientation::R0,
        Orientation::MX,
        Orientation::MY,
        Orientation::R180,
    ];

    /// A coordinate of one of the kinds the formatter treats apart:
    /// integral, negative, half-integral, fractional, -0.0, -2^63, and
    /// 2^63 or more in magnitude.
    fn coordinate() -> impl Strategy<Value = f64> {
        (0u8..10, 0u64..4_000_000, 0.0..1.0f64).prop_map(|(kind, units, fraction)| {
            let units = units as f64;
            let two_63 = 2f64.powi(63);
            match kind {
                0 | 1 => units,
                2 => -units,
                3 => units + 0.5,
                4 => -units - 0.5,
                5 => units - 2_000_000.0 + fraction,
                6 => -0.0,
                7 => -two_63,
                8 => two_63,
                _ => two_63 * (1.0 + fraction) * if units < 2e6 { 1.0 } else { -1.0 },
            }
        })
    }

    fn rect() -> impl Strategy<Value = Rect> {
        (coordinate(), coordinate(), coordinate(), coordinate())
            .prop_map(|(x0, y0, x1, y1)| Rect::new(x0, y0, x1, y1))
    }

    /// Instances in every orientation, wires on every layer of `LAYERS`,
    /// vias and pins.
    fn objects() -> impl Strategy<Value = (Vec<PlacedInstance>, Vec<Wire>, Vec<Via>, Vec<LayoutPin>)>
    {
        let instance = (
            0..NAMES.len(),
            0..CELLS.len(),
            coordinate(),
            coordinate(),
            0..4usize,
        )
            .prop_map(|(name, cell, x, y, orientation)| PlacedInstance {
                name: NAMES[name].into(),
                cell: CELLS[cell],
                origin: Point::new(x, y),
                orientation: ORIENTATIONS[orientation],
                width: 2000.0,
                height: 632.0,
            });
        let wire = (0..NAMES.len(), 0..LAYERS.len(), rect()).prop_map(|(net, layer, rect)| Wire {
            net: NAMES[net].into(),
            layer: LAYERS[layer],
            rect,
        });
        let via = (
            0..NAMES.len(),
            0..LAYERS.len() - 1,
            coordinate(),
            coordinate(),
        )
            .prop_map(|(net, layer, x, y)| Via {
                net: NAMES[net].into(),
                from_layer: LAYERS[layer],
                to_layer: LAYERS[layer + 1],
                at: Point::new(x, y),
            });
        let pin =
            (0..NAMES.len(), 0..LAYERS.len(), rect()).prop_map(|(net, layer, rect)| LayoutPin {
                net: NAMES[net].into(),
                layer: LAYERS[layer],
                rect,
            });
        (
            prop::collection::vec(instance, 0..8),
            prop::collection::vec(wire, 0..8),
            prop::collection::vec(via, 0..4),
            prop::collection::vec(pin, 0..3),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn writers_match_the_plain_oracle_byte_for_byte(
            block in objects(),
            own in objects(),
            offsets in prop::collection::vec((coordinate(), coordinate()), 0..4),
            (width, height) in (coordinate(), coordinate()),
        ) {
            let tech = Technology::s28();
            prop_assert!(tech.layers().by_name("M9").is_none());
            let mut column = Layout::new("COLUMN", width, height);
            (column.instances, column.wires, column.vias, column.pins) = block;
            let column = Arc::new(column);
            let mut layout = Layout::new("SAMPLE", height, width);
            for (c, (x, y)) in offsets.into_iter().enumerate() {
                layout
                    .place(Arc::clone(&column), Point::new(x, y), format!("COL_{c}/"))
                    .expect("the column holds no placements");
            }
            (layout.instances, layout.wires, layout.vias, layout.pins) = own;
            prop_assert_eq!(write_def(&layout), oracle_def(&layout));
            prop_assert_eq!(write_gds_text(&layout, &tech), oracle_gds(&layout, &tech));
        }
    }
}
