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
//! Both write the bytes of the layout's walk (see [`crate::db`]): each
//! column of the layout's array under its `COL_{c}/` prefix, then the
//! layout's own objects.  The columns' lines of a section differ only in
//! the name prefix and the x coordinates.  So each section writes column
//! 0's lines in full, noting where its prefix and x fields sit, and each
//! later column copies those bytes and overwrites only the fields.  A
//! column whose prefix or an x coordinate prints to another width is
//! written in full and becomes the new template.  The layout's own objects
//! are written untranslated.
//!
//! Both build their file the same way: every line is appended to one byte
//! buffer, reserved once from the walk's counts, which becomes the
//! returned `String` at the end.  Names are copied from the name table of
//! the block holding the object, every coordinate goes through one
//! formatter and orientations are written by name.

use std::collections::HashMap;
use std::io::Write as _;

use acim_cell::{Orientation, Point, Rect};
use acim_tech::Technology;

use crate::db::{Layout, Names, Part, PlacedInstance, Via, Wire};

/// Writes a GDS-like text representation of the layout.
pub fn write_gds_text(layout: &Layout, tech: &Technology) -> String {
    let mut out = buffer(layout);
    let _ = writeln!(out, "HEADER 600");
    let _ = writeln!(out, "BGNLIB EASYACIM");
    let _ = writeln!(out, "LIBNAME {}", layout.name);
    let _ = writeln!(out, "UNITS 0.001 1e-09");
    let _ = writeln!(out, "BGNSTR {}", layout.name);
    out.text(&["BOUNDARY_BOX "]);
    out.rect(&layout.boundary, " ");
    out.text(&["\n"]);
    section(&mut out, layout, instances, |e, names, instance| {
        e.text(&["SREF ", instance.cell, " "]);
        e.prefix();
        e.text(&[names.get(instance.name), " "]);
        e.point(instance.origin);
        e.text(&[" ", orientation(instance.orientation), "\n"]);
    });
    // Each wire layer's GDS numbers, resolved once per layer name into the
    // record prefix they give.
    let mut prefixes: Vec<(&str, String)> = Vec::new();
    section(&mut out, layout, wires, |e, names, wire| {
        let at = match prefixes.iter().position(|(seen, _)| *seen == wire.layer) {
            Some(at) => at,
            None => {
                let (gds_layer, datatype) = tech
                    .layers()
                    .by_name(wire.layer)
                    .map(|l| (l.gds_layer(), l.gds_datatype()))
                    .unwrap_or((0, 0));
                prefixes.push((wire.layer, format!("RECT {gds_layer} {datatype} ")));
                prefixes.len() - 1
            }
        };
        e.text(&[&prefixes[at].1]);
        e.rect(&wire.rect, " ");
        e.text(&[" NET "]);
        e.prefix();
        e.text(&[names.get(wire.net), "\n"]);
    });
    section(&mut out, layout, vias, |e, names, via| {
        e.text(&["VIA ", via.from_layer, " ", via.to_layer, " "]);
        e.point(via.at);
        e.text(&[" NET "]);
        e.prefix();
        e.text(&[names.get(via.net), "\n"]);
    });
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
    out.text(&["DIEAREA "]);
    out.def_rect(&layout.boundary);

    let _ = writeln!(out, "COMPONENTS {} ;", layout.instance_count());
    section(&mut out, layout, instances, |e, names, instance| {
        e.text(&["- "]);
        e.prefix();
        e.text(&[names.get(instance.name), " ", instance.cell, " + PLACED ( "]);
        e.point(instance.origin);
        e.text(&[" ) ", orientation(instance.orientation), " ;\n"]);
    });
    let _ = writeln!(out, "END COMPONENTS");

    let _ = writeln!(out, "PINS {} ;", layout.pins.len());
    for pin in &layout.pins {
        let net = layout.names.get(pin.net);
        out.text(&["- ", net, " + NET ", net, " + LAYER ", pin.layer, " "]);
        out.def_rect(&pin.rect);
    }
    let _ = writeln!(out, "END PINS");

    let _ = writeln!(out, "SPECIALNETS {} ;", layout.wire_count());
    section(&mut out, layout, wires, |e, names, wire| {
        e.text(&["- "]);
        e.prefix();
        e.text(&[names.get(wire.net), " + ROUTED ", wire.layer, " "]);
        e.def_rect(&wire.rect);
    });
    let _ = writeln!(out, "END SPECIALNETS");
    let _ = writeln!(out, "END DESIGN");
    into_string(out)
}

/// Where an object's line goes as `line` writes it: straight into the
/// file for the layout's own objects, or into a column's template.
trait Emit {
    /// Appends `parts` as they are.
    fn text(&mut self, parts: &[&str]);
    /// Appends the name prefix of the object's column.
    fn prefix(&mut self);
    /// Appends `x y`, a point in the frame of the block holding the object.
    fn point(&mut self, point: Point);

    /// Appends the two corners of `rect` with `separator` between them.
    fn rect(&mut self, rect: &Rect, separator: &str) {
        self.point(rect.min);
        self.text(&[separator]);
        self.point(rect.max);
    }

    /// Appends `( x0 y0 ) ( x1 y1 ) ;` and a newline: a DEF rectangle
    /// ending its statement.
    fn def_rect(&mut self, rect: &Rect) {
        self.text(&["( "]);
        self.rect(rect, " ) ( ");
        self.text(&[" ) ;\n"]);
    }
}

/// The layout's own objects: no prefix, coordinates as they are.
impl Emit for Vec<u8> {
    fn text(&mut self, parts: &[&str]) {
        for part in parts {
            self.extend_from_slice(part.as_bytes());
        }
    }

    fn prefix(&mut self) {}

    fn point(&mut self, point: Point) {
        push_coord(self, point.x);
        self.push(b' ');
        push_coord(self, point.y);
    }
}

/// A layout's instances, wires and vias: the objects its sections list.
fn instances(layout: &Layout) -> &[PlacedInstance] {
    &layout.instances
}

fn wires(layout: &Layout) -> &[Wire] {
    &layout.wires
}

fn vias(layout: &Layout) -> &[Via] {
    &layout.vias
}

/// Appends one section's lines, those `line` writes for `objects` of each
/// part of `layout`, given the table naming them: column 0's written in
/// full, every later column's stamped from its template, the layout's own
/// written as they are.
fn section<T>(
    out: &mut Vec<u8>,
    layout: &Layout,
    objects: fn(&Layout) -> &[T],
    mut line: impl FnMut(&mut dyn Emit, &Names, &T),
) {
    let mut template = Template::default();
    for part in layout.parts() {
        match part.column {
            Some(c) => {
                if c == 0 || !template.stamp(out, &part) {
                    template.render(out, &part, objects, &mut line);
                }
            }
            None => {
                for object in objects(part.block) {
                    line(out, &part.block.names, object);
                }
            }
        }
    }
}

/// One column's lines of a section, written in full: where they sit in
/// the file, and where each of their prefix and x fields sits in them.
#[derive(Default)]
struct Template {
    /// Start and end of the lines in the file.
    start: usize,
    end: usize,
    /// Length of the column's prefix.
    prefix_len: usize,
    /// Offset of each prefix field from `start`.
    prefixes: Vec<usize>,
    /// Each x field: its offset from `start`, and where the digits of its
    /// local x sit in `digits`, and how many there are.
    xs: Vec<(usize, usize, usize)>,
    /// Index into `locals` of each distinct local x, keyed by its bits.
    ids: HashMap<u64, usize>,
    /// Each distinct local x, in order of first use, with where its digits
    /// sit in `digits` and how many there are.
    locals: Vec<(f64, usize, usize)>,
    /// The number of digits of all `locals`.
    digits_len: usize,
    /// The translated `locals` of the column being stamped, back to back.
    digits: Vec<u8>,
}

impl Template {
    /// Writes `part`'s lines of `objects` in full and makes them the
    /// template.
    fn render<T>(
        &mut self,
        out: &mut Vec<u8>,
        part: &Part<'_>,
        objects: fn(&Layout) -> &[T],
        line: &mut impl FnMut(&mut dyn Emit, &Names, &T),
    ) {
        let (prefix, objects) = (part.prefix(), objects(part.block));
        self.start = out.len();
        self.prefix_len = prefix.as_str().len();
        self.prefixes.clear();
        self.xs.clear();
        self.ids.clear();
        self.locals.clear();
        self.digits_len = 0;
        // One prefix and at most two x fields a line: each buffer of a
        // section is allocated once.
        self.prefixes.reserve(objects.len());
        self.xs.reserve(2 * objects.len());
        self.ids.reserve(2 * objects.len());
        self.locals.reserve(2 * objects.len());
        let mut render = Render {
            out,
            template: self,
            prefix: prefix.as_str(),
            origin: part.origin,
        };
        for object in objects {
            line(&mut render, &part.block.names, object);
        }
        self.end = out.len();
        // Room for every local printed as the widest integral coordinate,
        // 20 bytes, and one more: a stamp may print a wider coordinate
        // before it finds a width changed.
        self.digits.clear();
        self.digits.reserve(20 * (self.locals.len() + 1));
    }

    /// Appends `part`'s lines as a copy of the template with its prefix and
    /// x coordinates written over the fields, and returns `true`.  Returns
    /// `false`, appending nothing, when the prefix or a coordinate prints
    /// to another width than its field.
    fn stamp(&mut self, out: &mut Vec<u8>, part: &Part<'_>) -> bool {
        let prefix = part.prefix();
        let prefix = prefix.as_str().as_bytes();
        if prefix.len() != self.prefix_len {
            return false;
        }
        self.digits.clear();
        for &(local, _, width) in &self.locals {
            let before = self.digits.len();
            push_coord(&mut self.digits, local + part.origin.x);
            if self.digits.len() - before != width {
                return false;
            }
        }
        let base = out.len();
        out.extend_from_within(self.start..self.end);
        let copy = &mut out[base..];
        for &at in &self.prefixes {
            copy[at..at + prefix.len()].copy_from_slice(prefix);
        }
        for &(at, digits, width) in &self.xs {
            copy[at..at + width].copy_from_slice(&self.digits[digits..digits + width]);
        }
        true
    }
}

/// A column's lines being written in full: coordinates translated by its
/// origin, prefix and x fields noted in its template.
struct Render<'a> {
    out: &'a mut Vec<u8>,
    template: &'a mut Template,
    prefix: &'a str,
    origin: Point,
}

impl Emit for Render<'_> {
    fn text(&mut self, parts: &[&str]) {
        self.out.text(parts);
    }

    fn prefix(&mut self) {
        let template = &mut *self.template;
        template.prefixes.push(self.out.len() - template.start);
        self.out.extend_from_slice(self.prefix.as_bytes());
    }

    fn point(&mut self, point: Point) {
        let (out, template, origin) = (&mut *self.out, &mut *self.template, self.origin);
        let at = out.len();
        push_coord(out, point.x + origin.x);
        let width = out.len() - at;
        let next = template.locals.len();
        let id = *template.ids.entry(point.x.to_bits()).or_insert(next);
        if id == next {
            template.locals.push((point.x, template.digits_len, width));
            template.digits_len += width;
        }
        template
            .xs
            .push((at - template.start, template.locals[id].1, width));
        out.push(b' ');
        push_coord(out, point.y + origin.y);
    }
}

/// Bytes reserved per line of a file.  The flow's DEF files run to 55-60
/// bytes per instance, wire, via and pin of their layout, and its GDS
/// files to 33-51, so both are written without the buffer growing.
const LINE_BYTES: usize = 64;

/// The file's fixed lines: headers, section counts and ends.
const FIXED_LINES: usize = 11;

/// An empty buffer with room for `LINE_BYTES` per instance, wire, via and
/// pin of `layout`'s walk and per fixed line, which is at least one
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
fn orientation(orientation: Orientation) -> &'static str {
    match orientation {
        Orientation::R0 => "R0",
        Orientation::MX => "MX",
        Orientation::MY => "MY",
        Orientation::R180 => "R180",
    }
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
    use crate::db::{Columns, LayoutPin, NameId, PlacedInstance, Via, Wire};
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
            name: layout.names.add("X0"),
            cell: "SRAM8T",
            origin: Point::new(0.0, 0.0),
            orientation: Orientation::R0,
            width: 2000.0,
            height: 632.0,
        });
        layout.wires.push(Wire {
            net: layout.names.add("RBL"),
            layer: "M2",
            rect: Rect::new(100.0, 0.0, 150.0, 4000.0),
        });
        layout.pins.push(LayoutPin {
            net: layout.names.add("CLK"),
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
                name: layout.names.add(format_args!("X{}", i + 1)),
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
        for part in layout.parts() {
            for instance in &part.block.instances {
                let origin = part.point(instance.origin);
                out.push_str(&format!(
                    "- {}{} {} + PLACED ( {:.0} {:.0} ) {:?} ;\n",
                    part.prefix().as_str(),
                    part.block.names.get(instance.name),
                    instance.cell,
                    origin.x,
                    origin.y,
                    instance.orientation
                ));
            }
        }
        out.push_str("END COMPONENTS\n");
        out.push_str(&format!("PINS {} ;\n", layout.pins.len()));
        for pin in &layout.pins {
            out.push_str(&format!(
                "- {0} + NET {0} + LAYER {1} {2}\n",
                layout.names.get(pin.net),
                pin.layer,
                rect(pin.rect)
            ));
        }
        out.push_str("END PINS\n");
        out.push_str(&format!("SPECIALNETS {} ;\n", layout.wire_count()));
        for part in layout.parts() {
            for wire in &part.block.wires {
                out.push_str(&format!(
                    "- {}{} + ROUTED {} {}\n",
                    part.prefix().as_str(),
                    part.block.names.get(wire.net),
                    wire.layer,
                    rect(part.rect(wire.rect))
                ));
            }
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
        for part in layout.parts() {
            for instance in &part.block.instances {
                let origin = part.point(instance.origin);
                out.push_str(&format!(
                    "SREF {} {}{} {:.0} {:.0} {:?}\n",
                    instance.cell,
                    part.prefix().as_str(),
                    part.block.names.get(instance.name),
                    origin.x,
                    origin.y,
                    instance.orientation
                ));
            }
        }
        for part in layout.parts() {
            for wire in &part.block.wires {
                let (gds_layer, datatype) = tech
                    .layers()
                    .by_name(wire.layer)
                    .map_or((0, 0), |l| (l.gds_layer(), l.gds_datatype()));
                out.push_str(&format!(
                    "RECT {gds_layer} {datatype} {} NET {}{}\n",
                    corners(part.rect(wire.rect)),
                    part.prefix().as_str(),
                    part.block.names.get(wire.net)
                ));
            }
        }
        for part in layout.parts() {
            for via in &part.block.vias {
                let at = part.point(via.at);
                out.push_str(&format!(
                    "VIA {} {} {:.0} {:.0} NET {}{}\n",
                    via.from_layer,
                    via.to_layer,
                    at.x,
                    at.y,
                    part.prefix().as_str(),
                    part.block.names.get(via.net)
                ));
            }
        }
        out.push_str("ENDSTR\n");
        out.push_str("ENDLIB\n");
        out
    }

    /// Wire and pin layers: M2 to M6 of `Technology::s28()`, and `M9`,
    /// which its layer map lacks.
    const LAYERS: [&str; 6] = ["M2", "M3", "M4", "M5", "M6", "M9"];
    const NAMES: [&str; 4] = ["X0", "XSRAM_12", "RBL_3", "OUT_0_2"];

    /// A name table holding [`NAMES`], and their ids.
    fn names() -> (Names, [NameId; 4]) {
        let mut names = Names::default();
        let ids = NAMES.map(|name| names.add(name));
        (names, ids)
    }
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

    /// A block's instances, wires, vias and pins.
    type Objects = (Vec<PlacedInstance>, Vec<Wire>, Vec<Via>, Vec<LayoutPin>);

    /// Instances in every orientation, wires on every layer of `LAYERS`,
    /// vias and pins, named from the table of [`names`].
    fn objects() -> impl Strategy<Value = Objects> {
        let ids = names().1;
        let instance = (
            0..NAMES.len(),
            0..CELLS.len(),
            coordinate(),
            coordinate(),
            0..4usize,
        )
            .prop_map(move |(name, cell, x, y, orientation)| PlacedInstance {
                name: ids[name],
                cell: CELLS[cell],
                origin: Point::new(x, y),
                orientation: ORIENTATIONS[orientation],
                width: 2000.0,
                height: 632.0,
            });
        let wire =
            (0..NAMES.len(), 0..LAYERS.len(), rect()).prop_map(move |(net, layer, rect)| Wire {
                net: ids[net],
                layer: LAYERS[layer],
                rect,
            });
        let via = (
            0..NAMES.len(),
            0..LAYERS.len() - 1,
            coordinate(),
            coordinate(),
        )
            .prop_map(move |(net, layer, x, y)| Via {
                net: ids[net],
                from_layer: LAYERS[layer],
                to_layer: LAYERS[layer + 1],
                at: Point::new(x, y),
            });
        let pin = (0..NAMES.len(), 0..LAYERS.len(), rect()).prop_map(move |(net, layer, rect)| {
            LayoutPin {
                net: ids[net],
                layer: LAYERS[layer],
                rect,
            }
        });
        (
            prop::collection::vec(instance, 0..8),
            prop::collection::vec(wire, 0..8),
            prop::collection::vec(via, 0..4),
            prop::collection::vec(pin, 0..3),
        )
    }

    /// A `height` by `width` layout holding `own` objects and an array of
    /// a `width` by `height` block of `block`'s objects, all named from
    /// the table of [`names`].
    fn arrayed(
        block: Objects,
        (width, height): (f64, f64),
        (origin, pitch, count): (Point, f64, usize),
        own: Objects,
    ) -> Layout {
        let mut column = Layout::new("COLUMN", width, height);
        column.names = names().0;
        (column.instances, column.wires, column.vias, column.pins) = block;
        let mut layout = Layout::new("SAMPLE", height, width);
        layout.names = names().0;
        layout
            .place_columns(Columns {
                block: Arc::new(column),
                origin,
                pitch,
                count,
            })
            .expect("the column holds no array");
        (layout.instances, layout.wires, layout.vias, layout.pins) = own;
        layout
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn writers_match_the_plain_oracle_byte_for_byte(
            block in objects(),
            own in objects(),
            (x, y, pitch) in (coordinate(), coordinate(), coordinate()),
            count in 0..4usize,
            size in (coordinate(), coordinate()),
        ) {
            let tech = Technology::s28();
            prop_assert!(tech.layers().by_name("M9").is_none());
            let layout = arrayed(block, size, (Point::new(x, y), pitch, count), own);
            prop_assert_eq!(write_def(&layout), oracle_def(&layout));
            prop_assert_eq!(write_gds_text(&layout, &tech), oracle_gds(&layout, &tech));
        }
    }

    /// Where an array's x origin sits: below 10^4, 10^5 and 10^6, where
    /// translated coordinates gain a digit, and below zero, where they
    /// change sign.
    const STARTS: [f64; 4] = [-60_000.0, 9_000.0, 99_000.0, 999_000.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arrays of up to 120 columns, so their prefixes cross `COL_9/`
        /// and `COL_99/`, from one of [`STARTS`] at an integral or a
        /// fractional pitch.
        #[test]
        fn stamped_runs_match_the_plain_oracle_byte_for_byte(
            block in objects(),
            own in objects(),
            (start, pitch, fraction) in (0..STARTS.len(), 16u64..2_000, 0.0..1.0f64),
            fractional in 0..2u8,
            y in coordinate(),
            count in 1..=120usize,
        ) {
            let tech = Technology::s28();
            let pitch = pitch as f64 + if fractional == 1 { fraction } else { 0.0 };
            let array = (Point::new(STARTS[start], y), pitch, count);
            let mut layout = arrayed(block, (2000.0, 5000.0), array, own);
            // The layout's own objects are not translated: at -0.0 they
            // print `-0`, where `-0.0 + 0.0` would print `0`.
            let zero = Point::new(-0.0, -0.0);
            layout.instances.push(PlacedInstance {
                name: layout.names.add("XZERO"),
                cell: "BUF",
                origin: zero,
                orientation: Orientation::R0,
                width: 2000.0,
                height: 632.0,
            });
            let net = layout.names.add("ZERO");
            layout.wires.push(Wire {
                net,
                layer: "M2",
                rect: Rect { min: zero, max: zero },
            });
            layout.vias.push(Via {
                net,
                from_layer: "M2",
                to_layer: "M3",
                at: zero,
            });
            let def = write_def(&layout);
            prop_assert!(def.contains("\n- XZERO BUF + PLACED ( -0 -0 ) R0 ;\n"));
            prop_assert!(def.contains("\n- ZERO + ROUTED M2 ( -0 -0 ) ( -0 -0 ) ;\n"));
            prop_assert_eq!(def, oracle_def(&layout));
            prop_assert_eq!(write_gds_text(&layout, &tech), oracle_gds(&layout, &tech));
        }
    }
}
