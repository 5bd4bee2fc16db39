//! Macro assembly: the top level of the template-based hierarchical flow.
//!
//! `W` copies of the column template are abutted into the core, the
//! input-buffer column and output-buffer rows are placed as peripheries,
//! the shared word-lines and control nets are dropped on pre-defined
//! horizontal tracks, a power grid is added on the top metals, and the
//! column outputs are stitched down to the output buffers.  The result is a
//! [`Layout`] that arrays the one shared column layout `W` times
//! ([`Columns`]) and holds the top-level shapes itself, plus the
//! [`LayoutMetrics`] reported by the Figure 8 reproduction.  Its walk (see
//! [`crate::db`]) lists the same objects, names and coordinates as copying
//! every column would.

use std::sync::Arc;

use acim_arch::AcimSpec;
use acim_cell::{CellKind, CellLibrary, Orientation, Point, Rect};
use acim_tech::Technology;

use crate::column::ColumnTemplate;
use crate::db::{Columns, Layout, LayoutPin, PlacedInstance, Wire};
use crate::error::LayoutError;
use crate::metrics::LayoutMetrics;

/// The generated macro layout and its metrics.
#[derive(Debug, Clone)]
pub struct MacroLayout {
    /// The assembled layout.
    pub layout: Layout,
    /// Extracted metrics (dimensions, density, wire length).
    pub metrics: LayoutMetrics,
    /// The column template the macro was assembled from.
    pub column: ColumnTemplate,
}

/// The template-based hierarchical layout flow.
#[derive(Debug, Clone)]
pub struct LayoutFlow<'a> {
    tech: &'a Technology,
    library: &'a CellLibrary,
}

impl<'a> LayoutFlow<'a> {
    /// Creates a flow bound to a technology and cell library.
    pub fn new(tech: &'a Technology, library: &'a CellLibrary) -> Self {
        Self { tech, library }
    }

    /// Generates the full macro layout for a specification.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] when a leaf cell, a pin the macro connects to
    /// or a metal's rule is missing, or any net cannot be routed.
    pub fn generate(&self, spec: &AcimSpec) -> Result<MacroLayout, LayoutError> {
        let column = ColumnTemplate::build(spec, self.tech, self.library)?;
        let buffer = self.library.require(CellKind::Buffer)?;

        let column_width = column.layout.width();
        let column_height = column.layout.height();
        let bits = spec.adc_bits() as usize;

        // Periphery geometry: input buffers in a left strip, output buffers
        // in a bottom strip of `bits` rows.
        let left_strip = buffer.width_nm();
        let bottom_strip = buffer.height_nm() * bits as f64;
        let core_origin = Point::new(left_strip, bottom_strip);
        let core_width = column_width * spec.width() as f64;
        let total_width = left_strip + core_width;
        let total_height = bottom_strip + column_height;

        let mut layout = Layout::new(
            format!(
                "ACIM_{}x{}_l{}_b{}",
                spec.height(),
                spec.width(),
                spec.local_array(),
                spec.adc_bits()
            ),
            total_width,
            total_height,
        );

        // --- Core: the column template, abutted W times --------------------
        layout.place_columns(Columns {
            block: Arc::clone(&column.layout),
            origin: core_origin,
            pitch: column_width,
            count: spec.width(),
        })?;

        // --- Input buffers (one per read word-line) -------------------------
        for row in 0..spec.height() {
            let y = core_origin.y + column.rwl_pin_y[row] - buffer.height_nm() / 2.0;
            layout.instances.push(PlacedInstance {
                name: layout.names.add(format_args!("XIBUF_{row}")),
                cell: buffer.name(),
                origin: Point::new(0.0, y.max(0.0)),
                orientation: Orientation::R0,
                width: buffer.width_nm(),
                height: buffer.height_nm(),
            });
        }

        // --- Output buffers (one per column output bit) ---------------------
        for col in 0..spec.width() {
            for bit in 0..bits {
                layout.instances.push(PlacedInstance {
                    name: layout.names.add(format_args!("XOBUF_{col}_{bit}")),
                    cell: buffer.name(),
                    origin: Point::new(
                        core_origin.x + col as f64 * column_width,
                        bit as f64 * buffer.height_nm(),
                    ),
                    orientation: Orientation::R0,
                    width: buffer.width_nm(),
                    height: buffer.height_nm(),
                });
            }
        }

        // --- Pre-defined horizontal tracks -----------------------------------
        let m3_width = self.tech.rules().layer_rule("M3")?.min_width.value();
        // Read word-lines: from the input buffer output across the full core.
        for row in 0..spec.height() {
            let y = core_origin.y + column.rwl_pin_y[row];
            layout.wires.push(Wire {
                net: layout.names.add(format_args!("RWL_{row}")),
                layer: "M3",
                rect: Rect::new(
                    left_strip * 0.5,
                    y - m3_width / 2.0,
                    total_width,
                    y + m3_width / 2.0,
                ),
            });
        }
        // Control nets distributed along the bottom of the core on M5.  The
        // controls and the power nets each name a macro pin too.
        let controls = ["CLK", "PCH", "RST", "START"].map(|net| layout.names.add(net));
        let (vdd, vss) = (layout.names.add("VDD"), layout.names.add("VSS"));
        let m5_width = self.tech.rules().layer_rule("M5")?.min_width.value();
        for (i, &net) in controls.iter().enumerate() {
            let y = core_origin.y + (i as f64 + 1.0) * 4.0 * m5_width;
            layout.wires.push(Wire {
                net,
                layer: "M5",
                rect: Rect::new(0.0, y - m5_width / 2.0, total_width, y + m5_width / 2.0),
            });
        }
        // Column outputs stitched down to the output buffers on M4.
        let m4_width = self.tech.rules().layer_rule("M4")?.min_width.value();
        for col in 0..spec.width() {
            let base_x = core_origin.x + col as f64 * column_width;
            for (bit, centre) in column.dout.iter().enumerate() {
                let x = base_x + centre.x;
                let y_top = core_origin.y + centre.y;
                let y_bottom = bit as f64 * buffer.height_nm() + buffer.height_nm() / 2.0;
                layout.wires.push(Wire {
                    net: layout.names.add(format_args!("OUT_{col}_{bit}")),
                    layer: "M4",
                    rect: Rect::new(x - m4_width / 2.0, y_bottom, x + m4_width / 2.0, y_top),
                });
            }
        }
        // Power grid: vertical M6 stripes every eight columns plus top and
        // bottom M5 rails.
        let m6_width = self.tech.rules().layer_rule("M6")?.min_width.value();
        let stripe_step = 8usize;
        for (index, col) in (0..spec.width()).step_by(stripe_step).enumerate() {
            let x = core_origin.x + col as f64 * column_width + column_width / 2.0;
            let net = if index % 2 == 0 { vdd } else { vss };
            layout.wires.push(Wire {
                net,
                layer: "M6",
                rect: Rect::new(x - m6_width / 2.0, 0.0, x + m6_width / 2.0, total_height),
            });
        }
        for (net, y) in [(vss, 0.0), (vdd, total_height - 2.0 * m5_width)] {
            layout.wires.push(Wire {
                net,
                layer: "M5",
                rect: Rect::new(0.0, y, total_width, y + 2.0 * m5_width),
            });
        }

        // --- Exported macro pins ---------------------------------------------
        for row in 0..spec.height() {
            let y = core_origin.y + column.rwl_pin_y[row];
            layout.pins.push(LayoutPin {
                net: layout.names.add(format_args!("IN_{row}")),
                layer: "M3",
                rect: Rect::new(0.0, y - 60.0, 120.0, y + 60.0),
            });
        }
        for net in controls.into_iter().chain([vdd, vss]) {
            layout.pins.push(LayoutPin {
                net,
                layer: "M5",
                rect: Rect::new(0.0, 0.0, 200.0, 200.0),
            });
        }

        let core_region = Rect::new(
            core_origin.x,
            core_origin.y,
            core_origin.x + core_width,
            core_origin.y + column_height,
        );
        let metrics = LayoutMetrics::compute(
            spec,
            self.tech,
            core_region,
            layout.boundary,
            layout.total_wirelength(),
            layout.via_count(),
            layout.instance_count(),
        );
        Ok(MacroLayout {
            layout,
            metrics,
            column,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::NameId;

    fn generate(h: usize, w: usize, l: usize, b: u32) -> MacroLayout {
        let tech = Technology::s28();
        let library = CellLibrary::s28_default(&tech);
        let spec = AcimSpec::from_dimensions(h, w, l, b).unwrap();
        LayoutFlow::new(&tech, &library).generate(&spec).unwrap()
    }

    #[test]
    fn small_macro_assembles_with_expected_instance_count() {
        let m = generate(32, 8, 4, 3);
        // 8 columns × (32 SRAM + 8 LC + 6 periphery) + 32 input buffers +
        // 8·3 output buffers.
        let per_column = 32 + 8 + 3 + 1 + 1 + 1;
        assert_eq!(m.layout.instance_count(), 8 * per_column + 32 + 24);
        assert_eq!(m.metrics.instance_count, m.layout.instance_count());
        // One shared column template, arrayed once per column.
        let columns = m
            .layout
            .columns
            .as_ref()
            .expect("the macro arrays its column");
        assert_eq!(columns.count, 8);
        assert!(Arc::ptr_eq(&columns.block, &m.column.layout));
    }

    #[test]
    fn figure8b_dimensions_reproduce_within_tolerance() {
        // Paper: 128×128, L = 8, B = 3 → 256 µm × 131 µm, 2610 F²/bit.
        let m = generate(128, 128, 8, 3);
        assert!(
            (m.metrics.core_width_um - 256.0).abs() / 256.0 < 0.02,
            "core width {:.1} µm",
            m.metrics.core_width_um
        );
        assert!(
            (m.metrics.core_height_um - 131.0).abs() / 131.0 < 0.05,
            "core height {:.1} µm",
            m.metrics.core_height_um
        );
        assert!(
            (m.metrics.core_area_f2_per_bit - 2610.0).abs() / 2610.0 < 0.07,
            "density {:.0} F²/bit",
            m.metrics.core_area_f2_per_bit
        );
    }

    #[test]
    fn figure8a_and_8c_shapes_hold() {
        // (a) L = 2 costs area relative to (b); (c) 64×256 is wide and flat.
        let a = generate(128, 128, 2, 3);
        let b = generate(128, 128, 8, 3);
        let c = generate(64, 256, 8, 3);
        assert!(a.metrics.core_area_f2_per_bit > b.metrics.core_area_f2_per_bit);
        assert!(c.metrics.core_width_um > 2.0 * b.metrics.core_width_um * 0.95);
        assert!(c.metrics.core_height_um < b.metrics.core_height_um);
        assert!(
            (a.metrics.core_height_um - 226.0).abs() / 226.0 < 0.05,
            "fig 8(a) core height {:.1} µm",
            a.metrics.core_height_um
        );
    }

    /// The text of `net` in `m`'s top-level table.
    fn name(m: &MacroLayout, net: NameId) -> &str {
        m.layout.names.get(net)
    }

    #[test]
    fn every_rwl_track_crosses_every_column() {
        let m = generate(32, 8, 4, 3);
        let rwl_wires: Vec<_> = m
            .layout
            .wires
            .iter()
            .filter(|w| name(&m, w.net).starts_with("RWL_") && w.layer == "M3")
            .collect();
        assert_eq!(rwl_wires.len(), 32);
        for wire in rwl_wires {
            assert!(wire.rect.max.x >= m.layout.boundary.max.x - 1.0);
        }
    }

    #[test]
    fn output_stitches_exist_for_every_column_bit() {
        let m = generate(32, 8, 4, 3);
        for col in 0..8 {
            for bit in 0..3 {
                assert!(
                    m.layout
                        .wires
                        .iter()
                        .any(|w| name(&m, w.net) == format!("OUT_{col}_{bit}")),
                    "missing OUT_{col}_{bit}"
                );
            }
        }
    }

    #[test]
    fn macro_exports_interface_pins() {
        let m = generate(32, 8, 4, 3);
        let pins: Vec<&str> = m.layout.pins.iter().map(|p| name(&m, p.net)).collect();
        for pin in ["IN_0", "IN_31", "CLK", "VDD"] {
            assert!(pins.contains(&pin), "missing pin {pin}");
        }
    }

    #[test]
    fn power_grid_present_on_top_metals() {
        let m = generate(32, 8, 4, 3);
        assert!(m
            .layout
            .wires
            .iter()
            .any(|w| w.layer == "M6" && name(&m, w.net) == "VDD"));
        assert!(m
            .layout
            .wires
            .iter()
            .any(|w| w.layer == "M5" && name(&m, w.net) == "VSS"));
    }

    /// The `(H, W, L, B_ADC)` of the macros whose bytes
    /// `tests/emit_bytes.rs` pins.
    const PINNED: [(usize, usize, usize, u32); 4] = [
        (64, 16, 4, 3),
        (256, 16, 4, 4),
        (1024, 4, 2, 8),
        (32, 512, 2, 3),
    ];

    /// Each block adds each of its nets once: no two ids that one block's
    /// wires, vias or pins reference share a text.  No top-level net holds
    /// a `/`, which every column prefix holds.  So on every pinned macro
    /// "same part and same id", which DRC compares, agrees with "same
    /// name".
    #[test]
    fn each_block_names_each_net_with_one_id() {
        let tech = Technology::s28();
        let library = CellLibrary::s28_default(&tech);
        let flow = LayoutFlow::new(&tech, &library);
        for (h, w, l, b) in PINNED {
            let spec = AcimSpec::from_dimensions(h, w, l, b).unwrap();
            let m = flow.generate(&spec).unwrap();
            for (block, top) in [(&m.layout, true), (&*m.column.layout, false)] {
                let wires = block.wires.iter().map(|wire| wire.net);
                let vias = block.vias.iter().map(|via| via.net);
                let pins = block.pins.iter().map(|pin| pin.net);
                let mut ids = std::collections::BTreeMap::new();
                for net in wires.chain(vias).chain(pins) {
                    let text = block.names.get(net);
                    let first = *ids.entry(text).or_insert(net);
                    assert_eq!(first, net, "{h}x{w} L{l} B{b} {}: {text}", block.name);
                    assert!(!(top && text.contains('/')), "{h}x{w} L{l} B{b}: {text}");
                }
            }
        }
    }

    /// Every layer a pinned macro names, on a wire or via of its walk or on
    /// the macro's or its column's pins, is in the technology's layer map and
    /// rule table: the GDS writer never falls back to layer 0, and DRC
    /// checks every wire.
    #[test]
    fn every_named_layer_is_in_the_layer_map_and_the_rule_table() {
        let tech = Technology::s28();
        let library = CellLibrary::s28_default(&tech);
        let flow = LayoutFlow::new(&tech, &library);
        for (h, w, l, b) in PINNED {
            let spec = AcimSpec::from_dimensions(h, w, l, b).unwrap();
            let m = flow.generate(&spec).unwrap();
            let mut layers = std::collections::BTreeSet::new();
            for part in m.layout.parts() {
                layers.extend(part.block.wires.iter().map(|w| w.layer));
                let vias = part.block.vias.iter();
                layers.extend(vias.flat_map(|v| [v.from_layer, v.to_layer]));
            }
            let pins = m.layout.pins.iter().chain(&m.column.layout.pins);
            layers.extend(pins.map(|p| p.layer));
            assert_eq!(
                layers.iter().copied().collect::<Vec<_>>(),
                ["M2", "M3", "M4", "M5", "M6"],
                "{h}x{w} L{l} B{b}"
            );
            for layer in layers {
                assert!(tech.layers().by_name(layer).is_some(), "{layer}");
                assert!(tech.rules().layer_rule(layer).is_ok(), "{layer}");
            }
        }
    }
}
