//! The column template (Hierarchy 1–2 of Figure 7).
//!
//! A column of the macro stacks, bottom to top:
//!
//! 1. the SAR sequencing logic,
//! 2. the `B_ADC` SAR flip-flops,
//! 3. the CMOS isolation switch,
//! 4. the comparator / sense amplifier,
//! 5. `H / L` local arrays, each one compute cell followed by its `L` SRAM
//!    cells.
//!
//! The stacking is deterministic (template-based): the cells abut at the
//! shared column pitch.  The read bit-line and the analog reference use
//! pre-defined vertical tracks, and the remaining intra-column nets
//! (comparator outputs, clock, SAR controls) are routed by the grid-based
//! maze router inside the peripheral region only — the local arrays are
//! never opened, exactly as the paper's template strategy prescribes.

use std::sync::Arc;

use acim_arch::AcimSpec;
use acim_cell::{CellKind, CellLibrary, Orientation, Point, Rect};
use acim_tech::Technology;

use crate::db::{Layout, LayoutPin, PlacedInstance, Wire};
use crate::error::LayoutError;
use crate::grid::RoutingGrid;
use crate::router::{MazeRouter, RouteRequest};

/// The generated column template plus the metadata the macro assembly needs.
#[derive(Debug, Clone)]
pub struct ColumnTemplate {
    /// The column layout block, shared by every placement of it in the
    /// macro.
    pub layout: Arc<Layout>,
    /// Height of the peripheral region at the bottom of the column (SAR
    /// logic, flip-flops, switch, comparator), in nanometres.
    pub periphery_height: f64,
    /// Y centre of every read word-line pin, indexed by global row.
    pub rwl_pin_y: Vec<f64>,
}

impl ColumnTemplate {
    /// Builds the column template for a specification.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] when a leaf cell is missing or an
    /// intra-column net cannot be routed.
    pub fn build(
        spec: &AcimSpec,
        tech: &Technology,
        library: &CellLibrary,
    ) -> Result<Self, LayoutError> {
        let sram = library.require(CellKind::Sram8T)?;
        let compute = library.require(CellKind::ComputeCell)?;
        let comparator = library.require(CellKind::Comparator)?;
        let dff = library.require(CellKind::SarDff)?;
        let sar_logic = library.require(CellKind::SarLogic)?;
        let switch = library.require(CellKind::CmosSwitch)?;

        let width = sram.width_nm();
        let bits = spec.adc_bits() as usize;
        let locals = spec.capacitors_per_column();

        // --- Deterministic stacking ---------------------------------------
        let mut instances = Vec::new();
        let mut cursor = 0.0f64;
        let place = |name: String, cell_name: &str, w: f64, h: f64, y: &mut f64| {
            let inst = PlacedInstance {
                name,
                cell: cell_name.to_string(),
                origin: Point::new(0.0, *y),
                orientation: Orientation::R0,
                width: w,
                height: h,
            };
            *y += h;
            inst
        };

        instances.push(place(
            "XSARCTRL".into(),
            sar_logic.name(),
            width,
            sar_logic.height_nm(),
            &mut cursor,
        ));
        let mut dff_origins = Vec::with_capacity(bits);
        for bit in 0..bits {
            dff_origins.push(cursor);
            instances.push(place(
                format!("XDFF_{bit}"),
                dff.name(),
                width,
                dff.height_nm(),
                &mut cursor,
            ));
        }
        let switch_origin = cursor;
        instances.push(place(
            "XSW".into(),
            switch.name(),
            width,
            switch.height_nm(),
            &mut cursor,
        ));
        let comparator_origin = cursor;
        instances.push(place(
            "XCOMP".into(),
            comparator.name(),
            width,
            comparator.height_nm(),
            &mut cursor,
        ));
        let periphery_height = cursor;

        let mut rwl_pin_y = Vec::with_capacity(spec.height());
        let mut compute_cell_tops = Vec::with_capacity(locals);
        for j in 0..locals {
            compute_cell_tops.push(cursor + compute.height_nm() / 2.0);
            instances.push(place(
                format!("XLA_{j}/XLC"),
                compute.name(),
                width,
                compute.height_nm(),
                &mut cursor,
            ));
            for i in 0..spec.local_array() {
                rwl_pin_y.push(cursor + sram.height_nm() / 2.0);
                instances.push(place(
                    format!("XLA_{j}/XSRAM_{i}"),
                    sram.name(),
                    width,
                    sram.height_nm(),
                    &mut cursor,
                ));
            }
        }
        let height = cursor;

        let mut layout = Layout::new(
            format!(
                "COLUMN_{}x1_l{}_b{}",
                spec.height(),
                spec.local_array(),
                spec.adc_bits()
            ),
            width,
            height,
        );
        layout.instances = instances;

        // --- Pre-defined tracks --------------------------------------------
        // Read bit-line: vertical M2 track near the right edge spanning from
        // the switch up to the topmost compute cell, plus the comparator
        // input stub.
        let m2_width = tech
            .rules()
            .layer_rule("M2")
            .map(|r| r.min_width.value())
            .unwrap_or(50.0);
        // Keep the pre-defined tracks clear of the pin columns at both cell
        // edges (pins occupy roughly the outer 150 nm on each side).
        let rbl_x = width * 0.75;
        let rbl_top = compute_cell_tops.last().copied().unwrap_or(height);
        layout.wires.push(Wire {
            net: "RBL".into(),
            layer: "M2".into(),
            rect: Rect::new(rbl_x, switch_origin, rbl_x + m2_width, rbl_top),
        });
        // Analog reference VCM: vertical M2 track near the left edge.
        let vcm_x = width * 0.2;
        layout.wires.push(Wire {
            net: "VCM".into(),
            layer: "M2".into(),
            rect: Rect::new(vcm_x, 0.0, vcm_x + m2_width, rbl_top),
        });
        // Power: vertical M4 stripes.
        let m4_width = tech
            .rules()
            .layer_rule("M4")
            .map(|r| r.min_width.value())
            .unwrap_or(56.0);
        layout.wires.push(Wire {
            net: "VDD".into(),
            layer: "M4".into(),
            rect: Rect::new(width * 0.35, 0.0, width * 0.35 + m4_width * 2.0, height),
        });
        layout.wires.push(Wire {
            net: "VSS".into(),
            layer: "M4".into(),
            rect: Rect::new(width * 0.6, 0.0, width * 0.6 + m4_width * 2.0, height),
        });

        // --- Maze routing of the peripheral nets ---------------------------
        // Route COM/COMB (comparator to DFFs and SAR logic) and the CLK
        // distribution inside the peripheral region on M2/M3/M4.
        // Inset the routing region by half a wire width plus margin so that
        // boundary-node wires stay strictly inside the column block.
        let m3_width = tech
            .rules()
            .layer_rule("M3")
            .map(|r| r.min_width.value())
            .unwrap_or(56.0);
        let inset = m3_width;
        let region = Rect::new(inset, inset, width - inset, periphery_height - inset);
        // The column router's own track pitch; the technology has no
        // routing-grid pitch.  It must leave at least the minimum spacing
        // between wires of different nets on adjacent tracks of the widest
        // routing layer (M3/M4: 56 nm wide, 56 nm apart).
        let pitch = 120.0;
        let mut grid = RoutingGrid::new(region, pitch, 3)?;
        // Keep the pre-defined tracks (plus a spacing halo) clear of the maze
        // router so routed wires on neighbouring grid tracks cannot violate
        // the M2 spacing rule against them.
        let halo = m2_width + pitch / 2.0;
        grid.block_rect(
            0,
            &Rect::new(vcm_x, 0.0, vcm_x + m2_width, periphery_height).expanded(halo),
        );
        grid.block_rect(
            0,
            &Rect::new(rbl_x, switch_origin, rbl_x + m2_width, periphery_height).expanded(halo),
        );
        let mut router = MazeRouter::new(
            grid,
            vec!["M2".into(), "M3".into(), "M4".into()],
            vec![false, true, false],
            vec![m2_width, m3_width, m3_width],
        )?;

        let pin_at = |cell: &acim_cell::LeafCell, pin: &str, origin_y: f64| -> Point {
            let shape = cell
                .pin(pin)
                .map(|p| p.shape())
                .unwrap_or_else(|| Rect::new(0.0, 0.0, 100.0, 100.0));
            let center = shape.center();
            Point::new(center.x, center.y + origin_y)
        };

        let mut requests = Vec::new();
        // COM: comparator output to every DFF data input and the SAR logic.
        let mut com_terminals = vec![(0usize, pin_at(comparator, "COM", comparator_origin))];
        for (bit, &y) in dff_origins.iter().enumerate() {
            let _ = bit;
            com_terminals.push((0usize, pin_at(dff, "D", y)));
        }
        com_terminals.push((0usize, pin_at(sar_logic, "COM", 0.0)));
        requests.push(RouteRequest {
            net: "COM".into(),
            net_id: 1,
            terminals: com_terminals,
        });
        // COMB: comparator complement output to the SAR logic.
        requests.push(RouteRequest {
            net: "COMB".into(),
            net_id: 2,
            terminals: vec![
                (0usize, pin_at(comparator, "COMB", comparator_origin)),
                (0usize, pin_at(sar_logic, "COMB", 0.0)),
            ],
        });
        // CLK: bottom-edge pin to the comparator, every DFF and the SAR
        // logic.
        let clk_entry = Point::new(width * 0.5, 0.0);
        let mut clk_terminals = vec![
            (1usize, clk_entry),
            (0usize, pin_at(comparator, "CLK", comparator_origin)),
            (0usize, pin_at(sar_logic, "CLK", 0.0)),
        ];
        for &y in &dff_origins {
            clk_terminals.push((0usize, pin_at(dff, "CLK", y)));
        }
        requests.push(RouteRequest {
            net: "CLK".into(),
            net_id: 3,
            terminals: clk_terminals,
        });
        // Switch enable from the SAR logic DONE output.
        requests.push(RouteRequest {
            net: "SW_EN".into(),
            net_id: 4,
            terminals: vec![
                (0usize, pin_at(sar_logic, "DONE", 0.0)),
                (0usize, pin_at(switch, "EN", switch_origin)),
            ],
        });

        router.reserve_terminals(&requests);
        for request in &requests {
            let (wires, vias) = router.route(request)?;
            layout.wires.extend(wires);
            layout.vias.extend(vias);
        }

        // --- Exported pins --------------------------------------------------
        for (row, &y) in rwl_pin_y.iter().enumerate() {
            layout.pins.push(LayoutPin {
                net: format!("RWL_{row}"),
                layer: "M3".into(),
                rect: Rect::new(0.0, y - 30.0, 120.0, y + 30.0),
            });
        }
        for (bit, &y) in dff_origins.iter().enumerate() {
            let q = pin_at(dff, "Q", y);
            layout.pins.push(LayoutPin {
                net: format!("DOUT_{bit}"),
                layer: "M2".into(),
                rect: Rect::new(q.x - 60.0, q.y - 30.0, q.x + 60.0, q.y + 30.0),
            });
        }
        for (net, x_frac) in [("CLK", 0.5), ("PCH", 0.3), ("RST", 0.4), ("START", 0.6)] {
            layout.pins.push(LayoutPin {
                net: net.to_string(),
                layer: "M3".into(),
                rect: Rect::new(width * x_frac - 60.0, 0.0, width * x_frac + 60.0, 60.0),
            });
        }
        for (net, x) in [("VDD", width * 0.35), ("VSS", width * 0.6)] {
            layout.pins.push(LayoutPin {
                net: net.to_string(),
                layer: "M4".into(),
                rect: Rect::new(x, 0.0, x + m4_width * 2.0, 120.0),
            });
        }

        Ok(Self {
            layout: Arc::new(layout),
            periphery_height,
            rwl_pin_y,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template(h: usize, w: usize, l: usize, b: u32) -> ColumnTemplate {
        let tech = Technology::s28();
        let library = CellLibrary::s28_default(&tech);
        let spec = AcimSpec::from_dimensions(h, w, l, b).unwrap();
        ColumnTemplate::build(&spec, &tech, &library).unwrap()
    }

    #[test]
    fn column_contains_every_expected_instance() {
        let t = template(32, 8, 4, 3);
        let count = |cell: &str| t.layout.instances.iter().filter(|i| i.cell == cell).count();
        assert_eq!(count("SRAM8T"), 32);
        assert_eq!(count("LC_CELL"), 8);
        assert_eq!(count("COMP_SA"), 1);
        assert_eq!(count("SAR_DFF"), 3);
        assert_eq!(count("SAR_CTRL"), 1);
        assert_eq!(count("CSW"), 1);
    }

    #[test]
    fn instances_abut_without_overlap() {
        let t = template(32, 8, 4, 3);
        let rects: Vec<Rect> = t.layout.instances.iter().map(|i| i.boundary()).collect();
        for (i, a) in rects.iter().enumerate() {
            for b in rects.iter().skip(i + 1) {
                assert!(!a.overlaps(b), "instances overlap: {a} vs {b}");
            }
        }
        // Total stacked height accounts for every cell.
        let total: f64 = rects.iter().map(Rect::height).sum();
        assert!((total - t.layout.height()).abs() < 1e-6);
    }

    #[test]
    fn column_height_matches_the_area_model_within_a_few_percent() {
        // Figure 8(b): 128 rows, L = 8, B = 3 → column height ≈ 131 µm.
        let t = template(128, 128, 8, 3);
        let height_um = t.layout.height() / 1000.0;
        assert!(
            (height_um - 131.0).abs() / 131.0 < 0.05,
            "column height {height_um:.1} µm vs paper's ≈131 µm"
        );
        assert!((t.layout.width() / 1000.0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rwl_pins_cover_every_row_in_order() {
        let t = template(32, 8, 4, 3);
        assert_eq!(t.rwl_pin_y.len(), 32);
        for pair in t.rwl_pin_y.windows(2) {
            assert!(pair[1] > pair[0], "RWL pin ordering broken");
        }
        assert!(t.layout.pin("RWL_0").is_some());
        assert!(t.layout.pin("RWL_31").is_some());
        assert!(t.layout.pin("DOUT_2").is_some());
        assert!(t.layout.pin("CLK").is_some());
    }

    #[test]
    fn critical_nets_have_predefined_tracks_and_routes() {
        let t = template(32, 8, 4, 3);
        let nets: std::collections::BTreeSet<&str> =
            t.layout.wires.iter().map(|w| w.net.as_str()).collect();
        for net in ["RBL", "VCM", "VDD", "VSS", "COM", "CLK"] {
            assert!(nets.contains(net), "missing routed net {net}");
        }
        // The RBL track spans the compute region.
        let rbl = t.layout.wires.iter().find(|w| w.net == "RBL").unwrap();
        assert!(rbl.rect.height() > t.periphery_height);
    }

    #[test]
    fn periphery_is_below_the_array() {
        let t = template(32, 8, 4, 3);
        for inst in &t.layout.instances {
            if inst.cell == "SRAM8T" || inst.cell == "LC_CELL" {
                assert!(inst.origin.y >= t.periphery_height - 1e-9);
            } else {
                assert!(inst.origin.y < t.periphery_height);
            }
        }
    }
}
