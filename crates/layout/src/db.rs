//! The layout database: placed instances, wires, vias, exported pins and
//! placements of shared blocks.
//!
//! A [`Layout`] holds its own shapes plus placements of other layouts
//! ([`Layout::place`]), each shared through an [`Arc`] and placed at an
//! offset under a name prefix; the macro places its one column template
//! `W` times.  Writers, checks and metrics read the layout through its
//! *flat view* ([`Layout::flat_instances`], [`Layout::flat_wires`],
//! [`Layout::flat_vias`]): every placement's objects, in placement order,
//! then the layout's own, each named with its placement's prefix and
//! translated by its offset.

use std::sync::Arc;

use acim_cell::{Orientation, Point, Rect};

use crate::error::LayoutError;

/// A placed leaf-cell (or block) instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedInstance {
    /// Instance name (hierarchical, e.g. `"COL_3/XLA_0/XSRAM_2"`).
    pub name: String,
    /// Name of the placed cell or block template.
    pub cell: String,
    /// Lower-left placement origin in nanometres.
    pub origin: Point,
    /// Placement orientation.
    pub orientation: Orientation,
    /// Cell width in nanometres (in the cell's own frame).
    pub width: f64,
    /// Cell height in nanometres.
    pub height: f64,
}

impl PlacedInstance {
    /// The axis-aligned footprint of the placed instance.
    pub fn boundary(&self) -> Rect {
        // The orientations used here (R0/MX/MY/R180) never swap width and
        // height, so the footprint is origin + size.
        Rect::from_size(self.origin, self.width, self.height)
    }
}

/// A routed wire segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Wire {
    /// Net name.
    pub net: String,
    /// Metal layer name.
    pub layer: String,
    /// Wire geometry in nanometres.
    pub rect: Rect,
}

/// A via between two adjacent metal layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Via {
    /// Net name.
    pub net: String,
    /// Lower metal layer name.
    pub from_layer: String,
    /// Upper metal layer name.
    pub to_layer: String,
    /// Via centre.
    pub at: Point,
}

/// A pin exported by a layout block (used when the block is itself placed at
/// the next hierarchy level).
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutPin {
    /// Net / pin name.
    pub net: String,
    /// Metal layer of the access shape.
    pub layer: String,
    /// Access shape.
    pub rect: Rect,
}

/// A shared block placed into a layout.  In the layout's flat view every
/// instance, wire and via of `block` is translated by `offset` and named
/// with `prefix` in front.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Placement {
    /// The placed block, which holds no placements of its own: the flat
    /// view is one level deep.
    pub(crate) block: Arc<Layout>,
    /// Where the block's origin lands, in nanometres.
    pub(crate) offset: Point,
    /// Prefix of every flat name, e.g. `"COL_3/"`.
    pub(crate) prefix: String,
}

/// An object of a layout's flat view: the object as its block holds it,
/// plus the placement that puts it into the layout.
#[derive(Debug, Clone)]
pub struct Flat<'a, T> {
    /// The object in the frame of the block that holds it.
    pub local: &'a T,
    /// Name prefix of the placement; empty for the layout's own objects.
    pub prefix: &'a str,
    /// Offset of the placement; `None` for the layout's own objects, which
    /// are not translated.
    offset: Option<Point>,
}

impl<T> Flat<'_, T> {
    fn point(&self, point: Point) -> Point {
        match self.offset {
            Some(offset) => point.translated(offset.x, offset.y),
            None => point,
        }
    }
}

impl Flat<'_, PlacedInstance> {
    /// Placement origin in the layout's frame.
    pub fn origin(&self) -> Point {
        self.point(self.local.origin)
    }
}

impl Flat<'_, Wire> {
    /// Wire geometry in the layout's frame.
    pub fn rect(&self) -> Rect {
        match self.offset {
            Some(offset) => self.local.rect.translated(offset.x, offset.y),
            None => self.local.rect,
        }
    }
}

impl Flat<'_, Via> {
    /// Via centre in the layout's frame.
    pub fn at(&self) -> Point {
        self.point(self.local.at)
    }
}

/// A layout block: boundary, placed instances, routed wires/vias, exported
/// pins and placements of shared blocks.  Used both for intermediate blocks
/// (the column template) and the final macro.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Layout {
    /// Block name.
    pub name: String,
    /// Block boundary (origin at (0, 0)).
    pub boundary: Rect,
    /// Placed instances.
    pub instances: Vec<PlacedInstance>,
    /// Routed wires.
    pub wires: Vec<Wire>,
    /// Vias.
    pub vias: Vec<Via>,
    /// Exported pins.  Placed blocks' pins are not part of the flat view.
    pub pins: Vec<LayoutPin>,
    /// Shared blocks placed by [`Self::place`], whose objects come first
    /// in the flat view.
    pub(crate) placements: Vec<Placement>,
}

impl Layout {
    /// Creates an empty layout with the given boundary.
    pub fn new(name: impl Into<String>, width_nm: f64, height_nm: f64) -> Self {
        Self {
            name: name.into(),
            boundary: Rect::new(0.0, 0.0, width_nm, height_nm),
            ..Self::default()
        }
    }

    /// Width in nanometres.
    pub fn width(&self) -> f64 {
        self.boundary.width()
    }

    /// Height in nanometres.
    pub fn height(&self) -> f64 {
        self.boundary.height()
    }

    /// Total routed wire length in nanometres: the sum of the long
    /// dimension of every wire segment of the flat view, in flat order.
    pub fn total_wirelength(&self) -> f64 {
        self.flat_wires()
            .map(|w| {
                let rect = w.rect();
                rect.width().max(rect.height())
            })
            .sum()
    }

    /// Places `block` with its origin at `offset`, prefixing the names of
    /// its instances, wires and vias with `prefix` in the flat view.  The
    /// boundary grows to cover the translated block.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidParameter`] when `block` holds
    /// placements of its own: the flat view is one level deep.
    pub fn place(
        &mut self,
        block: Arc<Layout>,
        offset: Point,
        prefix: impl Into<String>,
    ) -> Result<(), LayoutError> {
        if !block.placements.is_empty() {
            return Err(LayoutError::InvalidParameter {
                name: "block".into(),
                reason: format!("{} holds placements of its own", block.name),
            });
        }
        self.boundary = self
            .boundary
            .union(&block.boundary.translated(offset.x, offset.y));
        self.placements.push(Placement {
            block,
            offset,
            prefix: prefix.into(),
        });
        Ok(())
    }

    /// Instances of the flat view: every placement's, in placement order,
    /// then the layout's own.
    pub fn flat_instances(&self) -> impl Iterator<Item = Flat<'_, PlacedInstance>> {
        self.flat(|layout| &layout.instances)
    }

    /// Wires of the flat view, in the order of [`Self::flat_instances`].
    pub fn flat_wires(&self) -> impl Iterator<Item = Flat<'_, Wire>> {
        self.flat(|layout| &layout.wires)
    }

    /// Vias of the flat view, in the order of [`Self::flat_instances`].
    pub fn flat_vias(&self) -> impl Iterator<Item = Flat<'_, Via>> {
        self.flat(|layout| &layout.vias)
    }

    /// Number of instances in the flat view.
    pub fn instance_count(&self) -> usize {
        self.flat_len(|layout| &layout.instances)
    }

    /// Number of wires in the flat view.
    pub fn wire_count(&self) -> usize {
        self.flat_len(|layout| &layout.wires)
    }

    /// Number of vias in the flat view.
    pub fn via_count(&self) -> usize {
        self.flat_len(|layout| &layout.vias)
    }

    fn flat<'a, T: 'a>(
        &'a self,
        objects: fn(&Layout) -> &[T],
    ) -> impl Iterator<Item = Flat<'a, T>> {
        let placed = self.placements.iter().flat_map(move |placement| {
            objects(&placement.block).iter().map(move |local| Flat {
                local,
                prefix: &placement.prefix,
                offset: Some(placement.offset),
            })
        });
        let own = objects(self).iter().map(|local| Flat {
            local,
            prefix: "",
            offset: None,
        });
        placed.chain(own)
    }

    fn flat_len<T>(&self, objects: fn(&Layout) -> &[T]) -> usize {
        self.placements
            .iter()
            .map(|placement| objects(&placement.block).len())
            .sum::<usize>()
            + objects(self).len()
    }

    /// Finds an exported pin by net name.
    pub fn pin(&self, net: &str) -> Option<&LayoutPin> {
        self.pins.iter().find(|p| p.net == net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(name: &str, x: f64, y: f64) -> PlacedInstance {
        PlacedInstance {
            name: name.into(),
            cell: "SRAM8T".into(),
            origin: Point::new(x, y),
            orientation: Orientation::R0,
            width: 2000.0,
            height: 632.0,
        }
    }

    #[test]
    fn instance_boundary() {
        let inst = instance("X0", 100.0, 200.0);
        let b = inst.boundary();
        assert_eq!(b.min, Point::new(100.0, 200.0));
        assert_eq!(b.max, Point::new(2100.0, 832.0));
    }

    #[test]
    fn wirelength_sums_long_dimensions() {
        let mut layout = Layout::new("test", 10_000.0, 10_000.0);
        layout.wires.push(Wire {
            net: "A".into(),
            layer: "M2".into(),
            rect: Rect::new(0.0, 0.0, 50.0, 1000.0),
        });
        layout.wires.push(Wire {
            net: "B".into(),
            layer: "M3".into(),
            rect: Rect::new(0.0, 0.0, 2000.0, 56.0),
        });
        assert_eq!(layout.total_wirelength(), 3000.0);
    }

    /// A two-instance, one-wire, one-via block.
    fn column() -> Arc<Layout> {
        let mut column = Layout::new("COLUMN", 2000.0, 5000.0);
        column.instances.push(instance("XSRAM_0", 0.0, 0.0));
        column.instances.push(instance("XSRAM_1", 0.0, 632.0));
        column.wires.push(Wire {
            net: "RBL".into(),
            layer: "M2".into(),
            rect: Rect::new(1900.0, 0.0, 1950.0, 5000.0),
        });
        column.vias.push(Via {
            net: "COM".into(),
            from_layer: "M2".into(),
            to_layer: "M3".into(),
            at: Point::new(300.0, 400.0),
        });
        Arc::new(column)
    }

    #[test]
    fn flat_view_orders_prefixes_and_translates() {
        let column = column();
        let mut top = Layout::new("TOP", 1000.0, 1000.0);
        top.place(Arc::clone(&column), Point::new(100.0, 50.0), "COL_0/")
            .unwrap();
        top.place(Arc::clone(&column), Point::new(2100.0, 50.0), "COL_1/")
            .unwrap();
        top.instances.push(instance("XIBUF_0", 0.0, 0.0));
        top.wires.push(Wire {
            net: "RWL_0".into(),
            layer: "M3".into(),
            rect: Rect::new(0.0, 10.0, 4100.0, 66.0),
        });

        // Placed objects first, in placement order, then the layout's own.
        let names: Vec<String> = top
            .flat_instances()
            .map(|i| format!("{}{}", i.prefix, i.local.name))
            .collect();
        assert_eq!(
            names,
            [
                "COL_0/XSRAM_0",
                "COL_0/XSRAM_1",
                "COL_1/XSRAM_0",
                "COL_1/XSRAM_1",
                "XIBUF_0"
            ]
        );
        let origins: Vec<Point> = top.flat_instances().map(|i| i.origin()).collect();
        assert_eq!(origins[1], Point::new(100.0, 682.0));
        assert_eq!(origins[2], Point::new(2100.0, 50.0));
        assert_eq!(origins[4], Point::new(0.0, 0.0));
        let wires: Vec<(String, Rect)> = top
            .flat_wires()
            .map(|w| (format!("{}{}", w.prefix, w.local.net), w.rect()))
            .collect();
        assert_eq!(wires.len(), 3);
        assert_eq!(
            wires[1],
            ("COL_1/RBL".into(), Rect::new(4000.0, 50.0, 4050.0, 5050.0))
        );
        assert_eq!(wires[2].0, "RWL_0");
        let vias: Vec<(String, Point, &str)> = top
            .flat_vias()
            .map(|v| {
                (
                    format!("{}{}", v.prefix, v.local.net),
                    v.at(),
                    v.local.to_layer.as_str(),
                )
            })
            .collect();
        assert_eq!(vias[0].0, "COL_0/COM");
        assert_eq!(
            vias[1],
            ("COL_1/COM".into(), Point::new(2400.0, 450.0), "M3")
        );

        // Counts and wire length agree with the view.
        assert_eq!(
            (top.instance_count(), top.wire_count(), top.via_count()),
            (5, 3, 2)
        );
        assert_eq!(top.total_wirelength(), 5000.0 + 5000.0 + 4100.0);
        // The boundary grew to cover both placed columns.
        assert_eq!(top.boundary, Rect::new(0.0, 0.0, 4100.0, 5050.0));
    }

    #[test]
    fn placed_blocks_may_not_hold_placements() {
        let mut nested = Layout::new("NESTED", 100.0, 100.0);
        nested.place(column(), Point::new(0.0, 0.0), "C/").unwrap();
        let mut top = Layout::new("TOP", 100.0, 100.0);
        assert!(top
            .place(Arc::new(nested), Point::new(0.0, 0.0), "N/")
            .is_err());
        assert!(top.placements.is_empty());
    }

    #[test]
    fn pin_lookup() {
        let mut layout = Layout::new("test", 1000.0, 1000.0);
        layout.pins.push(LayoutPin {
            net: "CLK".into(),
            layer: "M3".into(),
            rect: Rect::new(0.0, 0.0, 100.0, 100.0),
        });
        assert!(layout.pin("CLK").is_some());
        assert!(layout.pin("MISSING").is_none());
    }
}
