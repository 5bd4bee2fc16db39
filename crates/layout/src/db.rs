//! The layout database: placed instances, wires, vias, exported pins and
//! placements of shared blocks, each named through its block's name table.
//!
//! Every [`Layout`] block holds a name table, [`Names`]: each name's text,
//! written once while the block is built, and a dense [`NameId`] per name.
//! Instances, wires, vias, pins and placement prefixes hold ids into the
//! table of the block that owns them.  A block adds each of its nets once,
//! so two of its objects are on one net exactly when they hold one id.
//! Only the DEF and GDS writers ([`crate::gds`]) and DRC's violation text
//! ([`crate::drc`]) read a name's text.
//!
//! A [`Layout`] holds its own shapes plus placements of other layouts
//! ([`Layout::place`]), each shared through an [`Arc`] and placed at an
//! offset under a name prefix; the macro places its one column template
//! `W` times.  Checks and metrics read the layout through its *flat view*
//! ([`Layout::flat_instances`], [`Layout::flat_wires`],
//! [`Layout::flat_vias`]): every placement's objects, in placement order,
//! then the layout's own, each with the placement it comes from and
//! translated by its offset.  A flat object's name is its placement's
//! prefix followed by its own name in its block's table.  The DEF and GDS writers
//! walk the placements themselves, stamping each placed block's lines, and
//! write the bytes the flat view lists.

use std::fmt::{Display, Write as _};
use std::sync::Arc;

use acim_cell::{Orientation, Point, Rect};

use crate::error::LayoutError;

/// A block's name table: the text of every name, back to back in one
/// buffer, and where each name ends.  Ids count up from 0 in the order the
/// names were added.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Names {
    text: String,
    ends: Vec<usize>,
}

/// A name in a block's [`Names`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameId(pub(crate) u32);

impl Names {
    /// Appends the text of `name`, such as `"VDD"` or
    /// `format_args!("OUT_{col}_{bit}")`, and returns its id.  Adding a
    /// text twice gives two ids, which name two nets.
    pub fn add(&mut self, name: impl Display) -> NameId {
        let id = u32::try_from(self.ends.len()).expect("a block holds fewer than 2^32 names");
        let _ = write!(self.text, "{name}");
        self.ends.push(self.text.len());
        NameId(id)
    }

    /// The text of `id`.
    ///
    /// # Panics
    ///
    /// Panics when the table holds no name at `id`'s index.
    pub fn get(&self, id: NameId) -> &str {
        let index = id.0 as usize;
        let start = index.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.text[start..self.ends[index]]
    }
}

/// A placed leaf-cell (or block) instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedInstance {
    /// Instance name, such as `XLA_0/XSRAM_2`.
    pub name: NameId,
    /// Name of the placed cell or block template.
    pub cell: &'static str,
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
    /// Net.
    pub net: NameId,
    /// Metal layer name.
    pub layer: &'static str,
    /// Wire geometry in nanometres.
    pub rect: Rect,
}

/// A via between two adjacent metal layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Via {
    /// Net.
    pub net: NameId,
    /// Lower metal layer name.
    pub from_layer: &'static str,
    /// Upper metal layer name.
    pub to_layer: &'static str,
    /// Via centre.
    pub at: Point,
}

/// A pin exported by a layout block (used when the block is itself placed at
/// the next hierarchy level).
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutPin {
    /// Net, which names the pin.
    pub net: NameId,
    /// Metal layer of the access shape.
    pub layer: &'static str,
    /// Access shape.
    pub rect: Rect,
}

/// A shared block placed into a layout.  In the layout's flat view every
/// instance, wire and via of `block` is translated by `offset` and named
/// with the text of `prefix` in front.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Placement {
    /// The placed block, which holds no placements of its own: the flat
    /// view is one level deep.
    pub(crate) block: Arc<Layout>,
    /// Where the block's origin lands, in nanometres.
    pub(crate) offset: Point,
    /// Prefix of every flat name, such as `COL_3/`, in the placing
    /// layout's table.
    pub(crate) prefix: NameId,
}

/// An object of a layout's flat view: the object as its block holds it,
/// plus the placement that puts it into the layout.  Two flat objects name
/// one net when they share a placement, or both are the layout's own, and
/// hold one id.
#[derive(Debug, Clone)]
pub struct Flat<'a, T> {
    /// The object in the frame of the block that holds it.
    pub local: &'a T,
    /// Index of the placement among the layout's; `None` for the layout's
    /// own objects, which are not translated.
    pub placement: Option<usize>,
    /// The layout whose flat view lists the object.
    layout: &'a Layout,
}

impl<'a, T> Flat<'a, T> {
    fn placed(&self) -> Option<&'a Placement> {
        let placements = &self.layout.placements;
        self.placement.map(|index| &placements[index])
    }

    /// Name prefix of the placement; empty for the layout's own objects.
    pub fn prefix(&self) -> &'a str {
        let names = &self.layout.names;
        self.placed()
            .map_or("", |placement| names.get(placement.prefix))
    }

    /// The text of `id` in the table of the block that holds the object.
    pub fn name(&self, id: NameId) -> &'a str {
        let block = self
            .placed()
            .map_or(self.layout, |placement| &placement.block);
        block.names.get(id)
    }

    fn point(&self, point: Point) -> Point {
        match self.placed() {
            Some(placement) => point.translated(placement.offset.x, placement.offset.y),
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
        let rect = self.local.rect;
        Rect {
            min: self.point(rect.min),
            max: self.point(rect.max),
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
    /// The names of the block's objects and of its placements' prefixes.
    pub names: Names,
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
    /// its instances, wires and vias with `prefix`, a name in this layout's
    /// table, in the flat view.  The boundary grows to cover the translated
    /// block.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidParameter`] when `block` holds
    /// placements of its own: the flat view is one level deep.
    pub fn place(
        &mut self,
        block: Arc<Layout>,
        offset: Point,
        prefix: NameId,
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
            prefix,
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
        let placed = self
            .placements
            .iter()
            .enumerate()
            .flat_map(move |(index, placement)| {
                objects(&placement.block).iter().map(move |local| Flat {
                    local,
                    placement: Some(index),
                    layout: self,
                })
            });
        let own = objects(self).iter().map(move |local| Flat {
            local,
            placement: None,
            layout: self,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(name: NameId, x: f64, y: f64) -> PlacedInstance {
        PlacedInstance {
            name,
            cell: "SRAM8T",
            origin: Point::new(x, y),
            orientation: Orientation::R0,
            width: 2000.0,
            height: 632.0,
        }
    }

    #[test]
    fn names_are_dense_and_read_back_exactly() {
        let mut names = Names::default();
        let ids = [
            names.add("VDD"),
            names.add(""),
            names.add(format_args!("OUT_{}_{}", 1023, 7)),
            names.add(format_args!("COL_{}/", 12)),
            names.add(String::new()),
            names.add("VDD"),
        ];
        assert_eq!(ids.map(|id| id.0), [0, 1, 2, 3, 4, 5]);
        let texts = ids.map(|id| names.get(id));
        assert_eq!(texts, ["VDD", "", "OUT_1023_7", "COL_12/", "", "VDD"]);
    }

    #[test]
    fn instance_boundary() {
        let inst = instance(Names::default().add("X0"), 100.0, 200.0);
        let b = inst.boundary();
        assert_eq!(b.min, Point::new(100.0, 200.0));
        assert_eq!(b.max, Point::new(2100.0, 832.0));
    }

    #[test]
    fn wirelength_sums_long_dimensions() {
        let mut layout = Layout::new("test", 10_000.0, 10_000.0);
        layout.wires.push(Wire {
            net: layout.names.add("A"),
            layer: "M2",
            rect: Rect::new(0.0, 0.0, 50.0, 1000.0),
        });
        layout.wires.push(Wire {
            net: layout.names.add("B"),
            layer: "M3",
            rect: Rect::new(0.0, 0.0, 2000.0, 56.0),
        });
        assert_eq!(layout.total_wirelength(), 3000.0);
    }

    /// A two-instance, one-wire, one-via block.
    fn column() -> Arc<Layout> {
        let mut column = Layout::new("COLUMN", 2000.0, 5000.0);
        for (row, y) in [0.0, 632.0].into_iter().enumerate() {
            let name = column.names.add(format_args!("XSRAM_{row}"));
            column.instances.push(instance(name, 0.0, y));
        }
        column.wires.push(Wire {
            net: column.names.add("RBL"),
            layer: "M2",
            rect: Rect::new(1900.0, 0.0, 1950.0, 5000.0),
        });
        column.vias.push(Via {
            net: column.names.add("COM"),
            from_layer: "M2",
            to_layer: "M3",
            at: Point::new(300.0, 400.0),
        });
        Arc::new(column)
    }

    #[test]
    fn flat_view_orders_prefixes_and_translates() {
        let column = column();
        let mut top = Layout::new("TOP", 1000.0, 1000.0);
        for (col, x) in [100.0, 2100.0].into_iter().enumerate() {
            let prefix = top.names.add(format_args!("COL_{col}/"));
            top.place(Arc::clone(&column), Point::new(x, 50.0), prefix)
                .unwrap();
        }
        let name = top.names.add("XIBUF_0");
        top.instances.push(instance(name, 0.0, 0.0));
        top.wires.push(Wire {
            net: top.names.add("RWL_0"),
            layer: "M3",
            rect: Rect::new(0.0, 10.0, 4100.0, 66.0),
        });

        // Placed objects first, in placement order, then the layout's own.
        let names: Vec<String> = top
            .flat_instances()
            .map(|i| format!("{}{}", i.prefix(), i.name(i.local.name)))
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
        let placements: Vec<Option<usize>> = top.flat_instances().map(|i| i.placement).collect();
        assert_eq!(placements, [Some(0), Some(0), Some(1), Some(1), None]);
        let origins: Vec<Point> = top.flat_instances().map(|i| i.origin()).collect();
        assert_eq!(origins[1], Point::new(100.0, 682.0));
        assert_eq!(origins[2], Point::new(2100.0, 50.0));
        assert_eq!(origins[4], Point::new(0.0, 0.0));
        let wires: Vec<(String, Rect)> = top
            .flat_wires()
            .map(|w| (format!("{}{}", w.prefix(), w.name(w.local.net)), w.rect()))
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
                    format!("{}{}", v.prefix(), v.name(v.local.net)),
                    v.at(),
                    v.local.to_layer,
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
        let prefix = nested.names.add("C/");
        nested
            .place(column(), Point::new(0.0, 0.0), prefix)
            .unwrap();
        let mut top = Layout::new("TOP", 100.0, 100.0);
        let prefix = top.names.add("N/");
        assert!(top
            .place(Arc::new(nested), Point::new(0.0, 0.0), prefix)
            .is_err());
        assert!(top.placements.is_empty());
    }
}
