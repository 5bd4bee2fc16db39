//! The layout database: placed instances, wires, vias, exported pins and
//! an array of one shared column block, each named through its block's
//! name table.
//!
//! Every [`Layout`] block holds a name table, [`Names`]: each name's text,
//! written once while the block is built, and a dense [`NameId`] per name.
//! Instances, wires, vias and pins hold ids into the table of the block
//! that owns them.  A block adds each of its nets once, so two of its
//! objects are on one net exactly when they hold one id.  Only the DEF and
//! GDS writers ([`crate::gds`]) and DRC's violation text ([`crate::drc`])
//! read a name's text.
//!
//! A [`Layout`] holds its own shapes plus at most one array of a shared
//! block, [`Columns`]: the macro abuts its one column template `W` times,
//! as the paper's Figure 7 builds it.  Checks, counts, metrics and the
//! writers read a layout through one walk, [`Layout::parts`]: each column
//! of the array in order, then the layout's own objects.  A [`Part`]
//! translates its block's points into the layout's frame, and names each
//! object by the part's [`Prefix`], `COL_{c}/` for column `c`, followed by
//! the object's own name in its block's table.

use std::fmt::{Display, Write as _};
use std::io::Write as _;
use std::iter;
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

/// `count` copies of a shared `block`, abutted along x: column `c` has
/// its origin at `origin.x + c as f64 * pitch`, `origin.y`.
#[derive(Debug, Clone, PartialEq)]
pub struct Columns {
    /// The arrayed block, which holds no array of its own: the walk is one
    /// level deep.
    pub block: Arc<Layout>,
    /// Where column 0's origin lands, in nanometres.
    pub origin: Point,
    /// The x step from one column's origin to the next, in nanometres.
    pub pitch: f64,
    /// Number of columns.
    pub count: usize,
}

impl Columns {
    /// Where column `c`'s origin lands.
    fn at(&self, c: usize) -> Point {
        Point::new(self.origin.x + c as f64 * self.pitch, self.origin.y)
    }
}

/// One part of a layout's walk ([`Layout::parts`]): a column of its array,
/// or the layout's own objects.  Two objects of the walk name one net when
/// they share a part and hold one id.
#[derive(Debug, Clone, Copy)]
pub struct Part<'a> {
    /// The column's index in the array; `None` for the layout's own
    /// objects.
    pub column: Option<usize>,
    /// The block holding the part's objects, whose table names them.
    pub block: &'a Layout,
    /// Where the block's origin lands, for a column.
    pub(crate) origin: Point,
}

impl Part<'_> {
    /// `point` of the block in the layout's frame.  The layout's own
    /// objects are not translated, so `-0.0` stays `-0.0`.
    pub fn point(&self, point: Point) -> Point {
        match self.column {
            Some(_) => point.translated(self.origin.x, self.origin.y),
            None => point,
        }
    }

    /// `rect` of the block in the layout's frame.
    pub fn rect(&self, rect: Rect) -> Rect {
        Rect {
            min: self.point(rect.min),
            max: self.point(rect.max),
        }
    }

    /// The prefix of the part's object names.
    pub fn prefix(&self) -> Prefix {
        let mut prefix = Prefix {
            bytes: [0; 25],
            len: 0,
        };
        if let Some(c) = self.column {
            let mut rest = &mut prefix.bytes[..];
            let _ = write!(rest, "COL_{c}/");
            prefix.len = 25 - rest.len();
        }
        prefix
    }
}

/// A part's name prefix: `COL_{c}/` for column `c`, empty for the layout's
/// own objects.  It is formatted on the stack, so naming a column
/// allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct Prefix {
    /// `COL_`, at most 20 digits and `/`.
    bytes: [u8; 25],
    len: usize,
}

impl Prefix {
    /// The prefix's text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("a prefix is ASCII")
    }
}

/// A layout block: boundary, placed instances, routed wires/vias, exported
/// pins and an array of a shared block.  Used both for intermediate blocks
/// (the column template) and the final macro.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Layout {
    /// Block name.
    pub name: String,
    /// The names of the block's objects.
    pub names: Names,
    /// Block boundary (origin at (0, 0)).
    pub boundary: Rect,
    /// Placed instances.
    pub instances: Vec<PlacedInstance>,
    /// Routed wires.
    pub wires: Vec<Wire>,
    /// Vias.
    pub vias: Vec<Via>,
    /// Exported pins.  The arrayed block's pins are not part of the walk.
    pub pins: Vec<LayoutPin>,
    /// The array placed by [`Self::place_columns`], whose columns come
    /// first in the walk.
    pub(crate) columns: Option<Columns>,
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
    /// dimension of every wire segment, in the order of [`Self::parts`].
    pub fn total_wirelength(&self) -> f64 {
        self.parts()
            .flat_map(|part| part.block.wires.iter().map(move |w| part.rect(w.rect)))
            .map(|rect| rect.width().max(rect.height()))
            .sum()
    }

    /// Places the array `columns`.  The boundary grows to cover every
    /// translated column.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidParameter`] when this layout or the
    /// arrayed block already holds an array: a layout holds one, and the
    /// walk is one level deep.
    pub fn place_columns(&mut self, columns: Columns) -> Result<(), LayoutError> {
        let holder = [&*columns.block, &*self]
            .into_iter()
            .find(|layout| layout.columns.is_some());
        if let Some(holder) = holder {
            return Err(LayoutError::InvalidParameter {
                name: "columns".into(),
                reason: format!("{} already holds a column array", holder.name),
            });
        }
        for c in 0..columns.count {
            let origin = columns.at(c);
            let column = columns.block.boundary.translated(origin.x, origin.y);
            self.boundary = self.boundary.union(&column);
        }
        self.columns = Some(columns);
        Ok(())
    }

    /// The layout's walk: each column of its array in order, then the
    /// layout's own objects.
    pub fn parts(&self) -> impl Iterator<Item = Part<'_>> {
        let columns = self.columns.iter().flat_map(|columns| {
            (0..columns.count).map(move |c| Part {
                column: Some(c),
                block: &columns.block,
                origin: columns.at(c),
            })
        });
        columns.chain(iter::once(Part {
            column: None,
            block: self,
            origin: Point::new(0.0, 0.0),
        }))
    }

    /// Number of instances in the walk.
    pub fn instance_count(&self) -> usize {
        self.parts().map(|part| part.block.instances.len()).sum()
    }

    /// Number of wires in the walk.
    pub fn wire_count(&self) -> usize {
        self.parts().map(|part| part.block.wires.len()).sum()
    }

    /// Number of vias in the walk.
    pub fn via_count(&self) -> usize {
        self.parts().map(|part| part.block.vias.len()).sum()
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

    /// Two columns of [`column`], 2000 nm apart, from (100, 50).
    fn array() -> Columns {
        Columns {
            block: column(),
            origin: Point::new(100.0, 50.0),
            pitch: 2000.0,
            count: 2,
        }
    }

    #[test]
    fn parts_order_prefixes_and_translate() {
        let mut top = Layout::new("TOP", 1000.0, 1000.0);
        top.place_columns(array()).unwrap();
        let name = top.names.add("XIBUF_0");
        top.instances.push(instance(name, 0.0, 0.0));
        top.wires.push(Wire {
            net: top.names.add("RWL_0"),
            layer: "M3",
            rect: Rect::new(0.0, 10.0, 4100.0, 66.0),
        });

        // Columns first, in order, then the layout's own objects.
        let name =
            |part: &Part, id| format!("{}{}", part.prefix().as_str(), part.block.names.get(id));
        let instances: Vec<(Option<usize>, String, Point)> = top
            .parts()
            .flat_map(|p| {
                p.block
                    .instances
                    .iter()
                    .map(move |i| (p.column, name(&p, i.name), p.point(i.origin)))
            })
            .collect();
        let names: Vec<&str> = instances.iter().map(|(_, name, _)| name.as_str()).collect();
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
        let columns: Vec<Option<usize>> = instances.iter().map(|(c, _, _)| *c).collect();
        assert_eq!(columns, [Some(0), Some(0), Some(1), Some(1), None]);
        assert_eq!(instances[1].2, Point::new(100.0, 682.0));
        assert_eq!(instances[2].2, Point::new(2100.0, 50.0));
        assert_eq!(instances[4].2, Point::new(0.0, 0.0));
        let wires: Vec<(String, Rect)> = top
            .parts()
            .flat_map(|p| {
                p.block
                    .wires
                    .iter()
                    .map(move |w| (name(&p, w.net), p.rect(w.rect)))
            })
            .collect();
        assert_eq!(wires.len(), 3);
        assert_eq!(
            wires[1],
            ("COL_1/RBL".into(), Rect::new(4000.0, 50.0, 4050.0, 5050.0))
        );
        assert_eq!(wires[2].0, "RWL_0");
        let vias: Vec<(String, Point, &str)> = top
            .parts()
            .flat_map(|p| {
                p.block
                    .vias
                    .iter()
                    .map(move |v| (name(&p, v.net), p.point(v.at), v.to_layer))
            })
            .collect();
        assert_eq!(vias[0].0, "COL_0/COM");
        assert_eq!(
            vias[1],
            ("COL_1/COM".into(), Point::new(2400.0, 450.0), "M3")
        );

        // Counts and wire length agree with the walk.
        assert_eq!(
            (top.instance_count(), top.wire_count(), top.via_count()),
            (5, 3, 2)
        );
        assert_eq!(top.total_wirelength(), 5000.0 + 5000.0 + 4100.0);
        // The boundary grew to cover both columns.
        assert_eq!(top.boundary, Rect::new(0.0, 0.0, 4100.0, 5050.0));
    }

    #[test]
    fn prefixes_name_columns_and_nothing_else() {
        let block = Layout::default();
        let prefix = |column| {
            let origin = Point::new(0.0, 0.0);
            let part = Part {
                column,
                block: &block,
                origin,
            };
            part.prefix().as_str().to_owned()
        };
        assert_eq!(prefix(None), "");
        assert_eq!(prefix(Some(0)), "COL_0/");
        assert_eq!(prefix(Some(1023)), "COL_1023/");
        assert_eq!(prefix(Some(usize::MAX)), format!("COL_{}/", usize::MAX));
    }

    #[test]
    fn nested_column_arrays_are_rejected() {
        let mut nested = Layout::new("NESTED", 100.0, 100.0);
        nested.place_columns(array()).unwrap();
        // A layout holds one array.
        let boundary = nested.boundary;
        assert!(matches!(
            nested.place_columns(array()),
            Err(LayoutError::InvalidParameter { .. })
        ));
        assert_eq!(nested.boundary, boundary);
        // An arrayed block holds no array of its own.
        let mut top = Layout::new("TOP", 100.0, 100.0);
        let nested = Columns {
            block: Arc::new(nested),
            ..array()
        };
        assert!(matches!(
            top.place_columns(nested),
            Err(LayoutError::InvalidParameter { .. })
        ));
        assert!(top.columns.is_none());
        assert_eq!(top.boundary, Rect::new(0.0, 0.0, 100.0, 100.0));
    }
}
