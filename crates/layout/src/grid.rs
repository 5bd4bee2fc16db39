//! The 3-D routing grid (Figure 3 of the paper: "3D-Grid-Based Routing").
//!
//! The routing region is discretised into a uniform grid of `pitch`-sized
//! cells on every routing layer.  Each grid cell is either free, blocked by
//! an obstacle (cell geometry, pre-defined track of another net) or owned by
//! a net.  The maze router searches this grid; moves within a layer follow
//! that layer's preferred direction at unit cost (non-preferred moves cost
//! more), and layer changes (vias) cost extra.

use acim_cell::{Point, Rect};

use crate::error::LayoutError;

/// Occupancy state of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridCell {
    /// Free for routing.
    Free,
    /// Permanently blocked (cell geometry or keep-out).
    Obstacle,
    /// Occupied by the net with this identifier.
    Net(u32),
}

/// A discrete grid node: (layer, column, row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridNode {
    /// Routing-layer index (0-based; 0 is the lowest routing layer in use).
    pub layer: usize,
    /// Column index (x).
    pub col: usize,
    /// Row index (y).
    pub row: usize,
}

/// The 3-D occupancy grid.
#[derive(Debug, Clone)]
pub struct RoutingGrid {
    origin: Point,
    pitch: f64,
    cols: usize,
    rows: usize,
    layers: usize,
    cells: Vec<GridCell>,
}

impl RoutingGrid {
    /// Creates a grid covering `region` with the given pitch and number of
    /// routing layers.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidParameter`] when the pitch is not
    /// positive, the region is degenerate, the layer count is zero, or the
    /// grid would be unreasonably large (> 50 million nodes).
    pub fn new(region: Rect, pitch: f64, layers: usize) -> Result<Self, LayoutError> {
        if pitch <= 0.0 {
            return Err(LayoutError::InvalidParameter {
                name: "pitch".into(),
                reason: "must be positive".into(),
            });
        }
        if layers == 0 {
            return Err(LayoutError::InvalidParameter {
                name: "layers".into(),
                reason: "at least one routing layer is required".into(),
            });
        }
        if region.width() <= 0.0 || region.height() <= 0.0 {
            return Err(LayoutError::InvalidParameter {
                name: "region".into(),
                reason: "must have positive width and height".into(),
            });
        }
        // The last node must not fall outside the region, so the node count
        // is floor(extent / pitch) + 1.
        let cols = (region.width() / pitch).floor() as usize + 1;
        let rows = (region.height() / pitch).floor() as usize + 1;
        let total = cols
            .checked_mul(rows)
            .and_then(|v| v.checked_mul(layers))
            .unwrap_or(usize::MAX);
        if total > 50_000_000 {
            return Err(LayoutError::InvalidParameter {
                name: "grid size".into(),
                reason: format!("{cols}x{rows}x{layers} nodes exceed the 50M limit"),
            });
        }
        Ok(Self {
            origin: region.min,
            pitch,
            cols,
            rows,
            layers,
            cells: vec![GridCell::Free; total],
        })
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of routing layers.
    pub fn layers(&self) -> usize {
        self.layers
    }

    fn index(&self, node: GridNode) -> usize {
        (node.layer * self.rows + node.row) * self.cols + node.col
    }

    /// Occupancy of a node.
    pub fn cell(&self, node: GridNode) -> GridCell {
        self.cells[self.index(node)]
    }

    /// Sets the occupancy of a node.
    pub fn set_cell(&mut self, node: GridNode, value: GridCell) {
        let index = self.index(node);
        self.cells[index] = value;
    }

    /// Snaps a physical point to the nearest grid (col, row).
    pub fn snap(&self, point: Point) -> (usize, usize) {
        let col = ((point.x - self.origin.x) / self.pitch).round().max(0.0) as usize;
        let row = ((point.y - self.origin.y) / self.pitch).round().max(0.0) as usize;
        (col.min(self.cols - 1), row.min(self.rows - 1))
    }

    /// Physical centre of a grid node.
    pub fn position(&self, node: GridNode) -> Point {
        Point::new(
            self.origin.x + node.col as f64 * self.pitch,
            self.origin.y + node.row as f64 * self.pitch,
        )
    }

    /// Marks every node covered by `rect` on `layer` as an obstacle.
    pub fn block_rect(&mut self, layer: usize, rect: &Rect) {
        if layer >= self.layers {
            return;
        }
        let (c0, r0) = self.snap(rect.min);
        let (c1, r1) = self.snap(rect.max);
        for row in r0..=r1 {
            for col in c0..=c1 {
                self.set_cell(GridNode { layer, col, row }, GridCell::Obstacle);
            }
        }
    }

    /// Returns `true` when the node can be used by `net` (free or already
    /// owned by the same net).
    pub fn usable_by(&self, node: GridNode, net: u32) -> bool {
        self.usable_at(self.index(node), net)
    }

    /// [`Self::usable_by`] for the node at flat `index`: nodes are numbered
    /// layer by layer, each layer row by row, each row column by column.
    pub(crate) fn usable_at(&self, index: usize, net: u32) -> bool {
        match self.cells[index] {
            GridCell::Free => true,
            GridCell::Net(owner) => owner == net,
            GridCell::Obstacle => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> RoutingGrid {
        RoutingGrid::new(Rect::new(0.0, 0.0, 1000.0, 500.0), 100.0, 3).unwrap()
    }

    #[test]
    fn dimensions_follow_region_and_pitch() {
        let g = grid();
        assert_eq!(g.cols(), 11);
        assert_eq!(g.rows(), 6);
        assert_eq!(g.layers(), 3);
        assert_eq!(g.pitch, 100.0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(RoutingGrid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 0.0, 2).is_err());
        assert!(RoutingGrid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0, 0).is_err());
        assert!(RoutingGrid::new(Rect::new(0.0, 0.0, 0.0, 100.0), 10.0, 2).is_err());
        // A grid that would need billions of nodes is rejected.
        assert!(RoutingGrid::new(Rect::new(0.0, 0.0, 1e9, 1e9), 1.0, 6).is_err());
    }

    #[test]
    fn snap_and_position_roundtrip() {
        let g = grid();
        let (col, row) = g.snap(Point::new(512.0, 249.0));
        assert_eq!((col, row), (5, 2));
        let p = g.position(GridNode { layer: 0, col, row });
        assert_eq!(p, Point::new(500.0, 200.0));
        // Points outside the region clamp to the boundary nodes.
        assert_eq!(g.snap(Point::new(5000.0, 5000.0)), (10, 5));
    }

    #[test]
    fn blocking_and_claiming() {
        let mut g = grid();
        g.block_rect(0, &Rect::new(0.0, 0.0, 300.0, 100.0));
        assert_eq!(
            g.cell(GridNode {
                layer: 0,
                col: 1,
                row: 0
            }),
            GridCell::Obstacle
        );
        assert_eq!(
            g.cell(GridNode {
                layer: 1,
                col: 1,
                row: 0
            }),
            GridCell::Free
        );

        let node = GridNode {
            layer: 1,
            col: 5,
            row: 2,
        };
        g.set_cell(node, GridCell::Net(7));
        assert_eq!(g.cell(node), GridCell::Net(7));
        assert!(g.usable_by(node, 7));
        assert!(!g.usable_by(node, 8));
        assert!(!g.usable_by(
            GridNode {
                layer: 0,
                col: 1,
                row: 0
            },
            7
        ));
    }

    #[test]
    fn out_of_range_layers_are_ignored_by_blocking() {
        let mut g = grid();
        g.block_rect(9, &Rect::new(0.0, 0.0, 100.0, 100.0));
        assert!(g.cells.iter().all(|c| *c == GridCell::Free));
    }
}
