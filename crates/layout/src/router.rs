//! Grid-based maze router.
//!
//! A Dijkstra search over the 3-D routing grid (Figure 3 of the paper).
//! Moves along a layer's preferred direction cost 1, non-preferred moves
//! cost more, and layer changes (vias) cost more still, which steers routes
//! onto alternating horizontal/vertical layers the way real detailed
//! routers do.  Multi-terminal nets are routed by sequentially connecting
//! each terminal to the tree built so far.  A net that cannot be routed is
//! reported to the caller, which names it: the search is deterministic, so
//! retrying it on the same grid would fail the same way.
//!
//! Because every step costs 1, 4 or 8, the search keeps its frontier in a
//! bucket queue (Dial, "Algorithm 360", CACM 12(11), 1969) instead of a
//! binary heap.

use acim_cell::{Point, Rect};

use crate::db::{NameId, Via, Wire};
use crate::error::LayoutError;
use crate::grid::{GridCell, GridNode, RoutingGrid};

/// A net to route and its terminals.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteRequest {
    /// The net, in the table of the block the route goes into: it names the
    /// produced wires and vias and owns the grid nodes the route claims.
    pub net: NameId,
    /// Terminals: (routing-layer index, physical location).
    pub terminals: Vec<(usize, Point)>,
}

/// Cost of a move against the layer's preferred direction.
const NON_PREFERRED_COST: u32 = 4;
/// Cost of a layer change.
const VIA_COST: u32 = 8;
/// Buckets in the search queue: one more than the largest step cost, so
/// the pending costs, which span at most `VIA_COST + 1` consecutive values,
/// each have a bucket of their own.
const BUCKETS: usize = VIA_COST as usize + 1;

/// Bits of a node's entry in [`MazeRouter::moves`]: its neighbour one
/// column right and left, one row up and down, one layer up and down, and
/// whether its layer prefers horizontal moves.
const EAST: u8 = 1;
const WEST: u8 = 1 << 1;
const NORTH: u8 = 1 << 2;
const SOUTH: u8 = 1 << 3;
const ABOVE: u8 = 1 << 4;
const BELOW: u8 = 1 << 5;
const HORIZONTAL: u8 = 1 << 6;

/// The distances, predecessors and buckets of [`MazeRouter::search`],
/// kept from one search to the next so that a search resets them instead
/// of allocating them.
#[derive(Debug, Clone, Default)]
struct SearchBuffers {
    dist: Vec<u32>,
    previous: Vec<u32>,
    buckets: [Vec<u32>; BUCKETS],
}

/// The maze router, owning a routing grid plus layer metadata.
#[derive(Debug, Clone)]
pub struct MazeRouter {
    grid: RoutingGrid,
    /// Physical layer names, indexed by routing-layer index.
    layer_names: Vec<&'static str>,
    /// `true` when the layer's preferred direction is horizontal.  The
    /// search reads it from [`Self::moves`]; the tests' binary-heap oracle
    /// reads it here.
    #[cfg(test)]
    horizontal: Vec<bool>,
    /// Drawn wire width per routing layer, in nanometres.
    wire_widths: Vec<f64>,
    /// Per node, in grid index order: which neighbours exist and whether
    /// its layer is horizontal, so the search reads one byte instead of
    /// dividing the index into layer, row and column.
    moves: Vec<u8>,
    buffers: SearchBuffers,
}

impl MazeRouter {
    /// Creates a router over `grid`.
    ///
    /// `layer_names[i]` is the technology layer name of routing layer `i`;
    /// `horizontal[i]` is its preferred direction; `wire_widths[i]` is the
    /// drawn width of wires produced on that layer, in nanometres.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidParameter`] when the metadata lengths
    /// do not match the grid's layer count or a width is not positive.
    pub fn new(
        grid: RoutingGrid,
        layer_names: Vec<&'static str>,
        horizontal: Vec<bool>,
        wire_widths: Vec<f64>,
    ) -> Result<Self, LayoutError> {
        if layer_names.len() != grid.layers()
            || horizontal.len() != grid.layers()
            || wire_widths.len() != grid.layers()
        {
            return Err(LayoutError::InvalidParameter {
                name: "layer metadata".into(),
                reason: format!(
                    "expected {} entries, got {} names / {} directions / {} widths",
                    grid.layers(),
                    layer_names.len(),
                    horizontal.len(),
                    wire_widths.len()
                ),
            });
        }
        if wire_widths.iter().any(|w| *w <= 0.0) {
            return Err(LayoutError::InvalidParameter {
                name: "wire width".into(),
                reason: "every layer width must be positive".into(),
            });
        }
        let (cols, rows, layers) = (grid.cols(), grid.rows(), grid.layers());
        let bit = |set: bool, bit: u8| if set { bit } else { 0 };
        let mut moves = Vec::with_capacity(cols * rows * layers);
        for (layer, &layer_horizontal) in horizontal.iter().enumerate() {
            for row in 0..rows {
                for col in 0..cols {
                    moves.push(
                        bit(col + 1 < cols, EAST)
                            | bit(col > 0, WEST)
                            | bit(row + 1 < rows, NORTH)
                            | bit(row > 0, SOUTH)
                            | bit(layer + 1 < layers, ABOVE)
                            | bit(layer > 0, BELOW)
                            | bit(layer_horizontal, HORIZONTAL),
                    );
                }
            }
        }
        Ok(Self {
            grid,
            layer_names,
            #[cfg(test)]
            horizontal,
            wire_widths,
            moves,
            buffers: SearchBuffers::default(),
        })
    }

    /// Mutable access to the grid (for blocking obstacles before routing).
    pub fn grid_mut(&mut self) -> &mut RoutingGrid {
        &mut self.grid
    }

    /// Reserves the terminal nodes of every request for its own net, so that
    /// no other net can later route straight over a pin it does not own.
    /// Call this once with all requests before routing them.
    pub fn reserve_terminals(&mut self, requests: &[RouteRequest]) {
        for request in requests {
            for terminal in &request.terminals {
                let node = self.terminal_node(terminal);
                if self.grid.cell(node) == GridCell::Free {
                    self.grid.set_cell(node, GridCell::Net(request.net.0));
                }
            }
        }
    }

    /// Routes one net, producing wires and vias, or `None` when some
    /// terminal cannot be reached from the net's tree.  The nodes of the
    /// paths found before such a failure stay claimed by the net.
    pub fn route(&mut self, request: &RouteRequest) -> Option<(Vec<Wire>, Vec<Via>)> {
        let mut buffers = std::mem::take(&mut self.buffers);
        let routed = self.route_with(request, |router, tree, target, owner| {
            router.search(tree, target, owner, &mut buffers)
        });
        self.buffers = buffers;
        routed
    }

    /// [`Self::route`] with the path search `search`, which finds a path
    /// from the net's tree to one target node.
    fn route_with(
        &mut self,
        request: &RouteRequest,
        mut search: impl FnMut(&Self, &[GridNode], GridNode, u32) -> Option<Vec<GridNode>>,
    ) -> Option<(Vec<Wire>, Vec<Via>)> {
        if request.terminals.len() < 2 {
            // A single-terminal net needs no wiring.
            return Some((Vec::new(), Vec::new()));
        }
        let owner = request.net.0;
        let mut tree: Vec<GridNode> = Vec::new();
        // Each terminal produces its own contiguous path from the existing
        // tree; geometry is emitted per path so no phantom segment is drawn
        // between unrelated path endpoints.
        let mut paths: Vec<Vec<GridNode>> = Vec::new();

        // Seed the tree with the first terminal.
        let mut terminals = request.terminals.iter();
        let first = terminals.next().expect("at least two terminals");
        let seed = self.terminal_node(first);
        self.grid.set_cell(seed, GridCell::Net(owner));
        tree.push(seed);

        for terminal in terminals {
            let target = self.terminal_node(terminal);
            let path = search(self, &tree, target, owner)?;
            for &node in &path {
                self.grid.set_cell(node, GridCell::Net(owner));
                tree.push(node);
            }
            paths.push(path);
        }

        let mut wires = Vec::new();
        let mut vias = Vec::new();
        for path in &paths {
            let (w, v) = self.emit_geometry(request.net, path);
            wires.extend(w);
            vias.extend(v);
        }
        Some((wires, vias))
    }

    fn terminal_node(&self, terminal: &(usize, Point)) -> GridNode {
        let (layer, point) = terminal;
        let (col, row) = self.grid.snap(*point);
        GridNode {
            layer: (*layer).min(self.grid.layers() - 1),
            col,
            row,
        }
    }

    /// Dijkstra from the existing tree to `target`.
    ///
    /// The frontier is a bucket queue: every step costs 1, 4 or 8, so the
    /// costs pending at any time span at most [`BUCKETS`] consecutive
    /// values, and bucket `cost % BUCKETS` holds exactly the nodes pending
    /// at `cost`.  No push lands in the bucket being drained, which is
    /// drained in push order.  A binary heap of (cost, index) pairs would
    /// settle each cost's nodes in index order, so of several equal-cost
    /// relaxations of a node the first, which it keeps as the node's
    /// predecessor, comes from the lowest index.  Here a relaxation that
    /// ties a node's cost replaces the node's predecessor when that one
    /// settled at the same cost and has a larger index.  Every node at or
    /// below the target's cost then has the heap's predecessor, so the
    /// search returns the heap's paths.
    fn search(
        &self,
        tree: &[GridNode],
        target: GridNode,
        owner: u32,
        buffers: &mut SearchBuffers,
    ) -> Option<Vec<GridNode>> {
        let cols = self.grid.cols();
        let rows = self.grid.rows();
        let layers = self.grid.layers();
        let plane = rows * cols;
        let size = plane * layers;
        let index = |n: GridNode| -> usize { (n.layer * rows + n.row) * cols + n.col };

        let SearchBuffers {
            dist,
            previous,
            buckets,
        } = buffers;
        for buffer in [&mut *dist, &mut *previous] {
            buffer.clear();
            buffer.resize(size, u32::MAX);
        }
        buckets.iter_mut().for_each(Vec::clear);
        for &node in tree {
            let i = index(node);
            dist[i] = 0;
            buckets[0].push(i as u32);
        }
        let mut pending = tree.len();
        let target_index = index(target);
        if !self.grid.usable_by(target, owner) {
            return None;
        }

        let mut cost = 0u32;
        'search: while pending > 0 {
            let slot = cost as usize % BUCKETS;
            let mut bucket = std::mem::take(&mut buckets[slot]);
            pending -= bucket.len();
            for &current in &bucket {
                let current = current as usize;
                if cost > dist[current] {
                    continue;
                }
                if current == target_index {
                    break 'search;
                }
                let moves = self.moves[current];
                let (step_x, step_y) = if moves & HORIZONTAL != 0 {
                    (1, NON_PREFERRED_COST)
                } else {
                    (NON_PREFERRED_COST, 1)
                };
                // A neighbour's index wraps only where its bit is clear.
                for (bit, next, step) in [
                    (EAST, current + 1, step_x),
                    (WEST, current.wrapping_sub(1), step_x),
                    (NORTH, current + cols, step_y),
                    (SOUTH, current.wrapping_sub(cols), step_y),
                    (ABOVE, current + plane, VIA_COST),
                    (BELOW, current.wrapping_sub(plane), VIA_COST),
                ] {
                    if moves & bit == 0 || !self.grid.usable_at(next, owner) {
                        continue;
                    }
                    let next_cost = cost.saturating_add(step);
                    if next_cost < dist[next] {
                        dist[next] = next_cost;
                        previous[next] = current as u32;
                        buckets[next_cost as usize % BUCKETS].push(next as u32);
                        pending += 1;
                    } else if next_cost == dist[next] {
                        let tied = previous[next] as usize;
                        if tied > current && dist.get(tied) == Some(&cost) {
                            previous[next] = current as u32;
                        }
                    }
                }
            }
            bucket.clear();
            buckets[slot] = bucket;
            cost += 1;
        }

        if dist[target_index] == u32::MAX {
            return None;
        }
        // Trace back from the target to the tree, including the tree node the
        // path attaches to so the emitted geometry is contiguous.
        let mut path = Vec::new();
        let mut current = target_index;
        loop {
            path.push(GridNode {
                layer: current / plane,
                col: current % cols,
                row: current % plane / cols,
            });
            if previous[current] == u32::MAX {
                break;
            }
            current = previous[current] as usize;
        }
        path.reverse();
        Some(path)
    }

    /// Converts a set of path nodes into wires and vias: one wire per grid
    /// step and one via per layer change.  Collinear steps are not merged,
    /// so a straight run of `k` steps is `k` abutting wires.
    fn emit_geometry(&self, net: NameId, nodes: &[GridNode]) -> (Vec<Wire>, Vec<Via>) {
        let mut wires = Vec::new();
        let mut vias = Vec::new();
        // Each pair of consecutive nodes on the same layer becomes one wire
        // segment; each pair on different layers becomes a via.  Callers that
        // need all wires strictly inside a block should inset the routing
        // region by at least half a wire width when building the grid.
        for pair in nodes.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let pa = self.grid.position(a);
            let pb = self.grid.position(b);
            if a.layer == b.layer {
                let half = self.wire_widths[a.layer] / 2.0;
                let rect = Rect::new(
                    pa.x.min(pb.x) - half,
                    pa.y.min(pb.y) - half,
                    pa.x.max(pb.x) + half,
                    pa.y.max(pb.y) + half,
                );
                wires.push(Wire {
                    net,
                    layer: self.layer_names[a.layer],
                    rect,
                });
            } else if a.col == b.col && a.row == b.row {
                let (low, high) = if a.layer < b.layer { (a, b) } else { (b, a) };
                vias.push(Via {
                    net,
                    from_layer: self.layer_names[low.layer],
                    to_layer: self.layer_names[high.layer],
                    at: pa,
                });
            }
        }
        (wires, vias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The oracle [`MazeRouter::search`] must match: Dijkstra over a
    /// binary heap of (cost, index) pairs.
    fn reference_search(
        router: &MazeRouter,
        tree: &[GridNode],
        target: GridNode,
        owner: u32,
    ) -> Option<Vec<GridNode>> {
        let cols = router.grid.cols();
        let rows = router.grid.rows();
        let layers = router.grid.layers();
        let size = cols * rows * layers;
        let index = |n: GridNode| -> usize { (n.layer * rows + n.row) * cols + n.col };

        let mut dist = vec![u32::MAX; size];
        let mut previous = vec![u32::MAX; size];
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();

        for &node in tree {
            let i = index(node);
            dist[i] = 0;
            heap.push(Reverse((0, i as u32)));
        }
        let target_index = index(target);
        if !router.grid.usable_by(target, owner) {
            return None;
        }

        while let Some(Reverse((cost, current))) = heap.pop() {
            let current = current as usize;
            if cost > dist[current] {
                continue;
            }
            if current == target_index {
                break;
            }
            let layer = current / (rows * cols);
            let rem = current % (rows * cols);
            let row = rem / cols;
            let col = rem % cols;

            let mut neighbours: Vec<(GridNode, u32)> = Vec::with_capacity(6);
            let horizontal = router.horizontal[layer];
            let (step_x, step_y) = if horizontal {
                (1, NON_PREFERRED_COST)
            } else {
                (NON_PREFERRED_COST, 1)
            };
            let node = |layer, col, row| GridNode { layer, col, row };
            if col + 1 < cols {
                neighbours.push((node(layer, col + 1, row), step_x));
            }
            if col > 0 {
                neighbours.push((node(layer, col - 1, row), step_x));
            }
            if row + 1 < rows {
                neighbours.push((node(layer, col, row + 1), step_y));
            }
            if row > 0 {
                neighbours.push((node(layer, col, row - 1), step_y));
            }
            if layer + 1 < layers {
                neighbours.push((node(layer + 1, col, row), VIA_COST));
            }
            if layer > 0 {
                neighbours.push((node(layer - 1, col, row), VIA_COST));
            }

            for (next, step) in neighbours {
                if !router.grid.usable_by(next, owner) {
                    continue;
                }
                let next_index = index(next);
                let next_cost = cost.saturating_add(step);
                if next_cost < dist[next_index] {
                    dist[next_index] = next_cost;
                    previous[next_index] = current as u32;
                    heap.push(Reverse((next_cost, next_index as u32)));
                }
            }
        }

        if dist[target_index] == u32::MAX {
            return None;
        }
        let mut path = Vec::new();
        let mut current = target_index;
        loop {
            let layer = current / (rows * cols);
            let rem = current % (rows * cols);
            path.push(GridNode {
                layer,
                col: rem % cols,
                row: rem / cols,
            });
            if previous[current] == u32::MAX {
                break;
            }
            current = previous[current] as usize;
        }
        path.reverse();
        Some(path)
    }

    /// Every node's occupancy, in index order.
    fn occupancy(router: &MazeRouter) -> Vec<GridCell> {
        let grid = &router.grid;
        let mut cells = Vec::new();
        for layer in 0..grid.layers() {
            for row in 0..grid.rows() {
                for col in 0..grid.cols() {
                    cells.push(grid.cell(GridNode { layer, col, row }));
                }
            }
        }
        cells
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bucket_queue_routes_exactly_as_the_binary_heap(
            (steps_x, steps_y, layers) in (1u32..=24, 1u32..=24, 1usize..=3),
            obstacles in prop::collection::vec(
                (0usize..3, 0.0..1.0f64, 0.0..1.0f64, 0.0..0.3f64, 0.0..0.3f64),
                0..16,
            ),
            nets in prop::collection::vec(
                prop::collection::vec((0usize..3, 0.0..1.0f64, 0.0..1.0f64), 2..7),
                1..7,
            ),
        ) {
            let (width, height) = (f64::from(steps_x) * 100.0, f64::from(steps_y) * 100.0);
            let grid = RoutingGrid::new(Rect::new(0.0, 0.0, width, height), 100.0, layers).unwrap();
            let mut bucket = MazeRouter::new(
                grid,
                ["M2", "M3", "M4"][..layers].to_vec(),
                [false, true, false][..layers].to_vec(),
                vec![50.0; layers],
            )
            .unwrap();
            // Obstacles on every layer: `layer % layers` folds the sampled
            // layer into the grid.
            for &(layer, x, y, w, h) in &obstacles {
                let (x, y) = (x * width, y * height);
                bucket.grid_mut().block_rect(
                    layer % layers,
                    &Rect::new(x, y, x + w * width, y + h * height),
                );
            }
            let mut heap = bucket.clone();
            let requests: Vec<RouteRequest> = nets
                .iter()
                .enumerate()
                .map(|(i, terminals)| RouteRequest {
                    net: NameId(i as u32),
                    terminals: terminals
                        .iter()
                        .map(|&(layer, x, y)| (layer, Point::new(x * width, y * height)))
                        .collect(),
                })
                .collect();
            bucket.reserve_terminals(&requests);
            heap.reserve_terminals(&requests);
            // Route every net in sequence, on past unroutable ones.
            for request in &requests {
                let fast = bucket.route(request);
                let reference = heap.route_with(request, reference_search);
                prop_assert_eq!(fast, reference, "net {:?}", request.net);
            }
            prop_assert_eq!(occupancy(&bucket), occupancy(&heap));
        }
    }

    fn router(width: f64, height: f64) -> MazeRouter {
        let grid = RoutingGrid::new(Rect::new(0.0, 0.0, width, height), 100.0, 3).unwrap();
        MazeRouter::new(
            grid,
            vec!["M2", "M3", "M4"],
            vec![false, true, false],
            vec![50.0, 50.0, 50.0],
        )
        .unwrap()
    }

    fn request(net: u32, terminals: &[(usize, (f64, f64))]) -> RouteRequest {
        RouteRequest {
            net: NameId(net),
            terminals: terminals
                .iter()
                .map(|&(l, (x, y))| (l, Point::new(x, y)))
                .collect(),
        }
    }

    #[test]
    fn routes_a_simple_two_terminal_net() {
        let mut r = router(2000.0, 2000.0);
        let (wires, vias) = r
            .route(&request(1, &[(0, (0.0, 0.0)), (0, (0.0, 1000.0))]))
            .unwrap();
        assert!(!wires.is_empty());
        // Same column, vertical-preferred layer 0: no vias needed.
        assert!(vias.is_empty());
        // Total routed length covers the 1000 nm span.
        let length: f64 = wires
            .iter()
            .map(|w| w.rect.height().max(w.rect.width()))
            .sum();
        assert!(length >= 1000.0);
    }

    #[test]
    fn l_shaped_route_prefers_layer_directions() {
        let mut r = router(2000.0, 2000.0);
        let (wires, vias) = r
            .route(&request(2, &[(0, (0.0, 0.0)), (0, (1000.0, 1000.0))]))
            .unwrap();
        assert!(!wires.is_empty());
        // The horizontal leg should end up on the horizontal-preferred M3,
        // which requires at least one via.
        assert!(!vias.is_empty());
        assert!(wires.iter().any(|w| w.layer == "M3"));
    }

    #[test]
    fn multi_terminal_net_builds_a_tree() {
        let mut r = router(2000.0, 2000.0);
        let (wires, _vias) = r
            .route(&request(
                3,
                &[(0, (0.0, 0.0)), (0, (0.0, 1500.0)), (0, (1500.0, 0.0))],
            ))
            .unwrap();
        let length: f64 = wires
            .iter()
            .map(|w| w.rect.height().max(w.rect.width()))
            .sum();
        // A Steiner-ish tree should be much shorter than routing both sinks
        // independently from scratch twice over.
        assert!(length >= 3000.0);
        assert!(length < 6000.0);
    }

    #[test]
    fn obstacles_force_detours() {
        let mut r = router(2000.0, 2000.0);
        // Wall across the middle of every layer except a gap at x=1900.
        for layer in 0..3 {
            r.grid_mut()
                .block_rect(layer, &Rect::new(0.0, 900.0, 1700.0, 1100.0));
        }
        let (wires, _) = r
            .route(&request(4, &[(0, (0.0, 0.0)), (0, (0.0, 2000.0))]))
            .unwrap();
        let length: f64 = wires
            .iter()
            .map(|w| w.rect.height().max(w.rect.width()))
            .sum();
        // Must detour around the wall: noticeably longer than the direct 2000.
        assert!(length > 3000.0, "detour length {length}");
    }

    #[test]
    fn fully_blocked_net_is_unroutable() {
        let mut r = router(1000.0, 1000.0);
        for layer in 0..3 {
            r.grid_mut()
                .block_rect(layer, &Rect::new(0.0, 400.0, 1000.0, 600.0));
        }
        assert!(r
            .route(&request(5, &[(0, (0.0, 0.0)), (0, (0.0, 1000.0))]))
            .is_none());
    }

    #[test]
    fn nets_do_not_short_each_other() {
        let mut r = router(2000.0, 2000.0);
        let (wires_a, _) = r
            .route(&request(1, &[(0, (500.0, 0.0)), (0, (500.0, 2000.0))]))
            .unwrap();
        let (wires_b, _) = r
            .route(&request(2, &[(1, (0.0, 500.0)), (1, (2000.0, 500.0))]))
            .unwrap();
        // The second net crosses the first; it must not reuse layer-0 nodes
        // owned by net A at the crossing.
        for wa in &wires_a {
            for wb in &wires_b {
                if wa.layer == wb.layer {
                    assert!(
                        !wa.rect.overlaps(&wb.rect),
                        "nets A and B short on {}",
                        wa.layer
                    );
                }
            }
        }
    }

    #[test]
    fn single_terminal_nets_need_no_wires() {
        let mut r = router(1000.0, 1000.0);
        let (wires, vias) = r.route(&request(9, &[(0, (100.0, 100.0))])).unwrap();
        assert!(wires.is_empty());
        assert!(vias.is_empty());
    }

    #[test]
    fn bad_metadata_is_rejected() {
        let grid = RoutingGrid::new(Rect::new(0.0, 0.0, 1000.0, 1000.0), 100.0, 2).unwrap();
        assert!(MazeRouter::new(
            grid.clone(),
            vec!["M2"],
            vec![false, true],
            vec![50.0, 50.0]
        )
        .is_err());
        assert!(
            MazeRouter::new(grid, vec!["M2", "M3"], vec![false, true], vec![50.0, 0.0]).is_err()
        );
    }
}
