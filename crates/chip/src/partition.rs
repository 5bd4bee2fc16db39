//! Partitioning network layers — one network or a multi-tenant mix —
//! across the macro grid.
//!
//! Each layer's weight matrix is cut into **output tiles** (a contiguous
//! run of output rows no wider than the target macro's column count `W`),
//! and every tile costs `ceil(D / N) · activation_bits` MAC+conversion
//! cycles on its macro, where `D` is the layer's dot-product length, `N`
//! the macro's per-cycle dot-product length, and `activation_bits` the
//! tenant's bit-serial activation width (1 for the binary default).
//!
//! Tiles are placed with deterministic least-finish-time scheduling: the
//! next tile goes to the macro that currently finishes earliest (ties
//! broken by macro index), using per-macro cycle times so heterogeneous
//! grids balance by *time*, not cycle count.
//!
//! # Co-scheduled streams
//!
//! A [`WorkloadMix`] schedules in **rounds**: round `r` co-schedules layer
//! `r` of every tenant that still has one, because layer `r + 1` of each
//! tenant consumes layer `r`'s outputs while different tenants are
//! independent.  Within a round, tenants place their tiles in mix order
//! onto *shared* per-macro finish times, so a macro loaded by one tenant
//! repels the next tenant's tiles; round boundaries are barriers.  A
//! single network is the mix of one: each round then holds one layer on
//! fresh finish times.

use acim_workloads::WorkloadMix;

use crate::error::ChipError;
use crate::grid::MacroGrid;

/// One tile of one layer assigned to one macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileAssignment {
    /// Index of the layer in its network (equals the scheduling round).
    pub layer: usize,
    /// Tile ordinal within the layer.
    pub tile: usize,
    /// First output row covered by the tile.
    pub row_base: usize,
    /// Number of output rows in the tile (≤ the macro's width).
    pub rows: usize,
    /// Flat index of the macro executing the tile.
    pub macro_index: usize,
    /// MAC+conversion cycles the tile costs on that macro
    /// (`ceil(D / N) · activation_bits`).
    pub cycles: u64,
}

/// The placement of one layer: its tiles and the per-macro busy time
/// attributable to *this* layer (other round members excluded).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPartition {
    /// Index of the layer in its network.
    pub layer: usize,
    /// MVM shape `(outputs, dot_length)` of the layer.
    pub shape: (usize, usize),
    /// The layer's tiles in placement order.
    pub tiles: Vec<TileAssignment>,
    /// Busy time in ns per macro (zero for unused macros).
    pub busy_ns: Vec<f64>,
}

impl LayerPartition {
    /// The layer's compute latency: the slowest macro's busy time.
    pub fn compute_ns(&self) -> f64 {
        self.busy_ns.iter().copied().fold(0.0, f64::max)
    }

    /// Number of distinct macros used by the layer.
    pub fn macros_used(&self) -> usize {
        self.busy_ns.iter().filter(|&&ns| ns > 0.0).count()
    }
}

/// The placement of one tenant's network onto a grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Per-layer placements, in network order.
    pub layers: Vec<LayerPartition>,
}

impl Partition {
    /// Total tiles across all layers.
    pub fn total_tiles(&self) -> usize {
        self.layers.iter().map(|l| l.tiles.len()).sum()
    }
}

/// One scheduling round of a mix: the shared per-macro finish times all
/// member layers accumulated together.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPartition {
    /// Round index (== the layer index each member contributed).
    pub round: usize,
    /// Stream indices participating in the round, in mix order.
    pub members: Vec<usize>,
    /// Shared busy time in ns per macro across all members.
    pub busy_ns: Vec<f64>,
}

impl RoundPartition {
    /// The round's compute latency: the slowest macro's shared busy time.
    pub fn compute_ns(&self) -> f64 {
        self.busy_ns.iter().copied().fold(0.0, f64::max)
    }
}

/// The placement of a whole mix onto a grid: per-stream placements plus
/// the round-level shared schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct MixPartition {
    /// Per-stream placements, in mix order.  `streams[t].layers[r]` is
    /// tenant `t`'s layer in round `r`; its `busy_ns` holds only that
    /// tenant's share of the round.
    pub streams: Vec<Partition>,
    /// The rounds, in schedule order.
    pub rounds: Vec<RoundPartition>,
}

impl MixPartition {
    /// Total tiles across all streams.
    pub fn total_tiles(&self) -> usize {
        self.streams.iter().map(Partition::total_tiles).sum()
    }
}

/// Co-schedules the tenants of a [`WorkloadMix`] onto one grid, round by
/// round.
///
/// Round `r` places layer `r` of every tenant that has one, tenants in mix
/// order, tiles least-finish-time on the round's *shared* per-macro finish
/// times.  Each tenant's [`LayerPartition::busy_ns`] keeps only that
/// tenant's contribution, so per-tenant and round-level accounting both
/// fall out of one pass.
///
/// `cycle_time_ns[m]` is the conversion-cycle time of macro `m`; the
/// analytic evaluator and the behavioural simulator both derive it from
/// the same `TimingModel`, so they agree on the placement.
///
/// # Errors
///
/// Returns [`ChipError::Workload`] when the mix fails
/// [`WorkloadMix::validate`], and [`ChipError::InvalidConfig`] when a layer
/// has a degenerate shape or `cycle_time_ns` does not match the grid.
pub fn partition_mix(
    grid: &MacroGrid,
    mix: &WorkloadMix,
    cycle_time_ns: &[f64],
) -> Result<MixPartition, ChipError> {
    mix.validate()?;
    if cycle_time_ns.len() != grid.num_macros() {
        return Err(ChipError::invalid_config(
            "cycle_time_ns",
            format!(
                "{} cycle times for {} macros",
                cycle_time_ns.len(),
                grid.num_macros()
            ),
        ));
    }
    if let Some(&bad) = cycle_time_ns.iter().find(|&&t| !t.is_finite() || t <= 0.0) {
        return Err(ChipError::invalid_config(
            "cycle_time_ns",
            format!("cycle times must be positive and finite, got {bad}"),
        ));
    }

    let num_macros = grid.num_macros();
    let tenants = mix.tenants();
    let mut partitions: Vec<Partition> = tenants
        .iter()
        .map(|t| Partition {
            layers: Vec::with_capacity(t.network.len()),
        })
        .collect();
    let mut rounds = Vec::with_capacity(mix.rounds());

    for round in 0..mix.rounds() {
        let mut round_busy = vec![0.0f64; num_macros];
        let mut members = Vec::new();
        for (tenant_index, tenant) in tenants.iter().enumerate() {
            let network = &tenant.network;
            let Some(layer) = network.layers.get(round) else {
                continue;
            };
            members.push(tenant_index);
            let (outputs, dot_length) = layer.shape();
            if outputs == 0 || dot_length == 0 {
                return Err(ChipError::invalid_config(
                    "layer",
                    format!(
                        "layer `{}` of `{}` has a degenerate {outputs}x{dot_length} shape",
                        layer.name, network.name
                    ),
                ));
            }

            let mut busy_ns = vec![0.0f64; num_macros];
            let mut tiles = Vec::new();
            let mut row_base = 0usize;
            let mut tile = 0usize;
            while row_base < outputs {
                // Least-finish-time macro on the round's shared finish
                // times, ties broken by index for determinism.
                let macro_index = (0..num_macros)
                    .min_by(|&a, &b| {
                        round_busy[a]
                            .partial_cmp(&round_busy[b])
                            .expect("busy times are finite")
                    })
                    .expect("grid is non-empty");
                let spec = grid.spec(macro_index);
                let rows = (outputs - row_base).min(spec.width());
                let cycles = dot_length.div_ceil(spec.dot_product_length()) as u64
                    * u64::from(tenant.quant.activation_bits);
                let delta_ns = cycles as f64 * cycle_time_ns[macro_index];
                round_busy[macro_index] += delta_ns;
                busy_ns[macro_index] += delta_ns;
                tiles.push(TileAssignment {
                    layer: round,
                    tile,
                    row_base,
                    rows,
                    macro_index,
                    cycles,
                });
                row_base += rows;
                tile += 1;
            }

            partitions[tenant_index].layers.push(LayerPartition {
                layer: round,
                shape: (outputs, dot_length),
                tiles,
                busy_ns,
            });
        }
        rounds.push(RoundPartition {
            round,
            members,
            busy_ns: round_busy,
        });
    }
    Ok(MixPartition {
        streams: partitions,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acim_arch::AcimSpec;
    use acim_workloads::Network;

    fn spec(h: usize, w: usize, l: usize, b: u32) -> AcimSpec {
        AcimSpec::from_dimensions(h, w, l, b).unwrap()
    }

    fn uniform_grid(rows: usize, cols: usize) -> MacroGrid {
        MacroGrid::uniform(rows, cols, spec(64, 16, 4, 4)).unwrap()
    }

    /// Partitions one network as the mix of one: every round then holds
    /// just that tenant, with the round's busy times equal to its layer's.
    fn partition_one(grid: &MacroGrid, network: Network, cycle_time_ns: &[f64]) -> Partition {
        let mut mix = partition_mix(grid, &network.into(), cycle_time_ns).unwrap();
        assert_eq!(mix.streams.len(), 1);
        for (round, placement) in mix.rounds.iter().zip(&mix.streams[0].layers) {
            assert_eq!(round.members, vec![0]);
            assert_eq!(round.busy_ns, placement.busy_ns);
        }
        mix.streams.pop().unwrap()
    }

    #[test]
    fn tiles_cover_every_output_row_exactly_once() {
        let grid = uniform_grid(2, 2);
        let network = Network::edge_cnn(2);
        let partition = partition_one(&grid, network.clone(), &[5.0; 4]);
        assert_eq!(partition.layers.len(), network.len());
        for (layer, placement) in network.layers.iter().zip(&partition.layers) {
            let (outputs, _) = layer.shape();
            let covered: usize = placement.tiles.iter().map(|t| t.rows).sum();
            assert_eq!(covered, outputs, "layer {}", layer.name);
            let mut next_row = 0;
            for tile in &placement.tiles {
                assert_eq!(tile.row_base, next_row);
                assert!(tile.rows <= 16);
                assert!(tile.cycles > 0);
                next_row += tile.rows;
            }
        }
    }

    #[test]
    fn wide_layers_spread_across_macros() {
        let grid = uniform_grid(2, 2);
        // 64 outputs over width-16 macros → 4 tiles → all 4 macros busy.
        let network = Network::new("wide", vec![Network::edge_cnn(1).layers[1].clone()]);
        let partition = partition_one(&grid, network, &[5.0; 4]);
        assert_eq!(partition.layers[0].tiles.len(), 4);
        assert_eq!(partition.layers[0].macros_used(), 4);
    }

    #[test]
    fn heterogeneous_grids_balance_by_time() {
        // Macro 0 is 4x slower per cycle but has the same shape; the
        // scheduler should push most tiles to macro 1.
        let grid = MacroGrid::from_specs(1, 2, vec![spec(64, 16, 4, 4); 2]).unwrap();
        let network = Network::new("wide", vec![Network::edge_cnn(1).layers[1].clone()]);
        let partition = partition_one(&grid, network, &[20.0, 5.0]);
        let placement = &partition.layers[0];
        let tiles_on_fast = placement
            .tiles
            .iter()
            .filter(|t| t.macro_index == 1)
            .count();
        assert!(
            tiles_on_fast >= 3,
            "fast macro got only {tiles_on_fast} of 4 tiles"
        );
        // 288-long dot product in chunks of 16 → 18 cycles per tile; the
        // slow macro takes one tile (18 × 20 ns), the fast one three
        // (54 × 5 ns), so the layer finishes in 360 ns instead of the
        // 1440 ns serial-on-slow worst case.
        assert!(placement.compute_ns() <= 360.0 + 1e-9);
    }

    #[test]
    fn single_macro_grid_degenerates_to_macro_mapper_tiling() {
        let grid = uniform_grid(1, 1);
        let network = Network::new("one", vec![Network::edge_cnn(1).layers[0].clone()]);
        let partition = partition_one(&grid, network, &[5.0]);
        let placement = &partition.layers[0];
        // 16 outputs on a width-16 macro: one tile; 200-long dot product in
        // chunks of 16 → 13 cycles, the div_ceil tiling the behavioural
        // tile loop in `simulate` runs.
        assert_eq!(placement.tiles.len(), 1);
        assert_eq!(placement.tiles[0].cycles, 13);
        assert_eq!(placement.macros_used(), 1);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let grid = uniform_grid(1, 1);
        let network = Network::edge_cnn(1);
        let mix = WorkloadMix::from(network.clone());
        assert!(partition_mix(&grid, &mix, &[5.0, 5.0]).is_err());
        assert!(partition_mix(&grid, &mix, &[0.0]).is_err());
        assert!(partition_mix(&grid, &mix, &[f64::NAN]).is_err());
        for bad_mix in [
            WorkloadMix::new("empty"),
            WorkloadMix::from(Network::new("empty", vec![])),
            WorkloadMix::new("q0").with_quantized_tenant(network, 1.0, 0),
        ] {
            assert!(partition_mix(&grid, &bad_mix, &[5.0]).is_err());
        }
    }

    #[test]
    fn rounds_share_finish_times_across_tenants() {
        let grid = uniform_grid(1, 2);
        // Two single-layer tenants, each with one tile: the second
        // tenant's tile must avoid the macro the first tenant loaded.
        let layer = Network::edge_cnn(1).layers[0].clone();
        let mut second = Network::new("tenant_b", vec![layer.clone()]);
        second.layers[0].name = "b0".into();
        let mix = WorkloadMix::new("pair")
            .with_tenant(Network::new("tenant_a", vec![layer]), 1.0)
            .with_tenant(second, 1.0);
        let partition = partition_mix(&grid, &mix, &[5.0, 5.0]).unwrap();
        let a_tile = partition.streams[0].layers[0].tiles[0];
        let b_tile = partition.streams[1].layers[0].tiles[0];
        assert_eq!(a_tile.macro_index, 0);
        assert_eq!(b_tile.macro_index, 1, "tenant B must dodge tenant A");
        // The round's shared busy is the sum of both tenants' shares.
        let round = &partition.rounds[0];
        for m in 0..2 {
            assert_eq!(
                round.busy_ns[m],
                partition.streams[0].layers[0].busy_ns[m]
                    + partition.streams[1].layers[0].busy_ns[m]
            );
        }
    }

    #[test]
    fn quantized_tenant_scales_cycles_linearly() {
        let grid = uniform_grid(1, 1);
        let network = Network::new("one", vec![Network::edge_cnn(1).layers[0].clone()]);
        let binary = partition_mix(&grid, &WorkloadMix::single(network.clone()), &[5.0]).unwrap();
        let quant = partition_mix(
            &grid,
            &WorkloadMix::new("q4").with_quantized_tenant(network, 1.0, 4),
            &[5.0],
        )
        .unwrap();
        let base = binary.streams[0].layers[0].tiles[0].cycles;
        assert_eq!(quant.streams[0].layers[0].tiles[0].cycles, base * 4);
    }

    #[test]
    fn uneven_depths_drop_finished_tenants_from_later_rounds() {
        let grid = uniform_grid(2, 2);
        let mix = WorkloadMix::new("uneven")
            .with_tenant(Network::edge_cnn(2), 1.0) // 4 layers
            .with_tenant(Network::snn_pipeline(), 1.0); // 2 layers
        let partition = partition_mix(&grid, &mix, &[5.0; 4]).unwrap();
        assert_eq!(partition.rounds.len(), 4);
        assert_eq!(partition.rounds[0].members, vec![0, 1]);
        assert_eq!(partition.rounds[1].members, vec![0, 1]);
        assert_eq!(partition.rounds[2].members, vec![0]);
        assert_eq!(partition.rounds[3].members, vec![0]);
        assert_eq!(partition.streams[0].layers.len(), 4);
        assert_eq!(partition.streams[1].layers.len(), 2);
    }
}
