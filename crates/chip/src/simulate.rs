//! Behavioural multi-macro simulation: the validation path behind the
//! analytic chip evaluator.
//!
//! Lowers every layer of every tenant to a concrete [`BinaryMvm`], places
//! its tiles with the same partitioner and the same [`ModelParams`] the
//! analytic model uses (cycle times from `params.timing`, energy from
//! `params.energy`), then drives one behavioural [`AcimMacro`] per tile
//! through program → MAC → convert cycles, accumulating de-quantised
//! partial sums digitally.  A single macro is the 1×1 grid.  The result
//! carries the *measured* end-to-end error of every network on the grid —
//! the ground truth the analytic accuracy proxy approximates.

use acim_arch::{AcimMacro, ArchError, NoiseConfig};
use acim_model::ModelParams;
use acim_tech::Technology;
use acim_workloads::{BinaryMvm, WorkloadMix};

use crate::error::ChipError;
use crate::evaluate::ChipSpec;
use crate::partition::partition_mix;

/// Measured behaviour of one layer on the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSimReport {
    /// Layer name.
    pub name: String,
    /// Total MAC+conversion cycles across all macros.
    pub cycles: u64,
    /// Number of tiles the layer was split into.
    pub tiles: usize,
    /// Number of distinct macros used.
    pub macros_used: usize,
    /// Mean absolute error of the de-quantised outputs against the exact
    /// binary dot products, divided by the layer's outputs and dot-product
    /// length (0 = perfect).
    pub relative_error: f64,
    /// Measured macro energy in fJ.
    pub energy_fj: f64,
    /// Layer latency in ns (slowest macro's busy time).
    pub latency_ns: f64,
}

/// Measured behaviour of one network on a chip: one tenant's share of a
/// [`MixSimReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSimReport {
    /// Per-layer reports, in network order.
    pub layers: Vec<LayerSimReport>,
    /// Sum of layer latencies in ns.
    pub total_latency_ns: f64,
    /// Sum of measured macro energies in fJ.
    pub total_energy_fj: f64,
}

impl ChipSimReport {
    /// The worst per-layer relative error — the behavioural counterpart
    /// of the analytic accuracy proxy.
    pub fn max_relative_error(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| l.relative_error)
            .fold(0.0, f64::max)
    }
}

/// Measured behaviour of one tenant of a co-scheduled mix.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSimReport {
    /// Tenant name (its network's name).
    pub name: String,
    /// The tenant's own rollup.  Layer `latency_ns` is the latency of the
    /// layer's *round* (the shared finish time of every co-scheduled
    /// layer), so `total_latency_ns` covers the rounds this tenant
    /// participates in.
    pub report: ChipSimReport,
}

/// Measured behaviour of a whole [`WorkloadMix`] on a chip.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSimReport {
    /// Per-tenant reports, in mix order.
    pub tenants: Vec<TenantSimReport>,
    /// Total MAC+conversion cycles across all tenants (exact integer sum,
    /// so it always equals the sum of the tenants' own totals).
    pub total_cycles: u64,
    /// End-to-end makespan of the co-scheduled mix in ns: the sum of all
    /// round latencies.
    pub makespan_ns: f64,
    /// Sum of measured macro energies in fJ.  Accumulated in
    /// tenant-*name* order internally, so it is exactly invariant under
    /// tenant reordering (unlike latencies, which depend on placement).
    pub total_energy_fj: f64,
}

impl MixSimReport {
    /// The worst relative error over every tenant's layers.
    pub fn max_relative_error(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.report.max_relative_error())
            .fold(0.0, f64::max)
    }
}

/// FNV-1a hash of a tenant name, mixed into the seed so each tenant's
/// workloads and noise streams are independent of its position in the mix.
fn tenant_seed(seed: u64, name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    seed ^ hash
}

/// One measured layer before round rollup: its own totals plus the
/// per-tile (macro, cycles) schedule the round latencies are built from.
struct MeasuredLayer {
    name: String,
    cycles: u64,
    tiles: usize,
    macros_used: usize,
    relative_error: f64,
    energy_fj: f64,
    tile_macro_cycles: Vec<(usize, u64)>,
}

/// Runs one output tile — workload rows `row_base .. row_base + rows`, one
/// per macro column — on `macro_sim`, one MAC+conversion cycle per chunk
/// of `H / L` dot-product elements, and returns the de-quantised partial
/// sums with the cycles spent.
///
/// A chunk's weights sit at row offset 0 of each local array, zero-padded
/// past the workload's edge, and every cycle selects offset 0.  No other
/// row is ever written, so each chunk rewrites only those `W · H / L` cells
/// of the macro, one column slice at a time.
fn run_output_tile(
    macro_sim: &mut AcimMacro,
    workload: &BinaryMvm,
    row_base: usize,
    rows: usize,
) -> Result<(Vec<f64>, u64), ArchError> {
    let spec = *macro_sim.spec();
    let chunk = spec.dot_product_length();
    let full_scale = f64::from((1u32 << spec.adc_bits()) - 1);
    let chunks = workload.cols().div_ceil(chunk);
    let mut accumulated = vec![0.0f64; rows];
    let mut activations = vec![false; chunk];
    let mut column_bits = vec![false; chunk];
    for chunk_index in 0..chunks {
        let col_base = chunk_index * chunk;
        let cols_in_chunk = (workload.cols() - col_base).min(chunk);
        for col in 0..spec.width() {
            column_bits.fill(false);
            if col < rows {
                column_bits[..cols_in_chunk].copy_from_slice(
                    &workload.weights[row_base + col][col_base..col_base + cols_in_chunk],
                );
            }
            macro_sim.program_column(col, 0, &column_bits)?;
        }
        for (i, slot) in activations.iter_mut().enumerate() {
            *slot = i < cols_in_chunk && workload.activations[col_base + i];
        }

        let codes = macro_sim.mac_and_convert(&activations, 0)?;
        for (acc, &code) in accumulated.iter_mut().zip(&codes) {
            *acc += f64::from(code) / full_scale * chunk as f64;
        }
    }
    Ok((accumulated, chunks as u64))
}

/// Runs a whole co-scheduled [`WorkloadMix`] on `chip` behaviourally.
///
/// Each tenant's layers lower to concrete workloads seeded by
/// `(seed, tenant name, layer)`, and every *tile* drives its own
/// behavioural macro instance seeded by `(seed, tenant name, layer, tile)`
/// — deliberately independent of which grid macro the tile lands on.  On a
/// uniform grid this makes every per-tenant measurement except latency
/// (cycles, energy, relative error) exactly invariant under tenant
/// reordering, because reordering only moves tiles between identical
/// macros.  Latencies *do* depend on placement: round latency is the
/// slowest macro of the round's combined schedule.
///
/// A tenant quantised to `q` activation bits replays the same binary
/// schedule once per bit-plane: its measured cycles and energy scale by
/// `q`, matching the analytic partitioner's cycle accounting.
///
/// `params` are the analytic evaluator's parameters.  `params.timing` sets
/// the macro cycle times the tiles are scheduled and timed with, so for a
/// mix of one every simulated layer `latency_ns` equals the evaluator's
/// `LayerCost::compute_ns` bit for bit.  `params.energy` charges every
/// simulated cycle.  One network is the mix of one
/// (`WorkloadMix::from(network)`).
///
/// # Errors
///
/// Returns [`ChipError`] when the mix fails [`WorkloadMix::validate`], a
/// layer cannot be lowered, or a macro simulation rejects its tiles.
pub fn simulate_mix(
    chip: &ChipSpec,
    mix: &WorkloadMix,
    params: &ModelParams,
    seed: u64,
) -> Result<MixSimReport, ChipError> {
    let grid = &chip.grid;
    let tech = Technology::s28();
    let noise = NoiseConfig::realistic();
    let cycle_ns: Vec<f64> = grid
        .specs()
        .iter()
        .map(|spec| params.timing.cycle_time(spec.adc_bits()).value() / 1000.0)
        .collect();
    let partition = partition_mix(grid, mix, &cycle_ns)?;

    // Measure every tenant's layers first; round latencies are assembled
    // afterwards from the recorded per-tile schedules.
    let mut measured: Vec<Vec<MeasuredLayer>> = Vec::with_capacity(mix.len());
    for (tenant_index, tenant) in mix.tenants().iter().enumerate() {
        let tseed = tenant_seed(seed, tenant.name());
        let bits = u64::from(tenant.quant.activation_bits);
        let mut layers = Vec::with_capacity(tenant.network.len());
        for placement in &partition.streams[tenant_index].layers {
            let layer = &tenant.network.layers[placement.layer];
            let workload = layer.to_workload(tseed ^ (placement.layer as u64 + 1))?;
            let ideal = workload.ideal_binary_outputs();
            let (outputs, dot_length) = placement.shape;

            let mut total_error = 0.0f64;
            let mut cycles = 0u64;
            let mut energy_fj = 0.0f64;
            let mut tile_macro_cycles = Vec::with_capacity(placement.tiles.len());
            for (tile_index, tile) in placement.tiles.iter().enumerate() {
                let spec = grid.spec(tile.macro_index);
                let mut macro_sim = AcimMacro::new(
                    spec,
                    &tech,
                    noise,
                    tseed ^ ((placement.layer as u64) << 16) ^ (tile_index as u64 + 1),
                )?;
                macro_sim.set_energy_params(params.energy);
                let (accumulated, tile_cycles) =
                    run_output_tile(&mut macro_sim, &workload, tile.row_base, tile.rows)?;
                cycles += tile_cycles * bits;
                tile_macro_cycles.push((tile.macro_index, tile_cycles * bits));
                for (c, acc) in accumulated.iter().enumerate() {
                    let exact = f64::from(ideal[tile.row_base + c]);
                    total_error += (acc - exact).abs();
                }
                energy_fj += macro_sim.stats().energy.total().value() * bits as f64;
            }

            layers.push(MeasuredLayer {
                name: layer.name.clone(),
                cycles,
                tiles: placement.tiles.len(),
                macros_used: placement.macros_used(),
                relative_error: total_error / outputs as f64 / dot_length as f64,
                energy_fj,
                tile_macro_cycles,
            });
        }
        measured.push(layers);
    }

    // Round latencies: the slowest macro of each round's combined
    // measured schedule, mirroring the analytic evaluator's barriers.
    let mut round_latency = vec![0.0f64; partition.rounds.len()];
    for round in &partition.rounds {
        let mut busy = vec![0.0f64; grid.num_macros()];
        for &tenant_index in &round.members {
            for &(macro_index, tile_cycles) in
                &measured[tenant_index][round.round].tile_macro_cycles
            {
                busy[macro_index] += tile_cycles as f64 * cycle_ns[macro_index];
            }
        }
        round_latency[round.round] = busy.iter().copied().fold(0.0, f64::max);
    }
    let makespan_ns: f64 = round_latency.iter().sum();

    let tenants: Vec<TenantSimReport> = mix
        .tenants()
        .iter()
        .zip(measured)
        .map(|(tenant, layers)| {
            let layers: Vec<LayerSimReport> = layers
                .into_iter()
                .enumerate()
                .map(|(round, m)| LayerSimReport {
                    name: m.name,
                    cycles: m.cycles,
                    tiles: m.tiles,
                    macros_used: m.macros_used,
                    relative_error: m.relative_error,
                    energy_fj: m.energy_fj,
                    latency_ns: round_latency[round],
                })
                .collect();
            TenantSimReport {
                name: tenant.name().to_string(),
                report: ChipSimReport {
                    total_latency_ns: layers.iter().map(|l| l.latency_ns).sum(),
                    total_energy_fj: layers.iter().map(|l| l.energy_fj).sum(),
                    layers,
                },
            }
        })
        .collect();

    let total_cycles = tenants
        .iter()
        .flat_map(|t| t.report.layers.iter())
        .map(|l| l.cycles)
        .sum();
    // Name-sorted accumulation keeps the aggregate energy bit-invariant
    // under tenant reordering.
    let mut by_name: Vec<&TenantSimReport> = tenants.iter().collect();
    by_name.sort_by(|a, b| a.name.cmp(&b.name));
    let total_energy_fj = by_name.iter().map(|t| t.report.total_energy_fj).sum();

    Ok(MixSimReport {
        tenants,
        total_cycles,
        makespan_ns,
        total_energy_fj,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::ChipEvaluator;
    use crate::grid::MacroGrid;
    use crate::interconnect::ChipCostParams;
    use acim_arch::AcimSpec;
    use acim_workloads::transformer::ProjectionKind;
    use acim_workloads::{AttentionProjection, CnnLayer, Network};

    fn spec(h: usize, w: usize, l: usize, b: u32) -> AcimSpec {
        AcimSpec::from_dimensions(h, w, l, b).unwrap()
    }

    fn chip(rows: usize, cols: usize) -> ChipSpec {
        ChipSpec::new(
            MacroGrid::uniform(rows, cols, spec(64, 16, 4, 4)).unwrap(),
            64,
        )
        .unwrap()
    }

    /// Simulates a mix with the default parameters.
    fn simulate(chip: &ChipSpec, mix: &WorkloadMix, seed: u64) -> MixSimReport {
        simulate_mix(chip, mix, &ModelParams::s28_default(), seed).unwrap()
    }

    /// One network's report, simulated as the mix of one.
    fn simulate_one(chip: &ChipSpec, network: &Network, seed: u64) -> ChipSimReport {
        simulate(chip, &network.clone().into(), seed)
            .tenants
            .remove(0)
            .report
    }

    #[test]
    fn network_simulation_reports_small_error() {
        let report = simulate_one(&chip(2, 2), &Network::edge_cnn(1), 11);
        assert_eq!(report.layers.len(), 3);
        for layer in &report.layers {
            assert!(layer.cycles > 0);
            assert!(layer.energy_fj > 0.0);
            assert!(layer.latency_ns > 0.0);
            assert!(
                layer.relative_error < 0.2,
                "{}: error {}",
                layer.name,
                layer.relative_error
            );
        }
        assert!(report.total_latency_ns > 0.0);
        assert!(report.max_relative_error() < 0.2);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let a = simulate_one(&chip(2, 2), &Network::transformer_block(), 3);
        let b = simulate_one(&chip(2, 2), &Network::transformer_block(), 3);
        let c = simulate_one(&chip(2, 2), &Network::transformer_block(), 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn single_macro_chip_matches_closed_form_cycle_count() {
        // On a 1×1 grid every layer runs ceil(rows / W) output tiles of
        // ceil(cols / (H / L)) chunks each, one cycle per chunk.
        let network = Network::edge_cnn(1);
        let report = simulate_one(&chip(1, 1), &network, 5);
        let spec = spec(64, 16, 4, 4);
        for (layer, sim) in network.layers.iter().zip(&report.layers) {
            let (rows, cols) = layer.shape();
            let expected = rows.div_ceil(spec.width()) * cols.div_ceil(spec.dot_product_length());
            assert_eq!(sim.cycles, expected as u64, "layer {}", layer.name);
        }
    }

    #[test]
    fn more_macros_reduce_layer_latency() {
        let network = Network::new("wide", vec![Network::edge_cnn(1).layers[1].clone()]);
        let one = simulate_one(&chip(1, 1), &network, 2);
        let four = simulate_one(&chip(2, 2), &network, 2);
        assert!(four.layers[0].macros_used > 1);
        assert!(four.total_latency_ns < one.total_latency_ns);
    }

    #[test]
    fn mix_simulation_reports_per_tenant_behaviour() {
        let mix = WorkloadMix::new("duo")
            .with_tenant(Network::edge_cnn(1), 2.0)
            .with_tenant(Network::snn_pipeline(), 1.0);
        let report = simulate(&chip(2, 2), &mix, 11);
        assert_eq!(report.tenants.len(), 2);
        let per_tenant_cycles: u64 = report
            .tenants
            .iter()
            .flat_map(|t| t.report.layers.iter())
            .map(|l| l.cycles)
            .sum();
        assert_eq!(report.total_cycles, per_tenant_cycles);
        assert!(report.total_cycles > 0);
        assert!(report.makespan_ns > 0.0);
        assert!(report.total_energy_fj > 0.0);
        assert!(report.max_relative_error() < 0.2);
        for tenant in &report.tenants {
            assert!(tenant.report.total_latency_ns <= report.makespan_ns + 1e-9);
            for layer in &tenant.report.layers {
                assert!(layer.cycles > 0);
                assert!(layer.energy_fj > 0.0);
                assert!(layer.latency_ns > 0.0);
            }
        }
    }

    #[test]
    fn mix_simulation_is_deterministic_per_seed() {
        let mix = WorkloadMix::edge_mix();
        let a = simulate(&chip(2, 2), &mix, 3);
        let b = simulate(&chip(2, 2), &mix, 3);
        let c = simulate(&chip(2, 2), &mix, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tenant_order_does_not_change_measurements_on_uniform_grids() {
        let forward = WorkloadMix::new("fwd")
            .with_tenant(Network::edge_cnn(1), 1.0)
            .with_tenant(Network::transformer_block(), 1.0);
        let reversed = WorkloadMix::new("rev")
            .with_tenant(Network::transformer_block(), 1.0)
            .with_tenant(Network::edge_cnn(1), 1.0);
        let f = simulate(&chip(2, 2), &forward, 17);
        let r = simulate(&chip(2, 2), &reversed, 17);
        assert_eq!(f.total_cycles, r.total_cycles);
        assert_eq!(f.total_energy_fj.to_bits(), r.total_energy_fj.to_bits());
        for tenant in &f.tenants {
            let twin = r.tenants.iter().find(|t| t.name == tenant.name).unwrap();
            assert_eq!(
                tenant.report.total_energy_fj.to_bits(),
                twin.report.total_energy_fj.to_bits(),
                "{}",
                tenant.name
            );
            for (a, b) in tenant.report.layers.iter().zip(&twin.report.layers) {
                assert_eq!(a.cycles, b.cycles);
                assert_eq!(a.relative_error.to_bits(), b.relative_error.to_bits());
            }
        }
    }

    #[test]
    fn quantized_tenant_replays_bit_planes() {
        let binary = WorkloadMix::new("b").with_tenant(Network::snn_pipeline(), 1.0);
        let quant = WorkloadMix::new("q").with_quantized_tenant(Network::snn_pipeline(), 1.0, 4);
        let b = simulate(&chip(2, 2), &binary, 9);
        let q = simulate(&chip(2, 2), &quant, 9);
        assert_eq!(q.total_cycles, 4 * b.total_cycles);
        assert!(q.makespan_ns > b.makespan_ns);
    }

    #[test]
    fn simulated_layer_latency_matches_the_evaluator_under_shared_timing() {
        let chip =
            ChipSpec::new(MacroGrid::uniform(2, 2, spec(128, 32, 4, 4)).unwrap(), 64).unwrap();
        let mix = WorkloadMix::from(Network::edge_cnn(2));
        let mut slow_conversion = ModelParams::s28_default();
        slow_conversion.timing.t_conv_per_bit = slow_conversion.timing.t_conv_per_bit * 2.0;
        for params in [ModelParams::s28_default(), slow_conversion] {
            let analytic = ChipEvaluator::new(params, ChipCostParams::s28_default())
                .unwrap()
                .evaluate_mix(&chip, &mix)
                .unwrap();
            let simulated = simulate_mix(&chip, &mix, &params, 0xC812).unwrap();
            let layers = &simulated.tenants[0].report.layers;
            assert_eq!(layers.len(), analytic.tenants[0].metrics.layers.len());
            for (sim, cost) in layers.iter().zip(&analytic.tenants[0].metrics.layers) {
                assert_eq!(
                    sim.latency_ns.to_bits(),
                    cost.compute_ns.to_bits(),
                    "{}: simulated {} ns vs analytic {} ns",
                    sim.name,
                    sim.latency_ns,
                    cost.compute_ns
                );
            }
        }
    }

    #[test]
    fn simulated_energy_uses_the_shared_energy_parameters() {
        let mut params = ModelParams::s28_default();
        params.energy.k2 = params.energy.k2 * 3.0;
        let spec = spec(64, 16, 4, 4);
        let mix = WorkloadMix::from(Network::edge_cnn(1));
        let report = simulate_mix(&chip(2, 2), &mix, &params, 0xC812).unwrap();
        // Every cycle charges all W columns of H / L MACs each.
        let macs_per_cycle = (spec.width() * spec.dot_product_length()) as f64;
        let expected = params.energy.energy_per_mac(&spec).unwrap().value();
        for layer in &report.tenants[0].report.layers {
            let per_mac = layer.energy_fj / (layer.cycles as f64 * macs_per_cycle);
            assert!(
                (per_mac - expected).abs() / expected < 1e-9,
                "{}: {per_mac} fJ per MAC vs {expected}",
                layer.name
            );
        }
    }

    /// Runs `workload` on one macro the way a 1×1 grid does — output tiles
    /// of `W` rows back to back on the same macro — and returns
    /// `(tiles, cycles, relative error)`.
    fn run_on_one_macro(spec: AcimSpec, workload: &BinaryMvm, seed: u64) -> (usize, u64, f64) {
        let mut macro_sim =
            AcimMacro::new(&spec, &Technology::s28(), NoiseConfig::noiseless(), seed).unwrap();
        let ideal = workload.ideal_binary_outputs();
        let tiles = workload.rows().div_ceil(spec.width());
        let (mut cycles, mut error) = (0, 0.0);
        for tile in 0..tiles {
            let row_base = tile * spec.width();
            let rows = (workload.rows() - row_base).min(spec.width());
            let (accumulated, tile_cycles) =
                run_output_tile(&mut macro_sim, workload, row_base, rows).unwrap();
            cycles += tile_cycles;
            for (acc, &exact) in accumulated.iter().zip(&ideal[row_base..]) {
                error += (acc - f64::from(exact)).abs();
            }
        }
        let relative_error = error / workload.rows() as f64 / workload.cols() as f64;
        (tiles, cycles, relative_error)
    }

    /// A dense all-ones MVM of an arbitrary shape, so tiling edge cases
    /// have exact expected outputs.
    fn ones_mvm(rows: usize, cols: usize) -> BinaryMvm {
        BinaryMvm {
            weights: vec![vec![true; cols]; rows],
            activations: vec![true; cols],
            label: format!("ones_{rows}x{cols}"),
        }
    }

    #[test]
    fn cnn_workload_maps_and_reports_cost() {
        let workload = CnnLayer::small(3).to_workload(1).unwrap();
        let (tiles, cycles, error) = run_on_one_macro(spec(64, 16, 4, 4), &workload, 9);
        assert_eq!(tiles, 1, "16 outputs fit in 16 columns");
        // 72-long dot product in chunks of 16 → 5 cycles.
        assert_eq!(cycles, 5);
        assert!(error < 0.2, "error {error}");
    }

    #[test]
    fn wide_workload_needs_multiple_tiles() {
        let workload = AttentionProjection::edge(ProjectionKind::Query)
            .to_workload(2)
            .unwrap();
        let (tiles, cycles, _) = run_on_one_macro(spec(64, 16, 4, 4), &workload, 3);
        assert_eq!(tiles, 2, "32 outputs over 16 columns");
        assert!(cycles >= 16);
    }

    #[test]
    fn higher_adc_precision_reduces_error() {
        let workload = CnnLayer::mobile().to_workload(4).unwrap();
        let (_, _, low) = run_on_one_macro(spec(128, 32, 4, 2), &workload, 5);
        let (_, _, high) = run_on_one_macro(spec(128, 32, 4, 5), &workload, 5);
        assert!(high < low, "B=5 error {high} should beat B=2 error {low}");
    }

    #[test]
    fn rows_not_dividing_width_pad_the_last_tile() {
        // 18 outputs on a width-16 macro: one full tile + a 2-row tail.
        let (tiles, cycles, error) = run_on_one_macro(spec(64, 16, 4, 4), &ones_mvm(18, 16), 3);
        assert_eq!(tiles, 2);
        // Dot length equals the chunk, so each tile costs one cycle.
        assert_eq!(cycles, 2);
        // All-ones operands saturate the ADC: outputs are exact.
        assert!(error < 1e-9, "error {error}");
    }

    #[test]
    fn dot_length_not_dividing_chunk_pads_the_last_chunk() {
        // 50-long dot products in chunks of 16: 3 full chunks + a 2-wide
        // tail chunk that must be zero-padded, not dropped.
        let (tiles, cycles, error) = run_on_one_macro(spec(64, 16, 4, 4), &ones_mvm(16, 50), 3);
        assert_eq!(tiles, 1);
        assert_eq!(cycles, 4);
        // The tail chunk contributes 2/16 of full scale; dequantisation is
        // still within one LSB per chunk of the exact 50.
        assert!(error < 4.0 * (16.0 / 15.0) / 50.0, "error {error}");
    }

    #[test]
    fn neither_dimension_divides_evenly() {
        // 19 outputs x 37-long dot products on a 16-wide, 16-chunk macro:
        // ragged in both directions at once.
        let (tiles, cycles, _) = run_on_one_macro(spec(64, 16, 4, 4), &ones_mvm(19, 37), 5);
        assert_eq!(tiles, 2);
        assert_eq!(cycles, 2 * 3);
    }

    #[test]
    fn single_tile_single_chunk_degenerate_case() {
        // A 1x1 workload occupies one column of one tile for one cycle —
        // the smallest mappable MVM.
        let (tiles, cycles, error) = run_on_one_macro(spec(64, 16, 4, 4), &ones_mvm(1, 1), 3);
        assert_eq!(tiles, 1);
        assert_eq!(cycles, 1);
        // One active cell out of a 16-long chunk: the dequantised output
        // must round-trip to 1 within one code step.
        assert!(error <= 16.0 / 15.0, "error {error}");
    }

    #[test]
    fn writing_row_offset_zero_matches_reprogramming_every_cell() {
        // The tile loop writes only the W · H / L cells at row offset 0 of
        // each chunk.  Reprogramming all H · W cells per chunk, with zeros
        // at every other offset, must give the same codes on a noisy macro.
        // 279-long dot products leave a 7-wide tail chunk, and the second
        // tile's 13 rows leave 3 columns of padding.
        let spec = spec(64, 16, 4, 4);
        let layer = CnnLayer {
            in_channels: 31,
            out_channels: 61,
            kernel: 3,
        };
        let workload = layer.to_workload(6).unwrap();
        let chunk = spec.dot_product_length();
        let noisy = |seed| {
            AcimMacro::new(&spec, &Technology::s28(), NoiseConfig::realistic(), seed).unwrap()
        };
        for (row_base, rows, seed) in [(0usize, 16usize, 21u64), (48, 13, 22)] {
            let mut reference = noisy(seed);
            let mut codes = Vec::new();
            for col_base in (0..workload.cols()).step_by(chunk) {
                let cols_in_chunk = (workload.cols() - col_base).min(chunk);
                reference.program_with(|row, col| {
                    let (local, offset) = (row / spec.local_array(), row % spec.local_array());
                    offset == 0
                        && col < rows
                        && local < cols_in_chunk
                        && workload.weights[row_base + col][col_base + local]
                });
                let activations: Vec<bool> = (0..chunk)
                    .map(|i| i < cols_in_chunk && workload.activations[col_base + i])
                    .collect();
                codes.push(reference.mac_and_convert(&activations, 0).unwrap());
            }
            assert_eq!(codes.len(), 18, "17 full chunks and a tail");
            let full_scale = f64::from((1u32 << spec.adc_bits()) - 1);
            let mut expected = vec![0.0f64; rows];
            for chunk_codes in &codes {
                for (acc, &code) in expected.iter_mut().zip(chunk_codes) {
                    *acc += f64::from(code) / full_scale * chunk as f64;
                }
            }

            let mut macro_sim = noisy(seed);
            let (accumulated, cycles) =
                run_output_tile(&mut macro_sim, &workload, row_base, rows).unwrap();
            assert_eq!(cycles, codes.len() as u64);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&accumulated),
                bits(&expected),
                "tile at row {row_base}"
            );
            assert_eq!(macro_sim.stats(), reference.stats());
            for row in 0..spec.height() {
                for col in 0..spec.width() {
                    assert_eq!(macro_sim.read_bit(row, col), reference.read_bit(row, col));
                }
            }
        }
    }
}
