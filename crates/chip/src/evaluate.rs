//! The chip-level analytic evaluator.
//!
//! Composes the macro estimation model of `acim-model` with the
//! interconnect / global-buffer / accumulation cost model of
//! [`crate::interconnect`] into four chip-level objectives:
//!
//! * **throughput** — effective TOPS over one inference (layer latencies
//!   are serial, tile execution within a layer is parallel),
//! * **energy per inference** — macro MAC energy + digital accumulation +
//!   buffer traffic + NoC traffic + buffer leakage,
//! * **area** — macro arrays + global buffer + routers + adder trees,
//! * **accuracy proxy** — the worst per-layer SNR after the requantisation
//!   penalty of deep partial-sum accumulation.
//!
//! # Multi-tenant mixes
//!
//! The evaluator scores a whole [`WorkloadMix`]
//! ([`ChipEvaluator::evaluate_mix`]); one network is the mix of one
//! (`WorkloadMix::from(network)`).  The mix partitioner's rounds (see
//! [`crate::partition`]) are costed one by one, each round's latency is
//! the *shared* compute/traffic overlap of all member layers, and every
//! tenant then rolls its rounds up into its own [`ChipMetrics`].  A single
//! binary tenant produces exactly one one-member round per layer.
//! Per-macro derivations are shared across tenants automatically: the
//! grid's macro metrics are folded once per chip (and once per
//! [`MacroMetricsCache`] across chips), no matter how many tenants schedule
//! onto them.
//!
//! Rounds are costed serially on the calling thread: a chip has only a
//! handful of them, and a whole chip costs a few µs, less than handing
//! work to another thread.  Every per-round quantity is a pure function of
//! `(chip, mix, params)`, so results are deterministic.

use std::collections::HashMap;
use std::fmt;

use acim_arch::AcimSpec;
use acim_model::{ModelParams, SpecKey};
use acim_moga::{CacheClient, CacheStats};
use acim_workloads::{Network, WorkloadMix};

use crate::error::ChipError;
use crate::grid::MacroGrid;
use crate::interconnect::ChipCostParams;
use crate::metrics_cache::{MacroMetrics, MacroMetricsCache};
use crate::partition::{partition_mix, LayerPartition, MixPartition, RoundPartition};

/// A complete chip specification: the macro grid plus the sizing of the
/// shared global buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// The macro grid.
    pub grid: MacroGrid,
    /// Global-buffer capacity in KiB.
    pub buffer_kib: usize,
}

impl ChipSpec {
    /// Creates a chip specification.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidConfig`] when the buffer capacity is
    /// zero.
    pub fn new(grid: MacroGrid, buffer_kib: usize) -> Result<Self, ChipError> {
        if buffer_kib == 0 {
            return Err(ChipError::invalid_config(
                "buffer_kib",
                "global buffer capacity must be positive",
            ));
        }
        Ok(Self { grid, buffer_kib })
    }

    /// Buffer capacity in bits.
    pub fn buffer_bits(&self) -> usize {
        self.buffer_kib * 1024 * 8
    }
}

impl fmt::Display for ChipSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CHIP[{} buf={}KiB]", self.grid, self.buffer_kib)
    }
}

/// Estimated cost of one layer on the chip.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCost {
    /// Layer name.
    pub name: String,
    /// Compute latency of *this layer's* tiles (slowest macro) in ns.
    pub compute_ns: f64,
    /// Buffer/NoC traffic latency of this layer's tiles in ns.
    pub traffic_ns: f64,
    /// Latency of the layer's scheduling round in ns: shared
    /// compute/traffic overlap of every co-scheduled layer, plus NoC fill.
    /// Equals the layer's own overlap when it runs alone (a mix of one).
    pub latency_ns: f64,
    /// Macro MAC energy in fJ.
    pub mac_energy_fj: f64,
    /// Digital partial-sum accumulation energy in fJ.
    pub accumulation_energy_fj: f64,
    /// Global-buffer access energy in fJ.
    pub buffer_energy_fj: f64,
    /// Mesh-interconnect energy in fJ.
    pub noc_energy_fj: f64,
    /// How many times the layer's weights are re-staged through the
    /// buffer (1 = fits in one residency).
    pub refetch_factor: usize,
    /// Accuracy proxy: worst macro SNR on this layer after the
    /// requantisation penalty, in dB.
    pub snr_db: f64,
    /// Useful MACs over issued MACs in `(0, 1]`.
    pub utilization: f64,
}

impl LayerCost {
    /// Total layer energy in fJ.
    pub fn energy_fj(&self) -> f64 {
        self.mac_energy_fj
            + self.accumulation_energy_fj
            + self.buffer_energy_fj
            + self.noc_energy_fj
    }
}

/// Chip-level figures of merit for one network (or one tenant of a mix).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipMetrics {
    /// End-to-end latency of one inference in ns.  For a mix tenant this
    /// includes the rounds it shares with other tenants.
    pub latency_ns: f64,
    /// Inferences per second.
    pub inferences_per_s: f64,
    /// Effective throughput in TOPS (2 ops per useful MAC).
    pub throughput_tops: f64,
    /// Energy per inference in pJ (including buffer leakage).
    pub energy_per_inference_pj: f64,
    /// Total chip area in MF² (millions of squared feature sizes).
    pub area_mf2: f64,
    /// End-to-end accuracy proxy: the worst layer SNR in dB.
    pub accuracy_db: f64,
    /// Mean layer utilization.
    pub mean_utilization: f64,
    /// Per-layer cost breakdown, in network order.
    pub layers: Vec<LayerCost>,
}

impl ChipMetrics {
    /// Objectives in the minimisation form matching the macro-level
    /// Equation 12 ordering: `[−accuracy, −throughput, energy, area]`.
    /// Fixed-arity and allocation-free; the hot evaluation paths use this
    /// directly.
    pub fn objective_array(&self) -> [f64; 4] {
        [
            -self.accuracy_db,
            -self.throughput_tops,
            self.energy_per_inference_pj,
            self.area_mf2,
        ]
    }

    /// [`Self::objective_array`] as an owned `Vec` (reporting paths).
    pub fn objective_vector(&self) -> Vec<f64> {
        self.objective_array().to_vec()
    }
}

/// One tenant's share of a mix evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// Tenant name (its network's name).
    pub name: String,
    /// The tenant's arrival weight within the mix.
    pub weight: f64,
    /// The tenant's chip metrics under co-scheduling: latency includes
    /// the rounds it shares, energy counts only its own tiles (plus its
    /// leakage share), accuracy/utilization cover only its layers.
    pub metrics: ChipMetrics,
    /// How many per-tile macro-metric reads this tenant's costing
    /// performed — every one served from the mix's once-per-distinct-macro
    /// derivation, so the count is the tenant's share of the shared-macro
    /// reuse a report attributes per tenant.
    pub macro_reads: usize,
}

/// How a mix's per-tenant metrics aggregate into DSE objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MixObjective {
    /// Optimise the worst tenant on each axis: worst accuracy, worst
    /// throughput, highest per-inference energy (area is chip-global).
    /// The conservative default — no tenant is sacrificed.
    #[default]
    WorstTenant,
    /// Optimise the arrival-weighted mean of each axis — the
    /// traffic-averaged view, which lets a rare heavyweight trade off
    /// against frequent light tenants.
    WeightedMean,
}

/// Figures of merit for a whole [`WorkloadMix`] on one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct MixMetrics {
    /// Per-tenant breakdown, in mix order.
    pub tenants: Vec<TenantMetrics>,
    /// End-to-end latency of one co-scheduled round-trip through every
    /// tenant (the schedule makespan) in ns.
    pub makespan_ns: f64,
    /// Total energy of one mix inference in pJ: every tenant's tiles plus
    /// buffer leakage over the makespan.
    pub total_energy_pj: f64,
    /// Total chip area in MF² (shared by all tenants).
    pub area_mf2: f64,
}

impl MixMetrics {
    /// Returns `true` for the degenerate single-tenant evaluation.
    pub fn is_single(&self) -> bool {
        self.tenants.len() == 1
    }

    /// Aggregated objectives in the chip ordering
    /// `[−accuracy, −throughput, energy, area]`.
    ///
    /// For a single tenant both variants reduce bit-exactly to that
    /// tenant's [`ChipMetrics::objective_array`]: the min/max folds return
    /// the lone element unchanged, and the weighted mean multiplies and
    /// divides by the tenant's own weight sum.
    pub fn objectives(&self, objective: MixObjective) -> [f64; 4] {
        match objective {
            MixObjective::WorstTenant => [
                -self
                    .tenants
                    .iter()
                    .map(|t| t.metrics.accuracy_db)
                    .fold(f64::INFINITY, f64::min),
                -self
                    .tenants
                    .iter()
                    .map(|t| t.metrics.throughput_tops)
                    .fold(f64::INFINITY, f64::min),
                self.tenants
                    .iter()
                    .map(|t| t.metrics.energy_per_inference_pj)
                    .fold(f64::NEG_INFINITY, f64::max),
                self.area_mf2,
            ],
            MixObjective::WeightedMean => {
                let total_weight: f64 = self.tenants.iter().map(|t| t.weight).sum();
                let mean = |value: fn(&TenantMetrics) -> f64| -> f64 {
                    self.tenants
                        .iter()
                        .map(|t| t.weight * value(t))
                        .sum::<f64>()
                        / total_weight
                };
                [
                    -mean(|t| t.metrics.accuracy_db),
                    -mean(|t| t.metrics.throughput_tops),
                    mean(|t| t.metrics.energy_per_inference_pj),
                    self.area_mf2,
                ]
            }
        }
    }

    /// A mix-level [`ChipMetrics`] view for reporting: the single tenant's
    /// metrics unchanged, or (for real mixes) makespan latency, aggregate
    /// throughput over the makespan, total energy, worst-tenant accuracy
    /// and the concatenated tenant-prefixed layer breakdown.
    pub fn combined(&self) -> ChipMetrics {
        if let [tenant] = self.tenants.as_slice() {
            return tenant.metrics.clone();
        }
        let layers: Vec<LayerCost> = self
            .tenants
            .iter()
            .flat_map(|tenant| {
                tenant.metrics.layers.iter().map(|layer| LayerCost {
                    name: format!("{}/{}", tenant.name, layer.name),
                    ..layer.clone()
                })
            })
            .collect();
        // Useful MACs recovered from each tenant's own throughput
        // accounting: T = 2·macs/latency/1000.
        let total_macs: f64 = self
            .tenants
            .iter()
            .map(|t| t.metrics.throughput_tops * t.metrics.latency_ns * 1000.0 / 2.0)
            .sum();
        let accuracy_db = self
            .tenants
            .iter()
            .map(|t| t.metrics.accuracy_db)
            .fold(f64::INFINITY, f64::min);
        let mean_utilization = if layers.is_empty() {
            0.0
        } else {
            layers.iter().map(|l| l.utilization).sum::<f64>() / layers.len() as f64
        };
        ChipMetrics {
            latency_ns: self.makespan_ns,
            inferences_per_s: 1e9 / self.makespan_ns,
            throughput_tops: 2.0 * total_macs / self.makespan_ns / 1000.0,
            energy_per_inference_pj: self.total_energy_pj,
            area_mf2: self.area_mf2,
            accuracy_db,
            mean_utilization,
            layers,
        }
    }
}

/// Costs of one scheduling round: the shared round latency plus each
/// member's tenant-attributed [`LayerCost`].
struct RoundCost {
    latency_ns: f64,
    members: Vec<(usize, LayerCost)>,
}

/// One member layer's cost body before round-level overlap: everything in
/// [`LayerCost`] except the final latency, plus the round inputs.
struct MemberCost {
    cost: LayerCost,
    traffic_bits: f64,
    fill_hops: usize,
}

/// Evaluates chip specifications against workload mixes with the analytic
/// model, through its one method [`ChipEvaluator::evaluate_mix`].
///
/// # Macro-metric reuse
///
/// Per-macro work (the closed-form [`acim_model::DesignMetrics`] and the
/// macro cycle time) is folded three ways before it is recomputed:
///
/// 1. **within one chip**, duplicate grid positions share one derivation —
///    a uniform `R × C` grid derives its macro once, not `R · C` times;
/// 2. **across the tenants of a mix**, the per-chip fold happens once for
///    the whole mix, so `T` tenants sharing a grid still derive each
///    distinct macro exactly once;
/// 3. **across chips and requests**, an optional shared
///    [`MacroMetricsCache`] (see [`ChipEvaluator::with_macro_cache`])
///    answers macros any evaluation over the same [`ModelParams`] already
///    derived, with per-evaluator hit/miss attribution
///    ([`ChipEvaluator::macro_cache_stats`]).
///
/// All folds are semantically lossless: the metrics are pure functions
/// of `(spec, params)`, so evaluation results are bit-identical with and
/// without them.
#[derive(Debug, Clone)]
pub struct ChipEvaluator {
    params: ModelParams,
    cost: ChipCostParams,
    // Clones share the client's counters, so one request's attribution
    // covers every clone it hands out.
    macro_client: CacheClient<SpecKey, MacroMetrics>,
}

impl ChipEvaluator {
    /// Creates an evaluator.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError`] when either parameter set is invalid.
    pub fn new(params: ModelParams, cost: ChipCostParams) -> Result<Self, ChipError> {
        params.validate()?;
        cost.validate()?;
        Ok(Self {
            params,
            cost,
            macro_client: CacheClient::detached(),
        })
    }

    /// Evaluator with the default 28 nm parameters.
    pub fn s28_default() -> Self {
        Self::new(ModelParams::s28_default(), ChipCostParams::s28_default())
            .expect("default parameters validate")
    }

    /// The macro estimation-model parameters in use.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The chip cost parameters in use.
    pub fn cost(&self) -> &ChipCostParams {
        &self.cost
    }

    /// Installs a shared macro-metric cache and resets this evaluator's
    /// hit/miss attribution.
    ///
    /// The cache must be paired with evaluators over **one**
    /// [`ModelParams`] value — the entries are pure functions of
    /// `(spec, params)` and the cache trusts its keys.  The counters stay
    /// per evaluator (shared only with its own clones), so on a
    /// service-shared cache every request reports its own reuse.
    #[must_use]
    pub fn with_macro_cache(mut self, cache: MacroMetricsCache) -> Self {
        self.macro_client = CacheClient::attached(cache);
        self
    }

    /// The installed macro-metric cache, when reuse is enabled.
    pub fn macro_cache(&self) -> Option<&MacroMetricsCache> {
        self.macro_client.cache()
    }

    /// Hit/miss/eviction attribution of this evaluator (and its clones)
    /// against the installed macro-metric cache.  One lookup is counted
    /// per **distinct** macro per evaluated chip; duplicate grid
    /// positions — and duplicate tenants of a mix — are folded before the
    /// cache is consulted, so the counters measure cross-chip reuse, not
    /// grid shape or mix width.  All zeros when no cache is installed.
    pub fn macro_cache_stats(&self) -> CacheStats {
        self.macro_client.stats()
    }

    /// Derives one macro's metrics, consulting the shared cache when one
    /// is installed (see [`CacheClient::get_or_compute`]).
    fn macro_metrics(&self, key: SpecKey, spec: &AcimSpec) -> Result<MacroMetrics, ChipError> {
        Ok(self
            .macro_client
            .get_or_compute(key, || MacroMetrics::derive(spec, &self.params))?)
    }

    /// Derives the per-grid-position macro metrics of one chip, folding
    /// duplicate positions onto one derivation.
    fn grid_macro_metrics(&self, grid: &MacroGrid) -> Result<Vec<MacroMetrics>, ChipError> {
        let mut by_key: HashMap<SpecKey, MacroMetrics> = HashMap::new();
        let mut metrics = Vec::with_capacity(grid.specs().len());
        for spec in grid.specs() {
            let key = SpecKey::of(spec);
            let entry = match by_key.get(&key) {
                Some(&entry) => entry,
                None => {
                    let entry = self.macro_metrics(key, spec)?;
                    by_key.insert(key, entry);
                    entry
                }
            };
            metrics.push(entry);
        }
        Ok(metrics)
    }

    /// Evaluates one chip on a workload mix; one network is the mix of
    /// one (`WorkloadMix::from(network)`).
    ///
    /// Schedules the tenants, costs every round serially, and rolls the
    /// rounds up per tenant and for the mix.  Shared macros are derived
    /// once for the whole mix (and reused across chips through the
    /// optional [`MacroMetricsCache`]); each tenant's rollup covers only
    /// its own layers, with round latencies shared.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError`] when the mix fails
    /// [`WorkloadMix::validate`] or a macro specification fails the
    /// estimation model.
    pub fn evaluate_mix(
        &self,
        chip: &ChipSpec,
        mix: &WorkloadMix,
    ) -> Result<MixMetrics, ChipError> {
        let grid = &chip.grid;
        // One derivation per distinct macro for the whole mix
        // (cache-assisted when a shared macro-metric cache is installed),
        // fanned back out to every grid position.
        let macro_metrics = self.grid_macro_metrics(grid)?;
        let cycle_ns: Vec<f64> = macro_metrics.iter().map(|m| m.cycle_ns).collect();
        let partition = partition_mix(grid, mix, &cycle_ns)?;
        let tenants = mix.tenants();

        let round_costs: Vec<RoundCost> = partition
            .rounds
            .iter()
            .map(|round| self.round_cost(chip, mix, round, &partition, &macro_metrics))
            .collect();

        let makespan_ns = round_costs
            .iter()
            .map(|r| r.latency_ns)
            .sum::<f64>()
            .max(f64::MIN_POSITIVE);
        let area_mf2 = self.chip_area_f2(chip, &macro_metrics) / 1e6;

        // Hand each member cost back to its tenant, in round order.
        let mut tenant_layers: Vec<Vec<LayerCost>> = tenants
            .iter()
            .map(|t| Vec::with_capacity(t.network.len()))
            .collect();
        for round in round_costs {
            for (tenant_index, cost) in round.members {
                tenant_layers[tenant_index].push(cost);
            }
        }

        let mix_layer_energy_fj: f64 = tenant_layers
            .iter()
            .map(|layers| layers.iter().map(LayerCost::energy_fj).sum::<f64>())
            .sum();
        let mix_leakage_fj =
            self.cost.buffer.leakage_fj_per_ns_per_kib * chip.buffer_kib as f64 * makespan_ns;

        let tenant_metrics = tenants
            .iter()
            .zip(tenant_layers)
            .zip(&partition.streams)
            .map(|((tenant, layers), stream)| TenantMetrics {
                name: tenant.name().to_string(),
                weight: tenant.weight,
                metrics: self.rollup_metrics(chip, &tenant.network, layers, area_mf2),
                macro_reads: stream.total_tiles(),
            })
            .collect();

        Ok(MixMetrics {
            tenants: tenant_metrics,
            makespan_ns,
            total_energy_pj: (mix_layer_energy_fj + mix_leakage_fj) / 1000.0,
            area_mf2,
        })
    }

    /// Rolls one tenant's round costs up into its chip metrics: summed
    /// round latencies, own energy plus leakage over the tenant's latency,
    /// worst own SNR, mean own utilization.
    fn rollup_metrics(
        &self,
        chip: &ChipSpec,
        network: &Network,
        layers: Vec<LayerCost>,
        area_mf2: f64,
    ) -> ChipMetrics {
        let compute_latency_ns: f64 = layers.iter().map(|l| l.latency_ns).sum();
        let latency_ns = compute_latency_ns.max(f64::MIN_POSITIVE);
        let leakage_fj =
            self.cost.buffer.leakage_fj_per_ns_per_kib * chip.buffer_kib as f64 * latency_ns;
        let energy_fj: f64 = layers.iter().map(LayerCost::energy_fj).sum::<f64>() + leakage_fj;

        let useful_macs = network.total_macs() as f64;
        let throughput_tops = 2.0 * useful_macs / latency_ns / 1000.0;
        let accuracy_db = layers
            .iter()
            .map(|l| l.snr_db)
            .fold(f64::INFINITY, f64::min);
        let mean_utilization =
            layers.iter().map(|l| l.utilization).sum::<f64>() / layers.len() as f64;

        ChipMetrics {
            latency_ns,
            inferences_per_s: 1e9 / latency_ns,
            throughput_tops,
            energy_per_inference_pj: energy_fj / 1000.0,
            area_mf2,
            accuracy_db,
            mean_utilization,
            layers,
        }
    }

    /// Total chip area in F²: macro arrays + buffer + routers + adders.
    /// The per-macro area comes from the already-derived metrics (the
    /// estimation model computes it as part of the macro evaluation, so no
    /// re-derivation is needed); `area_f2_per_bit` already amortises the
    /// macro periphery.
    fn chip_area_f2(&self, chip: &ChipSpec, macro_metrics: &[MacroMetrics]) -> f64 {
        let macro_area: f64 = chip
            .grid
            .specs()
            .iter()
            .zip(macro_metrics)
            .map(|(spec, metrics)| metrics.design.area_f2_per_bit * spec.array_size() as f64)
            .sum();
        let buffer_area = chip.buffer_bits() as f64 * self.cost.buffer.area_f2_per_bit;
        let router_area = chip.grid.num_macros() as f64 * self.cost.interconnect.router_area_f2;
        let adder_area: f64 = chip
            .grid
            .specs()
            .iter()
            .map(|spec| spec.width() as f64 * self.cost.accumulator.adder_area_f2_per_column)
            .sum();
        macro_area + buffer_area + router_area + adder_area
    }

    /// Costs one scheduling round: each member layer's own energies and
    /// traffic, then the shared round latency — the slowest macro of the
    /// round's *combined* schedule overlapped with the members' combined
    /// traffic, plus the farthest member's NoC fill.
    fn round_cost(
        &self,
        chip: &ChipSpec,
        mix: &WorkloadMix,
        round: &RoundPartition,
        partition: &MixPartition,
        macro_metrics: &[MacroMetrics],
    ) -> RoundCost {
        let mut members = Vec::with_capacity(round.members.len());
        let mut traffic_bits = 0.0f64;
        let mut fill_hops = 0usize;
        for &tenant_index in &round.members {
            let placement = &partition.streams[tenant_index].layers[round.round];
            let member = self.member_cost(
                chip,
                &mix.tenants()[tenant_index].network,
                placement,
                macro_metrics,
            );
            traffic_bits += member.traffic_bits;
            fill_hops = fill_hops.max(member.fill_hops);
            members.push((tenant_index, member.cost));
        }

        let round_compute_ns = round.compute_ns();
        let traffic_ns = traffic_bits / self.cost.buffer.bandwidth_bits_per_ns;
        // Double buffering overlaps compute and traffic; the mesh adds a
        // pipeline-fill delay to the farthest used macro.
        let fill_ns = fill_hops as f64 * self.cost.interconnect.hop_latency_ns;
        let latency_ns = round_compute_ns.max(traffic_ns) + fill_ns;
        for (_, cost) in &mut members {
            cost.latency_ns = latency_ns;
        }
        RoundCost {
            latency_ns,
            members,
        }
    }

    /// Costs one member layer's placement: everything that is purely its
    /// own — energies, SNR, utilization, its private compute/traffic
    /// figures — leaving the shared round latency to [`Self::round_cost`].
    fn member_cost(
        &self,
        chip: &ChipSpec,
        network: &Network,
        placement: &LayerPartition,
        macro_metrics: &[MacroMetrics],
    ) -> MemberCost {
        let layer = &network.layers[placement.layer];
        let (outputs, dot_length) = placement.shape;
        let weight_bits = (outputs * dot_length) as f64;

        // Working set: the layer's weights plus one activation vector and
        // one output vector (32-bit partials).  When it exceeds the buffer,
        // weights are re-staged `refetch_factor` times.
        let working_set_bits = weight_bits + dot_length as f64 + 32.0 * outputs as f64;
        let refetch_factor = (working_set_bits / chip.buffer_bits() as f64)
            .ceil()
            .max(1.0);

        let mut mac_energy_fj = 0.0;
        let mut accumulation_energy_fj = 0.0;
        let mut buffer_read_bits = 0.0;
        let mut buffer_write_bits = 0.0;
        let mut noc_bit_hops = 0.0;
        let mut issued_macs = 0.0;
        for tile in &placement.tiles {
            let spec = chip.grid.spec(tile.macro_index);
            let metrics = &macro_metrics[tile.macro_index];
            let chunks = tile.cycles as f64;
            // The macro switches its whole array every cycle regardless of
            // how many columns the tile fills.
            issued_macs += chunks * spec.macs_per_cycle() as f64;
            mac_energy_fj +=
                chunks * spec.macs_per_cycle() as f64 * metrics.design.energy_per_mac_fj;
            // One digital add folds each chunk's ADC code per output row.
            accumulation_energy_fj +=
                chunks * tile.rows as f64 * self.cost.accumulator.add_energy_fj;

            // Traffic per tile: weights in, activations in, codes out.
            let tile_weight_bits = (tile.rows * dot_length) as f64 * refetch_factor;
            let activation_bits = dot_length as f64;
            let code_bits = chunks * tile.rows as f64 * f64::from(spec.adc_bits());
            buffer_read_bits += tile_weight_bits + activation_bits;
            buffer_write_bits += code_bits;
            let hops = chip.grid.hops_from_buffer(tile.macro_index) as f64;
            noc_bit_hops += (tile_weight_bits + activation_bits + code_bits) * hops;
        }

        let buffer_energy_fj = buffer_read_bits * self.cost.buffer.read_energy_fj_per_bit
            + buffer_write_bits * self.cost.buffer.write_energy_fj_per_bit;
        let noc_energy_fj = noc_bit_hops * self.cost.interconnect.hop_energy_fj_per_bit;

        let compute_ns = placement.compute_ns();
        let traffic_bits = buffer_read_bits + buffer_write_bits;
        let traffic_ns = traffic_bits / self.cost.buffer.bandwidth_bits_per_ns;
        let fill_hops = placement
            .tiles
            .iter()
            .map(|t| chip.grid.hops_from_buffer(t.macro_index))
            .max()
            .unwrap_or(0);

        // Accuracy proxy: the worst macro SNR on this layer, degraded by
        // the requantisation loss of accumulating many chunks.
        let snr_db = placement
            .tiles
            .iter()
            .map(|tile| {
                let chunks = tile.cycles as f64;
                macro_metrics[tile.macro_index].design.snr_db
                    - self.cost.accumulator.requant_penalty_db_per_doubling * chunks.log2().max(0.0)
            })
            .fold(f64::INFINITY, f64::min);

        MemberCost {
            cost: LayerCost {
                name: layer.name.clone(),
                compute_ns,
                traffic_ns,
                latency_ns: 0.0, // set by round_cost once the round closes
                mac_energy_fj,
                accumulation_energy_fj,
                buffer_energy_fj,
                noc_energy_fj,
                refetch_factor: refetch_factor as usize,
                snr_db,
                utilization: (weight_bits / issued_macs).min(1.0),
            },
            traffic_bits,
            fill_hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acim_arch::AcimSpec;

    fn spec(h: usize, w: usize, l: usize, b: u32) -> AcimSpec {
        AcimSpec::from_dimensions(h, w, l, b).unwrap()
    }

    fn chip(rows: usize, cols: usize, buffer_kib: usize) -> ChipSpec {
        ChipSpec::new(
            MacroGrid::uniform(rows, cols, spec(128, 32, 4, 4)).unwrap(),
            buffer_kib,
        )
        .unwrap()
    }

    /// Default-parameter evaluation of a whole mix.
    fn evaluate(chip: &ChipSpec, mix: &WorkloadMix) -> MixMetrics {
        ChipEvaluator::s28_default()
            .evaluate_mix(chip, mix)
            .unwrap()
    }

    /// Default-parameter metrics of one network, scored as the mix of one.
    fn evaluate_one(chip: &ChipSpec, network: &Network) -> ChipMetrics {
        evaluate(chip, &network.clone().into())
            .tenants
            .remove(0)
            .metrics
    }

    #[test]
    fn evaluation_produces_finite_positive_metrics() {
        let metrics = evaluate_one(&chip(2, 2, 64), &Network::edge_cnn(2));
        assert!(metrics.latency_ns > 0.0 && metrics.latency_ns.is_finite());
        assert!(metrics.throughput_tops > 0.0);
        assert!(metrics.energy_per_inference_pj > 0.0);
        assert!(metrics.area_mf2 > 0.0);
        assert!(metrics.accuracy_db.is_finite());
        assert!(metrics.mean_utilization > 0.0 && metrics.mean_utilization <= 1.0);
        assert_eq!(metrics.layers.len(), 4);
        let v = metrics.objective_vector();
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|o| o.is_finite()));
    }

    #[test]
    fn more_macros_cut_latency_but_cost_area() {
        let small = evaluate_one(&chip(1, 1, 64), &Network::edge_cnn(2));
        let big = evaluate_one(&chip(2, 2, 64), &Network::edge_cnn(2));
        assert!(
            big.latency_ns < small.latency_ns,
            "grid should parallelise tiles"
        );
        assert!(big.area_mf2 > small.area_mf2);
    }

    #[test]
    fn tiny_buffers_refetch_and_pay_energy() {
        let net = Network::edge_cnn(2);
        // block layers hold 64×288 = 18 KiB of weight bits ≈ 2.25 KiB.
        let tight = evaluate_one(&chip(2, 2, 1), &net);
        let roomy = evaluate_one(&chip(2, 2, 64), &net);
        assert!(tight.layers.iter().any(|l| l.refetch_factor > 1));
        assert!(roomy.layers.iter().all(|l| l.refetch_factor == 1));
        let tight_buffer: f64 = tight.layers.iter().map(|l| l.buffer_energy_fj).sum();
        let roomy_buffer: f64 = roomy.layers.iter().map(|l| l.buffer_energy_fj).sum();
        assert!(tight_buffer > roomy_buffer);
        // …but the big buffer costs area.
        assert!(roomy.area_mf2 > tight.area_mf2);
    }

    #[test]
    fn accuracy_proxy_tracks_macro_snr() {
        let net = Network::transformer_block();
        let low_b =
            ChipSpec::new(MacroGrid::uniform(1, 2, spec(128, 32, 4, 2)).unwrap(), 32).unwrap();
        let high_b =
            ChipSpec::new(MacroGrid::uniform(1, 2, spec(128, 32, 4, 5)).unwrap(), 32).unwrap();
        let low = evaluate_one(&low_b, &net);
        let high = evaluate_one(&high_b, &net);
        assert!(high.accuracy_db > low.accuracy_db);
    }

    #[test]
    fn macro_cache_reuse_is_bit_identical_and_attributed() {
        let mix = WorkloadMix::from(Network::edge_cnn(3));
        let chips = vec![chip(2, 2, 64), chip(1, 2, 32), chip(2, 2, 64)];
        let plain = ChipEvaluator::s28_default();
        let cache = crate::MacroMetricsCache::new();
        let reusing = ChipEvaluator::s28_default().with_macro_cache(cache.clone());
        for c in &chips {
            assert_eq!(
                plain.evaluate_mix(c, &mix).unwrap(),
                reusing.evaluate_mix(c, &mix).unwrap(),
                "macro-metric reuse must not change results"
            );
        }
        // All three chips use the same macro shape: duplicate grid
        // positions fold within each chip, so the cache sees one lookup
        // per chip — one miss, then two cross-chip hits.
        let stats = reusing.macro_cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(cache.len(), 1);
        // The plain evaluator reports no attribution.
        assert_eq!(plain.macro_cache_stats(), acim_moga::CacheStats::default());
        assert!(reusing.macro_cache().is_some());
    }

    #[test]
    fn batch_clones_attribute_to_the_originating_evaluator() {
        let mix = WorkloadMix::from(Network::transformer_block());
        let cache = crate::MacroMetricsCache::new();
        let evaluator = ChipEvaluator::s28_default().with_macro_cache(cache.clone());
        let chips = [chip(1, 1, 32), chip(2, 2, 32), chip(1, 2, 32)];
        let batch: Vec<Result<MixMetrics, ChipError>> = chips
            .iter()
            .map(|chip| evaluator.clone().evaluate_mix(chip, &mix))
            .collect();
        assert!(batch.iter().all(Result::is_ok));
        // Each chip is scored by a clone of the evaluator; the clones
        // share the original's counters, so the request-level evaluator
        // sees the whole batch: one distinct macro shape across all three
        // chips -> 1 miss + 2 hits.
        let stats = evaluator.macro_cache_stats();
        assert_eq!(stats.total(), 3);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn heterogeneous_grid_folds_duplicate_positions() {
        let mix = WorkloadMix::from(Network::edge_cnn(2));
        let mixed = ChipSpec::new(
            MacroGrid::from_specs(
                2,
                2,
                vec![
                    spec(128, 32, 4, 4),
                    spec(64, 64, 4, 3),
                    spec(128, 32, 4, 4),
                    spec(64, 64, 4, 3),
                ],
            )
            .unwrap(),
            64,
        )
        .unwrap();
        let cache = crate::MacroMetricsCache::new();
        let reusing = ChipEvaluator::s28_default().with_macro_cache(cache.clone());
        let with_cache = reusing.evaluate_mix(&mixed, &mix).unwrap();
        let without = evaluate(&mixed, &mix);
        assert_eq!(with_cache, without);
        // Four grid positions, two distinct shapes: two lookups, both
        // misses on a cold cache.
        assert_eq!(reusing.macro_cache_stats().total(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn empty_network_and_zero_buffer_rejected() {
        assert!(ChipSpec::new(MacroGrid::uniform(1, 1, spec(128, 32, 4, 4)).unwrap(), 0).is_err());
        let evaluator = ChipEvaluator::s28_default();
        let empty = WorkloadMix::from(Network::new("empty", vec![]));
        assert!(evaluator.evaluate_mix(&chip(1, 1, 32), &empty).is_err());
    }

    #[test]
    fn single_tenant_mix_is_bit_identical_to_network_path() {
        // Every mix-level view of a mix of one is its lone tenant's
        // metrics, bit for bit — what single-network callers read.
        for (c, net) in [
            (chip(2, 2, 64), Network::edge_cnn(2)),
            (chip(1, 2, 8), Network::transformer_block()),
            (chip(3, 1, 16), Network::snn_pipeline()),
        ] {
            let mix = evaluate(&c, &net.clone().into());
            let single = mix.tenants[0].metrics.clone();
            assert!(mix.is_single());
            assert_eq!(mix.tenants[0].name, net.name);
            assert_eq!(mix.makespan_ns.to_bits(), single.latency_ns.to_bits());
            assert_eq!(
                mix.total_energy_pj.to_bits(),
                single.energy_per_inference_pj.to_bits()
            );
            assert_eq!(mix.area_mf2.to_bits(), single.area_mf2.to_bits());
            // Both objective aggregations reduce to the tenant's own.
            let expected = single.objective_array();
            for mode in [MixObjective::WorstTenant, MixObjective::WeightedMean] {
                let got = mix.objectives(mode);
                for (g, e) in got.iter().zip(expected.iter()) {
                    assert_eq!(g.to_bits(), e.to_bits(), "{mode:?}");
                }
            }
            assert_eq!(mix.combined(), single);
        }
    }

    #[test]
    fn mix_evaluation_produces_per_tenant_metrics() {
        let mix = WorkloadMix::edge_mix();
        let metrics = evaluate(&chip(2, 2, 64), &mix);
        assert_eq!(metrics.tenants.len(), 3);
        for tenant in &metrics.tenants {
            assert!(tenant.metrics.latency_ns > 0.0);
            assert!(tenant.metrics.throughput_tops > 0.0);
            assert!(tenant.metrics.energy_per_inference_pj > 0.0);
            assert!(tenant.metrics.accuracy_db.is_finite());
            // Co-scheduling can only extend a tenant's latency relative to
            // running alone on the same chip.
            let alone = evaluate_one(&chip(2, 2, 64), &find_net(&mix, &tenant.name));
            assert!(
                tenant.metrics.latency_ns >= alone.latency_ns,
                "{}: {} < {}",
                tenant.name,
                tenant.metrics.latency_ns,
                alone.latency_ns
            );
        }
        // The makespan is at least every tenant's co-scheduled latency.
        for tenant in &metrics.tenants {
            assert!(metrics.makespan_ns >= tenant.metrics.latency_ns - 1e-9);
        }
        let combined = metrics.combined();
        assert_eq!(
            combined.layers.len(),
            metrics
                .tenants
                .iter()
                .map(|t| t.metrics.layers.len())
                .sum::<usize>()
        );
        assert!(combined.layers[0].name.contains('/'));
    }

    fn find_net(mix: &WorkloadMix, name: &str) -> Network {
        mix.tenants()
            .iter()
            .find(|t| t.name() == name)
            .unwrap()
            .network
            .clone()
    }

    #[test]
    fn mix_derives_shared_macros_once() {
        let mix = WorkloadMix::edge_mix();
        let cache = crate::MacroMetricsCache::new();
        let reusing = ChipEvaluator::s28_default().with_macro_cache(cache.clone());
        reusing.evaluate_mix(&chip(2, 2, 64), &mix).unwrap();
        // Three tenants on one uniform grid: one lookup, one derivation —
        // the per-chip fold runs once for the whole mix.
        let stats = reusing.macro_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert_eq!(cache.len(), 1);
        // A second chip over the same macro hits.
        reusing.evaluate_mix(&chip(1, 2, 32), &mix).unwrap();
        assert_eq!(reusing.macro_cache_stats().hits, 1);
    }

    #[test]
    fn worst_tenant_and_weighted_mean_aggregate_differently() {
        let mix = WorkloadMix::new("skewed")
            .with_tenant(Network::edge_cnn(2), 10.0)
            .with_tenant(Network::transformer_block(), 0.1);
        let metrics = evaluate(&chip(2, 2, 64), &mix);
        let worst = metrics.objectives(MixObjective::WorstTenant);
        let mean = metrics.objectives(MixObjective::WeightedMean);
        // Worst-tenant accuracy is at most (≥ in minimisation form) the
        // weighted mean, and the two modes genuinely differ on this mix.
        assert!(worst[0] >= mean[0]);
        assert_ne!(worst, mean);
        // Area is chip-global in both.
        assert_eq!(worst[3].to_bits(), mean[3].to_bits());
    }

    #[test]
    fn quantized_tenant_pays_cycles_and_slows_the_round() {
        let base = WorkloadMix::new("base")
            .with_tenant(Network::edge_cnn(1), 1.0)
            .with_tenant(Network::transformer_block(), 1.0);
        let quant = WorkloadMix::new("quant")
            .with_tenant(Network::edge_cnn(1), 1.0)
            .with_quantized_tenant(Network::transformer_block(), 1.0, 8);
        let c = chip(2, 2, 64);
        let b = evaluate(&c, &base);
        let q = evaluate(&c, &quant);
        assert!(q.makespan_ns > b.makespan_ns);
        // The quantized tenant's own energy grows with its issued cycles…
        assert!(
            q.tenants[1].metrics.energy_per_inference_pj
                > b.tenants[1].metrics.energy_per_inference_pj
        );
        // …and the co-scheduled CNN tenant's latency suffers too.
        assert!(q.tenants[0].metrics.latency_ns >= b.tenants[0].metrics.latency_ns);
    }

    #[test]
    fn invalid_mixes_are_rejected() {
        let evaluator = ChipEvaluator::s28_default();
        let c = chip(1, 1, 32);
        assert!(evaluator
            .evaluate_mix(&c, &WorkloadMix::new("empty"))
            .is_err());
        let dup = WorkloadMix::new("dup")
            .with_tenant(Network::edge_cnn(1), 1.0)
            .with_tenant(Network::edge_cnn(1), 1.0);
        assert!(evaluator.evaluate_mix(&c, &dup).is_err());
    }
}
