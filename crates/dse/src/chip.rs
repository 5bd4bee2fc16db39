//! Chip-level design-space exploration: macro shape × macro count ×
//! buffer sizing, co-explored by NSGA-II.
//!
//! The macro-level problem of [`crate::problem`] asks "what is the best
//! (H, W, L, B_ADC)?"; this module asks the question the chip architect
//! actually has: "what macro, **how many of them**, and **how much global
//! buffer** serve this workload best?"  The genome extends the three macro
//! genes with three chip genes (grid rows, grid cols, buffer capacity),
//! and each candidate is scored by `acim-chip`'s analytic evaluator
//! against a co-scheduled [`WorkloadMix`] (one network is the mix of one),
//! with worst-tenant or weighted-mean objective aggregation
//! ([`MixObjective`]) and an optional Monte-Carlo device-variation yield
//! constraint ([`RobustnessConfig`]).
//!
//! A chip evaluation costs microseconds, so the optimisers score each
//! [`ChipDesignProblem`] genome through [`Problem::evaluate`] on the
//! calling thread, and exploration is bit-reproducible per seed.
//!
//! With [`ChipDseConfig::heterogeneous`] the genome additionally carries
//! **per-tile macro genes**, letting NSGA-II mix macro shapes across the
//! grid — e.g. a high-SNR macro near the buffer for accuracy-critical
//! layers next to long-local-array macros for energy-tolerant ones.

use std::fmt;

use acim_chip::{
    ChipCostParams, ChipEvaluator, ChipMetrics, ChipSpec, MacroGrid, MacroMetricsCache,
    MixObjective, TenantMetrics, WorkloadMix,
};
use acim_model::ModelParams;
use acim_moga::{CacheStats, Evaluation, Problem};

use crate::encoding::{gene_from_index, index_from_gene, Candidate, DesignEncoding};
use crate::error::DseError;
use crate::explorer::Explorable;
use crate::robustness::{RobustnessConfig, RobustnessSweep};

/// Configuration of one chip-level exploration run.
#[derive(Debug, Clone)]
pub struct ChipDseConfig {
    /// Per-macro array size (`H · W`) of every grid position.
    pub array_size: usize,
    /// Smallest macro height considered.
    pub min_height: usize,
    /// Largest macro height considered.
    pub max_height: usize,
    /// Candidate grid row counts (e.g. `[1, 2, 3, 4]`).
    pub grid_rows: Vec<usize>,
    /// Candidate grid column counts.
    pub grid_cols: Vec<usize>,
    /// Candidate global-buffer capacities in KiB.
    pub buffer_kib: Vec<usize>,
    /// Explore heterogeneous grids: when `true` every grid position gets
    /// its own (H, L, B_ADC) genes, so NSGA-II can mix macro shapes across
    /// the chip; when `false` (the default) all positions share one macro.
    pub heterogeneous: bool,
    /// The target workload: a co-scheduled multi-tenant mix (see
    /// [`WorkloadMix`]); one network is the mix of one.
    pub mix: WorkloadMix,
    /// How the per-tenant metrics of a mix aggregate into objectives.
    /// Irrelevant for single-tenant mixes (both modes reduce to the
    /// tenant's own objectives, bit for bit).
    pub objective: MixObjective,
    /// Optional Monte-Carlo device-variation sweep: when set, chips whose
    /// SNR yield under the perturbed corners falls below the target become
    /// constraint-infeasible (see [`RobustnessConfig`]).
    pub robustness: Option<RobustnessConfig>,
    /// NSGA-II population size.
    pub population_size: usize,
    /// NSGA-II generation count.
    pub generations: usize,
    /// RNG seed (exploration is deterministic per seed).
    pub seed: u64,
    /// Macro estimation-model parameters.
    pub params: ModelParams,
    /// Chip-level cost parameters.
    pub cost: ChipCostParams,
}

impl ChipDseConfig {
    /// A default configuration targeting a workload mix — or one network,
    /// which converts into the mix of one.
    pub fn for_mix(mix: impl Into<WorkloadMix>) -> Self {
        Self {
            array_size: 4 * 1024,
            min_height: 16,
            max_height: 512,
            grid_rows: vec![1, 2, 3, 4],
            grid_cols: vec![1, 2, 3, 4],
            buffer_kib: vec![4, 8, 16, 32, 64, 128],
            heterogeneous: false,
            mix: mix.into(),
            objective: MixObjective::default(),
            robustness: None,
            population_size: 60,
            generations: 40,
            seed: 0xC41F,
            params: ModelParams::s28_default(),
            cost: ChipCostParams::s28_default(),
        }
    }
}

/// One explored chip design: the chip specification, its per-macro spec,
/// and the chip-level metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipDesignPoint {
    /// The chip (macro grid + buffer).
    pub chip: ChipSpec,
    /// The chip-level metrics.  For a multi-tenant mix this is the
    /// mix-level view ([`acim_chip::MixMetrics::combined`]): makespan latency,
    /// aggregate throughput, total energy, worst-tenant accuracy.  For a
    /// single tenant it is that tenant's metrics, unchanged.
    pub metrics: ChipMetrics,
    /// Per-tenant breakdown, in mix order (one entry for single-network
    /// explorations).
    pub tenants: Vec<TenantMetrics>,
}

impl ChipDesignPoint {
    /// Objective vector `[−accuracy, −throughput, energy, area]`.
    pub fn objective_vector(&self) -> Vec<f64> {
        self.metrics.objective_vector()
    }

    /// CSV header matching [`ChipDesignPoint::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "grid_rows,grid_cols,height,width,local_array,adc_bits,distinct_macros,macro_set,buffer_kib,accuracy_db,throughput_tops,energy_per_inference_pj,area_mf2,latency_ns,tenants"
    }

    /// Serialises the point as one CSV row.  The per-macro columns read
    /// `mixed` for heterogeneous grids, which have no single macro shape;
    /// the `distinct_macros`/`macro_set` columns carry the mix instead.
    pub fn to_csv_row(&self) -> String {
        let macro_columns = if self.chip.grid.is_uniform() {
            let spec = self.chip.grid.spec(0);
            format!(
                "{},{},{},{}",
                spec.height(),
                spec.width(),
                spec.local_array(),
                spec.adc_bits(),
            )
        } else {
            "mixed,mixed,mixed,mixed".into()
        };
        format!(
            "{},{},{},{},{},{},{:.3},{:.4},{:.2},{:.2},{:.1},{}",
            self.chip.grid.rows(),
            self.chip.grid.cols(),
            macro_columns,
            self.chip.grid.distinct_specs().len(),
            self.macro_set(),
            self.chip.buffer_kib,
            self.metrics.accuracy_db,
            self.metrics.throughput_tops,
            self.metrics.energy_per_inference_pj,
            self.metrics.area_mf2,
            self.metrics.latency_ns,
            self.tenant_set(),
        )
    }

    /// Compact `|`-separated per-tenant summary (CSV-safe: no commas),
    /// e.g. `edge_cnn@23.9dB|transformer_block@18.5dB`.
    pub fn tenant_set(&self) -> String {
        self.tenants
            .iter()
            .map(|t| format!("{}@{:.1}dB", t.name, t.metrics.accuracy_db))
            .collect::<Vec<_>>()
            .join("|")
    }

    /// Compact `|`-separated description of the distinct macro shapes on
    /// the grid, e.g. `128x32L4B4|64x64L8B3` (CSV-safe: no commas).
    pub fn macro_set(&self) -> String {
        self.chip
            .grid
            .distinct_specs()
            .iter()
            .map(|spec| {
                format!(
                    "{}x{}L{}B{}",
                    spec.height(),
                    spec.width(),
                    spec.local_array(),
                    spec.adc_bits(),
                )
            })
            .collect::<Vec<_>>()
            .join("|")
    }
}

impl fmt::Display for ChipDesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} acc={:.1}dB T={:.3}TOPS E={:.1}pJ/inf A={:.1}MF2",
            self.chip,
            self.metrics.accuracy_db,
            self.metrics.throughput_tops,
            self.metrics.energy_per_inference_pj,
            self.metrics.area_mf2,
        )
    }
}

/// The chip design problem: macro (H, L, B_ADC) plus grid rows, grid cols
/// and buffer capacity, evaluated against one workload mix (a
/// single-tenant mix for classic single-network exploration).
///
/// # Genome layout
///
/// Uniform grids use six genes: `[H, L, B, rows, cols, buffer]`.
/// Heterogeneous grids keep that prefix (the first triple describes tile 0,
/// so uniform genomes embed unchanged) and append one (H, L, B) triple per
/// additional grid position up to the largest candidate grid:
///
/// ```text
/// [H₀, L₀, B₀, rows, cols, buffer, H₁, L₁, B₁, …, H_T₋₁, L_T₋₁, B_T₋₁]
/// ```
///
/// where `T = max(grid_rows) · max(grid_cols)`.  When the decoded grid is
/// smaller than `T`, the surplus tile genes are inert — the standard
/// fixed-length encoding of a variable-topology space, which keeps the
/// variation operators problem-agnostic.
#[derive(Debug, Clone)]
pub struct ChipDesignProblem {
    encoding: DesignEncoding,
    grid_rows: Vec<usize>,
    grid_cols: Vec<usize>,
    buffer_kib: Vec<usize>,
    /// Grid positions encodable in the genome (1 when uniform).
    max_tiles: usize,
    heterogeneous: bool,
    evaluator: ChipEvaluator,
    mix: WorkloadMix,
    objective: MixObjective,
    robustness: Option<RobustnessSweep>,
}

impl ChipDesignProblem {
    /// Creates the problem from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::InvalidConfig`] when the macro encoding cannot
    /// be built, a candidate list is empty, or the parameters are invalid.
    pub fn new(config: &ChipDseConfig) -> Result<Self, DseError> {
        let encoding =
            DesignEncoding::new(config.array_size, config.min_height, config.max_height)?;
        for (name, list) in [
            ("grid_rows", &config.grid_rows),
            ("grid_cols", &config.grid_cols),
            ("buffer_kib", &config.buffer_kib),
        ] {
            if list.is_empty() {
                return Err(DseError::InvalidConfig(format!("{name} must not be empty")));
            }
            if list.contains(&0) {
                return Err(DseError::InvalidConfig(format!(
                    "{name} must not contain 0"
                )));
            }
        }
        config
            .mix
            .validate()
            .map_err(|e| DseError::InvalidConfig(format!("workload mix: {e}")))?;
        let evaluator = ChipEvaluator::new(config.params, config.cost)
            .map_err(|e| DseError::InvalidConfig(e.to_string()))?;
        // The Monte-Carlo corners are drawn and validated here, once per
        // problem; genome evaluations only score macros under them.
        let robustness = config
            .robustness
            .map(|rc| RobustnessSweep::new(rc, &config.params))
            .transpose()?;
        let max_tiles = if config.heterogeneous {
            config.grid_rows.iter().max().copied().unwrap_or(1)
                * config.grid_cols.iter().max().copied().unwrap_or(1)
        } else {
            1
        };
        Ok(Self {
            encoding,
            grid_rows: config.grid_rows.clone(),
            grid_cols: config.grid_cols.clone(),
            buffer_kib: config.buffer_kib.clone(),
            max_tiles,
            heterogeneous: config.heterogeneous,
            evaluator,
            mix: config.mix.clone(),
            objective: config.objective,
            robustness,
        })
    }

    /// The macro genome encoding in use.
    pub fn encoding(&self) -> &DesignEncoding {
        &self.encoding
    }

    /// The target workload mix (a single-tenant mix for single-network
    /// explorations).
    pub fn mix(&self) -> &WorkloadMix {
        &self.mix
    }

    /// The device-variation sweep, when robustness is enabled.
    pub fn robustness(&self) -> Option<&RobustnessSweep> {
        self.robustness.as_ref()
    }

    /// Decodes the chip genes into `(rows, cols, buffer_kib)`.
    fn decode_chip_genes(&self, genes: &[f64]) -> (usize, usize, usize) {
        (
            self.grid_rows[index_from_gene(genes[3], self.grid_rows.len())],
            self.grid_cols[index_from_gene(genes[4], self.grid_cols.len())],
            self.buffer_kib[index_from_gene(genes[5], self.buffer_kib.len())],
        )
    }

    /// Encodes an explicit uniform design into gene space (bucket
    /// centres), for seeding or testing; returns `None` when a value is
    /// not part of the catalogue.  In heterogeneous mode the surplus tile
    /// genes all carry the same macro, so the genome decodes to the same
    /// uniform chip.
    pub fn encode(
        &self,
        candidate: &Candidate,
        rows: usize,
        cols: usize,
        buffer_kib: usize,
    ) -> Option<Vec<f64>> {
        let tiles = vec![*candidate; rows * cols];
        self.encode_heterogeneous(&tiles, rows, cols, buffer_kib)
    }

    /// Encodes an explicit (possibly mixed-macro) design into gene space.
    /// `tiles` holds one candidate per grid position, row-major,
    /// `tiles.len() == rows · cols`.  Returns `None` when a value is not
    /// part of the catalogue, the tile count mismatches, or the grid does
    /// not fit the genome (`rows · cols > max_tiles` with mixed macros).
    pub fn encode_heterogeneous(
        &self,
        tiles: &[Candidate],
        rows: usize,
        cols: usize,
        buffer_kib: usize,
    ) -> Option<Vec<f64>> {
        if tiles.len() != rows * cols || tiles.is_empty() {
            return None;
        }
        let uniform = tiles.windows(2).all(|w| w[0] == w[1]);
        if !self.heterogeneous && !uniform {
            return None;
        }
        if tiles.len() > self.max_tiles.max(1) && !uniform {
            return None;
        }
        let mut genes = self.encoding.encode(&tiles[0])?;
        let ri = self.grid_rows.iter().position(|&r| r == rows)?;
        let ci = self.grid_cols.iter().position(|&c| c == cols)?;
        let bi = self.buffer_kib.iter().position(|&b| b == buffer_kib)?;
        genes.push(gene_from_index(ri, self.grid_rows.len()));
        genes.push(gene_from_index(ci, self.grid_cols.len()));
        genes.push(gene_from_index(bi, self.buffer_kib.len()));
        if self.heterogeneous {
            for tile in 1..self.max_tiles {
                // Surplus positions (beyond rows x cols) repeat the base
                // macro; they are inert at decode time.
                let candidate = tiles.get(tile).unwrap_or(&tiles[0]);
                genes.extend(self.encoding.encode(candidate)?);
            }
        }
        Some(genes)
    }

    /// Builds the chip a genome describes, when every used macro is
    /// feasible.
    ///
    /// # Errors
    ///
    /// Returns the summed constraint violation of the infeasible tiles (as
    /// in [`Candidate::into_spec`]) wrapped in
    /// `Err(Some)`, or `Err(None)` for chip-construction failures.
    fn decode_chip(&self, genes: &[f64]) -> Result<ChipSpec, Option<f64>> {
        let (rows, cols, buffer_kib) = self.decode_chip_genes(genes);
        let used_tiles = if self.heterogeneous {
            (rows * cols).min(self.max_tiles)
        } else {
            1
        };
        let mut specs = Vec::with_capacity(rows * cols);
        let mut violation = 0.0;
        for tile in 0..used_tiles {
            let candidate = self.encoding.decode(macro_genes(genes, tile));
            match candidate.into_spec(self.encoding.array_size()) {
                Ok(spec) => specs.push(spec),
                Err(v) => violation += v,
            }
        }
        if violation > 0.0 {
            return Err(Some(violation));
        }
        let grid = if self.heterogeneous {
            // Grids larger than max_tiles cannot occur (rows/cols bound the
            // candidate lists), so every position has its own spec.
            MacroGrid::from_specs(rows, cols, specs).map_err(|_| None)?
        } else {
            MacroGrid::uniform(rows, cols, specs[0]).map_err(|_| None)?
        };
        ChipSpec::new(grid, buffer_kib).map_err(|_| None)
    }

    /// The full genome → objectives path.
    fn evaluate_genome(&self, genes: &[f64]) -> Evaluation {
        match self.decode_chip(genes) {
            Ok(chip) => {
                match self.evaluator.evaluate_mix(&chip, &self.mix) {
                    Ok(metrics) => {
                        let objectives = metrics.objectives(self.objective);
                        // The yield sweep only runs for chips that are
                        // otherwise feasible; zero violation keeps the
                        // evaluation unconstrained, so robustness-off and
                        // robustness-trivially-satisfied runs agree.
                        let violation = self
                            .robustness
                            .as_ref()
                            .map_or(0.0, |sweep| sweep.violation(&chip));
                        if violation > 0.0 {
                            Evaluation::new(objectives, violation)
                        } else {
                            Evaluation::unconstrained(objectives)
                        }
                    }
                    // Model failures are heavily infeasible rather than
                    // fatal, matching AcimDesignProblem.
                    Err(_) => Evaluation::new([f64::MAX; 4], 10.0),
                }
            }
            Err(Some(violation)) => Evaluation::new([f64::MAX; 4], violation),
            Err(None) => Evaluation::new([f64::MAX; 4], 10.0),
        }
    }
}

/// The three macro genes describing grid position `tile`: tile 0 lives in
/// the genome prefix, every further tile in the appended triples (see the
/// genome-layout diagram on [`ChipDesignProblem`]).
fn macro_genes(genes: &[f64], tile: usize) -> &[f64] {
    if tile == 0 {
        &genes[..3]
    } else {
        let start = 6 + 3 * (tile - 1);
        &genes[start..start + 3]
    }
}

impl Problem for ChipDesignProblem {
    fn num_variables(&self) -> usize {
        // [H, L, B, rows, cols, buffer] plus one (H, L, B) triple per
        // additional heterogeneous tile.
        6 + 3 * (self.max_tiles.saturating_sub(1))
    }

    fn num_objectives(&self) -> usize {
        4
    }

    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        self.evaluate_genome(genes)
    }

    fn name(&self) -> &str {
        "easyacim chip-level design-space exploration"
    }
}

/// Chip points decode through the mix evaluator, whose macro-metric
/// cache ([`ChipEvaluator::with_macro_cache`]) reuses per-macro
/// `DesignMetrics` across chips, requests and mixed macro + chip sessions
/// over the same model parameters.
impl Explorable for ChipDesignProblem {
    type Config = ChipDseConfig;
    type Point = ChipDesignPoint;

    fn decode_point(&self, genes: &[f64]) -> Option<ChipDesignPoint> {
        let chip = self.decode_chip(genes).ok()?;
        let mix_metrics = self.evaluator.evaluate_mix(&chip, &self.mix).ok()?;
        let metrics = mix_metrics.combined();
        Some(ChipDesignPoint {
            chip,
            metrics,
            tenants: mix_metrics.tenants,
        })
    }

    /// Encodes the point's grid through
    /// [`ChipDesignProblem::encode_heterogeneous`]; `None` when a macro or
    /// the grid falls outside this problem's catalogue.
    fn encode_point(&self, point: &ChipDesignPoint) -> Option<Vec<f64>> {
        let grid = &point.chip.grid;
        let tiles: Vec<Candidate> = (0..grid.num_macros())
            .map(|i| Candidate::of(grid.spec(i)))
            .collect();
        self.encode_heterogeneous(&tiles, grid.rows(), grid.cols(), point.chip.buffer_kib)
    }

    /// The decoded grid shape, buffer choice and the decode-bucket indices
    /// of every **used** tile.  Surplus heterogeneous tile genes are
    /// excluded, so genomes that differ only in inert genes share one
    /// cache entry.
    fn cache_key(&self, genes: &[f64]) -> Vec<i64> {
        let (rows, cols, buffer_kib) = self.decode_chip_genes(genes);
        let used_tiles = if self.heterogeneous { rows * cols } else { 1 };
        let mut key = vec![rows as i64, cols as i64, buffer_kib as i64];
        for tile in 0..used_tiles {
            key.extend(self.encoding.bucket_indices(macro_genes(genes, tile)));
        }
        key
    }

    fn with_macro_cache(mut self, cache: MacroMetricsCache) -> Self {
        self.evaluator = self.evaluator.clone().with_macro_cache(cache);
        self
    }

    fn macro_cache_stats(&self) -> CacheStats {
        self.evaluator.macro_cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{ChipExplorer, DesignSpaceExplorer, DseConfig, ExploreOptions, Explorer};
    use acim_chip::Network;
    use acim_moga::dominates;

    fn quick_config() -> ChipDseConfig {
        ChipDseConfig {
            population_size: 24,
            generations: 10,
            grid_rows: vec![1, 2],
            grid_cols: vec![1, 2],
            buffer_kib: vec![8, 32],
            ..ChipDseConfig::for_mix(Network::edge_cnn(1))
        }
    }

    #[test]
    fn problem_shape_and_name() {
        let problem = ChipDesignProblem::new(&quick_config()).unwrap();
        assert_eq!(problem.num_variables(), 6);
        assert_eq!(problem.num_objectives(), 4);
        assert!(problem.name().contains("chip"));
    }

    #[test]
    fn feasible_genome_round_trips_to_a_chip_point() {
        let problem = ChipDesignProblem::new(&quick_config()).unwrap();
        let genes = problem
            .encode(
                &Candidate {
                    height: 128,
                    width: 32,
                    local_array: 4,
                    adc_bits: 3,
                },
                2,
                2,
                32,
            )
            .expect("catalogue values encode");
        let eval = Problem::evaluate(&problem, &genes);
        assert!(eval.is_feasible());
        assert!(eval.objectives.iter().all(|o| o.is_finite()));
        let point = problem
            .decode_point(&genes)
            .expect("feasible point decodes");
        assert_eq!(point.chip.grid.num_macros(), 4);
        assert_eq!(point.chip.buffer_kib, 32);
        assert_eq!(point.chip.grid.spec(0).local_array(), 4);
        assert!(
            point.to_csv_row().split(',').count()
                == ChipDesignPoint::csv_header().split(',').count()
        );
    }

    #[test]
    fn infeasible_macro_reports_violation() {
        let problem = ChipDesignProblem::new(&quick_config()).unwrap();
        // L = 32 and B = 8 violates H/L ≥ 2^B for every height of a 4 kb
        // array; encode via a feasible macro then poison the L/B genes.
        let mut genes = problem
            .encode(
                &Candidate {
                    height: 128,
                    width: 32,
                    local_array: 4,
                    adc_bits: 3,
                },
                1,
                1,
                8,
            )
            .unwrap();
        genes[1] = 0.99; // L = 32
        genes[2] = 0.99; // B = 8
        let eval = Problem::evaluate(&problem, &genes);
        assert!(!eval.is_feasible());
        assert!(problem.decode_point(&genes).is_none());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut config = quick_config();
        config.population_size = 7;
        assert!(ChipExplorer::new(config).is_err());

        let mut config = quick_config();
        config.grid_rows.clear();
        assert!(ChipDesignProblem::new(&config).is_err());

        let mut config = quick_config();
        config.buffer_kib = vec![0];
        assert!(ChipDesignProblem::new(&config).is_err());

        let mut config = quick_config();
        config.mix = WorkloadMix::single(Network::new("empty", vec![]));
        assert!(ChipDesignProblem::new(&config).is_err());

        let mut config = quick_config();
        config.mix = WorkloadMix::new("no-tenants");
        assert!(ChipDesignProblem::new(&config).is_err());

        let mut config = quick_config();
        config.robustness = Some(crate::robustness::RobustnessConfig {
            samples: 0,
            ..Default::default()
        });
        assert!(ChipDesignProblem::new(&config).is_err());
    }

    #[test]
    fn exploration_finds_a_mutually_non_dominated_front() {
        let frontier = ChipExplorer::new(quick_config())
            .unwrap()
            .explore()
            .unwrap();
        assert!(!frontier.is_empty());
        assert!(frontier.engine.evaluations > 0);
        for a in frontier.iter() {
            for b in frontier.iter() {
                if a != b {
                    assert!(!dominates(&a.objective_vector(), &b.objective_vector()));
                }
            }
        }
    }

    #[test]
    fn exploration_is_deterministic_per_seed() {
        let explorer = ChipExplorer::new(quick_config()).unwrap();
        let a = explorer.explore().unwrap();
        let b = explorer.explore().unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.engine.evaluations, b.engine.evaluations);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.objective_vector(), y.objective_vector());
        }
    }

    #[test]
    fn exploration_spans_multiple_grid_sizes() {
        let frontier = ChipExplorer::new(quick_config())
            .unwrap()
            .explore()
            .unwrap();
        let grid_sizes: std::collections::BTreeSet<usize> =
            frontier.iter().map(|p| p.chip.grid.num_macros()).collect();
        assert!(
            grid_sizes.len() >= 2,
            "frontier should trade throughput against area: {grid_sizes:?}"
        );
    }

    #[test]
    fn best_by_selects_the_extreme() {
        let frontier = ChipExplorer::new(quick_config())
            .unwrap()
            .explore()
            .unwrap();
        let best = frontier
            .best_by(|p| p.metrics.throughput_tops)
            .unwrap()
            .metrics
            .throughput_tops;
        for p in frontier.iter() {
            assert!(p.metrics.throughput_tops <= best + 1e-12);
        }
    }

    fn hetero_config() -> ChipDseConfig {
        ChipDseConfig {
            heterogeneous: true,
            ..quick_config()
        }
    }

    #[test]
    fn heterogeneous_genome_carries_per_tile_genes() {
        let problem = ChipDesignProblem::new(&hetero_config()).unwrap();
        // max grid is 2x2 -> 4 tiles -> 6 + 3*3 genes.
        assert_eq!(problem.num_variables(), 15);
        // The uniform problem is untouched.
        let uniform = ChipDesignProblem::new(&quick_config()).unwrap();
        assert_eq!(uniform.num_variables(), 6);
    }

    #[test]
    fn mixed_macro_chip_round_trips_through_the_genome() {
        let problem = ChipDesignProblem::new(&hetero_config()).unwrap();
        let tall = Candidate {
            height: 256,
            width: 16,
            local_array: 4,
            adc_bits: 4,
        };
        let wide = Candidate {
            height: 64,
            width: 64,
            local_array: 8,
            adc_bits: 3,
        };
        let genes = problem
            .encode_heterogeneous(&[tall, wide, wide, tall], 2, 2, 32)
            .expect("catalogue values encode");
        assert_eq!(genes.len(), problem.num_variables());
        let eval = Problem::evaluate(&problem, &genes);
        assert!(eval.is_feasible());
        let point = problem.decode_point(&genes).expect("feasible mix decodes");
        assert!(!point.chip.grid.is_uniform());
        assert_eq!(point.chip.grid.num_macros(), 4);
        assert_eq!(point.chip.grid.spec(0).height(), 256);
        assert_eq!(point.chip.grid.spec(1).height(), 64);
        // CSV carries the mix: "mixed" shape columns plus the macro set.
        let row = point.to_csv_row();
        assert_eq!(
            row.split(',').count(),
            ChipDesignPoint::csv_header().split(',').count()
        );
        assert!(row.contains("mixed"));
        assert!(row.contains("256x16L4B4|64x64L8B3"));
        assert!(row.contains(",2,")); // two distinct macros
    }

    #[test]
    fn uniform_encode_still_round_trips_in_heterogeneous_mode() {
        let problem = ChipDesignProblem::new(&hetero_config()).unwrap();
        let candidate = Candidate {
            height: 128,
            width: 32,
            local_array: 4,
            adc_bits: 3,
        };
        let genes = problem.encode(&candidate, 2, 2, 32).unwrap();
        let point = problem.decode_point(&genes).unwrap();
        assert!(point.chip.grid.is_uniform());
        assert_eq!(point.chip.grid.num_macros(), 4);
        assert_eq!(point.macro_set(), "128x32L4B3");
    }

    #[test]
    fn one_infeasible_tile_makes_the_chip_infeasible() {
        let problem = ChipDesignProblem::new(&hetero_config()).unwrap();
        let good = Candidate {
            height: 128,
            width: 32,
            local_array: 4,
            adc_bits: 3,
        };
        let genes = problem
            .encode_heterogeneous(&[good, good, good, good], 2, 2, 32)
            .unwrap();
        // Poison tile 3's (L, B) genes: L = 32, B = 8 violates H/L >= 2^B.
        let mut poisoned = genes.clone();
        poisoned[13] = 0.99;
        poisoned[14] = 0.99;
        let eval = Problem::evaluate(&problem, &poisoned);
        assert!(!eval.is_feasible());
        assert!(problem.decode_point(&poisoned).is_none());
    }

    #[test]
    fn chip_shared_cache_and_warm_start_compose() {
        let explorer = ChipExplorer::new(quick_config()).unwrap();
        let store = acim_moga::CacheStore::new();
        let options = ExploreOptions {
            cache: Some(store.clone()),
            ..Default::default()
        };
        let cold = explorer.explore_with(&options, |_| {}).unwrap();
        assert!(!store.is_empty());
        // Replay over the shared store: zero misses, identical front.
        let replay = explorer.explore_with(&options, |_| {}).unwrap();
        assert_eq!(replay.engine.cache.misses, 0);
        assert_eq!(cold.len(), replay.len());

        // Warm-start from the cold front: deterministic and every cold
        // point matched-or-dominated.
        let seeds = explorer.session_genomes(cold.points());
        assert_eq!(seeds.len(), cold.len());
        let warm_options = ExploreOptions {
            cache: Some(store.clone()),
            warm_start: seeds,
            ..Default::default()
        };
        let warm = explorer.explore_with(&warm_options, |_| {}).unwrap();
        for cold_point in cold.iter() {
            let c = cold_point.objective_vector();
            assert!(warm.iter().any(|w| {
                let w = w.objective_vector();
                w == c || dominates(&w, &c)
            }));
        }
        // Wrong-length warm genomes are rejected.
        let bad = ExploreOptions {
            warm_start: vec![vec![0.5; 99]],
            ..Default::default()
        };
        assert!(explorer.explore_with(&bad, |_| {}).is_err());
    }

    #[test]
    fn macro_metric_reuse_is_bit_identical_and_warms_across_requests() {
        for config in [quick_config(), hetero_config()] {
            let explorer = ChipExplorer::new(config).unwrap();
            let plain = explorer.explore().unwrap();

            let macro_cache = acim_chip::MacroMetricsCache::new();
            let options = ExploreOptions {
                macro_cache: Some(macro_cache.clone()),
                ..Default::default()
            };
            let reusing = explorer.explore_with(&options, |_| {}).unwrap();
            // Reuse-on and reuse-off frontiers are bit-identical.
            assert_eq!(plain.len(), reusing.len());
            for (a, b) in plain.iter().zip(reusing.iter()) {
                assert_eq!(a.objective_vector(), b.objective_vector());
                assert_eq!(a.chip, b.chip);
            }
            // The reuse layer saw work and populated the shared cache.
            let stats = reusing.engine.macro_cache;
            assert!(stats.misses > 0, "cold macro cache must record misses");
            assert!(
                stats.hits > 0,
                "recurring specs across genomes must hit: {stats}"
            );
            assert_eq!(macro_cache.len(), stats.misses);
            // Off-path runs report zero macro-cache activity.
            assert_eq!(plain.engine.macro_cache, acim_moga::CacheStats::default());

            // A second request over the warmed cache derives nothing new.
            let replay = explorer.explore_with(&options, |_| {}).unwrap();
            assert_eq!(replay.engine.macro_cache.misses, 0);
            assert_eq!(replay.len(), plain.len());
        }
    }

    #[test]
    fn bounded_caches_with_warm_start_still_dominate_their_seeds() {
        let explorer = ChipExplorer::new(quick_config()).unwrap();
        let cold = explorer.explore().unwrap();

        // Deliberately tiny bounds so the run is forced to evict.
        let store = acim_moga::CacheStore::bounded(8);
        let options = ExploreOptions {
            cache: Some(store.clone()),
            macro_cache: Some(acim_chip::MacroMetricsCache::bounded(2)),
            warm_start: explorer.session_genomes(cold.points()),
            ..Default::default()
        };
        let warm = explorer.explore_with(&options, |_| {}).unwrap();
        assert!(store.evictions() > 0, "an 8-entry store must evict");
        assert!(warm.engine.cache.evictions > 0);
        assert!(store.len() <= 8);
        // Eviction costs hits, never correctness: every cold frontier
        // point is still matched-or-dominated by the warm frontier.
        for cold_point in cold.iter() {
            let c = cold_point.objective_vector();
            assert!(
                warm.iter().any(|w| {
                    let w = w.objective_vector();
                    w == c || dominates(&w, &c)
                }),
                "cold frontier point lost under eviction"
            );
        }
    }

    #[test]
    fn private_cache_capacity_bound_is_honoured_without_changing_results() {
        let explorer = ChipExplorer::new(quick_config()).unwrap();
        let unbounded = explorer.explore().unwrap();
        let bounded = explorer
            .explore_with(
                &ExploreOptions {
                    cache: Some(acim_moga::CacheStore::bounded(4)),
                    ..Default::default()
                },
                |_| {},
            )
            .unwrap();
        assert!(bounded.engine.cache.evictions > 0);
        assert_eq!(unbounded.len(), bounded.len());
        for (a, b) in unbounded.iter().zip(bounded.iter()) {
            assert_eq!(a.objective_vector(), b.objective_vector());
        }
    }

    /// Asserts that every frontier point of `explorer` re-encodes into a
    /// genome that decodes back to the same point, and that the session
    /// genomes are those encodings.
    fn assert_frontier_round_trips<S>(explorer: &Explorer<S>)
    where
        S: Explorable,
        S::Point: PartialEq + fmt::Debug,
    {
        let front = explorer.explore().unwrap();
        let problem = explorer.problem();
        let genomes: Vec<Vec<f64>> = front
            .iter()
            .map(|point| {
                let genes = problem.encode_point(point).expect("frontier point encodes");
                assert_eq!(problem.decode_point(&genes).as_ref(), Some(point));
                genes
            })
            .collect();
        assert_eq!(explorer.session_genomes(front.points()), genomes);
    }

    #[test]
    fn heterogeneous_session_genomes_round_trip() {
        assert_frontier_round_trips(&ChipExplorer::new(hetero_config()).unwrap());
        assert_frontier_round_trips(
            &DesignSpaceExplorer::new(DseConfig {
                population_size: 32,
                generations: 20,
                ..Default::default()
            })
            .unwrap(),
        );
    }

    fn mix_config() -> ChipDseConfig {
        ChipDseConfig {
            population_size: 16,
            generations: 5,
            grid_rows: vec![1, 2],
            grid_cols: vec![1, 2],
            buffer_kib: vec![8, 32],
            ..ChipDseConfig::for_mix(
                WorkloadMix::new("duo")
                    .with_tenant(Network::edge_cnn(1), 1.0)
                    .with_tenant(Network::snn_pipeline(), 2.0),
            )
        }
    }

    #[test]
    fn mix_exploration_carries_per_tenant_metrics() {
        let frontier = ChipExplorer::new(mix_config()).unwrap().explore().unwrap();
        assert!(!frontier.is_empty());
        for point in frontier.iter() {
            assert_eq!(point.tenants.len(), 2);
            for tenant in &point.tenants {
                assert!(tenant.metrics.latency_ns > 0.0);
                assert!(tenant.metrics.accuracy_db.is_finite());
            }
            let row = point.to_csv_row();
            assert_eq!(
                row.split(',').count(),
                ChipDesignPoint::csv_header().split(',').count()
            );
            assert!(row.contains('@'), "tenant column present: {row}");
        }
    }

    #[test]
    fn objective_modes_both_explore_deterministically() {
        for objective in [MixObjective::WorstTenant, MixObjective::WeightedMean] {
            let config = ChipDseConfig {
                objective,
                ..mix_config()
            };
            let a = ChipExplorer::new(config.clone())
                .unwrap()
                .explore()
                .unwrap();
            let b = ChipExplorer::new(config).unwrap().explore().unwrap();
            assert!(!a.is_empty());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.objective_vector(), y.objective_vector());
            }
        }
    }

    #[test]
    fn trivially_satisfied_robustness_leaves_the_frontier_bit_identical() {
        let plain = ChipExplorer::new(mix_config()).unwrap().explore().unwrap();
        let robust = ChipExplorer::new(ChipDseConfig {
            robustness: Some(RobustnessConfig {
                min_snr_db: -1000.0,
                ..Default::default()
            }),
            ..mix_config()
        })
        .unwrap()
        .explore()
        .unwrap();
        assert_eq!(plain.len(), robust.len());
        for (a, b) in plain.iter().zip(robust.iter()) {
            assert_eq!(a.chip, b.chip);
            for (x, y) in a.objective_vector().iter().zip(b.objective_vector()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn impossible_yield_target_empties_the_design_space() {
        let result = ChipExplorer::new(ChipDseConfig {
            robustness: Some(RobustnessConfig {
                min_snr_db: 10_000.0,
                min_yield: 1.0,
                ..Default::default()
            }),
            ..mix_config()
        })
        .unwrap()
        .explore();
        assert!(matches!(result, Err(DseError::EmptyDesignSpace { .. })));
    }

    #[test]
    fn yield_constraint_prunes_fragile_chips() {
        // Pick an SNR floor between the best and worst macro corners so
        // the sweep genuinely separates designs.
        let config = ChipDseConfig {
            robustness: Some(RobustnessConfig {
                min_snr_db: 18.0,
                min_yield: 0.95,
                sigma: 0.1,
                samples: 32,
                ..Default::default()
            }),
            ..mix_config()
        };
        let explorer = ChipExplorer::new(config).unwrap();
        let sweep = explorer.problem().robustness().expect("sweep installed");
        if let Ok(frontier) = explorer.explore() {
            for point in frontier.iter() {
                assert!(
                    sweep.yield_for(&point.chip) >= 0.95,
                    "frontier chip misses the yield target: {point}"
                );
            }
        }
    }

    #[test]
    fn heterogeneous_exploration_is_deterministic_and_reports_cache() {
        let explorer = ChipExplorer::new(hetero_config()).unwrap();
        let a = explorer.explore().unwrap();
        let b = explorer.explore().unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.engine.cache, b.engine.cache);
        assert_eq!(a.engine.cache.total(), a.engine.evaluations);
        assert_eq!(a.engine.generation_seconds.len(), 10);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.objective_vector(), y.objective_vector());
        }
    }

    #[test]
    fn invalid_model_parameters_are_named_errors_in_every_constructor() {
        use acim_tech::{Femtojoule, Picosecond};

        fn set(p: &mut ModelParams, field: &str, v: f64) {
            match field {
                "t_compute" => p.timing.t_compute = Picosecond::new(v),
                "tau" => p.timing.tau = Picosecond::new(v),
                "t_conv_per_bit" => p.timing.t_conv_per_bit = Picosecond::new(v),
                "vdd" => p.energy.vdd = v,
                "e_compute" => p.energy.e_compute = Femtojoule::new(v),
                "e_control" => p.energy.e_control = Femtojoule::new(v),
                "k1" => p.energy.k1 = Femtojoule::new(v),
                "k2" => p.energy.k2 = Femtojoule::new(v),
                _ => unreachable!("no setter for {field}"),
            }
        }
        // (field, whether 0 is out of range).
        let fields = [
            ("t_compute", true),
            ("tau", true),
            ("t_conv_per_bit", true),
            ("vdd", true),
            ("e_compute", false),
            ("e_control", false),
            ("k1", false),
            ("k2", false),
        ];
        for (name, positive) in fields {
            let bad: &[f64] = if positive {
                &[f64::NAN, -1.0, 0.0]
            } else {
                &[f64::NAN, -1.0]
            };
            for &value in bad {
                let mut params = ModelParams::s28_default();
                set(&mut params, name, value);
                let errors = [
                    DesignSpaceExplorer::new(DseConfig {
                        params,
                        ..DseConfig::default()
                    })
                    .err()
                    .map(|e| e.to_string()),
                    ChipExplorer::new(ChipDseConfig {
                        params,
                        ..quick_config()
                    })
                    .err()
                    .map(|e| e.to_string()),
                    ChipEvaluator::new(params, ChipCostParams::s28_default())
                        .err()
                        .map(|e| e.to_string()),
                ];
                for error in errors {
                    let error = error.unwrap_or_else(|| panic!("{name} = {value} accepted"));
                    assert!(
                        error.contains(&format!("`{name}`")),
                        "{name} = {value}: {error}"
                    );
                }
            }
            if !positive {
                let mut params = ModelParams::s28_default();
                set(&mut params, name, 0.0);
                assert!(params.validate().is_ok(), "{name} = 0 must be accepted");
            }
        }
    }
}
