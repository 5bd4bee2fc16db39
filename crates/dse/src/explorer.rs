//! The MOGA-based design-space explorer (Figure 4, "MOGA-based Design Space
//! Explorer (NSGA-II)").
//!
//! One [`Explorer`] runs one exploration loop (cache wrapper, NSGA-II
//! observer, Pareto archive, cancellation) over any [`Explorable`] design
//! space and returns one result type, [`Frontier`]:
//! [`DesignSpaceExplorer`] explores macros ([`AcimDesignProblem`]),
//! [`ChipExplorer`] chips ([`ChipDesignProblem`]).
//!
//! Long-lived callers (the `easyacim` `ExplorationService`) drive it
//! through [`Explorer::explore_with`], which accepts [`ExploreOptions`] —
//! a shared evaluation-cache store amortised across requests and a
//! warm-start seed population from a previous run's archive — plus a
//! per-generation progress callback.  The plain [`Explorer::explore`] is
//! the cold single-run path, bit-identical to `explore_with` with default
//! options.

use std::collections::HashSet;
use std::fmt;
use std::ops::ControlFlow;

use acim_chip::MacroMetricsCache;
use acim_model::ModelParams;
use acim_moga::{
    CacheStats, CacheStore, CachedProblem, CancelToken, EvalStats, Nsga2, Nsga2Config,
    ParetoArchive, Problem,
};

use crate::chip::{ChipDesignProblem, ChipDseConfig};
use crate::error::DseError;
use crate::problem::AcimDesignProblem;

/// Injection points a long-lived caller can thread into an exploration
/// run.  The default (no cache handles, no warm-start genomes) reproduces
/// a cold, self-contained run exactly.
#[derive(Debug, Clone, Default)]
pub struct ExploreOptions {
    /// Shared evaluation-cache store.  `None` gives the run a fresh,
    /// unbounded private cache; `Some` makes it read and write entries
    /// other runs over the **same design space** produced — the store
    /// trusts its keys, so handing it to a run over a different space
    /// poisons it.  A bounded store (`CacheStore::bounded`) changes
    /// hit/miss/eviction counters, never results.
    pub cache: Option<CacheStore>,
    /// Shared macro-metric cache (see `acim_chip::MacroMetricsCache`):
    /// per-macro `DesignMetrics` reused **below** the genome-level cache,
    /// across chips, requests, and mixed macro + chip sessions over the
    /// same model parameters.  `None` disables the reuse layer.  The
    /// cache must be paired with one `ModelParams` value.
    pub macro_cache: Option<MacroMetricsCache>,
    /// Warm-start genomes, typically a previous run's Pareto archive over
    /// the same design space: they seed the initial NSGA-II population
    /// (see [`Nsga2Config::initial_population`]) and are scored through
    /// the run's cache and archived up front, so the warm frontier can
    /// never be worse than the seeds it started from.
    pub warm_start: Vec<Vec<f64>>,
    /// Cooperative cancellation handle, polled after every generation's
    /// environmental selection.  When it trips, the run stops at that
    /// generation boundary and returns [`DseError::Cancelled`] /
    /// [`DseError::DeadlineExceeded`] carrying the partial progress.  A
    /// token that never trips is unobservable: the run (RNG stream, cache
    /// fills, frontier) is bit-identical to one without a token.
    pub cancel: Option<CancelToken>,
}

/// Configuration of one exploration run.
#[derive(Debug, Clone, PartialEq)]
pub struct DseConfig {
    /// User-defined array size (`H · W`).
    pub array_size: usize,
    /// Smallest array height considered.
    pub min_height: usize,
    /// Largest array height considered.
    pub max_height: usize,
    /// NSGA-II population size.
    pub population_size: usize,
    /// NSGA-II generation count.
    pub generations: usize,
    /// RNG seed (exploration is deterministic per seed).
    pub seed: u64,
    /// Estimation-model parameters.
    pub params: ModelParams,
}

impl Default for DseConfig {
    fn default() -> Self {
        Self {
            array_size: 16 * 1024,
            min_height: 16,
            max_height: 1024,
            population_size: 80,
            generations: 60,
            seed: 0xACE5,
            params: ModelParams::s28_default(),
        }
    }
}

/// The Pareto frontier of an exploration run: every feasible, mutually
/// non-dominated design encountered during the search, in archive
/// insertion order.
#[derive(Debug, Clone)]
pub struct Frontier<T> {
    points: Vec<T>,
    /// Evaluation-engine statistics of the run: evaluations requested,
    /// cache hit/miss counters (hits are designs the optimiser re-sampled
    /// and the engine did not re-evaluate), and wall-clock breakdown.
    pub engine: EvalStats,
}

impl<T> Frontier<T> {
    /// The frontier design points.
    pub fn points(&self) -> &[T] {
        &self.points
    }

    /// Number of frontier points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the frontier is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over the frontier points.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.points.iter()
    }

    /// Consumes the set and returns the points.
    pub fn into_points(self) -> Vec<T> {
        self.points
    }

    /// The point with the best (largest) value of a metric selected by
    /// `key`, if the frontier is non-empty.
    pub fn best_by<F: Fn(&T) -> f64>(&self, key: F) -> Option<&T> {
        self.points.iter().max_by(|a, b| {
            key(a)
                .partial_cmp(&key(b))
                .expect("metrics must not be NaN")
        })
    }
}

/// The NSGA-II budget of one run plus the array size its empty-space
/// error names, validated once for both design spaces.
#[derive(Debug, Clone, Copy)]
struct Budget {
    population_size: usize,
    generations: usize,
    seed: u64,
    array_size: usize,
}

impl Budget {
    /// Checks the population size and generation count.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::InvalidConfig`] for an odd or too-small
    /// population, or zero generations.
    fn new(
        population_size: usize,
        generations: usize,
        seed: u64,
        array_size: usize,
    ) -> Result<Self, DseError> {
        if population_size < 4 || !population_size.is_multiple_of(2) {
            return Err(DseError::InvalidConfig(
                "population size must be an even number >= 4".into(),
            ));
        }
        if generations == 0 {
            return Err(DseError::InvalidConfig(
                "generation count must be at least 1".into(),
            ));
        }
        Ok(Self {
            population_size,
            generations,
            seed,
            array_size,
        })
    }
}

/// A design space an [`Explorer`] searches: a [`Problem`] over real-coded
/// genomes that decode to design points and re-encode from them.
///
/// [`AcimDesignProblem`] (macros) and [`ChipDesignProblem`] (chips)
/// implement it.
pub trait Explorable: Problem + Clone {
    /// The configuration an explorer over this space is built from.
    type Config: Clone + fmt::Debug;

    /// The decoded design of a genome.
    type Point;

    /// Decodes a genome into its design when it is feasible.
    fn decode_point(&self, genes: &[f64]) -> Option<Self::Point>;

    /// Encodes a design into gene space (bucket centres); `None` when a
    /// value is not part of this space's catalogue.
    fn encode_point(&self, point: &Self::Point) -> Option<Vec<f64>>;

    /// The canonical cache key of a genome: its decode-bucket indices, so
    /// every genome landing in the same design shares one key and a
    /// memoizing wrapper ([`CachedProblem`]) never re-evaluates a
    /// re-sampled design.
    fn cache_key(&self, genes: &[f64]) -> Vec<i64>;

    /// Installs a shared macro-metric cache (paired with this space's
    /// [`ModelParams`]) and resets the hit/miss attribution.
    #[must_use]
    fn with_macro_cache(self, cache: MacroMetricsCache) -> Self;

    /// Hit/miss/eviction attribution of this problem (and its clones)
    /// against the installed macro-metric cache; all zeros when no cache
    /// is installed.
    fn macro_cache_stats(&self) -> CacheStats;
}

/// The Pareto archive of one run, offered each objective vector once.
///
/// A repeat offer of a bit-identical vector is skipped, together with its
/// genome and objective clones, because [`ParetoArchive::insert`] would
/// reject it anyway: an entry leaves the archive only when a dominating
/// one arrives, so every vector offered before stays weakly dominated by
/// some entry.  That argument needs transitive dominance, which holds for
/// both spaces' objectives: they are finite, since `ModelParams` is
/// validated and infeasible rows score `[f64::MAX; 4]`.
#[derive(Default)]
struct RunArchive {
    archive: ParetoArchive<Vec<f64>>,
    /// Bit patterns of every objective vector offered so far.
    offered: HashSet<Vec<u64>>,
    /// The bits of the vector being offered, reused from offer to offer.
    bits: Vec<u64>,
}

impl RunArchive {
    /// Offers `(objectives, genes)` to the archive unless the same
    /// objective bits were offered before.  Only a first offer allocates.
    fn offer(&mut self, objectives: &[f64], genes: &[f64]) {
        self.bits.clear();
        self.bits.extend(objectives.iter().map(|o| o.to_bits()));
        if !self.offered.contains(&self.bits[..]) {
            self.offered.insert(self.bits.clone());
            self.archive.insert(objectives, genes.to_vec());
        }
    }
}

/// The design-space explorer: NSGA-II over one [`Explorable`] space with
/// a global archive of every feasible non-dominated design evaluated.
#[derive(Debug, Clone)]
pub struct Explorer<S: Explorable> {
    config: S::Config,
    budget: Budget,
    problem: S,
}

/// The macro explorer: NSGA-II over [`AcimDesignProblem`].
pub type DesignSpaceExplorer = Explorer<AcimDesignProblem>;

/// The chip-level explorer: NSGA-II over [`ChipDesignProblem`].
pub type ChipExplorer = Explorer<ChipDesignProblem>;

impl DesignSpaceExplorer {
    /// Creates a macro explorer.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::InvalidConfig`] when the configuration is
    /// inconsistent (no valid heights, zero population, …).
    pub fn new(config: DseConfig) -> Result<Self, DseError> {
        let budget = Budget::new(
            config.population_size,
            config.generations,
            config.seed,
            config.array_size,
        )?;
        let problem = AcimDesignProblem::new(
            config.array_size,
            config.min_height,
            config.max_height,
            config.params,
        )?;
        Ok(Self {
            config,
            budget,
            problem,
        })
    }
}

impl ChipExplorer {
    /// Creates a chip explorer.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn new(config: ChipDseConfig) -> Result<Self, DseError> {
        let budget = Budget::new(
            config.population_size,
            config.generations,
            config.seed,
            config.array_size,
        )?;
        let problem = ChipDesignProblem::new(&config)?;
        Ok(Self {
            config,
            budget,
            problem,
        })
    }
}

impl<S: Explorable> Explorer<S> {
    /// The configuration.
    pub fn config(&self) -> &S::Config {
        &self.config
    }

    /// The underlying problem (exposes the genome encoding).
    pub fn problem(&self) -> &S {
        &self.problem
    }

    /// Runs a cold, self-contained exploration and returns the
    /// Pareto-frontier set.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::EmptyDesignSpace`] when the optimiser never found
    /// a feasible design (which indicates an over-constrained space).
    pub fn explore(&self) -> Result<Frontier<S::Point>, DseError> {
        self.explore_with(&ExploreOptions::default(), |_| {})
    }

    /// Runs the exploration with caller-injected [`ExploreOptions`] (shared
    /// cache, warm-start seeds), invoking `progress(generation)` after every
    /// generation's environmental selection.
    ///
    /// NSGA-II runs over the problem behind a memoizing cache, with a
    /// Pareto archive of every feasible `(objectives, genome)` seen —
    /// warm-start seeds first, then each generation, then the final
    /// population.  The archive keeps insertion order and the first genome
    /// of equal objectives; only its survivors are decoded, at the end.
    /// With default options this is exactly [`Explorer::explore`]: same
    /// RNG stream, bit-identical frontier.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::EmptyDesignSpace`] when the optimiser never
    /// found a feasible design, [`DseError::InvalidConfig`] when a
    /// warm-start genome does not match the problem's genome length, or
    /// [`DseError::Cancelled`] / [`DseError::DeadlineExceeded`] when the
    /// injected [`CancelToken`] tripped before the run finished.
    pub fn explore_with<F>(
        &self,
        options: &ExploreOptions,
        mut progress: F,
    ) -> Result<Frontier<S::Point>, DseError>
    where
        F: FnMut(usize),
    {
        let budget = self.budget;
        let n_var = self.problem.num_variables();
        for genome in &options.warm_start {
            if genome.len() != n_var {
                return Err(DseError::InvalidConfig(format!(
                    "warm-start genome has {} genes, design space has {n_var}",
                    genome.len()
                )));
            }
        }
        // A token that tripped before any work ran: stop before the initial
        // population is even evaluated.
        if let Some(reason) = options.cancel.as_ref().and_then(CancelToken::status) {
            return Err(DseError::from_cancel(reason, 0, budget.generations));
        }
        // The macro-metric cache sits *below* the genome-level cache, so
        // even a genome never seen before reuses the macro metrics earlier
        // runs derived.
        let problem = match &options.macro_cache {
            Some(cache) => self.problem.clone().with_macro_cache(cache.clone()),
            None => self.problem.clone(),
        };
        let problem = &problem;
        // Keyed by decode buckets, the cache answers re-sampled designs for
        // free and forwards only the misses to the problem.
        let store = options.cache.clone().unwrap_or_default();
        let cached = CachedProblem::new(problem, store, |genes| problem.cache_key(genes));
        let mut archive = RunArchive::default();
        // Warm-start seeds are archived up front (feasible ones only), so
        // the warm frontier dominates-or-equals the one it was seeded from.
        for genome in &options.warm_start {
            let eval = cached.evaluate(genome);
            if eval.is_feasible() {
                archive.offer(&eval.objectives, genome);
            }
        }
        let nsga_config = Nsga2Config {
            population_size: budget.population_size,
            generations: budget.generations,
            initial_population: options.warm_start.clone(),
        };
        let result = Nsga2::new(&cached, nsga_config)
            .with_seed(budget.seed)
            .run_with_observer(|generation, population| {
                for individual in population {
                    if individual.is_feasible() {
                        archive.offer(&individual.objectives, &individual.genes);
                    }
                }
                progress(generation);
                // Cooperative cancellation at the generation boundary: the
                // completed generation is archived and its cache fills are
                // already shared, so an interrupted run's side effects are
                // a clean prefix of an uninterrupted one.
                match options.cancel.as_ref().map(CancelToken::is_triggered) {
                    Some(true) => ControlFlow::Break(()),
                    _ => ControlFlow::Continue(()),
                }
            });
        if result.generations < budget.generations {
            let reason = options
                .cancel
                .as_ref()
                .and_then(CancelToken::status)
                // The loop only breaks early when the token tripped; a
                // token cannot un-trip (cancel is sticky, deadlines only
                // move further into the past).
                .expect("early NSGA-II stop without a tripped cancel token");
            return Err(DseError::from_cancel(
                reason,
                result.generations,
                budget.generations,
            ));
        }
        for individual in &result.population {
            if individual.is_feasible() {
                archive.offer(&individual.objectives, &individual.genes);
            }
        }

        let points: Vec<S::Point> = archive
            .archive
            .into_entries()
            .into_iter()
            .filter_map(|e| problem.decode_point(&e.payload))
            .collect();
        if points.is_empty() {
            return Err(DseError::EmptyDesignSpace {
                array_size: budget.array_size,
            });
        }
        let mut engine = result.engine;
        engine.cache = cached.stats();
        engine.macro_cache = problem.macro_cache_stats();
        Ok(Frontier { points, engine })
    }

    /// Re-encodes frontier points into warm-start genomes for a follow-up
    /// run over the same design space (points outside this space's
    /// catalogue are skipped).
    pub fn session_genomes(&self, points: &[S::Point]) -> Vec<Vec<f64>> {
        points
            .iter()
            .filter_map(|point| self.problem.encode_point(point))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acim_moga::dominates;

    fn quick_config() -> DseConfig {
        DseConfig {
            population_size: 32,
            generations: 20,
            ..Default::default()
        }
    }

    #[test]
    fn exploration_finds_a_diverse_frontier() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let frontier = explorer.explore().unwrap();
        assert!(
            frontier.len() >= 5,
            "only {} frontier points",
            frontier.len()
        );
        // Frontier must be mutually non-dominated.
        for a in frontier.iter() {
            for b in frontier.iter() {
                if a.spec != b.spec {
                    assert!(!dominates(&a.objective_vector(), &b.objective_vector()));
                }
            }
        }
        // It should span multiple ADC precisions (diversity across the
        // SNR/energy trade-off).
        let precisions: std::collections::BTreeSet<u32> =
            frontier.iter().map(|p| p.spec.adc_bits()).collect();
        assert!(precisions.len() >= 3, "precisions found: {precisions:?}");
    }

    #[test]
    fn exploration_is_deterministic_per_seed() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let a = explorer.explore().unwrap();
        let b = explorer.explore().unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.engine.evaluations, b.engine.evaluations);
        assert_eq!(a.engine.cache, b.engine.cache);
    }

    #[test]
    fn cache_absorbs_resampled_designs() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let frontier = explorer.explore().unwrap();
        let engine = &frontier.engine;
        assert_eq!(engine.cache.total(), engine.evaluations);
        // The discrete (H, L, B) space has only a few hundred designs, so a
        // 32x20 run must re-sample heavily.
        assert!(
            engine.cache.hits > engine.evaluations / 4,
            "cache stats: {}",
            engine.cache
        );
        assert_eq!(engine.generation_seconds.len(), 20);
        assert!(engine.evaluations_per_second() >= 0.0);
    }

    #[test]
    fn every_frontier_point_respects_constraints() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let frontier = explorer.explore().unwrap();
        for p in frontier.iter() {
            assert_eq!(p.spec.array_size(), 16 * 1024);
            assert!(p.spec.height() >= p.spec.local_array());
            assert!(p.spec.capacitors_per_column() >= 1 << p.spec.adc_bits());
        }
    }

    #[test]
    fn best_by_selects_extremes() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let frontier = explorer.explore().unwrap();
        let best_throughput = frontier
            .best_by(|p| p.metrics.throughput_tops)
            .unwrap()
            .metrics
            .throughput_tops;
        for p in frontier.iter() {
            assert!(p.metrics.throughput_tops <= best_throughput + 1e-12);
        }
    }

    #[test]
    fn explore_with_default_options_matches_explore() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let cold = explorer.explore().unwrap();
        let mut generations = Vec::new();
        let injected = explorer
            .explore_with(&ExploreOptions::default(), |generation| {
                generations.push(generation)
            })
            .unwrap();
        assert_eq!(cold.len(), injected.len());
        for (a, b) in cold.iter().zip(injected.iter()) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.objective_vector(), b.objective_vector());
        }
        assert_eq!(generations, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn shared_cache_turns_a_replayed_run_into_pure_hits() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let store = acim_moga::CacheStore::new();
        let options = ExploreOptions {
            cache: Some(store.clone()),
            ..Default::default()
        };
        let first = explorer.explore_with(&options, |_| {}).unwrap();
        assert!(first.engine.cache.misses > 0);
        let entries_after_first = store.len();
        assert_eq!(entries_after_first, first.engine.cache.misses);

        // Same seed, same space, shared store: the replay's every
        // evaluation is a cross-run hit, and the frontier is unchanged.
        let replay = explorer.explore_with(&options, |_| {}).unwrap();
        assert_eq!(replay.engine.cache.misses, 0);
        assert_eq!(replay.engine.cache.hits, replay.engine.evaluations);
        assert_eq!(store.len(), entries_after_first);
        assert_eq!(first.len(), replay.len());
        for (a, b) in first.iter().zip(replay.iter()) {
            assert_eq!(a.spec, b.spec);
        }
    }

    #[test]
    fn warm_start_seeds_archive_and_population() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let cold = explorer.explore().unwrap();
        let seeds = explorer.session_genomes(cold.points());
        assert_eq!(seeds.len(), cold.len());
        let options = ExploreOptions {
            warm_start: seeds,
            ..Default::default()
        };
        let warm_a = explorer.explore_with(&options, |_| {}).unwrap();
        let warm_b = explorer.explore_with(&options, |_| {}).unwrap();
        // Warm runs are deterministic…
        assert_eq!(warm_a.len(), warm_b.len());
        for (a, b) in warm_a.iter().zip(warm_b.iter()) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.objective_vector(), b.objective_vector());
        }
        // …and every cold frontier point is matched-or-dominated in the
        // warm frontier (the seeds were archived up front).
        for cold_point in cold.iter() {
            let c = cold_point.objective_vector();
            assert!(
                warm_a.iter().any(|w| {
                    let w = w.objective_vector();
                    w == c || dominates(&w, &c)
                }),
                "cold frontier point lost by the warm run"
            );
        }
    }

    #[test]
    fn warm_runs_count_each_seed_lookup_once_in_both_explorers() {
        // One attribution rule for both explorers: a warm run's genome
        // cache sees every NSGA-II evaluation plus one up-front lookup
        // per seed (the seeds are scored before they are archived).
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let seeds = explorer.session_genomes(explorer.explore().unwrap().points());
        let options = ExploreOptions {
            warm_start: seeds.clone(),
            ..Default::default()
        };
        let warm = explorer.explore_with(&options, |_| {}).unwrap();
        assert!(!seeds.is_empty());
        assert_eq!(
            warm.engine.cache.total(),
            warm.engine.evaluations + seeds.len()
        );

        let chip = crate::ChipExplorer::new(crate::ChipDseConfig {
            population_size: 16,
            generations: 5,
            grid_rows: vec![1, 2],
            grid_cols: vec![1, 2],
            buffer_kib: vec![8, 32],
            ..crate::ChipDseConfig::for_mix(acim_chip::Network::edge_cnn(1))
        })
        .unwrap();
        let seeds = chip.session_genomes(chip.explore().unwrap().points());
        let options = ExploreOptions {
            warm_start: seeds.clone(),
            ..Default::default()
        };
        let warm = chip.explore_with(&options, |_| {}).unwrap();
        assert!(!seeds.is_empty());
        assert_eq!(
            warm.engine.cache.total(),
            warm.engine.evaluations + seeds.len()
        );
    }

    #[test]
    fn cancel_token_stops_the_run_at_a_generation_boundary() {
        use acim_moga::CancelToken;

        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let token = CancelToken::new();
        let options = ExploreOptions {
            cancel: Some(token.clone()),
            ..Default::default()
        };
        let mut seen = 0usize;
        let err = explorer
            .explore_with(&options, |generation| {
                seen = generation + 1;
                if generation == 4 {
                    token.cancel();
                }
            })
            .unwrap_err();
        assert_eq!(
            err,
            DseError::Cancelled {
                completed: 5,
                total: 20
            }
        );
        assert_eq!(seen, 5, "no generation ran after the cancel");
    }

    #[test]
    fn pre_tripped_token_stops_before_any_evaluation() {
        use acim_moga::{CacheStore, CancelToken};

        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let store = CacheStore::new();
        let options = ExploreOptions {
            cache: Some(store.clone()),
            cancel: Some(token),
            ..Default::default()
        };
        let err = explorer.explore_with(&options, |_| {}).unwrap_err();
        assert_eq!(
            err,
            DseError::Cancelled {
                completed: 0,
                total: 20
            }
        );
        assert_eq!(store.len(), 0, "no evaluation reached the shared store");
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        use acim_moga::CancelToken;
        use std::time::{Duration, Instant};

        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let options = ExploreOptions {
            cancel: Some(CancelToken::with_deadline(
                Instant::now() - Duration::from_millis(1),
            )),
            ..Default::default()
        };
        match explorer.explore_with(&options, |_| {}) {
            Err(DseError::DeadlineExceeded { completed, total }) => {
                assert_eq!(completed, 0);
                assert_eq!(total, 20);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn untripped_token_is_unobservable() {
        use acim_moga::CancelToken;

        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let plain = explorer.explore().unwrap();
        let options = ExploreOptions {
            cancel: Some(CancelToken::new()),
            ..Default::default()
        };
        let with_token = explorer.explore_with(&options, |_| {}).unwrap();
        assert_eq!(plain.len(), with_token.len());
        for (a, b) in plain.iter().zip(with_token.iter()) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.objective_vector(), b.objective_vector());
        }
    }

    #[test]
    fn wrong_length_warm_genome_is_rejected() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let options = ExploreOptions {
            warm_start: vec![vec![0.5; 7]],
            ..Default::default()
        };
        assert!(explorer.explore_with(&options, |_| {}).is_err());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut config = quick_config();
        config.population_size = 7;
        assert!(DesignSpaceExplorer::new(config).is_err());
        let mut config = quick_config();
        config.generations = 0;
        assert!(DesignSpaceExplorer::new(config).is_err());
        let mut config = quick_config();
        config.array_size = 9973;
        assert!(DesignSpaceExplorer::new(config).is_err());
    }
}
