//! The NSGA-II main loop.
//!
//! Evaluation is **population-batched**: every generation's offspring are
//! collected first and scored through one [`Problem::evaluate_batch`] call,
//! so a memoizing wrapper sees the whole cohort at once (see
//! [`crate::CachedProblem`]).  Variation (selection, crossover, mutation)
//! never consumes randomness during evaluation, so the batched loop generates
//! exactly the genomes the historical one-at-a-time loop did — seeded runs
//! produce bit-identical Pareto fronts either way.

use std::ops::ControlFlow;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cached::CacheStats;
use crate::crowding::assign_crowding_distance;
use crate::dominance::{fast_non_dominated_sort, sort_fronts};
use crate::individual::Individual;
use crate::operators::{polynomial_mutation, random_genome, sbx_crossover};
use crate::problem::Problem;
use crate::selection::binary_tournament;

/// Configuration of an NSGA-II run.
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Config {
    /// Population size (must be even and ≥ 4).
    pub population_size: usize,
    /// Number of generations.
    pub generations: usize,
    /// SBX crossover probability per gene.
    pub crossover_probability: f64,
    /// SBX distribution index.
    pub crossover_eta: f64,
    /// Per-gene mutation probability.  `None` means `1 / num_variables`.
    pub mutation_probability: Option<f64>,
    /// Polynomial-mutation distribution index.
    pub mutation_eta: f64,
    /// Genomes injected into the initial population (the **warm-start**
    /// path): up to `population_size` of them are used verbatim (genes
    /// clamped to `[0, 1]`), the remainder is filled with uniform random
    /// genomes exactly as a cold run would generate them.  Empty (the
    /// default) keeps the historical all-random initial population and a
    /// bit-identical RNG stream, so cold runs are unaffected.
    pub initial_population: Vec<Vec<f64>>,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Self {
            population_size: 100,
            generations: 100,
            crossover_probability: 0.9,
            crossover_eta: 15.0,
            mutation_probability: None,
            mutation_eta: 20.0,
            initial_population: Vec::new(),
        }
    }
}

/// Aggregated evaluation-engine statistics of one optimiser run: how many
/// evaluations were requested, how the cache fared, and where the
/// wall-clock went.  Downstream result types (frontier sets, flow results)
/// embed this so every layer reports the same numbers the same way.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalStats {
    /// Number of objective evaluations requested from the problem (a
    /// memoizing problem like [`crate::CachedProblem`] may answer some of
    /// them from its cache; see [`EvalStats::cache`]).
    pub evaluations: usize,
    /// Hit/miss counters of the evaluation cache ([`CacheStats::default`]
    /// when no cache was involved).
    pub cache: CacheStats,
    /// Hit/miss counters of the **macro-metric reuse layer** — the cache
    /// of per-macro `DesignMetrics` consulted below the genome-level
    /// evaluation cache (see `acim_chip::MacroMetricsCache`).  Stays at
    /// the zero default for problems without a macro-metric cache.
    pub macro_cache: CacheStats,
    /// Wall-clock seconds spent inside [`Problem::evaluate_batch`].
    pub eval_seconds: f64,
    /// Wall-clock seconds per generation (variation + evaluation +
    /// environmental selection), one entry per generation.
    pub generation_seconds: Vec<f64>,
}

impl EvalStats {
    /// Objective evaluations per wall-clock second of evaluation time.
    ///
    /// Guaranteed finite: a run whose evaluation time is below the timer
    /// resolution (a `--quick` run answered entirely from a warm cache)
    /// reports `0.0` instead of leaking `inf`/`NaN` into reports
    /// (`tests/service.rs` asserts a full-hit replay renders cleanly).
    pub fn evaluations_per_second(&self) -> f64 {
        if self.eval_seconds > 0.0 {
            self.evaluations as f64 / self.eval_seconds
        } else {
            0.0
        }
    }

    /// Mean wall-clock seconds per generation (`0.0` for zero generations;
    /// never `NaN`).
    pub fn mean_generation_seconds(&self) -> f64 {
        if self.generation_seconds.is_empty() {
            0.0
        } else {
            self.generation_seconds.iter().sum::<f64>() / self.generation_seconds.len() as f64
        }
    }
}

/// Result of an NSGA-II run.
#[derive(Debug, Clone)]
pub struct Nsga2Result {
    /// Final population after the last environmental selection.
    pub population: Vec<Individual>,
    /// Number of generations executed.  Equals the configured generation
    /// budget unless the observer stopped the loop early with
    /// [`ControlFlow::Break`], in which case it counts the generations
    /// that actually ran.
    pub generations: usize,
    /// Evaluation-engine statistics of the run.  The optimiser cannot see
    /// a cache, so [`EvalStats::cache`] stays at its zero default; a
    /// caller that wrapped the problem in a [`crate::CachedProblem`]
    /// fills it in from the wrapper's counters.
    pub engine: EvalStats,
}

impl Nsga2Result {
    /// Returns the feasible, non-dominated individuals of the final
    /// population (rank 0).
    pub fn pareto_front(&self) -> Vec<&Individual> {
        self.population
            .iter()
            .filter(|ind| ind.rank == 0 && ind.is_feasible())
            .collect()
    }

    /// Returns the objective vectors of the Pareto front.
    pub fn pareto_objectives(&self) -> Vec<Vec<f64>> {
        self.pareto_front()
            .into_iter()
            .map(|ind| ind.objectives.to_vec())
            .collect()
    }

    /// Number of objective evaluations requested from the problem
    /// (shorthand for [`EvalStats::evaluations`]).
    pub fn evaluations(&self) -> usize {
        self.engine.evaluations
    }
}

/// NSGA-II optimiser over a [`Problem`].
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Nsga2<P: Problem> {
    problem: P,
    config: Nsga2Config,
    seed: u64,
}

impl<P: Problem> Nsga2<P> {
    /// Creates a new optimiser with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the population size is smaller than 4 or odd, if the
    /// problem has zero variables or objectives, or if a seeded initial
    /// genome does not have exactly `num_variables` genes.
    pub fn new(problem: P, config: Nsga2Config) -> Self {
        assert!(
            config.population_size >= 4 && config.population_size.is_multiple_of(2),
            "population size must be an even number >= 4"
        );
        assert!(problem.num_variables() > 0, "problem must have variables");
        assert!(problem.num_objectives() > 0, "problem must have objectives");
        for (i, genome) in config.initial_population.iter().enumerate() {
            assert_eq!(
                genome.len(),
                problem.num_variables(),
                "seeded genome {i} has {} genes, problem has {}",
                genome.len(),
                problem.num_variables()
            );
        }
        Self {
            problem,
            config,
            seed: 0xEA57_AC1B,
        }
    }

    /// Sets the RNG seed (runs are deterministic for a fixed seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration.
    pub fn config(&self) -> &Nsga2Config {
        &self.config
    }

    /// Runs the optimisation and returns the final population.
    pub fn run(&self) -> Nsga2Result {
        self.run_with_observer(|_, _| ControlFlow::Continue(()))
    }

    /// Runs the optimisation, invoking `observer(generation, population)`
    /// after every environmental selection (used for convergence studies
    /// and progress reporting).
    ///
    /// The observer's return value steers the loop: [`ControlFlow::Break`]
    /// stops the run at that generation boundary — the **cooperative
    /// cancellation** hook the service scheduler uses for
    /// `JobHandle::cancel()` and deadline expiry.  A broken run returns the
    /// population exactly as it stood after the observed generation's
    /// environmental selection, so everything executed so far (archives,
    /// cache fills, statistics) is identical to the same prefix of an
    /// uninterrupted run; [`Nsga2Result::generations`] reports how many
    /// generations actually ran.
    pub fn run_with_observer<F>(&self, mut observer: F) -> Nsga2Result
    where
        F: FnMut(usize, &[Individual]) -> ControlFlow<()>,
    {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n_var = self.problem.num_variables();
        let pop_size = self.config.population_size;
        let mutation_p = self
            .config
            .mutation_probability
            .unwrap_or(1.0 / n_var as f64);
        let mut evaluations = 0usize;
        let mut eval_seconds = 0.0f64;
        let mut generation_seconds = Vec::with_capacity(self.config.generations);

        // Evaluates a whole cohort of genomes through one batch call,
        // tracking the evaluation count and wall-clock spent.
        let evaluate_cohort = |genomes: Vec<Vec<f64>>,
                               evaluations: &mut usize,
                               eval_seconds: &mut f64|
         -> Vec<Individual> {
            let eval_start = Instant::now();
            let evals = self.problem.evaluate_batch(&genomes);
            *eval_seconds += eval_start.elapsed().as_secs_f64();
            assert_eq!(
                evals.len(),
                genomes.len(),
                "evaluate_batch must return one evaluation per genome"
            );
            *evaluations += genomes.len();
            genomes
                .into_iter()
                .zip(evals)
                .map(|(genes, eval)| Individual::new(genes, eval))
                .collect()
        };

        // Initial population: seeded genomes first (the warm-start path),
        // the remainder random.  With no seeds this is the historical
        // all-random cohort, drawn from an identical RNG stream.
        let mut genomes: Vec<Vec<f64>> = self
            .config
            .initial_population
            .iter()
            .take(pop_size)
            .map(|genome| genome.iter().map(|g| g.clamp(0.0, 1.0)).collect())
            .collect();
        while genomes.len() < pop_size {
            genomes.push(random_genome(&mut rng, n_var));
        }
        let mut population = evaluate_cohort(genomes, &mut evaluations, &mut eval_seconds);
        let fronts = fast_non_dominated_sort(&mut population);
        for front in &fronts {
            assign_crowding_distance(&mut population, front);
        }

        let mut executed_generations = 0usize;
        for generation in 0..self.config.generations {
            let generation_start = Instant::now();
            // Variation: collect the whole offspring cohort first (no
            // evaluations interleaved, so the RNG stream is identical to
            // the historical evaluate-as-you-go loop)…
            let mut offspring_genomes: Vec<Vec<f64>> = Vec::with_capacity(pop_size);
            while offspring_genomes.len() < pop_size {
                let parent_a = binary_tournament(&mut rng, &population);
                let parent_b = binary_tournament(&mut rng, &population);
                let (mut child_a, mut child_b) = sbx_crossover(
                    &mut rng,
                    &population[parent_a].genes,
                    &population[parent_b].genes,
                    self.config.crossover_eta,
                    self.config.crossover_probability,
                );
                polynomial_mutation(&mut rng, &mut child_a, self.config.mutation_eta, mutation_p);
                polynomial_mutation(&mut rng, &mut child_b, self.config.mutation_eta, mutation_p);
                for child in [child_a, child_b] {
                    if offspring_genomes.len() >= pop_size {
                        break;
                    }
                    offspring_genomes.push(child);
                }
            }
            // …then score it through one batch call.
            let mut offspring =
                evaluate_cohort(offspring_genomes, &mut evaluations, &mut eval_seconds);

            // Environmental selection over parents ∪ offspring.
            let mut combined = population;
            combined.append(&mut offspring);
            population = environmental_selection(combined, pop_size);
            generation_seconds.push(generation_start.elapsed().as_secs_f64());
            executed_generations = generation + 1;
            if observer(generation, &population).is_break() {
                break;
            }
        }

        Nsga2Result {
            population,
            generations: executed_generations,
            engine: EvalStats {
                evaluations,
                eval_seconds,
                generation_seconds,
                ..EvalStats::default()
            },
        }
    }
}

/// NSGA-II environmental selection: the best `pop_size` individuals of
/// `combined` by rank, then crowding distance, with the ranks and
/// crowding distances a re-sort of the survivors would assign.
///
/// Survivors keep their ranks: every dominator of a survivor lies in an
/// earlier front, and earlier fronts survive whole, so a re-sort of the
/// survivors sees the same dominators.  Whole fronts keep the crowding
/// distances computed over `combined`, since a re-sort lists them in the
/// same member order.  Only the cut front is re-crowded, over its
/// survivors, in the order a re-sort lists them: by the position of each
/// survivor's last dominator in the previous front, then by its position
/// in the survivor list, which is crowding-descending.
fn environmental_selection(mut combined: Vec<Individual>, pop_size: usize) -> Vec<Individual> {
    let sorted = sort_fronts(&mut combined);
    let mut next: Vec<Individual> = Vec::with_capacity(pop_size);
    for front in &sorted.fronts {
        let room = pop_size - next.len();
        if room == 0 {
            break;
        }
        assign_crowding_distance(&mut combined, front);
        if front.len() <= room {
            next.extend(front.iter().map(|&i| combined[i].clone()));
            continue;
        }
        let mut survivors: Vec<usize> = front.clone();
        survivors.sort_by(|&a, &b| {
            combined[b]
                .crowding_distance
                .partial_cmp(&combined[a].crowding_distance)
                .expect("crowding distance is never NaN")
        });
        survivors.truncate(room);
        let start = next.len();
        next.extend(survivors.iter().map(|&i| combined[i].clone()));
        let mut cut: Vec<usize> = (start..next.len()).collect();
        cut.sort_by_key(|&p| sorted.last_dominator[survivors[p - start]]);
        assign_crowding_distance(&mut next, &cut);
        break;
    }
    next
}

/// The sort, truncate and re-sort selection [`environmental_selection`]
/// replaces, kept as its oracle.
#[cfg(test)]
fn environmental_selection_reference(
    mut combined: Vec<Individual>,
    pop_size: usize,
) -> Vec<Individual> {
    use crate::dominance::fast_non_dominated_sort_reference;
    let fronts = fast_non_dominated_sort_reference(&mut combined);
    let mut next: Vec<Individual> = Vec::with_capacity(pop_size);
    for front in &fronts {
        assign_crowding_distance(&mut combined, front);
        if next.len() + front.len() <= pop_size {
            for &i in front {
                next.push(combined[i].clone());
            }
        } else {
            let mut sorted: Vec<usize> = front.clone();
            sorted.sort_by(|&a, &b| {
                combined[b]
                    .crowding_distance
                    .partial_cmp(&combined[a].crowding_distance)
                    .expect("crowding distance is never NaN")
            });
            for &i in sorted.iter().take(pop_size - next.len()) {
                next.push(combined[i].clone());
            }
            break;
        }
    }
    // Re-rank the trimmed population so observers and the final result
    // see consistent rank/crowding values.
    let fronts = fast_non_dominated_sort_reference(&mut next);
    for front in &fronts {
        assign_crowding_distance(&mut next, front);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Evaluation;

    /// ZDT1-like bi-objective benchmark on 5 variables.
    struct Zdt1;

    impl Problem for Zdt1 {
        fn num_variables(&self) -> usize {
            5
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn evaluate(&self, genes: &[f64]) -> Evaluation {
            let f1 = genes[0];
            let g = 1.0 + 9.0 * genes[1..].iter().sum::<f64>() / (genes.len() - 1) as f64;
            let f2 = g * (1.0 - (f1 / g).sqrt());
            Evaluation::unconstrained(vec![f1, f2])
        }
        fn name(&self) -> &str {
            "zdt1"
        }
    }

    /// Constrained problem: minimise (x, y) subject to x + y >= 1.
    struct ConstrainedSum;

    impl Problem for ConstrainedSum {
        fn num_variables(&self) -> usize {
            2
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn evaluate(&self, genes: &[f64]) -> Evaluation {
            let violation = (1.0 - (genes[0] + genes[1])).max(0.0);
            Evaluation::new(vec![genes[0], genes[1]], violation)
        }
    }

    /// Coarse-grid problem: objectives and violations snap to a 0.25
    /// grid, so fronts hold many ties and duplicate rows, and the corner
    /// `x1 + x2 < 0.5` is infeasible with tied violations.
    struct CoarseGrid;

    impl Problem for CoarseGrid {
        fn num_variables(&self) -> usize {
            3
        }
        fn num_objectives(&self) -> usize {
            3
        }
        fn evaluate(&self, genes: &[f64]) -> Evaluation {
            let snap = |x: f64| (x * 4.0).round() / 4.0;
            let objectives = vec![
                snap(genes[0]),
                snap(1.0 - genes[0] * genes[1]),
                snap(genes[2] + (1.0 - genes[1]) / 2.0),
            ];
            let violation = ((0.5 - genes[1] - genes[2]).max(0.0) * 4.0).ceil() / 4.0;
            Evaluation::new(objectives, violation)
        }
    }

    fn small_config() -> Nsga2Config {
        Nsga2Config {
            population_size: 40,
            generations: 40,
            ..Default::default()
        }
    }

    /// Every bit of a population, one row per individual in order: genes,
    /// objective and violation bits, rank and crowding bits.
    fn population_bits(population: &[Individual]) -> Vec<Vec<u64>> {
        population
            .iter()
            .map(|ind| {
                ind.genes
                    .iter()
                    .chain(ind.objectives.iter())
                    .chain([&ind.constraint_violation])
                    .map(|value| value.to_bits())
                    .chain([ind.rank as u64, ind.crowding_distance.to_bits()])
                    .collect()
            })
            .collect()
    }

    /// FNV-1a (64 bit) over [`population_bits`].
    fn population_digest(population: &[Individual]) -> u64 {
        population_bits(population)
            .iter()
            .flatten()
            .flat_map(|word| word.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn carried_selection_matches_sort_truncate_and_resort() {
        use crate::dominance::{fast_non_dominated_sort_reference, grid_population};
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x5e1e);
        let (mut front0_cuts, mut later_cuts, mut exact_fills) = (0, 0, 0);
        for _ in 0..300 {
            let n = rng.gen_range(4..=400usize);
            let m = rng.gen_range(1..=4usize);
            let combined = grid_population(&mut rng, n, m);
            let sizes: Vec<usize> = fast_non_dominated_sort_reference(&mut combined.clone())
                .iter()
                .map(Vec::len)
                .collect();
            let k = rng.gen_range(0..sizes.len());
            let filled: usize = sizes[..k].iter().sum();
            let mut pop_sizes = vec![filled + sizes[k]];
            if sizes[k] > 1 {
                pop_sizes.push(filled + rng.gen_range(1..sizes[k]));
            }
            for pop_size in pop_sizes {
                match (pop_size - filled == sizes[k], k) {
                    (true, _) => exact_fills += 1,
                    (false, 0) => front0_cuts += 1,
                    (false, _) => later_cuts += 1,
                }
                assert_eq!(
                    population_bits(&environmental_selection(combined.clone(), pop_size)),
                    population_bits(&environmental_selection_reference(
                        combined.clone(),
                        pop_size
                    )),
                    "n {n}, m {m}, pop_size {pop_size}, fronts {sizes:?}"
                );
            }
        }
        assert!(front0_cuts >= 20 && later_cuts >= 100 && exact_fills >= 100);
    }

    #[test]
    fn final_populations_are_pinned() {
        fn digest(problem: impl Problem, seed: u64) -> u64 {
            population_digest(
                &Nsga2::new(problem, small_config())
                    .with_seed(seed)
                    .run()
                    .population,
            )
        }
        let got = [
            [digest(Zdt1, 1), digest(Zdt1, 2), digest(Zdt1, 3)],
            [
                digest(ConstrainedSum, 1),
                digest(ConstrainedSum, 2),
                digest(ConstrainedSum, 3),
            ],
            [
                digest(CoarseGrid, 1),
                digest(CoarseGrid, 2),
                digest(CoarseGrid, 3),
            ],
        ];
        let expected = [
            [
                0xa722_b0c0_2b49_d596,
                0xe09f_715c_c084_8e85,
                0xb80a_0161_b9b3_f293,
            ],
            [
                0xa563_845b_0e1b_1a92,
                0xd986_c92d_61eb_a158,
                0x00ee_fa67_9ebc_47c7,
            ],
            [
                0x5211_9249_e5c8_cbc6,
                0x7696_65ea_3e67_bd4b,
                0xb68e_ad7d_01d5_2a40,
            ],
        ];
        assert_eq!(got, expected, "{got:#018x?}");
    }

    #[test]
    fn converges_towards_zdt1_front() {
        let result = Nsga2::new(Zdt1, small_config()).with_seed(11).run();
        let front = result.pareto_front();
        assert!(front.len() >= 10, "front too small: {}", front.len());
        // On the true ZDT1 front, g = 1 and f2 = 1 - sqrt(f1).  Check the
        // population got reasonably close.
        let mean_gap: f64 = front
            .iter()
            .map(|ind| {
                let f1 = ind.objectives[0];
                let f2 = ind.objectives[1];
                (f2 - (1.0 - f1.sqrt())).abs()
            })
            .sum::<f64>()
            / front.len() as f64;
        assert!(mean_gap < 0.25, "mean gap to true front is {mean_gap}");
    }

    #[test]
    fn runs_are_deterministic_for_fixed_seed() {
        let a = Nsga2::new(Zdt1, small_config()).with_seed(3).run();
        let b = Nsga2::new(Zdt1, small_config()).with_seed(3).run();
        assert_eq!(a.pareto_objectives(), b.pareto_objectives());
        let c = Nsga2::new(Zdt1, small_config()).with_seed(4).run();
        assert_ne!(a.pareto_objectives(), c.pareto_objectives());
    }

    #[test]
    fn evaluation_count_matches_schedule() {
        let config = small_config();
        let expected = config.population_size * (config.generations + 1);
        let result = Nsga2::new(Zdt1, config).with_seed(5).run();
        assert_eq!(result.evaluations(), expected);
    }

    #[test]
    fn constrained_problem_yields_feasible_front() {
        let result = Nsga2::new(ConstrainedSum, small_config())
            .with_seed(7)
            .run();
        let front = result.pareto_front();
        assert!(!front.is_empty());
        for ind in &front {
            assert!(ind.is_feasible());
            // Feasible front lies on x + y = 1 (within mutation noise).
            let sum = ind.objectives[0] + ind.objectives[1];
            assert!(sum >= 1.0 - 1e-9, "infeasible point on front: sum = {sum}");
            assert!(sum < 1.2, "front did not converge to the boundary: {sum}");
        }
    }

    #[test]
    fn observer_sees_every_generation() {
        let mut seen = Vec::new();
        let result = Nsga2::new(Zdt1, small_config())
            .with_seed(9)
            .run_with_observer(|generation, pop| {
                assert_eq!(pop.len(), 40);
                seen.push(generation);
                ControlFlow::Continue(())
            });
        assert_eq!(seen.len(), 40);
        assert_eq!(seen[0], 0);
        assert_eq!(*seen.last().unwrap(), 39);
        assert_eq!(result.generations, 40);
    }

    #[test]
    fn breaking_observer_stops_at_the_generation_boundary() {
        let mut seen = Vec::new();
        let result = Nsga2::new(Zdt1, small_config())
            .with_seed(9)
            .run_with_observer(|generation, _pop| {
                seen.push(generation);
                if generation == 6 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
        // The loop stops after the observed generation completes: seven
        // generations ran (0..=6), none after the break.
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(result.generations, 7);
        assert_eq!(result.engine.generation_seconds.len(), 7);
        assert_eq!(result.population.len(), 40);
        // An interrupted run's population is the same prefix an
        // uninterrupted run passed through: compare against the full run's
        // observer snapshot at generation 6.
        let mut snapshot: Vec<Vec<f64>> = Vec::new();
        let _ = Nsga2::new(Zdt1, small_config())
            .with_seed(9)
            .run_with_observer(|generation, pop| {
                if generation == 6 {
                    snapshot = pop.iter().map(|ind| ind.objectives.to_vec()).collect();
                }
                ControlFlow::Continue(())
            });
        let broken: Vec<Vec<f64>> = result
            .population
            .iter()
            .map(|ind| ind.objectives.to_vec())
            .collect();
        assert_eq!(broken, snapshot);
    }

    #[test]
    fn empty_seed_list_is_bit_identical_to_the_historical_cold_path() {
        let cold = Nsga2::new(Zdt1, small_config()).with_seed(19).run();
        let config = Nsga2Config {
            initial_population: Vec::new(),
            ..small_config()
        };
        let explicit = Nsga2::new(Zdt1, config).with_seed(19).run();
        assert_eq!(cold.pareto_objectives(), explicit.pareto_objectives());
    }

    #[test]
    fn seeded_initial_population_is_deterministic_and_used_verbatim() {
        let seeds = vec![
            vec![0.25, 0.5, 0.5, 0.5, 0.5],
            vec![1.5, -0.25, 0.0, 0.0, 0.0],
        ];
        let config = Nsga2Config {
            initial_population: seeds,
            ..small_config()
        };
        let a = Nsga2::new(Zdt1, config.clone()).with_seed(23).run();
        let b = Nsga2::new(Zdt1, config.clone()).with_seed(23).run();
        assert_eq!(a.pareto_objectives(), b.pareto_objectives());
        // The warm run differs from the cold one (the seeds change the
        // initial cohort, hence the whole trajectory).
        let cold = Nsga2::new(Zdt1, small_config()).with_seed(23).run();
        assert_ne!(a.pareto_objectives(), cold.pareto_objectives());
        // Out-of-range seed genes were clamped, never fed to the problem
        // raw: every evaluation stays finite on ZDT1's [0, 1] domain.
        assert!(a
            .population
            .iter()
            .all(|ind| ind.objectives.iter().all(|o| o.is_finite())));
    }

    #[test]
    fn surplus_seeds_are_truncated_to_the_population() {
        let seeds: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i) / 100.0; 5]).collect();
        let config = Nsga2Config {
            population_size: 8,
            generations: 2,
            initial_population: seeds,
            ..Default::default()
        };
        let result = Nsga2::new(Zdt1, config).with_seed(29).run();
        assert_eq!(result.population.len(), 8);
    }

    #[test]
    #[should_panic(expected = "seeded genome")]
    fn wrong_length_seed_genome_is_rejected() {
        let config = Nsga2Config {
            initial_population: vec![vec![0.5; 3]],
            ..small_config()
        };
        let _ = Nsga2::new(Zdt1, config);
    }

    #[test]
    #[should_panic(expected = "even number")]
    fn odd_population_size_is_rejected() {
        let config = Nsga2Config {
            population_size: 11,
            ..Default::default()
        };
        let _ = Nsga2::new(Zdt1, config);
    }

    #[test]
    fn final_population_has_exact_size() {
        let result = Nsga2::new(Zdt1, small_config()).with_seed(13).run();
        assert_eq!(result.population.len(), 40);
    }

    /// Records the size of every batch the optimiser requests.
    struct BatchProbe {
        batch_sizes: std::sync::Mutex<Vec<usize>>,
    }

    impl Problem for BatchProbe {
        fn num_variables(&self) -> usize {
            2
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn evaluate(&self, genes: &[f64]) -> Evaluation {
            Evaluation::unconstrained(vec![genes[0], genes[1]])
        }
        fn evaluate_batch(&self, genomes: &[Vec<f64>]) -> Vec<Evaluation> {
            self.batch_sizes.lock().unwrap().push(genomes.len());
            genomes.iter().map(|g| self.evaluate(g)).collect()
        }
    }

    #[test]
    fn every_generation_is_one_population_sized_batch() {
        let probe = BatchProbe {
            batch_sizes: std::sync::Mutex::new(Vec::new()),
        };
        let config = small_config();
        let _ = Nsga2::new(&probe, config.clone()).with_seed(21).run();
        let sizes = probe.batch_sizes.lock().unwrap();
        // One batch for the initial population + one per generation.
        assert_eq!(sizes.len(), config.generations + 1);
        assert!(sizes.iter().all(|&s| s == config.population_size));
    }

    #[test]
    fn run_reports_timing_stats() {
        let result = Nsga2::new(Zdt1, small_config()).with_seed(17).run();
        let engine = &result.engine;
        assert_eq!(engine.generation_seconds.len(), 40);
        assert!(engine.generation_seconds.iter().all(|&s| s >= 0.0));
        assert!(engine.eval_seconds >= 0.0);
        // The optimiser itself never sees a cache.
        assert_eq!(engine.cache, CacheStats::default());
        assert_eq!(engine.evaluations, result.evaluations());
        assert!(engine.evaluations_per_second() >= 0.0);
        assert!(engine.mean_generation_seconds() >= 0.0);
        assert_eq!(EvalStats::default().evaluations_per_second(), 0.0);
        assert_eq!(EvalStats::default().mean_generation_seconds(), 0.0);
    }
}
