//! Cross-crate tests of the evaluation engine: a property test that
//! cached evaluation is bit-identical to uncached evaluation on the macro
//! problem, bit-identical seeded NSGA-II fronts with and without the
//! genome and macro-metric caches, and determinism of seeded macro and
//! chip explorations.

use acim_dse::{
    AcimDesignProblem, ChipDseConfig, ChipExplorer, DesignSpaceExplorer, DseConfig, Explorable,
};
use acim_model::ModelParams;
use acim_moga::{CacheStore, CachedProblem, Evaluation, Nsga2, Nsga2Config, Problem};
use proptest::prelude::*;

fn macro_problem() -> AcimDesignProblem {
    AcimDesignProblem::new(16 * 1024, 16, 1024, ModelParams::s28_default()).unwrap()
}

fn chip_config(heterogeneous: bool) -> ChipDseConfig {
    use acim_chip::Network;
    ChipDseConfig {
        population_size: 24,
        generations: 8,
        grid_rows: vec![1, 2],
        grid_cols: vec![1, 2],
        buffer_kib: vec![8, 32],
        heterogeneous,
        ..ChipDseConfig::for_mix(Network::edge_cnn(1))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_batch_is_bit_identical_to_uncached(
        genomes in prop::collection::vec(prop::collection::vec(0.0..1.0f64, 3), 1..40)
    ) {
        let problem = macro_problem();
        let cached =
            CachedProblem::new(problem.clone(), CacheStore::new(), |genes| problem.cache_key(genes));
        let evaluate_all = |p: &dyn Problem| -> Vec<Evaluation> {
            genomes.iter().map(|genes| p.evaluate(genes)).collect()
        };
        // Evaluate the list twice: the second pass is all cache hits and
        // must still be bit-identical.
        let uncached = evaluate_all(&problem);
        prop_assert_eq!(&evaluate_all(&cached), &uncached);
        prop_assert_eq!(&evaluate_all(&cached), &uncached);
        prop_assert!(cached.stats().hits >= genomes.len());
    }
}

#[test]
fn seeded_macro_front_is_identical_with_and_without_a_metric_cache() {
    // A detached macro problem derives every spec's metrics on each
    // call; an attached macro-metric cache derives each spec
    // once and serves repeats from the shared store.  A seeded exploration
    // must produce a bit-identical Pareto front either way — the cache is
    // only allowed to save work, never to change a result.
    use acim_chip::MacroMetricsCache;
    let config = Nsga2Config {
        population_size: 24,
        generations: 10,
        ..Default::default()
    };
    for seed in [3u64, 0xF00D] {
        let detached = Nsga2::new(macro_problem(), config.clone())
            .with_seed(seed)
            .run();
        let cached = Nsga2::new(
            macro_problem().with_macro_cache(MacroMetricsCache::new()),
            config.clone(),
        )
        .with_seed(seed)
        .run();
        assert_eq!(detached.pareto_objectives(), cached.pareto_objectives());
        for (a, b) in detached.population.iter().zip(&cached.population) {
            assert_eq!(a.genes, b.genes);
            assert_eq!(a.objectives, b.objectives);
        }
    }
}

#[test]
fn cached_nsga2_produces_the_same_front_as_uncached() {
    let config = Nsga2Config {
        population_size: 24,
        generations: 12,
        ..Default::default()
    };
    let problem = macro_problem();
    let cached = CachedProblem::new(&problem, CacheStore::new(), |genes| {
        problem.cache_key(genes)
    });
    let plain_run = Nsga2::new(&problem, config.clone()).with_seed(5).run();
    let cached_run = Nsga2::new(&cached, config).with_seed(5).run();
    assert_eq!(
        plain_run.pareto_objectives(),
        cached_run.pareto_objectives()
    );
    let stats = cached.stats();
    assert_eq!(stats.total(), cached_run.evaluations());
    assert!(stats.hits > 0, "discrete space must re-sample designs");
}

#[test]
fn seeded_macro_exploration_archives_are_identical_across_runs() {
    let config = DseConfig {
        population_size: 32,
        generations: 15,
        ..Default::default()
    };
    let explorer = DesignSpaceExplorer::new(config).unwrap();
    let a = explorer.explore().unwrap();
    let b = explorer.explore().unwrap();
    assert_eq!(a.len(), b.len());
    assert_eq!(a.engine.evaluations, b.engine.evaluations);
    assert_eq!(a.engine.cache, b.engine.cache);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.objective_vector(), y.objective_vector());
    }
}

#[test]
fn seeded_chip_exploration_archives_are_identical_across_runs() {
    for heterogeneous in [false, true] {
        let explorer = ChipExplorer::new(chip_config(heterogeneous)).unwrap();
        let a = explorer.explore().unwrap();
        let b = explorer.explore().unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.engine.evaluations, b.engine.evaluations);
        assert_eq!(a.engine.cache, b.engine.cache);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.chip, y.chip);
            assert_eq!(x.objective_vector(), y.objective_vector());
        }
    }
}

#[test]
fn heterogeneous_genome_space_contains_the_uniform_space() {
    // Every uniform chip is encodable in the heterogeneous genome and
    // decodes to the same design point.
    let uniform = acim_dse::ChipDesignProblem::new(&chip_config(false)).unwrap();
    let hetero = acim_dse::ChipDesignProblem::new(&chip_config(true)).unwrap();
    let candidate = acim_dse::encoding::Candidate {
        height: 128,
        width: 32,
        local_array: 4,
        adc_bits: 3,
    };
    let genes_u = uniform.encode(&candidate, 2, 2, 32).unwrap();
    let genes_h = hetero.encode(&candidate, 2, 2, 32).unwrap();
    let point_u = uniform.decode_point(&genes_u).unwrap();
    let point_h = hetero.decode_point(&genes_h).unwrap();
    assert_eq!(point_u.chip, point_h.chip);
    assert_eq!(point_u.objective_vector(), point_h.objective_vector());
}
