//! Macro-metric reuse speedup on heterogeneous-grid chip DSE.
//!
//! A heterogeneous chip genome carries per-tile macro genes, so exact
//! genome duplicates — the only thing the genome-level evaluation cache
//! can absorb — are rare; yet the *macros* on those grids are drawn from
//! a small catalogue that recurs across thousands of genomes.  The
//! macro-metric reuse layer caches per-macro `DesignMetrics` below the
//! genome cache, so every new genome reuses the per-macro work earlier
//! chips derived.
//!
//! Two comparisons, both against one long-lived `MacroMetricsCache` (the
//! steady state of a service serving repeated heterogeneous requests):
//!
//! * `macro_reuse/{no_reuse,reuse}` — whole DSE runs.  The saving here is
//!   real but small: NSGA-II's genome-level cache and the per-layer
//!   costing dominate a full exploration, so the reuse layer trims the
//!   median by a few percent.
//! * `macro_reuse/{eval_no_reuse,eval_reuse}` — raw serial evaluator batches
//!   of mixed-macro chips, free of the optimiser's noise.  This isolates
//!   the per-chip work the reuse layer absorbs (~1.3× at one worker).
//!
//! The setup asserts reuse-on and reuse-off frontiers are bit-identical
//! before timing anything: the gap is pure redundant-derivation work,
//! never a different search.

use acim_arch::AcimSpec;
use acim_chip::{ChipEvaluator, ChipSpec, MacroGrid, MacroMetricsCache, Network, WorkloadMix};
use acim_dse::{ChipDseConfig, ChipExplorer, ExploreOptions};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn hetero_config() -> ChipDseConfig {
    // Fixed 2x2 heterogeneous grids over a shallow network: four per-tile
    // macro gene triples make exact genome repeats (the only thing the
    // genome-level cache absorbs) much rarer than in uniform mode, while
    // the macro catalogue stays small — the regime where a few distinct
    // specs recur across many genomes and per-macro derivation is a large
    // share of the per-chip cost.  (Bigger grids would fold even more,
    // but 16 independent tile genes make almost every genome infeasible.)
    let mut config = ChipDseConfig::for_mix(Network::transformer_block());
    config.heterogeneous = true;
    config.grid_rows = vec![2];
    config.grid_cols = vec![2];
    config.population_size = 24;
    config.generations = 8;
    config
}

fn macro_reuse(c: &mut Criterion) {
    let explorer = ChipExplorer::new(hetero_config()).unwrap();

    // Correctness gate before the clocks start: reuse-on and reuse-off
    // frontiers must be bit-identical.
    let plain = explorer.explore().unwrap();
    let reuse_options = ExploreOptions {
        macro_cache: Some(MacroMetricsCache::new()),
        ..Default::default()
    };
    let reused = explorer.explore_with(&reuse_options, |_| {}).unwrap();
    assert_eq!(plain.len(), reused.len(), "reuse changed the frontier size");
    for (a, b) in plain.iter().zip(reused.iter()) {
        assert_eq!(
            a.objective_vector(),
            b.objective_vector(),
            "reuse changed a frontier point"
        );
        assert_eq!(a.chip, b.chip);
    }

    let mut group = c.benchmark_group("macro_reuse");
    group.sample_size(10);

    group.bench_function("no_reuse", |b| {
        b.iter(|| {
            let front = explorer.explore().unwrap();
            black_box(front.engine.evaluations)
        })
    });

    // One long-lived cache across iterations: after the first iteration
    // every distinct macro shape the search ever visits is cached, so the
    // steady state pays hash lookups instead of closed-form derivations.
    let cache = MacroMetricsCache::new();
    group.bench_function("reuse", |b| {
        b.iter(|| {
            let options = ExploreOptions {
                macro_cache: Some(cache.clone()),
                ..Default::default()
            };
            let front = explorer.explore_with(&options, |_| {}).unwrap();
            black_box(front.engine.macro_cache.hits)
        })
    });

    // The same comparison at the raw evaluator level, free of NSGA-II's
    // selection/variation noise: a batch of mixed-macro chips drawn from
    // a small catalogue, evaluated serially with and without a warm
    // macro-metric cache.  This isolates exactly the work the reuse
    // layer absorbs per chip.
    let mix = WorkloadMix::from(Network::transformer_block());
    let catalogue: Vec<AcimSpec> = [
        (128usize, 32usize, 2usize, 2u32),
        (128, 32, 4, 3),
        (128, 32, 8, 4),
        (64, 64, 4, 3),
        (64, 64, 8, 2),
        (256, 16, 2, 3),
        (256, 16, 4, 2),
        (512, 8, 8, 2),
    ]
    .iter()
    .map(|&(h, w, l, b)| AcimSpec::from_dimensions(h, w, l, b).unwrap())
    .collect();
    let chips: Vec<ChipSpec> = (0..64)
        .map(|i| {
            let tiles: Vec<AcimSpec> = (0..4)
                .map(|t| catalogue[(i * 5 + t * 3) % catalogue.len()])
                .collect();
            ChipSpec::new(MacroGrid::from_specs(2, 2, tiles).unwrap(), 32).unwrap()
        })
        .collect();

    let plain_eval = ChipEvaluator::s28_default();
    group.bench_function("eval_no_reuse", |b| {
        b.iter(|| {
            for chip in &chips {
                black_box(plain_eval.evaluate_mix(chip, &mix).unwrap());
            }
        })
    });
    let warm_eval = ChipEvaluator::s28_default().with_macro_cache(MacroMetricsCache::new());
    group.bench_function("eval_reuse", |b| {
        b.iter(|| {
            for chip in &chips {
                black_box(warm_eval.evaluate_mix(chip, &mix).unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, macro_reuse);
criterion_main!(benches);
