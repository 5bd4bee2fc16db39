//! Batch-evaluation engine throughput on the chip design problem: the
//! same seeded NSGA-II search driven through (a) the problem's own batch
//! path, the serial map on the calling thread, and (b) that path behind
//! the decode-keyed memoizing cache the explorers use in production.
//!
//! Both produce bit-identical Pareto fronts (the `batch_eval`
//! integration tests prove it); this bench records what the cache buys
//! in wall-clock.  The measured medians are recorded in
//! `nsga2_batch_baseline.json` next to this file.

use acim_chip::Network;
use acim_dse::{ChipDesignProblem, ChipDseConfig};
use acim_moga::{CachedProblem, Nsga2, Nsga2Config, Problem};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn chip_problem() -> ChipDesignProblem {
    // A deep network makes one chip evaluation substantial (per-layer
    // costing across up to 4x4 grids).
    ChipDesignProblem::new(&ChipDseConfig::for_mix(Network::edge_cnn(16))).expect("valid problem")
}

fn nsga2_config() -> Nsga2Config {
    Nsga2Config {
        population_size: 32,
        generations: 6,
        ..Default::default()
    }
}

fn nsga2_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("nsga2_batch");
    group.sample_size(10);

    let problem = chip_problem();
    let config = nsga2_config();

    group.bench_function("serial_eval", |b| {
        b.iter(|| {
            let result = Nsga2::new(&problem, config.clone()).with_seed(7).run();
            black_box(result.evaluations())
        })
    });

    group.bench_function("batch_cached_eval", |b| {
        b.iter(|| {
            // A fresh cache per run, as the explorers use it.
            let cached = CachedProblem::with_key_fn(&problem, |g| problem.cache_key(g));
            let result = Nsga2::new(&cached, config.clone()).with_seed(7).run();
            black_box((result.evaluations(), cached.stats().hits))
        })
    });

    // The raw batch primitive: one population-sized cohort of random
    // (decode-valid) genomes.
    let genomes: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            (0..problem.num_variables())
                .map(|j| ((i * 37 + j * 11) % 97) as f64 / 96.0)
                .collect()
        })
        .collect();
    group.bench_function("raw_batch_64_serial", |b| {
        b.iter(|| black_box(problem.evaluate_batch(black_box(&genomes)).len()))
    });

    group.finish();
}

criterion_group!(benches, nsga2_batch);
criterion_main!(benches);
