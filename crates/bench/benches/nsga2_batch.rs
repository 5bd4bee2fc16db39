//! Batch-evaluation engine throughput on the chip design problem: the
//! same seeded NSGA-II search driven through (a) the forced-serial
//! evaluation path (the pre-batch behaviour), (b) the rayon
//! population-parallel batch path, and (c) the batch path behind the
//! decode-keyed memoizing cache the explorers use in production.
//!
//! All three produce bit-identical Pareto fronts (the `batch_eval`
//! integration tests prove it); this bench records what the engine buys
//! in wall-clock.  The measured medians are recorded in
//! `nsga2_batch_baseline.json` next to this file.

use acim_chip::Network;
use acim_dse::{ChipDesignProblem, ChipDseConfig};
use acim_moga::{CachedProblem, Evaluation, Nsga2, Nsga2Config, Problem};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Forwards `evaluate` only, so the trait-default serial batch is used.
struct ForcedSerial<P>(P);

impl<P: Problem> Problem for ForcedSerial<P> {
    fn num_variables(&self) -> usize {
        self.0.num_variables()
    }
    fn num_objectives(&self) -> usize {
        self.0.num_objectives()
    }
    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        self.0.evaluate(genes)
    }
}

fn chip_problem() -> ChipDesignProblem {
    // A deep network makes one chip evaluation substantial (per-layer
    // costing across up to 4x4 grids), which is the regime the parallel
    // batch path targets.
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
            let result = Nsga2::new(ForcedSerial(&problem), config.clone())
                .with_seed(7)
                .run();
            black_box(result.evaluations())
        })
    });

    group.bench_function("batch_parallel_eval", |b| {
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
    // (decode-valid) genomes through each path.
    let genomes: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            (0..problem.num_variables())
                .map(|j| ((i * 37 + j * 11) % 97) as f64 / 96.0)
                .collect()
        })
        .collect();
    group.bench_function("raw_batch_64_serial", |b| {
        b.iter(|| {
            black_box(
                ForcedSerial(&problem)
                    .evaluate_batch(black_box(&genomes))
                    .len(),
            )
        })
    });
    group.bench_function("raw_batch_64_parallel", |b| {
        b.iter(|| black_box(problem.evaluate_batch(black_box(&genomes)).len()))
    });

    group.finish();
}

criterion_group!(benches, nsga2_batch);
criterion_main!(benches);
