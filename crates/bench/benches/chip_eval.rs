//! Chip-level objective-evaluation throughput: the perf baseline for the
//! `acim-chip` analytic evaluator that NSGA-II calls thousands of times
//! per chip exploration.

use acim_arch::AcimSpec;
use acim_chip::{ChipEvaluator, ChipSpec, MacroGrid, Network, WorkloadMix};
use acim_dse::{ChipDesignProblem, ChipDseConfig};
use acim_moga::Problem;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn chip_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("chip_eval");
    group.sample_size(20);

    let evaluator = ChipEvaluator::s28_default();
    let spec = AcimSpec::from_dimensions(128, 32, 4, 4).expect("valid spec");
    let mix = WorkloadMix::from(Network::edge_cnn(3));

    for (name, rows, cols) in [("1x1", 1, 1), ("2x2", 2, 2), ("4x4", 4, 4)] {
        let chip = ChipSpec::new(
            MacroGrid::uniform(rows, cols, spec).expect("valid grid"),
            64,
        )
        .expect("valid chip");
        group.bench_with_input(BenchmarkId::new("evaluate_cnn", name), &chip, |b, chip| {
            b.iter(|| {
                black_box(
                    evaluator
                        .evaluate_mix(black_box(chip), &mix)
                        .expect("evaluates"),
                )
            })
        });
    }

    // Batch evaluation: a serial loop over the chips on the calling
    // thread, each costing its rounds serially — what `ChipDesignProblem`
    // runs for every NSGA-II generation.
    let chips: Vec<ChipSpec> = (1..=8)
        .map(|n| {
            ChipSpec::new(MacroGrid::uniform(1, n, spec).expect("valid grid"), 64)
                .expect("valid chip")
        })
        .collect();
    group.bench_function("evaluate_batch_8_chips", |b| {
        b.iter(|| {
            let results: Vec<_> = black_box(&chips)
                .iter()
                .map(|chip| evaluator.evaluate_mix(chip, &mix))
                .collect();
            black_box(results.len())
        })
    });

    // The full genome → objectives path NSGA-II drives.
    let problem =
        ChipDesignProblem::new(&ChipDseConfig::for_mix(mix.clone())).expect("valid problem");
    let genes = [0.5, 0.3, 0.6, 0.4, 0.4, 0.5];
    group.bench_function("problem_evaluate_genome", |b| {
        b.iter(|| black_box(problem.evaluate(black_box(&genes))))
    });

    group.finish();
}

criterion_group!(benches, chip_eval);
criterion_main!(benches);
