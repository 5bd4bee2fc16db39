//! Criterion bench backing the Table 2 design-time claim: the agile
//! design-space exploration of a user-defined array size completes in
//! seconds to minutes, not weeks.  Beside the macro explorations, one
//! chip exploration at the exploration service's budget.

use acim_chip::Network;
use acim_dse::{ChipDseConfig, ChipExplorer, DesignSpaceExplorer, DseConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn dse_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("dse_runtime");
    group.sample_size(10);
    // 40 x 20 at 4 kb and 16 kb, and the paper's budget (200 x 100) at
    // 16 kb, where environmental selection dominates the run.
    let cases = [
        ("nsga2_explore", 4 * 1024usize, 40usize, 20usize),
        ("nsga2_explore", 16 * 1024, 40, 20),
        ("nsga2_explore_paper", 16 * 1024, 200, 100),
    ];
    for (name, array_size, population_size, generations) in cases {
        group.bench_with_input(
            BenchmarkId::new(name, array_size),
            &array_size,
            |b, &array_size| {
                let config = DseConfig {
                    array_size,
                    population_size,
                    generations,
                    ..DseConfig::default()
                };
                let explorer = DesignSpaceExplorer::new(config).expect("valid config");
                b.iter(|| {
                    let frontier = explorer.explore().expect("exploration succeeds");
                    black_box(frontier.len())
                });
            },
        );
    }
    // One chip exploration at the service's request budget (pop 40 x 24,
    // edge_cnn(3)): every generation's cache misses are scored on the
    // calling thread.
    let mut config = ChipDseConfig::for_mix(Network::edge_cnn(3));
    config.population_size = 40;
    config.generations = 24;
    let explorer = ChipExplorer::new(config).expect("valid config");
    group.bench_function(BenchmarkId::new("chip_explore", "edge_cnn3"), |b| {
        b.iter(|| {
            let frontier = explorer.explore().expect("exploration succeeds");
            black_box(frontier.len())
        });
    });
    group.finish();
}

criterion_group!(benches, dse_runtime);
criterion_main!(benches);
