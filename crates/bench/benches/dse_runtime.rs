//! Criterion bench backing the Table 2 design-time claim: the agile
//! design-space exploration of a user-defined array size completes in
//! seconds to minutes, not weeks.

use acim_dse::{DesignSpaceExplorer, DseConfig};
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
    group.finish();
}

criterion_group!(benches, dse_runtime);
criterion_main!(benches);
