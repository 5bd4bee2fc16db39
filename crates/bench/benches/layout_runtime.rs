//! Criterion bench backing the Table 2 / Section 4 claim that layout
//! generation for one Pareto-frontier solution finishes in minutes: measures
//! the column-template build (placement + intra-column routing) and the full
//! macro assembly for a small and a 16 kb specification, plus the assembly
//! of the widest 16 kb macro (1024 placements of one column).

use acim_arch::AcimSpec;
use acim_cell::CellLibrary;
use acim_layout::{ColumnTemplate, LayoutFlow};
use acim_tech::Technology;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn layout_runtime(c: &mut Criterion) {
    let tech = Technology::s28();
    let library = CellLibrary::s28_default(&tech);

    let mut group = c.benchmark_group("layout_runtime");
    group.sample_size(10);

    let specs = [
        (
            "1kb_64x16_l4_b3",
            AcimSpec::from_dimensions(64, 16, 4, 3).expect("valid"),
        ),
        (
            "16kb_128x128_l8_b3",
            AcimSpec::from_dimensions(128, 128, 8, 3).expect("valid"),
        ),
        (
            "16kb_16x1024_l2_b3",
            AcimSpec::from_dimensions(16, 1024, 2, 3).expect("valid"),
        ),
    ];
    for (name, spec) in &specs[..2] {
        group.bench_with_input(
            BenchmarkId::new("column_template", name),
            spec,
            |b, spec| {
                b.iter(|| {
                    let template = ColumnTemplate::build(spec, &tech, &library).expect("builds");
                    black_box(template.layout.instances.len())
                });
            },
        );
    }
    for (name, spec) in &specs {
        group.bench_with_input(BenchmarkId::new("full_macro", name), spec, |b, spec| {
            let flow = LayoutFlow::new(&tech, &library);
            b.iter(|| {
                let result = flow.generate(spec).expect("generates");
                black_box(result.metrics.instance_count)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, layout_runtime);
criterion_main!(benches);
