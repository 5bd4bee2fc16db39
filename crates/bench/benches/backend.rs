//! Back-half bench: what the flow does per distilled design after
//! exploration, one step at a time.
//!
//! * `generate` — `NetlistGenerator::generate`, including the
//!   `Design::validate` it ends with;
//! * `stats` — `design_stats` of that design;
//! * `spice` — `write_spice` of that design;
//! * `def`, `gds` — `write_def` and `write_gds_text` of the macro layout.
//!
//! Two macros load these steps differently.  1024×16 L2 B8 is
//! connection-count bound: every column instance holds about 2,000 nets,
//! each one index into the top module's net table, which the generator
//! fills, validation range-checks and the SPICE writer resolves to a name.
//! 32×512 L2 B3 is name and shape bound: its top module formats about
//! 6,300 net and instance names, and its DEF and GDS text run to about
//! 15 MB and 950,000 coordinates each.  Both writers append every line to
//! one buffer reserved from the layout's counts.  On a 2-vCPU container,
//! formatting the coordinates took about half of their time, copying
//! names about a sixth, and the first touch of the buffer's fresh pages
//! most of the rest: a copy of the finished DEF into fresh memory took
//! about 14 ms, into memory already touched 3 ms.  The netlist and
//! layouts are built once outside the timed loops of the other steps;
//! `LayoutFlow::generate` has its own bench (`layout_runtime`).

use acim_arch::AcimSpec;
use acim_cell::CellLibrary;
use acim_layout::{write_def, write_gds_text, LayoutFlow};
use acim_netlist::{design_stats, write_spice, NetlistGenerator};
use acim_tech::Technology;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn backend(c: &mut Criterion) {
    let tech = Technology::s28();
    let library = CellLibrary::s28_default(&tech);
    let generator = NetlistGenerator::new(&library);
    let flow = LayoutFlow::new(&tech, &library);

    let mut group = c.benchmark_group("backend");
    group.sample_size(10);
    for (name, (h, w, l, bits)) in [
        ("1024x16_l2_b8", (1024, 16, 2, 8)),
        ("32x512_l2_b3", (32, 512, 2, 3)),
    ] {
        let spec = AcimSpec::from_dimensions(h, w, l, bits).expect("valid spec");
        let design = generator.generate(&spec).expect("netlist generates");
        let layout = flow.generate(&spec).expect("layout generates").layout;

        group.bench_function(BenchmarkId::new("generate", name), |b| {
            b.iter(|| {
                let design = generator.generate(&spec).expect("netlist generates");
                black_box(design.module_count())
            })
        });
        group.bench_function(BenchmarkId::new("stats", name), |b| {
            b.iter(|| black_box(design_stats(&design, &library).expect("stats").transistors))
        });
        group.bench_function(BenchmarkId::new("spice", name), |b| {
            b.iter(|| black_box(write_spice(&design, &library).expect("SPICE writes").len()))
        });
        group.bench_function(BenchmarkId::new("def", name), |b| {
            b.iter(|| black_box(write_def(&layout).len()))
        });
        group.bench_function(BenchmarkId::new("gds", name), |b| {
            b.iter(|| black_box(write_gds_text(&layout, &tech).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, backend);
criterion_main!(benches);
