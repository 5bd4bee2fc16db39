//! Back-half bench: what the flow does per distilled design after
//! exploration, one step at a time.
//!
//! * `generate` — `NetlistGenerator::generate`, including the
//!   `Design::validate` it ends with;
//! * `stats` — `design_stats` of that design;
//! * `spice` — `write_spice` of that design;
//! * `def`, `gds` — `write_def` and `write_gds_text` of the macro layout;
//! * `def_column_x512` — `write_def` of 32×512 L2 B3's column block, the
//!   layout the macro places 512 times, written 512 times.
//!
//! Two macros load these steps differently.  1024×16 L2 B8 is
//! connection-count bound: every column instance holds about 2,000 nets,
//! each one index into the top module's net table, which the generator
//! fills, validation range-checks and the SPICE writer resolves to a name.
//! 32×512 L2 B3 is name and shape bound: its top module formats about
//! 6,300 net and instance names, and its DEF and GDS text run to about
//! 15 MB and 950,000 coordinates each.  Both writers append every line to
//! one buffer reserved from the layout's counts, and stamp the lines of
//! each placed column from the first column's: they copy its bytes and
//! overwrite only the name prefix and the x coordinates.  The netlist and
//! layouts are built once outside the timed loops of the other steps;
//! `LayoutFlow::generate` has its own bench (`layout_runtime`).
//!
//! CI bounds the ratio of `def/32x512_l2_b3` to `def_column_x512` with
//! `--max-ratio`.  Writing the macro's DEF line by line costs about as
//! much as writing its column's DEF once per column, or more for the
//! fresh pages its one large buffer touches: the ratio read 1.0-1.4 on a
//! 2-vCPU container.  Stamping reads about 0.5.  The two rows are timed in one interleaved
//! pass (see [`interleaved_medians`]), as the gated `nsga2` pairs are.

use acim_arch::AcimSpec;
use acim_bench::interleaved_medians;
use acim_cell::CellLibrary;
use acim_layout::{write_def, write_gds_text, LayoutFlow};
use acim_netlist::{design_stats, write_spice, NetlistGenerator};
use acim_tech::Technology;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

/// The macro of the CI-gated pair.
const GATED: &str = "32x512_l2_b3";

/// Turns per case in the interleaved pass of the CI-gated pair.
const TURNS: usize = 64;

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
        let generated = flow.generate(&spec).expect("layout generates");
        let layout = &generated.layout;

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
        if name == GATED {
            // The macro's DEF once, and its column block's DEF once per
            // column.
            let cases = [(layout, 1), (&*generated.column.layout, spec.width())];
            let medians = interleaved_medians(&cases, TURNS, |&mut (layout, times)| {
                for _ in 0..times {
                    black_box(write_def(layout).len());
                }
            });
            for (row, median) in ["def", "def_column_x512"].into_iter().zip(medians) {
                group.bench_function(BenchmarkId::new(row, name), |b| b.iter_custom(|_| median));
            }
        } else {
            group.bench_function(BenchmarkId::new("def", name), |b| {
                b.iter(|| black_box(write_def(layout).len()))
            });
        }
        group.bench_function(BenchmarkId::new("gds", name), |b| {
            b.iter(|| black_box(write_gds_text(layout, &tech).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, backend);
criterion_main!(benches);
