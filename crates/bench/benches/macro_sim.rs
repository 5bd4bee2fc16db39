//! Criterion bench of the behavioural macro simulator (the reproduction's
//! post-layout-simulation stand-in): MAC + SAR conversion cycles, the
//! Monte-Carlo SNR measurement used for model calibration, and one whole
//! chip validation through `simulate_mix`.

use acim_arch::{measure_snr, AcimMacro, AcimSpec, NoiseConfig};
use acim_chip::{simulate_mix, ChipSpec, MacroGrid, Network, WorkloadMix};
use acim_model::ModelParams;
use acim_tech::Technology;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn macro_sim(c: &mut Criterion) {
    let tech = Technology::s28();
    let mut group = c.benchmark_group("macro_sim");
    group.sample_size(10);

    for &(name, h, w, l, b) in &[
        ("64x16_b3", 64usize, 16usize, 4usize, 3u32),
        ("128x32_b5", 128, 32, 4, 5),
    ] {
        let spec = AcimSpec::from_dimensions(h, w, l, b).expect("valid spec");
        group.bench_with_input(
            BenchmarkId::new("mac_and_convert", name),
            &spec,
            |bench, spec| {
                let mut macro_sim =
                    AcimMacro::new(spec, &tech, NoiseConfig::realistic(), 7).expect("macro builds");
                macro_sim.program_with(|row, col| (row * 13 + col * 7) % 3 == 0);
                let activations: Vec<bool> =
                    (0..spec.dot_product_length()).map(|i| i % 2 == 0).collect();
                bench.iter(|| {
                    let out = macro_sim
                        .mac_and_convert(black_box(&activations), 0)
                        .expect("cycle runs");
                    black_box(out[0])
                });
            },
        );
    }

    group.bench_function("measure_snr_32_cycles", |b| {
        let spec = AcimSpec::from_dimensions(128, 16, 8, 4).expect("valid spec");
        b.iter(|| {
            let m = measure_snr(&spec, &tech, NoiseConfig::realistic(), 32, 11)
                .expect("measurement runs");
            black_box(m.snr_db)
        });
    });

    // The golden_validation fixture: edge_cnn(1) on a 2x2 grid of
    // 64x16 L4 B4 macros at the chip stage's default validation seed.
    // Lowering now takes about a quarter of it; most of the rest is the
    // seeded Gaussian draws (mismatch, thermal, comparator) that pin its
    // bits.
    group.bench_function("simulate_mix_edge_cnn1_2x2", |b| {
        let spec = AcimSpec::from_dimensions(64, 16, 4, 4).expect("valid spec");
        let grid = MacroGrid::uniform(2, 2, spec).expect("valid grid");
        let chip = ChipSpec::new(grid, 64).expect("valid chip");
        let mix = WorkloadMix::from(Network::edge_cnn(1));
        let params = ModelParams::s28_default();
        b.iter(|| {
            let report = simulate_mix(&chip, &mix, &params, 0xC812).expect("simulation runs");
            black_box(report.total_cycles)
        });
    });
    group.finish();
}

criterion_group!(benches, macro_sim);
criterion_main!(benches);
