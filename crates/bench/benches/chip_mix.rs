//! Co-scheduled mix evaluation vs. per-tenant sequential evaluation.
//!
//! A chip serving a three-tenant mix (CNN + transformer + SNN) can be
//! scored two ways: one `evaluate_mix` call that schedules all tenants
//! together, or one mix-of-one evaluation per tenant back to back.
//! The mix path derives each distinct macro's metrics **once for the
//! whole mix** and schedules every tenant against that shared table; the
//! sequential path re-derives the grid per tenant.  On mixed-macro grids
//! (several distinct shapes per chip) that amortisation is the dominant
//! saving, which is exactly the regime a multi-tenant service lives in.
//!
//! `chip_mix/{mix,sequential}` both walk the same 64 mixed-macro 2x2
//! chips serially on the calling thread.  Because the pair
//! is gated as a within-run *ratio*, the two sides must see the same
//! machine state: each sample is measured as one **adjacent-in-time
//! pair** (a mix sweep and a sequential sweep back to back, order
//! alternating per sample), so a CPU-frequency or contention window
//! skews both medians together and cancels out of the ratio instead of
//! landing on whichever side happened to run inside it.  The per-tenant
//! mixes of one are built before the clocks start, so the sequential side
//! times evaluation, not cloning networks.

use std::time::{Duration, Instant};

use acim_arch::AcimSpec;
use acim_chip::{ChipEvaluator, ChipSpec, MacroGrid, Network, WorkloadMix};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Upper bound on the samples either bench function will request (the
/// group asks for 10; quick mode caps lower).
const MAX_SAMPLES: usize = 10;

/// One full sweep of the co-scheduled path: score every chip against the
/// whole mix in one call each.
fn mix_sweep(evaluator: &ChipEvaluator, chips: &[ChipSpec], mix: &WorkloadMix) {
    for chip in chips {
        black_box(evaluator.evaluate_mix(chip, mix).unwrap().makespan_ns);
    }
}

/// One full sweep of the naive path: one evaluation per tenant (each a
/// mix of one) per chip, back to back.
fn sequential_sweep(evaluator: &ChipEvaluator, chips: &[ChipSpec], singles: &[WorkloadMix]) {
    for chip in chips {
        for single in singles {
            black_box(evaluator.evaluate_mix(chip, single).unwrap().makespan_ns);
        }
    }
}

fn chip_mix(c: &mut Criterion) {
    // The paper's Figure 1 deployment: always-on SNN sensing, bulk CNN
    // recognition, occasional transformer block.
    let mix = WorkloadMix::new("edge-trio")
        .with_tenant(Network::edge_cnn(1), 2.0)
        .with_tenant(Network::transformer_block(), 1.0)
        .with_tenant(Network::snn_pipeline(), 4.0);

    // 64 mixed-macro 2x2 chips from a small catalogue (same population
    // shape as the macro_reuse eval pair): several distinct specs per
    // chip, so per-tenant re-derivation is a real cost.
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

    let evaluator = ChipEvaluator::s28_default();
    let singles: Vec<WorkloadMix> = mix
        .tenants()
        .iter()
        .map(|tenant| WorkloadMix::from(tenant.network.clone()))
        .collect();

    // Paired measurement: one warm-up of each sweep, then MAX_SAMPLES
    // adjacent-in-time (mix, sequential) duration pairs with alternating
    // order.  Both bench functions replay their half of the same pairs
    // through `iter_custom`, so the gated ratio compares measurements
    // taken microseconds apart, not bench-groups apart.
    mix_sweep(&evaluator, &chips, &mix);
    sequential_sweep(&evaluator, &chips, &singles);
    let pairs: Vec<(Duration, Duration)> = (0..MAX_SAMPLES)
        .map(|sample| {
            let time = |f: &dyn Fn()| {
                let start = Instant::now();
                f();
                start.elapsed()
            };
            let mix_half = || mix_sweep(&evaluator, &chips, &mix);
            let sequential_half = || sequential_sweep(&evaluator, &chips, &singles);
            if sample % 2 == 0 {
                let m = time(&mix_half);
                let s = time(&sequential_half);
                (m, s)
            } else {
                let s = time(&sequential_half);
                let m = time(&mix_half);
                (m, s)
            }
        })
        .collect();

    let mut group = c.benchmark_group("chip_mix");
    group.sample_size(MAX_SAMPLES);

    let mut next_mix = 0;
    group.bench_function("mix", |b| {
        b.iter_custom(|_| {
            let duration = pairs[next_mix % pairs.len()].0;
            next_mix += 1;
            duration
        })
    });

    let mut next_sequential = 0;
    group.bench_function("sequential", |b| {
        b.iter_custom(|_| {
            let duration = pairs[next_sequential % pairs.len()].1;
            next_sequential += 1;
            duration
        })
    });
    group.finish();
}

criterion_group!(benches, chip_mix);
criterion_main!(benches);
