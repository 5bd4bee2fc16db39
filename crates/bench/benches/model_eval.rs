//! Criterion bench of the performance-estimation model (Equations 2–11).
//!
//! Every explorer scores a macro through `acim_model::evaluate`, so its
//! per-call cost bounds what a genome-cache miss costs; this bench tracks
//! it and the detailed SNR model.
//!
//! Every sample times a block of [`EVALS_PER_SAMPLE`] evaluations and
//! reports the mean per-evaluation duration, so the ~20 ns `Instant`
//! round-trip is amortised to noise instead of dominating a ~100 ns
//! workload.

use std::hint::black_box;
use std::time::Instant;

use acim_arch::AcimSpec;
use acim_model::{evaluate, snr_detailed_db, ModelParams};
use criterion::{criterion_group, criterion_main, Criterion};

/// Evaluations timed per sample; reported medians are per-evaluation.
const EVALS_PER_SAMPLE: u32 = 256;

fn model_eval(c: &mut Criterion) {
    let params = ModelParams::s28_default();
    let spec = AcimSpec::from_dimensions(128, 128, 8, 3).expect("valid spec");

    c.bench_function("model_eval/four_objectives", |b| {
        b.iter_custom(|_| {
            let start = Instant::now();
            for _ in 0..EVALS_PER_SAMPLE {
                black_box(evaluate(black_box(&spec), &params).expect("evaluates"));
            }
            start.elapsed() / EVALS_PER_SAMPLE
        })
    });

    c.bench_function("model_eval/detailed_snr", |b| {
        b.iter_custom(|_| {
            let start = Instant::now();
            for _ in 0..EVALS_PER_SAMPLE {
                black_box(snr_detailed_db(black_box(&spec), &params).expect("evaluates"));
            }
            start.elapsed() / EVALS_PER_SAMPLE
        })
    });
}

criterion_group!(benches, model_eval);
criterion_main!(benches);
