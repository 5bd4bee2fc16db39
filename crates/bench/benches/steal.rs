//! Skewed-workload load balancing: the acceptance bench for the
//! work-stealing rayon shim.
//!
//! The workload is 64 items where item 0 costs 16× the rest — the shape a
//! chip DSE population takes when one heterogeneous genome decodes to a
//! much deeper evaluation than its cohort.  `chunked_scoped` reproduces
//! the pre-work-stealing executor (fixed contiguous chunks, one scoped
//! thread per core): the slow item's chunk-mates queue serially behind it,
//! so its thread straggles while the others idle.  The stealing variants
//! (`par_iter().with_max_len(1)`, the call shape `ChipDesignProblem`
//! uses) make every item its own task, so the slow item occupies one
//! helper while the rest of the batch drains across the others.
//!
//! On a multi-core machine the compute-bound stealing median beats the
//! chunked one; on a 1-core container those variants legitimately degrade
//! to the serial sum (recorded as such in `steal_baseline.json`).  The
//! sleepy pair overlaps on any core count, so CI bounds
//! `stealing_borrowed_sleepy / chunked_sleepy` as a within-run ratio.

use criterion::{criterion_group, criterion_main, Criterion};
use rayon::prelude::*;
use std::hint::black_box;

/// Deterministic compute kernel: `units` slices of pure float work.
fn busy_work(units: u64) -> f64 {
    let mut acc = 0.0f64;
    for i in 0..units * 4_000 {
        acc = acc * 0.999_999 + (i as f64).sqrt();
    }
    acc
}

/// One 16x item leading 63 unit items — the skew that makes fixed chunks
/// straggle.
fn skewed_units() -> Vec<u64> {
    let mut units = vec![1u64; 64];
    units[0] = 16;
    units
}

/// The pre-work-stealing executor of the vendored shim: split into fixed
/// contiguous chunks, one scoped thread per core, stitched in order.
/// Kept here as the comparison baseline the stealing executor must beat.
fn chunked_map<T: Sync, O: Send>(items: &[T], map: impl Fn(&T) -> O + Sync) -> Vec<O> {
    let threads = rayon::current_num_threads().min(items.len()).max(1);
    if threads == 1 {
        return items.iter().map(map).collect();
    }
    let chunk_size = items.len().div_ceil(threads);
    let chunk_results: Vec<Vec<O>> = std::thread::scope(|scope| {
        let map = &map;
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || chunk.iter().map(map).collect::<Vec<O>>()))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("chunk worker panicked"))
            .collect()
    });
    chunk_results.into_iter().flatten().collect()
}

/// Latency-bound kernel: sleeps `units` milliseconds.  Unlike the compute
/// kernel it overlaps across threads even on a 1-core machine, so the
/// chunked-vs-stealing gap is visible on any runner: with 4 threads and
/// 64 items, fixed chunks serialize the 16x item with 15 chunk-mates
/// (31 ms critical path) while stealing spreads those mates across the
/// other helpers (~21 ms).
fn busy_wait(units: u64) -> u64 {
    std::thread::sleep(std::time::Duration::from_millis(units));
    units
}

fn steal(c: &mut Criterion) {
    // Pin the width before the first rayon call: the comparison is about
    // scheduling, and a fixed width keeps it reproducible across runners.
    std::env::set_var(rayon::NUM_THREADS_ENV, "4");

    let mut group = c.benchmark_group("steal");
    group.sample_size(10);

    let units = skewed_units();

    group.bench_function("serial", |b| {
        b.iter(|| {
            let out: Vec<f64> = units.iter().map(|&u| busy_work(u)).collect();
            black_box(out)
        })
    });

    group.bench_function("chunked_scoped", |b| {
        b.iter(|| {
            let out = chunked_map(black_box(&units), |&u| busy_work(u));
            black_box(out)
        })
    });

    group.bench_function("stealing_borrowed", |b| {
        b.iter(|| {
            let out: Vec<f64> = black_box(&units)
                .par_iter()
                .with_max_len(1)
                .map(|&u| busy_work(u))
                .collect();
            black_box(out)
        })
    });

    // The latency-bound pair: the direct chunked-vs-stealing comparison
    // the acceptance criterion names, visible on any core count.
    group.bench_function("chunked_sleepy", |b| {
        b.iter(|| {
            let out = chunked_map(black_box(&units), |&u| busy_wait(u));
            black_box(out)
        })
    });

    group.bench_function("stealing_borrowed_sleepy", |b| {
        b.iter(|| {
            let out: Vec<u64> = black_box(&units)
                .par_iter()
                .with_max_len(1)
                .map(|&u| busy_wait(u))
                .collect();
            black_box(out)
        })
    });

    group.finish();
}

criterion_group!(benches, steal);
criterion_main!(benches);
