//! Request-latency distribution of the bounded admission scheduler under
//! oversubscription.
//!
//! The redesigned `ExplorationService` runs jobs on a **fixed worker
//! set** behind a bounded priority queue, instead of spawning one OS
//! thread per request.  Under a 10x-oversubscribed burst the old
//! thread-per-request herd runs every job concurrently on the same
//! cores: every job thrashes against every other, so the *median*
//! request takes almost as long as the whole burst.  The scheduler
//! admits the same burst but runs `workers` jobs at a time: tail latency
//! (p99, the last job out) stays at the herd's level — the machine does
//! the same total work — while the median falls towards half of it,
//! because early-dequeued jobs finish on uncontended cores and leave.
//!
//! Both sides are the *same* service code path; only the admission
//! policy differs.  The herd is emulated faithfully by a service with
//! one worker per request (`workers = burst`), which admits every
//! submission straight onto its own dedicated thread — exactly the
//! pre-redesign dispatch.  The scheduler has a constant single worker,
//! so each side's burst is the same 10 identical quick chip requests on
//! every runner, over a pre-warmed shared cache (the steady state a
//! serving front-end reaches), so per-request work is a deterministic
//! cache replay and the measured gap is pure scheduling.
//!
//! Per-sample, one full burst runs and the reported duration is the
//! requested percentile of the burst's per-request latencies
//! (submission -> completion, exact under the scheduler's FIFO
//! dequeue-and-join order).  The shim then reports the median of those
//! percentile samples, and the bench gate compares all four ids
//! (`sched_p50`, `sched_p99`, `herd_p50`, `herd_p99`) against the
//! checked-in baseline.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use easyacim::prelude::*;
use easyacim::service::{ExplorationRequest, ExplorationService, ServiceConfig};

fn quick_chip_config() -> ChipFlowConfig {
    let mut config = ChipFlowConfig::for_mix(Network::edge_cnn(1));
    config.dse.population_size = 16;
    config.dse.generations = 6;
    config.dse.grid_rows = vec![1, 2];
    config.dse.grid_cols = vec![1, 2];
    config.dse.buffer_kib = vec![8, 32];
    config.validate_best = false;
    config
}

/// Builds a warm service: `workers` scheduler workers, queue deep enough
/// for a whole burst, telemetry off (both sides identically), and the
/// shared chip cache populated by one cold request.
fn warm_service(workers: usize, burst: usize) -> ExplorationService {
    let service = ExplorationService::with_config(
        ServiceConfig::default()
            .without_telemetry()
            .with_workers(workers)
            .with_queue_capacity(burst),
    );
    service
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap();
    service
}

/// Submits one oversubscribed burst and returns the per-request
/// latencies (submission instant -> join return, in submission order).
fn burst_latencies(service: &ExplorationService, burst: usize) -> Vec<Duration> {
    let start = Instant::now();
    let handles: Vec<_> = (0..burst)
        .map(|_| {
            service
                .submit(ExplorationRequest::chip_space(quick_chip_config()))
                .expect("queue sized for the whole burst")
        })
        .collect();
    handles
        .into_iter()
        .map(|handle| {
            handle.join().unwrap();
            start.elapsed()
        })
        .collect()
}

/// The `pct`-th percentile (nearest-rank on the sorted sample).
fn percentile(latencies: &mut [Duration], pct: f64) -> Duration {
    latencies.sort_unstable();
    let rank = ((pct / 100.0) * (latencies.len() - 1) as f64).round() as usize;
    latencies[rank]
}

fn service_sched(c: &mut Criterion) {
    // A constant worker set, so the burst size is the same on every
    // runner.
    let workers = 1;
    let burst = workers * 10;

    let sched = warm_service(workers, burst);
    let herd = warm_service(burst, burst);
    assert_eq!(sched.worker_count(), workers);
    assert_eq!(herd.worker_count(), burst);

    let mut group = c.benchmark_group("service_sched");
    group.sample_size(10);
    for (id, service, pct) in [
        ("sched_p50", &sched, 50.0),
        ("sched_p99", &sched, 99.0),
        ("herd_p50", &herd, 50.0),
        ("herd_p99", &herd, 99.0),
    ] {
        group.bench_function(id, |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let mut latencies = burst_latencies(service, burst);
                    total += percentile(&mut latencies, pct);
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, service_sched);
criterion_main!(benches);
