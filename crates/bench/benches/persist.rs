//! Restart cost with and without the persistence tier.
//!
//! `cold_first_request` is a process restart without persistence: a fresh
//! `ExplorationService` computes its first request entirely from scratch.
//! `restored_first_request` is the same restart with a snapshot on disk:
//! the fresh service restores the previous process's caches and session
//! archive (file read + checksum verification + merge included in the
//! measurement), then serves the same request warm-started from the
//! restored archive.  The gap between the two medians is the recomputation
//! a snapshot saves on the first request after a restart — the whole
//! point of durable caches — and the CI gate holds it at ≥1.5×.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use easyacim::prelude::*;
use easyacim::service::{ExplorationRequest, ExplorationService};

fn chip_config() -> ChipFlowConfig {
    // A deep network (66 layers) over a longer run than
    // `service_warm_vs_cold` (24 generations), so objective evaluation —
    // what the restored caches absorb — dominates the per-request cost,
    // not NSGA-II's selection machinery and not the fixed
    // service-construction/restore overhead both sides share.
    let mut config = ChipFlowConfig::for_mix(Network::edge_cnn(64));
    config.dse.population_size = 32;
    config.dse.generations = 24;
    config.validate_best = false;
    config
}

fn restored_vs_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist");
    group.sample_size(10);

    group.bench_function("cold_first_request", |b| {
        b.iter(|| {
            // A restart without persistence: empty caches, no session.
            let service = ExplorationService::new();
            let response = service
                .run(ExplorationRequest::chip_space(black_box(chip_config())))
                .unwrap();
            black_box(response.engine().evaluations)
        })
    });

    // One donor process ran before the "restart": a cold request, then a
    // warm request seeded from its session — the steady state a
    // production service reaches — and everything was snapshot to disk.
    // The seed session is pinned, so every restored iteration replays the
    // identical warm trajectory the snapshot already carries (exactly the
    // `service_warm_vs_cold` methodology, with a process restart and the
    // file round trip in between).
    let snapshot_path = std::env::temp_dir().join("acim_persist_bench.snap");
    let donor = ExplorationService::new();
    let seed = donor
        .run(ExplorationRequest::chip_space(chip_config()))
        .unwrap()
        .into_chip()
        .unwrap()
        .session;
    donor
        .run(ExplorationRequest::chip_space(chip_config()).warm_start(seed.clone()))
        .unwrap();
    donor.snapshot(&snapshot_path).unwrap();
    let space = seed.space().to_string();

    group.bench_function("restored_first_request", |b| {
        b.iter(|| {
            // The same restart, but restore-then-request: read + verify +
            // merge the snapshot, then serve the first request from it.
            let service = ExplorationService::new();
            let restored = service.restore(black_box(&snapshot_path)).unwrap();
            black_box(restored.evaluations);
            // The session archive came back with the snapshot too.
            assert!(service.archive(&space).is_some());
            let request =
                ExplorationRequest::chip_space(black_box(chip_config())).warm_start(seed.clone());
            let response = service.run(request).unwrap().into_chip().unwrap();
            black_box(response.result.engine.cache.hits)
        })
    });

    group.finish();
    let _ = std::fs::remove_file(&snapshot_path);
}

criterion_group!(benches, restored_vs_cold);
criterion_main!(benches);
