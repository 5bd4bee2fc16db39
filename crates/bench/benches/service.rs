//! Cache-reuse speedup of the multi-tenant exploration service.
//!
//! `cold` builds a fresh `ExplorationService` per iteration, so every
//! chip-objective evaluation is computed from scratch.  `warm` reuses one
//! long-lived service whose per-space cache was populated by an initial
//! request and whose requests are warm-started from the previous
//! session's Pareto archive — the steady state a production front-end
//! serving repeated requests over one design space reaches.  The gap
//! between the two medians is the evaluation work the shared cache
//! absorbs (the exploration's selection/variation machinery is identical
//! in both).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use easyacim::prelude::*;
use easyacim::service::{ExplorationRequest, ExplorationService};

fn chip_config() -> ChipFlowConfig {
    // A deep network (66 layers) over the full default grid catalogue, so
    // objective evaluation (what the cache absorbs) dominates the
    // per-request cost instead of NSGA-II's selection machinery.
    let mut config = ChipFlowConfig::for_mix(Network::edge_cnn(64));
    config.dse.population_size = 32;
    config.dse.generations = 12;
    config.validate_best = false;
    config
}

fn service_warm_vs_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_warm_vs_cold");
    group.sample_size(10);

    group.bench_function("cold", |b| {
        b.iter(|| {
            // A fresh service per iteration: empty caches, no session.
            let service = ExplorationService::new();
            let response = service
                .run(ExplorationRequest::chip_space(black_box(chip_config())))
                .unwrap();
            black_box(response.engine().evaluations)
        })
    });

    // One long-lived service; successive requests ride the shared cache
    // and warm-start from the first session's archive.  The session is
    // fixed, so after the first warm request the trajectory's entries are
    // all in the store and steady-state requests are answered from it.
    let service = ExplorationService::new();
    let session = service
        .run(ExplorationRequest::chip_space(chip_config()))
        .unwrap()
        .into_chip()
        .unwrap()
        .session;
    group.bench_function("warm", |b| {
        b.iter(|| {
            let request = ExplorationRequest::chip_space(black_box(chip_config()))
                .warm_start(session.clone());
            let response = service.run(request).unwrap().into_chip().unwrap();
            black_box(response.result.engine.cache.hits)
        })
    });

    group.finish();
}

criterion_group!(benches, service_warm_vs_cold);
criterion_main!(benches);
