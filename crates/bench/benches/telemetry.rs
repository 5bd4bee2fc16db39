//! Telemetry overhead on the chip-evaluation flow.
//!
//! The telemetry layer promises to be *observably passive*: request
//! spans, per-generation histograms, queue/cache gauges and the traced
//! stage spans must never change results (asserted in
//! `tests/service.rs`) and must cost almost nothing.  This pair times
//! the same quick chip request on two `ExplorationService` instances —
//! one recording telemetry, one carrying a disabled handle — over warm
//! shared caches, the service's steady state, where fixed per-request
//! costs like instrumentation are proportionally largest.
//!
//! The bench gate enforces the budget as a **ratio within this run**
//! (`instrumented / uninstrumented <= 1.05` via `bench_gate
//! --max-ratio`), so the check is immune to the absolute speed of the
//! CI runner; the checked-in baseline additionally catches step-change
//! regressions of either side alone.
//!
//! A 5% budget cannot be resolved by timing one side and then the
//! other on a shared runner: CPU steal and frequency wobble shift
//! whole multi-millisecond windows by far more than 5%.  So the
//! measurement is **paired and interleaved** (via the shim's
//! `iter_custom`): one pass alternates uninstrumented and instrumented
//! requests (swapping which goes first each pair) and collects the two
//! sides' durations separately, so machine-level speed drift hits both
//! sides of the ratio equally and cancels.  Each side reports its
//! per-request median over the pass, which scheduler blips cannot move,
//! and the pair count is sized so the ratio's remaining noise is well
//! under 1% — the 5% budget sits many standard deviations away.
//!
//! The setup asserts instrumented and uninstrumented frontiers are
//! bit-identical before the clocks start.

use std::cell::RefCell;
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

fn telemetry(c: &mut Criterion) {
    let instrumented = ExplorationService::new();
    assert!(instrumented.telemetry_handle().is_enabled());
    let uninstrumented =
        ExplorationService::with_config(ServiceConfig::default().without_telemetry());
    assert!(!uninstrumented.telemetry_handle().is_enabled());

    // Correctness gate before timing: telemetry must not perturb the
    // search.  These runs also warm both services' caches, so the timed
    // iterations below compare the steady state.
    let on = instrumented
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    let off = uninstrumented
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    assert_eq!(on.result.front.len(), off.result.front.len());
    for (a, b) in on.result.front.iter().zip(off.result.front.iter()) {
        assert_eq!(a.chip, b.chip, "telemetry changed a frontier point");
        assert_eq!(a.objective_vector(), b.objective_vector());
    }

    const PAIRS: usize = 2048;
    let timed_request = |service: &ExplorationService| {
        let start = Instant::now();
        let response = service
            .run(ExplorationRequest::chip_space(quick_chip_config()))
            .unwrap()
            .into_chip()
            .unwrap();
        let elapsed = start.elapsed();
        assert!(response.result.engine.evaluations > 0);
        elapsed
    };

    // One measurement pass shared by both bench functions: PAIRS fully
    // interleaved request pairs, alternating which side goes first to
    // cancel ordering bias, collecting each side's per-request times
    // separately.  Every reported sample is the side's per-request
    // *median* over that single pass: the windows are identical (so
    // machine-level drift cancels out of the gated ratio) and the median
    // is immune to the millisecond-scale scheduler blips that make a
    // sum/sum ratio heavy-tailed.
    let medians: RefCell<Option<(Duration, Duration)>> = RefCell::new(None);
    let measured = || {
        *medians.borrow_mut().get_or_insert_with(|| {
            let mut off = Vec::with_capacity(PAIRS);
            let mut on = Vec::with_capacity(PAIRS);
            for pair in 0..PAIRS {
                if pair % 2 == 0 {
                    off.push(timed_request(&uninstrumented));
                    on.push(timed_request(&instrumented));
                } else {
                    on.push(timed_request(&instrumented));
                    off.push(timed_request(&uninstrumented));
                }
            }
            off.sort();
            on.sort();
            (off[PAIRS / 2], on[PAIRS / 2])
        })
    };

    let mut group = c.benchmark_group("telemetry");
    group.sample_size(10);

    group.bench_function("uninstrumented", |b| b.iter_custom(|_| measured().0));
    group.bench_function("instrumented", |b| b.iter_custom(|_| measured().1));
    group.finish();
}

criterion_group!(benches, telemetry);
criterion_main!(benches);
