//! Acceptance tests of the multi-tenant `ExplorationService` redesign:
//!
//! * service-run requests are **bit-identical** to the pre-redesign
//!   single-tenant entry points (`TopFlowController::run`,
//!   `ChipStage::run`) — the shared cache is semantically lossless;
//! * consecutive requests over one design space show nonzero
//!   cross-request cache hits;
//! * warm-started runs are deterministic and their final hypervolume is
//!   no worse than the cold run they were seeded from;
//! * concurrent requests produce the same frontiers as the same requests
//!   run serially.

use acim_moga::hypervolume_monte_carlo;
use easyacim::prelude::*;
use easyacim::service::{ExplorationRequest, ExplorationService, ServiceConfig};

fn quick_flow_config() -> FlowConfig {
    let mut config = FlowConfig::new(4 * 1024);
    config.dse.population_size = 24;
    config.dse.generations = 10;
    config.max_layouts = 1;
    config
}

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

fn assert_same_macro_frontier(a: &[DesignPoint], b: &[DesignPoint]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.objective_vector(), y.objective_vector());
    }
}

fn assert_same_chip_frontier(a: &[ChipDesignPoint], b: &[ChipDesignPoint]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.chip, y.chip);
        assert_eq!(x.objective_vector(), y.objective_vector());
    }
}

#[test]
fn service_macro_request_is_bit_identical_to_top_flow_controller() {
    let direct = TopFlowController::new(quick_flow_config())
        .unwrap()
        .run()
        .unwrap();

    let service = ExplorationService::new();
    let response = service
        .run(ExplorationRequest::macro_space(quick_flow_config()))
        .unwrap()
        .into_macro()
        .unwrap();

    assert_same_macro_frontier(&direct.frontier, &response.result.frontier);
    assert_same_macro_frontier(&direct.distilled, &response.result.distilled);
    assert_eq!(direct.designs.len(), response.result.designs.len());
    assert_eq!(
        direct.engine.evaluations,
        response.result.engine.evaluations
    );
    // The session archive re-encodes the frontier one genome per point.
    assert_eq!(response.session.len(), response.result.frontier.len());
    assert!(response.session.space().starts_with("macro/"));
}

#[test]
fn service_chip_request_is_bit_identical_to_chip_flow() {
    let direct = ChipStage::new(quick_chip_config()).run(()).unwrap();
    let service = ExplorationService::new();
    let response = service
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    assert_same_chip_frontier(&direct.front, &response.result.front);
    assert_eq!(
        direct.engine.evaluations,
        response.result.engine.evaluations
    );
}

#[test]
fn consecutive_requests_share_the_cache_across_requests() {
    let service = ExplorationService::new();
    let first = service
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    assert!(first.result.engine.cache.misses > 0);
    let entries = service.cached_evaluations();
    assert_eq!(entries, first.result.engine.cache.misses);

    // The second identical request replays the same trajectory: every
    // evaluation is answered by an entry the first request wrote.
    let second = service
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    assert_eq!(second.result.engine.cache.misses, 0);
    assert!(second.result.engine.cache.hits > 0);
    assert_eq!(
        second.result.engine.cache.hits,
        second.result.engine.evaluations
    );
    assert_eq!(service.cached_evaluations(), entries);
    assert_same_chip_frontier(&first.result.front, &second.result.front);
}

#[test]
fn warm_start_is_deterministic_and_no_worse_than_cold() {
    let service = ExplorationService::new();
    let cold = service
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();

    let warm_request =
        || ExplorationRequest::chip_space(quick_chip_config()).warm_start(cold.session.clone());
    let warm_a = service.run(warm_request()).unwrap().into_chip().unwrap();
    let warm_b = service.run(warm_request()).unwrap().into_chip().unwrap();
    // Warm-started runs over an identical seeded space are
    // bit-deterministic.
    assert_same_chip_frontier(&warm_a.result.front, &warm_b.result.front);

    // Every cold frontier point is matched-or-dominated by the warm
    // frontier (the seeds were archived up front), which implies
    // hypervolume(warm) >= hypervolume(cold) exactly.
    let warm_front: Vec<Vec<f64>> = warm_a
        .result
        .front
        .iter()
        .map(ChipDesignPoint::objective_vector)
        .collect();
    let cold_front: Vec<Vec<f64>> = cold
        .result
        .front
        .iter()
        .map(ChipDesignPoint::objective_vector)
        .collect();
    for c in &cold_front {
        assert!(
            warm_front
                .iter()
                .any(|w| w == c || acim_moga::dominates(w, c)),
            "cold frontier point lost by the warm run"
        );
    }

    // The seeded Monte-Carlo indicator agrees (tiny tolerance for the
    // estimator's sampling-box difference between the two fronts).
    let mut reference = vec![f64::NEG_INFINITY; 4];
    for point in cold_front.iter().chain(&warm_front) {
        for (r, &v) in reference.iter_mut().zip(point) {
            *r = r.max(v);
        }
    }
    let reference: Vec<f64> = reference
        .into_iter()
        .map(|r| r + r.abs() * 0.1 + 1.0)
        .collect();
    let warm_hv = hypervolume_monte_carlo(&warm_front, &reference, 100_000, 97);
    let cold_hv = hypervolume_monte_carlo(&cold_front, &reference, 100_000, 97);
    assert!(
        warm_hv >= cold_hv * (1.0 - 1e-2),
        "warm hypervolume {warm_hv} fell below cold {cold_hv}"
    );
}

#[test]
fn concurrent_requests_match_the_same_requests_run_serially() {
    // Mixed workload: one macro flow plus two chip spaces (one space
    // submitted twice, so concurrent requests also race on one store).
    let chip_small = quick_chip_config();
    let mut chip_large = quick_chip_config();
    chip_large.dse.buffer_kib = vec![16, 64];

    let serial_service = ExplorationService::new();
    let serial_macro = serial_service
        .run(ExplorationRequest::macro_space(quick_flow_config()))
        .unwrap()
        .into_macro()
        .unwrap();
    let serial_small = serial_service
        .run(ExplorationRequest::chip_space(chip_small.clone()))
        .unwrap()
        .into_chip()
        .unwrap();
    let serial_large = serial_service
        .run(ExplorationRequest::chip_space(chip_large.clone()))
        .unwrap()
        .into_chip()
        .unwrap();

    let concurrent = ExplorationService::new();
    let handles = vec![
        concurrent
            .submit(ExplorationRequest::macro_space(quick_flow_config()))
            .unwrap(),
        concurrent
            .submit(ExplorationRequest::chip_space(chip_small.clone()))
            .unwrap(),
        concurrent
            .submit(ExplorationRequest::chip_space(chip_small))
            .unwrap(),
        concurrent
            .submit(ExplorationRequest::chip_space(chip_large))
            .unwrap(),
    ];
    let mut responses: Vec<ExplorationResponse> = handles
        .into_iter()
        .map(|handle| handle.join().unwrap())
        .collect();

    let concurrent_large = responses.pop().unwrap().into_chip().unwrap();
    let concurrent_small_b = responses.pop().unwrap().into_chip().unwrap();
    let concurrent_small_a = responses.pop().unwrap().into_chip().unwrap();
    let concurrent_macro = responses.pop().unwrap().into_macro().unwrap();

    assert_same_macro_frontier(
        &serial_macro.result.frontier,
        &concurrent_macro.result.frontier,
    );
    assert_same_chip_frontier(&serial_small.result.front, &concurrent_small_a.result.front);
    assert_same_chip_frontier(&serial_small.result.front, &concurrent_small_b.result.front);
    assert_same_chip_frontier(&serial_large.result.front, &concurrent_large.result.front);

    // Two spaces for the chips, one for the macro flow.
    assert_eq!(concurrent.spaces().len(), 3);
}

#[test]
fn warm_started_macro_flow_round_trips_through_the_service() {
    let service = ExplorationService::new();
    let cold = service
        .run(ExplorationRequest::macro_space(quick_flow_config()))
        .unwrap()
        .into_macro()
        .unwrap();
    assert!(!cold.session.is_empty());

    let warm = service
        .run(ExplorationRequest::macro_space(quick_flow_config()).warm_start(cold.session.clone()))
        .unwrap()
        .into_macro()
        .unwrap();
    // Cross-request reuse: the warm flow sees hits immediately.
    assert!(warm.result.engine.cache.hits > 0);
    // No cold frontier point is lost.
    for c in &cold.result.frontier {
        let c = c.objective_vector();
        assert!(warm.result.frontier.iter().any(|w| {
            let w = w.objective_vector();
            w == c || acim_moga::dominates(&w, &c)
        }));
    }
}

#[test]
fn macro_metric_cache_is_shared_across_mixed_macro_and_chip_sessions() {
    // The macro flow and the chip stage here run over the SAME
    // ModelParams, so the service hands both the same macro-metric
    // cache: per-macro DesignMetrics derived by the macro exploration
    // are hits for the chip exploration that follows.
    let service = ExplorationService::new();
    let macro_response = service
        .run(ExplorationRequest::macro_space(quick_flow_config()))
        .unwrap()
        .into_macro()
        .unwrap();
    let macro_stats = macro_response.result.engine.macro_cache;
    assert!(macro_stats.misses > 0, "macro session primes the cache");
    assert!(service.cached_macro_metrics() > 0);

    let chip_response = service
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    let chip_stats = chip_response.result.engine.macro_cache;
    assert!(
        chip_stats.hits > 0,
        "chip session must reuse macro-session metrics: {chip_stats}"
    );

    // Both sessions read one cache: the registry holds exactly one
    // macro-metric cache (one shared ModelParams).
    let params = quick_chip_config().dse.params;
    let cache = service
        .macro_metric_cache(&params)
        .expect("cache exists for the shared parameter set");
    assert_eq!(service.cached_macro_metrics(), cache.len());

    // A chip request on a FRESH service (no macro session first) derives
    // its macros itself — the mixed session above saved that work.
    let cold = ExplorationService::new();
    let cold_chip = cold
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    assert!(cold_chip.result.engine.macro_cache.misses > chip_stats.misses);
    assert_same_chip_frontier(&cold_chip.result.front, &chip_response.result.front);
}

#[test]
fn bounded_service_evicts_without_changing_frontiers() {
    let unbounded = ExplorationService::new();
    let reference = unbounded
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();

    // Tiny bounds so a quick run is forced to recycle entries.
    let bounded = ExplorationService::with_config(ServiceConfig::bounded(16, 2));
    assert_eq!(bounded.config().cache_capacity, Some(16));
    let constrained = bounded
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    assert!(
        bounded.total_evictions() > 0,
        "16-entry evaluation cache plus 2-macro metric cache must evict"
    );
    assert!(bounded.cached_evaluations() <= 16);
    assert!(bounded.cached_macro_metrics() <= 2);
    assert!(constrained.result.engine.cache.evictions > 0);
    // Eviction costs hits, never results.
    assert_same_chip_frontier(&reference.result.front, &constrained.result.front);

    // Warm-starting over the bounded caches still dominates-or-equals:
    // rerun warm on the same bounded service.
    let warm = bounded
        .run(
            ExplorationRequest::chip_space(quick_chip_config())
                .warm_start(constrained.session.clone()),
        )
        .unwrap()
        .into_chip()
        .unwrap();
    for point in &constrained.result.front {
        let c = point.objective_vector();
        assert!(
            warm.result.front.iter().any(|w| {
                let w = w.objective_vector();
                w == c || acim_moga::dominates(&w, &c)
            }),
            "seeded frontier point lost under bounded caches"
        );
    }
}

#[test]
fn panicking_tenant_leaves_the_service_usable() {
    // Regression: `CacheStore` used to `.expect()` its mutex guard, so a
    // tenant panicking while holding the lock poisoned the shared store
    // and crashed every later request over the same design space.
    let service = ExplorationService::new();
    let handle = service
        .submit(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap();
    let space = handle.space().to_string();
    let first = handle.join().unwrap().into_chip().unwrap();

    // A hostile tenant grabs the shared store of that space and panics
    // while holding its lock (mid-way through a snapshot import).
    let store = service.cache_store(&space).expect("space has a store");
    let poisoner = store.clone();
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        poisoner.import_entries(std::iter::from_fn(
            || -> Option<(Vec<i64>, acim_moga::Evaluation)> {
                panic!("tenant died holding the store lock")
            },
        ));
    }));
    assert!(panicked.is_err());

    // Every other tenant is unaffected: the same request runs again over
    // the (recovered) shared store, replays as pure hits, and produces
    // the identical frontier.
    let second = service
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    assert_eq!(second.result.engine.cache.misses, 0);
    assert_same_chip_frontier(&first.result.front, &second.result.front);
    assert!(!store.is_empty());
}

#[test]
fn full_hit_replay_reports_finite_rates_and_clean_reports() {
    // A --quick replay answered entirely from the cache can spend less
    // than a timer tick evaluating; the rate accessors must degrade to
    // 0.0 rather than leak NaN/inf into reports.
    let service = ExplorationService::new();
    let _ = service
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap();
    let replay = service
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    let engine = &replay.result.engine;
    assert_eq!(engine.cache.misses, 0, "replay must be pure hits");
    assert!(engine.evaluations_per_second().is_finite());
    assert!(engine.mean_generation_seconds().is_finite());
    assert!(engine.cache.hit_rate().is_finite());
    assert!(engine.macro_cache.hit_rate().is_finite());
    // "pJ/inf" (energy per inference) is a legitimate unit label; a
    // leaked non-finite value formats as a standalone "inf"/"-inf"/"NaN".
    let report = easyacim::chip_report(&replay.result);
    assert!(
        !report.contains("NaN") && !report.contains(" inf") && !report.contains("-inf"),
        "report leaked a non-finite number:\n{report}"
    );
    // The always-rendered telemetry line and the macro-metric reuse line
    // survive the zero-duration replay with finite values too.
    assert!(report.contains("telemetry: generation p50"));
    assert!(report.contains("macro-metric reuse:"));
    // Same for the service-level telemetry section: a replay whose
    // request latency histogram holds near-zero observations must still
    // render finite quantiles everywhere.
    let section = easyacim::telemetry_section(&service.telemetry());
    assert!(section.starts_with("telemetry:\n"));
    assert!(section.contains("service_request_seconds"));
    assert!(section.contains("service_cache_hit_rate"));
    assert!(
        !section.contains("NaN") && !section.contains(" inf") && !section.contains("-inf"),
        "telemetry section leaked a non-finite number:\n{section}"
    );
}

#[test]
fn telemetry_is_observably_passive() {
    // The acceptance bar of the telemetry layer: recording spans,
    // histograms and gauges must never perturb exploration.  Identical
    // requests on a telemetry-enabled and a telemetry-disabled service
    // produce bit-identical frontiers, macro and chip alike.
    let enabled = ExplorationService::new();
    assert!(enabled.telemetry_handle().is_enabled());
    let disabled = ExplorationService::with_config(ServiceConfig::default().without_telemetry());
    assert!(!disabled.telemetry_handle().is_enabled());

    let on_macro = enabled
        .run(ExplorationRequest::macro_space(quick_flow_config()))
        .unwrap()
        .into_macro()
        .unwrap();
    let off_macro = disabled
        .run(ExplorationRequest::macro_space(quick_flow_config()))
        .unwrap()
        .into_macro()
        .unwrap();
    assert_same_macro_frontier(&on_macro.result.frontier, &off_macro.result.frontier);
    assert_same_macro_frontier(&on_macro.result.distilled, &off_macro.result.distilled);

    let on_chip = enabled
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    let off_chip = disabled
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    assert_same_chip_frontier(&on_chip.result.front, &off_chip.result.front);
    assert_eq!(
        on_chip.result.engine.evaluations,
        off_chip.result.engine.evaluations
    );

    // The instrumented service actually recorded; the disabled one is
    // empty in both exposition formats.
    let on = enabled.telemetry();
    assert!(on.counter("service_requests_total", &[("kind", "macro")]) == Some(1));
    assert!(on.counter("service_requests_total", &[("kind", "chip")]) == Some(1));
    assert!(!easyacim::prometheus_text(&on).is_empty());
    let off = disabled.telemetry();
    assert!(off.is_empty());
    assert!(easyacim::prometheus_text(&off).is_empty());
    assert!(easyacim::json_text(&off).contains("\"metrics\":[]"));
}

#[test]
fn cancelling_one_job_mid_run_leaves_survivors_bit_identical() {
    use easyacim::FlowError;

    // Control: the same request on a fresh, quiet service.
    let control_service = ExplorationService::new();
    let control = control_service
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();

    // Test: a long-budget job over the SAME design space (the space
    // signature excludes budget fields, so both jobs share one cache) is
    // cancelled mid-run while a surviving job runs concurrently.
    let service = ExplorationService::with_config(ServiceConfig::default().with_workers(2));
    let mut long_config = quick_chip_config();
    long_config.dse.generations = 50_000;
    let victim = service
        .submit(ExplorationRequest::chip_space(long_config).label("victim"))
        .unwrap();
    while victim.progress().completed == 0 {
        std::thread::yield_now();
    }
    let survivor = service
        .submit(ExplorationRequest::chip_space(quick_chip_config()).label("survivor"))
        .unwrap();
    victim.cancel();
    match victim.join() {
        Err(FlowError::Cancelled { completed, total }) => {
            assert!(completed >= 1 && completed < total);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let survived = survivor.join().unwrap().into_chip().unwrap();
    // The cancelled tenant's cache writes are a clean prefix of an
    // uninterrupted run's, and cache entries are semantically lossless:
    // the survivor's frontier is bit-identical to the no-cancellation
    // control run, no matter how many of its evaluations were answered
    // by entries the victim wrote before stopping.
    assert_same_chip_frontier(&control.result.front, &survived.result.front);

    // The shared cache stays consistent after the cancellation: an
    // identical replay is answered entirely from it, bit-identically.
    let replay = service
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    assert_eq!(replay.result.engine.cache.misses, 0);
    assert_same_chip_frontier(&control.result.front, &replay.result.front);
}
