//! The multi-tenant exploration service: N concurrent mixed macro/chip
//! requests against shared per-design-space caches, then a warm-started
//! follow-up request.
//!
//! One `ExplorationService` owns one evaluation cache per design space.
//! The example submits a full macro flow and two chip-composition
//! requests **concurrently** (the two chip requests share one space, so
//! the slower one reads entries the faster one wrote), watches their
//! progress through the job handles, and finally re-runs the chip
//! exploration **warm-started** from the first session's Pareto archive —
//! demonstrating cross-request cache hits and the seeded-population path.
//!
//! ```bash
//! cargo run --release --example exploration_service
//! # tiny budget (used by the CI smoke job):
//! cargo run --release --example exploration_service -- --quick
//! # bound the shared caches (exercises CLOCK eviction; the CI smoke job
//! # runs this to prove bounded caches change counters, not results):
//! cargo run --release --example exploration_service -- --quick --cache-cap 48
//! # oversubscribe the worker set ~4x and prove — via the telemetry
//! # gauges — that the scheduler never runs more jobs than workers:
//! cargo run --release --example exploration_service -- --quick --oversubscribe
//! # dump the service's telemetry (Prometheus text exposition) at exit:
//! cargo run --release --example exploration_service -- --quick --telemetry
//! # persistence round trip: write a snapshot at exit, then restart from
//! # it (the CI smoke job chains exactly these two invocations):
//! cargo run --release --example exploration_service -- --quick --snapshot /tmp/easyacim.snap
//! cargo run --release --example exploration_service -- --quick --restore /tmp/easyacim.snap
//! ```

use easyacim::chip_report;
use easyacim::prelude::*;
use easyacim::service::{ExplorationRequest, ExplorationService, ServiceConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|arg| arg == "--quick");
    let telemetry = args.iter().any(|arg| arg == "--telemetry");
    let oversubscribe = args.iter().any(|arg| arg == "--oversubscribe");
    let cache_cap: Option<usize> = args.iter().position(|arg| arg == "--cache-cap").map(|i| {
        let cap: usize = args
            .get(i + 1)
            .expect("--cache-cap requires a value")
            .parse()
            .expect("--cache-cap takes a positive integer");
        assert!(cap > 0, "--cache-cap takes a positive integer, got 0");
        cap
    });
    let path_arg = |flag: &str| {
        args.iter().position(|arg| arg == flag).map(|i| {
            std::path::PathBuf::from(
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("{flag} requires a path")),
            )
        })
    };
    let snapshot_path = path_arg("--snapshot");
    let restore_path = path_arg("--restore");
    let (population_size, generations) = if quick { (16, 6) } else { (40, 24) };

    // One macro-flow request…
    let mut flow = FlowConfig::new(4 * 1024);
    flow.dse.population_size = population_size;
    flow.dse.generations = generations;
    flow.max_layouts = 1;

    // …and two identical chip requests over one design space.
    let mut chip = ChipFlowConfig::for_mix(Network::edge_cnn(if quick { 1 } else { 3 }));
    chip.dse.population_size = population_size;
    chip.dse.generations = generations;
    chip.validate_best = false;

    let service_config = match cache_cap {
        // Evaluation caches at the requested bound; macro-metric caches
        // far smaller (they hold distinct macro *shapes*, a much smaller
        // population than distinct genomes).
        Some(cap) => {
            println!(
                "bounded caches: {cap} evaluations / {} macro metrics per store",
                (cap / 8).max(2)
            );
            ServiceConfig::bounded(cap, (cap / 8).max(2))
        }
        None => ServiceConfig::default(),
    };
    let service = ExplorationService::with_config(service_config);
    println!(
        "scheduler: {} workers, admission queue capacity {}",
        service.worker_count(),
        service.queue_capacity(),
    );

    // Restore a previous process's snapshot before any work: caches and
    // session archives merge in, and the requests below start warm.  Any
    // unreadable or corrupted file is a typed rejection and a clean cold
    // start — never a crash.
    if let Some(path) = &restore_path {
        match service.restore(path) {
            Ok(report) => println!("restored {}: {report}", path.display()),
            Err(err) => println!(
                "restore of {} rejected ({}), continuing cold: {err}",
                path.display(),
                err.reason()
            ),
        }
    }

    // The baseline workload: one high-priority macro flow plus two
    // identical chip requests.  With `--oversubscribe`, pile enough
    // extra chip jobs on top to oversubscribe the worker set ~4x — the
    // bounded scheduler queues the excess instead of spawning threads.
    let mut handles = vec![
        service.submit(
            ExplorationRequest::macro_space(flow)
                .priority(Priority::High)
                .label("macro"),
        )?,
        service.submit(ExplorationRequest::chip_space(chip.clone()).label("chip-a"))?,
        service.submit(ExplorationRequest::chip_space(chip.clone()).label("chip-b"))?,
    ];
    if oversubscribe {
        let extra = (service.worker_count() * 4)
            .saturating_sub(handles.len())
            .min(service.queue_capacity());
        for i in 0..extra {
            handles.push(
                service.submit(
                    ExplorationRequest::chip_space(chip.clone())
                        .priority(Priority::Low)
                        .label(format!("backlog-{i}")),
                )?,
            );
        }
    }
    println!("submitted {} concurrent requests:", handles.len());
    for handle in &handles {
        println!(
            "  job {} over space {} ({}, priority {})",
            handle.id(),
            handle.space(),
            handle.label().unwrap_or("unlabelled"),
            handle.priority(),
        );
    }

    // Observe progress until every job finishes (the handles' counters
    // are fed by the per-generation observer of the NSGA-II loop).  The
    // `service_active_jobs` gauge must never exceed the worker count —
    // that is the scheduler's whole admission-control contract.
    let mut max_active: f64 = 0.0;
    let mut last_status = String::new();
    loop {
        let all_done = handles.iter().all(easyacim::JobHandle::is_finished);
        let snapshot = service.telemetry();
        if let Some(active) = snapshot.gauge("service_active_jobs", &[]) {
            max_active = max_active.max(active);
            assert!(
                active <= service.worker_count() as f64,
                "active jobs ({active}) exceeded the worker set ({})",
                service.worker_count()
            );
        }
        let status = handles
            .iter()
            .map(|handle| format!("job {} {}", handle.id(), handle.progress()))
            .collect::<Vec<_>>()
            .join("  ");
        if status != last_status {
            println!("progress: {status}");
            last_status = status;
        }
        if all_done {
            break;
        }
        // Quick requests can all finish within a few milliseconds, before
        // a coarser sample would see one running, so a quick run polls as
        // often as the scheduler lets it.
        if quick {
            std::thread::yield_now();
        } else {
            std::thread::sleep(std::time::Duration::from_millis(250));
        }
    }
    if oversubscribe {
        assert!(
            max_active >= 1.0,
            "the gauge never observed a running job — sampling too coarse"
        );
        println!(
            "oversubscription held: max {max_active:.0} active jobs across {} submissions \
             (worker set: {})",
            handles.len(),
            service.worker_count(),
        );
    }

    let mut chip_archive = None;
    let chip_space = handles[1].space().to_string();
    for handle in handles {
        let id = handle.id();
        match handle.join()? {
            ExplorationResponse::Macro(response) => {
                let result = &response.result;
                println!(
                    "job {id} (macro flow): {} frontier points, {} layouts, cache {}",
                    result.frontier.len(),
                    result.designs.len(),
                    result.engine.cache,
                );
            }
            ExplorationResponse::Chip(response) => {
                let result = &response.result;
                println!(
                    "job {id} (chip): {} frontier chips, {} evaluations, cache {}",
                    result.front.len(),
                    result.engine.evaluations,
                    result.engine.cache,
                );
                chip_archive = Some(response.session);
            }
        }
    }
    println!(
        "service caches: {} distinct designs across {} design spaces, \
         {} distinct macro metrics, {} evictions",
        service.cached_evaluations(),
        service.spaces().len(),
        service.cached_macro_metrics(),
        service.total_evictions(),
    );
    if let Some(cap) = cache_cap {
        assert!(
            service.cached_evaluations() <= cap * service.spaces().len(),
            "bounded stores must respect their capacity"
        );
        assert!(
            service.total_evictions() > 0,
            "a small bound over this workload must evict"
        );
    }

    // Warm start: seed a follow-up request from the finished session's
    // Pareto archive.  Over the now-populated shared cache the warm run's
    // evaluations are answered almost entirely from memory.
    let session = chip_archive.expect("a chip request ran");
    println!(
        "\nwarm-starting a follow-up chip request from {} archived genomes",
        session.len()
    );
    let warm = service
        .run(
            ExplorationRequest::chip_space(chip.clone())
                .warm_start(session)
                .priority(Priority::High)
                .label("warm"),
        )?
        .into_chip()
        .expect("chip request yields a chip response");
    println!(
        "warm run: {} frontier chips, cache {} ({} cross-request entries reused)",
        warm.result.front.len(),
        warm.result.engine.cache,
        warm.result.engine.cache.hits,
    );
    assert!(
        warm.result.engine.cache.hits > 0,
        "warm run must reuse cross-request cache entries"
    );
    println!("\n{}", chip_report(&warm.result));

    // Persistence round trip: snapshot everything warm about the service,
    // then simulate a process restart — a brand-new service restores the
    // file and re-runs the follow-up request, answered from the restored
    // caches instead of from scratch.
    if let Some(path) = &snapshot_path {
        let report = service.snapshot(path)?;
        println!("\nsnapshot written to {}: {report}", path.display());

        let restarted = ExplorationService::with_config(service_config);
        let restored = restarted.restore(path)?;
        println!("\"restarted\" service restored: {restored}");
        let archive = restarted
            .archive(&chip_space)
            .expect("the snapshot carried the chip space's session archive");
        let rerun = restarted
            .run(
                ExplorationRequest::chip_space(chip)
                    .warm_start(archive)
                    .label("restored-warm"),
            )?
            .into_chip()
            .expect("chip request yields a chip response");
        println!(
            "restored warm run: {} frontier chips, cache {}",
            rerun.result.front.len(),
            rerun.result.engine.cache,
        );
        assert!(
            rerun.result.engine.cache.hits > 0,
            "a restored service must answer the warm re-run from its caches"
        );
    }

    if telemetry {
        // Everything the service observed, in Prometheus text exposition
        // (scrapeable verbatim) — request counters and latency
        // histograms, queue/active gauges, per-space cache hit rates,
        // and per-generation histograms.
        println!("--- telemetry (prometheus text exposition) ---");
        print!("{}", easyacim::prometheus_text(&service.telemetry()));
    }
    Ok(())
}
