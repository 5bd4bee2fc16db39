//! Mapping a multi-tenant application mix onto one chip (Figure 1's
//! motivation, measured end-to-end): a recognition CNN and a transformer
//! attention block time-share a macro grid.  The example scores the mix
//! on a fixed chip (co-scheduled vs. each tenant alone as a mix of one),
//! then runs a mix-aware chip exploration through the service and prints
//! the per-tenant report and telemetry rows.
//!
//! ```bash
//! cargo run --release --example application_mapping -- --quick
//! ```

use easyacim::prelude::*;
use easyacim::report::chip_report;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `--quick` shrinks the exploration budget so CI can exercise the
    // whole mix path (scheduling, per-tenant scoring, service, report,
    // telemetry) in seconds.
    let quick = std::env::args().any(|arg| arg == "--quick");

    // The deployment of the paper's Figure 1 that actually shares a chip:
    // bulk CNN recognition traffic plus an occasional transformer block.
    // Weights are relative arrival rates.
    let cnn = Network::edge_cnn(2);
    let transformer = Network::transformer_block();
    let mix = WorkloadMix::new("cnn+transformer")
        .with_tenant(cnn.clone(), 2.0)
        .with_tenant(transformer.clone(), 1.0);

    // --- 1. One fixed chip, each tenant alone vs. co-scheduled. --------
    let chip = ChipSpec::new(
        MacroGrid::uniform(2, 2, AcimSpec::from_dimensions(128, 32, 4, 4)?)?,
        64,
    )?;
    println!(
        "fixed chip: {}x{} grid of 128x32 L=4 B=4 macros, {} KiB buffer",
        chip.grid.rows(),
        chip.grid.cols(),
        chip.buffer_kib
    );

    let evaluator = ChipEvaluator::s28_default();
    let mut sequential_ns = 0.0;
    for (name, network) in [("cnn", &cnn), ("transformer", &transformer)] {
        // A tenant alone is the mix of one.
        let alone = evaluator
            .evaluate_mix(&chip, &network.clone().into())?
            .combined();
        sequential_ns += alone.latency_ns;
        println!(
            "  {name:<12} alone: {:>8.1} ns, {:.3} TOPS, {:.1} pJ/inf",
            alone.latency_ns, alone.throughput_tops, alone.energy_per_inference_pj
        );
    }

    let co = evaluator.evaluate_mix(&chip, &mix)?;
    println!(
        "  co-scheduled: makespan {:>8.1} ns (sequential would be {:.1} ns), {:.1} pJ total",
        co.makespan_ns, sequential_ns, co.total_energy_pj
    );
    for tenant in &co.tenants {
        println!(
            "    {:<18} w={:<4} {:>8.1} ns, {:.3} TOPS, acc {:.1} dB, {} macro reads",
            tenant.name,
            tenant.weight,
            tenant.metrics.latency_ns,
            tenant.metrics.throughput_tops,
            tenant.metrics.accuracy_db,
            tenant.macro_reads
        );
    }
    assert_eq!(co.tenants.len(), 2);
    println!();

    // --- 2. Mix-aware chip exploration through the service. ------------
    let mut config = ChipFlowConfig::for_mix(mix.clone());
    if quick {
        config.dse.population_size = 16;
        config.dse.generations = 5;
        config.dse.grid_rows = vec![1, 2];
        config.dse.grid_cols = vec![1, 2];
        config.dse.buffer_kib = vec![8, 32];
    }

    let service = ExplorationService::new();
    let response = service
        .run(ExplorationRequest::chip_space(config).label("cnn+transformer-mix"))?
        .into_chip()
        .expect("chip request yields a chip response");

    let report = chip_report(&response.result);
    print!("{report}");
    assert!(!response.result.front.is_empty());
    for point in &response.result.front {
        assert_eq!(
            point.tenants.len(),
            2,
            "every frontier point carries both tenants"
        );
    }
    assert!(report.contains("per-tenant breakdown"));
    let validation = response
        .result
        .mix_validation
        .as_ref()
        .expect("mix validation runs the interleaved stream simulator");
    assert_eq!(validation.tenants.len(), 2);
    assert!(validation.max_relative_error() < 0.5);

    // The service telemetry carries the multi-tenant rows: a tenant-count
    // gauge per chip space and a latency histogram per tenant.
    let space = response.session.space().to_string();
    let snapshot = service.telemetry();
    assert_eq!(
        snapshot.gauge("chip_tenants", &[("space", space.as_str())]),
        Some(2.0)
    );
    for tenant in [cnn.name.as_str(), transformer.name.as_str()] {
        let histogram = snapshot
            .histogram(
                "chip_tenant_latency_seconds",
                &[("space", space.as_str()), ("tenant", tenant)],
            )
            .expect("per-tenant latency series");
        assert_eq!(histogram.count, 1);
        println!(
            "telemetry: chip_tenant_latency_seconds{{tenant={tenant}}} sum {:.1} ns",
            histogram.sum * 1e9
        );
    }
    println!(
        "multi-tenant mix demo passed: {} frontier chips",
        response.result.front.len()
    );
    Ok(())
}
