//! Cross-crate integration tests of the chip-level subsystem: network
//! partitioning onto a macro grid, analytic evaluation, NSGA-II
//! co-exploration, behavioural validation, and the easyacim flow stage.

use acim_arch::AcimSpec;
use acim_chip::{
    simulate_mix, ChipEvaluator, ChipMetrics, ChipSimReport, ChipSpec, MacroGrid, Network,
    WorkloadMix,
};
use acim_dse::{ChipDseConfig, ChipExplorer};
use acim_model::ModelParams;
use easyacim::{chip_report, ChipFlowConfig, ChipStage, Stage};

fn quick_dse(network: Network) -> ChipDseConfig {
    let mut config = ChipDseConfig::for_mix(network);
    config.population_size = 24;
    config.generations = 10;
    config.grid_rows = vec![1, 2];
    config.grid_cols = vec![1, 2];
    config.buffer_kib = vec![8, 32];
    config
}

/// Default-parameter analytic metrics of one network (the mix of one).
fn evaluate_one(chip: &ChipSpec, network: &Network) -> ChipMetrics {
    let mix = WorkloadMix::from(network.clone());
    let mut metrics = ChipEvaluator::s28_default()
        .evaluate_mix(chip, &mix)
        .unwrap();
    metrics.tenants.remove(0).metrics
}

/// Behavioural report of one network (the mix of one) at default parameters.
fn simulate_one(chip: &ChipSpec, network: &Network, seed: u64) -> ChipSimReport {
    let mix = WorkloadMix::from(network.clone());
    let mut report = simulate_mix(chip, &mix, &ModelParams::s28_default(), seed).unwrap();
    report.tenants.remove(0).report
}

#[test]
fn cnn_maps_onto_macro_grid_end_to_end() {
    let spec = AcimSpec::from_dimensions(64, 16, 4, 4).unwrap();
    let chip = ChipSpec::new(MacroGrid::uniform(2, 2, spec).unwrap(), 32).unwrap();
    let network = Network::edge_cnn(2);

    // Analytic path.
    let metrics = evaluate_one(&chip, &network);
    assert_eq!(metrics.layers.len(), network.len());
    assert!(metrics.throughput_tops > 0.0);
    assert!(metrics.energy_per_inference_pj > 0.0);

    // Behavioural path: every layer runs on the grid with bounded error.
    let sim = simulate_one(&chip, &network, 17);
    assert_eq!(sim.layers.len(), network.len());
    assert!(
        sim.max_relative_error() < 0.2,
        "error {}",
        sim.max_relative_error()
    );
    // The wide middle layers must actually use several macros.
    assert!(sim.layers.iter().any(|l| l.macros_used > 1));
    // Analytic and measured latency agree on the workload scale (same
    // partitioner, cycle counts and timing; the analytic latency adds
    // buffer-traffic overlap and NoC fill).
    let ratio = metrics.latency_ns / sim.total_latency_ns;
    assert!((0.2..5.0).contains(&ratio), "latency ratio {ratio}");
}

#[test]
fn chip_exploration_is_deterministic_with_parallel_evaluation() {
    let config = quick_dse(Network::edge_cnn(1));
    let a = ChipExplorer::new(config.clone())
        .unwrap()
        .explore()
        .unwrap();
    let b = ChipExplorer::new(config).unwrap().explore().unwrap();
    assert_eq!(a.len(), b.len());
    assert_eq!(a.engine.evaluations, b.engine.evaluations);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.objective_vector(), y.objective_vector());
        assert_eq!(x.chip, y.chip);
    }
}

#[test]
fn different_seeds_explore_differently() {
    let base = quick_dse(Network::transformer_block());
    let mut reseeded = base.clone();
    reseeded.seed = base.seed ^ 0xDEAD;
    let a = ChipExplorer::new(base).unwrap().explore().unwrap();
    let b = ChipExplorer::new(reseeded).unwrap().explore().unwrap();
    // Either the fronts differ or (rarely) both converged to the same
    // set; the evaluation budget at least must match the configuration.
    assert_eq!(a.engine.evaluations, b.engine.evaluations);
}

#[test]
fn heterogeneous_grid_evaluates_and_simulates() {
    let fast = AcimSpec::from_dimensions(128, 32, 2, 3).unwrap();
    let dense = AcimSpec::from_dimensions(64, 64, 8, 3).unwrap();
    let chip = ChipSpec::new(MacroGrid::from_specs(1, 2, vec![fast, dense]).unwrap(), 32).unwrap();
    let network = Network::transformer_block();
    let metrics = evaluate_one(&chip, &network);
    assert!(metrics.accuracy_db.is_finite());
    let sim = simulate_one(&chip, &network, 5);
    assert!(sim.max_relative_error() < 0.3);
}

#[test]
fn all_three_workload_families_run_on_a_chip() {
    let spec = AcimSpec::from_dimensions(64, 16, 4, 4).unwrap();
    let chip = ChipSpec::new(MacroGrid::uniform(2, 2, spec).unwrap(), 16).unwrap();
    for network in [
        Network::edge_cnn(1),
        Network::transformer_block(),
        Network::snn_pipeline(),
    ] {
        let metrics = evaluate_one(&chip, &network);
        assert!(metrics.latency_ns > 0.0, "{}", network.name);
        assert!(metrics.mean_utilization > 0.0, "{}", network.name);
    }
}

#[test]
fn chip_flow_stage_reports_front_and_validation() {
    let mut config = ChipFlowConfig::for_mix(Network::edge_cnn(1));
    config.dse = quick_dse(Network::edge_cnn(1));
    let result = ChipStage::new(config).run(()).unwrap();
    assert!(!result.front.is_empty());
    let report = chip_report(&result);
    assert!(report.contains("frontier chips"));
    assert!(report.contains("behavioural validation"));
    let validation = result.validation.expect("validation enabled by default");
    assert!(validation.max_relative_error() < 0.5);
}
