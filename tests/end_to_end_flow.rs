//! Integration test: the complete EasyACIM flow (Figure 4) from array size
//! to generated layouts, spanning every crate of the workspace.

use easyacim::prelude::*;
use easyacim::FlowConfig;

fn quick_config(array_size: usize) -> FlowConfig {
    let mut config = FlowConfig::new(array_size);
    config.dse.population_size = 24;
    config.dse.generations = 10;
    config.max_layouts = 1;
    config
}

#[test]
fn flow_produces_consistent_netlist_and_layout() {
    let result = TopFlowController::new(quick_config(4 * 1024))
        .expect("controller builds")
        .run()
        .expect("flow runs");

    assert!(!result.frontier.is_empty());
    assert!(!result.designs.is_empty());
    let design = &result.designs[0];

    // The netlist and the layout describe the same macro.
    let spec = design.point.spec;
    assert_eq!(design.netlist_stats.sram_cells, spec.array_size());
    assert_eq!(
        design.netlist_stats.comparators,
        spec.width(),
        "one comparator per column"
    );
    let sram_instances = design
        .layout
        .layout
        .parts()
        .flat_map(|part| &part.block.instances)
        .filter(|i| i.cell == "SRAM8T")
        .count();
    assert_eq!(sram_instances, spec.array_size());

    // The layout-measured density agrees with the analytic model within 10%.
    let model_area = design.point.metrics.area_f2_per_bit;
    let layout_area = design.layout.metrics.core_area_f2_per_bit;
    let gap = (model_area - layout_area).abs() / model_area;
    assert!(
        gap < 0.10,
        "model {model_area:.0} vs layout {layout_area:.0} F2/bit ({:.1}% apart)",
        gap * 100.0
    );
}

#[test]
fn distillation_profiles_select_different_corners() {
    // The same frontier distilled for a transformer vs an SNN must not pick
    // identical design sets (the Figure 1 motivation, end to end).
    let mut config = quick_config(16 * 1024);
    config.dse.population_size = 40;
    config.dse.generations = 20;
    let controller = TopFlowController::new(config).expect("controller builds");
    let frontier = {
        let explorer = DesignSpaceExplorer::new(controller.config().dse.clone()).expect("explorer");
        explorer.explore().expect("explore").into_points()
    };

    let transformer = UserRequirements {
        min_snr_db: Some(ApplicationProfile::Transformer.min_snr_db()),
        ..UserRequirements::none()
    }
    .distill(&frontier);
    let snn = UserRequirements {
        min_tops_per_watt: Some(ApplicationProfile::Snn.min_tops_per_watt()),
        ..UserRequirements::none()
    }
    .distill(&frontier);

    assert!(
        !transformer.is_empty(),
        "transformer profile found no design"
    );
    assert!(!snn.is_empty(), "snn profile found no design");
    let min_bits_transformer = transformer.iter().map(|p| p.spec.adc_bits()).min().unwrap();
    let max_bits_snn = snn.iter().map(|p| p.spec.adc_bits()).max().unwrap();
    assert!(
        min_bits_transformer > 1,
        "accuracy profile should not accept 1-bit ADCs"
    );
    assert!(
        snn.iter().any(|p| p.spec.adc_bits() <= 3),
        "efficiency profile should include low-precision designs (max B seen: {max_bits_snn})"
    );
}
