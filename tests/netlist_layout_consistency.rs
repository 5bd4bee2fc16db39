//! Property-based cross-crate consistency: for any valid specification, the
//! template-based netlist generator and the template-based layout flow must
//! describe the same macro (same leaf-cell population), the column template
//! must be DRC-clean, and the SPICE writer must emit a balanced deck.

use acim_arch::AcimSpec;
use acim_cell::CellLibrary;
use acim_layout::{check_layout, ColumnTemplate, LayoutFlow};
use acim_netlist::{design_stats, write_spice, NetlistGenerator};
use acim_tech::Technology;
use proptest::prelude::*;

/// Small-but-varied valid specifications (kept small so the property test
/// stays fast: at most a few thousand bit cells).
fn small_spec() -> impl Strategy<Value = AcimSpec> {
    (4u32..=7, 2u32..=5, 1u32..=4, 1u32..=5).prop_filter_map(
        "must satisfy the architectural constraints",
        |(log_h, log_w, log_l, bits)| {
            let h = 1usize << log_h;
            let w = 1usize << log_w;
            let l = 1usize << log_l;
            AcimSpec::from_dimensions(h, w, l, bits).ok()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn netlist_and_layout_agree_for_any_valid_spec(spec in small_spec()) {
        let tech = Technology::s28();
        let library = CellLibrary::s28_default(&tech);

        // Netlist side.
        let design = NetlistGenerator::new(&library).generate(&spec).unwrap();
        let stats = design_stats(&design, &library).unwrap();
        prop_assert_eq!(stats.sram_cells, spec.array_size());
        prop_assert_eq!(stats.compute_cells, spec.capacitors_per_column() * spec.width());
        prop_assert_eq!(stats.comparators, spec.width());
        prop_assert_eq!(stats.sar_dffs, spec.width() * spec.adc_bits() as usize);
        prop_assert_eq!(stats.capacitors, stats.compute_cells);

        // Layout side.
        let macro_layout = LayoutFlow::new(&tech, &library).generate(&spec).unwrap();
        let count = |cell: &str| {
            macro_layout
                .layout
                .parts()
                .flat_map(|part| &part.block.instances)
                .filter(|i| i.cell == cell)
                .count()
        };
        prop_assert_eq!(count("SRAM8T"), stats.sram_cells);
        prop_assert_eq!(count("LC_CELL"), stats.compute_cells);
        prop_assert_eq!(count("COMP_SA"), stats.comparators);
        prop_assert_eq!(count("SAR_DFF"), stats.sar_dffs);
        prop_assert_eq!(count("BUF"), stats.buffers);

        // The measured density stays within 10% of the analytic model.
        let params = acim_model::ModelParams::s28_default();
        let model_area = acim_model::area_f2_per_bit(&spec, &params).unwrap();
        let layout_area = macro_layout.metrics.core_area_f2_per_bit;
        prop_assert!(
            (model_area - layout_area).abs() / model_area < 0.10,
            "model {} vs layout {} F2/bit", model_area, layout_area
        );

        // The repeated column tile is DRC-clean.
        let column = ColumnTemplate::build(&spec, &tech, &library).unwrap();
        let report = check_layout(&column.layout, &tech);
        prop_assert!(report.is_clean(), "column DRC violations: {:?}",
            report.violations.iter().take(3).collect::<Vec<_>>());

        // The SPICE deck is balanced and names the top module.
        let deck = write_spice(&design, &library).unwrap();
        prop_assert_eq!(deck.matches(".SUBCKT").count(), deck.matches(".ENDS").count());
        prop_assert!(deck.contains(".SUBCKT ACIM_TOP"));
    }
}
