//! Golden regression for behavioural chip validation.
//!
//! The chip stage validates a single network through `simulate_mix` as the
//! mix of one: every tile drives its own behavioural macro, seeded by the
//! validation seed, the tenant's name, the layer and the tile.  The
//! constants pin that output exactly for `edge_cnn(1)` on a 2x2 grid of
//! 64x16 L4 B4 macros at the chip stage's default validation seed, so a
//! change to lowering, seeding, noise or accumulation shows up as a bit
//! change instead of only as an error-threshold crossing.  The second test
//! pins the three mixes the service validates on the same grid and seed:
//! `edge_cnn(3)`, `transformer_block()` and the three-tenant `edge_mix()`.

use acim_arch::AcimSpec;
use acim_chip::{simulate_mix, ChipSpec, MacroGrid, Network, WorkloadMix};
use acim_model::ModelParams;

/// `(layer, cycles, energy_fj.to_bits(), relative_error.to_bits())`.
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("stem", 13, 0x40e387919c084020, 0x3f99d5acb6f46505),
    ("block0", 72, 0x410b0a7ad80b6c7a, 0x3f99573ac901e571),
    ("head", 1, 0x40a80950c00a2789, 0x3faccccccccccccd),
];

#[test]
fn single_tenant_validation_matches_golden_bits() {
    let spec = AcimSpec::from_dimensions(64, 16, 4, 4).unwrap();
    let chip = ChipSpec::new(MacroGrid::uniform(2, 2, spec).unwrap(), 64).unwrap();
    let mix = WorkloadMix::from(Network::edge_cnn(1));
    let report = simulate_mix(&chip, &mix, &ModelParams::s28_default(), 0xC812).unwrap();
    let layers: Vec<(&str, u64, u64, u64)> = report.tenants[0]
        .report
        .layers
        .iter()
        .map(|layer| {
            (
                layer.name.as_str(),
                layer.cycles,
                layer.energy_fj.to_bits(),
                layer.relative_error.to_bits(),
            )
        })
        .collect();
    assert_eq!(layers, GOLDEN);
}

/// One pinned layer of a mix: `(tenant, layer, cycles, tiles,
/// energy_fj.to_bits(), latency_ns.to_bits(), relative_error.to_bits())`.
type LayerRow<'a> = (&'a str, &'a str, u64, usize, u64, u64, u64);

/// `(makespan_ns.to_bits(), total_energy_fj.to_bits(), total_cycles)`.
type MixTotals = (u64, u64, u64);

/// `edge_cnn(3)` as the mix of one, as the service validates it.
const EDGE_CNN3: (&[LayerRow], MixTotals) = (
    &[
        (
            "edge_cnn_d3",
            "stem",
            13,
            1,
            0x40e387919c084020,
            0x40548e3bcd35a858,
            0x3f9be1f671529a4a,
        ),
        (
            "edge_cnn_d3",
            "block0",
            72,
            4,
            0x410b0a7ad80b6c7a,
            0x405c762b6ae7d566,
            0x3f97693e93e93e95,
        ),
        (
            "edge_cnn_d3",
            "block1",
            72,
            4,
            0x410b0a7ad80b6c7a,
            0x405c762b6ae7d566,
            0x3f9a212f684bda11,
        ),
        (
            "edge_cnn_d3",
            "block2",
            72,
            4,
            0x410b0a7ad80b6c7a,
            0x405c762b6ae7d566,
            0x3f9aaaaaaaaaaaa7,
        ),
        (
            "edge_cnn_d3",
            "head",
            1,
            1,
            0x40a80950c00a2789,
            0x40194c985f06f694,
            0x3fb2cccccccccccd,
        ),
    ],
    (0x407ae161e4f765fc, 0x4125985e8c891f86, 230),
);

/// `transformer_block()` as the mix of one: three attention projections.
const TRANSFORMER_BLOCK: (&[LayerRow], MixTotals) = (
    &[
        (
            "transformer_block",
            "query",
            16,
            2,
            0x40e80950c00a278a,
            0x40494c985f06f694,
            0x3f9e222222222224,
        ),
        (
            "transformer_block",
            "key",
            16,
            2,
            0x40e80950c00a278a,
            0x40494c985f06f694,
            0x3f9b8cccccccccd0,
        ),
        (
            "transformer_block",
            "value",
            16,
            2,
            0x40e80950c00a278a,
            0x40494c985f06f694,
            0x3fa01ddddddddddf,
        ),
    ],
    (0x4062f972474538ef, 0x410206fc90079da8, 48),
);

/// `edge_mix()`: three tenants, SNN spikes and co-scheduled rounds, so a
/// layer's `latency_ns` is its round's.
const EDGE_MIX: (&[LayerRow], MixTotals) = (
    &[
        (
            "edge_cnn_d1",
            "stem",
            13,
            1,
            0x40e387919c084020,
            0x40548e3bcd35a858,
            0x3f99d5acb6f46505,
        ),
        (
            "edge_cnn_d1",
            "block0",
            72,
            4,
            0x410b0a7ad80b6c7a,
            0x40648e3bcd35a858,
            0x3f99573ac901e571,
        ),
        (
            "edge_cnn_d1",
            "head",
            1,
            1,
            0x40a80950c00a2789,
            0x40494c985f06f694,
            0x3faccccccccccccd,
        ),
        (
            "transformer_block",
            "query",
            16,
            2,
            0x40e80950c00a278a,
            0x40548e3bcd35a858,
            0x3f9e222222222224,
        ),
        (
            "transformer_block",
            "key",
            16,
            2,
            0x40e80950c00a278a,
            0x40648e3bcd35a858,
            0x3f9b8cccccccccd0,
        ),
        (
            "transformer_block",
            "value",
            16,
            2,
            0x40e80950c00a278a,
            0x40494c985f06f694,
            0x3fa01ddddddddddf,
        ),
        (
            "snn_pipeline",
            "sensing",
            8,
            2,
            0x40d80950c00a2789,
            0x40548e3bcd35a858,
            0x3f98b33333333334,
        ),
        (
            "snn_pipeline",
            "classifier",
            2,
            1,
            0x40b80950c00a2789,
            0x40648e3bcd35a858,
            0x3fa147ae147ae148,
        ),
    ],
    (0x4072943fe5c91d14, 0x411b0a7ad80b6c7b, 144),
);

/// The three mixes the service's chip requests validate, on the same grid
/// and seed as the single-tenant row: attention lowering, SNN lowering and
/// multi-tenant rounds each change bits here first.
#[test]
fn service_mix_validations_match_golden_bits() {
    let spec = AcimSpec::from_dimensions(64, 16, 4, 4).unwrap();
    let chip = ChipSpec::new(MacroGrid::uniform(2, 2, spec).unwrap(), 64).unwrap();
    for (mix, (golden_layers, golden_totals)) in [
        (WorkloadMix::from(Network::edge_cnn(3)), EDGE_CNN3),
        (
            WorkloadMix::from(Network::transformer_block()),
            TRANSFORMER_BLOCK,
        ),
        (WorkloadMix::edge_mix(), EDGE_MIX),
    ] {
        let report = simulate_mix(&chip, &mix, &ModelParams::s28_default(), 0xC812).unwrap();
        let layers: Vec<LayerRow> = report
            .tenants
            .iter()
            .flat_map(|tenant| {
                tenant.report.layers.iter().map(|layer| {
                    (
                        tenant.name.as_str(),
                        layer.name.as_str(),
                        layer.cycles,
                        layer.tiles,
                        layer.energy_fj.to_bits(),
                        layer.latency_ns.to_bits(),
                        layer.relative_error.to_bits(),
                    )
                })
            })
            .collect();
        assert_eq!(layers, golden_layers, "{}", mix.name);
        let totals = (
            report.makespan_ns.to_bits(),
            report.total_energy_fj.to_bits(),
            report.total_cycles,
        );
        assert_eq!(totals, golden_totals, "{}", mix.name);
    }
}
