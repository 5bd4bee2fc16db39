//! Golden regression for single-tenant behavioural validation.
//!
//! The chip stage validates a single network through `simulate_mix` as the
//! mix of one: every tile drives its own behavioural macro, seeded by the
//! validation seed, the tenant's name, the layer and the tile.  The
//! constants pin that output exactly for `edge_cnn(1)` on a 2x2 grid of
//! 64x16 L4 B4 macros at the chip stage's default validation seed, so a
//! change to lowering, seeding, noise or accumulation shows up as a bit
//! change instead of only as an error-threshold crossing.

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
