//! Property-based tests of the interleaved stream simulator.
//!
//! Two conservation laws the co-scheduler promises for *any* mix:
//!
//! 1. **Cycle conservation** — the interleaved schedule invents no work:
//!    the mix total is exactly the sum of every tenant's own layer
//!    cycles, on uniform and heterogeneous grids alike.
//! 2. **Order invariance** — tenant declaration order is a scheduling
//!    input, never an accounting input: on uniform grids (where placement
//!    cannot change which macro shape a tile lands on) reordering the
//!    tenants leaves aggregate energy, total cycles and every per-tenant
//!    error measurement bit-identical.

use acim_arch::AcimSpec;
use acim_chip::{simulate_mix, ChipSpec, MacroGrid, Network, WorkloadMix};
use acim_model::ModelParams;
use proptest::prelude::*;

/// The three workload families, by catalogue index.
fn catalog(index: usize) -> Network {
    match index {
        0 => Network::edge_cnn(1),
        1 => Network::transformer_block(),
        _ => Network::snn_pipeline(),
    }
}

/// All orders of the three catalogue entries.
const PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Known-valid macro shapes spanning the design space corners.
fn spec(index: usize) -> AcimSpec {
    let (h, w, l, b) = match index {
        0 => (128, 32, 4, 4),
        1 => (64, 16, 4, 3),
        2 => (128, 128, 8, 4),
        _ => (512, 32, 4, 2),
    };
    AcimSpec::from_dimensions(h, w, l, b).unwrap()
}

fn buffer(index: usize) -> usize {
    [8, 32, 64][index]
}

/// Builds a mix over catalogue tenants `order`, with per-*network*
/// weights and activation widths (indexed by catalogue entry, so two
/// mixes over the same tenant set agree on every tenant's parameters
/// regardless of order).
fn build_mix(order: &[usize], params: &[(u32, u32)]) -> WorkloadMix {
    let mut mix = WorkloadMix::new("prop");
    for &index in order {
        let (weight, bits) = params[index];
        mix = mix.with_quantized_tenant(catalog(index), f64::from(weight) / 2.0, bits);
    }
    mix
}

/// Any mix: 1–3 distinct tenants in any order.
fn any_mix() -> impl Strategy<Value = WorkloadMix> {
    (
        0usize..6,
        1usize..=3,
        prop::collection::vec((1u32..=8, 1u32..=3), 3),
    )
        .prop_map(|(perm, len, params)| build_mix(&PERMS[perm][..len], &params))
}

/// Any chip, heterogeneous grids included.
fn any_chip() -> impl Strategy<Value = ChipSpec> {
    (
        1usize..=2,
        1usize..=2,
        prop::collection::vec(0usize..4, 4),
        0usize..3,
    )
        .prop_map(|(rows, cols, indices, buf)| {
            let specs: Vec<AcimSpec> = indices[..rows * cols].iter().map(|&i| spec(i)).collect();
            ChipSpec::new(
                MacroGrid::from_specs(rows, cols, specs).unwrap(),
                buffer(buf),
            )
            .unwrap()
        })
}

/// Any uniform chip (every grid position the same macro shape).
fn uniform_chip() -> impl Strategy<Value = ChipSpec> {
    (1usize..=2, 1usize..=2, 0usize..4, 0usize..3).prop_map(|(rows, cols, index, buf)| {
        ChipSpec::new(
            MacroGrid::uniform(rows, cols, spec(index)).unwrap(),
            buffer(buf),
        )
        .unwrap()
    })
}

/// The same 2–3-tenant set in two independently drawn orders.
fn permuted_mixes() -> impl Strategy<Value = (WorkloadMix, WorkloadMix)> {
    (
        0usize..6,
        0usize..6,
        2usize..=3,
        prop::collection::vec((1u32..=8, 1u32..=3), 3),
    )
        .prop_map(|(perm_a, perm_b, len, params)| {
            let order = |perm: usize| -> Vec<usize> {
                PERMS[perm].iter().copied().filter(|&i| i < len).collect()
            };
            (
                build_mix(&order(perm_a), &params),
                build_mix(&order(perm_b), &params),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn per_tenant_cycles_sum_to_the_interleaved_total(
        chip in any_chip(),
        mix in any_mix(),
        seed in 0u64..1024,
    ) {
        let report = simulate_mix(&chip, &mix, &ModelParams::s28_default(), seed).unwrap();
        let per_tenant: u64 = report
            .tenants
            .iter()
            .map(|t| t.report.layers.iter().map(|l| l.cycles).sum::<u64>())
            .sum();
        prop_assert_eq!(report.total_cycles, per_tenant);
        prop_assert_eq!(report.tenants.len(), mix.len());
    }

    #[test]
    fn tenant_order_never_changes_aggregate_energy(
        chip in uniform_chip(),
        (mix_a, mix_b) in permuted_mixes(),
        seed in 0u64..1024,
    ) {
        let a = simulate_mix(&chip, &mix_a, &ModelParams::s28_default(), seed).unwrap();
        let b = simulate_mix(&chip, &mix_b, &ModelParams::s28_default(), seed).unwrap();
        prop_assert_eq!(a.total_energy_fj.to_bits(), b.total_energy_fj.to_bits());
        prop_assert_eq!(a.total_cycles, b.total_cycles);
        // Each tenant's own measurements are order-invariant too: match
        // them up by name.
        for tenant in &a.tenants {
            let other = b
                .tenants
                .iter()
                .find(|t| t.name == tenant.name)
                .expect("same tenant set");
            prop_assert_eq!(
                tenant.report.total_energy_fj.to_bits(),
                other.report.total_energy_fj.to_bits()
            );
            prop_assert_eq!(
                tenant.report.max_relative_error().to_bits(),
                other.report.max_relative_error().to_bits()
            );
        }
    }
}
