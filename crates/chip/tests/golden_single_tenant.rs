//! Golden bit-identity regression for the multi-tenant refactor.
//!
//! The constants below are the `to_bits()` images of single-network chip
//! evaluation captured on the last single-network-only revision (commit
//! before the `WorkloadMix` refactor).  The one evaluation path,
//! `ChipEvaluator::evaluate_mix`, must keep reproducing them bit-exactly
//! for a mix of one — both in the tenant's own metrics and in the
//! mix-level view: any drift means single-tenant arithmetic changed.

use acim_arch::AcimSpec;
use acim_chip::{ChipEvaluator, ChipSpec, MacroGrid, MixMetrics, Network, WorkloadMix};

/// `(tag, [latency, throughput, energy, area, accuracy, utilization,
/// inferences/s])` as raw `f64::to_bits` values.
const GOLDEN: &[(&str, [u64; 7])] = &[
    (
        "A/cnn",
        [
            0x406b432617c1bda5,
            0x3fd7969c7c20bfdc,
            0x4077b83bfc4659e4,
            0x4060984a0e410b63,
            0x40319230c1ac6eee,
            0x3fe4924924924924,
            0x41517d9f97570729,
        ],
    ),
    (
        "A/xfmr",
        [
            0x4052f972474538ef,
            0x3fd4b9375edff17f,
            0x4058f94d275c82b5,
            0x4060984a0e410b63,
            0x403272d0e90368b0,
            0x3ff0000000000000,
            0x4169216be6025fe4,
        ],
    ),
    (
        "A/snn",
        [
            0x4032f972474538ef,
            0x3fcff2e007993ef9,
            0x40386a3fa30f817b,
            0x4060984a0e410b63,
            0x403332d0e90368b0,
            0x3fe5000000000000,
            0x4189216be6025fe4,
        ],
    ),
    (
        "B/cnn",
        [
            0x407174a8c154c986,
            0x3fd26b8ca6bfbc84,
            0x407c3808f2c47c53,
            0x404c4a1be2b4959e,
            0x402ba9a78c8ab3fc,
            0x3fe15f15f15f15f2,
            0x414b51262a7f8dad,
        ],
    ),
    (
        "B/xfmr",
        [
            0x4052f972474538ef,
            0x3fd4b9375edff17f,
            0x4058f6314f4aef77,
            0x404c4a1be2b4959e,
            0x403272d0e90368b0,
            0x3ff0000000000000,
            0x4169216be6025fe4,
        ],
    ),
    (
        "B/snn",
        [
            0x4032f972474538ef,
            0x3fcff2e007993ef9,
            0x40386723cafdee3c,
            0x404c4a1be2b4959e,
            0x403332d0e90368b0,
            0x3fe5000000000000,
            0x4189216be6025fe4,
        ],
    ),
];

fn chips() -> [(char, ChipSpec); 2] {
    let spec_a = AcimSpec::from_dimensions(128, 32, 4, 4).unwrap();
    let spec_b = AcimSpec::from_dimensions(64, 16, 4, 3).unwrap();
    [
        (
            'A',
            ChipSpec::new(MacroGrid::uniform(2, 2, spec_a).unwrap(), 64).unwrap(),
        ),
        (
            'B',
            ChipSpec::new(
                MacroGrid::from_specs(1, 2, vec![spec_a, spec_b]).unwrap(),
                32,
            )
            .unwrap(),
        ),
    ]
}

fn networks() -> [(&'static str, Network); 3] {
    [
        ("cnn", Network::edge_cnn(2)),
        ("xfmr", Network::transformer_block()),
        ("snn", Network::snn_pipeline()),
    ]
}

fn golden(tag: &str) -> [u64; 7] {
    GOLDEN
        .iter()
        .find(|(t, _)| *t == tag)
        .unwrap_or_else(|| panic!("no golden row {tag}"))
        .1
}

fn evaluate(chip: &ChipSpec, mix: &WorkloadMix) -> MixMetrics {
    ChipEvaluator::s28_default()
        .evaluate_mix(chip, mix)
        .unwrap()
}

fn bits(m: &acim_chip::ChipMetrics) -> [u64; 7] {
    [
        m.latency_ns.to_bits(),
        m.throughput_tops.to_bits(),
        m.energy_per_inference_pj.to_bits(),
        m.area_mf2.to_bits(),
        m.accuracy_db.to_bits(),
        m.mean_utilization.to_bits(),
        m.inferences_per_s.to_bits(),
    ]
}

#[test]
fn single_network_evaluation_matches_pre_refactor_golden_bits() {
    for (ctag, chip) in &chips() {
        for (ntag, network) in &networks() {
            let tag = format!("{ctag}/{ntag}");
            let metrics = evaluate(chip, &network.clone().into());
            assert_eq!(
                bits(&metrics.tenants[0].metrics),
                golden(&tag),
                "{tag} drifted"
            );
        }
    }
}

#[test]
fn mix_of_one_matches_pre_refactor_golden_bits() {
    for (ctag, chip) in &chips() {
        for (ntag, network) in &networks() {
            let tag = format!("{ctag}/{ntag}");
            let mix = WorkloadMix::single(network.clone());
            let metrics = evaluate(chip, &mix);
            assert!(metrics.is_single());
            assert_eq!(bits(&metrics.combined()), golden(&tag), "{tag} drifted");
        }
    }
}
