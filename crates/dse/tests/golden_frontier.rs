//! Golden bit-identity regression for the seeded chip frontier.
//!
//! The 14 objective rows below are the sorted `to_bits()` images of the
//! quick seeded NSGA-II chip frontier captured on the last
//! single-network-only revision (commit before the `WorkloadMix`
//! refactor).  The same exploration must keep reproducing them bit-exactly
//! — whether configured from the network itself or from an explicit mix
//! of one tenant, and regardless of the (single-tenant-degenerate)
//! aggregation objective.

use acim_chip::{MixObjective, Network, WorkloadMix};
use acim_dse::{ChipDseConfig, ChipExplorer};

/// Sorted `(−acc, −thr, energy, area)` rows of the golden frontier.
const GOLDEN_FRONTIER: &[(u64, u64, u64, u64)] = &[
    (
        0x40066d0c23c74d8d,
        0xbfdbbe5ad6136a36,
        0x4059c8785ad08f8a,
        0x403ec5e0b4e11dbd,
    ),
    (
        0x40150b14cf67a940,
        0xbfdbead8f304c819,
        0x405be74765995b8c,
        0x4041f8da3c21187e,
    ),
    (
        0xbfe7a75984c2b604,
        0xbfdd1b30f09506a5,
        0x405d2bd4b13e4202,
        0x40479752977c88e8,
    ),
    (
        0xc00992f3dc38b273,
        0xbfdaf5bb4095b4e8,
        0x405d11857e5831b4,
        0x403ecf67b1c0010c,
    ),
    (
        0xc00992f3dc38b273,
        0xbfdd2574cb5124bf,
        0x40605a7a7acd27f6,
        0x40531b25f633ce64,
    ),
    (
        0xc01648c306b1bbbb,
        0xbfd9a8bdee36cc9d,
        0x4061c0e25eb9ea3d,
        0x4043474107314ca9,
    ),
    (
        0xc01f534f191567fb,
        0xbfd4a0cb013737a3,
        0x40676832ae479716,
        0x404e748e4755ffe7,
    ),
    (
        0xc02264bcf70e2c9d,
        0xbfdaeb535c4ea8db,
        0x40629b4cc029d372,
        0x405324acf312b1b3,
    ),
    (
        0xc0242eed95bc8a1e,
        0xbfbf0a850d5ac1a4,
        0x4071017e9c1d30fe,
        0x4033fcc9ea9a3d2e,
    ),
    (
        0xc0242eed95bc8a1e,
        0xbfc87a83e8af24ec,
        0x40719a0c674c6ed9,
        0x404d2999567dbb17,
    ),
    (
        0xc028b4339eee603c,
        0xbfb8885061439909,
        0x40821385dbd87e53,
        0x4035b44e50c5eb31,
    ),
    (
        0xc02ba9a78c8ab3fc,
        0xbfd1603db1df44f4,
        0x406eed19272f56d0,
        0x404e879c4113c686,
    ),
    (
        0xc0301776cade450e,
        0xbfc1f6ac68c877d7,
        0x4078f6ff34dede5c,
        0x403ef2e05ccc89b1,
    ),
    (
        0xc033d4d3c64559fe,
        0xbfcb85fd8a016cbc,
        0x40894d1c1267e934,
        0x404f2773e24febd1,
    ),
];

fn quick(mut config: ChipDseConfig) -> ChipDseConfig {
    config.population_size = 16;
    config.generations = 5;
    config.grid_rows = vec![1, 2];
    config.grid_cols = vec![1, 2];
    config.buffer_kib = vec![8, 32];
    config
}

/// Runs `config` and returns its frontier's objective rows, sorted.
fn frontier_bits(config: ChipDseConfig) -> Vec<(u64, u64, u64, u64)> {
    let explorer = ChipExplorer::new(config).unwrap();
    let front = explorer.explore().unwrap();
    let mut rows: Vec<(u64, u64, u64, u64)> = front
        .points()
        .iter()
        .map(|p| {
            let o = p.metrics.objective_array();
            (
                o[0].to_bits(),
                o[1].to_bits(),
                o[2].to_bits(),
                o[3].to_bits(),
            )
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn single_network_frontier_matches_pre_refactor_golden_bits() {
    let config = quick(ChipDseConfig::for_mix(Network::edge_cnn(1)));
    assert_eq!(frontier_bits(config), GOLDEN_FRONTIER);
}

#[test]
fn mix_of_one_frontier_matches_pre_refactor_golden_bits() {
    let config = quick(ChipDseConfig::for_mix(WorkloadMix::single(
        Network::edge_cnn(1),
    )));
    assert_eq!(frontier_bits(config), GOLDEN_FRONTIER);
}

#[test]
fn aggregation_objective_is_irrelevant_for_a_single_tenant() {
    // Worst-tenant and weighted-mean reduce to the same arithmetic when
    // there is only one tenant, so both reproduce the golden frontier.
    for objective in [MixObjective::WorstTenant, MixObjective::WeightedMean] {
        let mut config = quick(ChipDseConfig::for_mix(Network::edge_cnn(1)));
        config.objective = objective;
        assert_eq!(frontier_bits(config), GOLDEN_FRONTIER, "{objective:?}");
    }
}
