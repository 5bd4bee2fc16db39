//! Golden bit-identity regression for the seeded chip and macro
//! frontiers.
//!
//! The 14 chip objective rows below are the sorted `to_bits()` images of
//! the quick seeded NSGA-II chip frontier captured on the last
//! single-network-only revision (commit before the `WorkloadMix`
//! refactor).  The same exploration must keep reproducing them bit-exactly
//! — whether configured from the network itself or from an explicit mix
//! of one tenant, and regardless of the (single-tenant-degenerate)
//! aggregation objective.
//!
//! The macro rows pin a seeded 16 kb exploration (population 32 × 20
//! generations) cold and warm-started from its own session genomes, in
//! frontier order: `HxW L B` followed by the `to_bits()` images of
//! `(−SNR, −throughput, energy, area)`.  Order matters — it is the Pareto
//! archive's insertion order, which every consumer of a frontier sees.

use acim_chip::{MixObjective, Network, WorkloadMix};
use acim_dse::{ChipDseConfig, ChipExplorer, DesignSpaceExplorer, DseConfig, ExploreOptions};

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

/// Frontier-order rows of the cold seeded 16 kb macro exploration.
const GOLDEN_MACRO_COLD: &[&str] = &[
    "1024x16 L2 B8 c03fe844d69fbc71 bff6809d844e9e27 4034af793acf01b6 40b0623c00000000",
    "1024x16 L32 B2 c01fcb43a40da2c2 bfd1e4ef56011e4f 40119afabbf19415 409c55ac00000000",
    "16x1024 L2 B1 c01fe05bc8d4fb42 c01c1cd0bc5aa9bb 40176535e4b72898 40ba7e6000000000",
    "512x32 L32 B4 c036f573ed9c53c0 bfc4b9375edff17e 40280950c00a278a 409d287000000000",
    "256x64 L2 B1 401049d480b9b5bc c01c1cd0bc5aa9bb 40066ca6bc96e513 40b0ce5600000000",
    "32x512 L2 B4 c036f573ed9c53c0 c004b9375edff17e 40280950c00a278a 40b62dc000000000",
    "128x128 L2 B2 c013c0b791a9f684 c011e4ef56011e4f 400c01612257fa7c 40b185d800000000",
    "32x512 L8 B2 c030fab9f6ce29e0 bff1e4ef56011e4f 403102c244aff4f7 40ac6d4000000000",
    "512x32 L2 B7 c03ceae7db38a781 bff967ce24483f34 40286e3bc10bb1a1 40b096ed00000000",
    "32x512 L2 B3 c030f573ed9c53c0 c00a3f7cc290332e 4020fb49609a556a 40b5e51000000000",
    "32x512 L8 B1 c025f573ed9c53c0 bffc1cd0bc5aa9bb 40223202b183f565 40abdbe000000000",
    "32x512 L4 B1 c01fe05bc8d4fb42 c00c1cd0bc5aa9bb 40176535e4b72898 40b0653000000000",
    "32x512 L4 B2 c02bf02de46a7da1 c001e4ef56011e4f 40239c5bde498e90 40b0ade000000000",
    "128x128 L4 B2 c01fcb43a40da2c2 c001e4ef56011e4f 40119afabbf19415 40a92eb000000000",
    "512x32 L8 B1 3ff0fd21b95825f0 bffc1cd0bc5aa9bb 40080c80ac60fd5a 40a22bd600000000",
    "1024x16 L4 B2 3ff151824c7587f0 c001e4ef56011e4f 400699f1e22f9839 40a6cc3600000000",
    "512x32 L16 B3 c02be5a1d206d161 bfda3f7cc290332e 40162e7c93cd889d 409f8d8400000000",
    "1024x16 L16 B4 c030f02de46a7da1 bfd4b9375edff17e 4013d1752cd1e092 409edf1800000000",
    "256x64 L2 B7 c03fed8adfd19291 bff967ce24483f34 4035d4a227721808 40b104da00000000",
    "1024x16 L16 B5 c036f02de46a7da1 bfd11ec346e36092 401c4d83ebb184d2 409ee82e00000000",
    "16x1024 L4 B2 c030fab9f6ce29e0 c001e4ef56011e4f 403102c244aff4f7 40b6214000000000",
    "1024x16 L32 B4 c033f2d0e90368b0 bfc4b9375edff17e 401d3c83f33d5abe 409c67d800000000",
    "32x512 L2 B2 c025eae7db38a781 c011e4ef56011e4f 4018cf8f117cc1c4 40b59c6000000000",
    "128x128 L2 B4 c030f02de46a7da1 c004b9375edff17e 4013d1752cd1e092 40b1aa3000000000",
    "1024x16 L2 B7 c039e844d69fbc71 bff967ce24483f34 401da16ef43ee4d4 40b05ff680000000",
    "512x32 L4 B2 bffed8adfd192910 c001e4ef56011e4f 40086716f79263a4 40a7236c00000000",
    "256x64 L16 B3 c030f573ed9c53c0 bfda3f7cc290332e 4020fb49609a556a 40a07e4400000000",
    "512x32 L32 B2 c025eae7db38a781 bfd1e4ef56011e4f 4018cf8f117cc1c4 409d041800000000",
    "32x512 L2 B1 c013d5cfb6714f02 c01c1cd0bc5aa9bb 4010e5ce258ec780 40b553b000000000",
    "256x64 L2 B2 bffed8adfd192910 c011e4ef56011e4f 40086716f79263a4 40b0d76c00000000",
    "256x64 L4 B2 c013c0b791a9f684 c001e4ef56011e4f 400c01612257fa7c 40a7d1d800000000",
    "16x1024 L4 B1 c025f573ed9c53c0 c00c1cd0bc5aa9bb 40223202b183f565 40b58fe000000000",
    "512x32 L32 B1 c013d5cfb6714f02 bfdc1cd0bc5aa9bb 4010e5ce258ec780 409cf1ec00000000",
    "256x64 L2 B3 c01fb62b7f464a44 c00a3f7cc290332e 400ab0d7e3805de8 40b0e08200000000",
    "256x64 L2 B6 c039ed8adfd19291 bffd2b29105c9c3b 4020c10953659f0e 40b0fbc400000000",
    "64x256 L2 B2 c01fcb43a40da2c2 c011e4ef56011e4f 40119afabbf19415 40b2e2b000000000",
    "1024x16 L8 B2 bffed8adfd192910 bff1e4ef56011e4f 40086716f79263a4 40a1ddb600000000",
    "1024x16 L32 B1 bfff2d0e90368b08 bfdc1cd0bc5aa9bb 400b4c348bf52de6 409c4c9600000000",
    "256x64 L4 B6 c03cf02de46a7da1 bfed2b29105c9c3b 402c4edf73980ae9 40a81a8800000000",
    "64x256 L2 B3 c02be5a1d206d161 c00a3f7cc290332e 40162e7c93cd889d 40b3070800000000",
    "16x1024 L2 B2 c02bf02de46a7da1 c011e4ef56011e4f 40239c5bde498e90 40bb0fc000000000",
    "128x128 L2 B6 c03cf02de46a7da1 bffd2b29105c9c3b 402c4edf73980ae9 40b1ce8800000000",
    "1024x16 L4 B3 c013ab9f6ce29e04 bffa3f7cc290332e 4007bed25826955b 40a6d0c100000000",
    "128x128 L4 B1 bfff2d0e90368b08 c00c1cd0bc5aa9bb 400b4c348bf52de6 40a90a5800000000",
    "1024x16 L32 B5 c039f2d0e90368b0 bfc11ec346e36092 40271a50b87e519f 409c70ee00000000",
    "512x32 L2 B8 c0417573ed9c53c0 bff6809d844e9e27 404362ac6e0234e9 40b09b7800000000",
    "512x32 L2 B6 c036eae7db38a781 bffd2b29105c9c3b 4015f43c8698d242 40b0926200000000",
    "512x32 L16 B4 c033f2d0e90368b0 bfd4b9375edff17e 401d3c83f33d5abe 409f9fb000000000",
    "64x256 L8 B2 c02bf02de46a7da1 bff1e4ef56011e4f 40239c5bde498e90 40a6f9e000000000",
    "256x64 L4 B1 3ff0fd21b95825f0 c00c1cd0bc5aa9bb 40080c80ac60fd5a 40a7bfac00000000",
    "16x1024 L2 B3 c033f816f2353ed0 c00a3f7cc290332e 402cc35f8e0177a0 40bba12000000000",
    "512x32 L2 B1 401c5460931d61fc c01c1cd0bc5aa9bb 40059cb9c4b1d8f0 40b07bab00000000",
    "512x32 L8 B2 c013c0b791a9f684 bff1e4ef56011e4f 400c01612257fa7c 40a234ec00000000",
    "1024x16 L4 B6 c036eae7db38a781 bfed2b29105c9c3b 4015f43c8698d242 40a6de6200000000",
    "64x256 L8 B1 c01fe05bc8d4fb42 bffc1cd0bc5aa9bb 40176535e4b72898 40a6b13000000000",
];

/// Frontier-order rows of the same exploration warm-started from the cold frontier's session genomes.
const GOLDEN_MACRO_WARM: &[&str] = &[
    "1024x16 L2 B8 c03fe844d69fbc71 bff6809d844e9e27 4034af793acf01b6 40b0623c00000000",
    "1024x16 L32 B2 c01fcb43a40da2c2 bfd1e4ef56011e4f 40119afabbf19415 409c55ac00000000",
    "16x1024 L2 B1 c01fe05bc8d4fb42 c01c1cd0bc5aa9bb 40176535e4b72898 40ba7e6000000000",
    "512x32 L32 B4 c036f573ed9c53c0 bfc4b9375edff17e 40280950c00a278a 409d287000000000",
    "256x64 L2 B1 401049d480b9b5bc c01c1cd0bc5aa9bb 40066ca6bc96e513 40b0ce5600000000",
    "32x512 L2 B4 c036f573ed9c53c0 c004b9375edff17e 40280950c00a278a 40b62dc000000000",
    "128x128 L2 B2 c013c0b791a9f684 c011e4ef56011e4f 400c01612257fa7c 40b185d800000000",
    "32x512 L8 B2 c030fab9f6ce29e0 bff1e4ef56011e4f 403102c244aff4f7 40ac6d4000000000",
    "512x32 L2 B7 c03ceae7db38a781 bff967ce24483f34 40286e3bc10bb1a1 40b096ed00000000",
    "32x512 L2 B3 c030f573ed9c53c0 c00a3f7cc290332e 4020fb49609a556a 40b5e51000000000",
    "32x512 L8 B1 c025f573ed9c53c0 bffc1cd0bc5aa9bb 40223202b183f565 40abdbe000000000",
    "32x512 L4 B1 c01fe05bc8d4fb42 c00c1cd0bc5aa9bb 40176535e4b72898 40b0653000000000",
    "32x512 L4 B2 c02bf02de46a7da1 c001e4ef56011e4f 40239c5bde498e90 40b0ade000000000",
    "128x128 L4 B2 c01fcb43a40da2c2 c001e4ef56011e4f 40119afabbf19415 40a92eb000000000",
    "512x32 L8 B1 3ff0fd21b95825f0 bffc1cd0bc5aa9bb 40080c80ac60fd5a 40a22bd600000000",
    "1024x16 L4 B2 3ff151824c7587f0 c001e4ef56011e4f 400699f1e22f9839 40a6cc3600000000",
    "512x32 L16 B3 c02be5a1d206d161 bfda3f7cc290332e 40162e7c93cd889d 409f8d8400000000",
    "1024x16 L16 B4 c030f02de46a7da1 bfd4b9375edff17e 4013d1752cd1e092 409edf1800000000",
    "256x64 L2 B7 c03fed8adfd19291 bff967ce24483f34 4035d4a227721808 40b104da00000000",
    "1024x16 L16 B5 c036f02de46a7da1 bfd11ec346e36092 401c4d83ebb184d2 409ee82e00000000",
    "1024x16 L32 B4 c033f2d0e90368b0 bfc4b9375edff17e 401d3c83f33d5abe 409c67d800000000",
    "32x512 L2 B2 c025eae7db38a781 c011e4ef56011e4f 4018cf8f117cc1c4 40b59c6000000000",
    "128x128 L2 B4 c030f02de46a7da1 c004b9375edff17e 4013d1752cd1e092 40b1aa3000000000",
    "1024x16 L2 B7 c039e844d69fbc71 bff967ce24483f34 401da16ef43ee4d4 40b05ff680000000",
    "512x32 L4 B2 bffed8adfd192910 c001e4ef56011e4f 40086716f79263a4 40a7236c00000000",
    "256x64 L16 B3 c030f573ed9c53c0 bfda3f7cc290332e 4020fb49609a556a 40a07e4400000000",
    "512x32 L32 B2 c025eae7db38a781 bfd1e4ef56011e4f 4018cf8f117cc1c4 409d041800000000",
    "32x512 L2 B1 c013d5cfb6714f02 c01c1cd0bc5aa9bb 4010e5ce258ec780 40b553b000000000",
    "256x64 L2 B2 bffed8adfd192910 c011e4ef56011e4f 40086716f79263a4 40b0d76c00000000",
    "256x64 L4 B2 c013c0b791a9f684 c001e4ef56011e4f 400c01612257fa7c 40a7d1d800000000",
    "16x1024 L4 B1 c025f573ed9c53c0 c00c1cd0bc5aa9bb 40223202b183f565 40b58fe000000000",
    "512x32 L32 B1 c013d5cfb6714f02 bfdc1cd0bc5aa9bb 4010e5ce258ec780 409cf1ec00000000",
    "256x64 L2 B3 c01fb62b7f464a44 c00a3f7cc290332e 400ab0d7e3805de8 40b0e08200000000",
    "256x64 L2 B6 c039ed8adfd19291 bffd2b29105c9c3b 4020c10953659f0e 40b0fbc400000000",
    "64x256 L2 B2 c01fcb43a40da2c2 c011e4ef56011e4f 40119afabbf19415 40b2e2b000000000",
    "1024x16 L8 B2 bffed8adfd192910 bff1e4ef56011e4f 40086716f79263a4 40a1ddb600000000",
    "1024x16 L32 B1 bfff2d0e90368b08 bfdc1cd0bc5aa9bb 400b4c348bf52de6 409c4c9600000000",
    "256x64 L4 B6 c03cf02de46a7da1 bfed2b29105c9c3b 402c4edf73980ae9 40a81a8800000000",
    "64x256 L2 B3 c02be5a1d206d161 c00a3f7cc290332e 40162e7c93cd889d 40b3070800000000",
    "16x1024 L2 B2 c02bf02de46a7da1 c011e4ef56011e4f 40239c5bde498e90 40bb0fc000000000",
    "128x128 L2 B6 c03cf02de46a7da1 bffd2b29105c9c3b 402c4edf73980ae9 40b1ce8800000000",
    "1024x16 L4 B3 c013ab9f6ce29e04 bffa3f7cc290332e 4007bed25826955b 40a6d0c100000000",
    "128x128 L4 B1 bfff2d0e90368b08 c00c1cd0bc5aa9bb 400b4c348bf52de6 40a90a5800000000",
    "1024x16 L32 B5 c039f2d0e90368b0 bfc11ec346e36092 40271a50b87e519f 409c70ee00000000",
    "512x32 L2 B8 c0417573ed9c53c0 bff6809d844e9e27 404362ac6e0234e9 40b09b7800000000",
    "512x32 L2 B6 c036eae7db38a781 bffd2b29105c9c3b 4015f43c8698d242 40b0926200000000",
    "512x32 L16 B4 c033f2d0e90368b0 bfd4b9375edff17e 401d3c83f33d5abe 409f9fb000000000",
    "64x256 L8 B2 c02bf02de46a7da1 bff1e4ef56011e4f 40239c5bde498e90 40a6f9e000000000",
    "256x64 L4 B1 3ff0fd21b95825f0 c00c1cd0bc5aa9bb 40080c80ac60fd5a 40a7bfac00000000",
    "16x1024 L2 B3 c033f816f2353ed0 c00a3f7cc290332e 402cc35f8e0177a0 40bba12000000000",
    "512x32 L2 B1 401c5460931d61fc c01c1cd0bc5aa9bb 40059cb9c4b1d8f0 40b07bab00000000",
    "512x32 L8 B2 c013c0b791a9f684 bff1e4ef56011e4f 400c01612257fa7c 40a234ec00000000",
    "1024x16 L4 B6 c036eae7db38a781 bfed2b29105c9c3b 4015f43c8698d242 40a6de6200000000",
    "64x256 L8 B1 c01fe05bc8d4fb42 bffc1cd0bc5aa9bb 40176535e4b72898 40a6b13000000000",
    "128x128 L2 B3 c025e05bc8d4fb42 c00a3f7cc290332e 40104a717d19f782 40b1980400000000",
    "512x32 L2 B2 3ff151824c7587f0 c011e4ef56011e4f 400699f1e22f9839 40b0803600000000",
    "256x64 L16 B2 c025eae7db38a781 bfe1e4ef56011e4f 4018cf8f117cc1c4 40a06c1800000000",
    "128x128 L2 B5 c036f02de46a7da1 c0011ec346e36092 401c4d83ebb184d2 40b1bc5c00000000",
    "128x128 L4 B3 c02be5a1d206d161 bffa3f7cc290332e 40162e7c93cd889d 40a9530800000000",
    "1024x16 L2 B1 40242f7652c0871e c01c1cd0bc5aa9bb 400534c348bf52df 40b0525580000000",
    "512x32 L2 B4 c025d5cfb6714f02 c004b9375edff17e 40098254300289e3 40b0894c00000000",
    "1024x16 L4 B8 c0417573ed9c53c0 bfe6809d844e9e27 404362ac6e0234e9 40a6e77800000000",
    "1024x16 L2 B2 40105eeca5810e3c c011e4ef56011e4f 4005b35f577e3283 40b0549b00000000",
    "128x128 L8 B1 c013d5cfb6714f02 bffc1cd0bc5aa9bb 4010e5ce258ec780 40a41bd800000000",
    "512x32 L2 B3 c013ab9f6ce29e04 c00a3f7cc290332e 4007bed25826955b 40b084c100000000",
    "256x64 L32 B2 c02bf02de46a7da1 bfd1e4ef56011e4f 40239c5bde498e90 409e60f000000000",
    "1024x16 L2 B3 bffe844d69fbc710 c00a3f7cc290332e 400645cf9279b114 40b056e080000000",
    "128x128 L8 B2 c025eae7db38a781 bff1e4ef56011e4f 4018cf8f117cc1c4 40a4403000000000",
    "64x256 L2 B4 c033f2d0e90368b0 c004b9375edff17e 401d3c83f33d5abe 40b32b6000000000",
    "256x64 L32 B3 c033f816f2353ed0 bfca3f7cc290332e 402cc35f8e0177a0 409e854800000000",
    "512x32 L4 B1 401049d480b9b5bc c00c1cd0bc5aa9bb 40066ca6bc96e513 40a71a5600000000",
];

/// One `HxW L B` + objective-bits row per frontier point, in frontier
/// order.
fn macro_rows(frontier: &acim_dse::Frontier<acim_dse::DesignPoint>) -> Vec<String> {
    frontier
        .iter()
        .map(|p| {
            let o = p.metrics.objective_array();
            format!(
                "{}x{} L{} B{} {:016x} {:016x} {:016x} {:016x}",
                p.spec.height(),
                p.spec.width(),
                p.spec.local_array(),
                p.spec.adc_bits(),
                o[0].to_bits(),
                o[1].to_bits(),
                o[2].to_bits(),
                o[3].to_bits(),
            )
        })
        .collect()
}

#[test]
fn macro_frontier_matches_golden_rows_cold_and_warm() {
    let explorer = DesignSpaceExplorer::new(DseConfig {
        population_size: 32,
        generations: 20,
        ..Default::default()
    })
    .unwrap();
    let cold = explorer.explore().unwrap();
    assert_eq!(macro_rows(&cold), GOLDEN_MACRO_COLD);
    let warm = explorer
        .explore_with(
            &ExploreOptions {
                warm_start: explorer.session_genomes(cold.points()),
                ..Default::default()
            },
            |_| {},
        )
        .unwrap();
    assert_eq!(macro_rows(&warm), GOLDEN_MACRO_WARM);
}
