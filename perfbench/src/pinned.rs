// Generated by `perfbench --print-pins`; see `pins.rs`.

/// (array kb, NSGA-II seed, frontier digest, SPICE+DEF+GDS digest).
pub const FLOW_BACKEND: &[(usize, u64, u64, u64)] = &[
    (1, 11, 0x340993075d2d4107, 0xd09b0986df6a0682),
    (1, 22, 0x7a54a976e98f3ae2, 0x2d1806324f33da2f),
    (1, 33, 0x5758ea222d1e1586, 0x5e08b75997bed3d2),
    (2, 11, 0x35a2a76013fdaa9a, 0x74dc750c9e4d6e25),
    (2, 22, 0x9fc7e648f017ccf3, 0xcd545844c9a60360),
    (2, 33, 0x7a25626c7d5d0ce6, 0x84f898caff246ac0),
    (4, 11, 0x8ad00719bc256b78, 0x5473b833170d3213),
    (4, 22, 0x37f3fb589809670d, 0x81fb037b781866fa),
    (4, 33, 0xbccc33d5bd0d7975, 0xeedeeb88fbc9cd3a),
    (8, 11, 0xd1c5d758fb9f9200, 0xe36cbc8bc3f86e97),
    (8, 22, 0x01e4a1f0c26feec4, 0x0132bc552b8e8a3e),
    (8, 33, 0xa64d9b61e85d56bc, 0xd5e6bb2e387e2c80),
    (16, 11, 0x56411f27663034f8, 0x1cbb105d624786fa),
    (16, 22, 0xb84ea383403a82aa, 0xa980c3f4cde9326f),
    (16, 33, 0x5c91001f3737a310, 0x40008c84126a8d8d),
];

/// (array kb, NSGA-II seed, frontier digest).
pub const EXPLORE_PAPER: &[(usize, u64, u64)] = &[
    (1, 11, 0x4ae9df44f78c6f81),
    (1, 22, 0xe1e1df50977ced49),
    (1, 33, 0xa32dc6fd3aba1215),
    (2, 11, 0xe8fc1c6be9a96455),
    (2, 22, 0xb6c818725d4d8a79),
    (2, 33, 0x114b49acb9697879),
    (4, 11, 0xc95d1c53b1ac42e5),
    (4, 22, 0xeec82d6e0928e271),
    (4, 33, 0xc51db38f57d42dad),
    (8, 11, 0xb055740c8a863d8a),
    (8, 22, 0x25845704ea955caa),
    (8, 33, 0x35e93612b1b99206),
    (16, 11, 0x8bf2b86d58dbcf7a),
    (16, 22, 0x16c7038bd15975ba),
    (16, 33, 0xdd50ead35c71ae26),
];

/// Hypervolume reference point per array size (kb), over the cold
/// fronts of `flow_backend` and `explore_paper`.
pub const MACRO_REFERENCE: &[(usize, [f64; 4])] = &[
    (1, [1.109269960975831, 2.1778219507849, 1.6885057384461406, 3.9496113332316827]),
    (2, [1.109269960975831, 1.876791955120919, 1.6885057384461406, 3.9496113332316827]),
    (4, [1.109269960975831, 1.5757619594569376, 1.6885057384461406, 3.9496113332316827]),
    (8, [1.109269960975831, 1.2747319637929564, 1.6885057384461406, 3.9496113332316827]),
    (16, [1.109269960975831, 0.9737019681289751, 1.6885057384461406, 3.9496113332316827]),
];

/// (kind, NSGA-II seed, warm-start source seed, frontier digest).
pub const SERVICE_MIX: &[(&str, u64, Option<u64>, u64)] = &[
    ("edge_cnn", 11, None, 0x116cd167387ef3b5),
    ("edge_cnn", 22, None, 0xc4b7fe373128ea82),
    ("edge_cnn", 33, None, 0x888728d30bd97f9d),
    ("edge_cnn", 11, Some(11), 0x948cc4405d509b2d),
    ("edge_cnn", 11, Some(22), 0x811dbc6115df6ab5),
    ("edge_cnn", 11, Some(33), 0xd4389f767e663167),
    ("edge_cnn", 22, Some(11), 0x03529492d6819b9c),
    ("edge_cnn", 22, Some(22), 0x2f7b519d141bc55f),
    ("edge_cnn", 22, Some(33), 0x363a8c0110dbb262),
    ("edge_cnn", 33, Some(11), 0x18d64f7afd0e352d),
    ("edge_cnn", 33, Some(22), 0x607ea13d8bd2b819),
    ("edge_cnn", 33, Some(33), 0xc1e4ac4e73293aa0),
    ("transformer_block", 11, None, 0xdf97c0f12843ee44),
    ("transformer_block", 22, None, 0xfc6e8aa7bdf6773d),
    ("transformer_block", 33, None, 0xc9afbfeb7722b297),
    ("transformer_block", 11, Some(11), 0x4142e9e6721f607c),
    ("transformer_block", 11, Some(22), 0x32e6602f055fdede),
    ("transformer_block", 11, Some(33), 0x21c8fd0b3f710075),
    ("transformer_block", 22, Some(11), 0xc79b1561614b54d6),
    ("transformer_block", 22, Some(22), 0x236e2952766fe16f),
    ("transformer_block", 22, Some(33), 0x276f92165a2f67c1),
    ("transformer_block", 33, Some(11), 0x8851281d5aeb5382),
    ("transformer_block", 33, Some(22), 0xd46da59d10c0f4ca),
    ("transformer_block", 33, Some(33), 0x20b6c907065cb6b5),
    ("edge_mix", 11, None, 0xd1e181da7591a059),
    ("edge_mix", 22, None, 0x021400712975698f),
    ("edge_mix", 33, None, 0x053e2e67945ec39a),
    ("edge_mix", 11, Some(11), 0x81fc5a23197086a9),
    ("edge_mix", 11, Some(22), 0xa7de2e5fe4f94ae1),
    ("edge_mix", 11, Some(33), 0xfa768b1c36553e8b),
    ("edge_mix", 22, Some(11), 0x34ce026d2f546c56),
    ("edge_mix", 22, Some(22), 0xd729b2d18d369746),
    ("edge_mix", 22, Some(33), 0x583c89d31ed64d86),
    ("edge_mix", 33, Some(11), 0xde636a5b6f4b2179),
    ("edge_mix", 33, Some(22), 0xb42a6c04b2e6d1e7),
    ("edge_mix", 33, Some(33), 0xbb10c7d32236f704),
    ("macro_1k", 11, None, 0x340993075d2d4107),
    ("macro_1k", 22, None, 0x7a54a976e98f3ae2),
    ("macro_1k", 33, None, 0xa4ad79f704c4a3eb),
    ("macro_1k", 11, Some(11), 0xca38a7222ef7dd67),
    ("macro_1k", 11, Some(22), 0xff899230dd84db70),
    ("macro_1k", 11, Some(33), 0x2375b15460ccad7d),
    ("macro_1k", 22, Some(11), 0xef6b2343b574b271),
    ("macro_1k", 22, Some(22), 0x63e688327482a2a6),
    ("macro_1k", 22, Some(33), 0xd2426f5f8a66482a),
    ("macro_1k", 33, Some(11), 0xe68e274eb0f82957),
    ("macro_1k", 33, Some(22), 0x0522a85716bd5b43),
    ("macro_1k", 33, Some(33), 0x4a90be47e1129eb8),
];

pub const SERVICE_MIX_REFERENCE: &[(&str, [f64; 4])] = &[
    ("edge_cnn", [0.3803245811004393, 1.4946991853647509, 3.7286325707513286, 2.367758929339162]),
    ("transformer_block", [0.5072099696478685, 1.492806831687046, 3.091024588241315, 2.2383727355326615]),
    ("edge_mix", [0.6260821572019551, 1.4981170487151867, 3.5937774788129184, 2.4594934346492865]),
    ("macro_1k", [1.109269960975831, 2.1778219507849, 1.6885057384461406, 3.9496113332316827]),
];
