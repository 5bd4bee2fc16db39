//! Byte-identity pins for the back-half writers.
//!
//! The SPICE deck (`write_spice`), the DEF (`write_def`) and the GDS text
//! (`write_gds_text`) of four macros are digested with FNV-1a and compared
//! against constants recorded before the writers were optimised.  The
//! macros span the shapes that load the back half differently: a small
//! tile, a taller 4-bit array, a 1024-row net-count-bound column and a
//! 512-column shape-bound macro.  Any change to an emitted byte, however
//! small, fails here; regenerate the constants only for a change meant to
//! alter the emitted files.
//!
//! Beside the byte pins, the same macros' [`LayoutMetrics`] are pinned:
//! the wire length and the core and total dimensions as `f64` bits, and
//! the via and instance counts.  Their netlists' [`DesignStats`] are
//! pinned field by field, recorded while instances still held their
//! connections in string maps.

use acim_arch::AcimSpec;
use acim_cell::CellLibrary;
use acim_layout::{write_def, write_gds_text, LayoutFlow, LayoutMetrics};
use acim_netlist::{design_stats, write_spice, DesignStats, NetlistGenerator};
use acim_tech::Technology;

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Emits the three files of the `(H, W, L, B_ADC)` macro and checks each
/// one's `(length, digest)` against `expected`, in the order SPICE, DEF,
/// GDS.
fn check(dims: (usize, usize, usize, u32), expected: [(usize, u64); 3]) {
    let (h, w, l, bits) = dims;
    let tech = Technology::s28();
    let library = CellLibrary::s28_default(&tech);
    let spec = AcimSpec::from_dimensions(h, w, l, bits).expect("valid spec");
    let design = NetlistGenerator::new(&library)
        .generate(&spec)
        .expect("netlist generates");
    let layout = LayoutFlow::new(&tech, &library)
        .generate(&spec)
        .expect("layout generates")
        .layout;
    let spice = write_spice(&design, &library).expect("SPICE writes");
    let files = [
        ("spice", spice),
        ("def", write_def(&layout)),
        ("gds", write_gds_text(&layout, &tech)),
    ];
    for ((kind, text), (length, digest)) in files.iter().zip(expected) {
        let got = (text.len(), fnv1a(text.as_bytes()));
        assert_eq!(
            got,
            (length, digest),
            "{h}x{w} L{l} B{bits} {kind}: got ({}, 0x{:016x}), pinned ({length}, 0x{digest:016x})",
            got.0,
            got.1
        );
    }
}

/// The pinned part of a macro's [`LayoutMetrics`]: `f64` fields as bits.
#[derive(Debug, PartialEq, Eq)]
struct MetricPins {
    wirelength_um: u64,
    via_count: usize,
    instance_count: usize,
    core_width_um: u64,
    core_height_um: u64,
    total_width_um: u64,
    total_height_um: u64,
}

impl From<&LayoutMetrics> for MetricPins {
    fn from(m: &LayoutMetrics) -> Self {
        Self {
            wirelength_um: m.wirelength_um.to_bits(),
            via_count: m.via_count,
            instance_count: m.instance_count,
            core_width_um: m.core_width_um.to_bits(),
            core_height_um: m.core_height_um.to_bits(),
            total_width_um: m.total_width_um.to_bits(),
            total_height_um: m.total_height_um.to_bits(),
        }
    }
}

/// Lays out the `(H, W, L, B_ADC)` macro and checks its metrics against
/// `expected`.
fn check_metrics(dims: (usize, usize, usize, u32), expected: MetricPins) {
    let (h, w, l, bits) = dims;
    let tech = Technology::s28();
    let library = CellLibrary::s28_default(&tech);
    let spec = AcimSpec::from_dimensions(h, w, l, bits).expect("valid spec");
    let metrics = LayoutFlow::new(&tech, &library)
        .generate(&spec)
        .expect("layout generates")
        .metrics;
    assert_eq!(
        MetricPins::from(&metrics),
        expected,
        "{h}x{w} L{l} B{bits}: {metrics:?}"
    );
}

#[test]
fn small_tile_64x16_l4_b3() {
    check(
        (64, 16, 4, 3),
        [
            (25181, 0x1741_688a_d927_9e55),
            (489226, 0x556c_c73f_559b_18e1),
            (405489, 0x77c1_46b9_0713_e40a),
        ],
    );
}

#[test]
fn tall_4bit_256x16_l4_b4() {
    check(
        (256, 16, 4, 4),
        [
            (89258, 0x5599_b1ec_43f9_a53e),
            (791638, 0x4176_479e_a17c_f72d),
            (639919, 0x77ef_42dd_7684_0835),
        ],
    );
}

#[test]
fn net_bound_1024x4_l2_b8() {
    check(
        (1024, 4, 2, 8),
        [
            (179626, 0x7865_9b1e_cfb0_f25e),
            (684205, 0xe206_6d5e_6158_762e),
            (499567, 0x68a0_056a_b21d_255f),
        ],
    );
}

#[test]
fn shape_bound_32x512_l2_b3() {
    check(
        (32, 512, 2, 3),
        [
            (339772, 0x0922_6612_2ce9_3790),
            (15258788, 0x61ba_756a_fdb0_4596),
            (12971429, 0x3004_1b0a_f375_4575),
        ],
    );
}

#[test]
fn small_tile_64x16_l4_b3_metrics() {
    check_metrics(
        (64, 16, 4, 3),
        MetricPins {
            wirelength_um: 0x40c2_de37_8034_6db2, // 9660.433599999964
            via_count: 240,
            instance_count: 1488,
            core_width_um: 0x4040_0000_0000_0000,   // 32.0
            core_height_um: 0x4057_42d0_e560_4189,  // 93.044
            total_width_um: 0x4041_0000_0000_0000,  // 34.0
            total_height_um: 0x4057_b604_1893_74bc, // 94.844
        },
    );
}

#[test]
fn tall_4bit_256x16_l4_b4_metrics() {
    check_metrics(
        (256, 16, 4, 4),
        MetricPins {
            wirelength_um: 0x40dd_d557_58e2_1958, // 30549.364799999952
            via_count: 272,
            instance_count: 5552,
            core_width_um: 0x4040_0000_0000_0000,   // 32.0
            core_height_um: 0x4073_6570_a3d7_0a3d,  // 310.34
            total_width_um: 0x4041_0000_0000_0000,  // 34.0
            total_height_um: 0x4073_8bd7_0a3d_70a4, // 312.74
        },
    );
}

#[test]
fn net_bound_1024x4_l2_b8_metrics() {
    check_metrics(
        (1024, 4, 2, 8),
        MetricPins {
            wirelength_um: 0x40e2_d6e1_de69_ad50, // 38583.058400000096
            via_count: 100,
            instance_count: 7244,
            core_width_um: 0x4020_0000_0000_0000,   // 8.0
            core_height_um: 0x409a_599d_b22d_0e56,  // 1686.404
            total_width_um: 0x4024_0000_0000_0000,  // 10.0
            total_height_um: 0x409a_6cd0_e560_4189, // 1691.204
        },
    );
}

#[test]
fn shape_bound_32x512_l2_b3_metrics() {
    check_metrics(
        (32, 512, 2, 3),
        MetricPins {
            wirelength_um: 0x410c_6378_fc50_45a2, // 232559.1231999817
            via_count: 7680,
            instance_count: 29216,
            core_width_um: 0x4090_0000_0000_0000,   // 1024.0
            core_height_um: 0x4052_347a_e147_ae14,  // 72.82
            total_width_um: 0x4090_0800_0000_0000,  // 1026.0
            total_height_um: 0x4052_a7ae_147a_e148, // 74.62
        },
    );
}

/// Netlists the `(H, W, L, B_ADC)` macro and checks every field of its
/// [`DesignStats`] against `expected`.
fn check_stats(dims: (usize, usize, usize, u32), expected: DesignStats) {
    let (h, w, l, bits) = dims;
    let library = CellLibrary::s28_default(&Technology::s28());
    let spec = AcimSpec::from_dimensions(h, w, l, bits).expect("valid spec");
    let design = NetlistGenerator::new(&library)
        .generate(&spec)
        .expect("netlist generates");
    let stats = design_stats(&design, &library).expect("stats");
    assert_eq!(stats, expected, "{h}x{w} L{l} B{bits}");
}

#[test]
fn small_tile_64x16_l4_b3_stats() {
    check_stats(
        (64, 16, 4, 3),
        DesignStats {
            sram_cells: 1024,
            compute_cells: 256,
            comparators: 16,
            sar_dffs: 48,
            buffers: 112,
            total_leaf_instances: 1488,
            transistors: 10608,
            capacitors: 256,
        },
    );
}

#[test]
fn tall_4bit_256x16_l4_b4_stats() {
    check_stats(
        (256, 16, 4, 4),
        DesignStats {
            sram_cells: 4096,
            compute_cells: 1024,
            comparators: 16,
            sar_dffs: 64,
            buffers: 320,
            total_leaf_instances: 5552,
            transistors: 40000,
            capacitors: 1024,
        },
    );
}

#[test]
fn net_bound_1024x4_l2_b8_stats() {
    check_stats(
        (1024, 4, 2, 8),
        DesignStats {
            sram_cells: 4096,
            compute_cells: 2048,
            comparators: 4,
            sar_dffs: 32,
            buffers: 1056,
            total_leaf_instances: 7244,
            transistors: 47584,
            capacitors: 2048,
        },
    );
}

#[test]
fn shape_bound_32x512_l2_b3_stats() {
    check_stats(
        (32, 512, 2, 3),
        DesignStats {
            sram_cells: 16384,
            compute_cells: 8192,
            comparators: 512,
            sar_dffs: 1536,
            buffers: 1568,
            total_leaf_instances: 29216,
            transistors: 200320,
            capacitors: 8192,
        },
    );
}

#[test]
fn fnv1a_matches_the_reference_vector() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
}
