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

use acim_arch::AcimSpec;
use acim_cell::CellLibrary;
use acim_layout::{write_def, write_gds_text, LayoutFlow};
use acim_netlist::{write_spice, NetlistGenerator};
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
fn fnv1a_matches_the_reference_vector() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
}
