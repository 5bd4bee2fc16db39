//! Property-based tests (proptest) on the core data structures and
//! invariants of the workspace: Pareto dominance, hypervolume, the ACIM
//! specification constraints, the estimation model's monotonicities, the
//! genome encoding, geometry, and the SAR ADC transfer function.

use acim_arch::adc::{CdacBank, SarAdc};
use acim_arch::{AcimSpec, TimingModel};
use acim_cell::{half_perimeter_wire_length, Point, Rect};
use acim_dse::DesignEncoding;
use acim_model::{area_f2_per_bit, evaluate, snr_simplified_db, ModelParams};
use acim_moga::{dominates, hypervolume_2d, ParetoArchive};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy for a valid (H, W, L, B) tuple of a power-of-two array.
fn valid_spec() -> impl Strategy<Value = AcimSpec> {
    (4u32..=10, 2u32..=8, 1u32..=5, 1u32..=8).prop_filter_map(
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- Pareto dominance -------------------------------------------------

    #[test]
    fn dominance_is_irreflexive_and_antisymmetric(
        a in prop::collection::vec(-1e3..1e3f64, 4),
        b in prop::collection::vec(-1e3..1e3f64, 4),
    ) {
        prop_assert!(!dominates(&a, &a));
        prop_assert!(!(dominates(&a, &b) && dominates(&b, &a)));
    }

    #[test]
    fn archive_always_holds_mutually_non_dominated_points(
        points in prop::collection::vec(prop::collection::vec(0.0..100.0f64, 2), 1..40)
    ) {
        let mut archive = ParetoArchive::new();
        for (i, p) in points.iter().enumerate() {
            archive.insert(p.clone(), i);
        }
        let objs = archive.objectives();
        for a in &objs {
            for b in &objs {
                prop_assert!(!(a != b && dominates(a, b) && dominates(b, a)));
                if a != b {
                    prop_assert!(!dominates(a, b) || !dominates(b, a));
                }
            }
        }
        // Nothing in the archive is dominated by any original point.
        for p in &points {
            for kept in &objs {
                prop_assert!(!dominates(p, kept) || p == kept || objs.contains(p));
            }
        }
    }

    #[test]
    fn re_offering_an_earlier_vector_leaves_the_archive_unchanged(
        offers in prop::collection::vec(prop::collection::vec(0u8..4, 3), 1..40),
        picks in prop::collection::vec(0usize..1000, 40),
    ) {
        // A coarse grid, so the sequence holds repeats, ties and dominated
        // offers.
        let points: Vec<Vec<f64>> = offers
            .iter()
            .map(|p| p.iter().map(|&x| f64::from(x)).collect())
            .collect();
        let mut archive = ParetoArchive::new();
        for (i, p) in points.iter().enumerate() {
            archive.insert(p.clone(), i);
            // Re-offer one earlier vector after every offer…
            let before: Vec<_> = archive.iter().cloned().collect();
            let earlier = &points[picks[i] % (i + 1)];
            prop_assert!(!archive.insert(earlier.clone(), usize::MAX));
            prop_assert_eq!(archive.iter().cloned().collect::<Vec<_>>(), before);
        }
        // …and every vector once the sequence is done.
        let before: Vec<_> = archive.iter().cloned().collect();
        for p in &points {
            prop_assert!(!archive.insert(p.clone(), usize::MAX));
        }
        prop_assert_eq!(archive.iter().cloned().collect::<Vec<_>>(), before);
    }

    #[test]
    fn hypervolume_is_monotone_in_added_points(
        mut front in prop::collection::vec((0.1..5.0f64, 0.1..5.0f64), 1..12),
        extra in (0.1..5.0f64, 0.1..5.0f64),
    ) {
        let reference = [6.0, 6.0];
        let as_vecs = |pts: &[(f64, f64)]| pts.iter().map(|&(a, b)| vec![a, b]).collect::<Vec<_>>();
        let before = hypervolume_2d(&as_vecs(&front), &reference);
        front.push(extra);
        let after = hypervolume_2d(&as_vecs(&front), &reference);
        prop_assert!(after + 1e-12 >= before, "hypervolume shrank: {before} -> {after}");
    }

    // ---- Architecture specification ---------------------------------------

    #[test]
    fn every_accepted_spec_satisfies_equation_12(spec in valid_spec()) {
        prop_assert_eq!(spec.height() * spec.width(), spec.array_size());
        prop_assert!(spec.height() >= spec.local_array());
        prop_assert!(spec.capacitors_per_column() >= 1 << spec.adc_bits());
        prop_assert_eq!(
            spec.sar_group_sizes().sum::<usize>(),
            1usize << spec.adc_bits()
        );
        prop_assert_eq!(spec.spare_capacitors(),
            spec.capacitors_per_column() - (1 << spec.adc_bits()));
    }

    #[test]
    fn throughput_scales_inversely_with_local_array(spec in valid_spec()) {
        let timing = TimingModel::s28_default();
        let base = timing.throughput_tops(&spec).unwrap();
        // Doubling L (when valid) halves the throughput at fixed array size.
        if let Ok(doubled) = AcimSpec::from_dimensions(
            spec.height(),
            spec.width(),
            spec.local_array() * 2,
            spec.adc_bits(),
        ) {
            let slower = timing.throughput_tops(&doubled).unwrap();
            prop_assert!((base / slower - 2.0).abs() < 1e-9);
        }
    }

    // ---- Estimation model ---------------------------------------------------

    #[test]
    fn model_outputs_are_finite_and_positive(spec in valid_spec()) {
        let params = ModelParams::s28_default();
        let area = area_f2_per_bit(&spec, &params).unwrap();
        let eff = evaluate(&spec, &params).unwrap().tops_per_watt;
        let snr = snr_simplified_db(&spec, &params).unwrap();
        prop_assert!(area.is_finite() && area > 1500.0 && area < 50_000.0);
        prop_assert!(eff.is_finite() && eff > 1.0 && eff < 2_000.0);
        // The extreme corner (B_ADC = 1 with a 512-long dot product) sits just
        // below -10 dB, so the sanity band is slightly wider than that.
        prop_assert!(snr.is_finite() && snr > -15.0 && snr < 80.0);
    }

    #[test]
    fn snr_gains_exactly_6db_per_adc_bit(spec in valid_spec()) {
        let params = ModelParams::s28_default();
        if let Ok(finer) = AcimSpec::from_dimensions(
            spec.height(), spec.width(), spec.local_array(), spec.adc_bits() + 1)
        {
            let base = snr_simplified_db(&spec, &params).unwrap();
            let finer_snr = snr_simplified_db(&finer, &params).unwrap();
            prop_assert!((finer_snr - base - 6.0).abs() < 1e-9);
        }
    }

    // ---- Genome encoding ----------------------------------------------------

    #[test]
    fn any_genome_decodes_into_the_catalogue(genes in prop::collection::vec(0.0..=1.0f64, 3)) {
        let encoding = DesignEncoding::new(16 * 1024, 16, 1024).unwrap();
        let candidate = encoding.decode(&genes);
        prop_assert!(encoding.heights().contains(&candidate.height));
        prop_assert!(encoding.local_sizes().contains(&candidate.local_array));
        prop_assert!(encoding.adc_bits().contains(&candidate.adc_bits));
        prop_assert_eq!(candidate.height * candidate.width, 16 * 1024);
        // Encode/decode round-trips to the same candidate.
        if let Some(encoded) = encoding.encode(&candidate) {
            prop_assert_eq!(encoding.decode(&encoded), candidate);
        }
    }

    // ---- Geometry ------------------------------------------------------------

    #[test]
    fn rect_union_contains_both_operands(
        (ax0, ay0, ax1, ay1) in (-1e4..1e4f64, -1e4..1e4f64, -1e4..1e4f64, -1e4..1e4f64),
        (bx0, by0, bx1, by1) in (-1e4..1e4f64, -1e4..1e4f64, -1e4..1e4f64, -1e4..1e4f64),
    ) {
        let a = Rect::new(ax0, ay0, ax1, ay1);
        let b = Rect::new(bx0, by0, bx1, by1);
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));
    }

    #[test]
    fn hpwl_is_translation_invariant(
        points in prop::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 2..10),
        (dx, dy) in (-1e3..1e3f64, -1e3..1e3f64),
    ) {
        let original: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let shifted: Vec<Point> = original.iter().map(|p| p.translated(dx, dy)).collect();
        let a = half_perimeter_wire_length(&original);
        let b = half_perimeter_wire_length(&shifted);
        prop_assert!((a - b).abs() < 1e-6);
    }

    // ---- SAR ADC ---------------------------------------------------------------

    #[test]
    fn noiseless_sar_adc_is_monotonic(bits in 2u32..=6, steps in 10usize..40) {
        let spec = AcimSpec::from_dimensions(512, 32, 2, bits).unwrap();
        let adc = SarAdc::new(CdacBank::ideal(&spec, 1.2), bits, 0.0, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut last = 0u32;
        for i in 0..=steps {
            let v = i as f64 / steps as f64;
            let code = adc.convert(v, &mut rng);
            prop_assert!(code >= last, "code regressed at v={v}");
            prop_assert!(code <= adc.full_scale());
            last = code;
        }
    }
}
