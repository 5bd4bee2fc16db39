//! SAR ADC with compute-capacitor reuse.
//!
//! The defining trick of the synthesizable architecture (borrowed from the
//! bit-flexible macro of reference \[4\] of the paper) is that the per-column
//! compute capacitors `C_F` are *reused* as the CDAC of the column's SAR
//! ADC: the `H / L` capacitors are partitioned into SAR groups with the
//! binary ratio 1 : 1 : 2 : … : 2^(B−1), and the SAR logic switches whole
//! groups during the successive-approximation search.  This removes the
//! dedicated CDAC and its area from the design.

use rand::Rng;

use crate::compute_model::gaussian;
use crate::error::ArchError;
use crate::spec::AcimSpec;

/// The CDAC formed by partitioning a column's compute capacitors into SAR
/// groups.
#[derive(Debug, Clone, PartialEq)]
pub struct CdacBank {
    /// Per-group capacitance in fF, including sampled mismatch.
    group_caps_ff: Vec<f64>,
}

impl CdacBank {
    /// Builds an ideal (mismatch-free) CDAC for a specification.
    pub fn ideal(spec: &AcimSpec, unit_cap_ff: f64) -> Self {
        let group_caps_ff = spec
            .sar_group_sizes()
            .iter()
            .map(|&u| unit_cap_ff * u as f64)
            .collect();
        Self { group_caps_ff }
    }

    /// Builds a CDAC whose unit capacitors carry Gaussian mismatch
    /// `σ_C = κ·√C` (κ in 1/√fF), sampled from `rng`.
    pub fn with_mismatch<R: Rng + ?Sized>(
        spec: &AcimSpec,
        unit_cap_ff: f64,
        kappa: f64,
        rng: &mut R,
    ) -> Self {
        let group_caps_ff = spec
            .sar_group_sizes()
            .iter()
            .map(|&u| {
                // Each group is u unit caps in parallel; mismatch adds in
                // quadrature so the group sigma is κ·√(u·C).
                let nominal = unit_cap_ff * u as f64;
                let sigma = kappa * nominal.sqrt();
                (nominal + gaussian(rng) * sigma).max(unit_cap_ff * 0.01)
            })
            .collect();
        Self { group_caps_ff }
    }

    /// Number of SAR groups (B_ADC + 1, including the LSB dummy group).
    pub fn num_groups(&self) -> usize {
        self.group_caps_ff.len()
    }

    /// Total CDAC capacitance in fF (with mismatch).
    pub fn total_cap_ff(&self) -> f64 {
        self.group_caps_ff.iter().sum()
    }

    /// The voltage step (as a fraction of full scale) contributed by
    /// switching group `index`, given the actual (mismatched) capacitor
    /// values: `C_group / C_total`.
    pub fn group_weight(&self, index: usize) -> f64 {
        self.group_caps_ff[index] / self.total_cap_ff()
    }
}

/// Behavioural SAR ADC operating on a [`CdacBank`].
#[derive(Debug, Clone, PartialEq)]
pub struct SarAdc {
    cdac: CdacBank,
    bits: u32,
    /// Comparator input-referred noise, as a fraction of full scale.
    comparator_noise: f64,
    /// Comparator offset, as a fraction of full scale.
    comparator_offset: f64,
}

impl SarAdc {
    /// Creates a SAR ADC.
    ///
    /// `comparator_noise` and `comparator_offset` are expressed as fractions
    /// of the full-scale range (i.e. already referred to the normalised
    /// `[0, 1]` input).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParameter`] when `bits` is zero or larger
    /// than 16, or when a noise parameter is negative.
    pub fn new(
        cdac: CdacBank,
        bits: u32,
        comparator_noise: f64,
        comparator_offset: f64,
    ) -> Result<Self, ArchError> {
        if bits == 0 || bits > 16 {
            return Err(ArchError::InvalidParameter {
                name: "adc bits".into(),
                reason: format!("{bits} is outside [1, 16]"),
            });
        }
        if comparator_noise < 0.0 || comparator_offset.is_nan() {
            return Err(ArchError::InvalidParameter {
                name: "comparator noise".into(),
                reason: "must be non-negative".into(),
            });
        }
        Ok(Self {
            cdac,
            bits,
            comparator_noise,
            comparator_offset,
        })
    }

    /// ADC resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Converts a normalised analog value `v ∈ [0, 1]` to a `bits`-bit code
    /// using successive approximation with the (possibly mismatched) CDAC
    /// group weights and per-decision comparator noise drawn from `rng`.
    pub fn convert<R: Rng + ?Sized>(&self, v: f64, rng: &mut R) -> u32 {
        // The SAR search: threshold starts at mid-scale and each decision
        // adds or removes the weight of the next binary group.  Group 0 is
        // the LSB dummy; groups 1..=B carry the binary weights from MSB to
        // LSB when traversed in reverse.
        let mut code = 0u32;
        let mut threshold = 0.0;
        let effective = (v + self.comparator_offset).clamp(0.0, 1.0);
        // Binary-weighted groups, MSB first: the largest group is the last
        // entry of the CDAC bank.
        let num_groups = self.cdac.num_groups();
        for bit in (0..self.bits).rev() {
            // Group index carrying weight 2^bit: groups are ordered
            // [dummy, 2^0, 2^1, ..., 2^(B-1)].
            let group_index = (bit as usize + 1).min(num_groups - 1);
            let weight = self.cdac.group_weight(group_index);
            let trial = threshold + weight;
            let noise = if self.comparator_noise > 0.0 {
                gaussian(rng) * self.comparator_noise
            } else {
                0.0
            };
            if effective + noise >= trial {
                code |= 1 << bit;
                threshold = trial;
            }
        }
        code
    }

    /// Full-scale code (`2^bits − 1`).
    pub fn full_scale(&self) -> u32 {
        (1u32 << self.bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> AcimSpec {
        AcimSpec::from_dimensions(128, 128, 8, 4).unwrap()
    }

    fn ideal_adc(bits: u32) -> SarAdc {
        let spec = AcimSpec::from_dimensions(512, 32, 2, bits).unwrap();
        SarAdc::new(CdacBank::ideal(&spec, 1.2), bits, 0.0, 0.0).unwrap()
    }

    #[test]
    fn cdac_group_structure_matches_spec() {
        let s = spec();
        let cdac = CdacBank::ideal(&s, 1.2);
        assert_eq!(cdac.num_groups(), 5);
        assert!((cdac.total_cap_ff() - 1.2 * 16.0).abs() < 1e-9);
        assert_eq!(cdac.total_cap_ff(), 1.2 * 16.0);
    }

    #[test]
    fn cdac_mismatch_perturbs_but_stays_positive() {
        let s = spec();
        let mut rng = StdRng::seed_from_u64(3);
        let cdac = CdacBank::with_mismatch(&s, 1.2, 0.02, &mut rng);
        let nominal = 1.2 * 16.0;
        assert_ne!(cdac.total_cap_ff(), nominal);
        let rel_err = (cdac.total_cap_ff() - nominal).abs() / nominal;
        assert!(rel_err < 0.2, "mismatch too large: {rel_err}");
        for i in 0..cdac.num_groups() {
            assert!(cdac.group_weight(i) > 0.0);
        }
    }

    #[test]
    fn ideal_conversion_is_monotonic_and_hits_extremes() {
        let adc = ideal_adc(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut last = 0;
        for step in 0..=100 {
            let v = f64::from(step) / 100.0;
            let code = adc.convert(v, &mut rng);
            assert!(code >= last, "non-monotonic at v={v}: {code} < {last}");
            last = code;
        }
        assert_eq!(adc.convert(0.0, &mut rng), 0);
        assert_eq!(adc.convert(1.0, &mut rng), adc.full_scale());
    }

    #[test]
    fn noiseless_sar_matches_ideal_quantiser_within_one_lsb() {
        let adc = ideal_adc(6);
        let mut rng = StdRng::seed_from_u64(2);
        for step in 0..200 {
            let v = f64::from(step) / 199.0;
            let sar = adc.convert(v, &mut rng) as i64;
            // The ideal mid-tread quantiser.
            let ideal = (v * f64::from(adc.full_scale())).round() as i64;
            assert!(
                (sar - ideal).abs() <= 1,
                "v={v}: sar {sar} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn comparator_noise_disturbs_codes_near_thresholds() {
        let s = spec();
        let noisy = SarAdc::new(CdacBank::ideal(&s, 1.2), 4, 0.05, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        // A value exactly between two codes: with large noise the decision
        // should flip at least once in many trials.
        let v = 0.5 + 1.0 / 64.0;
        let codes: Vec<u32> = (0..200).map(|_| noisy.convert(v, &mut rng)).collect();
        let distinct: std::collections::BTreeSet<u32> = codes.iter().copied().collect();
        assert!(distinct.len() > 1, "noise should produce code dispersion");
    }

    #[test]
    fn offset_shifts_the_transfer_curve() {
        let s = spec();
        let shifted = SarAdc::new(CdacBank::ideal(&s, 1.2), 4, 0.0, 0.10).unwrap();
        let straight = SarAdc::new(CdacBank::ideal(&s, 1.2), 4, 0.0, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(shifted.convert(0.40, &mut rng) > straight.convert(0.40, &mut rng));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let s = spec();
        assert!(SarAdc::new(CdacBank::ideal(&s, 1.2), 0, 0.0, 0.0).is_err());
        assert!(SarAdc::new(CdacBank::ideal(&s, 1.2), 32, 0.0, 0.0).is_err());
        assert!(SarAdc::new(CdacBank::ideal(&s, 1.2), 4, -0.1, 0.0).is_err());
    }

    #[test]
    fn full_scale_matches_bits() {
        assert_eq!(ideal_adc(3).full_scale(), 7);
        assert_eq!(ideal_adc(8).full_scale(), 255);
    }
}
