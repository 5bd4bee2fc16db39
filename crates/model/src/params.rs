//! Model parameters: the constants of Equations 2–11.
//!
//! The parameter set splits into
//!
//! * [`AreaParams`] — the per-block areas of Equation 10 (8T SRAM cell,
//!   local-array-shared computing cell, comparator/SA slice, SAR DFF),
//! * [`SnrParams`] — the simplified-SNR constants `k3`, `k4` of Equation 11
//!   together with the compute-capacitor value,
//! * [`DataDistribution`] — the statistics of inputs and weights used by the
//!   detailed SNR model (Equations 3–6),
//! * the timing and energy parameters reused from `acim-arch`
//!   ([`acim_arch::TimingModel`], [`acim_arch::EnergyModelParams`]),
//!
//! all bundled into [`ModelParams`].  The default values reproduce the
//! paper's calibration anchors: the Figure 8 throughput
//! (`acim_arch::timing::tests::figure8a_throughput_is_about_3_28_tops`),
//! its F²/bit numbers (`area::tests::figure8_area_anchors`,
//! `params::tests::area_defaults_match_design_doc_anchors`) and the
//! 50–750 TOPS/W efficiency span of Figure 10
//! (`acim_arch::energy::tests::efficiency_spans_the_papers_range`).

use acim_arch::{EnergyModelParams, TimingModel};
use acim_tech::{Femtofarad, SquareF};

use crate::error::ModelError;

/// Per-block layout areas of Equation 10, in F².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaParams {
    /// Area of one 8T SRAM cell, `A_SRAM`.
    pub a_sram: SquareF,
    /// Area of the local-array-shared computing cell (compute capacitor +
    /// group control), `A_LC`.
    pub a_lc: SquareF,
    /// Area of the per-column dynamic comparator / sense amplifier,
    /// `A_COMP`.
    pub a_comp: SquareF,
    /// Area of one dynamic D flip-flop of the SAR logic, `A_DFF`.
    pub a_dff: SquareF,
}

impl AreaParams {
    /// Default S28 areas, calibrated so the three Figure 8 design points
    /// land on 4504, 2610 and 2977 F²/bit.
    pub fn s28_default() -> Self {
        Self {
            a_sram: SquareF::new(1612.0),
            a_lc: SquareF::new(5050.0),
            a_comp: SquareF::new(40_000.0),
            a_dff: SquareF::new(2326.0),
        }
    }
}

impl Default for AreaParams {
    fn default() -> Self {
        Self::s28_default()
    }
}

/// Constants of the simplified SNR formula (Equation 11):
///
/// ```text
/// SNR(dB) = 6·B_ADC − 10·log10(H / L) − 10·log10(k3 / C_o) + k4
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnrParams {
    /// Data/technology dependent coefficient `k3` (fF).
    pub k3: f64,
    /// Data-distribution dependent offset `k4` (dB).
    pub k4: f64,
    /// Compute capacitor value `C_o` used by the SNR model.
    pub c_o: Femtofarad,
}

impl SnrParams {
    /// Default S28 constants, chosen so SNR lands in the 15–45 dB band
    /// across the explored design space.
    pub fn s28_default() -> Self {
        Self {
            k3: 1.2,
            k4: 11.0,
            c_o: Femtofarad::new(1.2),
        }
    }
}

impl Default for SnrParams {
    fn default() -> Self {
        Self::s28_default()
    }
}

/// Statistics of the input and weight distributions used by the detailed SNR
/// model (Equations 3–6 and Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataDistribution {
    /// Input precision `B_x` in bits.
    pub input_bits: u32,
    /// Weight precision `B_w` in bits.
    pub weight_bits: u32,
    /// Maximum input magnitude `x_m`.
    pub x_max: f64,
    /// Maximum weight magnitude `w_m`.
    pub w_max: f64,
    /// Input standard deviation `σ_x`.
    pub sigma_x: f64,
    /// Weight standard deviation `σ_w`.
    pub sigma_w: f64,
}

impl DataDistribution {
    /// The 1b×1b computation of the paper's evaluation: Bernoulli(0.5)
    /// inputs and weights in {0, 1}.
    pub fn binary() -> Self {
        Self {
            input_bits: 1,
            weight_bits: 1,
            x_max: 1.0,
            w_max: 1.0,
            sigma_x: 0.5,
            sigma_w: 0.5,
        }
    }

    /// A multi-bit quantised Gaussian profile (used by the detailed-SNR
    /// studies): `bits`-bit inputs and weights with peak-to-sigma ratio 3.
    pub fn gaussian(bits: u32) -> Self {
        Self {
            input_bits: bits,
            weight_bits: bits,
            x_max: 1.0,
            w_max: 1.0,
            sigma_x: 1.0 / 3.0,
            sigma_w: 1.0 / 3.0,
        }
    }

    /// Crest factor `ζ_x = x_m / σ_x` in dB (power ratio convention of
    /// Equation 6).
    pub fn zeta_x_db(&self) -> f64 {
        20.0 * (self.x_max / self.sigma_x).log10()
    }

    /// Crest factor `ζ_w = w_m / σ_w` in dB.
    pub fn zeta_w_db(&self) -> f64 {
        20.0 * (self.w_max / self.sigma_w).log10()
    }

    /// Input quantisation step `Δ_x = x_m · 2^(−B_x + 1)`.
    pub fn delta_x(&self) -> f64 {
        self.x_max * 2f64.powi(1 - self.input_bits as i32)
    }

    /// Weight quantisation step `Δ_w = w_m · 2^(−B_w + 1)`.
    pub fn delta_w(&self) -> f64 {
        self.w_max * 2f64.powi(1 - self.weight_bits as i32)
    }

    /// Second moment of the input, `E[x²] = σ_x² + mean²`; for the zero-mean
    /// profiles used here this is simply `σ_x²` (binary data is treated as
    /// ±x_m/2 around its mean).
    pub fn x_second_moment(&self) -> f64 {
        self.sigma_x * self.sigma_x
    }
}

impl Default for DataDistribution {
    fn default() -> Self {
        Self::binary()
    }
}

/// The complete parameter set of the estimation model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Timing parameters (Equation 7).
    pub timing: TimingModel,
    /// Energy parameters (Equations 8–9).
    pub energy: EnergyModelParams,
    /// Area parameters (Equation 10).
    pub area: AreaParams,
    /// Simplified-SNR parameters (Equation 11).
    pub snr: SnrParams,
    /// Data statistics for the detailed SNR model (Equations 3–6).
    pub data: DataDistribution,
    /// Capacitor mismatch coefficient κ (1/√fF), from the technology.
    pub kappa: f64,
    /// Operating temperature in Kelvin.
    pub temperature_k: f64,
}

impl ModelParams {
    /// Default parameters of the synthetic S28 technology.
    pub fn s28_default() -> Self {
        Self {
            timing: TimingModel::s28_default(),
            energy: EnergyModelParams::s28_default(),
            area: AreaParams::s28_default(),
            snr: SnrParams::s28_default(),
            data: DataDistribution::binary(),
            kappa: 0.01,
            temperature_k: 300.0,
        }
    }

    /// Validates the parameter set, naming the first offending field.
    ///
    /// Every value must be finite.  The areas, `k3`, `C_o`, κ, the
    /// temperature, the timing constants of Equation 7, `V_DD` and the data
    /// statistics must be positive; the energy terms of Equations 8–9
    /// (`E_compute`, `E_control`, `k1`, `k2`) must be non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for the first value out of
    /// range.
    pub fn validate(&self) -> Result<(), ModelError> {
        use Bound::{Any, NonNegative, Positive};
        let checks = [
            ("a_sram", self.area.a_sram.value(), Positive),
            ("a_lc", self.area.a_lc.value(), Positive),
            ("a_comp", self.area.a_comp.value(), Positive),
            ("a_dff", self.area.a_dff.value(), Positive),
            ("k3", self.snr.k3, Positive),
            ("k4", self.snr.k4, Any),
            ("c_o", self.snr.c_o.value(), Positive),
            ("t_compute", self.timing.t_compute.value(), Positive),
            ("tau", self.timing.tau.value(), Positive),
            (
                "t_conv_per_bit",
                self.timing.t_conv_per_bit.value(),
                Positive,
            ),
            ("vdd", self.energy.vdd, Positive),
            ("e_compute", self.energy.e_compute.value(), NonNegative),
            ("e_control", self.energy.e_control.value(), NonNegative),
            ("k1", self.energy.k1.value(), NonNegative),
            ("k2", self.energy.k2.value(), NonNegative),
            ("x_max", self.data.x_max, Positive),
            ("w_max", self.data.w_max, Positive),
            ("sigma_x", self.data.sigma_x, Positive),
            ("sigma_w", self.data.sigma_w, Positive),
            ("kappa", self.kappa, Positive),
            ("temperature", self.temperature_k, Positive),
        ];
        // `evaluate` validates on every call, so the all-valid path is two
        // branch-free passes (bounds, then finiteness); fused per-field
        // checks cost about twice as much.  The offending field is only
        // looked up once something failed.
        let bounded = checks
            .iter()
            .fold(true, |ok, &(_, v, bound)| ok & bound.holds(v));
        let finite = checks
            .iter()
            .fold(true, |ok, &(_, v, _)| ok & v.is_finite());
        if bounded && finite {
            return Ok(());
        }
        match checks
            .into_iter()
            .find(|&(_, v, bound)| !(bound.holds(v) && v.is_finite()))
        {
            Some((name, value, bound)) => Err(ModelError::InvalidParameter {
                name: name.to_string(),
                reason: format!("must be {}, got {value}", bound.requirement()),
            }),
            None => Ok(()),
        }
    }
}

/// The range [`ModelParams::validate`] requires of one finite value.
#[derive(Clone, Copy)]
enum Bound {
    Positive,
    NonNegative,
    Any,
}

impl Bound {
    /// Whether `value` lies within the bound (finiteness is separate).
    fn holds(self, value: f64) -> bool {
        match self {
            Bound::Positive => value > 0.0,
            Bound::NonNegative => value >= 0.0,
            Bound::Any => true,
        }
    }

    fn requirement(self) -> &'static str {
        match self {
            Bound::Positive => "positive and finite",
            Bound::NonNegative => "non-negative and finite",
            Bound::Any => "finite",
        }
    }
}

impl Default for ModelParams {
    fn default() -> Self {
        Self::s28_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ModelParams::s28_default().validate().is_ok());
        assert_eq!(ModelParams::default(), ModelParams::s28_default());
    }

    #[test]
    fn invalid_parameters_detected() {
        let mut p = ModelParams::s28_default();
        p.snr.k3 = 0.0;
        assert!(p.validate().is_err());
        let mut p = ModelParams::s28_default();
        p.area.a_sram = SquareF::new(-1.0);
        assert!(p.validate().is_err());
        let mut p = ModelParams::s28_default();
        p.kappa = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn binary_distribution_properties() {
        let d = DataDistribution::binary();
        assert_eq!(d.delta_x(), 1.0);
        assert_eq!(d.delta_w(), 1.0);
        assert!((d.zeta_x_db() - 6.0206).abs() < 0.01);
        assert!((d.x_second_moment() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn gaussian_distribution_quantisation_step_shrinks_with_bits() {
        let d4 = DataDistribution::gaussian(4);
        let d8 = DataDistribution::gaussian(8);
        assert!((d4.delta_x() / d8.delta_x() - 16.0).abs() < 1e-12);
        assert!(d8.zeta_x_db() > 9.0);
    }

    #[test]
    fn area_defaults_match_design_doc_anchors() {
        let a = AreaParams::s28_default();
        assert!((a.a_sram.value() - 1612.0).abs() < 1.0);
        assert!((a.a_lc.value() - 5050.0).abs() < 1.0);
        assert!((a.a_comp.value() - 40_000.0).abs() < 1.0);
    }
}
