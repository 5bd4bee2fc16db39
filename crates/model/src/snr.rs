//! SNR estimation (Equations 2–6 and 11).
//!
//! The total SNR combines three noise mechanisms:
//!
//! * `SQNR_y` — quantisation noise of the output ADC (Equation 6),
//! * `SQNR_i` — output-referred quantisation noise of the inputs and weights
//!   (Equation 4),
//! * `SNR_a` — analog non-idealities: capacitor mismatch, thermal (kT/C)
//!   noise and charge injection (Equation 5; charge injection is eliminated
//!   by bottom-plate sampling and ignored).
//!
//! Noise powers add, so the reciprocal SNRs add (Equations 2–3).  The
//! optimiser uses the simplified closed form of Equation 11, whose constants
//! `k3`/`k4` are calibrated against the behavioural simulator.

use acim_arch::AcimSpec;
use acim_tech::BOLTZMANN_J_PER_K;

use crate::error::ModelError;
use crate::math::{db, from_db};
use crate::params::{ModelParams, SnrParams};

/// Intermediate quantities of the detailed SNR model, all in dB except the
/// raw variances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnrBreakdown {
    /// Output quantisation SNR, `SQNR_y` (Equation 6).
    pub sqnr_y_db: f64,
    /// Input/weight quantisation SNR, `SQNR_i`.
    pub sqnr_i_db: f64,
    /// Analog SNR, `SNR_a` (Equation 5).
    pub snr_a_db: f64,
    /// Pre-ADC SNR, `SNR_pre` (Equation 3).
    pub snr_pre_db: f64,
    /// Total SNR, `SNR_T` (Equation 2).
    pub snr_total_db: f64,
}

/// Detailed SNR model (Equations 2–6).
///
/// # Errors
///
/// Returns [`ModelError::InvalidParameter`] when the parameter set fails
/// validation.
pub fn snr_detailed_db(spec: &AcimSpec, params: &ModelParams) -> Result<SnrBreakdown, ModelError> {
    params.validate()?;
    let n = spec.dot_product_length() as f64;
    let data = &params.data;

    // Signal power at the output: σ²_yo = N·σ²_w·E[x²].
    let sigma2_w = data.sigma_w * data.sigma_w;
    let e_x2 = data.x_second_moment();
    let sigma2_yo = n * sigma2_w * e_x2;

    // Equation 4: input/weight quantisation noise.
    let delta_x = data.delta_x();
    let delta_w = data.delta_w();
    let sigma2_qi = (n / 12.0) * (delta_x * delta_x * sigma2_w + delta_w * delta_w * e_x2);
    let sqnr_i_db = db(sigma2_yo / sigma2_qi);

    // Equation 5: analog noise.  The three terms are capacitor mismatch,
    // comparator/thermal noise referred to the supply, and charge injection
    // (ignored: bottom-plate sampling).
    let c_o = params.snr.c_o.value();
    let sigma_c = params.kappa * c_o.sqrt();
    let mismatch_term = (sigma_c * sigma_c) / (c_o * c_o);
    let vdd = params.energy.vdd;
    let ktc_v = (BOLTZMANN_J_PER_K * params.temperature_k / (c_o * 1e-15)).sqrt();
    let thermal_term = 2.0 * (ktc_v * ktc_v) / (vdd * vdd);
    let injection_term = 0.0;
    let bw = data.weight_bits as i32;
    let prefactor = (2.0 / 3.0) * (1.0 - 4f64.powi(-bw)) * n;
    let sigma2_eta = prefactor * (e_x2 * mismatch_term + thermal_term + injection_term);
    let snr_a_db = db(sigma2_yo / sigma2_eta.max(1e-30));

    // Equation 3: pre-ADC SNR.
    let snr_pre = 1.0 / (1.0 / from_db(snr_a_db) + 1.0 / from_db(sqnr_i_db));
    let snr_pre_db = db(snr_pre);

    // Equation 6: output quantisation SNR.
    let b_y = f64::from(spec.adc_bits());
    let sqnr_y_db = 6.0 * b_y + 4.8 - (data.zeta_x_db() + data.zeta_w_db()) - 10.0 * n.log10();

    // Equation 2: total.
    let snr_total = 1.0 / (1.0 / from_db(snr_pre_db) + 1.0 / from_db(sqnr_y_db));
    let snr_total_db = db(snr_total);

    Ok(SnrBreakdown {
        sqnr_y_db,
        sqnr_i_db,
        snr_a_db,
        snr_pre_db,
        snr_total_db,
    })
}

/// Simplified SNR model used by the design-space explorer (Equation 11):
///
/// ```text
/// SNR(dB) = 6·B_ADC − 10·log10(H / L) − 10·log10(k3 / C_o) + k4
/// ```
///
/// # Errors
///
/// Returns [`ModelError::InvalidParameter`] when the parameter set fails
/// validation.
pub fn snr_simplified_db(spec: &AcimSpec, params: &ModelParams) -> Result<f64, ModelError> {
    params.validate()?;
    Ok(simplified_snr_db(spec, &params.snr))
}

/// Equation 11 on constants the caller has already validated.
pub(crate) fn simplified_snr_db(spec: &AcimSpec, snr: &SnrParams) -> f64 {
    6.0 * f64::from(spec.adc_bits())
        - db(spec.dot_product_length() as f64)
        - db(snr.k3 / snr.c_o.value())
        + snr.k4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(h: usize, l: usize, b: u32) -> AcimSpec {
        AcimSpec::from_dimensions(h, 16_384 / h, l, b).unwrap()
    }

    #[test]
    fn simplified_snr_structure() {
        let params = ModelParams::s28_default();
        // +1 ADC bit → +6 dB.
        let b3 = snr_simplified_db(&spec(128, 8, 3), &params).unwrap();
        let b4 = snr_simplified_db(&spec(128, 8, 4), &params).unwrap();
        assert!((b4 - b3 - 6.0).abs() < 1e-9);
        // Doubling N = H/L → −3 dB.
        let n16 = snr_simplified_db(&spec(128, 8, 3), &params).unwrap();
        let n32 = snr_simplified_db(&spec(256, 8, 3), &params).unwrap();
        assert!((n16 - n32 - 10.0 * 2f64.log10()).abs() < 1e-9);
    }

    #[test]
    fn simplified_snr_lands_in_plausible_band() {
        let params = ModelParams::s28_default();
        for (h, l, b) in [
            (128, 2, 3),
            (128, 8, 3),
            (64, 8, 3),
            (512, 2, 8),
            (64, 32, 1),
        ] {
            let snr = snr_simplified_db(&spec(h, l, b), &params).unwrap();
            assert!(
                (0.0..60.0).contains(&snr),
                "SNR {snr:.1} dB out of band for H={h} L={l} B={b}"
            );
        }
    }

    #[test]
    fn detailed_snr_total_is_below_each_component() {
        let params = ModelParams::s28_default();
        let b = snr_detailed_db(&spec(128, 8, 4), &params).unwrap();
        assert!(b.snr_total_db <= b.sqnr_y_db + 1e-9);
        assert!(b.snr_total_db <= b.snr_pre_db + 1e-9);
        assert!(b.snr_pre_db <= b.snr_a_db + 1e-9);
        assert!(b.snr_pre_db <= b.sqnr_i_db + 1e-9);
    }

    #[test]
    fn detailed_snr_improves_with_adc_precision_until_analog_limit() {
        let params = ModelParams::s28_default();
        let low = snr_detailed_db(&spec(128, 8, 2), &params).unwrap();
        let mid = snr_detailed_db(&spec(128, 8, 4), &params).unwrap();
        assert!(mid.snr_total_db > low.snr_total_db);
        // At very high B the total saturates at the pre-ADC SNR.
        let high = snr_detailed_db(&spec(512, 2, 8), &params).unwrap();
        assert!(high.snr_total_db <= high.snr_pre_db + 1e-9);
    }

    #[test]
    fn larger_dot_product_reduces_output_sqnr() {
        let params = ModelParams::s28_default();
        let small_n = snr_detailed_db(&spec(128, 8, 4), &params).unwrap();
        let large_n = snr_detailed_db(&spec(1024, 8, 4), &params).unwrap();
        assert!(small_n.sqnr_y_db > large_n.sqnr_y_db);
    }

    #[test]
    fn invalid_params_propagate() {
        let mut params = ModelParams::s28_default();
        params.snr.k3 = -1.0;
        assert!(snr_simplified_db(&spec(128, 8, 3), &params).is_err());
        assert!(snr_detailed_db(&spec(128, 8, 3), &params).is_err());
    }
}
