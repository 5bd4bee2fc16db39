//! Calibration of the estimation model against the behavioural simulator.
//!
//! The paper obtains its empirical constants (`k1`, `k2` of Equation 9,
//! the data-dependent `k3`, `k4` of Equation 11) from post-layout
//! simulation.  The reproduction replaces that oracle with the behavioural
//! macro simulator of `acim-arch`:
//!
//! * [`calibrate_snr_offset`] measures Monte-Carlo SNR for a set of
//!   specifications and least-squares fits the constant offset of
//!   Equation 11 (the `−10·log10(k3/C_o) + k4` term), reporting the residual
//!   so the structural terms (`6·B_ADC`, `−10·log10(H/L)`) can be judged,
//! * [`calibrate_adc_energy`] fits `k1`, `k2` to a set of
//!   (B_ADC, E_ADC) samples using the two-basis linear model of Equation 9.

use acim_arch::{measure_snr, AcimSpec, NoiseConfig};
use acim_tech::Technology;

use crate::error::ModelError;
use crate::math::db;
use crate::params::ModelParams;

/// Outcome of a calibration fit.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// The fitted constants (meaning depends on the calibration routine).
    pub fitted: Vec<f64>,
    /// Root-mean-square residual of the fit, in the units of the fitted
    /// quantity (dB for SNR, fJ for energy).
    pub rms_residual: f64,
    /// Number of samples used.
    pub samples: usize,
    /// Per-sample (predicted, measured) pairs, for reporting.
    pub pairs: Vec<(f64, f64)>,
}

/// Calibrates the constant offset of the simplified SNR model
/// (Equation 11) against Monte-Carlo measurements.
///
/// For every specification the structural part `6·B − 10·log10(H/L)` is
/// computed analytically and the measured SNR provides one sample of the
/// offset `c = −10·log10(k3/C_o) + k4`.  The fit is the mean offset; the
/// report carries the RMS residual, which quantifies how well the
/// structural model explains the measured variation — the reproduction's
/// equivalent of the paper's model-validation step.
///
/// # Errors
///
/// Returns [`ModelError::InsufficientData`] when `specs` is empty, and
/// propagates simulation errors.
pub fn calibrate_snr_offset(
    specs: &[AcimSpec],
    tech: &Technology,
    cycles: usize,
    seed: u64,
) -> Result<CalibrationReport, ModelError> {
    if specs.is_empty() {
        return Err(ModelError::InsufficientData(
            "at least one specification is required for SNR calibration".into(),
        ));
    }
    let mut offsets = Vec::with_capacity(specs.len());
    let mut structurals = Vec::with_capacity(specs.len());
    let mut measured = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let m = measure_snr(
            spec,
            tech,
            NoiseConfig::realistic(),
            cycles,
            seed + i as u64,
        )?;
        let structural = 6.0 * f64::from(spec.adc_bits()) - db(spec.dot_product_length() as f64);
        offsets.push(m.snr_db - structural);
        structurals.push(structural);
        measured.push(m.snr_db);
    }
    let offset = offsets.iter().sum::<f64>() / offsets.len() as f64;
    let pairs: Vec<(f64, f64)> = structurals
        .iter()
        .zip(&measured)
        .map(|(s, m)| (s + offset, *m))
        .collect();
    let rms_residual =
        (pairs.iter().map(|(p, m)| (p - m) * (p - m)).sum::<f64>() / pairs.len() as f64).sqrt();
    Ok(CalibrationReport {
        fitted: vec![offset],
        rms_residual,
        samples: pairs.len(),
        pairs,
    })
}

/// Applies a fitted SNR offset to a parameter set: keeps `k3 = C_o` (so the
/// log term vanishes) and stores the offset in `k4`.
pub fn apply_snr_offset(params: &mut ModelParams, offset_db: f64) {
    params.snr.k3 = params.snr.c_o.value();
    params.snr.k4 = offset_db;
}

/// Fits `k1`, `k2` of the ADC energy formula (Equation 9) to measured
/// (B_ADC, E_ADC in fJ) samples by ordinary least squares on the two basis
/// functions `B + log2(V_DD)` and `4^B · V_DD²`.
///
/// # Errors
///
/// Returns [`ModelError::InvalidParameter`] when `vdd` is not positive and
/// finite or a sample energy is not finite, and
/// [`ModelError::InsufficientData`] when fewer than two distinct
/// precisions are provided (the system would be singular).
pub fn calibrate_adc_energy(
    samples: &[(u32, f64)],
    vdd: f64,
) -> Result<CalibrationReport, ModelError> {
    if !(vdd > 0.0 && vdd.is_finite()) {
        return Err(ModelError::InvalidParameter {
            name: "vdd".into(),
            reason: format!("must be positive and finite, got {vdd}"),
        });
    }
    if let Some(&(bits, energy)) = samples.iter().find(|(_, e)| !e.is_finite()) {
        return Err(ModelError::InvalidParameter {
            name: "samples".into(),
            reason: format!("energy at B_ADC = {bits} must be finite, got {energy}"),
        });
    }
    let distinct: std::collections::BTreeSet<u32> = samples.iter().map(|(b, _)| *b).collect();
    if distinct.len() < 2 {
        return Err(ModelError::InsufficientData(
            "ADC-energy calibration needs samples at two or more precisions".into(),
        ));
    }
    // Normal equations for y = k1·u + k2·v.
    let (mut suu, mut svv, mut suv, mut suy, mut svy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut bases = Vec::with_capacity(samples.len());
    for &(bits, energy) in samples {
        let u = f64::from(bits) + vdd.log2();
        let v = 4f64.powi(bits as i32) * vdd * vdd;
        suu += u * u;
        svv += v * v;
        suv += u * v;
        suy += u * energy;
        svy += v * energy;
        bases.push((u, v, energy));
    }
    let det = suu * svv - suv * suv;
    if det.abs() < 1e-12 {
        return Err(ModelError::InsufficientData(
            "ADC-energy calibration basis is singular".into(),
        ));
    }
    let k1 = (suy * svv - svy * suv) / det;
    let k2 = (svy * suu - suy * suv) / det;
    let pairs: Vec<(f64, f64)> = bases
        .iter()
        .map(|&(u, v, y)| (k1 * u + k2 * v, y))
        .collect();
    let rms_residual =
        (pairs.iter().map(|(p, m)| (p - m) * (p - m)).sum::<f64>() / pairs.len() as f64).sqrt();
    Ok(CalibrationReport {
        fitted: vec![k1, k2],
        rms_residual,
        samples: pairs.len(),
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acim_arch::EnergyModelParams;

    #[test]
    fn adc_energy_fit_recovers_known_constants() {
        // Generate samples from the default energy model and check the fit
        // recovers k1, k2 almost exactly.
        let truth = EnergyModelParams::s28_default();
        let samples: Vec<(u32, f64)> = (2..=8)
            .map(|b| (b, truth.adc_energy(b).unwrap().value()))
            .collect();
        let report = calibrate_adc_energy(&samples, truth.vdd).unwrap();
        assert_eq!(report.samples, samples.len());
        assert!(
            (report.fitted[0] - truth.k1.value()).abs() < 0.5,
            "k1 = {}",
            report.fitted[0]
        );
        assert!(
            (report.fitted[1] - truth.k2.value()).abs() < 0.01,
            "k2 = {}",
            report.fitted[1]
        );
        assert!(report.rms_residual < 1.0);
    }

    #[test]
    fn adc_energy_fit_needs_two_precisions() {
        let samples = vec![(4, 100.0), (4, 101.0)];
        assert!(calibrate_adc_energy(&samples, 0.9).is_err());
        assert!(calibrate_adc_energy(&[], 0.9).is_err());
    }

    #[test]
    fn adc_energy_fit_rejects_non_finite_inputs() {
        let samples = vec![(2, 130.0), (4, 160.0), (6, 750.0)];
        for vdd in [0.0, -0.9, f64::NAN, f64::INFINITY] {
            let err = calibrate_adc_energy(&samples, vdd).unwrap_err();
            assert!(
                matches!(&err, ModelError::InvalidParameter { name, .. } if name == "vdd"),
                "vdd = {vdd}: {err}"
            );
        }
        for bad in [f64::NAN, f64::INFINITY] {
            let mut samples = samples.clone();
            samples[1].1 = bad;
            let err = calibrate_adc_energy(&samples, 0.9).unwrap_err();
            assert!(
                matches!(&err, ModelError::InvalidParameter { name, .. } if name == "samples"),
                "energy = {bad}: {err}"
            );
        }
    }

    #[test]
    fn snr_calibration_produces_finite_offset_and_small_residual() {
        let tech = Technology::s28();
        let specs = vec![
            AcimSpec::from_dimensions(64, 16, 4, 3).unwrap(),
            AcimSpec::from_dimensions(128, 16, 4, 4).unwrap(),
            AcimSpec::from_dimensions(128, 16, 8, 3).unwrap(),
        ];
        let report = calibrate_snr_offset(&specs, &tech, 48, 7).unwrap();
        assert_eq!(report.samples, 3);
        assert!(report.fitted[0].is_finite());
        // The structural model should explain most of the variation: the
        // residual after fitting one constant should be a few dB at most.
        assert!(
            report.rms_residual < 6.0,
            "rms residual {:.2} dB too large",
            report.rms_residual
        );
    }

    #[test]
    fn snr_calibration_rejects_empty_input() {
        let tech = Technology::s28();
        assert!(calibrate_snr_offset(&[], &tech, 16, 1).is_err());
    }

    #[test]
    fn apply_snr_offset_updates_params() {
        let mut params = ModelParams::s28_default();
        apply_snr_offset(&mut params, 9.5);
        assert_eq!(params.snr.k4, 9.5);
        assert_eq!(params.snr.k3, params.snr.c_o.value());
        // After applying, the simplified model's offset equals the fit.
        let spec = AcimSpec::from_dimensions(128, 128, 8, 3).unwrap();
        let snr = crate::snr::snr_simplified_db(&spec, &params).unwrap();
        let structural = 6.0 * 3.0 - 10.0 * 16f64.log10();
        assert!((snr - structural - 9.5).abs() < 1e-9);
    }
}
