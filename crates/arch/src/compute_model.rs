//! In-memory compute models: charge summing (QS), current summing (IS) and
//! charge redistribution (QR) — Figure 2 of the paper.
//!
//! EasyACIM selects QR for its synthesizable architecture because the
//! charge-domain models are insensitive to process-voltage-temperature (PVT)
//! variation and QR's bottom-plate redistribution extends naturally to
//! different applications.  This module provides behavioural implementations
//! of all three so the choice can be reproduced quantitatively: the
//! `compute_model` ablation benchmark sweeps PVT and mismatch and shows QR/QS
//! retaining accuracy where IS degrades.

use rand::Rng;

/// Which analog accumulation mechanism a column uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ComputeModelKind {
    /// Charge summing: each product switches a unit capacitor onto a shared
    /// output node; PVT-insensitive but hard to reconfigure.
    ChargeSumming,
    /// Current summing: each product gates a unit current source; dense but
    /// PVT-sensitive (current mirrors vary with voltage and temperature).
    CurrentSumming,
    /// Charge redistribution (the EasyACIM choice): products set capacitor
    /// top plates, then the bottom plates are shorted and the charge
    /// redistributes; PVT-insensitive and flexible.
    #[default]
    ChargeRedistribution,
}

/// Operating-condition knobs for the PVT-sensitivity study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PvtCondition {
    /// Supply-voltage deviation from nominal, as a fraction (e.g. `0.05` =
    /// +5 %).
    pub supply_deviation: f64,
    /// Temperature deviation from nominal, in Kelvin.
    pub temperature_delta_k: f64,
}

impl PvtCondition {
    /// Nominal corner: no deviation.
    pub fn nominal() -> Self {
        Self {
            supply_deviation: 0.0,
            temperature_delta_k: 0.0,
        }
    }
}

impl Default for PvtCondition {
    fn default() -> Self {
        Self::nominal()
    }
}

/// A behavioural analog accumulator for one column.
///
/// Inputs are the 1-bit products `b_i ∈ {0, 1}` produced by the local
/// arrays (one per compute capacitor / current branch); the output is the
/// normalised accumulation value in `[0, 1]` — the fraction of the supply
/// that the read bit-line settles to — before any ADC quantisation.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeModel {
    kind: ComputeModelKind,
    /// Per-element static mismatch factors (capacitor or current-source
    /// mismatch), multiplicative around 1.0.
    element_mismatch: Vec<f64>,
    /// PVT sensitivity coefficient of the element value (per unit of supply
    /// deviation); only significant for the current-domain model.
    pvt_sensitivity: f64,
}

impl ComputeModel {
    /// Creates a compute model with `n` ideal (mismatch-free) elements.
    pub fn ideal(kind: ComputeModelKind, n: usize) -> Self {
        Self {
            kind,
            element_mismatch: vec![1.0; n],
            pvt_sensitivity: Self::default_pvt_sensitivity(kind),
        }
    }

    /// Creates a compute model with Gaussian element mismatch of relative
    /// standard deviation `sigma_rel`, sampled from `rng`.
    pub fn with_mismatch<R: Rng + ?Sized>(
        kind: ComputeModelKind,
        n: usize,
        sigma_rel: f64,
        rng: &mut R,
    ) -> Self {
        let element_mismatch = (0..n).map(|_| 1.0 + gaussian(rng) * sigma_rel).collect();
        Self {
            kind,
            element_mismatch,
            pvt_sensitivity: Self::default_pvt_sensitivity(kind),
        }
    }

    fn default_pvt_sensitivity(kind: ComputeModelKind) -> f64 {
        match kind {
            // Charge-domain models depend on capacitor ratios, which track
            // across PVT: small residual sensitivity.
            ComputeModelKind::ChargeSumming | ComputeModelKind::ChargeRedistribution => 0.02,
            // Current sources vary strongly with supply and temperature.
            ComputeModelKind::CurrentSumming => 0.8,
        }
    }

    /// The model kind.
    pub fn kind(&self) -> ComputeModelKind {
        self.kind
    }

    /// Number of accumulation elements.
    pub fn len(&self) -> usize {
        self.element_mismatch.len()
    }

    /// Returns `true` when the model has no elements.
    pub fn is_empty(&self) -> bool {
        self.element_mismatch.is_empty()
    }

    /// Accumulates the 1-bit products into a normalised analog value in
    /// `[0, 1]` under the given PVT condition.
    ///
    /// For the charge-domain models the result is the mismatch-weighted mean
    /// of the product bits (charge conservation); for the current-domain
    /// model each element additionally scales with the supply/temperature
    /// deviation, modelling current-source variation.
    ///
    /// # Panics
    ///
    /// Panics if `products.len()` differs from the number of elements.
    pub fn accumulate(&self, products: &[bool], pvt: PvtCondition) -> f64 {
        assert_eq!(
            products.len(),
            self.element_mismatch.len(),
            "product vector must match element count"
        );
        if products.is_empty() {
            return 0.0;
        }
        let pvt_factor =
            1.0 + self.pvt_sensitivity * (pvt.supply_deviation + pvt.temperature_delta_k / 300.0);
        let mut weighted_sum = 0.0;
        let mut weight_total = 0.0;
        for (bit, mismatch) in products.iter().zip(&self.element_mismatch) {
            let element = match self.kind {
                // Capacitor values cancel to first order in the denominator
                // (redistribution divides by the total capacitance).
                ComputeModelKind::ChargeRedistribution | ComputeModelKind::ChargeSumming => {
                    *mismatch
                }
                ComputeModelKind::CurrentSumming => *mismatch * pvt_factor,
            };
            weight_total += match self.kind {
                // QR/QS normalise by the (mismatched) total capacitance.
                ComputeModelKind::ChargeRedistribution | ComputeModelKind::ChargeSumming => element,
                // IS normalises by the *nominal* full-scale current, so PVT
                // drift shows up directly in the output.
                ComputeModelKind::CurrentSumming => 1.0,
            };
            if *bit {
                weighted_sum += element;
            }
        }
        (weighted_sum / weight_total).clamp(0.0, 2.0)
    }

    /// Ideal (noise- and mismatch-free) accumulation: the fraction of ones.
    pub fn ideal_accumulate(products: &[bool]) -> f64 {
        if products.is_empty() {
            return 0.0;
        }
        products.iter().filter(|&&b| b).count() as f64 / products.len() as f64
    }
}

/// Standard-normal sample via Box–Muller (avoids an extra dependency on
/// `rand_distr`).
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_accumulation_is_fraction_of_ones() {
        let products = vec![true, false, true, true];
        assert!((ComputeModel::ideal_accumulate(&products) - 0.75).abs() < 1e-12);
        assert_eq!(ComputeModel::ideal_accumulate(&[]), 0.0);
    }

    #[test]
    fn ideal_models_agree_with_ideal_accumulation() {
        let products = vec![true, false, true, false, false, true, true, false];
        for kind in [
            ComputeModelKind::ChargeSumming,
            ComputeModelKind::CurrentSumming,
            ComputeModelKind::ChargeRedistribution,
        ] {
            let model = ComputeModel::ideal(kind, products.len());
            let out = model.accumulate(&products, PvtCondition::nominal());
            assert!(
                (out - 0.5).abs() < 1e-12,
                "{kind:?} gave {out} for 4/8 ones"
            );
        }
    }

    #[test]
    fn current_summing_is_pvt_sensitive_charge_models_are_not() {
        let products = vec![true; 16];
        let corner = PvtCondition {
            supply_deviation: 0.1,
            temperature_delta_k: 50.0,
        };
        let qr = ComputeModel::ideal(ComputeModelKind::ChargeRedistribution, 16)
            .accumulate(&products, corner);
        let is =
            ComputeModel::ideal(ComputeModelKind::CurrentSumming, 16).accumulate(&products, corner);
        let qr_err = (qr - 1.0).abs();
        let is_err = (is - 1.0).abs();
        assert!(
            is_err > 5.0 * qr_err,
            "IS error {is_err} should dwarf QR error {qr_err}"
        );
    }

    #[test]
    fn mismatch_perturbs_but_preserves_mean_roughly() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 64;
        let products: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let model =
            ComputeModel::with_mismatch(ComputeModelKind::ChargeRedistribution, n, 0.02, &mut rng);
        let out = model.accumulate(&products, PvtCondition::nominal());
        assert!((out - 0.5).abs() < 0.05, "mismatch shifted output to {out}");
        assert_ne!(out, 0.5, "2% mismatch should move the output slightly");
    }

    #[test]
    #[should_panic(expected = "must match element count")]
    fn accumulate_rejects_wrong_length() {
        let model = ComputeModel::ideal(ComputeModelKind::ChargeRedistribution, 4);
        let _ = model.accumulate(&[true, false], PvtCondition::nominal());
    }

    #[test]
    fn gaussian_has_roughly_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..20_000).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }
}
