//! Device and passive-element statistics.
//!
//! The behavioural macro simulator needs two pieces of device-level
//! information that a PDK would normally supply from measured data:
//!
//! * the unit metal-fringe (MOM) capacitance and its mismatch coefficient κ
//!   (`σ_C = κ·√C`, after Tripathi & Murmann, TCAS-I 2014),
//! * the comparator input-referred noise and offset statistics.
//!
//! The cell library also sizes the compute cell's capacitor from the unit
//! capacitance.  The synthetic values, set by [`Technology::s28`], are
//! representative of a 28 nm-class process.
//!
//! [`Technology::s28`]: crate::Technology::s28

use crate::units::Femtofarad;
use crate::BOLTZMANN_J_PER_K;

/// Metal-fringe (MOM) compute-capacitor model with mismatch statistics.
///
/// The compute capacitors C_F are reused as the CDAC capacitors of the SAR
/// ADC (Section 3.1 of the paper), so their matching directly limits SNR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitorModel {
    /// Unit capacitance C_F of one compute capacitor.
    pub unit_cap: Femtofarad,
    /// Mismatch coefficient κ in `σ_C = κ·√C`, with C in fF and σ_C in fF.
    pub kappa: f64,
}

impl CapacitorModel {
    /// Standard deviation of a capacitor made of `units` parallel unit caps,
    /// in fF: `σ = κ·√(units·C_F)`.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    fn sigma(&self, units: u32) -> Femtofarad {
        assert!(units > 0, "capacitor must contain at least one unit");
        let total = self.unit_cap.value() * f64::from(units);
        Femtofarad::new(self.kappa * total.sqrt())
    }

    /// Relative mismatch `σ_C / C` of a capacitor made of `units` unit caps.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn relative_sigma(&self, units: u32) -> f64 {
        let total = self.unit_cap.value() * f64::from(units);
        self.sigma(units).value() / total
    }

    /// kT/C thermal-noise voltage standard deviation (in volts) on a
    /// capacitor of `units` unit caps at temperature `temp_k` Kelvin.
    pub fn thermal_noise_sigma_v(&self, units: u32, temp_k: f64) -> f64 {
        let c_farad = self.unit_cap.value() * f64::from(units) * 1e-15;
        (BOLTZMANN_J_PER_K * temp_k / c_farad).sqrt()
    }
}

/// Dynamic-comparator noise/offset model used by the SAR ADC simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparatorModel {
    /// Input-referred noise standard deviation, in volts.
    pub noise_sigma_v: f64,
    /// Input-referred offset standard deviation across instances, in volts.
    pub offset_sigma_v: f64,
}

#[cfg(test)]
mod tests {
    use crate::Technology;

    #[test]
    fn capacitor_mismatch_improves_with_size() {
        let cap = *Technology::s28().capacitor();
        // σ/C ∝ 1/√C: quadrupling the capacitor halves relative mismatch.
        let r1 = cap.relative_sigma(1);
        let r4 = cap.relative_sigma(4);
        assert!((r1 / r4 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn absolute_mismatch_grows_with_sqrt_size() {
        let cap = *Technology::s28().capacitor();
        let s1 = cap.sigma(1).value();
        let s4 = cap.sigma(4).value();
        assert!((s4 / s1 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn sigma_rejects_zero_units() {
        Technology::s28().capacitor().sigma(0);
    }

    #[test]
    fn thermal_noise_matches_ktc_formula() {
        let cap = *Technology::s28().capacitor();
        // kT/C at 300 K on 1.2 fF: sqrt(1.38e-23*300/1.2e-15) ≈ 1.86 mV.
        let sigma = cap.thermal_noise_sigma_v(1, 300.0);
        assert!((sigma - 1.857e-3).abs() < 0.05e-3, "sigma = {sigma}");
        // Larger capacitor → lower noise.
        assert!(cap.thermal_noise_sigma_v(16, 300.0) < sigma);
    }

    #[test]
    fn comparator_noise_below_offset() {
        let cmp = *Technology::s28().comparator();
        assert!(cmp.noise_sigma_v < cmp.offset_sigma_v);
    }
}
