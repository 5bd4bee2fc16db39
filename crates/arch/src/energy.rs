//! Energy accounting (Equations 8 and 9).
//!
//! The average energy of one 1-bit MAC is
//!
//! ```text
//! E = E_compute + E_control + E_ADC / (H / L)
//! ```
//!
//! because one ADC conversion serves the `H / L` MACs of a column.  The ADC
//! energy follows Murmann's empirical mixed-signal formula (Equation 9):
//!
//! ```text
//! E_ADC = k1 · (B_ADC + log2 V_DD) + k2 · 4^B_ADC · V_DD²
//! ```
//!
//! where the linear term captures the SAR logic/clocking and the exponential
//! term the comparator-noise-limited and CDAC contribution.

use acim_tech::Femtojoule;

use crate::error::ArchError;
use crate::spec::AcimSpec;

/// Parameters of the energy model.  `k1` and `k2` are the empirical
/// coefficients of Equation 9 that the paper obtains from post-layout
/// simulation; in this reproduction they are calibrated against the
/// behavioural simulator (see `acim-model::calibrate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModelParams {
    /// Energy of the capacitor compute operation itself, per MAC (fJ).
    pub e_compute: Femtojoule,
    /// Energy of the word-line / control toggling, per MAC (fJ).
    pub e_control: Femtojoule,
    /// Linear ADC coefficient `k1` (fJ per bit).
    pub k1: Femtojoule,
    /// Exponential ADC coefficient `k2` (fJ per 4^B·V²).
    pub k2: Femtojoule,
    /// Supply voltage in volts.
    pub vdd: f64,
}

impl EnergyModelParams {
    /// Default parameters of the synthetic S28 technology, calibrated to
    /// the paper's anchors: the Figure 10 efficiency span
    /// (`energy::tests::efficiency_spans_the_papers_range`) at the Figure 8
    /// throughput (`timing::tests::figure8a_throughput_is_about_3_28_tops`).
    pub fn s28_default() -> Self {
        Self {
            e_compute: Femtojoule::new(1.5),
            e_control: Femtojoule::new(1.1),
            k1: Femtojoule::new(30.0),
            k2: Femtojoule::new(0.17),
            vdd: 0.9,
        }
    }

    /// ADC conversion energy (Equation 9) for a given precision.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParameter`] when `vdd` is not positive
    /// (or NaN) or `adc_bits` is zero.
    pub fn adc_energy(&self, adc_bits: u32) -> Result<Femtojoule, ArchError> {
        if self.vdd.is_nan() || self.vdd <= 0.0 {
            return Err(ArchError::InvalidParameter {
                name: "vdd".into(),
                reason: "supply voltage must be positive".into(),
            });
        }
        if adc_bits == 0 {
            return Err(ArchError::InvalidParameter {
                name: "adc_bits".into(),
                reason: "ADC precision must be at least 1 bit".into(),
            });
        }
        let linear = self.k1.value() * (f64::from(adc_bits) + self.vdd.log2());
        let exponential = self.k2.value() * 4f64.powi(adc_bits as i32) * self.vdd * self.vdd;
        Ok(Femtojoule::new(linear.max(0.0) + exponential))
    }

    /// Average per-MAC energy (Equation 8) for a specification.
    ///
    /// # Errors
    ///
    /// See [`EnergyModelParams::adc_energy`].
    pub fn energy_per_mac(&self, spec: &AcimSpec) -> Result<Femtojoule, ArchError> {
        let adc = self.adc_energy(spec.adc_bits())?;
        let shared = spec.capacitors_per_column() as f64;
        Ok(self.e_compute + self.e_control + adc / shared)
    }
}

impl Default for EnergyModelParams {
    fn default() -> Self {
        Self::s28_default()
    }
}

/// Cumulative energy breakdown recorded by the behavioural simulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Energy spent charging/discharging compute capacitors.
    pub compute: Femtojoule,
    /// Energy spent on word-line / control toggling.
    pub control: Femtojoule,
    /// Energy spent by the SAR ADCs (CDAC switching + comparators).
    pub adc: Femtojoule,
    /// Number of MAC operations accumulated.
    pub mac_count: u64,
}

impl EnergyBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total energy.
    pub fn total(&self) -> Femtojoule {
        self.compute + self.control + self.adc
    }

    /// Average energy per MAC, if any MACs were recorded.
    pub fn per_mac(&self) -> Option<Femtojoule> {
        if self.mac_count == 0 {
            None
        } else {
            Some(self.total() / self.mac_count as f64)
        }
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        self.compute += other.compute;
        self.control += other.control;
        self.adc += other.adc;
        self.mac_count += other.mac_count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_energy_grows_fast_with_precision() {
        let p = EnergyModelParams::s28_default();
        let e3 = p.adc_energy(3).unwrap().value();
        let e6 = p.adc_energy(6).unwrap().value();
        let e8 = p.adc_energy(8).unwrap().value();
        assert!(e6 > e3);
        assert!(e8 > 4.0 * e6, "4^B term should dominate at high precision");
        // The 4^B term grows 16x between B=4 and B=6; with the linear term
        // the total grows by more than 4x but less than 16x.
        let ratio = e6 / p.adc_energy(4).unwrap().value();
        assert!(ratio > 4.0 && ratio < 16.0, "ratio = {ratio}");
    }

    #[test]
    fn per_mac_energy_amortises_adc_over_column() {
        let p = EnergyModelParams::s28_default();
        // Same B, larger H/L → smaller per-MAC energy.
        let small = AcimSpec::from_dimensions(64, 256, 8, 3).unwrap(); // H/L = 8
        let large = AcimSpec::from_dimensions(512, 32, 2, 3).unwrap(); // H/L = 256
        assert!(p.energy_per_mac(&large).unwrap() < p.energy_per_mac(&small).unwrap());
    }

    #[test]
    fn efficiency_spans_the_papers_range() {
        let p = EnergyModelParams::s28_default();
        // 2 ops per MAC; 1 fJ per op ↔ 1000 TOPS/W.
        let tops_per_watt = |spec| 2000.0 / p.energy_per_mac(&spec).unwrap().value();
        // Low-precision, heavily amortised design → very efficient.
        let efficient = AcimSpec::from_dimensions(512, 32, 2, 2).unwrap();
        // High-precision design with the minimum column sharing → inefficient.
        let costly = AcimSpec::from_dimensions(512, 32, 2, 8).unwrap();
        let best = tops_per_watt(efficient);
        let worst = tops_per_watt(costly);
        assert!(best > 500.0, "best efficiency {best} TOPS/W");
        assert!(worst < 100.0, "worst efficiency {worst} TOPS/W");
        assert!(best < 1200.0, "efficiency implausibly high: {best}");
        assert!(worst > 10.0, "efficiency implausibly low: {worst}");
        // Figure 10 reports 50–750 TOPS/W across the design space.
        let top = tops_per_watt(AcimSpec::from_dimensions(1024, 16, 2, 2).unwrap());
        assert!(top > 600.0, "best = {top:.0} TOPS/W");
        assert!(worst < 80.0, "worst = {worst:.0} TOPS/W");
    }

    #[test]
    fn invalid_parameters_rejected() {
        for vdd in [0.0, -0.9, f64::NAN] {
            let p = EnergyModelParams {
                vdd,
                ..EnergyModelParams::s28_default()
            };
            assert!(p.adc_energy(3).is_err(), "vdd = {vdd}");
        }
        let p = EnergyModelParams::s28_default();
        assert!(p.adc_energy(0).is_err());
    }

    #[test]
    fn breakdown_accumulates_and_averages() {
        let mut b = EnergyBreakdown::new();
        assert!(b.per_mac().is_none());
        b.compute = Femtojoule::new(10.0);
        b.control = Femtojoule::new(5.0);
        b.adc = Femtojoule::new(85.0);
        b.mac_count = 10;
        assert!((b.total().value() - 100.0).abs() < 1e-12);
        assert!((b.per_mac().unwrap().value() - 10.0).abs() < 1e-12);

        let mut other = EnergyBreakdown::new();
        other.compute = Femtojoule::new(10.0);
        other.mac_count = 10;
        b.merge(&other);
        assert_eq!(b.mac_count, 20);
        assert!((b.total().value() - 110.0).abs() < 1e-12);
    }
}
