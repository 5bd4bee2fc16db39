//! The four-objective evaluation used by the design-space explorer
//! (Equation 12).
//!
//! ```text
//! min F(H, W, L, B_ADC) = [ −f_SNR, −f_T, f_E, f_A ]
//! ```
//!
//! SNR and throughput are maximised (hence the sign flip); energy per MAC and
//! area per bit are minimised.

use acim_arch::AcimSpec;

use crate::area::area_per_bit;
use crate::error::ModelError;
use crate::params::ModelParams;
use crate::snr::simplified_snr_db;

/// All estimated figures of merit for one design specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignMetrics {
    /// Estimated SNR in dB (simplified model, Equation 11).
    pub snr_db: f64,
    /// Estimated throughput in TOPS (Equation 7).
    pub throughput_tops: f64,
    /// Estimated energy per 1-bit MAC in fJ (Equation 8).
    pub energy_per_mac_fj: f64,
    /// Energy efficiency in TOPS/W.
    pub tops_per_watt: f64,
    /// Estimated area per bit in F² (Equation 10).
    pub area_f2_per_bit: f64,
}

impl DesignMetrics {
    /// Objective vector in the minimisation form of Equation 12 as a
    /// fixed-arity array: `[−SNR, −T, E, A]`.
    ///
    /// This is the allocation-free form the evaluation hot paths use —
    /// `acim_moga::Evaluation` stores up to four objectives inline, so an
    /// `Evaluation::new(metrics.objective_array(), …)` round-trip never
    /// touches the heap.
    pub fn objective_array(&self) -> [f64; 4] {
        [
            -self.snr_db,
            -self.throughput_tops,
            self.energy_per_mac_fj,
            self.area_f2_per_bit,
        ]
    }

    /// Objective vector in the minimisation form of Equation 12:
    /// `[−SNR, −T, E, A]`.  Allocating convenience over
    /// [`DesignMetrics::objective_array`].
    pub fn objective_vector(&self) -> Vec<f64> {
        self.objective_array().to_vec()
    }

    /// The (energy-efficiency, area) pair used by Figure 10, as a
    /// minimisation vector `[−TOPS/W, F²/bit]`.
    pub fn efficiency_area_vector(&self) -> Vec<f64> {
        vec![-self.tops_per_watt, self.area_f2_per_bit]
    }
}

/// Evaluates all four objectives for a specification — the one way the
/// workspace scores a macro.
///
/// Validation runs **once**, then each metric comes from the one body of
/// its equation: Equation 11 ([`crate::snr::snr_simplified_db`]'s),
/// Equation 7 ([`acim_arch::TimingModel::throughput_tops`]), Equations 8–9
/// ([`acim_arch::EnergyModelParams::energy_per_mac`], derived once for
/// both the energy and the efficiency) and Equation 10
/// ([`crate::area::area_f2_per_bit`]'s).
///
/// # Errors
///
/// Returns [`ModelError`] when the parameter set is invalid.
pub fn evaluate(spec: &AcimSpec, params: &ModelParams) -> Result<DesignMetrics, ModelError> {
    params.validate()?;
    let per_mac_fj = params.energy.energy_per_mac(spec)?.value();
    Ok(DesignMetrics {
        snr_db: simplified_snr_db(spec, &params.snr),
        throughput_tops: params.timing.throughput_tops(spec)?,
        energy_per_mac_fj: per_mac_fj,
        // 2 ops per MAC; 1 fJ per op ↔ 1000 TOPS/W.
        tops_per_watt: 2.0 / per_mac_fj * 1000.0,
        area_f2_per_bit: area_per_bit(spec, &params.area),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(h: usize, w: usize, l: usize, b: u32) -> AcimSpec {
        AcimSpec::from_dimensions(h, w, l, b).unwrap()
    }

    #[test]
    fn evaluate_produces_consistent_metrics() {
        let params = ModelParams::s28_default();
        let m = evaluate(&spec(128, 128, 8, 3), &params).unwrap();
        assert!(m.snr_db > 0.0);
        assert!(m.throughput_tops > 0.0);
        assert!(m.energy_per_mac_fj > 0.0);
        assert!(m.area_f2_per_bit > 1500.0);
        assert!((m.tops_per_watt - 2000.0 / m.energy_per_mac_fj).abs() < 1e-9);
    }

    #[test]
    fn objective_vector_signs() {
        let params = ModelParams::s28_default();
        let m = evaluate(&spec(128, 128, 8, 3), &params).unwrap();
        let v = m.objective_vector();
        assert_eq!(v.len(), 4);
        assert!(v[0] < 0.0, "-SNR must be negative for positive SNR");
        assert!(v[1] < 0.0, "-T must be negative");
        assert!(v[2] > 0.0);
        assert!(v[3] > 0.0);
        let ea = m.efficiency_area_vector();
        assert_eq!(ea.len(), 2);
        assert!(ea[0] < 0.0);
    }

    #[test]
    fn known_tradeoff_l_small_vs_large() {
        // Reducing L raises throughput and SNR but costs area — the central
        // trade-off of Section 3.1.
        let params = ModelParams::s28_default();
        let l2 = evaluate(&spec(128, 128, 2, 3), &params).unwrap();
        let l8 = evaluate(&spec(128, 128, 8, 3), &params).unwrap();
        assert!(l2.throughput_tops > l8.throughput_tops);
        assert!(l2.area_f2_per_bit > l8.area_f2_per_bit);
        assert!(l2.snr_db < l8.snr_db, "larger N lowers SNR at fixed B");
    }

    #[test]
    fn neither_point_dominates_the_other() {
        // The L=2 and L=8 variants must be mutually non-dominated in the
        // 4-objective space — this is what makes the problem multi-objective.
        let params = ModelParams::s28_default();
        let a = evaluate(&spec(128, 128, 2, 3), &params)
            .unwrap()
            .objective_vector();
        let b = evaluate(&spec(128, 128, 8, 3), &params)
            .unwrap()
            .objective_vector();
        let a_dominates = a.iter().zip(&b).all(|(x, y)| x <= y);
        let b_dominates = b.iter().zip(&a).all(|(x, y)| x <= y);
        assert!(!a_dominates && !b_dominates);
    }
}
