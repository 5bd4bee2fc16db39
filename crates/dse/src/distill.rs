//! User distillation of the Pareto-frontier set (Figure 4, "User
//! Distillation").
//!
//! After the automatic exploration, the user removes solutions that do not
//! meet the application's requirements — e.g. a transformer workload needs
//! high SNR, a low-power CNN accelerator caps the energy per MAC.  The
//! distilled set is what proceeds to netlist generation and layout.

use crate::solution::DesignPoint;

/// Application requirements used to filter the frontier.  `None` means "no
/// constraint on this metric".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UserRequirements {
    /// Minimum acceptable SNR in dB.
    pub min_snr_db: Option<f64>,
    /// Minimum acceptable throughput in TOPS.
    pub min_throughput_tops: Option<f64>,
    /// Maximum acceptable energy per MAC in fJ.
    pub max_energy_per_mac_fj: Option<f64>,
    /// Minimum acceptable energy efficiency in TOPS/W.
    pub min_tops_per_watt: Option<f64>,
    /// Maximum acceptable area per bit in F².
    pub max_area_f2_per_bit: Option<f64>,
}

impl UserRequirements {
    /// No requirements: the distillation keeps everything.
    pub fn none() -> Self {
        Self::default()
    }

    /// Returns `true` when a design point satisfies every requirement.
    pub fn accepts(&self, point: &DesignPoint) -> bool {
        let m = &point.metrics;
        if let Some(min) = self.min_snr_db {
            if m.snr_db < min {
                return false;
            }
        }
        if let Some(min) = self.min_throughput_tops {
            if m.throughput_tops < min {
                return false;
            }
        }
        if let Some(max) = self.max_energy_per_mac_fj {
            if m.energy_per_mac_fj > max {
                return false;
            }
        }
        if let Some(min) = self.min_tops_per_watt {
            if m.tops_per_watt < min {
                return false;
            }
        }
        if let Some(max) = self.max_area_f2_per_bit {
            if m.area_f2_per_bit > max {
                return false;
            }
        }
        true
    }

    /// Filters a frontier, keeping only the accepted points.
    pub fn distill(&self, points: &[DesignPoint]) -> Vec<DesignPoint> {
        points.iter().copied().filter(|p| self.accepts(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acim_arch::AcimSpec;
    use acim_model::{evaluate, ModelParams};

    fn point(h: usize, w: usize, l: usize, b: u32) -> DesignPoint {
        let spec = AcimSpec::from_dimensions(h, w, l, b).unwrap();
        DesignPoint::new(spec, evaluate(&spec, &ModelParams::s28_default()).unwrap())
    }

    fn sample_frontier() -> Vec<DesignPoint> {
        vec![
            point(128, 128, 2, 3), // high throughput
            point(128, 128, 8, 3), // balanced
            point(512, 32, 2, 8),  // high SNR, power hungry
            point(1024, 16, 2, 2), // ultra efficient, low SNR
        ]
    }

    #[test]
    fn no_requirements_keeps_everything() {
        let frontier = sample_frontier();
        assert_eq!(
            UserRequirements::none().distill(&frontier).len(),
            frontier.len()
        );
    }

    #[test]
    fn high_accuracy_prefers_high_snr_points() {
        let frontier = sample_frontier();
        // A high-accuracy profile (e.g. transformer / LLM inference).
        let requirements = UserRequirements {
            min_snr_db: Some(25.0),
            min_throughput_tops: Some(0.3),
            ..UserRequirements::default()
        };
        let kept = requirements.distill(&frontier);
        assert!(!kept.is_empty());
        for p in &kept {
            assert!(p.metrics.snr_db >= 25.0);
            assert!(p.metrics.throughput_tops >= 0.3);
        }
        // The ultra-efficient low-SNR point must be rejected.
        assert!(kept.iter().all(|p| p.spec.adc_bits() > 2));
    }

    #[test]
    fn low_power_prefers_efficient_points() {
        let frontier = sample_frontier();
        // An energy-first edge profile (e.g. always-on keyword spotting).
        let requirements = UserRequirements {
            min_tops_per_watt: Some(300.0),
            max_area_f2_per_bit: Some(3500.0),
            ..UserRequirements::default()
        };
        let kept = requirements.distill(&frontier);
        for p in &kept {
            assert!(p.metrics.tops_per_watt >= 300.0);
            assert!(p.metrics.area_f2_per_bit <= 3500.0);
        }
        // The B=8 design cannot meet 300 TOPS/W.
        assert!(kept.iter().all(|p| p.spec.adc_bits() < 8));
    }

    #[test]
    fn high_throughput_keeps_only_fast_designs() {
        let frontier = sample_frontier();
        // A throughput-first profile (e.g. high-frame-rate vision).
        let requirements = UserRequirements {
            min_throughput_tops: Some(1.5),
            ..UserRequirements::default()
        };
        let kept = requirements.distill(&frontier);
        assert!(!kept.is_empty());
        for p in &kept {
            assert!(p.metrics.throughput_tops >= 1.5);
        }
    }

    #[test]
    fn impossible_requirements_yield_empty_set() {
        let frontier = sample_frontier();
        let requirements = UserRequirements {
            min_snr_db: Some(90.0),
            ..UserRequirements::default()
        };
        assert!(requirements.distill(&frontier).is_empty());
    }

    #[test]
    fn individual_bounds_are_respected() {
        let p = point(128, 128, 8, 3);
        let accepts_energy = UserRequirements {
            max_energy_per_mac_fj: Some(p.metrics.energy_per_mac_fj + 1.0),
            ..UserRequirements::default()
        };
        let rejects_energy = UserRequirements {
            max_energy_per_mac_fj: Some(p.metrics.energy_per_mac_fj - 1.0),
            ..UserRequirements::default()
        };
        assert!(accepts_energy.accepts(&p));
        assert!(!rejects_energy.accepts(&p));
    }
}
