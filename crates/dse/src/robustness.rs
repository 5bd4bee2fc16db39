//! Monte-Carlo device-variation robustness: an optional SNR-yield
//! constraint for the chip design problem.
//!
//! Analog CIM accuracy rides on device parameters that vary die to die —
//! above all the capacitor matching behind the SNR model's `k3`/`C_o`
//! terms.  A chip that clears its accuracy target only at the nominal
//! corner is not a robust design point.  This module draws `N` seeded
//! perturbations of the [`ModelParams`] SNR corner, scores every
//! candidate chip's distinct macros with the simplified SNR model
//! ([`snr_simplified_db`], Equation 11) under each corner, and turns the
//! fraction of corners where the chip's worst macro still clears an SNR
//! floor — its **yield** — into an NSGA-II constraint violation.
//!
//! The sweep is deliberately cheap: the `N` perturbed corners are drawn
//! and validated once per problem (not per genome), each chip contributes
//! only its *distinct* macro shapes, and the whole sweep is pure
//! arithmetic — deterministic per seed, thread-safe by `&self`.

use acim_chip::ChipSpec;
use acim_model::{snr_simplified_db, ModelParams};
use acim_tech::Femtofarad;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::DseError;

/// Configuration of the Monte-Carlo device-variation sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessConfig {
    /// Number of perturbed parameter corners to draw.
    pub samples: usize,
    /// Relative half-width of the uniform perturbation applied to the SNR
    /// device parameters (`k3`, `C_o`): each corner scales them by
    /// `1 + sigma · u` with `u ~ U(−1, 1)`.
    pub sigma: f64,
    /// SNR floor a chip's worst macro must clear for a corner to count as
    /// a passing die.
    pub min_snr_db: f64,
    /// Required yield: the fraction of corners that must pass.  A chip
    /// with `yield < min_yield` becomes infeasible with violation
    /// `min_yield − yield`.
    pub min_yield: f64,
    /// RNG seed for the corner draws (the sweep is deterministic per
    /// seed).
    pub seed: u64,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        Self {
            samples: 32,
            sigma: 0.05,
            min_snr_db: 15.0,
            min_yield: 0.9,
            seed: 0xD1CE,
        }
    }
}

/// The drawn sweep: `samples` perturbed, validated [`ModelParams`], built
/// once per problem and shared (immutably) by every genome evaluation.
#[derive(Debug, Clone)]
pub struct RobustnessSweep {
    config: RobustnessConfig,
    corners: Vec<ModelParams>,
}

impl RobustnessSweep {
    /// Draws the perturbed corners from `params`.
    ///
    /// Only the SNR device terms (`k3`, `C_o`) are perturbed: they carry
    /// the capacitor-mismatch variation the yield question is about, and
    /// they are the only device parameters the analytic SNR (Equation 11)
    /// reads.  Timing/energy/area stay at the nominal corner so the yield
    /// constraint prunes accuracy-fragile chips without re-ranking the
    /// other objectives.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::InvalidConfig`] when the configuration is
    /// out of range or a perturbed corner fails model validation.
    pub fn new(config: RobustnessConfig, params: &ModelParams) -> Result<Self, DseError> {
        if config.samples == 0 {
            return Err(DseError::InvalidConfig(
                "robustness samples must be at least 1".into(),
            ));
        }
        if !config.sigma.is_finite() || config.sigma < 0.0 || config.sigma >= 1.0 {
            return Err(DseError::InvalidConfig(
                "robustness sigma must be finite and in [0, 1)".into(),
            ));
        }
        if !config.min_yield.is_finite() || !(0.0..=1.0).contains(&config.min_yield) {
            return Err(DseError::InvalidConfig(
                "robustness min_yield must be in [0, 1]".into(),
            ));
        }
        if !config.min_snr_db.is_finite() {
            return Err(DseError::InvalidConfig(
                "robustness min_snr_db must be finite".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut corners = Vec::with_capacity(config.samples);
        for _ in 0..config.samples {
            let mut corner = *params;
            let k3_u: f64 = rng.gen_range(-1.0..1.0);
            let co_u: f64 = rng.gen_range(-1.0..1.0);
            corner.snr.k3 = params.snr.k3 * (1.0 + config.sigma * k3_u);
            corner.snr.c_o = Femtofarad::new(params.snr.c_o.value() * (1.0 + config.sigma * co_u));
            corner
                .validate()
                .map_err(|e| DseError::InvalidConfig(format!("robustness corner: {e}")))?;
            corners.push(corner);
        }
        Ok(Self { config, corners })
    }

    /// The sweep configuration.
    pub fn config(&self) -> &RobustnessConfig {
        &self.config
    }

    /// The fraction of corners where `chip`'s worst distinct macro clears
    /// the SNR floor, in `[0, 1]`.
    pub fn yield_for(&self, chip: &ChipSpec) -> f64 {
        let distinct = chip.grid.distinct_specs();
        let mut passes = 0usize;
        for corner in &self.corners {
            // Every corner was validated at construction, so the model
            // cannot fail here; a failure would count as a failing die.
            let worst = distinct
                .iter()
                .map(|spec| snr_simplified_db(spec, corner).unwrap_or(f64::NEG_INFINITY))
                .fold(f64::INFINITY, f64::min);
            if worst >= self.config.min_snr_db {
                passes += 1;
            }
        }
        passes as f64 / self.corners.len() as f64
    }

    /// The constraint violation of `chip`: `max(0, min_yield − yield)`.
    /// Zero for chips that meet the yield target.
    pub fn violation(&self, chip: &ChipSpec) -> f64 {
        (self.config.min_yield - self.yield_for(chip)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acim_arch::AcimSpec;
    use acim_chip::MacroGrid;

    fn chip(adc_bits: u32) -> ChipSpec {
        ChipSpec::new(
            MacroGrid::uniform(
                2,
                2,
                AcimSpec::from_dimensions(128, 32, 4, adc_bits).unwrap(),
            )
            .unwrap(),
            64,
        )
        .unwrap()
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let params = ModelParams::s28_default();
        let a = RobustnessSweep::new(RobustnessConfig::default(), &params).unwrap();
        let b = RobustnessSweep::new(RobustnessConfig::default(), &params).unwrap();
        let c = RobustnessSweep::new(
            RobustnessConfig {
                seed: 7,
                ..Default::default()
            },
            &params,
        )
        .unwrap();
        let chip = chip(4);
        assert_eq!(a.yield_for(&chip).to_bits(), b.yield_for(&chip).to_bits());
        // A different seed draws different corners; the yield may or may
        // not move, but the sweep itself must differ.
        assert_eq!(a.corners.len(), c.corners.len());
    }

    #[test]
    fn generous_floor_passes_and_brutal_floor_fails() {
        let params = ModelParams::s28_default();
        let easy = RobustnessSweep::new(
            RobustnessConfig {
                min_snr_db: -100.0,
                ..Default::default()
            },
            &params,
        )
        .unwrap();
        assert_eq!(easy.yield_for(&chip(4)), 1.0);
        assert_eq!(easy.violation(&chip(4)), 0.0);

        let brutal = RobustnessSweep::new(
            RobustnessConfig {
                min_snr_db: 1000.0,
                ..Default::default()
            },
            &params,
        )
        .unwrap();
        assert_eq!(brutal.yield_for(&chip(4)), 0.0);
        assert!(brutal.violation(&chip(4)) > 0.0);
    }

    #[test]
    fn higher_precision_macros_yield_better_near_the_edge() {
        let params = ModelParams::s28_default();
        // Pick a floor between the 2-bit and 5-bit nominal SNRs so the
        // sweep separates them.
        let low = snr_simplified_db(chip(2).grid.spec(0), &params).unwrap();
        let high = snr_simplified_db(chip(5).grid.spec(0), &params).unwrap();
        assert!(high > low);
        let sweep = RobustnessSweep::new(
            RobustnessConfig {
                min_snr_db: (low + high) / 2.0,
                samples: 64,
                sigma: 0.2,
                ..Default::default()
            },
            &params,
        )
        .unwrap();
        assert!(sweep.yield_for(&chip(5)) > sweep.yield_for(&chip(2)));
    }

    #[test]
    fn invalid_configs_rejected() {
        let params = ModelParams::s28_default();
        for config in [
            RobustnessConfig {
                samples: 0,
                ..Default::default()
            },
            RobustnessConfig {
                sigma: -0.1,
                ..Default::default()
            },
            RobustnessConfig {
                sigma: 1.0,
                ..Default::default()
            },
            RobustnessConfig {
                min_yield: 1.5,
                ..Default::default()
            },
            RobustnessConfig {
                min_snr_db: f64::NAN,
                ..Default::default()
            },
        ] {
            assert!(RobustnessSweep::new(config, &params).is_err(), "{config:?}");
        }
    }
}
