//! Configuration and result of the chip-composition exploration: from a
//! macro space to a full multi-macro accelerator.
//!
//! The macro flow of [`crate::flow`] ends with netlists and layouts for
//! single macros.  [`crate::stage::ChipStage`] is a separate exploration
//! that reads nothing but its own [`ChipFlowConfig`]: it runs the
//! chip-level co-exploration of `acim-dse` (macro shape × macro count ×
//! global-buffer sizing against a workload mix) and, optionally,
//! validates the best chip behaviourally by simulating every tenant's
//! layers on the macro grid.  On the service it is a chip request, which
//! runs beside macro requests and shares their macro-metric cache.

use std::time::Duration;

use acim_chip::{ChipSimReport, MixSimReport, WorkloadMix};
use acim_dse::{ChipDesignPoint, ChipDseConfig};
use acim_moga::EvalStats;

/// Configuration of the chip-composition stage.
#[derive(Debug, Clone)]
pub struct ChipFlowConfig {
    /// The chip-level exploration settings (workload mix, grid/buffer
    /// candidates, NSGA-II parameters).
    pub dse: ChipDseConfig,
    /// Behaviourally validate the highest-throughput frontier chip by
    /// simulating the mix on its macro grid.
    pub validate_best: bool,
    /// Seed of the behavioural validation run.
    pub validation_seed: u64,
}

impl ChipFlowConfig {
    /// Default chip stage for a workload mix — or one network, which
    /// converts into the mix of one: co-explore, then validate the best
    /// chip behaviourally with the stream simulator.
    pub fn for_mix(mix: impl Into<WorkloadMix>) -> Self {
        Self {
            dse: ChipDseConfig::for_mix(mix),
            validate_best: true,
            validation_seed: 0xC812,
        }
    }
}

/// The result of the chip-composition stage.
#[derive(Debug, Clone)]
pub struct ChipFlowResult {
    /// The chip-level Pareto front.
    pub front: Vec<ChipDesignPoint>,
    /// Evaluation-engine statistics of the chip exploration (evaluations,
    /// cache hit/miss counters, wall-clock breakdown).
    pub engine: EvalStats,
    /// Wall-clock time of the chip exploration.
    pub exploration_time: Duration,
    /// The behavioural validation of the best-throughput chip for
    /// single-tenant explorations, when requested: the lone tenant's
    /// report from the stream simulator.
    pub validation: Option<ChipSimReport>,
    /// The behavioural validation of the best-throughput chip for
    /// multi-tenant explorations: the stream simulator's per-tenant
    /// report.  Exactly one of `validation` / `mix_validation` is set when
    /// validation is requested.
    pub mix_validation: Option<MixSimReport>,
}

impl ChipFlowResult {
    /// The frontier point with the highest throughput.
    pub fn best_throughput(&self) -> Option<&ChipDesignPoint> {
        self.front.iter().max_by(|a, b| {
            a.metrics
                .throughput_tops
                .partial_cmp(&b.metrics.throughput_tops)
                .expect("throughput must not be NaN")
        })
    }

    /// The frontier point with the lowest energy per inference.
    pub fn best_energy(&self) -> Option<&ChipDesignPoint> {
        self.front.iter().min_by(|a, b| {
            a.metrics
                .energy_per_inference_pj
                .partial_cmp(&b.metrics.energy_per_inference_pj)
                .expect("energy must not be NaN")
        })
    }

    /// The frontier point with the smallest chip area.
    pub fn best_area(&self) -> Option<&ChipDesignPoint> {
        self.front.iter().min_by(|a, b| {
            a.metrics
                .area_mf2
                .partial_cmp(&b.metrics.area_mf2)
                .expect("area must not be NaN")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{ChipStage, Stage};

    fn quick_config() -> ChipFlowConfig {
        let mut config = ChipFlowConfig::for_mix(acim_chip::Network::edge_cnn(1));
        config.dse.population_size = 16;
        config.dse.generations = 6;
        config.dse.grid_rows = vec![1, 2];
        config.dse.grid_cols = vec![1, 2];
        config.dse.buffer_kib = vec![8, 32];
        config
    }

    #[test]
    fn chip_stage_produces_front_and_validation() {
        let result = ChipStage::new(quick_config()).run(()).unwrap();
        assert!(!result.front.is_empty());
        assert!(result.engine.evaluations > 0);
        assert_eq!(result.engine.cache.total(), result.engine.evaluations);
        assert_eq!(result.engine.generation_seconds.len(), 6);
        assert!(result.engine.evaluations_per_second() >= 0.0);
        assert!(result.engine.mean_generation_seconds() >= 0.0);
        let validation = result.validation.as_ref().expect("validation requested");
        assert_eq!(validation.layers.len(), 3);
        assert!(validation.max_relative_error() < 0.5);
        let best = result.best_throughput().unwrap();
        assert!(best.metrics.throughput_tops > 0.0);
    }

    #[test]
    fn best_accessors_pick_the_extremes() {
        let mut config = quick_config();
        config.validate_best = false;
        let result = ChipStage::new(config).run(()).unwrap();
        let best_energy = result
            .best_energy()
            .unwrap()
            .metrics
            .energy_per_inference_pj;
        let best_area = result.best_area().unwrap().metrics.area_mf2;
        for p in &result.front {
            assert!(p.metrics.energy_per_inference_pj >= best_energy);
            assert!(p.metrics.area_mf2 >= best_area);
        }
    }

    #[test]
    fn validation_can_be_disabled() {
        let mut config = quick_config();
        config.validate_best = false;
        let result = ChipStage::new(config).run(()).unwrap();
        assert!(result.validation.is_none());
    }

    #[test]
    fn heterogeneous_stage_explores_mixed_grids() {
        let mut config = quick_config();
        config.dse.heterogeneous = true;
        config.dse.population_size = 24;
        config.dse.generations = 8;
        config.validate_best = false;
        let result = ChipStage::new(config).run(()).unwrap();
        assert!(!result.front.is_empty());
        // Every frontier row serialises with the extended CSV schema.
        for point in &result.front {
            assert_eq!(
                point.to_csv_row().split(',').count(),
                acim_dse::ChipDesignPoint::csv_header().split(',').count()
            );
        }
    }
}
