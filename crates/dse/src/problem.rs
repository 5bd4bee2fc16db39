//! The ACIM design problem as an [`acim_moga::Problem`].

use acim_arch::AcimSpec;
use acim_chip::{MacroMetrics, MacroMetricsCache};
use acim_model::{DesignMetrics, ModelError, ModelParams, SpecKey};
use acim_moga::{CacheClient, CacheStats, Evaluation, Problem};

use crate::encoding::{Candidate, DesignEncoding};
use crate::error::DseError;
use crate::explorer::{DseConfig, Explorable};
use crate::solution::DesignPoint;

/// The four-objective, constrained ACIM parameter-selection problem of
/// Equation 12, evaluated with the analytic estimation model.
///
/// Every spec is scored by [`MacroMetrics::derive`], that is by
/// [`acim_model::evaluate`].  With [`Explorable::with_macro_cache`]
/// the derivation is routed through the shared macro-metric reuse layer
/// (`acim_chip::MacroMetricsCache`), so macro explorations, chip
/// explorations and decode passes over the same [`ModelParams`] share one
/// store of per-macro `DesignMetrics` — with the same bit-identical
/// results, since the metrics are pure functions of `(spec, params)`.
///
/// The optimisers score each genome through [`Problem::evaluate`] on the
/// calling thread: one evaluation is a decode plus a ~100 ns closed-form
/// evaluation, far below what a helper thread costs to spawn.
#[derive(Debug, Clone)]
pub struct AcimDesignProblem {
    encoding: DesignEncoding,
    params: ModelParams,
    // Clones share the client's counters, so per-request attribution
    // survives cloning the problem.
    macro_client: CacheClient<SpecKey, MacroMetrics>,
}

impl AcimDesignProblem {
    /// Creates the problem for one array size.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::InvalidConfig`] when the encoding cannot be built,
    /// and [`DseError::Model`] when the model parameters fail
    /// [`ModelParams::validate`].
    pub fn new(
        array_size: usize,
        min_height: usize,
        max_height: usize,
        params: ModelParams,
    ) -> Result<Self, DseError> {
        params.validate()?;
        let encoding = DesignEncoding::new(array_size, min_height, max_height)?;
        Ok(Self {
            encoding,
            params,
            macro_client: CacheClient::detached(),
        })
    }

    /// Derives one spec's metrics, consulting the shared macro-metric
    /// cache when one is installed (a detached client just derives).
    fn spec_metrics(&self, spec: &AcimSpec) -> Result<DesignMetrics, ModelError> {
        self.macro_client
            .get_or_compute(SpecKey::of(spec), || {
                MacroMetrics::derive(spec, &self.params)
            })
            .map(|metrics| metrics.design)
    }

    /// The genome encoding in use.
    pub fn encoding(&self) -> &DesignEncoding {
        &self.encoding
    }

    /// The model parameters in use.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }
}

impl Problem for AcimDesignProblem {
    fn num_variables(&self) -> usize {
        self.encoding.num_genes()
    }

    fn num_objectives(&self) -> usize {
        4
    }

    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        let candidate = self.encoding.decode(genes);
        match candidate.into_spec(self.encoding.array_size()) {
            Ok(spec) => match self.spec_metrics(&spec) {
                Ok(metrics) => Evaluation::unconstrained(metrics.objective_array()),
                // Model failures are treated as heavily infeasible rather
                // than aborting the whole optimisation run.
                Err(_) => Evaluation::new([f64::MAX; 4], 10.0),
            },
            Err(violation) => Evaluation::new([f64::MAX; 4], violation),
        }
    }

    fn name(&self) -> &str {
        "easyacim design-space exploration"
    }
}

/// Every genome landing in the same (H, L, B_ADC) design shares one
/// cache key, its decode-bucket indices.
impl Explorable for AcimDesignProblem {
    type Config = DseConfig;
    type Point = DesignPoint;

    fn decode_point(&self, genes: &[f64]) -> Option<DesignPoint> {
        let candidate = self.encoding.decode(genes);
        let spec = candidate.into_spec(self.encoding.array_size()).ok()?;
        let metrics = self.spec_metrics(&spec).ok()?;
        Some(DesignPoint::new(spec, metrics))
    }

    fn encode_point(&self, point: &DesignPoint) -> Option<Vec<f64>> {
        self.encoding.encode(&Candidate::of(&point.spec))
    }

    fn cache_key(&self, genes: &[f64]) -> Vec<i64> {
        self.encoding.bucket_indices(genes)
    }

    fn with_macro_cache(mut self, cache: MacroMetricsCache) -> Self {
        self.macro_client = CacheClient::attached(cache);
        self
    }

    fn macro_cache_stats(&self) -> CacheStats {
        self.macro_client.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> AcimDesignProblem {
        AcimDesignProblem::new(16 * 1024, 16, 1024, ModelParams::s28_default()).unwrap()
    }

    #[test]
    fn problem_shape() {
        let p = problem();
        assert_eq!(p.num_variables(), 3);
        assert_eq!(p.num_objectives(), 4);
        assert!(p.name().contains("easyacim"));
    }

    #[test]
    fn feasible_genome_evaluates_to_finite_objectives() {
        let p = problem();
        let genes = p
            .encoding()
            .encode(&crate::encoding::Candidate {
                height: 128,
                width: 128,
                local_array: 8,
                adc_bits: 3,
            })
            .unwrap();
        let eval = p.evaluate(&genes);
        assert!(eval.is_feasible());
        assert!(eval.objectives.iter().all(|o| o.is_finite()));
        let point = p.decode_point(&genes).expect("feasible point decodes");
        assert_eq!(point.spec.local_array(), 8);
    }

    #[test]
    fn infeasible_genome_reports_violation() {
        let p = problem();
        // L = 32 with B = 8 violates the CDAC constraint for every height of
        // a 16 kb array except very tall ones; pick H = 32 explicitly.
        let genes = p
            .encoding()
            .encode(&crate::encoding::Candidate {
                height: 32,
                width: 512,
                local_array: 32,
                adc_bits: 8,
            })
            .unwrap();
        let eval = p.evaluate(&genes);
        assert!(!eval.is_feasible());
        assert!(p.decode_point(&genes).is_none());
    }

    #[test]
    fn invalid_model_params_rejected_up_front() {
        let mut params = ModelParams::s28_default();
        params.snr.k3 = -1.0;
        assert!(AcimDesignProblem::new(16 * 1024, 16, 1024, params).is_err());
    }
}
