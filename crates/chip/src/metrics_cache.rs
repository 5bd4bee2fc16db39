//! The macro-metric reuse layer.
//!
//! A chip exploration evaluates thousands of chip genomes, and every one
//! of them decomposes into per-macro work: closed-form
//! [`DesignMetrics`] plus the macro's cycle time.  Across a whole
//! heterogeneous-grid DSE run only a few hundred **distinct** macro
//! shapes ever occur — the same (H, L, B_ADC) designs recur across
//! thousands of genomes, and across the macro-space explorations the same
//! service is running over the same model parameters.  Before this layer
//! existed, `ChipEvaluator` re-derived those metrics from scratch for
//! every macro of every chip of every generation.
//!
//! [`MacroMetricsCache`] is the shared store closing that loop: the same
//! [`SharedCache`] type as the genome-level `CacheStore`, keyed by
//! quantized [`SpecKey`]s and holding [`MacroMetrics`], optionally bounded
//! with CLOCK-style eviction and tolerant of poisoned locks.  One cache
//! must be paired with **one** `acim_model::ModelParams` — the metrics are
//! a pure function of `(spec, params)`, and the cache trusts its keys
//! exactly as the genome-level store trusts its design space.  Under that
//! pairing a hit returns bit-identical values to a recomputation, so
//! explorations with and without the cache produce identical frontiers.

use acim_arch::AcimSpec;
use acim_model::{evaluate, DesignMetrics, ModelError, ModelParams, SpecKey};
use acim_moga::SharedCache;

/// Everything the chip evaluator needs per macro, cached as one value:
/// the closed-form design metrics and the macro cycle time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroMetrics {
    /// The estimation-model metrics (SNR, throughput, energy, area).
    pub design: DesignMetrics,
    /// The macro's conversion-cycle time in ns (Equation 7's denominator).
    pub cycle_ns: f64,
}

impl MacroMetrics {
    /// Derives one macro's metrics through [`acim_model::evaluate`] — the
    /// one derivation behind every cache entry, whichever consumer
    /// inserts it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when `params` fails validation.
    pub fn derive(spec: &AcimSpec, params: &ModelParams) -> Result<Self, ModelError> {
        Ok(Self {
            design: evaluate(spec, params)?,
            cycle_ns: params.timing.cycle_time(spec.adc_bits()).value() / 1000.0,
        })
    }
}

/// The shared macro-metric store: a [`SharedCache`] from quantized
/// [`SpecKey`]s to [`MacroMetrics`].
///
/// Clones share the underlying entries (`Arc` semantics): the `easyacim`
/// service keeps one cache per model-parameter signature and hands clones
/// to every request's evaluator, so concurrent chip requests — and mixed
/// macro + chip sessions over the same parameters — reuse each other's
/// per-macro work.  Both consumers (`ChipEvaluator` and the macro-space
/// `AcimDesignProblem`) look up through an [`acim_moga::CacheClient`],
/// the same first-wins get-or-compute and per-request hit/miss
/// attribution as `CachedProblem`'s, so the two cache layers cannot drift
/// apart.
pub type MacroMetricsCache = SharedCache<SpecKey, MacroMetrics>;

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_of(h: usize, w: usize, l: usize, b: u32) -> (SpecKey, MacroMetrics) {
        let spec = AcimSpec::from_dimensions(h, w, l, b).unwrap();
        let params = ModelParams::s28_default();
        (
            SpecKey::of(&spec),
            MacroMetrics::derive(&spec, &params).unwrap(),
        )
    }

    #[test]
    fn handles_share_entries_and_round_trip_metrics() {
        let cache = MacroMetricsCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), None);
        let (key, metrics) = metrics_of(128, 32, 4, 3);
        let alias = cache.clone();
        assert_eq!(alias.import_entries([(key, metrics)]), (1, 0));
        assert_eq!(cache.get(&key), Some(metrics));
        assert_eq!(cache.len(), 1);
        assert!(format!("{cache:?}").contains("entries"));
    }

    #[test]
    fn bounded_cache_evicts_and_stays_within_capacity() {
        let cache = MacroMetricsCache::bounded(2);
        let specs = [(128, 32, 4, 3), (64, 64, 4, 3), (256, 16, 4, 3)];
        for &(h, w, l, b) in &specs {
            assert_eq!(cache.import_entries([metrics_of(h, w, l, b)]), (1, 0));
            assert!(cache.len() <= 2);
        }
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.capacity(), Some(2));
    }

    #[test]
    fn poisoned_cache_recovers() {
        let cache = MacroMetricsCache::new();
        let (key, metrics) = metrics_of(128, 32, 4, 3);
        cache.import_entries([(key, metrics)]);
        let poisoner = cache.clone();
        // The import panics mid-merge, while it holds the cache lock.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            poisoner.import_entries(std::iter::from_fn(|| -> Option<(SpecKey, MacroMetrics)> {
                panic!("tenant panicked while holding the cache lock")
            }));
        }));
        assert!(result.is_err());
        assert_eq!(cache.get(&key), Some(metrics));
        cache.import_entries([metrics_of(64, 64, 4, 3)]);
        assert_eq!(cache.len(), 2);
    }
}
