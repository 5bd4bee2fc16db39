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
use acim_moga::{CacheCounters, CacheStats, SharedCache, TryInsert};

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
/// per-macro work.  Hit/miss attribution lives with the evaluator that
/// consults the cache (see `ChipEvaluator::macro_cache_stats`), not here,
/// mirroring the per-wrapper counters of `CachedProblem`.
pub type MacroMetricsCache = SharedCache<SpecKey, MacroMetrics>;

/// One consumer's attributed view of a [`MacroMetricsCache`]: the cache
/// handle (optional — a detached client just derives) plus this
/// consumer's hit/miss/eviction counters.
///
/// The counters are a telemetry-backed [`CacheCounters`] triple, shared
/// across clones, so an evaluator cloned into pool workers still
/// attributes the whole batch to the request that spawned it — while two
/// different requests (two clients) on one shared cache each report
/// their own reuse.  Both macro-metric consumers in the
/// workspace (`ChipEvaluator` and the macro-space `AcimDesignProblem`)
/// embed this client, so the lookup/attribution semantics cannot drift
/// apart.
#[derive(Debug, Clone, Default)]
pub struct MacroCacheClient {
    cache: Option<MacroMetricsCache>,
    counters: CacheCounters,
}

impl MacroCacheClient {
    /// A client with no cache: every derivation is computed, nothing is
    /// counted.
    pub fn detached() -> Self {
        Self::default()
    }

    /// A client over a shared cache, with fresh counters.
    pub fn attached(cache: MacroMetricsCache) -> Self {
        Self {
            cache: Some(cache),
            ..Self::default()
        }
    }

    /// The attached cache, when reuse is enabled.
    pub fn cache(&self) -> Option<&MacroMetricsCache> {
        self.cache.as_ref()
    }

    /// Snapshot of this client's (and its clones') attribution.
    pub fn stats(&self) -> CacheStats {
        self.counters.stats()
    }

    /// Returns the cached metrics for `key`, deriving and inserting on a
    /// miss.  Detached clients just run `derive`.
    ///
    /// `derive` runs **outside** the cache lock, so a cold burst of
    /// parallel workers is never serialized by the mutex — each lock
    /// round-trip is just a hash operation.  Two workers racing on one
    /// key may both derive (harmless: the metrics are pure functions of
    /// the key, and [`SharedCache::try_insert`] keeps exactly one
    /// copy), but attribution stays deterministic: the insert is
    /// first-wins, so the loser counts its lookup as a hit — per request,
    /// `misses` always equals the entries the request actually inserted
    /// and `hits + misses` equals its lookups, on any core count.
    ///
    /// # Errors
    ///
    /// Propagates `derive`'s error; nothing is inserted or counted then.
    pub fn get_or_derive<E>(
        &self,
        key: SpecKey,
        derive: impl FnOnce() -> Result<MacroMetrics, E>,
    ) -> Result<MacroMetrics, E> {
        let Some(cache) = &self.cache else {
            return derive();
        };
        if let Some(metrics) = cache.get(&key) {
            self.counters.hits.inc();
            return Ok(metrics);
        }
        let metrics = derive()?;
        match cache.try_insert(key, metrics) {
            TryInsert::Inserted { evicted } => {
                self.counters.misses.inc();
                if evicted {
                    self.counters.evictions.inc();
                }
            }
            // Raced with another worker that derived the same macro
            // first: by the time we finished, the cache knew the answer.
            TryInsert::AlreadyPresent => {
                self.counters.hits.inc();
            }
        }
        Ok(metrics)
    }
}

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
        assert!(!alias.insert(key, metrics));
        assert_eq!(cache.get(&key), Some(metrics));
        assert_eq!(cache.len(), 1);
        assert!(cache.shares_entries_with(&alias));
        assert!(!cache.shares_entries_with(&MacroMetricsCache::new()));
        assert!(format!("{cache:?}").contains("entries"));
        cache.clear();
        assert!(alias.is_empty());
    }

    #[test]
    fn bounded_cache_evicts_and_stays_within_capacity() {
        let cache = MacroMetricsCache::bounded(2);
        let specs = [(128, 32, 4, 3), (64, 64, 4, 3), (256, 16, 4, 3)];
        let mut evicted = 0;
        for &(h, w, l, b) in &specs {
            let (key, metrics) = metrics_of(h, w, l, b);
            if cache.insert(key, metrics) {
                evicted += 1;
            }
            assert!(cache.len() <= 2);
        }
        assert_eq!(evicted, 1);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.capacity(), Some(2));
    }

    #[test]
    fn poisoned_cache_recovers() {
        let cache = MacroMetricsCache::new();
        let (key, metrics) = metrics_of(128, 32, 4, 3);
        cache.insert(key, metrics);
        let poisoner = cache.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = poisoner.lock();
            panic!("tenant panicked while holding the cache lock");
        }));
        assert!(result.is_err());
        assert_eq!(cache.get(&key), Some(metrics));
        cache.insert(metrics_of(64, 64, 4, 3).0, metrics_of(64, 64, 4, 3).1);
        assert_eq!(cache.len(), 2);
    }
}
