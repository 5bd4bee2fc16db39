//! Memoizing problem wrapper.
//!
//! Discrete design spaces (like EasyACIM's bucketed (H, W, L, B_ADC)
//! genome) make NSGA-II re-sample the same designs over and over: crossover
//! between similar parents and no-op mutations routinely reproduce genomes
//! the optimiser has already paid to evaluate.  [`CachedProblem`] wraps any
//! [`Problem`] with a [`CacheStore`] keyed by a caller-supplied genome →
//! key function (the EasyACIM problems key by decode buckets) so duplicate
//! designs are never re-evaluated, and counts hits/misses so run reports
//! can show how much evaluation work the cache absorbed.
//!
//! Caching is transparent to seeded runs: a hit returns a clone of exactly
//! the evaluation the serial path would have recomputed, so Pareto fronts
//! are bit-identical with and without the wrapper (provided the key
//! function is decode-aligned, see [`CachedProblem::new`]).
//!
//! # Sharing one cache across runs
//!
//! The entries live in a [`CacheStore`] — a cheaply cloneable, thread-safe
//! handle to one shared map.  A single run hands [`CachedProblem::new`] a
//! fresh store; a long-lived caller (like the `easyacim`
//! `ExplorationService`) keeps one store per design space and hands a clone
//! of it to every request's wrapper: entries written by one request are
//! hits for the next, while the hit/miss counters stay **per wrapper**, so
//! each request still reports its own [`CacheStats`].
//!
//! # One lookup, first-wins attribution
//!
//! Every cache layer of the workspace (this wrapper, and the chip
//! evaluator's macro-metric cache downstream) looks up through one
//! [`CacheClient::get_or_compute`].  A hit counts a hit.  A miss computes
//! outside the cache lock, then inserts only if the key is still absent,
//! counting a miss (plus an eviction when the insert pushed an entry out of
//! a bounded store).  When another request inserted the key first, the
//! lookup counts as a hit and the stored entry is kept.  So per request,
//! `misses` equals the entries the request inserted and `hits + misses`
//! equals its lookups.

use std::convert::Infallible;
use std::hash::Hash;

use acim_telemetry::Counter;

use crate::problem::{Evaluation, Problem};
use crate::shared_cache::{SharedCache, TryInsert};

/// Hit/miss/eviction counters of a [`CacheClient`]: a [`CachedProblem`]'s
/// or the chip evaluator's macro-metric cache's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Evaluations answered from the cache.
    pub hits: usize,
    /// Evaluations that had to be computed by the inner problem.
    pub misses: usize,
    /// Entries this wrapper's inserts pushed out of a bounded store
    /// (always `0` on unbounded stores).  Attribution is per wrapper, like
    /// hits and misses: on a shared store each request counts only the
    /// evictions its own inserts triggered.
    pub evictions: usize,
}

impl CacheStats {
    /// Total evaluation requests seen by the cache.
    pub fn total(&self) -> usize {
        self.hits + self.misses
    }

    /// Fraction of requests answered from the cache, in `[0, 1]`
    /// (`0.0` when nothing was requested yet — never `NaN`, so the value
    /// is always safe to print or aggregate; `tests/service.rs` asserts
    /// full-cache-hit `--quick` replays render clean reports).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )?;
        if self.evictions > 0 {
            write!(f, ", {} evicted", self.evictions)?;
        }
        Ok(())
    }
}

/// One consumer's attributed view of a [`SharedCache`]: the cache handle
/// (optional: a detached client just computes) plus this consumer's
/// hit/miss/eviction counters, lock-free telemetry [`Counter`]s.
///
/// Clones share the counters, so every clone of a problem or evaluator
/// attributes its lookups to the request that made it, while two clients
/// on one shared cache each report their own reuse.
#[derive(Clone)]
pub struct CacheClient<K, V> {
    cache: Option<SharedCache<K, V>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl<K: Eq + Hash + Clone, V: Clone> CacheClient<K, V> {
    /// A client with no cache: every lookup computes, nothing is counted.
    pub fn detached() -> Self {
        Self {
            cache: None,
            hits: Counter::default(),
            misses: Counter::default(),
            evictions: Counter::default(),
        }
    }

    /// A client over a shared cache, with fresh counters.
    pub fn attached(cache: SharedCache<K, V>) -> Self {
        Self {
            cache: Some(cache),
            ..Self::detached()
        }
    }

    /// Snapshot of this client's (and its clones') attribution.  Values
    /// are clamped into `usize` (a non-issue on 64-bit targets).
    pub fn stats(&self) -> CacheStats {
        let clamp = |counter: &Counter| usize::try_from(counter.get()).unwrap_or(usize::MAX);
        CacheStats {
            hits: clamp(&self.hits),
            misses: clamp(&self.misses),
            evictions: clamp(&self.evictions),
        }
    }

    /// Returns the cached value of `key`, computing and inserting it on a
    /// miss; a detached client just runs `compute`.
    ///
    /// `compute` runs outside the cache lock, so a slow computation never
    /// blocks the other requests on the cache.  Two requests racing on one
    /// key may both compute, which is harmless (values are pure functions
    /// of their keys), and the insert is first-wins: the later request
    /// keeps the stored entry and counts its lookup as a hit (see the
    /// [module docs](self)).
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; nothing is inserted or counted then.
    pub fn get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let Some(cache) = &self.cache else {
            return compute();
        };
        if let Some(value) = cache.get(&key) {
            self.hits.inc();
            return Ok(value);
        }
        let value = compute()?;
        match cache.try_insert(key, value.clone()) {
            TryInsert::Inserted { evicted } => {
                self.misses.inc();
                if evicted {
                    self.evictions.inc();
                }
            }
            TryInsert::AlreadyPresent => self.hits.inc(),
        }
        Ok(value)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> std::fmt::Debug for CacheClient<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheClient")
            .field("cache", &self.cache)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The shared evaluation store: a [`SharedCache`] from genome keys to
/// [`Evaluation`]s.
///
/// Clones share the same underlying entries (`Arc` semantics), which is
/// what lets many concurrent [`CachedProblem`] wrappers — one per
/// exploration request — amortise evaluations across requests.  Keys must
/// come from one consistent key function per store: mixing key functions in
/// one store silently partitions (or worse, collides) the entries.
///
/// [`SharedCache::bounded`] caps the store at a fixed number of entries,
/// recycled CLOCK-style — the configuration a long-lived service wants,
/// where an unbounded per-space cache would grow for the life of the
/// process.  Eviction never changes results: entries are pure functions
/// of their keys, so an evicted entry is a future miss, not a different
/// answer.  Every lock recovers a poisoned mutex (see
/// [`SharedCache`]), so one panicking tenant cannot take the others down.
pub type CacheStore = SharedCache<Vec<i64>, Evaluation>;

/// A genome → cache-key function borrowing for `'k`.
type KeyFn<'k> = dyn Fn(&[f64]) -> Vec<i64> + 'k;

/// A [`Problem`] wrapper that memoizes evaluations by genome key.
///
/// The key function may borrow for `'k` (typically the wrapped problem
/// itself: `|g| problem.cache_key(g)`), so callers need not clone
/// anything into a `'static` closure.
///
/// # Example
///
/// ```
/// use acim_moga::{CacheStore, CachedProblem, Evaluation, Problem};
///
/// struct Square;
/// impl Problem for Square {
///     fn num_variables(&self) -> usize { 1 }
///     fn num_objectives(&self) -> usize { 1 }
///     fn evaluate(&self, genes: &[f64]) -> Evaluation {
///         Evaluation::unconstrained(vec![genes[0] * genes[0]])
///     }
/// }
///
/// let store = CacheStore::new();
/// let cached = CachedProblem::new(Square, store.clone(), |genes| {
///     genes.iter().map(|g| g.to_bits() as i64).collect()
/// });
/// let a = cached.evaluate(&[0.5]);
/// let b = cached.evaluate(&[0.5]); // answered from the cache
/// assert_eq!(a, b);
/// let stats = cached.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// assert_eq!(store.len(), 1);
/// ```
pub struct CachedProblem<'k, P> {
    inner: P,
    key_fn: Box<KeyFn<'k>>,
    client: CacheClient<Vec<i64>, Evaluation>,
}

impl<P: std::fmt::Debug> std::fmt::Debug for CachedProblem<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedProblem")
            .field("inner", &self.inner)
            .field("stats", &self.client.stats())
            .finish_non_exhaustive()
    }
}

impl<'k, P: Problem> CachedProblem<'k, P> {
    /// Wraps a problem over `store`, keyed by its genome → key function.
    ///
    /// The key decides which genomes count as "the same design", and it
    /// must be **decode-aligned**: two genomes may share a key only when
    /// the problem evaluates them to the identical [`Evaluation`].  Under
    /// that contract caching stays bit-lossless — e.g. the EasyACIM
    /// problems key by decoded bucket indices, so every genome that lands
    /// in the same (H, L, B, …) design hits one cache entry.
    ///
    /// A fresh `CacheStore::new()` memoizes one run.  A clone of a shared
    /// store makes this wrapper read and write entries other wrappers over
    /// the same design space already produced; the hit/miss counters
    /// remain **per wrapper**, so a request served by a pre-populated store
    /// reports those answers as its own hits — exactly the per-request
    /// attribution a multi-tenant service wants.  The caller must pair one
    /// store with one key function: the store trusts its keys.
    pub fn new<F>(inner: P, store: CacheStore, key_fn: F) -> Self
    where
        F: Fn(&[f64]) -> Vec<i64> + 'k,
    {
        Self {
            inner,
            key_fn: Box::new(key_fn),
            client: CacheClient::attached(store),
        }
    }

    /// The wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.client.stats()
    }
}

impl<P: Problem> Problem for CachedProblem<'_, P> {
    fn num_variables(&self) -> usize {
        self.inner.num_variables()
    }

    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        let key = (self.key_fn)(genes);
        let Ok(eval) = self
            .client
            .get_or_compute(key, || Ok::<_, Infallible>(self.inner.evaluate(genes)));
        eval
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counters with `hits` and `misses` and no evictions.
    fn hits_misses(hits: usize, misses: usize) -> CacheStats {
        CacheStats {
            hits,
            misses,
            evictions: 0,
        }
    }

    /// Counts how many times the inner problem actually evaluates.
    #[derive(Debug)]
    struct Counting {
        calls: AtomicUsize,
    }

    impl Counting {
        fn new() -> Self {
            Self {
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl Problem for Counting {
        fn num_variables(&self) -> usize {
            2
        }
        fn num_objectives(&self) -> usize {
            1
        }
        fn evaluate(&self, genes: &[f64]) -> Evaluation {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Evaluation::unconstrained(vec![genes[0] + 2.0 * genes[1]])
        }
        fn name(&self) -> &str {
            "counting"
        }
    }

    /// The exact-bits key of a genome.
    fn bits_key(genes: &[f64]) -> Vec<i64> {
        genes.iter().map(|g| g.to_bits() as i64).collect()
    }

    /// Wraps `inner` over `store`, keyed by the exact genome bits.
    fn cached<P: Problem>(inner: P, store: &CacheStore) -> CachedProblem<'static, P> {
        CachedProblem::new(inner, store.clone(), bits_key)
    }

    /// Scores a cohort one genome at a time, in order, as the optimisers do.
    fn evaluate_all<P: Problem>(problem: &P, genomes: &[Vec<f64>]) -> Vec<Evaluation> {
        genomes
            .iter()
            .map(|genes| problem.evaluate(genes))
            .collect()
    }

    #[test]
    fn repeat_evaluations_hit_the_cache() {
        let store = CacheStore::new();
        let cached = cached(Counting::new(), &store);
        let a = cached.evaluate(&[0.25, 0.5]);
        let b = cached.evaluate(&[0.25, 0.5]);
        let c = cached.evaluate(&[0.75, 0.5]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(cached.inner().calls.load(Ordering::Relaxed), 2);
        assert_eq!(cached.stats(), hits_misses(1, 2));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn batch_deduplicates_within_and_across_batches() {
        let cached = cached(Counting::new(), &CacheStore::new());
        let genomes = vec![
            vec![0.1, 0.1],
            vec![0.2, 0.2],
            vec![0.1, 0.1], // duplicate within the cohort
            vec![0.3, 0.3],
        ];
        let evals = evaluate_all(&cached, &genomes);
        assert_eq!(evals.len(), 4);
        assert_eq!(evals[0], evals[2]);
        assert_eq!(cached.inner().calls.load(Ordering::Relaxed), 3);
        assert_eq!(cached.stats(), hits_misses(1, 3));

        // A second cohort re-using previous designs evaluates only new ones.
        let evals2 = evaluate_all(&cached, &[vec![0.2, 0.2], vec![0.4, 0.4]]);
        assert_eq!(evals2[0], evals[1]);
        assert_eq!(cached.inner().calls.load(Ordering::Relaxed), 4);
        assert_eq!(cached.stats(), hits_misses(2, 4));
    }

    #[test]
    fn batch_results_preserve_input_order_and_match_serial() {
        let cached = cached(Counting::new(), &CacheStore::new());
        let genomes: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![f64::from(i) / 10.0, f64::from(i % 3) / 3.0])
            .collect();
        let evals = evaluate_all(&cached, &genomes);
        for (genes, eval) in genomes.iter().zip(&evals) {
            assert_eq!(eval, &Counting::new().evaluate(genes));
        }
    }

    #[test]
    fn hit_rate_reads_naturally() {
        let stats = hits_misses(3, 1);
        assert_eq!(stats.total(), 4);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert!(stats.to_string().contains("75.0% hit rate"));
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn custom_key_fn_merges_decode_equivalent_genomes() {
        // Key by a 4-bucket decode: all genes in the same quarter of
        // [0, 1] are "the same design".
        let cached = CachedProblem::new(Counting::new(), CacheStore::new(), |genes| {
            genes
                .iter()
                .map(|&g| (g.clamp(0.0, 1.0) * 4.0) as i64)
                .collect()
        });
        let a = cached.evaluate(&[0.30, 0.30]);
        let b = cached.evaluate(&[0.26, 0.28]); // same buckets -> cache hit
        let c = cached.evaluate(&[0.60, 0.30]); // different bucket
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(cached.stats(), hits_misses(1, 2));
        assert!(format!("{cached:?}").contains("CachedProblem"));
    }

    #[test]
    fn shared_store_amortises_across_wrappers_with_per_wrapper_stats() {
        let store = CacheStore::new();
        let first = cached(Counting::new(), &store);
        let _ = evaluate_all(&first, &[vec![0.1, 0.1], vec![0.2, 0.2]]);
        assert_eq!(first.stats(), hits_misses(0, 2));
        assert_eq!(store.len(), 2);

        // A second wrapper (a new "request") over the same store: answers
        // come from the shared entries, attributed to this wrapper.
        let second = cached(Counting::new(), &store);
        let evals = evaluate_all(&second, &[vec![0.2, 0.2], vec![0.3, 0.3]]);
        assert_eq!(evals.len(), 2);
        assert_eq!(second.stats(), hits_misses(1, 1));
        assert_eq!(second.inner().calls.load(Ordering::Relaxed), 1);
        assert_eq!(store.len(), 3);
        // The first wrapper's counters are untouched.
        assert_eq!(first.stats(), hits_misses(0, 2));
    }

    /// Stands in for a concurrent request that finishes first: while this
    /// request computes a genome, it writes its own entry for the same
    /// key into the shared store.
    struct RacedBy {
        store: CacheStore,
    }

    impl Problem for RacedBy {
        fn num_variables(&self) -> usize {
            1
        }
        fn num_objectives(&self) -> usize {
            1
        }
        fn evaluate(&self, genes: &[f64]) -> Evaluation {
            self.store
                .try_insert(bits_key(genes), Evaluation::unconstrained(vec![-1.0]));
            Evaluation::unconstrained(vec![genes[0]])
        }
    }

    #[test]
    fn first_insert_wins_and_the_late_lookup_counts_as_a_hit() {
        let store = CacheStore::new();
        let cached = cached(
            RacedBy {
                store: store.clone(),
            },
            &store,
        );
        let _ = cached.evaluate(&[0.5]);
        assert_eq!(cached.stats(), hits_misses(1, 0));
        assert_eq!(
            store.get(&bits_key(&[0.5])),
            Some(Evaluation::unconstrained(vec![-1.0])),
            "the first insert is kept"
        );
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn store_handles_clone_shallowly() {
        let store = CacheStore::new();
        assert!(store.is_empty());
        let alias = store.clone();
        alias.try_insert(vec![1, 2], Evaluation::unconstrained(vec![0.5]));
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get(&[1, 2][..]),
            Some(Evaluation::unconstrained(vec![0.5]))
        );
        assert!(format!("{store:?}").contains("entries"));
    }

    #[test]
    fn poisoned_store_recovers_and_stays_usable() {
        // A tenant panicking while holding the store lock used to poison
        // the mutex and crash every other tenant's next access.  Here the
        // tenant's snapshot import panics mid-merge, under the lock.
        let store = CacheStore::new();
        store.try_insert(vec![1], Evaluation::unconstrained(vec![1.0]));
        let poisoner = store.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            poisoner.import_entries(std::iter::from_fn(|| -> Option<(Vec<i64>, Evaluation)> {
                panic!("tenant panicked mid-import")
            }));
        }));
        assert!(result.is_err(), "the poisoning panic must propagate");

        // Every other tenant keeps working: reads, writes, and wrapped
        // problems all recover the guard.
        assert_eq!(
            store.get(&[1][..]),
            Some(Evaluation::unconstrained(vec![1.0]))
        );
        store.try_insert(vec![3], Evaluation::unconstrained(vec![3.0]));
        assert_eq!(store.len(), 2);
        let cached = cached(Counting::new(), &store);
        let evals = evaluate_all(&cached, &[vec![0.1, 0.1], vec![0.2, 0.2]]);
        assert_eq!(evals.len(), 2);
        assert_eq!(cached.stats(), hits_misses(0, 2));
    }

    #[test]
    fn bounded_store_never_exceeds_capacity_under_concurrent_insert() {
        let store = CacheStore::bounded(16);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for i in 0..200i64 {
                        store.try_insert(
                            vec![t, i],
                            Evaluation::unconstrained(vec![(t * 1000 + i) as f64]),
                        );
                        assert!(store.len() <= 16, "store exceeded its bound");
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(store.len(), 16);
        assert_eq!(store.capacity(), Some(16));
        assert_eq!(store.evictions(), 4 * 200 - 16);
    }

    #[test]
    fn bounded_wrapper_attributes_its_own_evictions() {
        let store = CacheStore::bounded(2);
        let cached = cached(Counting::new(), &store);
        for i in 0..5 {
            let _ = cached.evaluate(&[f64::from(i) / 10.0, 0.0]);
        }
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses), (0, 5));
        assert_eq!(stats.evictions, 3, "5 inserts into a 2-entry store");
        assert_eq!(store.evictions(), 3);
        assert!(stats.to_string().contains("3 evicted"));

        // Evicted designs are recomputed, not wrong: the same genome
        // evaluates to the same objectives after falling out of the store.
        let again = cached.evaluate(&[0.0, 0.0]);
        assert_eq!(again, Counting::new().evaluate(&[0.0, 0.0]));
    }

    #[test]
    fn intra_batch_duplicate_counts_one_miss_and_one_hit() {
        // Attribution audit (per-request accounting the service sums):
        // a genome appearing twice in one cohort is one miss (first
        // occurrence, evaluated) plus one hit (the duplicate) — never two
        // misses — and a triplicate is one miss plus two hits.
        let store = CacheStore::new();
        let request_a = cached(Counting::new(), &store);
        let cohort = vec![
            vec![0.5, 0.5],
            vec![0.5, 0.5],
            vec![0.5, 0.5],
            vec![0.7, 0.7],
        ];
        let evals = evaluate_all(&request_a, &cohort);
        assert_eq!(evals[0], evals[1]);
        assert_eq!(evals[0], evals[2]);
        assert_eq!(request_a.stats(), hits_misses(2, 2));
        assert_eq!(request_a.inner().calls.load(Ordering::Relaxed), 2);
        // Per-request totals sum to the evaluations the request issued —
        // the invariant the service's per-request attribution relies on.
        assert_eq!(request_a.stats().total(), cohort.len());

        // A second request over the shared store sees the duplicate as a
        // plain cross-request hit.
        let request_b = cached(Counting::new(), &store);
        let evals_b = evaluate_all(&request_b, &[vec![0.5, 0.5], vec![0.5, 0.5]]);
        assert_eq!(evals_b[0], evals[0]);
        assert_eq!(request_b.stats(), hits_misses(2, 0));
        assert_eq!(request_b.inner().calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn trait_surface_forwards_to_inner() {
        let store = CacheStore::new();
        let cached = cached(Counting::new(), &store);
        assert_eq!(cached.num_variables(), 2);
        assert_eq!(cached.num_objectives(), 1);
        assert_eq!(cached.name(), "counting");
        assert!(store.is_empty());
    }
}
