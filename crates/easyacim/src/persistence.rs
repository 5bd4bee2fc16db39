//! The service ↔ snapshot boundary: domain/wire conversions, signature
//! validation, and the snapshot/restore reports.
//!
//! `acim-persist` deliberately knows nothing about this crate's domain
//! types — it moves plain strings, integer words and `f64` bit patterns.
//! This module owns the (lossless, bit-exact) conversions in both
//! directions and the one semantic check the wire format cannot do
//! itself: that every signature in a snapshot belongs to the registry
//! namespace it targets.  [`ExplorationService::snapshot`] /
//! [`ExplorationService::restore`] are thin orchestration over these
//! helpers.
//!
//! [`ExplorationService::snapshot`]: crate::service::ExplorationService::snapshot
//! [`ExplorationService::restore`]: crate::service::ExplorationService::restore

use std::fmt;
use std::time::Duration;

use acim_chip::{MacroMetrics, MacroMetricsCache};
use acim_model::{DesignMetrics, SpecKey};
use acim_moga::{CacheStore, Evaluation};
use acim_persist::{
    ArchiveRecord, EvalCacheRecord, EvalEntry, MacroCacheRecord, MacroEntry, PersistError, Snapshot,
};

use crate::service::SessionArchive;

/// Signature namespace of macro design spaces.
const MACRO_SPACE_PREFIX: &str = "macro/";
/// Signature namespace of chip design spaces.
const CHIP_SPACE_PREFIX: &str = "chip/";
/// Signature namespace of model-parameter sets.
const PARAMS_PREFIX: &str = "params/";

/// What [`ExplorationService::snapshot`] wrote: the counts per registry,
/// the encoded size, the wall-clock cost.
///
/// [`ExplorationService::snapshot`]: crate::service::ExplorationService::snapshot
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotReport {
    /// Session archives written (one per design space).
    pub archives: usize,
    /// Frontier genomes across every archive.
    pub genomes: usize,
    /// Evaluation-cache sections written (one per design space).
    pub eval_caches: usize,
    /// Cached evaluations across every store.
    pub evaluations: usize,
    /// Macro-cache sections written (one per parameter set).
    pub macro_caches: usize,
    /// Cached macro derivations across every macro cache.
    pub macro_metrics: usize,
    /// Encoded file size in bytes.
    pub bytes: u64,
    /// Wall-clock time of the export + atomic write.
    pub elapsed: Duration,
}

impl fmt::Display for SnapshotReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} archives ({} genomes), {} evaluations over {} spaces, \
             {} macro metrics over {} parameter sets — {} bytes in {:.1} ms",
            self.archives,
            self.genomes,
            self.evaluations,
            self.eval_caches,
            self.macro_metrics,
            self.macro_caches,
            self.bytes,
            self.elapsed.as_secs_f64() * 1e3,
        )
    }
}

/// What [`ExplorationService::restore`] merged — and what it skipped
/// because the live registries already knew fresher entries.
///
/// [`ExplorationService::restore`]: crate::service::ExplorationService::restore
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreReport {
    /// Session archives merged into the registry.
    pub archives: usize,
    /// Archives skipped because their space already has a live archive.
    pub skipped_archives: usize,
    /// Evaluation-cache entries merged.
    pub evaluations: usize,
    /// Evaluation entries skipped (key already live).
    pub skipped_evaluations: usize,
    /// Macro-metric entries merged.
    pub macro_metrics: usize,
    /// Macro-metric entries skipped (key already live).
    pub skipped_macro_metrics: usize,
    /// Snapshot file size in bytes.
    pub bytes: u64,
    /// Wall-clock time of the read + verify + merge.
    pub elapsed: Duration,
}

impl fmt::Display for RestoreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} archives, {} evaluations, {} macro metrics restored",
            self.archives, self.evaluations, self.macro_metrics
        )?;
        let skipped = self.skipped_archives + self.skipped_evaluations + self.skipped_macro_metrics;
        if skipped > 0 {
            write!(f, " ({skipped} already live)")?;
        }
        write!(
            f,
            " from {} bytes in {:.1} ms",
            self.bytes,
            self.elapsed.as_secs_f64() * 1e3
        )
    }
}

/// A session archive as its wire record (genomes cloned bit-exactly).
pub(crate) fn archive_record(archive: &SessionArchive) -> ArchiveRecord {
    ArchiveRecord {
        space: archive.space().to_string(),
        genomes: archive.genomes().to_vec(),
    }
}

/// A wire record back into a session archive.
pub(crate) fn archive_from_record(record: &ArchiveRecord) -> SessionArchive {
    SessionArchive::new(record.space.clone(), record.genomes.clone())
}

/// One evaluation store's contents, sorted by genome key so identical
/// stores serialize to identical bytes.
pub(crate) fn eval_cache_record(space: &str, store: &CacheStore) -> EvalCacheRecord {
    let mut entries = store.export_entries();
    entries.sort_by(|(a, _), (b, _)| a.cmp(b));
    EvalCacheRecord {
        space: space.to_string(),
        entries: entries
            .into_iter()
            .map(|(key, evaluation)| EvalEntry {
                key,
                objectives: evaluation.objectives.to_vec(),
                constraint_violation: evaluation.constraint_violation,
            })
            .collect(),
    }
}

/// A wire evaluation entry back into the store's `(key, value)` shape.
pub(crate) fn eval_entry(entry: EvalEntry) -> (Vec<i64>, Evaluation) {
    (
        entry.key,
        Evaluation {
            objectives: entry.objectives.into(),
            constraint_violation: entry.constraint_violation,
        },
    )
}

/// One macro cache's contents, sorted by key words for deterministic
/// bytes.
pub(crate) fn macro_cache_record(params: &str, cache: &MacroMetricsCache) -> MacroCacheRecord {
    let mut entries = cache.export_entries();
    entries.sort_by_key(|(key, _)| *key);
    MacroCacheRecord {
        params: params.to_string(),
        entries: entries
            .into_iter()
            .map(|(key, metrics)| MacroEntry {
                key: key.to_words(),
                snr_db: metrics.design.snr_db,
                throughput_tops: metrics.design.throughput_tops,
                energy_per_mac_fj: metrics.design.energy_per_mac_fj,
                tops_per_watt: metrics.design.tops_per_watt,
                area_f2_per_bit: metrics.design.area_f2_per_bit,
                cycle_ns: metrics.cycle_ns,
            })
            .collect(),
    }
}

/// A wire macro entry back into the cache's `(key, value)` shape.
pub(crate) fn macro_entry(entry: MacroEntry) -> (SpecKey, MacroMetrics) {
    (
        SpecKey::from_words(entry.key),
        MacroMetrics {
            design: DesignMetrics {
                snr_db: entry.snr_db,
                throughput_tops: entry.throughput_tops,
                energy_per_mac_fj: entry.energy_per_mac_fj,
                tops_per_watt: entry.tops_per_watt,
                area_f2_per_bit: entry.area_f2_per_bit,
            },
            cycle_ns: entry.cycle_ns,
        },
    )
}

/// Rejects any snapshot whose signatures cannot belong to the registries
/// they target — the restore-side guard that runs **before** any merge,
/// so a wrong-namespace snapshot leaves the service untouched.
///
/// Note what this check is *not*: a snapshot recorded over a different
/// (but well-formed) design space or parameter set is perfectly valid —
/// it restores fine and its entries are simply never looked up, which is
/// a clean cold start by construction.  The typed rejection is for
/// signatures from the wrong namespace entirely, which would plant
/// entries no signature scheme of this service can ever address.
pub(crate) fn validate_signatures(snapshot: &Snapshot) -> Result<(), PersistError> {
    let space_ok =
        |space: &str| space.starts_with(MACRO_SPACE_PREFIX) || space.starts_with(CHIP_SPACE_PREFIX);
    for archive in &snapshot.archives {
        if !space_ok(&archive.space) {
            return Err(PersistError::BadSignature {
                expected: "design-space (`macro/…` or `chip/…`)",
                found: archive.space.clone(),
            });
        }
    }
    for cache in &snapshot.eval_caches {
        if !space_ok(&cache.space) {
            return Err(PersistError::BadSignature {
                expected: "design-space (`macro/…` or `chip/…`)",
                found: cache.space.clone(),
            });
        }
    }
    for cache in &snapshot.macro_caches {
        if !cache.params.starts_with(PARAMS_PREFIX) {
            return Err(PersistError::BadSignature {
                expected: "model-parameter (`params/…`)",
                found: cache.params.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_entries_convert_bit_exactly_in_both_directions() {
        let store = CacheStore::new();
        store.import_entries([(
            vec![3, -1, 4],
            Evaluation {
                objectives: vec![-31.5, -0.0, f64::MIN_POSITIVE].into(),
                constraint_violation: 0.25,
            },
        )]);
        let record = eval_cache_record("chip/x", &store);
        assert_eq!(record.entries.len(), 1);
        let (key, evaluation) = eval_entry(record.entries[0].clone());
        assert_eq!(key, vec![3, -1, 4]);
        let bits: Vec<u64> = evaluation.objectives.iter().map(|o| o.to_bits()).collect();
        assert_eq!(
            bits,
            vec![
                (-31.5f64).to_bits(),
                (-0.0f64).to_bits(),
                f64::MIN_POSITIVE.to_bits()
            ]
        );
        assert_eq!(evaluation.constraint_violation, 0.25);
    }

    #[test]
    fn signature_validation_accepts_real_namespaces_and_rejects_others() {
        let mut snapshot = Snapshot::new();
        snapshot.archives.push(ArchiveRecord {
            space: "chip/edge#1".into(),
            genomes: vec![],
        });
        snapshot.eval_caches.push(EvalCacheRecord {
            space: "macro/64x[1..6]/#a".into(),
            entries: vec![],
        });
        snapshot.macro_caches.push(MacroCacheRecord {
            params: "params/#b".into(),
            entries: vec![],
        });
        validate_signatures(&snapshot).unwrap();

        snapshot.archives[0].space = "bogus/space".into();
        let err = validate_signatures(&snapshot).unwrap_err();
        assert!(matches!(err, PersistError::BadSignature { .. }));
        assert_eq!(err.reason(), "bad_signature");
    }

    #[test]
    fn reports_render_their_counts() {
        let snapshot = SnapshotReport {
            archives: 2,
            genomes: 31,
            eval_caches: 2,
            evaluations: 457,
            macro_caches: 1,
            macro_metrics: 96,
            bytes: 54321,
            elapsed: Duration::from_micros(850),
        };
        let text = snapshot.to_string();
        assert!(text.contains("2 archives (31 genomes)"));
        assert!(text.contains("457 evaluations"));
        assert!(text.contains("54321 bytes"));

        let restore = RestoreReport {
            archives: 2,
            evaluations: 457,
            macro_metrics: 96,
            skipped_evaluations: 3,
            ..RestoreReport::default()
        };
        let text = restore.to_string();
        assert!(text.contains("457 evaluations"));
        assert!(text.contains("(3 already live)"));
        assert!(!RestoreReport::default()
            .to_string()
            .contains("already live"));
    }
}
