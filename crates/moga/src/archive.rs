//! Unbounded Pareto archive.
//!
//! The EasyACIM design-space explorer keeps every non-dominated (spec,
//! metrics) pair it has ever evaluated, so that the user-distillation step
//! can filter a rich frontier rather than only the final NSGA-II population.

use crate::dominance::dominates;

/// An entry of the archive: an objective vector plus an arbitrary payload
/// (for EasyACIM the payload is the decoded design point).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveEntry<T> {
    /// Objective values (all minimised).
    pub objectives: Vec<f64>,
    /// User payload associated with the objectives.
    pub payload: T,
}

/// An unbounded archive of mutually non-dominated entries.
#[derive(Debug, Clone, Default)]
pub struct ParetoArchive<T> {
    entries: Vec<ArchiveEntry<T>>,
}

impl<T> ParetoArchive<T> {
    /// Creates an empty archive.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Attempts to insert a candidate.  Returns `true` when the candidate is
    /// non-dominated (and therefore now part of the archive); dominated
    /// candidates are rejected, and any existing entries dominated by the
    /// candidate are removed.
    ///
    /// Duplicates (identical objective vectors) are rejected to keep the
    /// archive minimal.
    ///
    /// Re-offering a vector offered before returns `false` and changes
    /// nothing, for vectors without NaN: an entry leaves the archive only
    /// when a candidate dominates it, so by transitivity every vector
    /// offered before is still dominated or equalled by some entry.
    /// Callers may therefore skip repeat offers.
    pub fn insert(&mut self, objectives: impl Into<Vec<f64>>, payload: T) -> bool {
        let objectives = objectives.into();
        for entry in &self.entries {
            if dominates(&entry.objectives, &objectives) || entry.objectives == objectives {
                return false;
            }
        }
        self.entries
            .retain(|e| !dominates(&objectives, &e.objectives));
        self.entries.push(ArchiveEntry {
            objectives,
            payload,
        });
        true
    }

    /// Number of archived entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the archived entries.
    pub fn iter(&self) -> impl Iterator<Item = &ArchiveEntry<T>> {
        self.entries.iter()
    }

    /// Consumes the archive and returns its entries.
    pub fn into_entries(self) -> Vec<ArchiveEntry<T>> {
        self.entries
    }

    /// Returns the archived objective vectors.
    pub fn objectives(&self) -> Vec<Vec<f64>> {
        self.entries.iter().map(|e| e.objectives.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_only_non_dominated() {
        let mut archive = ParetoArchive::new();
        assert!(archive.insert(vec![2.0, 2.0], "a"));
        assert!(archive.insert(vec![1.0, 3.0], "b"));
        // Dominated by "a".
        assert!(!archive.insert(vec![3.0, 3.0], "c"));
        assert_eq!(archive.len(), 2);
        // Dominates "a": "a" must be evicted.
        assert!(archive.insert(vec![1.5, 1.5], "d"));
        assert_eq!(archive.len(), 2);
        let payloads: Vec<&str> = archive.iter().map(|e| e.payload).collect();
        assert!(payloads.contains(&"b"));
        assert!(payloads.contains(&"d"));
        assert!(!payloads.contains(&"a"));
    }

    #[test]
    fn duplicates_are_rejected() {
        let mut archive = ParetoArchive::new();
        assert!(archive.insert(vec![1.0, 1.0], 0));
        assert!(!archive.insert(vec![1.0, 1.0], 1));
        assert_eq!(archive.len(), 1);
    }

    #[test]
    fn archive_contents_are_mutually_non_dominated() {
        let mut archive = ParetoArchive::new();
        // Insert a grid of points; the archive must end up holding only the
        // non-dominated "staircase".
        for i in 0..10 {
            for j in 0..10 {
                let _ = archive.insert(vec![f64::from(i), f64::from(j)], (i, j));
            }
        }
        assert_eq!(archive.len(), 1, "only (0, 0) is non-dominated in a grid");
        let objs = archive.objectives();
        assert_eq!(objs[0], vec![0.0, 0.0]);
    }

    #[test]
    fn staircase_points_all_survive() {
        let mut archive = ParetoArchive::new();
        for i in 0..8 {
            let x = f64::from(i);
            assert!(archive.insert(vec![x, 7.0 - x], i));
        }
        assert_eq!(archive.len(), 8);
    }

    #[test]
    fn into_entries_preserves_payloads() {
        let mut archive = ParetoArchive::new();
        archive.insert(vec![1.0, 2.0], "x".to_string());
        archive.insert(vec![2.0, 1.0], "y".to_string());
        let entries = archive.into_entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().any(|e| e.payload == "x"));
    }
}
