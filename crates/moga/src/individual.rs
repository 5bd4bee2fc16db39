//! Population member representation.

use crate::problem::{Evaluation, ObjVec};

/// One member of an NSGA-II population: a genome plus its evaluation and the
/// bookkeeping used by non-dominated sorting (rank) and diversity
/// preservation (crowding distance).
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// Real-coded genome, every gene in `[0, 1]`.
    pub genes: Vec<f64>,
    /// Objective values (all minimised), stored inline for the common
    /// arities (see [`crate::problem::INLINE_OBJECTIVES`]).
    pub objectives: ObjVec,
    /// Aggregate constraint violation (`0.0` = feasible).
    pub constraint_violation: f64,
    /// Non-domination rank (`0` = first/best front).  Assigned by
    /// [`crate::dominance::fast_non_dominated_sort`], or carried over from
    /// the combined population by [`crate::Nsga2`]'s environmental
    /// selection, which assigns the rank a re-sort of the survivors would.
    pub rank: usize,
    /// Crowding distance within the individual's front.  Assigned by
    /// [`crate::crowding::assign_crowding_distance`].
    pub crowding_distance: f64,
}

impl Individual {
    /// Builds an individual from a genome and its evaluation.
    pub fn new(genes: Vec<f64>, evaluation: Evaluation) -> Self {
        Self {
            genes,
            objectives: evaluation.objectives,
            constraint_violation: evaluation.constraint_violation,
            rank: usize::MAX,
            crowding_distance: 0.0,
        }
    }

    /// Returns `true` when the individual satisfies all constraints.
    pub fn is_feasible(&self) -> bool {
        self.constraint_violation == 0.0
    }

    /// Crowded-comparison operator of NSGA-II: prefer the lower rank, break
    /// ties with the larger crowding distance.  Returns `true` when `self`
    /// is preferred over `other`.
    pub fn crowded_compare(&self, other: &Self) -> bool {
        if self.rank != other.rank {
            self.rank < other.rank
        } else {
            self.crowding_distance > other.crowding_distance
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn individual(rank: usize, crowding: f64) -> Individual {
        let mut ind = Individual::new(vec![0.5], Evaluation::unconstrained(vec![1.0, 2.0]));
        ind.rank = rank;
        ind.crowding_distance = crowding;
        ind
    }

    #[test]
    fn new_copies_evaluation() {
        let ind = Individual::new(vec![0.1, 0.9], Evaluation::new(vec![3.0], 0.5));
        assert_eq!(ind.genes, vec![0.1, 0.9]);
        assert_eq!(ind.objectives, vec![3.0]);
        assert!(!ind.is_feasible());
        assert_eq!(ind.rank, usize::MAX);
    }

    #[test]
    fn crowded_compare_prefers_lower_rank() {
        assert!(individual(0, 0.0).crowded_compare(&individual(1, 10.0)));
        assert!(!individual(2, 10.0).crowded_compare(&individual(1, 0.0)));
    }

    #[test]
    fn crowded_compare_breaks_ties_with_crowding() {
        assert!(individual(1, 5.0).crowded_compare(&individual(1, 2.0)));
        assert!(!individual(1, 1.0).crowded_compare(&individual(1, 2.0)));
    }
}
