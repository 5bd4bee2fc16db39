//! Random-search baseline.
//!
//! The ablation benchmarks compare NSGA-II against uniform random sampling
//! with the same evaluation budget, to quantify how much the genetic search
//! actually contributes to Pareto-front quality.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::archive::ParetoArchive;
use crate::individual::Individual;
use crate::operators::random_genome;
use crate::problem::Problem;

/// Evaluates `budget` uniform random genomes and returns the feasible,
/// non-dominated subset as an archive of individuals.
///
/// Genomes are drawn and scored one at a time.  Evaluation never reads the
/// RNG, so the sample stream, and with it the archive, is deterministic for
/// a fixed `seed`.
pub fn random_search<P: Problem>(
    problem: &P,
    budget: usize,
    seed: u64,
) -> ParetoArchive<Individual> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut archive = ParetoArchive::new();
    for _ in 0..budget {
        let genes = random_genome(&mut rng, problem.num_variables());
        let eval = problem.evaluate(&genes);
        if eval.is_feasible() {
            let objectives = eval.objectives.clone();
            archive.insert(objectives, Individual::new(genes, eval));
        }
    }
    archive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::dominates;
    use crate::problem::Evaluation;

    struct Schaffer;

    impl Problem for Schaffer {
        fn num_variables(&self) -> usize {
            1
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn evaluate(&self, genes: &[f64]) -> Evaluation {
            let x = genes[0] * 4.0 - 2.0;
            Evaluation::unconstrained(vec![x * x, (x - 2.0) * (x - 2.0)])
        }
    }

    struct AlwaysInfeasible;

    impl Problem for AlwaysInfeasible {
        fn num_variables(&self) -> usize {
            1
        }
        fn num_objectives(&self) -> usize {
            1
        }
        fn evaluate(&self, _genes: &[f64]) -> Evaluation {
            Evaluation::new(vec![1.0], 1.0)
        }
    }

    #[test]
    fn random_search_finds_a_non_empty_front() {
        let archive = random_search(&Schaffer, 500, 1);
        assert!(!archive.is_empty());
        // All archived points must be mutually non-dominated.
        let objs = archive.objectives();
        for (i, a) in objs.iter().enumerate() {
            for (j, b) in objs.iter().enumerate() {
                if i != j {
                    assert!(!dominates(a, b) || !dominates(b, a));
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = random_search(&Schaffer, 200, 7).objectives();
        let b = random_search(&Schaffer, 200, 7).objectives();
        assert_eq!(a, b);
    }

    #[test]
    fn infeasible_problems_yield_empty_archive() {
        let archive = random_search(&AlwaysInfeasible, 100, 3);
        assert!(archive.is_empty());
    }
}
