//! Ablation: how good is the MOGA-based explorer compared to ground truth
//! and to a random-sampling baseline?
//!
//! The 16 kb design space is small (≈140 valid points, 131 of them on the
//! exact Pareto front of the 4-objective space), so exhaustive enumeration
//! is the exact reference.  At the paper's budget (population 200 × 100
//! generations) NSGA-II returns exactly the exhaustive front; at the
//! quickstart budget (40 × 25) it recovers 63–80 of the 131 exact points,
//! pinned per seed below.  Random sampling with the same budget is also
//! competitive *for a single small array size*, which is an honest caveat
//! of the paper's algorithm choice — NSGA-II's advantage is budget
//! efficiency, not reachability, at this problem size.

use acim_dse::enumerate::exact_pareto_front;
use acim_dse::{enumerate_design_space, AcimDesignProblem, DesignSpaceExplorer, DseConfig};
use acim_model::ModelParams;
use acim_moga::{dominates, hypervolume_monte_carlo, random_search, Evaluation, Problem};

/// Reference point for hypervolume in the `[−SNR, −TOPS, E, A]` space:
/// comfortably worse than any feasible 16 kb design.
const REFERENCE: [f64; 4] = [0.0, 0.0, 60.0, 10_000.0];

fn exhaustive_hypervolume(params: &ModelParams) -> (f64, Vec<acim_dse::DesignPoint>) {
    let space = enumerate_design_space(16 * 1024, 16, 1024, params).expect("enumerates");
    let exact = exact_pareto_front(&space);
    let objs: Vec<Vec<f64>> = exact.iter().map(|p| p.objective_vector()).collect();
    (hypervolume_monte_carlo(&objs, &REFERENCE, 50_000, 1), exact)
}

#[test]
fn nsga2_recovers_most_of_the_exact_front() {
    let params = ModelParams::s28_default();
    let (hv_exact, exact) = exhaustive_hypervolume(&params);

    let explorer = DesignSpaceExplorer::new(DseConfig {
        array_size: 16 * 1024,
        population_size: 60,
        generations: 40,
        ..DseConfig::default()
    })
    .expect("explorer builds");
    let found = explorer.explore().expect("explores");

    let objs: Vec<Vec<f64>> = found
        .points()
        .iter()
        .map(|p| p.objective_vector())
        .collect();
    let hv = hypervolume_monte_carlo(&objs, &REFERENCE, 50_000, 1);
    assert!(
        hv >= 0.95 * hv_exact,
        "NSGA-II hypervolume {hv:.3e} is below 95% of the exhaustive {hv_exact:.3e}"
    );

    let recovered = exact
        .iter()
        .filter(|e| found.points().iter().any(|p| p.spec == e.spec))
        .count();
    assert!(
        recovered as f64 / exact.len() as f64 > 0.6,
        "NSGA-II recovered only {recovered}/{} exact Pareto points",
        exact.len()
    );
}

#[test]
fn paper_budget_recovers_exactly_the_exhaustive_front() {
    // At the paper's budget (population 200 × 100 generations) the 16 kb
    // frontier is the exhaustive Pareto front: every exact point is found
    // and no returned point lies off it.
    let params = ModelParams::s28_default();
    let space = enumerate_design_space(16 * 1024, 16, 1024, &params).expect("enumerates");
    let exact = exact_pareto_front(&space);
    for seed in [11, 22, 33] {
        let explorer = DesignSpaceExplorer::new(DseConfig {
            array_size: 16 * 1024,
            population_size: 200,
            generations: 100,
            seed,
            ..DseConfig::default()
        })
        .expect("explorer builds");
        let found = explorer.explore().expect("explores");
        let missing: Vec<String> = exact
            .iter()
            .filter(|e| !found.iter().any(|p| p.spec == e.spec))
            .map(|e| e.spec.to_string())
            .collect();
        assert!(
            missing.is_empty(),
            "seed {seed}: {} of {} exact Pareto points not found: {missing:?}",
            missing.len(),
            exact.len()
        );
        let off_front: Vec<String> = found
            .iter()
            .filter(|p| !exact.iter().any(|e| e.spec == p.spec))
            .map(|p| p.spec.to_string())
            .collect();
        assert!(
            off_front.is_empty(),
            "seed {seed}: returned points off the exact front: {off_front:?}"
        );
    }
}

#[test]
fn quickstart_budget_recall_is_pinned() {
    // At the quickstart budget (population 40 × 25 generations) the 16 kb
    // frontier holds part of the exhaustive front.  Per seed: exact Pareto
    // points found, and returned points some enumerated design dominates.
    let params = ModelParams::s28_default();
    let space = enumerate_design_space(16 * 1024, 16, 1024, &params).expect("enumerates");
    let exact = exact_pareto_front(&space);
    assert_eq!(exact.len(), 131);
    for (seed, found_exact, dominated) in [(11, 80, 0), (22, 63, 1), (33, 68, 1)] {
        let explorer = DesignSpaceExplorer::new(DseConfig {
            array_size: 16 * 1024,
            population_size: 40,
            generations: 25,
            seed,
            ..DseConfig::default()
        })
        .expect("explorer builds");
        let found = explorer.explore().expect("explores");
        let recovered = exact
            .iter()
            .filter(|e| found.iter().any(|p| p.spec == e.spec))
            .count();
        let off_front = found
            .iter()
            .filter(|p| {
                space
                    .iter()
                    .any(|d| dominates(&d.objective_vector(), &p.objective_vector()))
            })
            .count();
        assert_eq!(
            (recovered, off_front),
            (found_exact, dominated),
            "seed {seed}: (exact points found, returned points dominated)"
        );
    }
}

#[test]
fn nsga2_with_a_small_budget_stays_competitive_with_random_search() {
    let params = ModelParams::s28_default();
    let (hv_exact, _) = exhaustive_hypervolume(&params);

    // A deliberately tight budget (~2× the size of the discrete space).
    let explorer = DesignSpaceExplorer::new(DseConfig {
        array_size: 16 * 1024,
        population_size: 24,
        generations: 10,
        ..DseConfig::default()
    })
    .expect("explorer builds");
    let frontier = explorer.explore().expect("explores");
    let budget = frontier.engine.evaluations;

    let nsga_objs: Vec<Vec<f64>> = frontier
        .points()
        .iter()
        .map(|p| p.objective_vector())
        .collect();
    let hv_nsga = hypervolume_monte_carlo(&nsga_objs, &REFERENCE, 50_000, 1);

    let problem = AcimDesignProblem::new(16 * 1024, 16, 1024, params).expect("problem builds");
    let random = random_search(&problem, budget, 99);
    assert!(!random.is_empty(), "random search found nothing feasible");
    let hv_random = hypervolume_monte_carlo(&random.objectives(), &REFERENCE, 50_000, 1);

    // Both strategies must land in the same quality band on this small
    // space; NSGA-II must reach at least 80% of ground truth and must not
    // fall more than 10% behind random sampling.
    assert!(
        hv_nsga >= 0.80 * hv_exact,
        "NSGA-II at {budget} evaluations reached only {:.1}% of the exhaustive hypervolume",
        100.0 * hv_nsga / hv_exact
    );
    assert!(
        hv_nsga >= 0.90 * hv_random,
        "NSGA-II hypervolume {hv_nsga:.3e} fell more than 10% behind random search {hv_random:.3e}"
    );
}

/// A sanity check that the DSE problem wrapper is well-formed as a generic
/// MOGA problem (used by both NSGA-II and random search above).
#[test]
fn design_problem_reports_consistent_dimensions() {
    let problem = AcimDesignProblem::new(16 * 1024, 16, 1024, ModelParams::s28_default())
        .expect("problem builds");
    assert_eq!(problem.num_variables(), 3);
    assert_eq!(problem.num_objectives(), 4);
    let eval: Evaluation = problem.evaluate(&[0.5, 0.5, 0.2]);
    assert_eq!(eval.objectives.len(), 4);
}
