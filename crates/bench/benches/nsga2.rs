//! Criterion bench of the NSGA-II engine in isolation (Section 3.2.2) and
//! of its building blocks (fast non-dominated sort, crowding), plus the
//! random-search baseline with the same evaluation budget — the runtime
//! side of the optimiser-quality ablation reported in
//! `tests/ablation_nsga2.rs`.

use acim_bench::interleaved_medians;
use acim_moga::{
    assign_crowding_distance, fast_non_dominated_sort, random_search, Evaluation, Individual,
    Nsga2, Nsga2Config, Problem,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Turns per case in each interleaved pass of a CI-gated pair of rows.
const TURNS: usize = 256;

/// ZDT1 benchmark problem used widely in the MOGA literature.
struct Zdt1 {
    variables: usize,
}

impl Problem for Zdt1 {
    fn num_variables(&self) -> usize {
        self.variables
    }
    fn num_objectives(&self) -> usize {
        2
    }
    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        let f1 = genes[0];
        let g = 1.0 + 9.0 * genes[1..].iter().sum::<f64>() / (genes.len() - 1) as f64;
        Evaluation::unconstrained(vec![f1, g * (1.0 - (f1 / g).sqrt())])
    }
}

/// A seeded 400-individual, 4-objective population over `distinct` rows
/// drawn uniformly from `[0, 1)^4`, every sixteenth of them infeasible
/// with the same violation.  The first `distinct` individuals hold one
/// row each and the rest repeat rows drawn at random — the shape of a
/// paper-budget combined population, which holds about 130 distinct rows.
fn population_400(distinct: usize) -> Vec<Individual> {
    let mut rng = StdRng::seed_from_u64(0x400);
    let rows: Vec<(Vec<f64>, f64)> = (0..distinct)
        .map(|r| {
            let objectives = (0..4).map(|_| rng.gen::<f64>()).collect();
            (objectives, if r % 16 == 0 { 1.0 } else { 0.0 })
        })
        .collect();
    (0..400)
        .map(|i| {
            let (objectives, violation) = if i < distinct {
                &rows[i]
            } else {
                &rows[rng.gen_range(0..distinct)]
            };
            Individual::new(
                vec![i as f64],
                Evaluation::new(objectives.clone(), *violation),
            )
        })
        .collect()
}

fn nsga2_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("nsga2");
    group.sample_size(10);

    for &(population, generations) in &[(40usize, 20usize), (80, 40)] {
        group.bench_with_input(
            BenchmarkId::new("zdt1", format!("{population}x{generations}")),
            &(population, generations),
            |b, &(population, generations)| {
                let config = Nsga2Config {
                    population_size: population,
                    generations,
                    ..Default::default()
                };
                b.iter(|| {
                    let result = Nsga2::new(Zdt1 { variables: 8 }, config.clone())
                        .with_seed(7)
                        .run();
                    black_box(result.pareto_front().len())
                });
            },
        );
    }

    group.bench_function("random_search_same_budget", |b| {
        b.iter(|| black_box(random_search(&Zdt1 { variables: 8 }, 40 * 21, 7).len()))
    });

    group.bench_function("fast_non_dominated_sort_500", |b| {
        let population: Vec<Individual> = (0..500)
            .map(|i| {
                let x = f64::from(i) / 499.0;
                Individual::new(
                    vec![x],
                    Evaluation::unconstrained(vec![x, 1.0 - x + f64::from(i % 7) * 0.01]),
                )
            })
            .collect();
        b.iter(|| {
            let mut pop = population.clone();
            black_box(fast_non_dominated_sort(&mut pop).len())
        });
    });
    // The paper-budget shape (about 130 distinct rows) against 400
    // distinct rows: the sort, then the crowding of all 400 members as one
    // front, each pair measured in its own interleaved pass.
    let cases = [population_400(130), population_400(400)];
    let all: Vec<usize> = (0..400).collect();
    let sort = interleaved_medians(&cases, TURNS, |population| {
        black_box(fast_non_dominated_sort(population).len());
    });
    let crowding = interleaved_medians(&cases, TURNS, |population| {
        assign_crowding_distance(population, &all);
        black_box(population[0].crowding_distance);
    });
    for (pair, medians) in [
        ("fast_non_dominated_sort_400", sort),
        ("crowding_400", crowding),
    ] {
        for (case, median) in ["duplicates", "distinct"].into_iter().zip(medians) {
            group.bench_function(format!("{pair}_{case}"), |b| b.iter_custom(|_| median));
        }
    }
    group.finish();
}

criterion_group!(benches, nsga2_bench);
criterion_main!(benches);
