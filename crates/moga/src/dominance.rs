//! Pareto dominance and fast non-dominated sorting.
//!
//! Implements Equation 1 of the paper (Pareto dominance in a minimisation
//! context) plus Deb's constrained-domination extension and the fast
//! non-dominated sort from the original NSGA-II paper, run over the
//! population's distinct rows: a population of N individuals holding R
//! distinct (violation, objectives) rows costs O(M·R²) comparisons.

use crate::individual::Individual;

/// Returns `true` when objective vector `u` Pareto-dominates `v` in a
/// minimisation context: `u` is no worse in every objective and strictly
/// better in at least one (Equation 1 of the paper).
///
/// # Panics
///
/// Panics if the two vectors have different lengths or are empty.
pub fn dominates(u: &[f64], v: &[f64]) -> bool {
    assert_eq!(u.len(), v.len(), "objective vectors must have equal length");
    assert!(!u.is_empty(), "objective vectors must not be empty");
    let mut strictly_better = false;
    for (a, b) in u.iter().zip(v.iter()) {
        if a > b {
            return false;
        }
        if a < b {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Deb's constrained-domination rule:
///
/// 1. a feasible solution dominates any infeasible solution,
/// 2. between two infeasible solutions the one with the smaller constraint
///    violation dominates,
/// 3. between two feasible solutions ordinary Pareto dominance applies.
pub fn constrained_dominates(a: &Individual, b: &Individual) -> bool {
    match (a.is_feasible(), b.is_feasible()) {
        (true, false) => true,
        (false, true) => false,
        (false, false) => a.constraint_violation < b.constraint_violation,
        (true, true) => dominates(&a.objectives, &b.objectives),
    }
}

/// Fast non-dominated sort.  Assigns `rank` to every individual in
/// `population` and returns the fronts as index lists (front 0 first).
///
/// The sort uses [`constrained_dominates`], so infeasible individuals are
/// pushed to later fronts automatically.  Front 0 lists its members by
/// index; front `k + 1` lists its members by the position of their last
/// dominator in front `k`, then by index — the order Deb's counting
/// scheme produces.  Individuals no front reaches (only possible through
/// a NaN dominance cycle) appear in no front and keep their rank.
///
/// # Panics
///
/// Panics if the individuals' objective vectors differ in length.
pub fn fast_non_dominated_sort(population: &mut [Individual]) -> Vec<Vec<usize>> {
    sort_fronts(population).fronts
}

/// The fronts of a sorted population plus what a re-sort of its
/// survivors needs to order a cut front.
pub(crate) struct SortedFronts {
    /// The fronts as index lists, in [`fast_non_dominated_sort`] order.
    pub(crate) fronts: Vec<Vec<usize>>,
    /// For every individual of front `k + 1`, the position in front `k`
    /// of its last dominator; `0` in front 0 and outside every front.
    pub(crate) last_dominator: Vec<usize>,
}

/// [`fast_non_dominated_sort`] over the distinct rows of `population`.
///
/// Individuals whose violation and objectives are bit-identical share
/// every dominance relation and never dominate each other, so the
/// dominance pass runs once per pair of distinct rows, deciding both
/// directions in one comparison and recording the result in a bit
/// matrix.  The rows are peeled into fronts with the counting scheme, and
/// each front is expanded back to individuals in the order the scheme
/// gives them.
pub(crate) fn sort_fronts(population: &mut [Individual]) -> SortedFronts {
    let n = population.len();
    let stride = 1 + population.first().map_or(0, |ind| ind.objectives.len());
    assert!(
        population
            .iter()
            .all(|ind| ind.objectives.len() + 1 == stride),
        "objective vectors must have equal length"
    );
    // Group individuals by the bits of `[violation, objectives…]`.  The
    // stable sort leaves each row's members contiguous and in index
    // order: row q's members are `members[row_start[q]..row_start[q + 1]]`.
    let bits: Vec<u64> = population
        .iter()
        .flat_map(|ind| std::iter::once(&ind.constraint_violation).chain(ind.objectives.iter()))
        .map(|value| value.to_bits())
        .collect();
    let key = |i: usize| &bits[i * stride..(i + 1) * stride];
    let mut members: Vec<usize> = (0..n).collect();
    members.sort_by(|&a, &b| key(a).cmp(key(b)));
    let mut rows: Vec<f64> = Vec::new();
    let mut row_start: Vec<usize> = Vec::new();
    let mut row_of = vec![0usize; n];
    for (pos, &i) in members.iter().enumerate() {
        if pos == 0 || key(i) != key(members[pos - 1]) {
            row_start.push(pos);
            rows.extend(key(i).iter().map(|&b| f64::from_bits(b)));
        }
        row_of[i] = row_start.len() - 1;
    }
    let r = row_start.len();
    row_start.push(n);
    let members_of = |q: usize| &members[row_start[q]..row_start[q + 1]];

    // dominated[p * words + q / 64] bit q % 64: row p dominates row q.
    // dominated_by[q]: how many rows dominate row q.
    let words = r.div_ceil(64);
    let mut dominated = vec![0u64; r * words];
    let mut dominated_by = vec![0usize; r];
    for (p, a) in rows.chunks_exact(stride).enumerate() {
        for (q, b) in rows.chunks_exact(stride).enumerate().skip(p + 1) {
            match packed_dominance(a, b) {
                Some(true) => {
                    dominated[p * words + q / 64] |= 1 << (q % 64);
                    dominated_by[q] += 1;
                }
                Some(false) => {
                    dominated[q * words + p / 64] |= 1 << (p % 64);
                    dominated_by[p] += 1;
                }
                None => {}
            }
        }
    }

    // Peel the row fronts with the counting scheme.  Front 0 lists its
    // members by index; front k + 1 by the position of their last
    // dominator in front k, then by index.  `reach[q]` is the largest
    // `rank * n + position` over the peeled dominators of row q, so once
    // the last one is peeled it names that position in front k.
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut last_dominator = vec![0usize; n];
    let mut reach = vec![0usize; r];
    let mut last_pos = vec![0usize; r];
    let mut rows_now: Vec<usize> = (0..r).filter(|&q| dominated_by[q] == 0).collect();
    let mut front: Vec<usize> = rows_now
        .iter()
        .flat_map(|&q| members_of(q))
        .copied()
        .collect();
    front.sort_unstable();
    while !front.is_empty() {
        let rank = fronts.len();
        for (pos, &i) in front.iter().enumerate() {
            population[i].rank = rank;
            last_pos[row_of[i]] = pos;
        }
        let mut rows_next = Vec::new();
        for &p in &rows_now {
            let reached = rank * n + last_pos[p];
            for (w, &word) in dominated[p * words..(p + 1) * words].iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let q = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    reach[q] = reach[q].max(reached);
                    dominated_by[q] -= 1;
                    if dominated_by[q] == 0 {
                        rows_next.push(q);
                    }
                }
            }
        }
        let mut next: Vec<usize> = rows_next
            .iter()
            .flat_map(|&q| members_of(q))
            .copied()
            .collect();
        for &i in &next {
            last_dominator[i] = reach[row_of[i]] - rank * n;
        }
        next.sort_unstable_by_key(|&i| (last_dominator[i], i));
        fronts.push(front);
        front = next;
        rows_now = rows_next;
    }
    SortedFronts {
        fronts,
        last_dominator,
    }
}

/// [`constrained_dominates`] in both directions over two packed rows
/// `[violation, objectives…]`: `Some(true)` when `a` dominates `b`,
/// `Some(false)` when `b` dominates `a`, `None` when neither does.
fn packed_dominance(a: &[f64], b: &[f64]) -> Option<bool> {
    match (a[0] == 0.0, b[0] == 0.0) {
        (true, false) => Some(true),
        (false, true) => Some(false),
        (false, false) if a[0] < b[0] => Some(true),
        (false, false) if b[0] < a[0] => Some(false),
        (false, false) => None,
        (true, true) => {
            let (mut better, mut worse) = (false, false);
            for (x, y) in a[1..].iter().zip(&b[1..]) {
                better |= x < y;
                worse |= x > y;
            }
            match (better, worse) {
                (true, false) => Some(true),
                (false, true) => Some(false),
                _ => None,
            }
        }
    }
}

/// The per-individual O(M·N²) sort, kept as the oracle of
/// [`fast_non_dominated_sort`].
#[cfg(test)]
pub(crate) fn fast_non_dominated_sort_reference(population: &mut [Individual]) -> Vec<Vec<usize>> {
    let n = population.len();
    if n == 0 {
        return Vec::new();
    }
    // dominated_by[i]: how many individuals dominate i.
    // dominates_set[i]: indices that i dominates.
    let mut dominated_by = vec![0usize; n];
    let mut dominates_set: Vec<Vec<usize>> = vec![Vec::new(); n];

    for i in 0..n {
        for j in (i + 1)..n {
            if constrained_dominates(&population[i], &population[j]) {
                dominates_set[i].push(j);
                dominated_by[j] += 1;
            } else if constrained_dominates(&population[j], &population[i]) {
                dominates_set[j].push(i);
                dominated_by[i] += 1;
            }
        }
    }

    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    let mut rank = 0;
    while !current.is_empty() {
        for &i in &current {
            population[i].rank = rank;
        }
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominates_set[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(current);
        current = next;
        rank += 1;
    }
    fronts
}

/// A seeded random population for the oracle tests: `n` individuals with
/// `m` objectives drawn from a five-level grid, so ties and duplicate rows
/// are common, and about a quarter of them infeasible with violations
/// drawn from three levels.
#[cfg(test)]
pub(crate) fn grid_population(rng: &mut rand::rngs::StdRng, n: usize, m: usize) -> Vec<Individual> {
    use crate::problem::Evaluation;
    use rand::Rng;
    (0..n)
        .map(|i| {
            let objectives: Vec<f64> = (0..m).map(|_| f64::from(rng.gen_range(0u32..5))).collect();
            let violation = if rng.gen_bool(0.25) {
                f64::from(rng.gen_range(1u32..4)) / 2.0
            } else {
                0.0
            };
            Individual::new(vec![i as f64], Evaluation::new(objectives, violation))
        })
        .collect()
}

/// Extracts the non-dominated subset of a set of objective vectors
/// (indices into `points`), using plain Pareto dominance.
pub fn non_dominated_indices(points: &[Vec<f64>]) -> Vec<usize> {
    let mut result = Vec::new();
    'outer: for (i, p) in points.iter().enumerate() {
        for (j, q) in points.iter().enumerate() {
            if i != j && dominates(q, p) {
                continue 'outer;
            }
        }
        result.push(i);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Evaluation;

    fn ind(objs: Vec<f64>, violation: f64) -> Individual {
        Individual::new(vec![0.0], Evaluation::new(objs, violation))
    }

    #[test]
    fn dominance_basic_cases() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0])); // trade-off
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0])); // equal: not strict
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn dominance_length_mismatch_panics() {
        let _ = dominates(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn constrained_dominance_prefers_feasible() {
        let feasible = ind(vec![10.0, 10.0], 0.0);
        let infeasible = ind(vec![0.0, 0.0], 1.0);
        assert!(constrained_dominates(&feasible, &infeasible));
        assert!(!constrained_dominates(&infeasible, &feasible));
    }

    #[test]
    fn constrained_dominance_ranks_infeasible_by_violation() {
        let a = ind(vec![5.0], 1.0);
        let b = ind(vec![1.0], 2.0);
        assert!(constrained_dominates(&a, &b));
        assert!(!constrained_dominates(&b, &a));
    }

    #[test]
    fn sort_produces_expected_fronts() {
        // Points: (1,1) dominates everything; (2,3) and (3,2) are mutually
        // non-dominated; (4,4) is dominated by all.
        let mut pop = vec![
            ind(vec![2.0, 3.0], 0.0),
            ind(vec![1.0, 1.0], 0.0),
            ind(vec![3.0, 2.0], 0.0),
            ind(vec![4.0, 4.0], 0.0),
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts.len(), 3);
        assert_eq!(fronts[0], vec![1]);
        let mut f1 = fronts[1].clone();
        f1.sort_unstable();
        assert_eq!(f1, vec![0, 2]);
        assert_eq!(fronts[2], vec![3]);
        assert_eq!(pop[1].rank, 0);
        assert_eq!(pop[0].rank, 1);
        assert_eq!(pop[3].rank, 2);
    }

    #[test]
    fn sort_handles_empty_population() {
        let mut pop: Vec<Individual> = Vec::new();
        assert!(fast_non_dominated_sort(&mut pop).is_empty());
    }

    #[test]
    fn sort_pushes_infeasible_to_later_fronts() {
        let mut pop = vec![
            ind(vec![0.0, 0.0], 5.0), // infeasible even though objectives are best
            ind(vec![3.0, 3.0], 0.0),
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts[0], vec![1]);
        assert_eq!(fronts[1], vec![0]);
    }

    #[test]
    fn non_dominated_indices_extracts_front() {
        let points = vec![
            vec![1.0, 5.0],
            vec![2.0, 2.0],
            vec![5.0, 1.0],
            vec![4.0, 4.0],
        ];
        let nd = non_dominated_indices(&points);
        assert_eq!(nd, vec![0, 1, 2]);
    }

    /// Runs both sorts on copies of `population` and checks they agree on
    /// the fronts, in order, and on every rank.
    fn assert_matches_reference(population: &[Individual]) {
        let mut fast = population.to_vec();
        let mut reference = population.to_vec();
        let fronts = fast_non_dominated_sort(&mut fast);
        assert_eq!(fronts, fast_non_dominated_sort_reference(&mut reference));
        let ranks = |pop: &[Individual]| pop.iter().map(|ind| ind.rank).collect::<Vec<_>>();
        assert_eq!(ranks(&fast), ranks(&reference));
    }

    #[test]
    fn distinct_row_sort_matches_the_reference_on_random_grids() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x50_27);
        for _ in 0..1000 {
            let n = rng.gen_range(1..=400usize);
            let m = rng.gen_range(1..=4usize);
            assert_matches_reference(&grid_population(&mut rng, n, m));
        }
    }

    #[test]
    fn nan_dominance_cycle_stays_out_of_every_front() {
        // a ≺ b ≺ c ≺ a through the NaN gaps, and d dominates all three:
        // no cycle member ever reaches a zero dominator count.
        let nan = f64::NAN;
        let mut pop = vec![
            ind(vec![1.0, nan, 3.0], 0.0),
            ind(vec![2.0, 1.0, nan], 0.0),
            ind(vec![nan, 2.0, 1.0], 0.0),
            ind(vec![0.0, 0.0, 0.0], 0.0),
        ];
        assert_matches_reference(&pop);
        assert_eq!(fast_non_dominated_sort(&mut pop), vec![vec![3]]);
        assert!(pop[..3].iter().all(|ind| ind.rank == usize::MAX));
    }

    #[test]
    fn every_individual_is_assigned_exactly_one_front() {
        let mut pop: Vec<Individual> = (0..25)
            .map(|i| {
                let x = f64::from(i) / 24.0;
                ind(vec![x, 1.0 - x + (f64::from(i % 5)) * 0.1], 0.0)
            })
            .collect();
        let fronts = fast_non_dominated_sort(&mut pop);
        let total: usize = fronts.iter().map(Vec::len).sum();
        assert_eq!(total, pop.len());
        for ind in &pop {
            assert_ne!(ind.rank, usize::MAX);
        }
    }
}
