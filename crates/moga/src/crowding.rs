//! Crowding-distance assignment.
//!
//! NSGA-II preserves diversity inside a front by preferring individuals whose
//! neighbours (in objective space) are far away.  Boundary individuals of
//! each objective get an infinite distance so they always survive truncation.
//!
//! The classic loop stably sorts the front along each objective in turn,
//! reusing one order, and adds each member the span between its
//! neighbours.  The distances here are that loop's, bit for bit, but they
//! are computed over the front's distinct rows.  After objective `m` that
//! order lists members by (objective `m`, …, objective 0, position in the
//! front).  So each objective sorts R rows by (objective `m`, dense rank
//! under the objectives before), not N members.  Inside a run of equal
//! values every interior member adds `(v − v) / span = 0`.  Only the run's
//! first member (the least position in its first rank class) and last
//! member (the greatest position in its last class), or its only member,
//! get a real term.

use crate::dominance::{key_value, order_key, RowTable, SortedFronts, NAN_KEY};
use crate::individual::Individual;

/// Assigns the crowding distance to every individual referenced by `front`
/// (a list of indices into `population`).
///
/// The distance of an individual is the sum over objectives of the
/// normalised span between its two neighbours when the front is sorted along
/// that objective; extremes get `f64::INFINITY`.
pub fn assign_crowding_distance(population: &mut [Individual], front: &[usize]) {
    let mut crowding = Crowding::default();
    crowding.group(population, front);
    crowding.assign(population, front.iter().copied());
}

/// One run of equal values along an objective.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// The run's value.
    value: f64,
    /// How many members hold it.
    members: u32,
    /// The positions of its first and last member.
    first: u32,
    last: u32,
    /// The class, under the objectives before, of its first rows and of
    /// its last rows so far.
    first_class: u32,
    last_class: u32,
    /// The range of classes its rows now hold.
    classes: (u32, u32),
}

/// Crowding over the distinct rows of a front, with buffers kept from
/// front to front and from generation to generation.
#[derive(Debug, Default)]
pub(crate) struct Crowding {
    objectives: usize,
    /// The rows' objective order keys, `objectives` per row.
    keys: Vec<u64>,
    /// The row of every front position.
    row_of: Vec<u32>,
    /// Scratch for grouping and reordering.
    spare: Vec<u32>,
    table: RowTable,
    /// Per row: how many members, and the least and greatest position.
    count: Vec<u32>,
    first: Vec<u32>,
    last: Vec<u32>,
    /// Per row: the dense rank under the objectives sorted so far.
    class: Vec<u32>,
    /// (key, previous class, row) of every present row, packed so that
    /// one integer sort orders them.
    entries: Vec<u128>,
    runs: Vec<Run>,
    /// The crowding distance of every front position.
    distance: Vec<f64>,
}

impl Crowding {
    /// Groups `front`'s members into rows of equal objectives.
    fn group(&mut self, population: &[Individual], front: &[usize]) {
        self.objectives = front.first().map_or(0, |&i| population[i].objectives.len());
        assert!(
            front
                .iter()
                .all(|&i| population[i].objectives.len() == self.objectives),
            "objective vectors must have equal length"
        );
        if self.objectives == 0 {
            self.keys.clear();
            self.row_of.clear();
            self.row_of.resize(front.len(), 0);
            return;
        }
        self.table.group(
            front.len(),
            self.objectives,
            |c, keys| {
                for (key, &value) in keys.iter_mut().zip(population[front[c]].objectives.iter()) {
                    *key = order_key(value);
                }
            },
            &mut self.keys,
            &mut self.row_of,
        );
    }

    /// Takes front `k`'s rows from `sorted`, which already grouped them.
    pub(crate) fn load_front(&mut self, sorted: &SortedFronts, k: usize) {
        self.objectives = sorted.objectives();
        self.keys.clear();
        for &row in sorted.front_rows(k) {
            self.keys.extend_from_slice(sorted.objective_keys(row));
        }
        self.row_of.clear();
        self.row_of
            .extend(sorted.front(k).iter().map(|&i| sorted.local_row(i)));
    }

    /// Keeps the rows and reorders the front: its position `c` becomes
    /// the member that was at position `positions[c]`.
    pub(crate) fn reorder(&mut self, positions: impl IntoIterator<Item = usize>) {
        let Self { row_of, spare, .. } = self;
        spare.clear();
        spare.extend(positions.into_iter().map(|pos| row_of[pos]));
        std::mem::swap(row_of, spare);
    }

    /// The distance of every front position, from the last
    /// [`Crowding::assign`].
    pub(crate) fn distance(&self) -> &[f64] {
        &self.distance
    }

    /// Computes the crowding distances of the loaded front and assigns
    /// them to its members, the `c`-th of `front` taking position `c`'s.
    ///
    /// # Panics
    ///
    /// Panics if a front of three or more holds a NaN objective.
    pub(crate) fn assign(
        &mut self,
        population: &mut [Individual],
        front: impl IntoIterator<Item = usize>,
    ) {
        self.distances();
        for (i, &distance) in front.into_iter().zip(&self.distance) {
            population[i].crowding_distance = distance;
        }
    }

    fn distances(&mut self) {
        let Self {
            objectives,
            keys,
            row_of,
            count,
            first,
            last,
            class,
            entries,
            runs,
            distance,
            ..
        } = self;
        let objectives = *objectives;
        let positions = row_of.len();
        assert!(u32::try_from(positions).is_ok(), "fewer than 2³² members");
        distance.clear();
        if positions <= 2 {
            distance.resize(positions, f64::INFINITY);
            return;
        }
        distance.resize(positions, 0.0);
        if objectives == 0 {
            return;
        }
        let rows = keys.len() / objectives;
        count.clear();
        count.resize(rows, 0);
        first.clear();
        first.resize(rows, 0);
        last.clear();
        last.resize(rows, 0);
        for (pos, &row) in row_of.iter().enumerate() {
            let row = row as usize;
            if count[row] == 0 {
                first[row] = pos as u32;
            }
            count[row] += 1;
            last[row] = pos as u32;
        }
        class.clear();
        class.resize(rows, 0);
        for m in 0..objectives {
            entries.clear();
            for row in (0..rows).filter(|&row| count[row] > 0) {
                let key = keys[row * objectives + m];
                assert_ne!(key, NAN_KEY, "objective values must not be NaN");
                entries.push(u128::from(key) << 64 | u128::from(class[row]) << 32 | row as u128);
            }
            entries.sort_unstable();
            // Walk the rows in order: runs of equal key, and inside each
            // the classes of equal previous class, ranked densely.
            runs.clear();
            let mut classes = 0;
            let mut previous = None;
            for &entry in entries.iter() {
                let (key, before, row) = ((entry >> 64) as u64, (entry >> 32) as u32, entry as u32);
                let row = row as usize;
                let new_run = previous.is_none_or(|(k, _)| k != key);
                if new_run || previous.is_some_and(|(_, b)| b != before) {
                    classes += 1;
                }
                class[row] = classes;
                previous = Some((key, before));
                if new_run {
                    runs.push(Run {
                        value: key_value(key),
                        members: count[row],
                        first: first[row],
                        last: last[row],
                        first_class: before,
                        last_class: before,
                        classes: (classes, classes),
                    });
                    continue;
                }
                let run = runs.last_mut().expect("a run is open");
                run.members += count[row];
                run.classes.1 = classes;
                if before == run.first_class {
                    run.first = run.first.min(first[row]);
                }
                if before == run.last_class {
                    run.last = run.last.max(last[row]);
                } else {
                    run.last_class = before;
                    run.last = last[row];
                }
            }
            let (head, tail) = (runs[0], runs[runs.len() - 1]);
            distance[head.first as usize] = f64::INFINITY;
            distance[tail.last as usize] = f64::INFINITY;
            let span = tail.value - head.value;
            if span <= f64::EPSILON {
                // Degenerate objective: every solution has the same value, no
                // contribution to the distance.
                continue;
            }
            for (g, run) in runs.iter().enumerate() {
                let before = g.checked_sub(1).map(|h| runs[h].value);
                let after = runs.get(g + 1).map(|next| next.value);
                if run.members == 1 {
                    if let (Some(before), Some(after)) = (before, after) {
                        add(distance, run.first, (after - before) / span);
                    }
                    continue;
                }
                if let Some(before) = before {
                    add(distance, run.first, (run.value - before) / span);
                }
                if let Some(after) = after {
                    add(distance, run.last, (after - run.value) / span);
                }
                // An interior member's neighbours both hold the run's
                // value: its term is zero for a finite value and span, and
                // NaN otherwise, which the interior members add too.
                let (prev, next) = (run.value, run.value);
                let interior = (next - prev) / span;
                if run.members > 2 && interior != 0.0 {
                    let (lo, hi) = run.classes;
                    for pos in 0..positions as u32 {
                        let c = class[row_of[pos as usize] as usize];
                        if (lo..=hi).contains(&c) && pos != run.first && pos != run.last {
                            add(distance, pos, interior);
                        }
                    }
                }
            }
        }
    }
}

/// Adds `term` to the distance at `pos` unless that is no longer finite.
fn add(distance: &mut [f64], pos: u32, term: f64) {
    let d = &mut distance[pos as usize];
    if d.is_finite() {
        *d += term;
    }
}

/// The per-individual loop [`assign_crowding_distance`] replaces, kept as
/// its oracle.
#[cfg(test)]
pub(crate) fn assign_crowding_distance_reference(population: &mut [Individual], front: &[usize]) {
    if front.is_empty() {
        return;
    }
    for &i in front {
        population[i].crowding_distance = 0.0;
    }
    if front.len() <= 2 {
        for &i in front {
            population[i].crowding_distance = f64::INFINITY;
        }
        return;
    }
    let num_objectives = population[front[0]].objectives.len();
    let mut order: Vec<usize> = front.to_vec();
    for m in 0..num_objectives {
        order.sort_by(|&a, &b| {
            population[a].objectives[m]
                .partial_cmp(&population[b].objectives[m])
                .expect("objective values must not be NaN")
        });
        let min = population[order[0]].objectives[m];
        let max = population[*order.last().expect("front not empty")].objectives[m];
        let span = max - min;
        population[order[0]].crowding_distance = f64::INFINITY;
        population[*order.last().expect("front not empty")].crowding_distance = f64::INFINITY;
        if span <= f64::EPSILON {
            // Degenerate objective: every solution has the same value, no
            // contribution to the distance.
            continue;
        }
        for w in 1..order.len() - 1 {
            let prev = population[order[w - 1]].objectives[m];
            let next = population[order[w + 1]].objectives[m];
            let idx = order[w];
            if population[idx].crowding_distance.is_finite() {
                population[idx].crowding_distance += (next - prev) / span;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Evaluation;

    fn pop_from(objs: &[(f64, f64)]) -> Vec<Individual> {
        objs.iter()
            .map(|&(a, b)| Individual::new(vec![0.0], Evaluation::unconstrained(vec![a, b])))
            .collect()
    }

    #[test]
    fn extremes_get_infinite_distance() {
        let mut pop = pop_from(&[(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (4.0, 0.0)]);
        let front: Vec<usize> = (0..pop.len()).collect();
        assign_crowding_distance(&mut pop, &front);
        assert!(pop[0].crowding_distance.is_infinite());
        assert!(pop[4].crowding_distance.is_infinite());
        for ind in &pop[1..4] {
            assert!(ind.crowding_distance.is_finite());
            assert!(ind.crowding_distance > 0.0);
        }
    }

    #[test]
    fn evenly_spaced_points_have_equal_interior_distance() {
        let mut pop = pop_from(&[(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (4.0, 0.0)]);
        let front: Vec<usize> = (0..pop.len()).collect();
        assign_crowding_distance(&mut pop, &front);
        let d1 = pop[1].crowding_distance;
        let d2 = pop[2].crowding_distance;
        let d3 = pop[3].crowding_distance;
        assert!((d1 - d2).abs() < 1e-12);
        assert!((d2 - d3).abs() < 1e-12);
    }

    #[test]
    fn crowded_region_scores_lower() {
        // Points 1 and 2 are close together; point 3 is isolated.
        let mut pop = pop_from(&[(0.0, 10.0), (1.0, 5.0), (1.2, 4.8), (8.0, 1.0), (10.0, 0.0)]);
        let front: Vec<usize> = (0..pop.len()).collect();
        assign_crowding_distance(&mut pop, &front);
        assert!(pop[3].crowding_distance > pop[2].crowding_distance);
    }

    #[test]
    fn tiny_fronts_are_all_infinite() {
        let mut pop = pop_from(&[(1.0, 2.0), (2.0, 1.0)]);
        let front = vec![0, 1];
        assign_crowding_distance(&mut pop, &front);
        assert!(pop[0].crowding_distance.is_infinite());
        assert!(pop[1].crowding_distance.is_infinite());
    }

    #[test]
    fn degenerate_objective_does_not_produce_nan() {
        let mut pop = pop_from(&[(1.0, 5.0), (1.0, 3.0), (1.0, 1.0)]);
        let front = vec![0, 1, 2];
        assign_crowding_distance(&mut pop, &front);
        for ind in &pop {
            assert!(!ind.crowding_distance.is_nan());
        }
    }

    /// The crowding bits of every individual.
    fn crowding_bits(population: &[Individual]) -> Vec<u64> {
        population
            .iter()
            .map(|ind| ind.crowding_distance.to_bits())
            .collect()
    }

    #[test]
    fn row_crowding_matches_the_per_individual_oracle_on_perturbed_grids() {
        use crate::dominance::{perturbed_grid_population, shuffle, sort_fronts, SortedFronts};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x28_c0);
        // One set of buffers for every front, as a run keeps them.
        let (mut sorted, mut crowding) = (SortedFronts::default(), Crowding::default());
        for _ in 0..2000 {
            let n = rng.gen_range(1..=400usize);
            let m = rng.gen_range(1..=4usize);
            let mut population = perturbed_grid_population(&mut rng, n, m);
            // Each front as the sort lists it, through the sort's rows…
            sort_fronts(&mut population, &mut sorted);
            let mut oracle = population.clone();
            for k in 0..sorted.len() {
                crowding.load_front(&sorted, k);
                crowding.assign(&mut population, sorted.front(k).iter().copied());
                assign_crowding_distance_reference(&mut oracle, sorted.front(k));
            }
            assert_eq!(
                crowding_bits(&population),
                crowding_bits(&oracle),
                "n {n}, m {m}"
            );
            // …then shuffled, and the whole population as one front.
            let mut fronts: Vec<Vec<usize>> = sorted.fronts().map(<[usize]>::to_vec).collect();
            fronts.push((0..n).collect());
            for front in &mut fronts {
                shuffle(&mut rng, front);
                assign_crowding_distance(&mut population, front);
                assign_crowding_distance_reference(&mut oracle, front);
                assert_eq!(
                    crowding_bits(&population),
                    crowding_bits(&oracle),
                    "n {n}, m {m}, front {front:?}"
                );
            }
        }
    }

    #[test]
    fn infinite_runs_add_the_nan_interior_terms_the_loop_adds() {
        // Three members share +∞ in objective 0, and −∞ to +∞ makes the
        // span NaN: the loop gives every interior member a NaN term.
        let inf = f64::INFINITY;
        let mut pop = pop_from(&[(inf, 1.0), (inf, 2.0), (-inf, 3.0), (inf, 0.0), (1.0, 5.0)]);
        let front = vec![4, 0, 1, 2, 3];
        let mut oracle = pop.clone();
        assign_crowding_distance(&mut pop, &front);
        assign_crowding_distance_reference(&mut oracle, &front);
        assert_eq!(crowding_bits(&pop), crowding_bits(&oracle));
        assert!(pop.iter().any(|ind| ind.crowding_distance.is_nan()));
    }

    #[test]
    #[should_panic(expected = "objective values must not be NaN")]
    fn nan_objective_in_a_front_of_three_panics() {
        let mut pop = pop_from(&[(1.0, 2.0), (f64::NAN, 1.0), (0.0, 3.0)]);
        assign_crowding_distance(&mut pop, &[0, 1, 2]);
    }

    #[test]
    fn empty_front_is_a_no_op() {
        let mut pop = pop_from(&[(1.0, 2.0)]);
        assign_crowding_distance(&mut pop, &[]);
        assert_eq!(pop[0].crowding_distance, 0.0);
    }
}
