//! Pareto dominance and fast non-dominated sorting.
//!
//! Implements Equation 1 of the paper (Pareto dominance in a minimisation
//! context) plus Deb's constrained-domination extension and the fast
//! non-dominated sort from the original NSGA-II paper, run over the
//! population's distinct rows.  A population of N individuals holding R
//! distinct (violation, objectives) rows is hashed into rows in O(N·M).
//! No pair of rows is compared on its own: per objective, one sort of the
//! feasible rows gives every row the set of rows at or above it, and the
//! AND of those bitsets is the set it dominates.  That costs
//! O(M·R·log R) for the sorts and O(M·R²/64) word operations, and the
//! fronts are peeled in time proportional to the dominance relations.

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
    let mut sorted = SortedFronts::default();
    sort_fronts(population, &mut sorted);
    sorted.fronts().map(<[usize]>::to_vec).collect()
}

/// The key every NaN maps to under [`order_key`].
pub(crate) const NAN_KEY: u64 = u64::MAX;

/// The order key of a value: keys compare as integers exactly as values
/// compare under `partial_cmp`.  `-0.0` and `0.0` share a key, and every
/// NaN maps to [`NAN_KEY`], above the key of `+∞`.
pub(crate) fn order_key(value: f64) -> u64 {
    if value.is_nan() {
        return NAN_KEY;
    }
    // `-0.0 + 0.0` is `0.0`; every other value is unchanged.  Negative
    // values flip all their bits, the others only the sign bit.
    let bits = (value + 0.0).to_bits();
    bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)
}

/// The value an [`order_key`] stands for (`0.0` for both zeros).
pub(crate) fn key_value(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key ^ 1 << 63 } else { !key })
}

/// The key of a constraint violation: `0` for a feasible one (no
/// [`order_key`] is `0`), so feasible rows sort first, then the order key.
fn violation_key(violation: f64) -> u64 {
    if violation == 0.0 {
        0
    } else {
        order_key(violation)
    }
}

/// An open-addressing hash table that numbers the distinct rows of a
/// list of keys.
#[derive(Debug, Default)]
pub(crate) struct RowTable {
    /// Row number per slot, [`RowTable::EMPTY`] where free.
    slots: Vec<u32>,
    /// The keys of the item being grouped.
    item: Vec<u64>,
}

impl RowTable {
    const EMPTY: u32 = u32::MAX;

    /// Numbers the distinct rows of `n` items in order of first
    /// appearance.  `fill_keys(i, keys)` writes item `i`'s `stride ≥ 1`
    /// keys.  `rows` receives each distinct row's keys, `row_of` each
    /// item's row number.
    pub(crate) fn group(
        &mut self,
        n: usize,
        stride: usize,
        mut fill_keys: impl FnMut(usize, &mut [u64]),
        rows: &mut Vec<u64>,
        row_of: &mut Vec<u32>,
    ) {
        rows.clear();
        row_of.clear();
        row_of.reserve(n);
        self.item.clear();
        self.item.resize(stride, 0);
        // At most half full, so probe runs stay short.
        let bits = (2 * n).max(2).next_power_of_two().trailing_zeros();
        let mask = (1 << bits) - 1;
        self.slots.clear();
        self.slots.resize(mask + 1, Self::EMPTY);
        for i in 0..n {
            fill_keys(i, &mut self.item);
            let item = &self.item[..];
            // Independent multiplies, then one that mixes every key into
            // the high bits, which the slot takes.
            let hash = item
                .iter()
                .fold(0u64, |hash, &key| {
                    hash.rotate_left(26) ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                })
                .wrapping_mul(0x517c_c1b7_2722_0a95);
            let mut slot = (hash >> (64 - bits)) as usize;
            let row = loop {
                let row = self.slots[slot];
                if row == Self::EMPTY {
                    let row = u32::try_from(rows.len() / stride).expect("fewer than 2³² rows");
                    self.slots[slot] = row;
                    rows.extend_from_slice(item);
                    break row;
                }
                let known = &rows[row as usize * stride..][..stride];
                if known.iter().zip(item).all(|(a, b)| a == b) {
                    break row;
                }
                slot = (slot + 1) & mask;
            };
            row_of.push(row);
        }
    }
}

/// Sets bits `lo..hi` of `bits`.
fn set_bits(bits: &mut [u64], lo: usize, hi: usize) {
    let mut q = lo;
    while q < hi {
        let end = hi.min((q / 64 + 1) * 64);
        bits[q / 64] |= (u64::MAX >> (64 - (end - q))) << (q % 64);
        q = end;
    }
}

/// The fronts of a sorted population, with what crowding and a re-sort of
/// the survivors need.  Its buffers are kept from sort to sort, so a run
/// that sorts every generation allocates them once.
#[derive(Debug, Default)]
pub(crate) struct SortedFronts {
    /// Keys per row: the violation's, then each objective's.
    stride: usize,
    table: RowTable,
    /// The distinct rows' keys in order of first appearance, and the
    /// number each takes in presort order.
    first_seen: Vec<u64>,
    renumber: Vec<u32>,
    /// The distinct rows' keys in presort order: by violation key, rows
    /// holding a NaN last.  Rows are numbered in this order.
    keys: Vec<u64>,
    /// The row of every individual.
    row_of: Vec<u32>,
    /// Row `q`'s members, by index, are
    /// `by_row[by_row_start[q]..by_row_start[q + 1]]`.
    by_row: Vec<usize>,
    by_row_start: Vec<usize>,
    /// Bit `q` of row `p`'s `words` words is set when `p` dominates `q`.
    dominated: Vec<u64>,
    /// (key, item) pairs sorted by key: the rows by violation, the
    /// feasible rows by one objective, then a front's members by their
    /// last dominator.  `suffix` holds the rows whose key is at least the
    /// current one's.
    by_key: Vec<u128>,
    suffix: Vec<u64>,
    /// A front's members as (last dominator, index) pairs, packed.
    packed: Vec<u64>,
    /// How many rows dominate each row, counted down as fronts peel.
    dominated_by: Vec<u32>,
    /// Per row: the largest `rank * n + position` over its peeled
    /// dominators, and the position of its last member in its front.
    reach: Vec<usize>,
    last_pos: Vec<usize>,
    /// The fronts' members, front after front: front `k` is
    /// `members[front_start[k]..front_start[k + 1]]`.
    members: Vec<usize>,
    front_start: Vec<usize>,
    /// The fronts' rows, front after front, delimited by `rows_start`;
    /// `local[q]` is row `q`'s index among its front's rows.
    rows: Vec<u32>,
    rows_start: Vec<usize>,
    local: Vec<u32>,
    /// Per row of front `k + 1`: the position in front `k` of its last
    /// dominator; `0` in front 0 and outside every front.
    last_dominator: Vec<usize>,
}

impl SortedFronts {
    /// The number of fronts.
    pub(crate) fn len(&self) -> usize {
        self.front_start.len().saturating_sub(1)
    }

    /// Front `k`, as indices in [`fast_non_dominated_sort`] order.
    pub(crate) fn front(&self, k: usize) -> &[usize] {
        &self.members[self.front_start[k]..self.front_start[k + 1]]
    }

    /// Every front, front 0 first.
    pub(crate) fn fronts(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.len()).map(|k| self.front(k))
    }

    /// For individual `i` of front `k + 1`, the position in front `k` of
    /// its last dominator; `0` in front 0 and outside every front.
    pub(crate) fn last_dominator(&self, i: usize) -> usize {
        self.last_dominator[self.row_of[i] as usize]
    }

    /// The number of objectives.
    pub(crate) fn objectives(&self) -> usize {
        self.stride - 1
    }

    /// The rows of front `k`; a row's index here is its
    /// [`SortedFronts::local_row`].
    pub(crate) fn front_rows(&self, k: usize) -> &[u32] {
        &self.rows[self.rows_start[k]..self.rows_start[k + 1]]
    }

    /// The index of individual `i`'s row among its front's rows.
    pub(crate) fn local_row(&self, i: usize) -> u32 {
        self.local[self.row_of[i] as usize]
    }

    /// The objective keys of `row`.
    pub(crate) fn objective_keys(&self, row: u32) -> &[u64] {
        let start = row as usize * self.stride;
        &self.keys[start + 1..start + self.stride]
    }
}

/// [`fast_non_dominated_sort`] over the distinct rows of `population`,
/// into `sorted`'s buffers.
///
/// Individuals whose violation and objectives compare equal share every
/// dominance relation and never dominate each other, so they are hashed
/// into one row.  The rows are presorted by violation: feasible rows
/// first, then infeasible rows by violation, rows holding a NaN last.  A
/// feasible row dominates every infeasible row and every other feasible
/// row that is no better in any objective: the AND, over objectives, of
/// the feasible rows at or above it in that objective's order.  An
/// infeasible row dominates every row of larger violation.  Rows holding
/// a NaN are compared both ways with [`constrained_dominates`].  The rows
/// are peeled into fronts with the counting scheme, and each front is
/// expanded back to individuals in the order the scheme gives them.
pub(crate) fn sort_fronts(population: &mut [Individual], sorted: &mut SortedFronts) {
    let n = population.len();
    let objectives = population.first().map_or(0, |ind| ind.objectives.len());
    assert!(
        population
            .iter()
            .all(|ind| ind.objectives.len() == objectives),
        "objective vectors must have equal length"
    );
    assert!(u32::try_from(n).is_ok(), "fewer than 2³² individuals");
    let stride = 1 + objectives;
    let SortedFronts {
        stride: sorted_stride,
        table,
        first_seen,
        renumber,
        keys,
        row_of,
        by_row,
        by_row_start,
        dominated,
        by_key,
        suffix,
        packed,
        dominated_by,
        reach,
        last_pos,
        members,
        front_start,
        rows,
        rows_start,
        local,
        last_dominator,
    } = sorted;
    *sorted_stride = stride;

    table.group(
        n,
        stride,
        |i, keys| {
            let ind = &population[i];
            keys[0] = violation_key(ind.constraint_violation);
            for (key, &value) in keys[1..].iter_mut().zip(ind.objectives.iter()) {
                *key = order_key(value);
            }
        },
        first_seen,
        row_of,
    );
    let r = first_seen.len() / stride;

    // Presort the rows by violation, rows holding a NaN last, and
    // renumber them in that order.  Feasible rows (key 0) keep their
    // order of first appearance, so only the others need sorting.
    let seen = |q: usize| &first_seen[q * stride..][..stride];
    let presort_key = |q: usize| {
        if seen(q).contains(&NAN_KEY) {
            NAN_KEY
        } else {
            seen(q)[0]
        }
    };
    by_key.clear();
    by_key.reserve(n);
    by_key.extend((0..r).filter(|&q| presort_key(q) == 0).map(|q| q as u128));
    let feasible = by_key.len();
    by_key.extend(
        (0..r)
            .filter(|&q| presort_key(q) != 0)
            .map(|q| u128::from(presort_key(q)) << 64 | q as u128),
    );
    by_key[feasible..].sort_unstable();
    let plain = by_key.partition_point(|&entry| entry >> 64 != u128::from(NAN_KEY));
    keys.clear();
    keys.reserve(r * stride);
    renumber.clear();
    renumber.resize(r, 0);
    for (new, &entry) in by_key.iter().enumerate() {
        keys.extend_from_slice(seen(entry as usize));
        renumber[entry as usize] = new as u32;
    }
    let row = |q: usize| &keys[q * stride..(q + 1) * stride];

    // Each row's members by index: count while renumbering, sum to row
    // ends, then fill each row from its end walking the individuals
    // backwards.
    by_row_start.clear();
    by_row_start.resize(r + 1, 0);
    for q in row_of.iter_mut() {
        *q = renumber[*q as usize];
        by_row_start[*q as usize] += 1;
    }
    let mut end = 0;
    for start in by_row_start.iter_mut() {
        end += *start;
        *start = end;
    }
    by_row.clear();
    by_row.resize(n, 0);
    for (i, &q) in row_of.iter().enumerate().rev() {
        by_row_start[q as usize] -= 1;
        by_row[by_row_start[q as usize]] = i;
    }

    let words = r.div_ceil(64);
    dominated.clear();
    dominated.resize(r * words, 0);
    let bits = |p: usize| p * words..(p + 1) * words;
    // A feasible row dominates every infeasible row and every other
    // feasible row that is no better in any objective: per objective, a
    // suffix of the feasible rows ordered by its key.
    for p in 0..feasible {
        set_bits(&mut dominated[bits(p)], 0, plain);
    }
    for m in 1..stride {
        by_key.clear();
        by_key.extend((0..feasible).map(|q| u128::from(row(q)[m]) << 64 | q as u128));
        by_key.sort_unstable();
        suffix.clear();
        suffix.resize(words, 0);
        set_bits(suffix, feasible, plain);
        let mut hi = feasible;
        while hi > 0 {
            let key = by_key[hi - 1] >> 64;
            let lo = by_key[..hi]
                .iter()
                .rposition(|&entry| entry >> 64 != key)
                .map_or(0, |last| last + 1);
            for &entry in &by_key[lo..hi] {
                set_bits(suffix, entry as usize, entry as usize + 1);
            }
            for &entry in &by_key[lo..hi] {
                for (word, &at_least) in dominated[bits(entry as usize)].iter_mut().zip(&*suffix) {
                    *word &= at_least;
                }
            }
            hi = lo;
        }
    }
    for p in 0..feasible {
        dominated[p * words + p / 64] &= !(1 << (p % 64));
    }
    // An infeasible row dominates every row of larger violation.
    let mut run = feasible;
    while run < plain {
        let next = (run..plain)
            .find(|&q| row(q)[0] != row(run)[0])
            .unwrap_or(plain);
        for p in run..next {
            set_bits(&mut dominated[bits(p)], next, plain);
        }
        run = next;
    }
    // Rows holding a NaN, through a member of each.
    for q in plain..r {
        let b = &population[by_row[by_row_start[q]]];
        for p in 0..q {
            let a = &population[by_row[by_row_start[p]]];
            if constrained_dominates(a, b) {
                set_bits(&mut dominated[bits(p)], q, q + 1);
            } else if constrained_dominates(b, a) {
                set_bits(&mut dominated[bits(q)], p, p + 1);
            }
        }
    }
    dominated_by.clear();
    dominated_by.resize(r, 0);
    for p in 0..r {
        for (w, &word) in dominated[bits(p)].iter().enumerate() {
            let mut word = word;
            while word != 0 {
                dominated_by[w * 64 + word.trailing_zeros() as usize] += 1;
                word &= word - 1;
            }
        }
    }

    // Peel the row fronts with the counting scheme.  Front 0 lists its
    // members by index; front k + 1 by the position of their last
    // dominator in front k, then by index.  `reach[q]` is the largest
    // `rank * n + position` over the peeled dominators of row q, so once
    // the last one is peeled it names that position in front k.
    reach.clear();
    reach.resize(r, 0);
    last_pos.clear();
    last_pos.resize(r, 0);
    local.clear();
    local.resize(r, 0);
    last_dominator.clear();
    last_dominator.resize(r, 0);
    rows.clear();
    rows.reserve(r);
    rows_start.clear();
    rows_start.push(0);
    for q in 0..r {
        if dominated_by[q] == 0 {
            local[q] = rows.len() as u32;
            rows.push(q as u32);
        }
    }
    members.clear();
    members.reserve(n);
    members.extend((0..n).filter(|&i| dominated_by[row_of[i] as usize] == 0));
    front_start.clear();
    front_start.push(0);
    loop {
        let rank = front_start.len() - 1;
        let start = front_start[rank];
        if start == members.len() {
            break;
        }
        for (pos, &i) in members[start..].iter().enumerate() {
            population[i].rank = rank;
            last_pos[row_of[i] as usize] = pos;
        }
        front_start.push(members.len());
        let (row_lo, row_hi) = (rows_start[rank], rows.len());
        rows_start.push(row_hi);
        for j in row_lo..row_hi {
            let p = rows[j] as usize;
            let reached = rank * n + last_pos[p];
            for (w, &word) in dominated[p * words..(p + 1) * words].iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let q = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    reach[q] = reach[q].max(reached);
                    dominated_by[q] -= 1;
                    if dominated_by[q] == 0 {
                        local[q] = (rows.len() - row_hi) as u32;
                        rows.push(q as u32);
                    }
                }
            }
        }
        packed.clear();
        for &q in &rows[row_hi..] {
            let q = q as usize;
            last_dominator[q] = reach[q] - rank * n;
            let key = (last_dominator[q] as u64) << 32;
            packed.extend(
                by_row[by_row_start[q]..by_row_start[q + 1]]
                    .iter()
                    .map(|&i| key | i as u64),
            );
        }
        packed.sort_unstable();
        members.extend(packed.iter().map(|&entry| entry as u32 as usize));
    }
}

/// The fronts of a sorted population plus what a re-sort of its
/// survivors needs to order a cut front, as [`sort_fronts_reference`]
/// returns them.
#[cfg(test)]
pub(crate) struct ReferenceFronts {
    /// The fronts as index lists, in [`fast_non_dominated_sort`] order.
    pub(crate) fronts: Vec<Vec<usize>>,
    /// For every individual of front `k + 1`, the position in front `k`
    /// of its last dominator; `0` in front 0 and outside every front.
    pub(crate) last_dominator: Vec<usize>,
}

/// The sort over distinct rows that [`sort_fronts`] replaces, kept as its
/// oracle: individuals grouped into rows by a stable sort of their bits,
/// every pair of distinct rows compared in both directions into a bit
/// matrix, and the rows peeled with the same counting scheme.
#[cfg(test)]
pub(crate) fn sort_fronts_reference(population: &mut [Individual]) -> ReferenceFronts {
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
    ReferenceFronts {
        fronts,
        last_dominator,
    }
}

/// [`constrained_dominates`] in both directions over two packed rows
/// `[violation, objectives…]`: `Some(true)` when `a` dominates `b`,
/// `Some(false)` when `b` dominates `a`, `None` when neither does.
#[cfg(test)]
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

/// A [`grid_population`] with its grid broken up: some objective values
/// set to `-0.0` or to `±∞`, some negated and some offset by a random
/// fraction, and some feasible violations written as `-0.0`.
#[cfg(test)]
pub(crate) fn perturbed_grid_population(
    rng: &mut rand::rngs::StdRng,
    n: usize,
    m: usize,
) -> Vec<Individual> {
    use rand::Rng;
    let mut population = grid_population(rng, n, m);
    for ind in &mut population {
        for value in ind.objectives.iter_mut() {
            match rng.gen_range(0..40u32) {
                0..=3 if *value == 0.0 => *value = -0.0,
                4..=7 => *value = -*value,
                8..=11 => *value += rng.gen::<f64>(),
                12 => *value = f64::INFINITY,
                13 => *value = f64::NEG_INFINITY,
                _ => {}
            }
        }
        if ind.constraint_violation == 0.0 && rng.gen_bool(0.1) {
            ind.constraint_violation = -0.0;
        }
    }
    population
}

/// Shuffles `items` in place (Fisher–Yates).
#[cfg(test)]
pub(crate) fn shuffle<T>(rng: &mut rand::rngs::StdRng, items: &mut [T]) {
    use rand::Rng;
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
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
    fn bitset_sort_matches_the_distinct_row_oracle_on_perturbed_grids() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x28_50);
        // One set of buffers for every sort, as a run keeps them.
        let mut sorted = SortedFronts::default();
        for _ in 0..2000 {
            let n = rng.gen_range(1..=400usize);
            let m = rng.gen_range(1..=4usize);
            let population = perturbed_grid_population(&mut rng, n, m);
            let mut fast = population.clone();
            let mut oracle = population;
            sort_fronts(&mut fast, &mut sorted);
            let expected = sort_fronts_reference(&mut oracle);
            let fronts: Vec<Vec<usize>> = sorted.fronts().map(<[usize]>::to_vec).collect();
            assert_eq!(fronts, expected.fronts, "n {n}, m {m}");
            let last_dominator: Vec<usize> = (0..n).map(|i| sorted.last_dominator(i)).collect();
            assert_eq!(last_dominator, expected.last_dominator, "n {n}, m {m}");
            let ranks = |pop: &[Individual]| pop.iter().map(|ind| ind.rank).collect::<Vec<_>>();
            assert_eq!(ranks(&fast), ranks(&oracle), "n {n}, m {m}");
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
