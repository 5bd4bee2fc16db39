//! # acim-bench
//!
//! The experiment harness of the EasyACIM reproduction.
//!
//! Every table and figure of the paper's evaluation section has a matching
//! binary in `src/bin/` that regenerates it (printing the same rows/series
//! the paper reports and writing CSVs under `results/`), plus Criterion
//! benches in `benches/` for the runtime claims:
//!
//! | paper item | binary |
//! |---|---|
//! | Table 2 (flow comparison, design time) | `table2` |
//! | Figure 8 (16 kb layouts, dimensions, TOPS, F²/bit) | `figure8` |
//! | Figure 9 (design-space scatter by array size / H / L / B) | `figure9` |
//! | Figure 10 (efficiency vs area vs SOTA, Pareto frontier) | `figure10` |
//! | model-vs-simulation validation (Sec. 3.2.1) | `model_validation` |
//!
//! The [`sota`] module holds the published metric points of the SOTA
//! designs A/B/C the paper compares against in Figure 10, [`csv`] is a
//! tiny CSV writer shared by the binaries, and [`gate`] backs the
//! `bench_gate` binary CI uses to compare fresh quick-mode bench medians
//! against the checked-in baseline JSONs.  [`interleaved_medians`] times
//! the two rows of each pair that gate bounds by ratio.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub mod csv;
pub mod gate;
pub mod sota;

pub use csv::CsvWriter;
pub use sota::{sota_designs, SotaDesign};

/// Times `step` on the two `cases` in one interleaved pass of `turns`
/// turns per case and returns each case's median turn.
///
/// CI gates the ratio of a pair of rows with `--max-ratio`, and a shared
/// runner can change speed between two rows measured one after the other.
/// So the cases take turns, swapping which goes first each pair, and each
/// turn clones its case before its timer starts: both medians come from
/// the same time window, so a speed change hits both alike and drops out
/// of their ratio.
///
/// # Panics
///
/// Panics when `turns` is 0.
pub fn interleaved_medians<T: Clone>(
    cases: &[T; 2],
    turns: usize,
    step: impl Fn(&mut T),
) -> [Duration; 2] {
    assert!(turns > 0, "an interleaved pass needs at least one turn");
    let mut times = [Vec::with_capacity(turns), Vec::with_capacity(turns)];
    for pair in 0..turns {
        for case in [pair % 2, 1 - pair % 2] {
            let mut input = cases[case].clone();
            let start = Instant::now();
            step(&mut input);
            times[case].push(start.elapsed());
        }
    }
    times.map(|mut times| {
        times.sort();
        times[turns / 2]
    })
}
