//! # acim-moga
//!
//! A self-contained multi-objective genetic algorithm (MOGA) library built
//! around NSGA-II, the algorithm EasyACIM uses for its design-space explorer
//! (Section 3.2.2 of the paper).
//!
//! The crate is generic: a problem implements [`Problem`] by decoding a
//! real-coded genome in `[0, 1]^n` into its own parameter space and returning
//! objective values (all minimised) plus an aggregate constraint violation.
//! [`Nsga2`] then runs the classic loop — binary constrained-tournament
//! selection, simulated-binary crossover, polynomial mutation, fast
//! non-dominated sorting and crowding-distance truncation.
//!
//! Additional utilities:
//!
//! * [`dominance`] — Pareto-dominance tests and fast non-dominated sorting,
//! * [`archive::ParetoArchive`] — an unbounded archive of non-dominated
//!   solutions,
//! * [`hypervolume`] — exact 2-D and Monte-Carlo N-D hypervolume indicators
//!   used by the ablation benchmarks,
//! * [`random_search()`] — a random-sampling baseline for comparison,
//! * [`cached::CachedProblem`] — a memoizing problem wrapper,
//! * [`shared_cache::SharedCache`] — the one cache type: a shareable,
//!   optionally CLOCK-bounded map with one first-wins insert.
//!
//! # Evaluation & caching
//!
//! Objective evaluation is the cost centre of every real design-space
//! exploration.  The engine scores it through one call and memoizes it
//! through one lookup:
//!
//! 1. **One call** — [`Problem::evaluate`] scores one genome, and the
//!    optimisers call it for every genome on the calling thread: one
//!    EasyACIM evaluation (macro or chip) costs ~100 ns to a few µs, less
//!    than handing it to another thread.  [`Nsga2`] still collects each
//!    generation's offspring before scoring them, so variation never
//!    interleaves with evaluation and the RNG stream — and therefore the
//!    Pareto front — depends only on the seed.
//! 2. **One lookup** — [`CachedProblem::new`] wraps any problem over a
//!    [`CacheStore`] (fresh, or shared across runs) keyed by a
//!    caller-supplied genome key, so duplicate designs (which bucketed
//!    encodings re-sample constantly) are never re-evaluated.  It
//!    looks up through [`CacheClient::get_or_compute`], the same
//!    first-wins get-or-compute the chip evaluator's macro-metric cache
//!    uses, and its [`CacheStats`] hit/miss counters surface in run
//!    reports.
//!
//! Every run reports its evaluation counters and wall-clock breakdown in
//! one [`EvalStats`] value ([`Nsga2Result::engine`]), which downstream
//! frontier sets and flow results embed unchanged.
//!
//! # Example
//!
//! ```
//! use acim_moga::{Nsga2, Nsga2Config, Problem};
//!
//! /// Minimise (x², (x-2)²) — the classic Schaffer problem.
//! struct Schaffer;
//!
//! impl Problem for Schaffer {
//!     fn num_variables(&self) -> usize { 1 }
//!     fn num_objectives(&self) -> usize { 2 }
//!     fn evaluate(&self, genes: &[f64]) -> acim_moga::Evaluation {
//!         let x = genes[0] * 4.0 - 2.0; // decode [0,1] -> [-2, 2]
//!         acim_moga::Evaluation::unconstrained(vec![x * x, (x - 2.0) * (x - 2.0)])
//!     }
//! }
//!
//! let config = Nsga2Config { population_size: 40, generations: 30, ..Default::default() };
//! let result = Nsga2::new(Schaffer, config).with_seed(7).run();
//! assert!(!result.pareto_front().is_empty());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(missing_docs)]

pub mod archive;
pub mod cached;
pub mod cancel;
pub mod crowding;
pub mod dominance;
pub mod hypervolume;
pub mod individual;
pub mod nsga2;
pub mod operators;
pub mod problem;
pub mod random_search;
pub mod selection;
pub mod shared_cache;

pub use archive::ParetoArchive;
pub use cached::{CacheClient, CacheStats, CacheStore, CachedProblem};
pub use cancel::{CancelReason, CancelToken};
pub use crowding::assign_crowding_distance;
pub use dominance::{constrained_dominates, dominates, fast_non_dominated_sort};
pub use hypervolume::{hypervolume_2d, hypervolume_monte_carlo};
pub use individual::Individual;
pub use nsga2::{EvalStats, Nsga2, Nsga2Config, Nsga2Result};
pub use operators::{polynomial_mutation, sbx_crossover};
pub use problem::{Evaluation, ObjVec, Problem};
pub use random_search::random_search;
pub use shared_cache::SharedCache;
