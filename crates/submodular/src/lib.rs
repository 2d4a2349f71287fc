//! # tcim-submodular
//!
//! Generic monotone submodular maximization and cover, the optimization
//! engine behind every solver in `tcim-core`. One driver, [`select`], runs
//! every greedy pass:
//!
//! * a [`StopRule`] says when it ends: after `k` items
//!   ([`StopRule::Budget`], the `(1 − 1/e)` guarantee of
//!   Nemhauser–Wolsey–Fisher) or once the value reaches a target
//!   ([`StopRule::Target`], greedy cover with Wolsey's `ln(1 + n)`-style
//!   size bound);
//! * a [`GreedyAlgorithm`] says how it picks each item: a full scan, the
//!   CELF heap (the same selection with far fewer oracle calls), or a
//!   stochastic window for very large ground sets;
//! * [`testing`] holds reference objectives (modular, weighted coverage) and
//!   an exhaustive submodularity checker used by tests and benches.
//!
//! Objectives implement the small [`IncrementalObjective`] trait; see
//! [`testing::WeightedCoverage`] for a complete example.
//!
//! ```
//! use tcim_submodular::testing::WeightedCoverage;
//! use tcim_submodular::{select, GreedyAlgorithm, IncrementalObjective, StopRule};
//!
//! let covers = vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5]];
//! let mut objective = WeightedCoverage::uniform(covers.clone(), 6);
//! let trace = select(&mut objective, &[0, 1, 2], StopRule::Budget(2), GreedyAlgorithm::Lazy)?;
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.final_value(), 6.0);
//!
//! // Cover: the smallest greedy set worth at least 4.
//! let mut objective = WeightedCoverage::uniform(covers, 6);
//! let stop = StopRule::Target { target: 4.0, tolerance: 0.0, max_items: None };
//! let trace = select(&mut objective, &[0, 1, 2], stop, GreedyAlgorithm::Lazy)?;
//! assert_eq!(trace.selected, vec![0, 2]);
//! assert!(objective.current_value() >= 4.0);
//! # Ok::<(), tcim_submodular::SubmodularError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cover;
mod error;
mod function;
mod greedy;
mod lazy;
mod stochastic;
mod trace;

pub mod testing;

pub use cover::StopRule;
pub use error::{Result, SubmodularError};
pub use function::{EvaluateSet, IncrementalObjective};
pub use greedy::{select, GreedyAlgorithm};
pub use trace::{SelectionStep, SelectionTrace};
