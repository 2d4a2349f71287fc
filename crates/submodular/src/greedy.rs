//! The greedy selection driver: one loop for every strategy and stop rule.

use crate::cover::StopRule;
use crate::error::{Result, SubmodularError};
use crate::function::IncrementalObjective;
use crate::lazy::CelfHeap;
use crate::stochastic::Window;
use crate::trace::SelectionTrace;

/// Which greedy strategy picks each item.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GreedyAlgorithm {
    /// Plain greedy: scan every candidate at every step.
    Greedy,
    /// CELF lazy greedy (default): the same selection on submodular
    /// objectives, far fewer marginal-gain evaluations.
    #[default]
    Lazy,
    /// Stochastic greedy with accuracy parameter `epsilon` and subsample RNG
    /// seed; used for very large candidate pools.
    Stochastic {
        /// Accuracy parameter in `(0, 1)`.
        epsilon: f64,
        /// RNG seed of the per-step subsampling.
        seed: u64,
    },
}

/// Greedily selects items from `ground` into `objective` until `stop` holds
/// or no remaining item has a positive gain, committing at every step the
/// item `algorithm` picks.
///
/// Every strategy breaks ties the same way: the larger gain wins, then the
/// smaller item id.
///
/// * [`GreedyAlgorithm::Greedy`] evaluates every remaining item at every
///   step. Under [`StopRule::Budget`] it is the classic greedy heuristic:
///   for non-negative monotone submodular objectives the returned set `Ŝ`
///   satisfies `F(Ŝ) ≥ (1 − 1/e) · F(S*)` (Nemhauser–Wolsey–Fisher), the
///   guarantee quoted in Section 3.4 of the paper. Under
///   [`StopRule::Target`] it is Wolsey's greedy cover.
/// * [`GreedyAlgorithm::Lazy`] is CELF (Leskovec et al., 2007). On a
///   submodular objective a stale gain is an upper bound on the fresh one,
///   so only the top of a max-heap needs re-evaluating, and the selection
///   equals plain greedy's with far fewer gain calls. The influence
///   objectives are submodular in exact arithmetic only: their gains are
///   differences of float quotients, so a gain can rise by an ulp as the
///   set grows. CELF may then pick a different item of (nearly) equal gain
///   than the plain scan, with the same number of items and values equal
///   to rounding.
/// * [`GreedyAlgorithm::Stochastic`] (Mirzasoleiman et al., 2015) shuffles
///   the remaining items at every step and picks the best of a window of
///   `(n / k) · ln(1 / ε)` of them, for a `(1 − 1/e − ε)` guarantee in
///   expectation. `k` is the budget, or the target rule's `max_items`
///   (the ground-set size when uncapped). When the window holds no item of
///   positive gain, the step falls back to a full scan before giving up.
///
/// Duplicate ground items are selected at most once. A stop rule that holds
/// before the first step costs no gain calls.
///
/// # Errors
///
/// Returns an error if `ground` is empty, the budget is zero, the target or
/// tolerance is negative or NaN, or `epsilon` is outside `(0, 1)`.
pub fn select<O: IncrementalObjective>(
    objective: &mut O,
    ground: &[usize],
    stop: StopRule,
    algorithm: GreedyAlgorithm,
) -> Result<SelectionTrace> {
    if ground.is_empty() {
        return Err(SubmodularError::EmptyGroundSet);
    }
    stop.validate()?;
    let mut items = ground.to_vec();
    items.sort_unstable();
    items.dedup();
    let n = items.len();
    let mut strategy = match algorithm {
        GreedyAlgorithm::Greedy => Strategy::Scan(items),
        GreedyAlgorithm::Lazy => Strategy::Lazy(CelfHeap::new(items)),
        GreedyAlgorithm::Stochastic { epsilon, seed } => {
            Strategy::Stochastic(Window::new(items, stop.max_items(n), epsilon, seed)?)
        }
    };

    let mut trace = SelectionTrace::default();
    while !stop.is_met(objective.current_value(), trace.len(), n) {
        match strategy.take_best(objective, &mut trace.gain_evaluations) {
            Some((item, gain)) if gain > 0.0 => {
                objective.insert(item);
                trace.push(item, gain, objective.current_value());
            }
            _ => break,
        }
    }
    Ok(trace)
}

/// The remaining candidates, in the shape each strategy keeps them.
enum Strategy {
    Scan(Vec<usize>),
    Lazy(CelfHeap),
    Stochastic(Window),
}

impl Strategy {
    /// Removes and returns the item this strategy picks next, with its
    /// gain; `None` once no candidate remains.
    fn take_best<O: IncrementalObjective>(
        &mut self,
        objective: &mut O,
        evaluations: &mut usize,
    ) -> Option<(usize, f64)> {
        match self {
            Strategy::Scan(remaining) => take_best(objective, remaining, evaluations),
            Strategy::Lazy(heap) => heap.take_best(objective, evaluations),
            Strategy::Stochastic(window) => window.take_best(objective, evaluations),
        }
    }
}

/// Evaluates every item of `pool` in one [`IncrementalObjective::gains`]
/// batch and returns the position and gain of the best one under the tie
/// rule: larger gain, then smaller item id.
pub(crate) fn best_in<O: IncrementalObjective>(
    objective: &mut O,
    pool: &[usize],
    evaluations: &mut usize,
) -> Option<(usize, f64)> {
    let gains = objective.gains(pool);
    *evaluations += pool.len();
    let mut best: Option<(usize, f64)> = None;
    for (pos, (&item, gain)) in pool.iter().zip(gains).enumerate() {
        let better = match best {
            None => true,
            Some((best_pos, best_gain)) => {
                gain > best_gain || (gain == best_gain && item < pool[best_pos])
            }
        };
        if better {
            best = Some((pos, gain));
        }
    }
    best
}

/// Full scan: removes the best item of `remaining` (see [`best_in`]).
pub(crate) fn take_best<O: IncrementalObjective>(
    objective: &mut O,
    remaining: &mut Vec<usize>,
    evaluations: &mut usize,
) -> Option<(usize, f64)> {
    let (pos, gain) = best_in(objective, remaining, evaluations)?;
    Some((remaining.swap_remove(pos), gain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{ModularFunction, WeightedCoverage};

    fn greedy<O: IncrementalObjective>(
        objective: &mut O,
        ground: &[usize],
        budget: usize,
    ) -> Result<SelectionTrace> {
        select(objective, ground, StopRule::Budget(budget), GreedyAlgorithm::Greedy)
    }

    #[test]
    fn greedy_is_optimal_on_modular_functions() {
        let mut f = ModularFunction::new(vec![5.0, 1.0, 3.0, 4.0]);
        let trace = greedy(&mut f, &[0, 1, 2, 3], 2).unwrap();
        assert_eq!(trace.selected, vec![0, 3]);
        assert_eq!(trace.final_value(), 9.0);
        assert_eq!(trace.steps[0].gain, 5.0);
        assert_eq!(trace.gain_evaluations, 4 + 3);
    }

    #[test]
    fn greedy_respects_the_budget_and_stops_at_saturation() {
        let mut f = WeightedCoverage::uniform(vec![vec![0, 1], vec![0, 1], vec![2]], 3);
        let trace = greedy(&mut f, &[0, 1, 2], 3).unwrap();
        // After picking items 0 and 2 everything is covered; the duplicate
        // item 1 contributes nothing and is not selected.
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.final_value(), 3.0);
    }

    #[test]
    fn greedy_achieves_the_classical_bound_on_coverage() {
        // Hand-built instance where greedy is suboptimal but within (1 - 1/e).
        let covers = vec![
            vec![0, 1, 2, 3],       // big generalist set
            vec![0, 1, 2, 3, 4, 5], // overlapping bigger set
            vec![6, 7, 8],
            vec![4, 5, 6, 7, 8],
        ];
        let mut f = WeightedCoverage::uniform(covers, 9);
        let trace = greedy(&mut f, &[0, 1, 2, 3], 2).unwrap();
        let optimal = 9.0; // items 1 and 3 cover everything
        assert!(trace.final_value() >= (1.0 - 1.0 / std::f64::consts::E) * optimal);
    }

    #[test]
    fn duplicate_ground_items_are_deduplicated() {
        let mut f = ModularFunction::new(vec![2.0, 1.0]);
        let trace = greedy(&mut f, &[0, 0, 1, 1], 4).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.final_value(), 3.0);
    }

    #[test]
    fn degenerate_inputs_error() {
        let mut f = ModularFunction::new(vec![1.0]);
        assert_eq!(greedy(&mut f, &[], 1).unwrap_err(), SubmodularError::EmptyGroundSet);
        assert_eq!(greedy(&mut f, &[0], 0).unwrap_err(), SubmodularError::ZeroBudget);
    }

    /// Answers `gains` in one batch, evaluated back to front (the way a
    /// parallel override may finish them out of order), and counts the
    /// single-item `gain` calls it receives.
    struct Batched {
        inner: WeightedCoverage,
        single_calls: usize,
    }

    impl IncrementalObjective for Batched {
        fn current_value(&self) -> f64 {
            self.inner.current_value()
        }

        fn gain(&mut self, item: usize) -> f64 {
            self.single_calls += 1;
            self.inner.gain(item)
        }

        fn gains(&mut self, items: &[usize]) -> Vec<f64> {
            let mut gains: Vec<f64> = items.iter().rev().map(|&i| self.inner.gain(i)).collect();
            gains.reverse();
            gains
        }

        fn insert(&mut self, item: usize) {
            self.inner.insert(item);
        }
    }

    #[test]
    fn a_gains_override_changes_neither_the_trace_nor_the_count() {
        let covers: Vec<Vec<usize>> =
            (0..30).map(|i| (0..4).map(|j| (i * 5 + j * 11) % 50).collect()).collect();
        let coverage = || WeightedCoverage::uniform(covers.clone(), 50);
        let ground: Vec<usize> = (0..30).collect();
        let stops = [
            StopRule::Budget(6),
            StopRule::Target { target: 40.0, tolerance: 0.0, max_items: None },
        ];
        let algorithms = [
            GreedyAlgorithm::Greedy,
            GreedyAlgorithm::Lazy,
            GreedyAlgorithm::Stochastic { epsilon: 0.2, seed: 5 },
        ];
        for stop in stops {
            for algorithm in algorithms {
                let plain = select(&mut coverage(), &ground, stop, algorithm).unwrap();
                let mut batched = Batched { inner: coverage(), single_calls: 0 };
                let trace = select(&mut batched, &ground, stop, algorithm).unwrap();
                assert_eq!(trace, plain, "{stop:?}, {algorithm:?}");
                assert!(plain.gain_evaluations > 0);
                // Scans and CELF's round 0 go through `gains`; only CELF's
                // lazy re-evaluations ask for one item at a time.
                let expected_single = match algorithm {
                    GreedyAlgorithm::Lazy => plain.gain_evaluations - ground.len(),
                    _ => 0,
                };
                assert_eq!(batched.single_calls, expected_single, "{stop:?}, {algorithm:?}");
            }
        }
    }

    #[test]
    fn zero_gain_items_are_never_selected() {
        let mut f = ModularFunction::new(vec![0.0, 0.0]);
        let trace = greedy(&mut f, &[0, 1], 2).unwrap();
        assert!(trace.is_empty());
    }
}
