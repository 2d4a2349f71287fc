//! Stop rules: when a greedy pass ends.
//!
//! The budget problems (P1, P3, P4) stop after `k` items. The cover problems
//! (P2, P5, P6) stop once the objective reaches a target: the objective is
//! the (truncated, possibly per-group) coverage potential, and the target is
//! `Q` (resp. `k · Q`). Wolsey's analysis gives the `ln(1 + |V|)`-style
//! multiplicative bound on the selected set size quoted in Section 3.4 and
//! Theorem 2 of the paper. Both rules drive the same loop, [`select`].
//!
//! [`select`]: crate::select

use crate::error::{Result, SubmodularError};

/// When a greedy pass stops. Every pass also stops early once no remaining
/// item has a positive gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Select at most `k` items.
    Budget(usize),
    /// Select until the objective value reaches `target − tolerance`, or
    /// `max_items` items are selected. An unreachable target is *not* an
    /// error, because the experiment harness deliberately probes infeasible
    /// quotas: the caller reads whether it was reached off the objective.
    Target {
        /// Target objective value to reach.
        target: f64,
        /// Numerical slack, useful because Monte-Carlo objectives only
        /// approximate the true value.
        tolerance: f64,
        /// Hard cap on the number of selected items (the ground-set size
        /// when `None`).
        max_items: Option<usize>,
    },
}

impl StopRule {
    pub(crate) fn validate(&self) -> Result<()> {
        let invalid = |message: String| Err(SubmodularError::InvalidParameter { message });
        match *self {
            StopRule::Budget(0) => Err(SubmodularError::ZeroBudget),
            StopRule::Budget(_) => Ok(()),
            StopRule::Target { target, .. } if target < 0.0 || target.is_nan() => {
                invalid(format!("cover target {target} must be non-negative"))
            }
            StopRule::Target { tolerance, .. } if tolerance < 0.0 || tolerance.is_nan() => {
                invalid(format!("tolerance {tolerance} must be non-negative"))
            }
            StopRule::Target { .. } => Ok(()),
        }
    }

    /// Most items a pass over `n` candidates may select.
    pub(crate) fn max_items(&self, n: usize) -> usize {
        match *self {
            StopRule::Budget(k) => k,
            StopRule::Target { max_items, .. } => max_items.unwrap_or(n),
        }
    }

    /// Whether a pass at objective `value` with `selected` items is done.
    pub(crate) fn is_met(&self, value: f64, selected: usize, n: usize) -> bool {
        selected >= self.max_items(n)
            || matches!(*self, StopRule::Target { target, tolerance, .. }
                if value >= target - tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::IncrementalObjective;
    use crate::testing::{ModularFunction, WeightedCoverage};
    use crate::trace::SelectionTrace;
    use crate::{select, GreedyAlgorithm};

    fn target(target: f64) -> StopRule {
        StopRule::Target { target, tolerance: 0.0, max_items: None }
    }

    /// Runs `stop` with every strategy, checks that lazy picks what plain
    /// greedy picks with no more gain calls, and returns the plain trace.
    fn cover<O: IncrementalObjective + Clone>(
        objective: &O,
        ground: &[usize],
        stop: StopRule,
    ) -> SelectionTrace {
        let run = |algorithm| select(&mut objective.clone(), ground, stop, algorithm).unwrap();
        let plain = run(GreedyAlgorithm::Greedy);
        let lazy = run(GreedyAlgorithm::Lazy);
        assert_eq!(plain.selected, lazy.selected);
        assert!(lazy.gain_evaluations <= plain.gain_evaluations);
        let stochastic = run(GreedyAlgorithm::Stochastic { epsilon: 0.1, seed: 5 });
        assert!(stochastic.len() <= stop.max_items(ground.len()));
        plain
    }

    #[test]
    fn covers_the_target_with_a_small_set() {
        let f = WeightedCoverage::uniform(
            vec![vec![0, 1, 2, 3], vec![4, 5], vec![6], vec![0, 4, 6]],
            7,
        );
        let trace = cover(&f, &[0, 1, 2, 3], target(6.0));
        assert!(trace.final_value() >= 6.0);
        assert!(trace.len() <= 3);
    }

    #[test]
    fn reports_unreachable_targets_without_erroring() {
        let f = WeightedCoverage::uniform(vec![vec![0], vec![1]], 5);
        let trace = cover(&f, &[0, 1], target(4.0));
        assert_eq!(trace.final_value(), 2.0);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn zero_target_selects_nothing() {
        // A target that already holds costs no gain calls, whatever the
        // strategy.
        let f = ModularFunction::new(vec![1.0, 1.0]);
        for algorithm in [
            GreedyAlgorithm::Greedy,
            GreedyAlgorithm::Lazy,
            GreedyAlgorithm::Stochastic { epsilon: 0.5, seed: 0 },
        ] {
            let trace = select(&mut f.clone(), &[0, 1], target(0.0), algorithm).unwrap();
            assert!(trace.is_empty());
            assert_eq!(trace.gain_evaluations, 0, "{algorithm:?}");
        }
    }

    #[test]
    fn tolerance_allows_stopping_slightly_early() {
        let f = ModularFunction::new(vec![1.0, 1.0, 1.0]);
        let stop = StopRule::Target { target: 2.05, tolerance: 0.1, max_items: None };
        let trace = cover(&f, &[0, 1, 2], stop);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn max_items_caps_the_selection() {
        let f = ModularFunction::new(vec![1.0; 10]);
        let stop = StopRule::Target { target: 10.0, tolerance: 0.0, max_items: Some(3) };
        let trace = cover(&f, &(0..10).collect::<Vec<_>>(), stop);
        assert_eq!(trace.len(), 3);
        assert!(trace.final_value() < 10.0);
    }

    #[test]
    fn wolsey_style_bound_holds_on_coverage_instances() {
        // Universe of 12 elements; optimal cover of the 0.9 * 12 target needs
        // 2 sets; greedy must stay within ln(1 + 12) * 2 ≈ 5.1 sets.
        let covers = vec![
            vec![0, 1, 2, 3, 4, 5],
            vec![6, 7, 8, 9, 10, 11],
            vec![0, 6],
            vec![1, 7],
            vec![2, 8],
            vec![3, 9],
        ];
        let f = WeightedCoverage::uniform(covers, 12);
        let trace = cover(&f, &[0, 1, 2, 3, 4, 5], target(11.0));
        assert!(trace.final_value() >= 11.0);
        let bound = ((1.0 + 12.0f64).ln() * 2.0).ceil() as usize;
        assert!(trace.len() <= bound);
    }

    #[test]
    fn invalid_inputs_error() {
        let mut f = ModularFunction::new(vec![1.0]);
        let lazy = GreedyAlgorithm::Lazy;
        assert!(select(&mut f, &[], target(1.0), lazy).is_err());
        assert!(select(&mut f, &[0], target(-1.0), lazy).is_err());
        assert!(select(&mut f, &[0], target(f64::NAN), lazy).is_err());
        let bad_tol = StopRule::Target { target: 1.0, tolerance: -0.5, max_items: None };
        assert!(select(&mut f, &[0], bad_tol, lazy).is_err());
    }
}
