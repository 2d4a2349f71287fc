//! The stochastic greedy strategy (Mirzasoleiman et al., 2015).
//!
//! Instead of scanning the whole ground set at every step, stochastic greedy
//! evaluates a random subsample of size `(n / k) · ln(1 / ε)` and picks the
//! best item from it, achieving a `(1 − 1/e − ε)` guarantee in expectation
//! with a near-linear number of oracle calls. Used as the cheap alternative
//! on the large Instagram surrogate and in the solver ablation benches.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::error::{Result, SubmodularError};
use crate::function::IncrementalObjective;
use crate::greedy::{best_in, take_best};

/// The remaining candidates of a stochastic pass and its sampling stream.
pub(crate) struct Window {
    remaining: Vec<usize>,
    size: usize,
    rng: StdRng,
}

impl Window {
    /// A pass over `items` that selects at most `k` of them.
    pub(crate) fn new(items: Vec<usize>, k: usize, epsilon: f64, seed: u64) -> Result<Self> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(SubmodularError::InvalidParameter {
                message: format!("epsilon {epsilon} must be in (0, 1)"),
            });
        }
        let n = items.len();
        let size = ((n as f64 / k.max(1) as f64) * (1.0 / epsilon).ln()).ceil() as usize;
        Ok(Window { remaining: items, size: size.clamp(1, n), rng: StdRng::seed_from_u64(seed) })
    }

    /// Removes and returns the best item of a fresh random window, falling
    /// back to a full scan when the window holds no item of positive gain.
    pub(crate) fn take_best<O: IncrementalObjective>(
        &mut self,
        objective: &mut O,
        evaluations: &mut usize,
    ) -> Option<(usize, f64)> {
        if self.remaining.is_empty() {
            return None;
        }
        // Sample without replacement by shuffling a prefix.
        self.remaining.shuffle(&mut self.rng);
        let window = self.size.min(self.remaining.len());
        match best_in(objective, &self.remaining[..window], evaluations) {
            Some((pos, gain)) if gain > 0.0 => Some((self.remaining.swap_remove(pos), gain)),
            // Plain greedy stops only when *no* item helps, so scan
            // everything once before giving up.
            _ => take_best(objective, &mut self.remaining, evaluations),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{ModularFunction, WeightedCoverage};
    use crate::{select, GreedyAlgorithm, SelectionTrace, StopRule};

    fn coverage() -> WeightedCoverage {
        let covers: Vec<Vec<usize>> =
            (0..40).map(|i| (0..5).map(|j| (i * 3 + j * 7) % 60).collect()).collect();
        WeightedCoverage::uniform(covers, 60)
    }

    fn stochastic(
        f: &mut impl crate::IncrementalObjective,
        ground: &[usize],
        stop: StopRule,
        epsilon: f64,
        seed: u64,
    ) -> crate::Result<SelectionTrace> {
        select(f, ground, stop, GreedyAlgorithm::Stochastic { epsilon, seed })
    }

    fn greedy(ground: &[usize], stop: StopRule) -> SelectionTrace {
        select(&mut coverage(), ground, stop, GreedyAlgorithm::Greedy).unwrap()
    }

    #[test]
    fn stochastic_greedy_gets_close_to_plain_greedy() {
        let ground: Vec<usize> = (0..40).collect();
        let greedy_value = greedy(&ground, StopRule::Budget(8)).final_value();
        let value = stochastic(&mut coverage(), &ground, StopRule::Budget(8), 0.05, 3)
            .unwrap()
            .final_value();
        assert!(value >= 0.85 * greedy_value, "stochastic {value} vs greedy {greedy_value}");
    }

    #[test]
    fn uses_fewer_evaluations_than_plain_greedy_on_large_ground_sets() {
        let ground: Vec<usize> = (0..40).collect();
        let plain_trace = greedy(&ground, StopRule::Budget(8));
        let stoch_trace =
            stochastic(&mut coverage(), &ground, StopRule::Budget(8), 0.2, 1).unwrap();
        assert!(stoch_trace.gain_evaluations < plain_trace.gain_evaluations);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ground: Vec<usize> = (0..40).collect();
        let budget = StopRule::Budget(5);
        let cover = StopRule::Target { target: 45.0, tolerance: 0.0, max_items: None };
        for stop in [budget, cover] {
            let a = stochastic(&mut coverage(), &ground, stop, 0.1, 11).unwrap();
            let b = stochastic(&mut coverage(), &ground, stop, 0.1, 11).unwrap();
            assert_eq!(a, b, "{stop:?}");
        }
    }

    #[test]
    fn reaches_a_reachable_cover_target() {
        let ground: Vec<usize> = (0..40).collect();
        let max = coverage().max_coverage();
        for (target, max_items) in [(max, None), (0.75 * max, Some(30))] {
            let stop = StopRule::Target { target, tolerance: 0.0, max_items };
            for seed in 0..8 {
                let trace = stochastic(&mut coverage(), &ground, stop, 0.1, seed).unwrap();
                assert!(trace.final_value() >= target, "seed {seed}, target {target}");
            }
        }
    }

    #[test]
    fn rejects_invalid_epsilon_and_degenerate_inputs() {
        let mut f = ModularFunction::new(vec![1.0, 2.0]);
        assert!(stochastic(&mut f, &[0, 1], StopRule::Budget(1), 1.0, 0).is_err());
        assert!(stochastic(&mut f, &[], StopRule::Budget(1), 0.1, 0).is_err());
        assert!(stochastic(&mut f, &[0], StopRule::Budget(0), 0.1, 0).is_err());
    }

    #[test]
    fn saturated_objectives_stop_early() {
        let mut f = WeightedCoverage::uniform(vec![vec![0], vec![0], vec![0], vec![0]], 1);
        let trace = stochastic(&mut f, &[0, 1, 2, 3], StopRule::Budget(4), 0.5, 0).unwrap();
        assert_eq!(trace.len(), 1);
    }
}
