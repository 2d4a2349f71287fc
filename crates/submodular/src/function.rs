//! Objective-function traits for incremental set-function maximization.

/// An incrementally evaluable set function `F : 2^Ω → ℝ` over a ground set of
/// items identified by `usize` indices.
///
/// The solvers in this crate only ever grow the current set one item at a
/// time, so the interface is deliberately minimal: query the current value,
/// query the marginal gain of an item, and commit an item. Implementations
/// typically cache per-item state so that `gain` is much cheaper than
/// re-evaluating the function from scratch.
///
/// The guarantees of the greedy driver [`select`](crate::select) require `F`
/// to be non-negative, monotone and submodular; the driver itself runs on
/// any implementation (and [`verify_submodular`](crate::testing::verify_submodular)
/// can check the property empirically on small instances).
pub trait IncrementalObjective {
    /// Value of the currently committed set.
    fn current_value(&self) -> f64;

    /// Marginal gain `F(S ∪ {item}) − F(S)` of adding `item` to the current
    /// set `S`. Must not change the committed set, although implementations
    /// may mutate internal scratch space (hence `&mut self`).
    fn gain(&mut self, item: usize) -> f64;

    /// Commits `item` to the current set.
    fn insert(&mut self, item: usize);
}

/// Blanket helper implemented for every objective: evaluates a whole set from
/// scratch by inserting into a clone. Only available for cloneable objectives
/// and mainly used in tests.
pub trait EvaluateSet: IncrementalObjective + Clone {
    /// Value of `items` evaluated on a fresh copy of the objective.
    fn evaluate_set(&self, items: &[usize]) -> f64 {
        let mut copy = self.clone();
        for &item in items {
            copy.insert(item);
        }
        copy.current_value()
    }
}

impl<T: IncrementalObjective + Clone> EvaluateSet for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::ModularFunction;

    #[test]
    fn evaluate_set_runs_on_a_copy() {
        let objective = ModularFunction::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(objective.evaluate_set(&[0, 2]), 4.0);
        // The original is untouched.
        assert_eq!(objective.current_value(), 0.0);
    }
}
