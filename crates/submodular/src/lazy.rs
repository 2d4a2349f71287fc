//! The CELF strategy (Leskovec et al., 2007): a max-heap of possibly stale
//! gains.
//!
//! For submodular objectives an item's marginal gain can only shrink as the
//! selected set grows, so stale gains stored in a max-heap are valid upper
//! bounds. Lazily re-evaluating only the top of the heap gives the same
//! selection as plain greedy while typically issuing orders of magnitude
//! fewer oracle calls — which matters because each call here is a Monte-Carlo
//! influence estimate over hundreds of sampled worlds.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::function::IncrementalObjective;

/// Heap entry: a cached (possibly stale) upper bound on an item's gain.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    gain: f64,
    item: usize,
    /// Selection round in which `gain` was computed; an entry is fresh iff
    /// this equals the current round.
    round: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.item == other.item
    }
}
impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on gain; ties broken towards the smaller item id, the
        // driver's one tie rule.
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.item.cmp(&self.item))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The remaining candidates of a CELF pass.
pub(crate) struct CelfHeap {
    /// Items not yet evaluated: all of them until the first pick.
    unevaluated: Vec<usize>,
    heap: BinaryHeap<HeapEntry>,
    /// Number of items picked so far.
    round: usize,
}

impl CelfHeap {
    pub(crate) fn new(items: Vec<usize>) -> Self {
        CelfHeap { heap: BinaryHeap::with_capacity(items.len()), unevaluated: items, round: 0 }
    }

    /// Removes and returns the best remaining item with its fresh gain.
    pub(crate) fn take_best<O: IncrementalObjective>(
        &mut self,
        objective: &mut O,
        evaluations: &mut usize,
    ) -> Option<(usize, f64)> {
        // Round 0 evaluates everything once, in one batch, on the first
        // pick, so a stop rule that already holds costs no gain calls. The
        // lazy re-evaluations below stay one at a time: each depends on
        // which entry tops the heap after the last.
        let unevaluated = std::mem::take(&mut self.unevaluated);
        if !unevaluated.is_empty() {
            let gains = objective.gains(&unevaluated);
            *evaluations += unevaluated.len();
            for (item, gain) in unevaluated.into_iter().zip(gains) {
                self.heap.push(HeapEntry { gain, item, round: 0 });
            }
        }
        loop {
            let top = self.heap.pop()?;
            if top.round == self.round {
                // Fresh entry: this really is the best remaining item.
                self.round += 1;
                return Some((top.item, top.gain));
            }
            // Stale entry: re-evaluate and push back.
            let gain = objective.gain(top.item);
            *evaluations += 1;
            self.heap.push(HeapEntry { gain, item: top.item, round: self.round });
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{ModularFunction, WeightedCoverage};
    use crate::{select, GreedyAlgorithm, SelectionTrace, StopRule};

    fn coverage_instance() -> WeightedCoverage {
        WeightedCoverage::new(
            vec![
                vec![0, 1, 2],
                vec![2, 3],
                vec![3, 4, 5, 6],
                vec![0, 6],
                vec![7],
                vec![1, 4, 7, 8],
            ],
            vec![1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 1.0, 5.0, 1.0],
        )
    }

    fn run<O: crate::IncrementalObjective>(
        objective: &mut O,
        ground: &[usize],
        budget: usize,
        algorithm: GreedyAlgorithm,
    ) -> crate::Result<SelectionTrace> {
        select(objective, ground, StopRule::Budget(budget), algorithm)
    }

    #[test]
    fn lazy_matches_plain_greedy_selection_and_value() {
        let ground: Vec<usize> = (0..6).collect();
        for budget in 1..=6 {
            let a = run(&mut coverage_instance(), &ground, budget, GreedyAlgorithm::Greedy);
            let b = run(&mut coverage_instance(), &ground, budget, GreedyAlgorithm::Lazy);
            let (a, b) = (a.unwrap(), b.unwrap());
            assert_eq!(a.selected, b.selected, "budget {budget}");
            assert!((a.final_value() - b.final_value()).abs() < 1e-12);
        }
    }

    #[test]
    fn lazy_issues_no_more_evaluations_than_plain_greedy() {
        let ground: Vec<usize> = (0..6).collect();
        let a = run(&mut coverage_instance(), &ground, 4, GreedyAlgorithm::Greedy).unwrap();
        let b = run(&mut coverage_instance(), &ground, 4, GreedyAlgorithm::Lazy).unwrap();
        assert!(b.gain_evaluations <= a.gain_evaluations);
    }

    #[test]
    fn lazy_stops_when_gains_vanish() {
        let mut f = WeightedCoverage::uniform(vec![vec![0], vec![0], vec![0]], 1);
        let trace = run(&mut f, &[0, 1, 2], 3, GreedyAlgorithm::Lazy).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.final_value(), 1.0);
    }

    #[test]
    fn lazy_handles_modular_functions() {
        let mut f = ModularFunction::new(vec![1.0, 5.0, 3.0]);
        let trace = run(&mut f, &[0, 1, 2], 2, GreedyAlgorithm::Lazy).unwrap();
        assert_eq!(trace.selected, vec![1, 2]);
        assert_eq!(trace.final_value(), 8.0);
    }

    #[test]
    fn degenerate_inputs_error() {
        let mut f = ModularFunction::new(vec![1.0]);
        assert!(run(&mut f, &[], 1, GreedyAlgorithm::Lazy).is_err());
        assert!(run(&mut f, &[0], 0, GreedyAlgorithm::Lazy).is_err());
    }
}
