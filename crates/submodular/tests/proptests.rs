//! Property-based tests of the submodular solvers on random weighted
//! coverage instances (the canonical monotone submodular family).

use proptest::prelude::*;
use tcim_submodular::testing::{verify_submodular, WeightedCoverage};
use tcim_submodular::{
    select, EvaluateSet, GreedyAlgorithm, IncrementalObjective, SelectionTrace, StopRule,
};

/// Strategy: a random coverage instance with `items` sets over `elements`
/// elements with positive weights.
fn coverage_instance(
    max_items: usize,
    max_elements: usize,
) -> impl Strategy<Value = WeightedCoverage> {
    (2..=max_items, 2..=max_elements).prop_flat_map(|(items, elements)| {
        let covers = proptest::collection::vec(
            proptest::collection::vec(0..elements, 0..=elements.min(6)),
            items,
        );
        let weights = proptest::collection::vec(0.1f64..5.0, elements);
        (covers, weights).prop_map(|(covers, weights)| WeightedCoverage::new(covers, weights))
    })
}

/// One pass of `algorithm` under `stop` on a copy of `f` over its whole
/// ground set.
fn run(f: &WeightedCoverage, stop: StopRule, algorithm: GreedyAlgorithm) -> SelectionTrace {
    let ground: Vec<usize> = (0..f.num_items()).collect();
    select(&mut f.clone(), &ground, stop, algorithm).unwrap()
}

fn greedy(f: &WeightedCoverage, budget: usize) -> SelectionTrace {
    run(f, StopRule::Budget(budget), GreedyAlgorithm::Greedy)
}

/// Exhaustive optimum over all subsets of size at most `budget` (small
/// instances only).
fn brute_force_optimum(objective: &WeightedCoverage, n: usize, budget: usize) -> f64 {
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        if (mask.count_ones() as usize) > budget {
            continue;
        }
        let items: Vec<usize> = (0..n).filter(|i| (mask >> i) & 1 == 1).collect();
        best = best.max(objective.evaluate_set(&items));
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coverage functions really are monotone submodular (sanity for the
    /// checker itself and for the instance generator).
    #[test]
    fn random_coverage_instances_verify_submodular(f in coverage_instance(5, 8)) {
        let ground: Vec<usize> = (0..f.num_items()).collect();
        prop_assert!(verify_submodular(&f, &ground, 3, 1e-9).is_ok());
    }

    /// Lazy greedy returns exactly the same set and value as plain greedy,
    /// with no more oracle calls, under both stop rules.
    #[test]
    fn lazy_equals_greedy(
        f in coverage_instance(10, 20),
        budget in 1usize..6,
        fraction in 0.0f64..1.2,
        tolerance in 0.0f64..1.0,
        cap in 0usize..6,
    ) {
        let target = fraction * f.max_coverage();
        let max_items = (cap > 0).then_some(cap);
        for stop in [StopRule::Budget(budget), StopRule::Target { target, tolerance, max_items }] {
            let plain = run(&f, stop, GreedyAlgorithm::Greedy);
            let lazy = run(&f, stop, GreedyAlgorithm::Lazy);
            prop_assert_eq!(&plain.selected, &lazy.selected);
            prop_assert!((plain.final_value() - lazy.final_value()).abs() < 1e-9);
            prop_assert!(lazy.gain_evaluations <= plain.gain_evaluations);
        }
    }

    /// Greedy achieves the (1 - 1/e) fraction of the true optimum on small
    /// instances (verified against brute force).
    #[test]
    fn greedy_meets_the_classical_bound(f in coverage_instance(8, 12), budget in 1usize..4) {
        let optimum = brute_force_optimum(&f, f.num_items(), budget);
        let achieved = greedy(&f, budget).final_value();
        prop_assert!(achieved + 1e-9 >= (1.0 - 1.0 / std::f64::consts::E) * optimum,
            "achieved {achieved} < bound of optimum {optimum}");
    }

    /// Greedy values are monotone in the budget.
    #[test]
    fn greedy_value_is_monotone_in_budget(f in coverage_instance(10, 16)) {
        let mut previous = 0.0;
        for budget in 1..=f.num_items() {
            let value = greedy(&f, budget).final_value();
            prop_assert!(value + 1e-9 >= previous);
            previous = value;
        }
    }

    /// Stochastic greedy never selects more than the budget and reaches a
    /// reasonable fraction of the greedy value.
    #[test]
    fn stochastic_greedy_is_sane(f in coverage_instance(12, 20), budget in 1usize..5, seed in 0u64..50) {
        let greedy_value = greedy(&f, budget).final_value();
        let trace =
            run(&f, StopRule::Budget(budget), GreedyAlgorithm::Stochastic { epsilon: 0.2, seed });
        prop_assert!(trace.len() <= budget);
        prop_assert!(trace.final_value() <= greedy_value + 1e-9 || trace.final_value() > 0.0);
        // Selected items are distinct.
        let mut sorted = trace.selected.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), trace.selected.len());
    }

    /// Greedy cover, with every strategy, reaches exactly those targets that
    /// are reachable at all, and when it reports success the achieved value
    /// really meets the target.
    #[test]
    fn cover_reaches_targets_iff_feasible(
        f in coverage_instance(10, 16),
        fraction in 0.1f64..1.2,
        seed in 0u64..50,
    ) {
        let max = f.max_coverage();
        let target = max * fraction;
        let stop = StopRule::Target { target, tolerance: 0.0, max_items: None };
        for algorithm in [
            GreedyAlgorithm::Greedy,
            GreedyAlgorithm::Lazy,
            GreedyAlgorithm::Stochastic { epsilon: 0.2, seed },
        ] {
            let ground: Vec<usize> = (0..f.num_items()).collect();
            let mut work = f.clone();
            let trace = select(&mut work, &ground, stop, algorithm).unwrap();
            if work.current_value() >= target {
                prop_assert!(trace.final_value() + 1e-9 >= target);
            } else {
                // Unreached targets must genuinely exceed what the whole
                // ground set can cover.
                prop_assert!(target > max - 1e-9, "{:?}", algorithm);
            }
            prop_assert!(trace.len() <= ground.len());
        }
    }
}
