//! Records of a greedy selection run.

/// One committed item of a greedy run.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionStep {
    /// The selected ground-set item.
    pub item: usize,
    /// Marginal gain the item contributed when selected.
    pub gain: f64,
    /// Objective value after committing the item.
    pub value_after: f64,
}

/// Full record of a greedy selection pass ([`select`](crate::select)).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectionTrace {
    /// Selected items in selection order.
    pub selected: Vec<usize>,
    /// Per-iteration records (same order as `selected`).
    pub steps: Vec<SelectionStep>,
    /// Number of marginal-gain oracle calls issued.
    pub gain_evaluations: usize,
}

impl SelectionTrace {
    /// Final objective value (0 if nothing was selected).
    pub fn final_value(&self) -> f64 {
        self.steps.last().map(|s| s.value_after).unwrap_or(0.0)
    }

    /// Number of selected items.
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// Returns `true` when nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }

    /// Objective value after `i + 1` selections, for plotting value-vs-budget
    /// curves without re-running the solver.
    pub fn value_at(&self, i: usize) -> Option<f64> {
        self.steps.get(i).map(|s| s.value_after)
    }

    pub(crate) fn push(&mut self, item: usize, gain: f64, value_after: f64) {
        self.selected.push(item);
        self.steps.push(SelectionStep { item, gain, value_after });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_accessors() {
        let mut trace = SelectionTrace::default();
        assert!(trace.is_empty());
        assert_eq!(trace.final_value(), 0.0);
        trace.push(3, 2.0, 2.0);
        trace.push(1, 1.0, 3.0);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.final_value(), 3.0);
        assert_eq!(trace.value_at(0), Some(2.0));
        assert_eq!(trace.value_at(5), None);
        assert_eq!(trace.selected, vec![3, 1]);
    }
}
