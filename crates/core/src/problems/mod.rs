//! The TCIM problem formulations: configs, legacy shims and shared helpers.
//!
//! * [`budget`] — TCIM-BUDGET (P1) and FAIRTCIM-BUDGET (P4),
//! * [`cover`] — TCIM-COVER (P2) and FAIRTCIM-COVER (P6),
//! * [`constrained`] — the disparity-capped originals P3 and P5.
//!
//! The canonical entrypoint is [`crate::solve`] over a
//! [`crate::ProblemSpec`]; the per-problem free functions in these modules
//! are deprecated shims over it.

pub mod budget;
pub mod constrained;
pub mod cover;

use tcim_diffusion::{GroupInfluence, InfluenceOracle};
use tcim_graph::NodeId;

use crate::error::{CoreError, Result};
use crate::report::IterationRecord;

pub use tcim_submodular::GreedyAlgorithm;

/// Resolves the candidate (ground-set) node indices: the explicit candidate
/// list when given, otherwise every node of the graph.
pub(crate) fn resolve_candidates(
    oracle: &dyn InfluenceOracle,
    candidates: Option<&[NodeId]>,
) -> Result<Vec<usize>> {
    let n = oracle.graph().num_nodes();
    let ground: Vec<usize> = match candidates {
        Some(list) => {
            for &c in list {
                if c.index() >= n {
                    return Err(CoreError::InvalidConfig {
                        message: format!("candidate node {c} out of bounds ({n} nodes)"),
                    });
                }
            }
            list.iter().map(|c| c.index()).collect()
        }
        None => (0..n).collect(),
    };
    if ground.is_empty() {
        return Err(CoreError::InvalidConfig { message: "candidate set is empty".to_string() });
    }
    Ok(ground)
}

/// Replays `seeds` on a fresh cursor of `oracle`, returning the influence
/// after each prefix. Used to attach per-iteration influence records to the
/// solver reports without entangling the solvers themselves.
pub(crate) fn replay_influence(
    oracle: &dyn InfluenceOracle,
    seeds: &[NodeId],
    objective_values: &[f64],
) -> Vec<IterationRecord> {
    let mut cursor = oracle.cursor();
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            cursor.add_seed(seed);
            IterationRecord {
                seed,
                influence: cursor.current().clone(),
                objective_value: objective_values.get(i).copied().unwrap_or_default(),
            }
        })
        .collect()
}

/// Final influence of a seed set according to `oracle` (empty seed sets give
/// the all-zero vector).
pub(crate) fn final_influence(
    oracle: &dyn InfluenceOracle,
    seeds: &[NodeId],
) -> Result<GroupInfluence> {
    Ok(oracle.evaluate(seeds)?)
}
