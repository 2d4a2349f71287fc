//! Config-driven estimator selection: one enum that builds and wraps any of
//! the three influence oracles, so applications (and the figure binaries)
//! choose the estimator with data instead of code.
//!
//! The live-edge [`WorldEstimator`] is the default — its cursor is exact on
//! the sampled worlds. The RIS backend ([`RisEstimator`]) wins on large
//! sparse graphs where forward world sampling touches far more edges than
//! the reverse sketches do; its [`tcim_diffusion::RisCursor`] drives
//! greedy/CELF just as incrementally. The Monte-Carlo backend re-samples per
//! query and serves as an unbiased held-out cross-check.

use std::sync::Arc;

use tcim_diffusion::{
    Deadline, GroupInfluence, InfluenceCursor, InfluenceOracle, MonteCarloEstimator, RisConfig,
    RisEstimator, WorldCollection, WorldEstimator, WorldsConfig,
};
use tcim_graph::{Graph, NodeId};

use crate::error::{CoreError, Result};

/// Which estimator backs the influence oracle, with its knobs.
///
/// All three backends satisfy [`InfluenceOracle`], so every solver and every
/// fairness-audit path ([`crate::fairness::audit_seed_set`], the disparity
/// and maximin reports) accepts any of them interchangeably.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorConfig {
    /// Pre-sampled live-edge worlds (common random numbers); the default.
    Worlds(WorldsConfig),
    /// Fresh independent-cascade simulations per query.
    MonteCarlo {
        /// Cascades per query.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Reverse-reachable sketches with the incremental coverage cursor.
    Ris(RisConfig),
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig::Worlds(WorldsConfig::default())
    }
}

impl EstimatorConfig {
    /// Canonical, collision-free encoding of the config: `worlds:n=…,s=…`,
    /// `mc:n=…,s=…` or `ris:n=…,s=…[,adaptive(…)]`. The parallelism knob is
    /// deliberately excluded — thread counts never change results, so two
    /// configs differing only in parallelism must encode (and cache)
    /// identically. Float knobs render via their exact bits so distinct
    /// configs can never collide. [`crate::ProblemSpec::canonical`] and the
    /// service-layer oracle cache key derive from this.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        match self {
            EstimatorConfig::Worlds(w) => format!("worlds:n={},s={}", w.num_worlds, w.seed),
            EstimatorConfig::MonteCarlo { samples, seed } => format!("mc:n={samples},s={seed}"),
            EstimatorConfig::Ris(r) => {
                let mut key = format!("ris:n={},s={}", r.num_sets, r.seed);
                if let Some(a) = &r.adaptive {
                    let _ = write!(
                        key,
                        ",adaptive(eps={:016x},delta={:016x},b={},max={})",
                        a.epsilon.to_bits(),
                        a.delta.to_bits(),
                        a.budget,
                        a.max_sets
                    );
                }
                key
            }
        }
    }

    /// Builds the configured estimator over `graph` for `deadline`.
    ///
    /// # Errors
    ///
    /// Propagates the backend's construction errors (zero samples, empty
    /// graph, invalid adaptive parameters).
    pub fn build(&self, graph: Arc<Graph>, deadline: Deadline) -> Result<Estimator> {
        Ok(match self {
            EstimatorConfig::Worlds(config) => {
                Estimator::Worlds(WorldEstimator::new(graph, deadline, config)?)
            }
            EstimatorConfig::MonteCarlo { samples, seed } => {
                Estimator::MonteCarlo(MonteCarloEstimator::new(graph, deadline, *samples, *seed)?)
            }
            EstimatorConfig::Ris(config) => {
                Estimator::Ris(RisEstimator::new(graph, deadline, config)?)
            }
        })
    }

    /// Builds a worlds-backed estimator from an already-sampled live-edge
    /// collection instead of re-sampling — the serving path: one cached
    /// [`WorldCollection`] (which is deadline-independent) can back oracles
    /// for any number of deadlines. The result is bitwise-identical to
    /// [`EstimatorConfig::build`] with the same config, because the
    /// collection itself is a deterministic function of `(graph, num_worlds,
    /// seed)` regardless of who sampled it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `self` is not a
    /// [`EstimatorConfig::Worlds`] config, or when `worlds` does not match
    /// the config's world count or the graph's node count (a mismatched
    /// collection would silently estimate on the wrong sample).
    pub fn build_with_worlds(
        &self,
        graph: Arc<Graph>,
        worlds: Arc<WorldCollection>,
        deadline: Deadline,
    ) -> Result<Estimator> {
        let EstimatorConfig::Worlds(config) = self else {
            return Err(CoreError::InvalidConfig {
                message: "build_with_worlds requires a Worlds estimator config".to_string(),
            });
        };
        if worlds.len() != config.num_worlds {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "cached collection has {} worlds but the config asks for {}",
                    worlds.len(),
                    config.num_worlds
                ),
            });
        }
        if worlds.num_nodes() != graph.num_nodes() {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "cached collection covers {} nodes but the graph has {}",
                    worlds.num_nodes(),
                    graph.num_nodes()
                ),
            });
        }
        Ok(Estimator::Worlds(
            WorldEstimator::from_worlds(graph, worlds, deadline)
                .with_parallelism(config.parallelism),
        ))
    }
}

/// A concrete influence oracle built from an [`EstimatorConfig`]; delegates
/// every [`InfluenceOracle`] method to the wrapped backend, so it plugs
/// directly into [`crate::solve`] with any [`crate::ProblemSpec`].
#[derive(Debug, Clone)]
pub enum Estimator {
    /// Live-edge world backend.
    Worlds(WorldEstimator),
    /// Fresh Monte-Carlo backend.
    MonteCarlo(MonteCarloEstimator),
    /// Reverse-reachable sketch backend.
    Ris(RisEstimator),
}

impl Estimator {
    /// Short label for reports and tables.
    pub fn label(&self) -> &'static str {
        match self {
            Estimator::Worlds(_) => "worlds",
            Estimator::MonteCarlo(_) => "monte-carlo",
            Estimator::Ris(_) => "ris",
        }
    }

    /// Approximate resident bytes this oracle *owns*. Worlds-backed oracles
    /// are views over a shared collection, so they report only their private
    /// group tables ([`WorldEstimator::approx_view_bytes`]); RIS oracles own
    /// their sketch pool and reverse adjacency
    /// ([`RisEstimator::approx_owned_bytes`]); Monte-Carlo oracles hold no
    /// heap beyond the shared graph `Arc`. Shared graphs and world
    /// collections are not counted here; a cache that keeps this oracle
    /// resident must charge for them too, because the oracle keeps them
    /// alive.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + match self {
                Estimator::Worlds(e) => e.approx_view_bytes(),
                Estimator::MonteCarlo(_) => 0,
                Estimator::Ris(e) => e.approx_owned_bytes(),
            }
    }
}

impl InfluenceOracle for Estimator {
    fn graph(&self) -> &Graph {
        match self {
            Estimator::Worlds(e) => e.graph(),
            Estimator::MonteCarlo(e) => e.graph(),
            Estimator::Ris(e) => e.graph(),
        }
    }

    fn deadline(&self) -> Deadline {
        match self {
            Estimator::Worlds(e) => e.deadline(),
            Estimator::MonteCarlo(e) => e.deadline(),
            Estimator::Ris(e) => e.deadline(),
        }
    }

    fn evaluate(&self, seeds: &[NodeId]) -> tcim_diffusion::Result<GroupInfluence> {
        match self {
            Estimator::Worlds(e) => e.evaluate(seeds),
            Estimator::MonteCarlo(e) => e.evaluate(seeds),
            Estimator::Ris(e) => e.evaluate(seeds),
        }
    }

    fn cursor(&self) -> Box<dyn InfluenceCursor + '_> {
        match self {
            Estimator::Worlds(e) => e.cursor(),
            Estimator::MonteCarlo(e) => e.cursor(),
            Estimator::Ris(e) => e.cursor(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, ProblemSpec};
    use tcim_diffusion::ParallelismConfig;
    use tcim_graph::generators::{stochastic_block_model, SbmConfig};

    fn sbm() -> Arc<Graph> {
        Arc::new(
            stochastic_block_model(&SbmConfig::two_group(120, 0.7, 0.08, 0.01, 0.2, 3)).unwrap(),
        )
    }

    #[test]
    fn every_backend_builds_and_solves() {
        let graph = sbm();
        let deadline = Deadline::finite(3);
        let configs = [
            EstimatorConfig::default(),
            EstimatorConfig::MonteCarlo { samples: 60, seed: 1 },
            EstimatorConfig::Ris(RisConfig { num_sets: 4000, seed: 2, ..Default::default() }),
        ];
        for config in configs {
            let oracle = config.build(Arc::clone(&graph), deadline).unwrap();
            let report = solve(&oracle, &ProblemSpec::budget(3).unwrap()).unwrap();
            assert_eq!(report.num_seeds(), 3, "{} backend", oracle.label());
            assert!(report.influence.total() > 0.0, "{} backend", oracle.label());
            assert_eq!(oracle.deadline(), deadline);
            assert_eq!(oracle.graph().num_nodes(), 120);
        }
    }

    #[test]
    fn labels_name_the_backend() {
        let graph = sbm();
        let deadline = Deadline::finite(2);
        let worlds = EstimatorConfig::Worlds(WorldsConfig {
            num_worlds: 4,
            seed: 0,
            parallelism: ParallelismConfig::serial(),
        })
        .build(Arc::clone(&graph), deadline)
        .unwrap();
        assert_eq!(worlds.label(), "worlds");
        let mc = EstimatorConfig::MonteCarlo { samples: 4, seed: 0 }
            .build(Arc::clone(&graph), deadline)
            .unwrap();
        assert_eq!(mc.label(), "monte-carlo");
        let ris = EstimatorConfig::Ris(RisConfig { num_sets: 4, ..Default::default() })
            .build(graph, deadline)
            .unwrap();
        assert_eq!(ris.label(), "ris");
    }

    #[test]
    fn build_with_worlds_reuses_the_collection_bitwise() {
        let graph = sbm();
        let config =
            EstimatorConfig::Worlds(WorldsConfig { num_worlds: 24, seed: 9, ..Default::default() });
        let cold = config.build(Arc::clone(&graph), Deadline::finite(3)).unwrap();
        let Estimator::Worlds(world_est) = &cold else { panic!("worlds config") };
        let shared = world_est.worlds_arc();

        // The same collection serves a *different* deadline without
        // re-sampling, and the answers match a cold build bitwise.
        for deadline in [Deadline::finite(3), Deadline::finite(1)] {
            let cached = config
                .build_with_worlds(Arc::clone(&graph), Arc::clone(&shared), deadline)
                .unwrap();
            let fresh = config.build(Arc::clone(&graph), deadline).unwrap();
            let a = cached.evaluate(&[NodeId(0), NodeId(60)]).unwrap();
            let b = fresh.evaluate(&[NodeId(0), NodeId(60)]).unwrap();
            for (x, y) in a.values().iter().zip(b.values()) {
                assert_eq!(x.to_bits(), y.to_bits(), "cached vs cold at {deadline}");
            }
        }

        // Mismatches are rejected instead of silently estimating wrong.
        let wrong_count =
            EstimatorConfig::Worlds(WorldsConfig { num_worlds: 25, seed: 9, ..Default::default() });
        assert!(wrong_count
            .build_with_worlds(Arc::clone(&graph), Arc::clone(&shared), Deadline::finite(3))
            .is_err());
        assert!(EstimatorConfig::MonteCarlo { samples: 4, seed: 0 }
            .build_with_worlds(graph, shared, Deadline::finite(3))
            .is_err());
    }

    #[test]
    fn construction_errors_propagate() {
        let graph = sbm();
        assert!(EstimatorConfig::MonteCarlo { samples: 0, seed: 0 }
            .build(Arc::clone(&graph), Deadline::unbounded())
            .is_err());
        assert!(EstimatorConfig::Ris(RisConfig { num_sets: 0, ..Default::default() })
            .build(graph, Deadline::unbounded())
            .is_err());
    }
}
