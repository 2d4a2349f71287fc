//! Workload traffic. Every request line the benchmark sends — warm-up and
//! timed stream alike — is a pure function of `(workload, seed)`: no clock,
//! no ambient randomness, no server state. The server only ever sees these
//! generated lines.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, RngExt, SeedableRng};
use tcim_datasets::churn::ChurnConfig;
use tcim_datasets::Dataset;
use tcim_service::protocol::scenario_from_json;
use tcim_service::{CacheConfig, DatasetSpec, Json, Request};

/// The benchmark's workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold server, every scenario new: graph build, world sampling and
    /// cover greedy do the work.
    ScenarioSweep,
    /// One registry dataset, oracles built in set-up: the timed window is
    /// all cache hits, so codec, serving tier, greedy over warm oracles and
    /// parallel gains show.
    FigureGrid,
    /// Sparse mutations interleaved with re-solves: the cache write path.
    ChurnResolve,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] =
        [Workload::ScenarioSweep, Workload::FigureGrid, Workload::ChurnResolve];

    /// The workload's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScenarioSweep => "scenario-sweep",
            Workload::FigureGrid => "figure-grid",
            Workload::ChurnResolve => "churn-resolve",
        }
    }

    /// Resolves a CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests every run serves at least (rounded up to whole blocks): at
    /// least 100, so p90 has ≥ 10 samples beyond it. The sweep and the grid
    /// take more than their window reaches even on a fast host (the sweep
    /// four blocks, ~12–16 s at 14–18 req/s; the grid two cycles, ~14–17 s
    /// at 9–11 req/s), so each of their runs serves the same requests: a
    /// sweep block is a different set of graphs, and a run that stopped
    /// after three blocks on a slow host and four on a fast one would
    /// measure a different mix, cache fill and peak RSS. Churn blocks are
    /// six lines of one mix, so its window is the time alone.
    pub fn min_requests(self) -> usize {
        match self {
            Workload::ScenarioSweep => 216,
            Workload::FigureGrid => 156,
            Workload::ChurnResolve => 100,
        }
    }

    /// Closed-loop client connections, so that the threads doing work stay
    /// within two cores. A sweep request runs on one thread. Every grid
    /// worlds gain fans out over the engine's threads, so the grid keeps
    /// one connection; churn keeps one so mutation order is the stream
    /// order.
    pub fn connections(self) -> usize {
        match self {
            Workload::ScenarioSweep => 2,
            Workload::FigureGrid | Workload::ChurnResolve => 1,
        }
    }
}

/// The generated traffic of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traffic {
    /// Lines served during set-up, before the timed window (oracle builds).
    pub warmup: Vec<String>,
    /// The timed stream; clients take lines in order until the run ends.
    pub lines: Vec<String>,
    /// The stream's period: every `block` lines hold one full request mix
    /// (a sweep block, a grid cycle, a churn step). Runs serve whole blocks.
    pub block: usize,
    /// The cache every engine of the run uses (server, reference, traced).
    pub cache: CacheConfig,
}

/// Generates the traffic of `workload` for `seed`.
///
/// # Errors
///
/// Fails only if a dataset the traffic is drawn against cannot be built.
pub fn generate(workload: Workload, seed: u64) -> Result<Traffic, String> {
    match workload {
        Workload::ScenarioSweep => Ok(scenario_sweep(seed)),
        Workload::FigureGrid => figure_grid(seed),
        Workload::ChurnResolve => churn_resolve(seed),
    }
}

/// The sweep's generator families: name and inline scenario object, with
/// `NODES` standing for the size (the parameters `tcim_workload` uses).
const FAMILIES: [(&str, &str); 3] = [
    (
        "sbm",
        r#"{"family":"sbm","nodes":NODES,"p_within":0.05,"p_across":0.005,"majority_fraction":0.7,"weights":"uniform","edge_probability":0.1}"#,
    ),
    (
        "ba",
        r#"{"family":"barabasi-albert","nodes":NODES,"edges_per_node":3,"homophily_bias":4.0,"weights":"weighted-cascade"}"#,
    ),
    (
        "ws",
        r#"{"family":"watts-strogatz","nodes":NODES,"neighbors":3,"rewire_probability":0.1,"weights":"uniform","edge_probability":0.1}"#,
    ),
];

fn scenario_object(template: &str, nodes: usize) -> String {
    template.replace("NODES", &nodes.to_string())
}

/// The six paper problems as request fragments: label, op, problem fields.
const PROBLEMS: [(&str, &str, &str); 6] = [
    ("P1", "solve_budget", r#""budget":3"#),
    ("P2", "solve_cover", r#""quota":0.1"#),
    ("P3", "solve_budget", r#""budget":3,"disparity_cap":0.4"#),
    ("P4", "solve_budget", r#""budget":3,"fair":true,"wrapper":"log""#),
    ("P5", "solve_cover", r#""quota":0.1,"disparity_cap":0.4"#),
    ("P6", "solve_cover", r#""quota":0.1,"fair":true"#),
];

/// The sweep's cache budget: far below its working set, so the cache fills
/// and evicts and memory plateaus instead of growing with the number of
/// scenarios a run reaches. The other workloads keep the default budget,
/// which holds all their oracles.
const SWEEP_CACHE_BYTES: usize = 4 << 20;
const SWEEP_SIZES: [usize; 3] = [150, 300, 600];
/// Dataset seeds in the stream; each contributes one block of
/// sizes × families × problems lines, far more than one run serves.
const SWEEP_BLOCKS: u64 = 40;
/// Block `b` draws its scenarios with dataset seed `SWEEP_DATASET_SEED + b`.
const SWEEP_DATASET_SEED: u64 = 1_000;

/// `tcim_workload`'s sweep as an endless-enough stream: block `b` holds
/// every (size, family, problem) for dataset seed `SWEEP_DATASET_SEED + b`,
/// so every scenario is new to the server. The blocks are fixed, as the
/// grid's oracles are: which graphs a run meets then does not move with the
/// seed, which shuffles each block, so every prefix mixes cheap and
/// expensive requests in its own order.
fn scenario_sweep(seed: u64) -> Traffic {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = Vec::new();
    for block in 0..SWEEP_BLOCKS {
        let dataset_seed = SWEEP_DATASET_SEED + block;
        let mut block_lines = Vec::new();
        for size in SWEEP_SIZES {
            for (family, template) in FAMILIES {
                let scenario = scenario_object(template, size);
                for (label, op, problem) in PROBLEMS {
                    block_lines.push(format!(
                        r#"{{"id":"{label}-{family}-n{size}-s{dataset_seed}","op":"{op}","scenario":{scenario},"dataset_seed":{dataset_seed},"deadline":5,"samples":64,{problem}}}"#
                    ));
                }
            }
        }
        block_lines.shuffle(&mut rng);
        lines.extend(block_lines);
    }
    let block = SWEEP_SIZES.len() * FAMILIES.len() * PROBLEMS.len();
    let cache = CacheConfig { max_bytes: SWEEP_CACHE_BYTES, ..CacheConfig::default() };
    Traffic { warmup: Vec::new(), lines, block, cache }
}

const GRID_DATASET: &str = "rice-facebook";
const GRID_DATASET_SEED: u64 = 42;
const GRID_DEADLINES: [u32; 3] = [1, 2, 5];
const GRID_BUDGETS: [usize; 3] = [1, 2, 4];
/// Estimator fields of the two oracle kinds the figures compare, at the
/// rice figures' quick setting of 100 worlds.
const GRID_ESTIMATORS: [(&str, &str); 2] =
    [("worlds", r#""samples":100"#), ("ris", r#""estimator":"ris","samples":2000"#)];
const GRID_PROBLEMS: [(&str, &str); 3] =
    [("P1", ""), ("P3", r#","disparity_cap":0.2"#), ("P4", r#","fair":true,"wrapper":"log""#)];
/// Passes over the grid in the stream, each in its own shuffled order.
const GRID_CYCLES: usize = 150;

/// The paper's figure access pattern: a τ × B grid of P1/P3/P4 plus fairness
/// audits and raw estimates of fixed seed sets, on worlds and RIS oracles of
/// one registry dataset. Set-up builds every oracle the grid touches. The
/// grid and its oracles are fixed, as a figure's are; the seed picks the
/// arrival order within each cycle.
fn figure_grid(seed: u64) -> Result<Traffic, String> {
    let dataset = DatasetSpec::parse(GRID_DATASET, GRID_DATASET_SEED).map_err(|e| e.to_string())?;
    let nodes = dataset
        .dataset
        .build(GRID_DATASET_SEED)
        .map_err(|e| format!("cannot build {GRID_DATASET}: {e}"))?
        .graph
        .num_nodes();
    let mut seed_sets = StdRng::seed_from_u64(GRID_DATASET_SEED);
    let head = |tau: u32, fields: &str| {
        format!(
            r#""dataset":"{GRID_DATASET}","dataset_seed":{GRID_DATASET_SEED},"deadline":{tau},{fields}"#
        )
    };
    let mut warmup = Vec::new();
    let mut cells = Vec::new();
    for tau in GRID_DEADLINES {
        for (est, fields) in GRID_ESTIMATORS {
            let head = head(tau, fields);
            warmup.push(format!(
                r#"{{"id":"warm-t{tau}-{est}","op":"estimate",{head},"seeds":[0]}}"#
            ));
            for budget in GRID_BUDGETS {
                for (label, extra) in GRID_PROBLEMS {
                    cells.push(format!(
                        r#"{{"id":"{label}-t{tau}-b{budget}-{est}","op":"solve_budget",{head},"budget":{budget}{extra}}}"#
                    ));
                }
            }
            for op in ["audit", "estimate"] {
                for set in 0..2 {
                    let size = 3 + seed_sets.random_range(0..8usize);
                    let seeds: Vec<String> =
                        (0..size).map(|_| seed_sets.random_range(0..nodes).to_string()).collect();
                    cells.push(format!(
                        r#"{{"id":"{op}{set}-t{tau}-{est}","op":"{op}",{head},"seeds":[{}]}}"#,
                        seeds.join(",")
                    ));
                }
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = Vec::with_capacity(cells.len() * GRID_CYCLES);
    for _ in 0..GRID_CYCLES {
        let mut cycle = cells.clone();
        cycle.shuffle(&mut rng);
        lines.extend(cycle);
    }
    Ok(Traffic { warmup, lines, block: cells.len(), cache: CacheConfig::default() })
}

const CHURN_NODES: usize = 400;
const CHURN_DATASET_SEED: u64 = 7;
const CHURN_OPS_PER_STEP: usize = 4;
/// Mutation steps in the stream, far more than one run serves.
const CHURN_STEPS: usize = 1_500;
/// The re-solves probing each graph version: P1/P2/P4 on worlds, P1/P4 on
/// RIS (`RisEstimator::refresh` and `WorldCollection::patch` both run).
const CHURN_SOLVES: [(&str, &str, &str); 5] = [
    ("p1-w", "solve_budget", r#""samples":64,"budget":3"#),
    ("p2-w", "solve_cover", r#""samples":64,"quota":0.1"#),
    ("p4-w", "solve_budget", r#""samples":64,"budget":3,"fair":true,"wrapper":"log""#),
    ("p1-r", "solve_budget", r#""estimator":"ris","samples":2000,"budget":3"#),
    ("p4-r", "solve_budget", r#""estimator":"ris","samples":2000,"budget":3,"fair":true"#),
];

/// Sparse `mutate` batches from a [`ChurnConfig`] stream, each followed by
/// the re-solves of [`CHURN_SOLVES`]. Set-up builds the version-0 oracles.
fn churn_resolve(seed: u64) -> Result<Traffic, String> {
    let scenario = scenario_object(FAMILIES[0].1, CHURN_NODES);
    let spec = Json::parse(&scenario)
        .map_err(|e| e.to_string())
        .and_then(|json| scenario_from_json(&json).map_err(|e| e.to_string()))?;
    let base =
        spec.build(CHURN_DATASET_SEED).map_err(|e| format!("cannot build churn base: {e}"))?;
    let churn_seed = StdRng::seed_from_u64(seed).next_u64() >> 24;
    let steps = ChurnConfig::new(CHURN_STEPS, CHURN_OPS_PER_STEP, churn_seed)
        .generate(&base)
        .map_err(|e| format!("cannot generate churn: {e}"))?
        .steps;
    let dataset = DatasetSpec { dataset: Dataset::Scenario(spec), seed: CHURN_DATASET_SEED };
    let solves = |version: usize| -> Vec<String> {
        CHURN_SOLVES
            .iter()
            .map(|(label, op, fields)| {
                format!(
                    r#"{{"id":"{label}-v{version}","op":"{op}","scenario":{scenario},"dataset_seed":{CHURN_DATASET_SEED},"deadline":4,{fields}}}"#
                )
            })
            .collect()
    };
    let mut lines = Vec::with_capacity(steps.len() * (CHURN_SOLVES.len() + 1));
    for (step, ops) in steps.into_iter().enumerate() {
        let id = Json::from(format!("m{step}").as_str());
        lines.push(Request::mutate(Some(id), dataset.clone(), ops).to_json().to_string());
        lines.extend(solves(step + 1));
    }
    Ok(Traffic {
        warmup: solves(0),
        lines,
        block: CHURN_SOLVES.len() + 1,
        cache: CacheConfig::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_traffic() {
        for workload in Workload::ALL {
            let a = generate(workload, 11).unwrap();
            let b = generate(workload, 11).unwrap();
            assert_eq!(a, b, "{}", workload.name());
            let c = generate(workload, 12).unwrap();
            assert_ne!(a.lines, c.lines, "{}: the seed must matter", workload.name());
        }
    }

    #[test]
    fn every_generated_line_parses() {
        for workload in Workload::ALL {
            let traffic = generate(workload, 3).unwrap();
            for line in traffic.warmup.iter().chain(traffic.lines.iter().take(500)) {
                Request::parse_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            }
        }
    }

    #[test]
    fn streams_are_whole_blocks_of_distinct_mixes() {
        for workload in Workload::ALL {
            let traffic = generate(workload, 5).unwrap();
            assert_eq!(traffic.lines.len() % traffic.block, 0, "{}", workload.name());
            let first: std::collections::BTreeSet<&String> =
                traffic.lines[..traffic.block].iter().collect();
            assert_eq!(first.len(), traffic.block, "{}: a block repeats a line", workload.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
