//! The in-process halves of a run, both outside the timed window: the
//! serial reference every served response must match byte for byte, and
//! the traced pass that calls each layer's public function directly.

use std::sync::Arc;

use tcim_core::{audit_seed_set, solve};
use tcim_diffusion::{InfluenceOracle, ParallelismConfig};
use tcim_service::{CacheStats, Json, Op, OracleCache, Request, ServiceEngine};

use crate::trace::{CursorGains, Span, TracedOracle, Tracer};
use crate::traffic::Traffic;

/// Expected responses from a serial in-process engine.
pub struct Reference {
    /// The expected response line for every served line.
    pub lines: Vec<String>,
    /// The expected responses of the leading prefix, parsed.
    pub prefix: Vec<Json>,
    /// Decode + serve + encode time summed over the prefix, s.
    pub prefix_wall_s: f64,
    /// The cache counters at the end of the prefix.
    pub cache_after_prefix: CacheStats,
}

fn parse(line: &str) -> Result<Request, String> {
    Request::parse_line(line).map_err(|e| format!("generated request rejected: {e}: {line}"))
}

/// A serial engine on a fresh cache with the run's budget, after the
/// warm-up lines.
fn warmed_engine(traffic: &Traffic) -> Result<(Arc<OracleCache>, ServiceEngine), String> {
    let cache = Arc::new(OracleCache::with_config(traffic.cache));
    let engine = ServiceEngine::with_cache(Arc::clone(&cache), ParallelismConfig::serial());
    for line in &traffic.warmup {
        engine.serve(&parse(line)?);
    }
    Ok((cache, engine))
}

/// Serves the warm-up and the first `served` stream lines, every one of
/// them, through a fresh serial engine.
pub fn reference(traffic: &Traffic, served: usize, prefix_len: usize) -> Result<Reference, String> {
    let (cache, engine) = warmed_engine(traffic)?;
    let mut lines = Vec::with_capacity(served);
    let mut prefix = Vec::with_capacity(prefix_len);
    let mut prefix_wall_s = 0.0;
    let mut cache_after_prefix = cache.stats();
    for (i, line) in traffic.lines[..served].iter().enumerate() {
        let in_prefix = i < prefix_len;
        let start = crate::measure::now();
        let response = engine.serve(&parse(line)?);
        lines.push(response.to_string());
        if in_prefix {
            prefix_wall_s += start.elapsed().as_secs_f64();
            cache_after_prefix = cache.stats();
            prefix.push(response);
        }
    }
    Ok(Reference { lines, prefix, prefix_wall_s, cache_after_prefix })
}

/// What the traced pass recorded.
pub struct TracedRun {
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// The gain calls of every cursor the solvers opened, in opening order.
    pub cursors: Vec<CursorGains>,
    /// Wall time of the traced loop, s.
    pub wall_s: f64,
    /// Cache counters after warm-up and after the traced loop.
    pub cache_before: CacheStats,
    /// See `cache_before`.
    pub cache_after: CacheStats,
    /// Request bytes decoded, newlines included.
    pub bytes_in: u64,
    /// Response bytes encoded, newlines included.
    pub bytes_out: u64,
    /// The wire id of each traced request, JSON-encoded.
    pub ids: Vec<String>,
}

/// One request through the layers, calling what the engine calls: decode,
/// then `OracleCache::mutate` or `OracleCache::oracle`, then solve / audit /
/// estimate through a [`TracedOracle`], then encode of the expected
/// response. Nothing else touches the cache: a lookup refreshes recency and
/// promotes the entry, so any extra one would change what the cache evicts.
/// An oracle build's graph and world-pool lookups therefore run inside the
/// `cache.oracle` span. Returns the request's wire id and the encoded
/// length.
fn traced_request(
    cache: &OracleCache,
    tracer: &Tracer,
    line: &str,
    expected: &Json,
) -> Result<(String, usize), String> {
    let request = tracer.span("protocol.decode", || parse(line))?;
    let id = request.id.as_ref().map_or("null".to_string(), Json::to_string);
    let err = |e: &dyn std::fmt::Display| format!("{e}: {line}");
    if let Op::Mutate { dataset, ops } = &request.op {
        tracer.span("cache.mutate", || cache.mutate(dataset, ops)).map_err(|e| err(&e))?;
    } else {
        let spec = request.oracle.as_ref().ok_or_else(|| err(&"request without an oracle"))?;
        let oracle = tracer.span("cache.oracle", || cache.oracle(spec)).map_err(|e| err(&e))?;
        let traced = TracedOracle::new(oracle.as_ref(), tracer);
        match &request.op {
            Op::Solve(problem) => {
                tracer.span("core.solve", || solve(&traced, problem)).map_err(|e| err(&e))?;
            }
            Op::Audit { seeds } => {
                tracer
                    .span("core.solve", || audit_seed_set(&traced, seeds))
                    .map_err(|e| err(&e))?;
            }
            Op::Estimate { seeds } => {
                traced.evaluate(seeds).map_err(|e| err(&e))?;
            }
            _ => return Err(err(&"unexpected op in the traced pass")),
        }
    }
    let encoded = tracer.span("protocol.encode", || expected.to_string()).len();
    Ok((id, encoded))
}

/// Serves the warm-up through a serial engine, then replays the reference's
/// prefix traced, on a fresh cache with the server's budget.
pub fn traced_pass(traffic: &Traffic, reference: &Reference) -> Result<TracedRun, String> {
    let (cache, _engine) = warmed_engine(traffic)?;
    let cache_before = cache.stats();
    let tracer = Tracer::new();
    let expected = &reference.prefix;
    let (mut bytes_in, mut bytes_out, mut ids) = (0, 0, Vec::with_capacity(expected.len()));
    let start = crate::measure::now();
    for (i, (line, response)) in traffic.lines.iter().zip(expected).enumerate() {
        tracer.set_request(i);
        let (id, encoded) = traced_request(&cache, &tracer, line, response)?;
        ids.push(id);
        bytes_out += encoded as u64 + 1;
        bytes_in += line.len() as u64 + 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (spans, cursors) = tracer.finish();
    Ok(TracedRun {
        spans,
        cursors,
        wall_s,
        cache_before,
        cache_after: cache.stats(),
        bytes_in,
        bytes_out,
        ids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, Workload};

    #[test]
    fn the_traced_pass_leaves_the_cache_as_the_reference_did() {
        for (workload, prefix) in [(Workload::ScenarioSweep, 3), (Workload::ChurnResolve, 12)] {
            let traffic = generate(workload, 9).unwrap();
            let reference = reference(&traffic, prefix, prefix).unwrap();
            let traced = traced_pass(&traffic, &reference).unwrap();
            assert!(traced.cache_after.oracle_misses > traced.cache_before.oracle_misses);
            assert_eq!(traced.cache_after, reference.cache_after_prefix, "{}", workload.name());
        }
    }

    #[test]
    fn gain_calls_are_counted_per_greedy_pass() {
        // A P1 solve runs one greedy pass; a P3 solve runs a ladder of them.
        let mut traffic = generate(Workload::ScenarioSweep, 9).unwrap();
        let pick = |label: &str| {
            let id = format!(r#""id":"{label}-sbm-n150-s1000""#);
            traffic.lines.iter().find(|line| line.contains(&id)).unwrap().clone()
        };
        traffic.lines = vec![pick("P1"), pick("P3")];
        let reference = reference(&traffic, 2, 2).unwrap();
        let traced = traced_pass(&traffic, &reference).unwrap();
        let passes = |request: usize| -> Vec<u64> {
            let cursors = traced.cursors.iter().filter(|c| c.request == request && c.gains > 0);
            cursors.map(|c| c.gains).collect()
        };
        let reported = |request: usize| {
            reference.prefix[request].get("gain_evaluations").unwrap().as_f64().unwrap() as u64
        };
        assert_eq!(passes(0), vec![reported(0)]);
        assert!(passes(1).len() > 1, "{:?}", passes(1));
        let spans = traced.spans.iter().filter(|s| s.name == "diffusion.gain").count() as u64;
        assert_eq!(spans, passes(0)[0] + passes(1).iter().sum::<u64>());
        assert!(crate::unreported_gains(&passes(1), reported(1)).is_some());
    }
}
