//! Serving benchmark for fairtcim.
//!
//! ```text
//! tcim-servebench --workload <scenario-sweep|figure-grid|churn-resolve>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run: set up a `tcim_service::Server` on loopback TCP several times
//! (mean of the repeats = `setup_s`), serve the workload's stream with closed-loop
//! clients for `--seconds` and whole blocks of the stream (at least
//! [`Workload::min_requests`]), then check every response byte for byte
//! against a serial in-process reference. `--trace 1` adds the traced
//! in-process pass over the leading blocks and reports per-layer metrics
//! instead of end-to-end ones. The last stdout line is the result object; the line before it
//! records the run's conditions. Exit 0 on a correct run, 1 on a failed
//! correctness gate or run, 2 on bad usage.

mod inprocess;
mod measure;
mod serve;
mod trace;
mod traffic;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use tcim_diffusion::ParallelismConfig;
use tcim_service::Json;

use crate::measure::nearest_rank;
use crate::traffic::Workload;

/// Set-ups repeated after the timed window: at least [`MIN_SETUPS`], more
/// while they stay within [`SETUP_REPEAT_BUDGET`]. `setup_s` is their mean,
/// not their median: the server's accept loop polls every 20 ms, so a
/// set-up lands on one of two modes ~20 ms apart, and a median flips
/// between them from run to run while the mean moves smoothly with their
/// mix. The first, cold set-up (the one that serves the window) is recorded
/// but left out of the mean.
const MIN_SETUPS: usize = 5;
/// See [`MIN_SETUPS`].
const MAX_SETUPS: usize = 50;
/// See [`MIN_SETUPS`].
const SETUP_REPEAT_BUDGET: Duration = Duration::from_secs(2);
/// The traced pass must attribute at least this share of its wall time.
const MIN_COVERAGE: f64 = 0.9;

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Cli {
        workload: workload
            .ok_or_else(|| format!("--workload is required ({})", names.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A named metric value with its unit.
struct Metric(&'static str, f64, &'static str);

/// Mean of `value` over the responses it is defined for (0 when none).
fn mean_of(responses: &[Json], value: impl Fn(&Json) -> Option<f64>) -> f64 {
    let values: Vec<f64> = responses.iter().filter_map(value).collect();
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The result line: one JSON object with exactly the keys the benchmark
/// contract names.
fn render(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, Metric(name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(body, r#"{sep}"{name}": {{"value": {value:?}, "unit": "{unit}"}}"#);
    }
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{body}}}}}"#
    )
}

fn run(cli: &Cli) -> Result<bool, String> {
    let traffic = traffic::generate(cli.workload, cli.seed)?;
    let connections = cli.workload.connections();

    // Set-up: a cold server, connected and warmed. The first set-up serves
    // the timed window; the repeats come after it, so the memory high-water
    // mark covers one set-up plus the window.
    let start = crate::measure::now();
    let mut rig = serve::Rig::start(connections, traffic.cache, &traffic.warmup)?;
    let first_setup_s = start.elapsed().as_secs_f64();
    // Every run serves this prefix, so the quality metrics and the traced
    // pass, which cover it, are a function of (workload, seed) alone.
    let prefix = cli.workload.min_requests().div_ceil(traffic.block) * traffic.block;
    let served = rig.run_timed(&traffic.lines, traffic.block, cli.seconds, prefix)?;
    let peak_rss_mb = measure::peak_rss_mb()?;
    let stats = rig.stats()?;
    rig.stop()?;
    let repeats = crate::measure::now();
    let mut setup_times = Vec::new();
    while setup_times.len() < MIN_SETUPS
        || (setup_times.len() < MAX_SETUPS && repeats.elapsed() < SETUP_REPEAT_BUDGET)
    {
        let start = crate::measure::now();
        let rig = serve::Rig::start(connections, traffic.cache, &traffic.warmup)?;
        setup_times.push(start.elapsed().as_secs_f64());
        rig.stop()?;
    }

    // Correctness gate: ok and byte-identical to the serial reference.
    let attempted = served.responses.len();
    let reference = inprocess::reference(&traffic, attempted, prefix)?;
    let failed = served
        .responses
        .iter()
        .zip(&reference.lines)
        .filter(|(got, want)| {
            got != want || !Json::parse(got).is_ok_and(|r| r.get("ok") == Some(&Json::Bool(true)))
        })
        .count();
    let mut correct = failed == 0 && attempted >= prefix;

    let mut latencies = served.latencies_ms.clone();
    latencies.sort_by(f64::total_cmp);
    let (p50, p50_beyond) = nearest_rank(&latencies, 0.5).ok_or("no request was served")?;
    let (p90, p90_beyond) = nearest_rank(&latencies, 0.9).ok_or("no request was served")?;

    let mut trace_file = None;
    let metrics = if cli.trace {
        let traced = inprocess::traced_pass(&traffic, &reference)?;
        let (metrics, traced_ok) = per_layer(&traced, &reference, &stats, p50)?;
        correct &= traced_ok;
        let dir = std::path::Path::new(".bench_build").join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", cli.workload.name(), cli.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&traced.spans, &traced.ids)))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        trace_file = Some(path.display().to_string());
        metrics
    } else {
        let quality = &reference.prefix;
        let number = |key: &'static str| move |r: &Json| r.get(key).and_then(Json::as_f64);
        vec![
            Metric("setup_s", setup_times.iter().sum::<f64>() / setup_times.len() as f64, "s"),
            Metric("throughput_rps", served.throughput_rps, "1/s"),
            Metric("latency_p50_ms", p50, "ms"),
            Metric("latency_p90_ms", p90, "ms"),
            Metric("success_rate", 1.0 - failed as f64 / attempted as f64, "ratio"),
            Metric("peak_rss_mb", peak_rss_mb, "MiB"),
            Metric("spread_mean", mean_of(quality, number("total_fraction")), "fraction"),
            Metric("disparity_mean", mean_of(quality, number("disparity")), "fraction"),
            Metric(
                "seeds_mean",
                mean_of(quality, |r| r.get("seeds").and_then(Json::as_arr).map(|s| s.len() as f64)),
                "count",
            ),
        ]
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conditions = format!(
        r#"{{"run": {{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "nproc": {nproc}, "engine_threads": {}, "connections": {connections}, "git_sha": "{}", "first_setup_s": {first_setup_s:?}, "setups_s": {:?}, "requests": {attempted}, "window_s": {}, "latency_samples": {}, "p50_samples_beyond": {p50_beyond}, "p90_samples_beyond": {p90_beyond}, "trace_file": {}}}}}"#,
        cli.workload.name(),
        cli.seed,
        cli.seconds,
        cli.trace,
        ParallelismConfig::auto().resolved_threads(),
        measure::git_sha(),
        setup_times,
        served.window_s,
        latencies.len(),
        trace_file.map_or("null".to_string(), |p| format!("\"{p}\"")),
    );
    // lint:allow(stdout-purity): these two lines are the benchmark's output
    println!("{conditions}\n{}", render(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// The gain calls a response leaves out of its `gain_evaluations`, or `None`
/// when the counts disagree. `passes` holds the gain calls of each greedy
/// pass the request ran, counted on its cursor; `reported` is the
/// response's `gain_evaluations`.
///
/// A request must report every call it made. The one exception is a request
/// that ran several passes and reports exactly one of them: a
/// disparity-capped budget solve (P3) runs a ladder of concave wrappers and
/// reports the gain calls of the rung it returns only. Its other rungs'
/// calls are returned as unreported, so that program defect stays measured
/// (`diffusion.gain.unreported_calls`) while every counted pass is still
/// checked exactly.
fn unreported_gains(passes: &[u64], reported: u64) -> Option<u64> {
    let total: u64 = passes.iter().sum();
    if reported == total {
        Some(0)
    } else if passes.len() > 1 && passes.contains(&reported) {
        Some(total - reported)
    } else {
        None
    }
}

/// The per-layer metrics of a traced pass, and whether it passed its gate:
/// coverage of at least [`MIN_COVERAGE`], every request's counted gain calls
/// matching the `gain_evaluations` its response reports (see
/// [`unreported_gains`]), and a traced cache that ends as the reference's
/// did. `stats` is the untraced server's `stats` reply; `client_p50_ms` its
/// client-side p50.
fn per_layer(
    traced: &inprocess::TracedRun,
    reference: &inprocess::Reference,
    stats: &Json,
    client_p50_ms: f64,
) -> Result<(Vec<Metric>, bool), String> {
    let totals = trace::layer_totals(&traced.spans);
    let layer = |name: &str| totals.get(name).copied().unwrap_or((0, 0));
    let ms = |name: &str| layer(name).0 as f64 / 1e6;
    let count = |value: u64| value as f64;
    let mut passed = true;

    let roots_ns: u64 =
        traced.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end - s.start).sum();
    let coverage = roots_ns as f64 / 1e9 / traced.wall_s;
    if coverage < MIN_COVERAGE {
        eprintln!("error: traced.coverage {coverage:.3} is below {MIN_COVERAGE}");
        passed = false;
    }
    // A greedy pass is a cursor that made gain calls; the report replay
    // opens cursors that make none.
    let mut passes = vec![Vec::new(); reference.prefix.len()];
    for cursor in traced.cursors.iter().filter(|c| c.gains > 0) {
        passes[cursor.request].push(cursor.gains);
    }
    let mut unreported = 0;
    for ((passes, response), id) in passes.iter().zip(&reference.prefix).zip(&traced.ids) {
        let reported =
            response.get("gain_evaluations").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        match unreported_gains(passes, reported) {
            Some(calls) => unreported += calls,
            None => {
                eprintln!(
                    "error: request {id} made {passes:?} gain call(s) but reports {reported}"
                );
                passed = false;
            }
        }
    }

    // The traced pass must leave the cache exactly as the reference's engine
    // did: the same lookups, builds, evictions and churn.
    if traced.cache_after != reference.cache_after_prefix {
        eprintln!(
            "error: the traced cache diverged from the reference's: {:?} vs {:?}",
            traced.cache_after, reference.cache_after_prefix
        );
        passed = false;
    }

    let (before, after) = (&traced.cache_before, &traced.cache_after);
    let lookups =
        (after.oracle_hits + after.oracle_misses) - (before.oracle_hits + before.oracle_misses);
    let engine_p50_ms = stats
        .get("requests")
        .and_then(|r| r.get("p50_us"))
        .and_then(Json::as_f64)
        .ok_or("the stats op reported no p50")?
        / 1e3;
    let bytes_peak: f64 = stats
        .get("cache")
        .and_then(|c| c.get("shards"))
        .and_then(Json::as_arr)
        .ok_or("the stats op reported no shards")?
        .iter()
        .filter_map(|shard| shard.get("peak_bytes").and_then(Json::as_f64))
        .sum();
    let metrics = vec![
        Metric("protocol.decode.ms", ms("protocol.decode"), "ms"),
        Metric("protocol.encode.ms", ms("protocol.encode"), "ms"),
        Metric("protocol.bytes_in", count(traced.bytes_in), "bytes"),
        Metric("protocol.bytes_out", count(traced.bytes_out), "bytes"),
        Metric("server.engine_p50_ms", engine_p50_ms, "ms"),
        Metric("server.wire_p50_ms", client_p50_ms - engine_p50_ms, "ms"),
        Metric("cache.graph.misses", count(after.graph_misses - before.graph_misses), "count"),
        Metric("cache.worlds.misses", count(after.world_misses - before.world_misses), "count"),
        Metric("cache.oracle.ms", ms("cache.oracle"), "ms"),
        Metric("cache.oracle.misses", count(after.oracle_misses - before.oracle_misses), "count"),
        Metric(
            "cache.oracle.hit_rate",
            count(after.oracle_hits - before.oracle_hits) / count(lookups.max(1)),
            "ratio",
        ),
        Metric("cache.bytes_peak", bytes_peak, "bytes"),
        Metric("cache.evictions", count(after.evictions - before.evictions), "count"),
        Metric("cache.mutate.ms", ms("cache.mutate"), "ms"),
        Metric("cache.ris_refreshes", count(after.ris_refreshes - before.ris_refreshes), "count"),
        Metric("cache.world_patches", count(after.world_patches - before.world_patches), "count"),
        Metric("core.solve.ms", ms("core.solve"), "ms"),
        Metric("core.solve.calls", count(layer("core.solve").1), "count"),
        Metric("diffusion.gain.ms", ms("diffusion.gain"), "ms"),
        Metric("diffusion.gain.calls", count(layer("diffusion.gain").1), "count"),
        Metric("diffusion.gain.unreported_calls", count(unreported), "count"),
        Metric("diffusion.evaluate.ms", ms("diffusion.evaluate"), "ms"),
        Metric("diffusion.evaluate.calls", count(layer("diffusion.evaluate").1), "count"),
        Metric("diffusion.cursor.ms", ms("diffusion.cursor"), "ms"),
        Metric("traced.coverage", coverage, "ratio"),
        Metric("traced.overhead", traced.wall_s / reference.prefix_wall_s, "ratio"),
    ];
    Ok((metrics, passed))
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_one_json_object_with_the_contract_keys() {
        let line = render(true, 120, 0, &[Metric("latency_p50_ms", 1.25, "ms")]);
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = parsed.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(metric.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(metric.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn every_gain_call_is_reported_except_the_ladder_rungs_not_returned() {
        // One pass, or none: the report must equal the count exactly.
        assert_eq!(unreported_gains(&[519], 519), Some(0));
        assert_eq!(unreported_gains(&[], 0), Some(0));
        assert_eq!(unreported_gains(&[519], 518), None);
        assert_eq!(unreported_gains(&[519], 520), None);
        // Several passes reported in full.
        assert_eq!(unreported_gains(&[100, 20], 120), Some(0));
        // A ladder reporting the rung it returns: the rest is unreported.
        assert_eq!(unreported_gains(&[1205, 1205], 1205), Some(1205));
        assert_eq!(unreported_gains(&[1214, 758, 757], 1214), Some(1515));
        // A report matching no pass and not the total is a mismatch.
        assert_eq!(unreported_gains(&[1214, 758, 757], 1000), None);
    }
}
