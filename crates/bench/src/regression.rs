//! Machine-readable bench records for the CI bench-regression gate.
//!
//! The `bench_regression` binary measures solve wall-time, estimator
//! throughput and the campaign-serving cache speedup, emits a
//! `BENCH_<sha>.json` record, and — given a checked-in baseline — fails on a
//! regression beyond the tolerance. The JSON layer is the workspace-shared
//! [`tcim_service::minijson`] (the build is fully offline, no serde); the
//! format is deliberately flat: a schema tag, the commit sha, and one
//! numeric metric per key.
//!
//! Metric direction is encoded in the name: `*_ms` is lower-is-better,
//! everything else (throughput `*_per_s`, speedups, quality) is
//! higher-is-better. `parallel_efficiency_*` metrics (serial time ÷ parallel
//! time, both measured in one process) are floors: the gate fails when one
//! falls below its baseline value at all, not by more than the tolerance.
//!
//! A record also states the conditions it was measured under: the thread
//! count parallel sections ran with and the cores the machine offers.

use std::fmt::Write as _;

use tcim_service::minijson::Json;

/// One bench run: the commit it measured and its named metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Commit sha (or "local") the record was measured at.
    pub sha: String,
    /// Threads the parallel sections ran with (0 when a stored record does
    /// not say).
    pub threads: usize,
    /// Cores available to the process (0 when a stored record does not
    /// say).
    pub cores: usize,
    /// Named metrics in insertion order.
    pub metrics: Vec<(String, f64)>,
    /// Canonical `ProblemSpec` strings of the solves behind the metrics
    /// (`tcim_core::ProblemSpec::canonical`), keyed like the metrics they
    /// annotate — so a stored record names the exact problems it measured.
    /// Never compared by the regression gate.
    pub specs: Vec<(String, String)>,
}

/// Schema version stamped into every record.
pub const BENCH_SCHEMA: u32 = 1;

/// The CI gate's tolerance: fail on more than 25% regression.
pub const REGRESSION_TOLERANCE: f64 = 0.25;

impl BenchRecord {
    /// Creates an empty record for `sha`, measured with `threads` threads
    /// on `cores` cores.
    pub fn new(sha: &str, threads: usize, cores: usize) -> Self {
        BenchRecord { sha: sha.to_string(), threads, cores, metrics: Vec::new(), specs: Vec::new() }
    }

    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Annotates the record with the canonical spec string behind a metric.
    pub fn push_spec(&mut self, name: &str, spec: &str) {
        self.specs.push((name.to_string(), spec.to_string()));
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Renders the record as pretty-printed JSON (one metric per line, so
    /// the checked-in baseline diffs cleanly). Values are rounded to three
    /// decimals and written through the shared [`Json`] number writer.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {BENCH_SCHEMA},");
        let _ = writeln!(out, "  \"sha\": {},", Json::from(self.sha.as_str()));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"cores\": {},", self.cores);
        let _ = writeln!(out, "  \"metrics\": {{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 == self.metrics.len() { "" } else { "," };
            let rounded = Json::Num((value * 1000.0).round() / 1000.0);
            let _ = writeln!(out, "    {}: {rounded}{comma}", Json::from(name.as_str()));
        }
        if self.specs.is_empty() {
            out.push_str("  }\n}\n");
        } else {
            out.push_str("  },\n  \"specs\": {\n");
            for (i, (name, spec)) in self.specs.iter().enumerate() {
                let comma = if i + 1 == self.specs.len() { "" } else { "," };
                let _ = writeln!(
                    out,
                    "    {}: {}{comma}",
                    Json::from(name.as_str()),
                    Json::from(spec.as_str())
                );
            }
            out.push_str("  }\n}\n");
        }
        out
    }

    /// Parses a record produced by [`BenchRecord::to_json`] via the shared
    /// [`Json`] parser (whitespace- and key-order-agnostic).
    ///
    /// # Errors
    ///
    /// Returns a description when the text is not valid JSON, a metric value
    /// is not a number, or no metrics are present.
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let value = Json::parse(text)?;
        let sha = value.get("sha").and_then(Json::as_str).unwrap_or_default().to_string();
        // `threads` / `cores` are optional so baselines predating them parse.
        let count = |key: &str| value.get(key).and_then(Json::as_f64).map_or(0, |n| n as usize);
        let (threads, cores) = (count("threads"), count("cores"));
        let mut metrics = Vec::new();
        if let Some(members) = value.get("metrics").and_then(Json::as_obj) {
            for (name, metric) in members {
                let number =
                    metric.as_f64().ok_or_else(|| format!("bad number for {name}: '{metric}'"))?;
                metrics.push((name.clone(), number));
            }
        }
        if metrics.is_empty() {
            return Err("no metrics found in bench record".to_string());
        }
        // `specs` is optional so baselines predating the annotation parse.
        let mut specs = Vec::new();
        if let Some(members) = value.get("specs").and_then(Json::as_obj) {
            for (name, spec) in members {
                let text = spec.as_str().ok_or_else(|| format!("bad spec for {name}: '{spec}'"))?;
                specs.push((name.clone(), text.to_string()));
            }
        }
        Ok(BenchRecord { sha, threads, cores, metrics, specs })
    }
}

/// Whether a metric regresses by growing (wall-times) rather than shrinking
/// (throughputs, quality scores).
fn lower_is_better(name: &str) -> bool {
    name.ends_with("_ms")
}

/// Whether a metric's baseline value is a floor the current value may not
/// fall below at all (parallel efficiency: parallel must never be slower
/// than serial).
fn is_floor(name: &str) -> bool {
    name.starts_with("parallel_efficiency_")
}

/// Compares `current` against `baseline` and returns one human-readable
/// violation per metric regressed beyond `tolerance` (0.25 = 25%), or below
/// its baseline value for a floor metric. Metrics present in the baseline
/// but missing from the current record are violations too; extra current
/// metrics are ignored so baselines can lag behind new measurements.
pub fn compare(current: &BenchRecord, baseline: &BenchRecord, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    for (name, base) in &baseline.metrics {
        let Some(cur) = current.get(name) else {
            violations.push(format!("metric '{name}' missing from current record"));
            continue;
        };
        let pct = tolerance * 100.0;
        if is_floor(name) {
            if cur < *base {
                violations.push(format!("{name}: {cur:.3} is below its floor {base:.3}"));
            }
        } else if lower_is_better(name) {
            if cur > base * (1.0 + tolerance) {
                violations.push(format!(
                    "{name}: {cur:.3} is more than {pct:.0}% above baseline {base:.3}"
                ));
            }
        } else if cur < base * (1.0 - tolerance) {
            violations
                .push(format!("{name}: {cur:.3} is more than {pct:.0}% below baseline {base:.3}"));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BenchRecord {
        let mut r = BenchRecord::new("abc123", 2, 4);
        r.push("mc_solve_ms", 120.5);
        r.push("ris_solve_ms", 40.25);
        r.push("ris_eval_per_s", 15000.0);
        r.push_spec("mc_solve_ms", "tcim:budget:10|total|lazy|cand=all|tau=5|worlds:n=200,s=1");
        r
    }

    #[test]
    fn json_round_trips() {
        let r = record();
        let json = r.to_json();
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"sha\": \"abc123\""));
        let parsed = BenchRecord::parse_json(&json).unwrap();
        assert_eq!(parsed.sha, "abc123");
        assert_eq!((parsed.threads, parsed.cores), (2, 4));
        assert_eq!(parsed.metrics.len(), 3);
        assert_eq!(parsed.specs, r.specs, "spec annotations must round-trip");
        // Records without a specs section (older baselines) still parse.
        let bare = BenchRecord::parse_json("{\"sha\":\"x\",\"metrics\":{\"a_ms\":1}}").unwrap();
        assert!(bare.specs.is_empty());
        assert_eq!((bare.threads, bare.cores), (0, 0));
        assert!((parsed.get("mc_solve_ms").unwrap() - 120.5).abs() < 1e-9);
        assert!((parsed.get("ris_eval_per_s").unwrap() - 15000.0).abs() < 1e-9);
        assert_eq!(parsed.get("bogus"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchRecord::parse_json("").is_err());
        assert!(BenchRecord::parse_json("{\"metrics\": {}}").is_err());
        assert!(BenchRecord::parse_json("{\"metrics\": {\"a\": oops}}").is_err());
    }

    #[test]
    fn compare_flags_regressions_in_the_right_direction() {
        let baseline = record();
        // Identical record: clean.
        assert!(compare(&record(), &baseline, REGRESSION_TOLERANCE).is_empty());

        // Slower wall-time and lower throughput beyond 25%: both flagged.
        let mut slow = BenchRecord::new("def", 2, 4);
        slow.push("mc_solve_ms", 120.5 * 1.5);
        slow.push("ris_solve_ms", 40.25);
        slow.push("ris_eval_per_s", 15000.0 / 2.0);
        let violations = compare(&slow, &baseline, REGRESSION_TOLERANCE);
        assert_eq!(violations.len(), 2);
        assert!(violations[0].contains("mc_solve_ms"));
        assert!(violations[1].contains("ris_eval_per_s"));

        // Faster wall-time and higher throughput: improvements are fine.
        let mut fast = BenchRecord::new("ghi", 2, 4);
        fast.push("mc_solve_ms", 1.0);
        fast.push("ris_solve_ms", 1.0);
        fast.push("ris_eval_per_s", 1e9);
        assert!(compare(&fast, &baseline, REGRESSION_TOLERANCE).is_empty());

        // Missing metric is a violation.
        let mut partial = BenchRecord::new("jkl", 2, 4);
        partial.push("mc_solve_ms", 100.0);
        let violations = compare(&partial, &baseline, REGRESSION_TOLERANCE);
        assert!(violations.iter().any(|v| v.contains("missing")));
    }

    #[test]
    fn parallel_efficiency_is_a_floor_not_a_tolerance() {
        let mut baseline = BenchRecord::new("base", 2, 2);
        baseline.push("parallel_efficiency_mc_solve", 1.0);
        let at = |value: f64| {
            let mut r = BenchRecord::new("cur", 2, 2);
            r.push("parallel_efficiency_mc_solve", value);
            compare(&r, &baseline, REGRESSION_TOLERANCE)
        };
        assert!(at(1.0).is_empty());
        assert!(at(1.6).is_empty());
        // 0.9 is within 25% of 1.0, but parallel slower than serial fails.
        let violations = at(0.9);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("below its floor"));
    }
}
