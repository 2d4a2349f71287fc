//! Small measurement helpers: the clock, nearest-rank percentiles, peak RSS
//! and run provenance.

use std::time::Instant;

/// The benchmark's only clock read. Every time it measures starts here; no
/// reading ever reaches a request the program serves.
pub fn now() -> Instant {
    // lint:allow(wall-clock): the benchmark times the program from outside; readings only feed its metrics
    Instant::now()
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(q · n)` (1-based, clamped to `1..=n`), plus the number of samples
/// ranked beyond it. `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// The process's peak resident set size in MiB (`VmHWM`), on Linux.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in the process status".to_string())
}

/// The commit the working directory is checked out at, read from `.git`
/// without running git; `"unknown"` outside a repository.
pub fn git_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sample, 0.5), Some((50.0, 50)));
        assert_eq!(nearest_rank(&sample, 0.9), Some((90.0, 10)));
        assert_eq!(nearest_rank(&sample, 0.99), Some((99.0, 1)));
        assert_eq!(nearest_rank(&sample, 1.0), Some((100.0, 0)));
        // Ranks round up: p90 of 101 samples is the 91st, 10 beyond it.
        let sample: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(nearest_rank(&sample, 0.9), Some((91.0, 10)));
        // Tiny samples clamp to the first / last rank.
        assert_eq!(nearest_rank(&[7.0], 0.5), Some((7.0, 0)));
        assert_eq!(nearest_rank(&[1.0, 2.0], 0.0), Some((1.0, 1)));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
