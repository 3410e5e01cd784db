//! Metric values, correctness checks, and the order statistics both are
//! built from.

use crate::ledger::Span;
use crate::Workload;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured, unrounded.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_owned(), value, unit }
    }
}

/// One correctness check and its result.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The evidence.
    pub detail: String,
}

impl Check {
    /// A check that failed.
    pub fn fail(name: &'static str, detail: String) -> Check {
        Check { name, ok: false, detail }
    }

    /// A check that holds when `ok`.
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// The metrics `BENCHMARK.json` lists for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further measurements, reported but not gated.
    pub extras: Vec<Metric>,
    /// Correctness checks; the run is correct when all hold.
    pub checks: Vec<Check>,
    /// Operations attempted (batches, frames or runs).
    pub attempted: u64,
    /// Operations that failed: unsound verdicts, dropped frames, failed
    /// sessions, allocating batches, diverging runs.
    pub failed: u64,
    /// Spans recorded by the traced run (bounded).
    pub spans: Vec<Span>,
    /// Conditions the numbers hold under, for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: Workload, trace: bool) -> Outcome {
        Outcome {
            workload,
            trace,
            metrics: Vec::new(),
            extras: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Record a metric for the contract set (`trace` selects which set the
    /// metric belongs to: it lands in `metrics` only for that kind of run).
    pub fn report(&mut self, for_trace: bool, metric: Metric) {
        if for_trace == self.trace {
            self.metrics.push(metric);
        } else {
            self.extras.push(metric);
        }
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile of sorted `values`, `p` in `0.0..=1.0`; 0 when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank percentile of `values` in any order; 0 when empty.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method). A single
/// value is all three.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// `peak_rss_mb`: the process's peak resident set size (`VmHWM`) so far.
/// Workloads read it when their measured phase ends, before the
/// correctness checks allocate reference models of their own.
pub fn peak_rss() -> Metric {
    let kb = std::fs::read_to_string("/proc/self/status").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
    });
    Metric::new("peak_rss_mb", kb.map_or(0.0, |kb| kb / 1024.0), "MB")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.9), 90.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }
}
