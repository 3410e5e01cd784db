//! `jsn_bench compare`: two sets of reports — a parent commit's (A) and a
//! change's (B) — judged per workload and metric.
//!
//! Runs pair up in order within a workload (A's i-th run with B's i-th).
//! A metric counts as **improved** when B wins at least nine tenths of
//! the pairs (ties count for neither side) and the medians differ, in
//! B's favour, by more than A's interquartile spread; as **regressed**
//! when B's median is worse than A's by more than the metric's bound in
//! `BENCHMARK.json`; as **unresolved** when A's own spread is wider than
//! that bound and B's runs do not all beat A's; and **unchanged**
//! otherwise. Metrics without a bound are judged only on the first rule.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use mnm_experiments::json::Json;

use crate::metrics::quartiles;

/// How one metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of A's median (end-to-end metrics).
    pub bound: Option<f64>,
}

/// The judgement on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by the pair-win rule.
    Improved,
    /// B is worse than A by more than the bound.
    Regressed,
    /// A's spread is wider than the bound: no conclusion.
    Unresolved,
    /// Within the bound.
    Unchanged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Judge `b` against `a` under `rule`; also returns B's pair wins.
pub fn judge(a: &[f64], b: &[f64], rule: Rule) -> (Verdict, usize) {
    let better = |x: f64, y: f64| if rule.higher_is_better { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    let (q1a, med_a, q3a) = quartiles(a);
    let (_, med_b, _) = quartiles(b);
    let gap = (med_b - med_a).abs();
    if pairs > 0 && wins * 10 >= pairs * 9 && better(med_b, med_a) && gap > q3a - q1a {
        return (Verdict::Improved, wins);
    }
    let Some(bound) = rule.bound else {
        return (Verdict::Unchanged, wins);
    };
    let allowed = bound * med_a.abs();
    if better(med_a, med_b) && gap > allowed {
        return (Verdict::Regressed, wins);
    }
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if q3a - q1a > allowed && !all_b_better {
        return (Verdict::Unresolved, wins);
    }
    (Verdict::Unchanged, wins)
}

/// Metric rules from a `BENCHMARK.json` document.
pub fn rules(bench: &Json) -> BTreeMap<String, Rule> {
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in bench.get(section).and_then(Json::as_arr).unwrap_or(&[]) {
            let (Some(name), Some(better)) =
                (m.get("name").and_then(Json::as_str), m.get("better").and_then(Json::as_str))
            else {
                continue;
            };
            let rule = Rule {
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            };
            out.insert(name.to_owned(), rule);
        }
    }
    out
}

/// One report's metric values, keyed by (workload, metric).
fn values(path: &Path, into: &mut BTreeMap<(String, String), Vec<f64>>) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Json::as_str) != Some(crate::report::SCHEMA) {
        return Err(format!("{}: not a {} report", path.display(), crate::report::SCHEMA));
    }
    let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("?").to_owned();
    for m in doc.get("metrics").and_then(Json::as_arr).unwrap_or(&[]) {
        if let (Some(name), Some(v)) =
            (m.get("name").and_then(Json::as_str), m.get("value").and_then(Json::as_f64))
        {
            into.entry((workload.clone(), name.to_owned())).or_default().push(v);
        }
    }
    Ok(())
}

/// Compare report sets `a` and `b` under the rules of `bench`; returns
/// the table.
pub fn compare(a: &[&Path], b: &[&Path], bench: &Json) -> Result<String, String> {
    let rules = rules(bench);
    let (mut va, mut vb) = (BTreeMap::new(), BTreeMap::new());
    for p in a {
        values(p, &mut va)?;
    }
    for p in b {
        values(p, &mut vb)?;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<34} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "wins"
    );
    for (key, xs) in &va {
        let Some(ys) = vb.get(key) else { continue };
        let Some(&rule) = rules.get(&key.1) else { continue };
        let (verdict, wins) = judge(xs, ys, rule);
        let cell = |v: &[f64]| {
            let (q1, m, q3) = quartiles(v);
            format!("{m:.4} [{q1:.4}, {q3:.4}] ({})", v.len())
        };
        let _ = writeln!(
            out,
            "{:<16} {:<34} {:>30} {:>30} {:>6}  {}",
            key.0,
            key.1,
            cell(xs),
            cell(ys),
            format!("{wins}/{}", xs.len().min(ys.len())),
            verdict.label()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const THROUGHPUT: Rule = Rule { higher_is_better: true, bound: Some(0.10) };

    #[test]
    fn clear_win_is_improved() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let b = a.map(|x| x * 1.2);
        assert_eq!(judge(&a, &b, THROUGHPUT), (Verdict::Improved, 10));
    }

    #[test]
    fn loss_beyond_bound_is_regressed() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let b = a.map(|x| x * 0.8);
        assert_eq!(judge(&a, &b, THROUGHPUT).0, Verdict::Regressed);
        let lower = Rule { higher_is_better: false, bound: Some(0.10) };
        assert_eq!(judge(&b, &a, lower).0, Verdict::Regressed);
    }

    #[test]
    fn noise_within_bound_is_unchanged_and_wide_spread_unresolved() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let b = [10.02, 10.0, 9.97, 10.04, 10.0];
        assert_eq!(judge(&a, &b, THROUGHPUT).0, Verdict::Unchanged);
        let wide = [6.0, 14.0, 8.0, 12.0, 10.0];
        assert_eq!(judge(&wide, &b, THROUGHPUT).0, Verdict::Unresolved);
    }
}
