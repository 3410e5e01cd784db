//! The `jsn-bench/v1` report: what was measured, under which conditions,
//! on which host and code — plus the one-line result that ends the
//! benchmark's output.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use mnm_experiments::json::Json;

use crate::ledger::Span;
use crate::{Metric, Options, Outcome};

/// Schema tag of every report.
pub const SCHEMA: &str = "jsn-bench/v1";

/// Where reports and span files go, relative to the working directory.
pub const OUT_DIR: &str = "target/jsn-bench";

/// Host and build facts a number is meaningless without.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `/proc/cpuinfo` model name.
    pub cpu_model: String,
    /// Host threads available to the process.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, if it holds `.git`.
    pub git_commit: String,
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

impl Provenance {
    /// Collect the facts about this host and checkout.
    pub fn collect() -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Provenance {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["-V"]),
            // `--git-dir` keeps git from searching the parent directories
            // of a copy that is not a checkout.
            git_commit: command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]),
        }
    }
}

fn metric_json(m: &Metric) -> Json {
    Json::obj(vec![
        ("name", Json::str(&m.name)),
        ("value", Json::num(m.value)),
        ("unit", Json::str(m.unit)),
    ])
}

/// The full report document.
pub fn render(outcome: &Outcome, opts: &Options, host: &Provenance) -> String {
    let sizes = opts.sizes.describe(opts.workload);
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("workload", Json::str(opts.workload.name())),
        ("seed", Json::num(opts.seed as f64)),
        ("seconds", Json::num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        (
            "provenance",
            Json::obj(vec![
                ("cpu_model", Json::str(&host.cpu_model)),
                ("nproc", Json::num(host.nproc as f64)),
                ("rustc", Json::str(&host.rustc)),
                ("git_commit", Json::str(&host.git_commit)),
                ("sizes", Json::obj(sizes.into_iter().map(|(k, v)| (k, Json::num(v))).collect())),
            ]),
        ),
        ("notes", Json::Arr(outcome.notes.iter().map(|n| Json::str(n)).collect())),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        (
            "checks",
            Json::Arr(
                outcome
                    .checks
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("name", Json::str(c.name)),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::str(&c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", Json::Arr(outcome.metrics.iter().map(metric_json).collect())),
        ("extras", Json::Arr(outcome.extras.iter().map(metric_json).collect())),
    ])
    .render_pretty()
}

/// The last line of the benchmark's output: correctness, operation
/// counts, and every metric of this kind of run.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                Json::obj(vec![("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// Spans as JSON lines.
pub fn render_spans(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or(Json::Null, Json::str);
        out.push_str(
            &Json::obj(vec![
                ("name", Json::str(s.name)),
                ("parent", parent),
                ("id", Json::num(s.id as f64)),
                ("start_ns", Json::num(s.start_ns as f64)),
                ("end_ns", Json::num(s.end_ns as f64)),
            ])
            .render(),
        );
        out.push('\n');
    }
    out
}

/// Write the report (and the span file of a traced run) under
/// [`OUT_DIR`]; returns the report's path.
pub fn write(outcome: &Outcome, opts: &Options, host: &Provenance) -> std::io::Result<PathBuf> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let kind = if opts.trace { "-trace" } else { "" };
    let path = dir.join(format!("{}-seed{}{kind}-{stamp}.json", opts.workload.name(), opts.seed));
    mnm_experiments::fsio::write_artifact(&path, render(outcome, opts, host).as_bytes())?;
    if opts.trace {
        let spans = dir.join(format!("{}.spans.jsonl", opts.workload.name()));
        mnm_experiments::fsio::write_artifact(&spans, render_spans(&outcome.spans).as_bytes())?;
    }
    Ok(path)
}
