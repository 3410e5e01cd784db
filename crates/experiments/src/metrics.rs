//! Machine-readable results and run telemetry.
//!
//! Every human-readable artifact the harness prints has a JSON twin so
//! regression checks and dashboards can consume the numbers:
//!
//! * [`Table::to_json`] (in `report`) — one table as a JSON object.
//! * [`RunManifest`] — everything one `jsn run-all` invocation measured:
//!   per-experiment wall time, per-app/per-config simulation counters,
//!   worker-pool telemetry, and the run parameters/environment knobs.
//! * [`diff_documents`] — per-cell comparison of two JSON artifacts with a
//!   tolerance; the engine behind `jsn diff` and the CI regression gate.
//!
//! Counter and pool telemetry is collected through a process-global
//! recorder that the runner feeds; it is disabled (and free) unless a
//! harness opts in with [`enable_telemetry`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::json::Json;
use crate::params::RunParams;
use crate::report::Table;
use crate::runner::AppRun;

/// All `JSN_*` knobs the experiment harness reads, with one-line meanings.
/// The manifest records the set ones; README's knob table lists this set.
pub const ENV_KNOBS: [(&str, &str); 4] = [
    ("JSN_WARMUP", "warmup instructions per app (default 300000)"),
    ("JSN_MEASURE", "measured instructions per app (default 2000000)"),
    ("JSN_THREADS", "worker threads for the parallel runner"),
    ("JSN_FAULT", "deterministic fault-injection plan (see EXPERIMENTS.md)"),
];

// ---------------------------------------------------------------------------
// Global telemetry recorder.
// ---------------------------------------------------------------------------

/// Counters of one `(app, config)` simulation, flattened for the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRunRecord {
    /// Application name.
    pub app: String,
    /// Configuration label.
    pub config: String,
    /// True for timed (OoO-model) runs, false for functional runs.
    pub timed: bool,
    /// How many times this `(app, config, timed)` key was simulated.
    pub runs: u64,
    /// Hierarchy accesses in the latest run.
    pub accesses: u64,
    /// Data-side accesses.
    pub data_accesses: u64,
    /// Accesses supplied by main memory.
    pub memory_supplies: u64,
    /// Total access latency (cycles).
    pub total_latency: u64,
    /// Latency spent probing missing structures (cycles).
    pub miss_latency: u64,
    /// Per-level supply counts (last entry: main memory).
    pub supplies_by_level: Vec<u64>,
    /// MNM coverage numerator/denominator, when an MNM ran.
    pub mnm: Option<(u64, u64)>,
    /// `(instructions, cycles)` for timed runs.
    pub cpu: Option<(u64, u64)>,
}

/// Telemetry of one `parallel_run` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolRecord {
    /// Jobs executed.
    pub jobs: u64,
    /// Worker threads used.
    pub threads: u64,
    /// Wall time of the whole pool (ms).
    pub wall_ms: f64,
    /// Sum of per-job durations (ms).
    pub job_ms_total: f64,
    /// Slowest single job (ms).
    pub job_ms_max: f64,
}

#[derive(Default)]
struct Recorder {
    app_runs: Vec<AppRunRecord>,
    pools: Vec<PoolRecord>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

/// Lock the global recorder, recovering from a poisoned mutex.
///
/// The supervisor runs jobs under `catch_unwind`; a job that panics while
/// its runner holds this lock poisons it, and propagating that poison
/// would turn every *later* telemetry call — including the supervisor's
/// own outcome recording — into a panic cascade. The recorder holds plain
/// counters with no invariants that a mid-update panic could break beyond
/// one lost record, so recovering the guard is always safe.
fn lock_recorder() -> std::sync::MutexGuard<'static, Option<Recorder>> {
    RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Start collecting runner telemetry in this process. Harnesses that
/// build a [`RunManifest`] call this first; everything else pays only an
/// atomic load per record.
pub fn enable_telemetry() {
    *lock_recorder() = Some(Recorder::default());
    ENABLED.store(true, Ordering::Release);
}

/// Whether [`enable_telemetry`] is active.
pub fn telemetry_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Record one completed application run (called by the runner).
pub fn record_app_run(run: &AppRun) {
    if !telemetry_enabled() {
        return;
    }
    let timed = run.cpu.instructions > 0;
    let mut guard = lock_recorder();
    let Some(rec) = guard.as_mut() else { return };
    let record = AppRunRecord {
        app: run.app.clone(),
        config: run.config.clone(),
        timed,
        runs: 1,
        accesses: run.hierarchy.accesses,
        data_accesses: run.hierarchy.data_accesses,
        memory_supplies: run.hierarchy.memory_supplies,
        total_latency: run.hierarchy.total_latency,
        miss_latency: run.hierarchy.miss_latency,
        supplies_by_level: run.hierarchy.supplies_by_level.clone(),
        mnm: run.mnm.as_ref().map(|m| (m.identified_misses(), m.bypassable_misses())),
        cpu: timed.then_some((run.cpu.instructions, run.cpu.cycles)),
    };
    match rec
        .app_runs
        .iter_mut()
        .find(|r| r.app == record.app && r.config == record.config && r.timed == timed)
    {
        Some(existing) => {
            let runs = existing.runs + 1;
            *existing = record;
            existing.runs = runs;
        }
        None => rec.app_runs.push(record),
    }
}

/// Record one worker-pool invocation (called by `parallel_run`).
pub fn record_pool(jobs: usize, threads: usize, wall: Duration, job_durations: &[Duration]) {
    if !telemetry_enabled() {
        return;
    }
    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    let record = PoolRecord {
        jobs: jobs as u64,
        threads: threads as u64,
        wall_ms: ms(&wall),
        job_ms_total: job_durations.iter().map(ms).sum(),
        job_ms_max: job_durations.iter().map(ms).fold(0.0, f64::max),
    };
    if let Some(rec) = lock_recorder().as_mut() {
        rec.pools.push(record);
    }
}

/// Take everything recorded so far, leaving the recorder empty (still
/// enabled).
pub fn drain_telemetry() -> (Vec<AppRunRecord>, Vec<PoolRecord>) {
    let mut guard = lock_recorder();
    match guard.as_mut() {
        Some(rec) => (std::mem::take(&mut rec.app_runs), std::mem::take(&mut rec.pools)),
        None => (Vec::new(), Vec::new()),
    }
}

// ---------------------------------------------------------------------------
// The run manifest.
// ---------------------------------------------------------------------------

/// One experiment inside a [`RunManifest`].
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Slug-style name (`fig12_tmnm_coverage`).
    pub name: String,
    /// Wall time spent producing the table (ms).
    pub wall_ms: f64,
    /// The rendered results.
    pub table: Table,
}

/// Everything one harness invocation measured, ready for JSON export.
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// Per-experiment tables and wall times, in execution order.
    pub experiments: Vec<ExperimentRecord>,
    /// Per-`(app, config)` simulation counters.
    pub app_runs: Vec<AppRunRecord>,
    /// Per-`parallel_run` pool telemetry.
    pub pools: Vec<PoolRecord>,
    /// Run parameters in force.
    pub params: Option<RunParams>,
    /// Worker-thread count in force.
    pub threads: u64,
    /// Total harness wall time (ms).
    pub total_wall_ms: f64,
    /// Supervisor job reports (attempts, outcomes) for supervised sweeps.
    pub jobs: Vec<crate::supervisor::JobReport>,
    /// Faults the fault-injection layer actually fired during the run.
    pub injected: Vec<crate::faults::InjectedFault>,
}

impl RunManifest {
    /// Schema identifier written into every manifest.
    pub const SCHEMA: &'static str = "jsn-run-manifest/v1";

    /// Append one timed experiment.
    pub fn push(&mut self, name: &str, wall: Duration, table: Table) {
        self.experiments.push(ExperimentRecord {
            name: name.to_owned(),
            wall_ms: wall.as_secs_f64() * 1e3,
            table,
        });
    }

    /// Absorb everything the global recorder collected so far.
    pub fn absorb_telemetry(&mut self) {
        let (apps, pools) = drain_telemetry();
        self.app_runs.extend(apps);
        self.pools.extend(pools);
    }

    /// Render the manifest as a JSON document.
    pub fn to_json(&self) -> Json {
        let env = Json::Obj(
            ENV_KNOBS
                .iter()
                .filter_map(|(name, _)| {
                    std::env::var(name).ok().map(|v| ((*name).to_owned(), Json::Str(v)))
                })
                .collect(),
        );
        let params = match &self.params {
            Some(p) => Json::obj(vec![
                ("warmup", Json::num(p.warmup as f64)),
                ("measure", Json::num(p.measure as f64)),
            ]),
            None => Json::Null,
        };
        let experiments = Json::Arr(
            self.experiments
                .iter()
                .map(|e| {
                    Json::obj(vec![
                        ("name", Json::str(&e.name)),
                        ("wall_ms", Json::num(round3(e.wall_ms))),
                        ("table", e.table.to_json()),
                    ])
                })
                .collect(),
        );
        let app_runs = Json::Arr(self.app_runs.iter().map(app_run_json).collect());
        let pools = Json::Arr(
            self.pools
                .iter()
                .map(|p| {
                    Json::obj(vec![
                        ("jobs", Json::num(p.jobs as f64)),
                        ("threads", Json::num(p.threads as f64)),
                        ("wall_ms", Json::num(round3(p.wall_ms))),
                        ("job_ms_total", Json::num(round3(p.job_ms_total))),
                        ("job_ms_max", Json::num(round3(p.job_ms_max))),
                    ])
                })
                .collect(),
        );
        let mut pairs = vec![
            ("schema", Json::str(Self::SCHEMA)),
            ("params", params),
            ("env", env),
            ("threads", Json::num(self.threads as f64)),
            ("total_wall_ms", Json::num(round3(self.total_wall_ms))),
            ("experiments", experiments),
            ("app_runs", app_runs),
            ("worker_pools", pools),
        ];
        // Supervision records ride along only for supervised runs so plain
        // harness manifests (and the golden diff, which reads tables only)
        // are unchanged.
        if !self.jobs.is_empty() {
            pairs.push((
                "supervisor",
                Json::Arr(self.jobs.iter().map(crate::supervisor::JobReport::to_json).collect()),
            ));
        }
        if !self.injected.is_empty() {
            pairs.push((
                "injected_faults",
                Json::Arr(
                    self.injected.iter().map(crate::faults::InjectedFault::to_json).collect(),
                ),
            ));
        }
        Json::obj(pairs)
    }
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

fn app_run_json(r: &AppRunRecord) -> Json {
    let mut pairs = vec![
        ("app", Json::str(&r.app)),
        ("config", Json::str(&r.config)),
        ("timed", Json::Bool(r.timed)),
        ("runs", Json::num(r.runs as f64)),
        ("accesses", Json::num(r.accesses as f64)),
        ("data_accesses", Json::num(r.data_accesses as f64)),
        ("memory_supplies", Json::num(r.memory_supplies as f64)),
        ("total_latency", Json::num(r.total_latency as f64)),
        ("miss_latency", Json::num(r.miss_latency as f64)),
        (
            "supplies_by_level",
            Json::Arr(r.supplies_by_level.iter().map(|&s| Json::num(s as f64)).collect()),
        ),
    ];
    if let Some((identified, bypassable)) = r.mnm {
        pairs.push((
            "mnm",
            Json::obj(vec![
                ("identified_misses", Json::num(identified as f64)),
                ("bypassable_misses", Json::num(bypassable as f64)),
            ]),
        ));
    }
    if let Some((instructions, cycles)) = r.cpu {
        pairs.push((
            "cpu",
            Json::obj(vec![
                ("instructions", Json::num(instructions as f64)),
                ("cycles", Json::num(cycles as f64)),
            ]),
        ));
    }
    Json::obj(pairs)
}

// ---------------------------------------------------------------------------
// Diffing.
// ---------------------------------------------------------------------------

/// One divergence between two JSON results documents.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Where the divergence sits (`table / row / column`).
    pub location: String,
    /// Human-readable description with both values.
    pub detail: String,
}

impl std::fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.location, self.detail)
    }
}

/// Slug of a table title: lowercase alphanumerics with `_` separators.
fn slug(title: &str) -> String {
    let mut out = String::with_capacity(title.len());
    let mut gap = false;
    for c in title.chars() {
        if c.is_ascii_alphanumeric() {
            if gap && !out.is_empty() {
                out.push('_');
            }
            gap = false;
            out.push(c.to_ascii_lowercase());
        } else {
            gap = true;
        }
    }
    out
}

/// Extract `(name, table-json)` pairs from a run manifest, a single-table
/// document (`{"table": …}`), or a bare table.
fn tables_of(doc: &Json) -> Vec<(String, &Json)> {
    if let Some(experiments) = doc.get("experiments").and_then(Json::as_arr) {
        return experiments
            .iter()
            .filter_map(|e| {
                let name = e.get("name").and_then(Json::as_str)?.to_owned();
                Some((name, e.get("table")?))
            })
            .collect();
    }
    let table = doc.get("table").unwrap_or(doc);
    let name =
        table.get("title").and_then(Json::as_str).map(slug).unwrap_or_else(|| "table".to_owned());
    vec![(name, table)]
}

fn cell_rows(table: &Json) -> Vec<(String, Vec<f64>)> {
    table
        .get("rows")
        .and_then(Json::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| {
                    let label = r.get("label").and_then(Json::as_str)?.to_owned();
                    let values = r
                        .get("values")
                        .and_then(Json::as_arr)?
                        .iter()
                        .map(|v| v.as_f64().unwrap_or(f64::NAN))
                        .collect();
                    Some((label, values))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Compare two results documents cell-for-cell. Tables are matched by
/// name; rows by label; values beyond `tolerance` (absolute) diverge.
/// Structural mismatches (missing table/row/column) are divergences too.
pub fn diff_documents(a: &Json, b: &Json, tolerance: f64) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    let ta = tables_of(a);
    let tb = tables_of(b);

    for (name, table_a) in &ta {
        let Some((_, table_b)) = tb.iter().find(|(n, _)| n == name) else {
            out.push(DiffEntry {
                location: name.clone(),
                detail: "table missing from second document".to_owned(),
            });
            continue;
        };
        let cols_a: Vec<&str> = columns_of(table_a);
        let cols_b: Vec<&str> = columns_of(table_b);
        if cols_a != cols_b {
            out.push(DiffEntry {
                location: name.clone(),
                detail: format!("columns differ: {cols_a:?} vs {cols_b:?}"),
            });
            continue;
        }
        let rows_b = cell_rows(table_b);
        for (label, values_a) in cell_rows(table_a) {
            let Some((_, values_b)) = rows_b.iter().find(|(l, _)| *l == label) else {
                out.push(DiffEntry {
                    location: format!("{name} / {label}"),
                    detail: "row missing from second document".to_owned(),
                });
                continue;
            };
            if values_a.len() != values_b.len() {
                out.push(DiffEntry {
                    location: format!("{name} / {label}"),
                    detail: format!("row width {} vs {}", values_a.len(), values_b.len()),
                });
                continue;
            }
            for (c, (va, vb)) in values_a.iter().zip(values_b).enumerate() {
                let delta = vb - va;
                if delta.abs() > tolerance || va.is_nan() != vb.is_nan() {
                    let column = cols_a.get(c).copied().unwrap_or("?");
                    out.push(DiffEntry {
                        location: format!("{name} / {label} / {column}"),
                        detail: format!("{va} -> {vb} (delta {delta:+.6})"),
                    });
                }
            }
        }
        for (label, _) in rows_b {
            if !cell_rows(table_a).iter().any(|(l, _)| *l == label) {
                out.push(DiffEntry {
                    location: format!("{name} / {label}"),
                    detail: "row only in second document".to_owned(),
                });
            }
        }
    }
    for (name, _) in &tb {
        if !ta.iter().any(|(n, _)| n == name) {
            out.push(DiffEntry {
                location: name.clone(),
                detail: "table only in second document".to_owned(),
            });
        }
    }
    out
}

fn columns_of(table: &Json) -> Vec<&str> {
    table
        .get("columns")
        .and_then(Json::as_arr)
        .map(|cols| cols.iter().filter_map(Json::as_str).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("Figure 12: TMNM coverage [%]", "app", &["A".into(), "B".into()]);
        t.push_row("gzip", vec![10.0, 20.0]);
        t.push_row("mcf", vec![30.5, 40.25]);
        t
    }

    #[test]
    fn slugs_are_filesystem_friendly() {
        assert_eq!(slug("Figure 12: TMNM coverage [%]"), "figure_12_tmnm_coverage");
        assert_eq!(slug("  weird  --  name "), "weird_name");
    }

    #[test]
    fn identical_documents_diff_clean() {
        let doc = table().to_json();
        assert!(diff_documents(&doc, &doc, 0.0).is_empty());
    }

    #[test]
    fn perturbed_cell_is_reported_with_location() {
        let a = table().to_json();
        let mut t = table();
        t.rows[1].1[1] += 0.5;
        let b = t.to_json();
        let diffs = diff_documents(&a, &b, 0.1);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].location.contains("mcf"));
        assert!(diffs[0].location.contains('B'));
        assert!(diffs[0].detail.contains("40.25 -> 40.75"));
        // Inside tolerance, the same perturbation passes.
        assert!(diff_documents(&a, &b, 0.6).is_empty());
    }

    #[test]
    fn structural_mismatches_are_divergences() {
        let a = table().to_json();
        let mut t = table();
        t.rows.remove(0);
        let diffs = diff_documents(&a, &t.to_json(), 1e9);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].detail.contains("row missing"));

        let empty = Json::obj(vec![("experiments", Json::Arr(vec![]))]);
        let manifest_like = Json::obj(vec![(
            "experiments",
            Json::Arr(vec![Json::obj(vec![
                ("name", Json::str("fig")),
                ("table", table().to_json()),
            ])]),
        )]);
        let diffs = diff_documents(&manifest_like, &empty, 0.0);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].detail.contains("table missing"));
    }

    #[test]
    fn manifest_serializes_with_schema_and_tables() {
        let mut m = RunManifest { threads: 4, ..Default::default() };
        m.params = Some(RunParams::quick());
        m.push("fig12", Duration::from_millis(12), table());
        let doc = m.to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(RunManifest::SCHEMA));
        let exps = doc.get("experiments").and_then(Json::as_arr).unwrap();
        assert_eq!(exps.len(), 1);
        assert_eq!(exps[0].get("name").and_then(Json::as_str), Some("fig12"));
        // Round-trips through the parser.
        let round = Json::parse(&doc.render_pretty()).unwrap();
        assert!(diff_documents(&doc, &round, 0.0).is_empty());
    }

    /// A job that panics while holding the recorder lock (the supervisor
    /// isolates the panic with `catch_unwind`) must not convert every
    /// later telemetry call into a `PoisonError` panic cascade.
    #[test]
    fn poisoned_recorder_lock_recovers() {
        let poison = std::panic::catch_unwind(|| {
            let _guard = RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            panic!("job panicked while recording telemetry");
        });
        assert!(poison.is_err());
        assert!(RECORDER.lock().is_err(), "lock is poisoned as the bug requires");

        // Every public entry point must keep working after the poison.
        enable_telemetry();
        record_pool(3, 1, Duration::from_millis(5), &[Duration::from_millis(5)]);
        let (_, pools) = drain_telemetry();
        assert!(pools.iter().any(|p| p.jobs == 3 && p.threads == 1));
    }

    #[test]
    fn telemetry_recorder_collects_pools() {
        enable_telemetry();
        record_pool(
            8,
            2,
            Duration::from_millis(40),
            &[Duration::from_millis(10), Duration::from_millis(30)],
        );
        let (_, pools) = drain_telemetry();
        // Other tests may run pools concurrently; find ours.
        let ours = pools.iter().find(|p| p.jobs == 8 && p.threads == 2).expect("recorded pool");
        assert!(ours.job_ms_max >= 29.0);
    }
}
