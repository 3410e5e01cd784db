//! Fault-injection drills for the supervised sweep: injected panics,
//! stalls, and torn writes must be isolated and retried — the sweep
//! completes, the artifacts are intact, and every fired fault is recorded.
//!
//! The fault plan is process-global, so every test serializes on one lock
//! and uninstalls the plan before releasing it.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use mnm_experiments::faults::{self, FaultPlan};
use mnm_experiments::metrics::diff_documents;
use mnm_experiments::supervisor::SupervisorConfig;
use mnm_experiments::sweep::{run_sweep, SweepOptions};
use mnm_experiments::{Json, RunParams};

static FAULT_STATE: Mutex<()> = Mutex::new(());

fn lock_faults() -> MutexGuard<'static, ()> {
    FAULT_STATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny() -> RunParams {
    RunParams { warmup: 500, measure: 2_000 }
}

const JOBS: [&str; 2] = ["table2_characteristics", "fig12_tmnm_coverage"];

fn opts(dir: &Path) -> SweepOptions {
    let mut o = SweepOptions::new(dir.to_path_buf(), tiny());
    o.only = Some(JOBS.iter().map(|s| s.to_string()).collect());
    o.quiet = true;
    o.supervisor =
        SupervisorConfig { deadline: None, retries: 2, backoff: Duration::from_millis(1) };
    o
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("jsn-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn manifest(dir: &Path) -> Json {
    let text = std::fs::read_to_string(dir.join("all_experiments.json")).unwrap();
    Json::parse(&text).expect("manifest parses")
}

/// The supervisor job reports recorded in a manifest, as (name, attempts).
fn job_attempts(doc: &Json) -> Vec<(String, usize)> {
    doc.get("supervisor")
        .and_then(Json::as_arr)
        .map(|jobs| {
            jobs.iter()
                .map(|j| {
                    (
                        j.get("job").and_then(Json::as_str).unwrap_or("?").to_owned(),
                        j.get("attempts").and_then(Json::as_arr).map_or(0, |a| a.len()),
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn injected_panic_is_isolated_and_retried() {
    let _guard = lock_faults();
    faults::install(Some(FaultPlan::parse("seed=1,panic=table2_characteristics").unwrap()));

    let dir = fresh_dir("panic");
    let summary = run_sweep(&opts(&dir)).unwrap();
    assert!(summary.failed.is_empty(), "panic must be absorbed by a retry");
    assert_eq!(summary.executed, 2);
    assert_eq!(summary.injected.len(), 1);
    assert_eq!(summary.injected[0].kind, "panic");

    let doc = manifest(&dir);
    let attempts = job_attempts(&doc);
    assert!(
        attempts.contains(&("table2_characteristics".to_owned(), 2)),
        "victim job shows panicked-then-ok attempts: {attempts:?}"
    );
    assert!(
        doc.get("injected_faults").and_then(Json::as_arr).is_some_and(|a| a.len() == 1),
        "fired fault is recorded in the manifest"
    );

    faults::install(None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_stall_blows_the_deadline_then_recovers() {
    let _guard = lock_faults();
    faults::install(Some(FaultPlan::parse("seed=2,stall=table2_characteristics:5000").unwrap()));

    let dir = fresh_dir("stall");
    let mut o = opts(&dir);
    // Far below the 5000 ms stall, far above a normal job of this tiny
    // sweep (a debug-build fig12_tmnm_coverage takes ~0.4 s on a loaded
    // 2-vCPU host, which a 200 ms deadline timed out three times over).
    o.supervisor.deadline = Some(Duration::from_millis(2000));
    let summary = run_sweep(&o).unwrap();
    assert!(summary.failed.is_empty(), "stalled attempt abandoned, retry succeeds");
    assert_eq!(summary.injected.len(), 1);
    assert_eq!(summary.injected[0].kind, "stall");

    let attempts = job_attempts(&manifest(&dir));
    assert!(
        attempts.contains(&("table2_characteristics".to_owned(), 2)),
        "victim job shows timed-out-then-ok attempts: {attempts:?}"
    );

    faults::install(None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_manifest_write_is_retried_to_an_intact_artifact() {
    let _guard = lock_faults();
    faults::install(Some(FaultPlan::parse("seed=3,torn=all_experiments.json").unwrap()));

    let dir = fresh_dir("torn");
    let summary = run_sweep(&opts(&dir)).unwrap();
    assert!(summary.failed.is_empty());
    assert!(summary.injected.iter().any(|f| f.kind == "torn"));

    // The artifact exists, parses, and carries both experiments — the torn
    // first attempt left nothing behind.
    let doc = manifest(&dir);
    let experiments = doc.get("experiments").and_then(Json::as_arr).unwrap();
    assert!(experiments.len() >= 2);
    assert!(!dir.join("all_experiments.json.tmp").exists(), "no torn temp debris");

    faults::install(None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retries_fail_the_job_but_not_the_sweep() {
    let _guard = lock_faults();
    faults::install(Some(FaultPlan::parse("seed=4,panic=table2_characteristics").unwrap()));

    let dir = fresh_dir("exhausted");
    let mut o = opts(&dir);
    o.supervisor.retries = 0; // the one-shot fault panics the only attempt
    let summary = run_sweep(&o).unwrap();
    assert_eq!(summary.failed, vec!["table2_characteristics".to_owned()]);
    assert_eq!(summary.executed, 1, "the healthy job still ran");
    assert!(
        dir.join("journal.jsonl").exists(),
        "journal survives a failed sweep for later --resume"
    );

    // A later resume without the fault plan finishes the failed job and
    // converges to the uninterrupted result.
    faults::install(None);
    let clean = fresh_dir("exhausted-clean");
    run_sweep(&opts(&clean)).unwrap();

    let mut retry = opts(&dir);
    retry.resume = true;
    let summary = run_sweep(&retry).unwrap();
    assert!(summary.failed.is_empty());
    assert_eq!(summary.resumed, 1);
    assert_eq!(summary.executed, 1);
    let diffs = diff_documents(&manifest(&clean), &manifest(&dir), 0.0);
    assert!(diffs.is_empty(), "{diffs:?}");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean);
}
