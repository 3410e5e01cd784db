//! Smoke tests of the `jsn` command-line tool.

use std::process::Command;

/// Run `jsn` with no warm-up, so a `jsn run` replays just its `-n`
/// instructions whatever `JSN_WARMUP` the caller has set.
fn jsn(args: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_jsn"));
    cmd.args(args).env("JSN_WARMUP", "0").output().expect("jsn runs")
}

#[test]
fn apps_lists_all_twenty() {
    let out = jsn(&["apps"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["164.gzip", "181.mcf", "301.apsi"] {
        assert!(text.contains(name), "missing {name}");
    }
    assert_eq!(text.lines().count(), 21, "header + 20 apps");
}

#[test]
fn run_reports_coverage() {
    let out = jsn(&["run", "164.gzip", "--config", "TMNM_10x1", "-n", "30000"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("coverage:"));
    assert!(text.contains("mean access time"));
}

#[test]
fn run_cpu_mode_reports_cycles() {
    let out = jsn(&["run", "171.swim", "--config", "Baseline", "-n", "20000", "--cpu"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cycles:"));
    assert!(text.contains("IPC:"));
}

#[test]
fn unknown_app_fails_cleanly() {
    let out = jsn(&["run", "999.bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown application"));
}

#[test]
fn bad_config_label_fails_cleanly() {
    let out = jsn(&["run", "164.gzip", "--config", "XMNM_1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unrecognized"));
}

#[test]
fn trace_round_trips_through_file() {
    let path = std::env::temp_dir().join("jsn_cli_trace.jsnt");
    let path_s = path.to_str().unwrap();
    let out = jsn(&["trace", "256.bzip2", "-o", path_s, "-n", "10000"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let restored =
        trace_synth::read_trace(std::fs::File::open(&path).unwrap()).expect("readable trace");
    assert_eq!(restored.len(), 10_000);
    std::fs::remove_file(&path).ok();
}

#[test]
fn help_prints_usage() {
    let out = jsn(&["help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(help.contains("USAGE"));
    // A bound at the value type's maximum reads as open, like `--cores 1..`.
    assert_eq!(help.matches("--retries 0.. ").count(), 2, "{help}");
    assert!(!help.contains("4294967295"), "{help}");
}

/// A malformed `JSN_*` knob stops `jsn run-all -o <fresh dir>` with exit 2
/// before it simulates or writes anything, naming the knob and its value.
fn assert_knob_rejected(case: &str, envs: &[(&str, &str)], needle: &str) {
    let dir = std::env::temp_dir().join(format!("jsn_cli_knobs_{}_{case}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_jsn"))
        .args(["run-all", "-o", dir.to_str().unwrap()])
        .envs(envs.iter().copied())
        .output()
        .expect("jsn runs");
    let created = dir.exists();
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{envs:?}: {stderr}");
    assert!(stderr.contains(needle), "stderr names {needle}: {stderr}");
    assert!(out.stdout.is_empty(), "{envs:?} produced results");
    assert!(!created, "{envs:?} created the output directory");
}

#[test]
fn malformed_warmup_aborts_before_simulating() {
    let warmup = [("JSN_WARMUP", "three-hundred-thousand")];
    assert_knob_rejected("warmup", &warmup, "JSN_WARMUP=three-hundred-thousand");
}

#[test]
fn malformed_measure_and_threads_abort() {
    assert_knob_rejected("measure", &[("JSN_MEASURE", "2m")], "JSN_MEASURE=2m");
    // A zero worker count must also abort rather than fall back to a default.
    let threads = [("JSN_THREADS", "0"), ("JSN_WARMUP", "100"), ("JSN_MEASURE", "200")];
    assert_knob_rejected("threads", &threads, "JSN_THREADS=0");
}

#[test]
fn run_json_emits_parseable_counters() {
    use just_say_no::mnm_experiments::json::Json;
    let out = jsn(&["run", "164.gzip", "--config", "TMNM_10x1", "-n", "30000", "--json"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("jsn-run/v1"));
    assert_eq!(doc.get("app").and_then(Json::as_str), Some("164.gzip"));
    let hier = doc.get("hierarchy").expect("hierarchy object");
    assert!(hier.get("accesses").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(doc.get("mnm").and_then(|m| m.get("coverage")).is_some());
    assert!(doc.get("cpu").is_none(), "functional run has no cpu section");
}

#[test]
fn run_json_timed_includes_cpu() {
    use just_say_no::mnm_experiments::json::Json;
    let out = jsn(&["run", "171.swim", "--config", "Baseline", "-n", "20000", "--cpu", "--json"]);
    assert!(out.status.success());
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let cpu = doc.get("cpu").expect("cpu section");
    assert_eq!(cpu.get("instructions").and_then(Json::as_f64), Some(20000.0));
    assert!(cpu.get("cycles").and_then(Json::as_f64).unwrap() > 0.0);
}

/// `jsn run` and `jsn coverage` drive the figures' runner, so at one
/// budget a coverage row equals `run_app_functional`'s, and both say
/// which stream and warm-up they ran.
const FIGURE_BUDGET: [(&str, &str); 2] = [("JSN_WARMUP", "0"), ("JSN_MEASURE", "50000")];

fn jsn_at_figure_budget(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_jsn"))
        .args(args)
        .envs(FIGURE_BUDGET)
        .output()
        .expect("jsn runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn coverage_equals_the_figures_runner_at_the_same_budget() {
    use just_say_no::mnm_experiments::runner::{preset, run_app_functional};
    use just_say_no::mnm_experiments::RunParams;
    use just_say_no::prelude::*;
    let text = jsn_at_figure_budget(&["coverage", "181.mcf", "HMNM4"]);
    let row = text.lines().find(|l| l.starts_with("HMNM4")).expect("an HMNM4 row");
    let printed = row.split_whitespace().nth(1).expect("a coverage cell");

    let profile = profiles::by_name("181.mcf").unwrap();
    let params = RunParams { warmup: 0, measure: 50_000 };
    let cfg = HierarchyConfig::paper_five_level();
    let run = run_app_functional(&profile, &cfg, &preset("HMNM4"), params);
    let coverage = run.mnm.expect("MNM stats").coverage() * 100.0;
    assert_eq!(printed, format!("{coverage:.1}%"), "{text}");
    assert!(text.contains("stream: fetch-blocks") && text.contains("warm-up: 0"), "{text}");
}

#[test]
fn run_reports_its_stream_and_warmup() {
    use just_say_no::mnm_experiments::json::Json;
    let args = ["run", "164.gzip", "--config", "TMNM_10x1", "-n", "20000"];
    let doc = Json::parse(&jsn_at_figure_budget(&[&args[..], &["--json"]].concat())).unwrap();
    assert_eq!(doc.get("stream").and_then(Json::as_str), Some("fetch-blocks"));
    assert_eq!(doc.get("warmup").and_then(Json::as_f64), Some(0.0));
    let text = jsn_at_figure_budget(&args);
    assert!(text.contains("stream: fetch-blocks   warm-up: 0"), "{text}");
}

/// `jsn run` takes its measured budget from `-n` alone: it reads
/// `JSN_WARMUP` but not `JSN_MEASURE`.
#[test]
fn run_reads_no_jsn_measure() {
    let out = Command::new(env!("CARGO_BIN_EXE_jsn"))
        .args(["run", "164.gzip", "-n", "1000"])
        .envs([("JSN_WARMUP", "0"), ("JSN_MEASURE", "bogus")])
        .output()
        .expect("jsn runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// `jsn diff` passes identical documents, flags an injected regression
/// with a nonzero exit, and honours `--tol`.
#[test]
fn diff_flags_regressions_and_passes_identity() {
    use just_say_no::mnm_experiments::{Json, Table};
    let dir = std::env::temp_dir();
    let a_path = dir.join("jsn_diff_a.json");
    let b_path = dir.join("jsn_diff_b.json");

    let mut t = Table::new("Figure X: smoke [%]", "app", &["HMNM4".to_owned()]);
    t.push_row("164.gzip", vec![88.25]);
    let doc = |t: &Table| {
        Json::obj(vec![("schema", Json::str("jsn-table/v1")), ("table", t.to_json())])
            .render_pretty()
    };
    std::fs::write(&a_path, doc(&t)).unwrap();
    std::fs::write(&b_path, doc(&t)).unwrap();

    let identical = jsn(&["diff", a_path.to_str().unwrap(), b_path.to_str().unwrap()]);
    assert!(identical.status.success(), "{}", String::from_utf8_lossy(&identical.stdout));

    // Inject a regression.
    t.rows[0].1[0] = 80.0;
    std::fs::write(&b_path, doc(&t)).unwrap();
    let regressed = jsn(&["diff", a_path.to_str().unwrap(), b_path.to_str().unwrap()]);
    assert!(!regressed.status.success(), "regression must exit nonzero");
    let text = String::from_utf8_lossy(&regressed.stdout);
    assert!(text.contains("164.gzip"), "names the row: {text}");
    assert!(text.contains("88.25 -> 80"), "shows both values: {text}");

    // A huge tolerance lets the same delta pass.
    let tolerant =
        jsn(&["diff", a_path.to_str().unwrap(), b_path.to_str().unwrap(), "--tol", "10"]);
    assert!(tolerant.status.success());

    std::fs::remove_file(&a_path).ok();
    std::fs::remove_file(&b_path).ok();
}

#[test]
fn diff_rejects_missing_and_malformed_input() {
    let out = jsn(&["diff", "/nonexistent/a.json", "/nonexistent/b.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let out = jsn(&["diff", "only_one.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("two JSON files"));
}

/// A document nested past the parser's depth limit is malformed input:
/// `jsn diff` names the file and exits 1 instead of overflowing its stack.
#[test]
fn diff_rejects_documents_nested_too_deep() {
    let path = std::env::temp_dir().join(format!("jsn_diff_deep_{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
    let p = path.to_str().unwrap();
    let out = jsn(&["diff", p, p]);
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(p) && stderr.contains("nested deeper than 128"), "{stderr}");
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn shard_rejects_out_of_range_flags() {
    for (args, flag) in [
        (&["--cores", "0"][..], "--cores"),
        (&["--epoch", "0"], "--epoch"),
        (&["--sharing", "1.5"], "--sharing"),
        (&["--sharing", "-0.1"], "--sharing"),
        (&["--check", "--workload", "pingpong", "--cores", "0"], "--cores"),
        (&["--check", "--workload", "pingpong", "--epoch", "0"], "--epoch"),
    ] {
        let out = jsn(&[&["shard", "-n", "1000"][..], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} should name {flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn slam_rejects_out_of_range_frame() {
    // Rejected before any connection is attempted: nothing listens on
    // the endpoint, so a slam that ran would fail on connects instead.
    for frame in ["0", "3277", "4000"] {
        let out = jsn(&[
            "slam",
            "--connect",
            "127.0.0.1:9",
            "--sessions",
            "1",
            "--records",
            "100",
            "--frame",
            frame,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--frame {frame}: {stderr}");
        let expected = format!("jsn: --frame {frame}: expected an integer in 1..=3276");
        assert!(stderr.starts_with(&expected), "--frame {frame}: {stderr}");
        assert!(!stderr.contains("panicked"), "--frame {frame} panicked: {stderr}");
        assert!(out.stdout.is_empty(), "--frame {frame} ran a slam anyway");
    }
}

/// Every unknown, valueless, malformed or out-of-range flag exits 1
/// before doing any work, names the flag on stderr and prints nothing.
/// The slam rows would fail on connects if they ran: nothing listens on
/// the endpoint.
#[test]
fn bad_flags_exit_1_naming_the_flag() {
    const SLAM: [&str; 7] =
        ["slam", "--connect", "127.0.0.1:9", "--sessions", "1", "--records", "100"];
    let rows: &[(&[&str], &[&str], &str)] = &[
        (&["shard"], &["-n", "0"], "-n"),
        (&SLAM, &["--window", "0"], "--window"),
        (&["run", "164.gzip"], &["--confg", "TMNM_12x3", "--jsno"], "--confg"),
        (&["run", "164.gzip"], &["-n", "0"], "-n"),
        (&["run", "164.gzip"], &["-n", "many"], "-n"),
        (&["run", "164.gzip"], &["--config"], "--config"),
        (&["check"], &["--seeds", "0"], "--seeds"),
        (&["check"], &["--len", "0"], "--len"),
        (&["check"], &["--seed", "0xzz"], "--seed"),
        (&["trace", "256.bzip2"], &["-n", "0"], "-n"),
        (&["serve"], &["--max-frame", "65536"], "--max-frame"),
        (&["serve"], &["--queue", "0"], "--queue"),
        (&["chaos"], &["--upstream", "nowhere"], "--upstream"),
        (&["diff", "a.json", "b.json"], &["--tol", "-1"], "--tol"),
        (&["run-all"], &["--frobnicate"], "--frobnicate"),
        (&["run-all"], &["--deadline", "soon"], "--deadline"),
        (&["run-all"], &["--retries"], "--retries"),
        (&["apps"], &["--json"], "--json"),
    ];
    for (command, args, needle) in rows {
        let out = jsn(&[*command, *args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(&format!("jsn: {}", args[0])), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?} should say {needle}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}
