//! Smoke tests of the `jsn` command-line tool.

use std::process::Command;

fn jsn(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_jsn")).args(args).output().expect("jsn runs")
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
    assert!(text.contains("mean data access time"));
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
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
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
        assert!(stderr.contains("--frame"), "--frame {frame} should name the flag: {stderr}");
        assert!(stderr.contains("3276"), "--frame {frame} should give the bound: {stderr}");
        assert!(out.stdout.is_empty(), "--frame {frame} ran a slam anyway");
    }
}
