//! `jsn` — command-line front end for the Just Say No reproduction.
//!
//! ```text
//! jsn apps                                   list the 20 bundled profiles
//! jsn run <app> [--config L] [-n N] [--cpu] [--json]   simulate one app
//! jsn run-all [-o DIR] [--resume DIR] [--deadline S] [--retries N]
//!                                            supervised full sweep with a
//!                                            crash-safe checkpoint journal
//! jsn coverage <app> [labels...]             per-config coverage for one app
//! jsn trace <app> -o FILE [-n N]             persist a binary trace
//! jsn diff <a.json> <b.json> [--tol X]       compare two results artifacts
//! jsn check [--seeds N] [--filter F] [--gen G] [--seed S] [--len N]
//!                                            differential soundness checker
//! jsn serve [--listen EP] [--max-sessions N] [--snapshot FILE] ...
//!                                            trace-stream replay service
//! jsn slam [--connect EP] [--sessions N] [--verify] ...
//!                                            load-generate against a server
//! jsn chaos --upstream EP [--listen EP] [--log FILE] [--plan PLAN]
//!                                            deterministic fault proxy
//! jsn help                                   this text
//! ```
//!
//! Configuration labels follow the paper's grammar (`TMNM_12x3`, `HMNM4`,
//! `RMNM_512_2`, `CMNM_8_12`, `SMNM_13x2`, `BLOOM_13x4`) plus `baseline`
//! and `perfect` in any letter case (`FilterPreset::parse`).

use std::process::ExitCode;

use just_say_no::mnm_experiments::json::Json;
use just_say_no::mnm_experiments::metrics::diff_documents;
use just_say_no::prelude::*;
use trace_synth::{characterize, write_trace};

const DEFAULT_INSTRUCTIONS: u64 = 500_000;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("apps") => cmd_apps(),
        Some("run") => cmd_run(&args[1..]),
        Some("run-all") => return cmd_run_all(&args[1..]),
        Some("coverage") => cmd_coverage(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("diff") => return cmd_diff(&args[1..]),
        Some("check") => return cmd_check(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("slam") => return cmd_slam(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("shard") => return cmd_shard(&args[1..]),
        Some("help") | None => {
            print_help();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `jsn help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("jsn: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "jsn — Just Say No (HPCA 2003) reproduction CLI\n\
         \n\
         USAGE:\n  jsn apps\n  jsn run <app> [--config LABEL] [-n N] [--cpu] [--json]\n  \
         jsn run-all [-o DIR] [--resume DIR] [--deadline SECS] [--retries N] [--only a,b] [--quiet]\n  \
         jsn coverage <app> [LABEL...]\n  jsn trace <app> -o FILE [-n N]\n  \
         jsn diff <a.json> <b.json> [--tol X]\n  \
         jsn check [--seeds N] [--len N] [--filter LABEL] [--gen G] [--seed S] [--json] [-o FILE]\n  \
         jsn shard [--app NAME] [--cores N] [-n N] [--epoch N|auto] [--sharing R]\n            \
         [--config LABEL] [--seed S] [--single] [--json]\n            \
         [--check [--quick] [--workload W]]\n\
         \n\
         Labels: baseline, perfect (any case), HMNM1..4, TMNM_<b>x<r>, CMNM_<k>_<m>,\n\
         RMNM_<blocks>_<assoc>, SMNM_<w>x<r>, BLOOM_<b>x<k>.\n\
         \n\
         run-all regenerates every table/figure under supervision: each job\n\
         is retried on panic or deadline overrun, completed jobs are\n\
         checkpointed to <out>/journal.jsonl (fsynced), and `--resume <dir>`\n\
         continues an interrupted sweep to the identical manifest. The\n\
         JSN_FAULT env knob injects deterministic faults (see\n\
         EXPERIMENTS.md).\n\
         \n\
         check sweeps every filter family against the perfect oracle and an\n\
         independent reference cache model over randomized traces\n\
         (generators: profile, aliasing, flush, saturation); a failure is\n\
         shrunk to a minimal reproducer and printed with its replay line.\n\
         `--filter`/`--gen`/`--seed` restrict the sweep to replay one\n\
         scenario. Under a JSN_FAULT flip plan, check corrupts filter state\n\
         mid-trace and must report the lie as an UnsoundFlag violation.\n\
         \n\
         shard runs an epoch-synchronized N-core simulation: per-core\n\
         private L1/L2 + MNM filters over one shared L3, with cross-core\n\
         store and L3-victim invalidations driven through the filter event\n\
         stream (defaults: 4 cores, epoch 2048, sharing 0.25). The\n\
         default engine is pipelined (cores compute epoch E+1 while a\n\
         resolver thread drains epoch E); `--single` selects the\n\
         single-threaded reference — the two are bit-identical by contract.\n\
         `--epoch auto` calibrates the epoch length before the run;\n\
         `--check` sweeps adversarial sharing workloads (pingpong,\n\
         falsesharing, evictionrace, profile) across every filter family\n\
         under a lockstep multi-core reference model, re-verifying engine\n\
         identity per scenario. JSON output includes per-phase timing\n\
         (compute, resolve, stall nanos and resolver occupancy).\n\
         \n\
         serve runs a long-lived trace-stream replay service:\n  \
         jsn serve [--listen EP] [--max-sessions N] [--queue FRAMES]\n            \
         [--max-frame BYTES] [--stall-ms MS] [--idle-ms MS]\n            \
         [--resume-window-ms MS] [--max-parked N] [--shed-watermark N]\n            \
         [--retry-after-ms MS] [--drain-ms MS] [--snapshot FILE]\n\
         EP is <host>:<port> or unix:<path> (default 127.0.0.1:7227).\n\
         Each connection gets its own hierarchy + filter preset; scrape\n\
         GET /metrics on the same endpoint for live counters. SIGTERM or\n\
         ctrl-c drains sessions and flushes a final metrics snapshot.\n\
         Protocol v2: every frame is CRC32-checked, interrupted sessions\n\
         park for --resume-window-ms and resume exactly-once by token,\n\
         idle sessions are evicted after --idle-ms, and new hellos get\n\
         STATUS_BUSY with a retry_after_ms hint while the worker queue\n\
         sits at or above --shed-watermark.\n\
         \n\
         slam load-generates against a running server:\n  \
         jsn slam [--connect EP] [--sessions N] [--records N] [--frame N]\n           \
         [--config LABEL] [--seed S] [--window N] [--retries N]\n           \
         [--backoff-ms MS] [--metrics EP] [--verify]\n\
         Connections that die mid-session reconnect with exponential\n\
         backoff (deterministic jitter) and resume from the server's\n\
         acked frame. --retries (default 5) bounds reconnects in a row\n\
         that ack no new frame; progress resets the count and the\n\
         backoff. --frame is 1..=3276 records (default 1024), the most a\n\
         64 KiB frame holds. --verify scrapes /metrics afterwards (from\n\
         --metrics EP if given, e.g. around a chaos proxy) and requires\n\
         the verdict histogram to be bit-identical to an offline replay\n\
         of the same seeds (exit 1 otherwise).\n\
         \n\
         chaos relays slam <-> serve traffic while injecting seeded,\n\
         reproducible faults:\n  \
         jsn chaos --upstream EP [--listen EP] [--log FILE] [--plan P]\n\
         The plan (or the JSN_CHAOS env var) reads like JSN_FAULT:\n  \
         seed=42,tear=1/24,delay=1/16:5,drop=1/64,corrupt=1/24,dup=1/32\n\
         Faults fire at byte offsets decided purely by the seed, so a\n\
         rerun fires the identical sequence; every fired fault is logged\n\
         to --log sorted for diffing. See EXPERIMENTS.md."
    );
}

fn lookup_app(name: &str) -> Result<AppProfile, String> {
    profiles::by_name(name).ok_or_else(|| {
        format!("unknown application `{name}`; `jsn apps` lists the bundled profiles")
    })
}

fn parse_n(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.replace('_', "").parse().ok())
            .ok_or_else(|| format!("{flag} needs a numeric argument")),
    }
}

fn parse_opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn cmd_apps() -> Result<(), String> {
    println!(
        "{:<14}{:>6}  {:>10}  {:>9}  {:>8}  {:>7}",
        "app", "suite", "data", "code", "regions", "drift"
    );
    for p in profiles::all() {
        let suite = match p.category {
            trace_synth::AppCategory::Integer => "INT",
            trace_synth::AppCategory::FloatingPoint => "FP",
        };
        println!(
            "{:<14}{:>6}  {:>8}KB  {:>7}KB  {:>8}  {:>7}",
            p.name,
            suite,
            p.data_footprint() / 1024,
            p.code_footprint / 1024,
            p.regions.len(),
            if p.phase_drift.is_some() { "yes" } else { "no" },
        );
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let app = args.first().ok_or("run needs an application name")?;
    let profile = lookup_app(app)?;
    let n = parse_n(args, "-n", DEFAULT_INSTRUCTIONS)?;
    let label = parse_opt(args, "--config").unwrap_or("HMNM4");
    let timed = args.iter().any(|a| a == "--cpu");
    let json = args.iter().any(|a| a == "--json");

    let preset = FilterPreset::parse(label)?;
    let label = &preset.label();
    let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
    let mut filter = preset.build(&hier);

    if timed {
        let cpu = CpuConfig::paper_eight_way();
        let stats = simulate(&cpu, &mut hier, &mut filter, Program::new(profile), n);
        if json {
            print!("{}", run_json(app, label, &hier, filter.mnm(), Some(&stats)).render_pretty());
            return Ok(());
        }
        println!("app: {app}   config: {label}   instructions: {}", stats.instructions);
        println!("cycles: {}   IPC: {:.3}", stats.cycles, stats.ipc());
        println!(
            "loads: {}   mean load latency: {:.1} cycles",
            stats.loads,
            stats.mean_load_latency()
        );
        println!("branches: {} ({} mispredicted)", stats.branches, stats.mispredicts);
    } else {
        for instr in Program::new(profile).take(n as usize) {
            if let Some(addr) = instr.data_addr() {
                let access = match instr.kind {
                    InstrKind::Store { .. } => Access::store(addr),
                    _ => Access::load(addr),
                };
                hier.step(&mut filter, access);
            }
        }
        if json {
            print!("{}", run_json(app, label, &hier, filter.mnm(), None).render_pretty());
            return Ok(());
        }
        println!("app: {app}   config: {label}   data accesses: {}", hier.stats().accesses);
        println!("mean data access time: {:.2} cycles", hier.stats().mean_access_time());
        println!("miss-time fraction: {:.1}%", hier.stats().miss_time_fraction() * 100.0);
    }

    if let Some(m) = filter.mnm() {
        println!(
            "coverage: {:.1}%   MNM state: {} bits in {} components",
            m.stats().coverage() * 100.0,
            m.storage_bits(),
            m.storage().len()
        );
    }
    Ok(())
}

/// The `jsn run --json` document: one run's counters, schema
/// `jsn-run/v1`.
fn run_json(
    app: &str,
    label: &str,
    hier: &Hierarchy,
    mnm: Option<&Mnm>,
    cpu: Option<&just_say_no::ooo_model::CpuStats>,
) -> Json {
    let st = hier.stats();
    let structures = Json::Arr(
        hier.structures()
            .iter()
            .map(|meta| {
                let s = st.structures[meta.id.index()];
                Json::obj(vec![
                    ("name", Json::str(&meta.name)),
                    ("level", Json::num(meta.level as f64)),
                    ("probes", Json::num(s.probes as f64)),
                    ("hits", Json::num(s.hits as f64)),
                    ("misses", Json::num(s.misses as f64)),
                    ("bypasses", Json::num(s.bypasses as f64)),
                    ("fills", Json::num(s.fills as f64)),
                    ("writebacks", Json::num(s.writebacks as f64)),
                ])
            })
            .collect(),
    );
    let mut pairs = vec![
        ("schema", Json::str("jsn-run/v1")),
        ("app", Json::str(app)),
        ("config", Json::str(label)),
        (
            "hierarchy",
            Json::obj(vec![
                ("accesses", Json::num(st.accesses as f64)),
                ("data_accesses", Json::num(st.data_accesses as f64)),
                ("memory_supplies", Json::num(st.memory_supplies as f64)),
                ("mean_access_time", Json::num(st.mean_access_time())),
                ("miss_time_fraction", Json::num(st.miss_time_fraction())),
                (
                    "supplies_by_level",
                    Json::Arr(st.supplies_by_level.iter().map(|&s| Json::num(s as f64)).collect()),
                ),
                ("structures", structures),
            ]),
        ),
    ];
    if let Some(cpu) = cpu {
        pairs.push((
            "cpu",
            Json::obj(vec![
                ("instructions", Json::num(cpu.instructions as f64)),
                ("cycles", Json::num(cpu.cycles as f64)),
                ("ipc", Json::num(cpu.ipc())),
                ("loads", Json::num(cpu.loads as f64)),
                ("mean_load_latency", Json::num(cpu.mean_load_latency())),
                ("branches", Json::num(cpu.branches as f64)),
                ("mispredicts", Json::num(cpu.mispredicts as f64)),
            ]),
        ));
    }
    if let Some(m) = mnm {
        pairs.push((
            "mnm",
            Json::obj(vec![
                ("coverage", Json::num(m.stats().coverage())),
                ("identified_misses", Json::num(m.stats().identified_misses() as f64)),
                ("bypassable_misses", Json::num(m.stats().bypassable_misses() as f64)),
                ("storage_bits", Json::num(m.storage_bits() as f64)),
                ("components", Json::num(m.storage().len() as f64)),
            ]),
        ));
    }
    Json::obj(pairs)
}

/// `jsn diff a.json b.json [--tol X]`: per-cell comparison of two results
/// artifacts (run manifests or single-table documents). Exits 0 when they
/// agree within the tolerance, 1 when any cell or structure diverges.
fn cmd_diff(args: &[String]) -> ExitCode {
    match run_diff(args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("jsn: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut tolerance = 1e-9_f64;
    let mut paths: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--tol" {
            let t = it.next().ok_or("--tol needs a numeric argument")?;
            tolerance = t.parse().map_err(|_| format!("--tol {t}: expected a number"))?;
        } else if arg.starts_with("--") {
            return Err(format!("unknown diff option `{arg}`"));
        } else {
            paths.push(arg);
        }
    }
    let [a_path, b_path] = paths[..] else {
        return Err("diff needs two JSON files (and an optional --tol X)".to_owned());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let a = load(a_path)?;
    let b = load(b_path)?;

    let diffs = diff_documents(&a, &b, tolerance);
    if diffs.is_empty() {
        println!("identical within tolerance {tolerance}: {a_path} vs {b_path}");
        return Ok(ExitCode::SUCCESS);
    }
    println!("{} divergence(s) beyond tolerance {tolerance}:", diffs.len());
    for d in &diffs {
        println!("  {d}");
    }
    Ok(ExitCode::FAILURE)
}

/// `jsn check`: the differential soundness sweep. Exits 0 when every
/// scenario upholds the invariants, 1 when a violation was found (the
/// shrunk reproducer and its replay line are printed).
fn cmd_check(args: &[String]) -> ExitCode {
    match run_check(args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("jsn: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_check(args: &[String]) -> Result<ExitCode, String> {
    use just_say_no::mnm_check::{run_scenario, run_suite, Scenario, SuiteReport, TraceGen};
    use just_say_no::mnm_experiments::faults;

    // Honor JSN_FAULT: a `flip` clause corrupts selected scenarios'
    // filter state mid-trace, which the checker must then catch.
    if let Some(plan) = faults::FaultPlan::from_env()? {
        eprintln!("fault injection armed: {}", plan.summary());
        faults::install(Some(plan));
    }

    let seeds = parse_n(args, "--seeds", 8)?;
    let len = parse_n(args, "--len", 4000)? as usize;
    let json = args.iter().any(|a| a == "--json");
    let out_path = parse_opt(args, "-o");
    let filter_arg = parse_opt(args, "--filter");
    let gen_arg = match parse_opt(args, "--gen") {
        None => None,
        Some(g) => Some(TraceGen::parse(g).ok_or_else(|| {
            format!("unknown generator `{g}` (expected profile, aliasing, flush, or saturation)")
        })?),
    };

    let report = if let Some(seed_text) = parse_opt(args, "--seed") {
        // Replay mode: one fully-pinned scenario, as printed in a failure's
        // replay line.
        let seed = parse_seed(seed_text)?;
        let filter = filter_arg.ok_or("replaying a seed needs --filter")?;
        let gen = gen_arg.ok_or("replaying a seed needs --gen")?;
        let scenario = Scenario { filter: filter.to_owned(), gen, seed, len };
        SuiteReport { scenarios: vec![run_scenario(&scenario)?] }
    } else {
        let filters: Vec<&str> = match filter_arg {
            Some(f) => vec![f],
            None => just_say_no::mnm_check::DEFAULT_FILTERS.to_vec(),
        };
        let gens: Vec<TraceGen> = match gen_arg {
            Some(g) => vec![g],
            None => TraceGen::ALL.to_vec(),
        };
        run_suite(&filters, &gens, seeds, len)?
    };

    if let Some(path) = out_path {
        just_say_no::mnm_experiments::fsio::write_artifact(
            std::path::Path::new(path),
            report.to_json().render_pretty().as_bytes(),
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if json {
        print!("{}", report.to_json().render_pretty());
    } else if report.passed() {
        println!(
            "check passed: {} scenario(s), {} accesses, every definite-miss flag, \
             event stream, and stats reconciliation held",
            report.scenarios.len(),
            report.total_accesses()
        );
    } else {
        for failure in report.failures() {
            print!("{}", failure.render_failure());
        }
        println!(
            "check FAILED: {} of {} scenario(s) violated an invariant",
            report.failures().len(),
            report.scenarios.len()
        );
    }
    Ok(if report.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `jsn run-all`: the supervised experiment sweep (same code and flags as
/// the `run_all` binary). Exit 0 on a clean sweep, 1 when jobs failed
/// (artifacts still written), 2 on configuration/IO errors.
fn cmd_run_all(args: &[String]) -> ExitCode {
    match just_say_no::mnm_experiments::sweep::cli_main(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("jsn: {msg}");
            ExitCode::from(2)
        }
    }
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("--seed {text}: expected a decimal or 0x-prefixed integer"))
}

fn cmd_coverage(args: &[String]) -> Result<(), String> {
    let app = args.first().ok_or("coverage needs an application name")?;
    let profile = lookup_app(app)?;
    let defaults = ["RMNM_4096_8", "SMNM_20x3", "TMNM_12x3", "CMNM_8_12", "HMNM4"];
    let labels: Vec<&str> = if args.len() > 1 {
        args[1..].iter().map(String::as_str).collect()
    } else {
        defaults.to_vec()
    };

    println!("{:<14}{:>10}", "config", "coverage");
    for label in labels {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut mnm = Mnm::new(&hier, MnmConfig::parse(label).map_err(|e| e.to_string())?);
        for instr in Program::new(profile.clone()).take(DEFAULT_INSTRUCTIONS as usize) {
            if let Some(addr) = instr.data_addr() {
                mnm.run_access(&mut hier, Access::load(addr));
            }
        }
        println!("{:<14}{:>9.1}%", label, mnm.stats().coverage() * 100.0);
    }
    Ok(())
}

/// `jsn serve`: bind the replay service and block until SIGTERM/ctrl-c.
/// Flags are parsed strictly — an unknown or malformed option is a
/// startup error, never a silently-ignored one, and so is a malformed
/// JSN_FAULT environment value.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use just_say_no::mnm_serve::server::{Endpoint, Server, ServerConfig};
    use just_say_no::mnm_serve::signal;

    // Validate the fault-injection env up front: a bad plan must stop
    // the daemon at startup, not lurk until the first injected fault.
    if let Some(plan) = just_say_no::mnm_experiments::faults::FaultPlan::from_env()? {
        eprintln!("fault injection armed: {}", plan.summary());
        just_say_no::mnm_experiments::faults::install(Some(plan));
    }

    let mut endpoint = Endpoint::Tcp("127.0.0.1:7227".to_string());
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--listen" => endpoint = Endpoint::parse(value("--listen")?)?,
            "--max-sessions" => {
                config.max_sessions = parse_flag_num(value("--max-sessions")?, "--max-sessions")?;
                if config.max_sessions == 0 {
                    return Err("--max-sessions must be at least 1".to_string());
                }
            }
            "--queue" => {
                config.queue_frames = parse_flag_num(value("--queue")?, "--queue")?;
                if config.queue_frames == 0 {
                    return Err("--queue must be at least 1 frame".to_string());
                }
            }
            "--max-frame" => {
                config.max_frame_bytes =
                    parse_flag_num::<u32>(value("--max-frame")?, "--max-frame")?;
            }
            "--stall-ms" => {
                config.stall_timeout = std::time::Duration::from_millis(parse_flag_num(
                    value("--stall-ms")?,
                    "--stall-ms",
                )?);
            }
            "--idle-ms" => {
                config.idle_timeout = std::time::Duration::from_millis(parse_flag_num(
                    value("--idle-ms")?,
                    "--idle-ms",
                )?);
            }
            "--resume-window-ms" => {
                config.resume_window = std::time::Duration::from_millis(parse_flag_num(
                    value("--resume-window-ms")?,
                    "--resume-window-ms",
                )?);
            }
            "--max-parked" => {
                config.max_parked = parse_flag_num(value("--max-parked")?, "--max-parked")?;
            }
            "--shed-watermark" => {
                config.shed_watermark =
                    Some(parse_flag_num(value("--shed-watermark")?, "--shed-watermark")?);
            }
            "--retry-after-ms" => {
                config.retry_after_ms =
                    parse_flag_num(value("--retry-after-ms")?, "--retry-after-ms")?;
            }
            "--drain-ms" => {
                config.drain = std::time::Duration::from_millis(parse_flag_num(
                    value("--drain-ms")?,
                    "--drain-ms",
                )?);
            }
            "--snapshot" => {
                config.snapshot_path = Some(std::path::PathBuf::from(value("--snapshot")?))
            }
            other => return Err(format!("unknown serve option `{other}` (try `jsn help`)")),
        }
    }

    signal::install();
    let server = Server::bind(endpoint.clone(), config)
        .map_err(|e| format!("cannot bind {endpoint}: {e}"))?;
    eprintln!(
        "jsn serve: listening on {} (scrape GET /metrics; SIGTERM drains)",
        server.local_endpoint()
    );
    server.run().map_err(|e| format!("server error: {e}"))
}

/// `jsn slam`: load-generate against a running server. Exit 0 only when
/// every session completed, no frame went unacknowledged, and (with
/// --verify) the served verdict histogram matches the offline replay.
fn cmd_slam(args: &[String]) -> ExitCode {
    match run_slam_cli(args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("jsn: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_slam_cli(args: &[String]) -> Result<ExitCode, String> {
    use just_say_no::mnm_serve::server::Endpoint;
    use just_say_no::mnm_serve::slam::{format_report, run_slam, SlamOptions};

    let mut opts = SlamOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--connect" => opts.endpoint = Endpoint::parse(value("--connect")?)?,
            "--sessions" => opts.sessions = parse_flag_num(value("--sessions")?, "--sessions")?,
            "--records" => opts.records = parse_flag_num(value("--records")?, "--records")?,
            "--frame" => opts.frame_records = parse_flag_num(value("--frame")?, "--frame")?,
            "--config" => opts.config = value("--config")?.clone(),
            "--seed" => opts.seed = parse_seed(value("--seed")?)?,
            "--window" => opts.window = parse_flag_num(value("--window")?, "--window")?,
            "--retries" => opts.retries = parse_flag_num(value("--retries")?, "--retries")?,
            "--backoff-ms" => {
                opts.backoff_ms = parse_flag_num(value("--backoff-ms")?, "--backoff-ms")?;
            }
            "--metrics" => opts.metrics = Some(Endpoint::parse(value("--metrics")?)?),
            "--verify" => opts.verify = true,
            other => return Err(format!("unknown slam option `{other}` (try `jsn help`)")),
        }
    }

    let report = run_slam(&opts)?;
    print!("{}", format_report(&report));
    let verify_failed = report.verify.as_ref().is_some_and(|v| !v.mismatches.is_empty());
    let ok = report.sessions_failed == 0 && report.dropped_frames() == 0 && !verify_failed;
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `jsn chaos`: the deterministic network-fault proxy. Sits between
/// `jsn slam` and `jsn serve`; the plan comes from `--plan` or the
/// JSN_CHAOS env var (same strict grammar). With no plan it relays
/// clean — useful for measuring the proxy's own overhead.
fn cmd_chaos(args: &[String]) -> Result<(), String> {
    use just_say_no::mnm_serve::chaos::{ChaosOptions, ChaosPlan, ChaosProxy};
    use just_say_no::mnm_serve::server::Endpoint;
    use just_say_no::mnm_serve::signal;

    let mut listen = Endpoint::Tcp("127.0.0.1:7228".to_string());
    let mut upstream: Option<Endpoint> = None;
    let mut log_path: Option<std::path::PathBuf> = None;
    let mut plan_text: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--listen" => listen = Endpoint::parse(value("--listen")?)?,
            "--upstream" => upstream = Some(Endpoint::parse(value("--upstream")?)?),
            "--log" => log_path = Some(std::path::PathBuf::from(value("--log")?)),
            "--plan" => plan_text = Some(value("--plan")?.clone()),
            other => return Err(format!("unknown chaos option `{other}` (try `jsn help`)")),
        }
    }
    let upstream = upstream.ok_or("chaos needs `--upstream <endpoint>` (the real server)")?;
    let plan = match plan_text {
        Some(text) => ChaosPlan::parse(&text)?,
        None => ChaosPlan::from_env()?.unwrap_or(ChaosPlan::parse("")?),
    };

    signal::install();
    let proxy = ChaosProxy::bind(ChaosOptions {
        listen: listen.clone(),
        upstream,
        plan: plan.clone(),
        log_path,
    })
    .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let handle = proxy.handle();
    eprintln!("jsn chaos: listening on {} — {}", proxy.local_endpoint(), plan.summary());
    proxy.run().map_err(|e| format!("chaos proxy error: {e}"))?;
    eprintln!("jsn chaos: fired {} fault(s)", handle.fired().len());
    Ok(())
}

/// Strict numeric flag parsing: the whole value must parse.
fn parse_flag_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.replace('_', "").parse().map_err(|_| format!("{flag} {text}: expected an integer"))
}

fn cmd_shard(args: &[String]) -> ExitCode {
    match run_shard(args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("jsn: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// `jsn shard`: the epoch-synchronized N-core simulation.
fn run_shard(args: &[String]) -> Result<ExitCode, String> {
    use just_say_no::mnm_check::{
        run_multicore_scenario, run_multicore_suite, MulticoreScenario, ShardWorkload,
    };
    use just_say_no::mnm_core::MnmConfig;
    use just_say_no::mnm_shard::{
        autotune_epoch, sharded_streams, Engine, ShardConfig, ShardedSim,
    };
    use just_say_no::trace_synth::sharing::SharingSpec;

    let cores = parse_n(args, "--cores", 4)? as usize;
    if cores == 0 {
        return Err("--cores 0: need at least one core".to_owned());
    }
    // `--epoch` accepts a length or `auto` (calibrate before the run).
    let epoch_arg = parse_opt(args, "--epoch");
    let epoch_auto = epoch_arg == Some("auto");
    let epoch = match epoch_arg {
        None | Some("auto") => 2048,
        Some(text) => parse_flag_num(text, "--epoch")?,
    };
    if epoch == 0 {
        return Err("--epoch 0: an epoch needs at least one access".to_owned());
    }
    let sharing: f64 = match parse_opt(args, "--sharing") {
        Some(text) => text.parse().map_err(|_| format!("--sharing {text}: expected a ratio"))?,
        None => 0.25,
    };
    if !(0.0..=1.0).contains(&sharing) {
        return Err(format!("--sharing {sharing}: expected a ratio within [0, 1]"));
    }
    let label = parse_opt(args, "--config").unwrap_or("HMNM4");
    let seed = match parse_opt(args, "--seed") {
        Some(text) => parse_seed(text)?,
        None => 42,
    };
    let json = args.iter().any(|a| a == "--json");
    let single = args.iter().any(|a| a == "--single");
    let engine = if single { Engine::Single } else { Engine::Pipelined };

    if args.iter().any(|a| a == "--check") {
        if epoch_auto {
            return Err(
                "--epoch auto is not supported with --check (scenarios pin the epoch)".to_owned()
            );
        }
        // Replay mode (a failure's reproducer line) or the full sweep.
        let failures = if let Some(w) = parse_opt(args, "--workload") {
            let workload = ShardWorkload::parse(w).ok_or_else(|| {
                format!(
                    "unknown workload `{w}` (expected pingpong, falsesharing, evictionrace, \
                     or profile)"
                )
            })?;
            let scenario = MulticoreScenario {
                filter: label.to_owned(),
                workload,
                cores,
                sharing_ratio: sharing,
                seed,
                len: parse_n(args, "-n", 6_000)? as usize,
                epoch,
            };
            let report = run_multicore_scenario(&scenario)?;
            println!(
                "{}: {} accesses, {} invalidations, {} violation(s)",
                scenario.reproducer_line(),
                report.report.total_accesses(),
                report.report.cores.iter().map(|c| c.invalidations_received).sum::<u64>(),
                report.violations.len()
            );
            if report.passed() {
                Vec::new()
            } else {
                vec![report]
            }
        } else {
            let quick = args.iter().any(|a| a == "--quick");
            let (failures, total) = run_multicore_suite(quick)?;
            if failures.is_empty() {
                println!(
                    "shard check passed: {total} scenario(s) — every definite-miss verdict \
                     sound under cross-core stores, shared-L3 victims, and epoch-boundary races"
                );
            }
            failures
        };
        for failure in &failures {
            eprintln!("shard check FAILED: {}", failure.scenario.reproducer_line());
            for v in failure.violations.iter().take(5) {
                eprintln!("  {v}");
            }
        }
        return Ok(if failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }

    let n = parse_n(args, "-n", 200_000)? as usize;
    let mnm = MnmConfig::parse(label).map_err(|_| format!("unknown filter label '{label}'"))?;
    let mut config = ShardConfig::new(cores, mnm);
    config.epoch = epoch;
    let app = parse_opt(args, "--app").unwrap_or("181.mcf");
    let profile = lookup_app(app)?;
    let spec = SharingSpec {
        cores,
        sharing_ratio: sharing,
        shared_bytes: 256 * 1024,
        line_bytes: config.l3.block_bytes,
        seed,
    };
    let streams = sharded_streams(&profile, &spec, n, config.l1.block_bytes);
    if epoch_auto {
        // Calibrate, then run every engine with the chosen concrete epoch
        // (so `--epoch auto` preserves the engine-identity contract).
        let (chosen, points) = autotune_epoch(&config, &streams);
        config.epoch = chosen;
        eprintln!(
            "epoch auto: chose {chosen} ({})",
            points
                .iter()
                .map(|p| format!("{}:{:.2}", p.epoch, p.occupancy))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    let epoch = config.epoch;
    let report = ShardedSim::new(config, streams).run_engine(engine);
    if json {
        print!("{}", report.to_json(label, cores, epoch, sharing));
    } else {
        let l3 = &report.l3.structures[0];
        println!(
            "shard: {cores} cores x {n} accesses of {app} ({label}, sharing {sharing}, \
             epoch {epoch}, {} epochs run, {} engine)",
            report.epochs, report.timing.engine
        );
        let t = &report.timing;
        println!(
            "  timing: {:.1} ms wall, {:.1} ms compute, {:.1} ms resolve, {:.1} ms stall, \
             resolver occupancy {:.0}%",
            t.wall_nanos as f64 / 1e6,
            t.compute_nanos as f64 / 1e6,
            t.resolve_nanos as f64 / 1e6,
            t.stall_nanos as f64 / 1e6,
            100.0 * t.resolver_occupancy()
        );
        println!(
            "  shared L3: {} probes ({} hits, {} misses), {} bypassed, {} fills, \
             {} evictions, {} writebacks",
            l3.probes, l3.hits, l3.misses, l3.bypasses, l3.fills, l3.evictions, l3.writebacks
        );
        for (i, c) in report.cores.iter().enumerate() {
            println!(
                "  core {i}: {} accesses, {} cycles, L3 req {} (hit {}, miss {}, bypass {}, \
                 rescue {}), invalidations in {}, coverage {:.1}%",
                c.accesses,
                c.cycles,
                c.l3_requests,
                c.l3_hits,
                c.l3_misses,
                c.l3_bypasses,
                c.stale_bypass_rescues,
                c.invalidations_received,
                100.0 * c.mnm.coverage()
            );
        }
        let unsound = report.total_unsound();
        println!("  unsound verdicts: {unsound}");
        if unsound > 0 {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let app = args.first().ok_or("trace needs an application name")?;
    let profile = lookup_app(app)?;
    let n = parse_n(args, "-n", DEFAULT_INSTRUCTIONS)?;
    let path = parse_opt(args, "-o").ok_or("trace needs `-o <file>`")?;

    let instrs: Vec<Instr> = Program::new(profile.clone()).take(n as usize).collect();
    let stats = characterize(instrs.iter().copied());
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let written = write_trace(std::io::BufWriter::new(file), instrs).map_err(|e| e.to_string())?;
    println!(
        "wrote {written} instructions of {app} to {path} ({} KB data / {} KB code footprint)",
        stats.data_footprint_bytes() / 1024,
        stats.code_footprint_bytes() / 1024
    );
    Ok(())
}
