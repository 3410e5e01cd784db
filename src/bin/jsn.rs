//! `jsn` — command-line front end for the Just Say No reproduction.
//!
//! `jsn help` lists every subcommand with its flags, ranges and defaults.
//! It is generated from the flag tables in [`COMMANDS`], which also drive
//! the parsing: an unknown, valueless, malformed or out-of-range flag
//! exits 1 with `jsn: --flag VALUE: expected …`.

use std::fmt::Debug;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use just_say_no::mnm_check::{ShardWorkload, TraceGen};
use just_say_no::mnm_experiments::json::Json;
use just_say_no::mnm_experiments::metrics::diff_documents;
use just_say_no::mnm_experiments::runner::{run_app_functional, run_app_timed, AppRun};
use just_say_no::mnm_experiments::RunParams;
use just_say_no::mnm_serve::chaos::ChaosPlan;
use just_say_no::mnm_serve::protocol::MAX_FRAME_RECORDS;
use just_say_no::mnm_serve::server::Endpoint;
use just_say_no::prelude::*;
use trace_synth::{characterize, write_trace};

/// The reference stream `jsn run` and `jsn coverage` replay: the figures'
/// `FetchRule::Blocks` at the L1-I line size.
const STREAM: &str = "fetch-blocks";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("help", String::as_str);
    let result = match COMMANDS.iter().find(|c| c.usage.split(' ').next() == Some(name)) {
        Some(cmd) => cmd.parse(args.get(1..).unwrap_or(&[])).and_then(|a| (cmd.run)(&a)),
        None => Err(format!("unknown command `{name}` (try `jsn help`)")),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("jsn: {msg}");
        ExitCode::FAILURE
    })
}

/// One subcommand: its usage, help text, flag table and handler.
struct Command {
    /// The name, then the operands; a trailing `...]` takes any number.
    usage: &'static str,
    /// A one-line summary, then behaviour no single flag line explains.
    help: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<ExitCode, String>,
}

/// One row of a flag table.
struct Flag {
    /// The flag, or `", "`-separated spellings of it.
    name: &'static str,
    kind: Kind,
    /// Parsed as if given when the flag is absent; `""` for none.
    default: &'static str,
    help: &'static str,
}

const fn flag(name: &'static str, kind: Kind, default: &'static str, help: &'static str) -> Flag {
    Flag { name, kind, default, help }
}

/// How a flag's value is read and bounded.
#[derive(Clone, Copy)]
enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// An integer in `lo..=hi`: decimal or `0x` hex, `_` separators allowed.
    Int(u64, u64),
    /// [`Kind::Int`] or the word `auto`.
    IntOrAuto(u64, u64),
    /// A number in `[lo, hi]`.
    Real(f64, f64),
    /// Text, shown as the given metavariable, that the check accepts; the
    /// check says what it expected.
    Text(&'static str, fn(&str) -> Result<(), String>),
}

use Kind::{Int, IntOrAuto, Real, Switch, Text};

const MAX: u64 = u64::MAX;
/// The upper bound of a flag read as `u32`.
const U32_MAX: u64 = u32::MAX as u64;
const PRESET: Kind = Text("LABEL", |v| FilterPreset::parse(v).map(drop));
const MNM: Kind = Text("LABEL", |v| {
    MnmConfig::parse(v).map(drop).map_err(|e| format!("expected an MNM label ({e})"))
});
const ENDPOINT: Kind = Text("EP", |v| {
    Endpoint::parse(v).map(drop).map_err(|_| "expected <host>:<port> or unix:<path>".to_owned())
});
const APP: Kind = Text("APP", |v| lookup_app(v).map(drop));
const GEN: Kind = Text("GEN", |v| {
    TraceGen::parse(v).map(drop).ok_or("expected profile, aliasing, flush, or saturation".into())
});
const WORKLOAD: Kind = Text("W", |v| {
    let expected = "expected pingpong, falsesharing, evictionrace, or profile";
    ShardWorkload::parse(v).map(drop).ok_or(expected.into())
});
const PLAN: Kind = Text("PLAN", |v| {
    ChaosPlan::parse(v).map(drop).map_err(|e| format!("expected a chaos plan ({e})"))
});
const JOBS: Kind = Text("JOBS", |v| {
    let jobs = just_say_no::mnm_experiments::sweep::JOBS;
    match job_list(v).find(|n| !jobs.iter().any(|j| j.name == *n)) {
        Some(n) => Err(format!("expected names of run-all jobs (no job `{n}`)")),
        None if job_list(v).next().is_none() => Err("expected at least one job name".into()),
        None => Ok(()),
    }
});

const fn path(meta: &'static str) -> Kind {
    Text(meta, |_| Ok(()))
}

impl Kind {
    /// The value's metavariable: for a number, its range, left open when
    /// the upper bound is the value type's maximum.
    fn meta(self) -> String {
        match self {
            Switch => String::new(),
            Int(lo, MAX | U32_MAX) => format!("{lo}.."),
            Int(lo, hi) => format!("{lo}..={hi}"),
            IntOrAuto(lo, hi) => format!("{}|auto", Int(lo, hi).meta()),
            Real(lo, hi) => format!("[{lo}, {hi}]"),
            Text(meta, _) => meta.to_owned(),
        }
    }

    /// The value as the handlers read it (integers in decimal), or what
    /// was expected instead.
    fn parse(self, raw: &str) -> Result<String, String> {
        let digits = raw.replace('_', "");
        let n = match digits.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => digits.parse().ok(),
        };
        let parsed = match self {
            Switch => Some(String::new()),
            IntOrAuto(..) if raw == "auto" => Some(raw.to_owned()),
            Int(lo, hi) | IntOrAuto(lo, hi) => {
                n.filter(|n| (lo..=hi).contains(n)).map(|n| n.to_string())
            }
            Real(lo, hi) => {
                raw.parse().is_ok_and(|x| (lo..=hi).contains(&x)).then(|| raw.to_owned())
            }
            Text(_, check) => return check(raw).map(|()| raw.to_owned()),
        };
        let what = if matches!(self, Real(..)) { "a number" } else { "an integer" };
        parsed.ok_or_else(|| match self {
            // Past `u32::MAX` the open range alone would not say why.
            Int(lo, U32_MAX) => format!("expected {what} in {lo}..={U32_MAX}"),
            _ => format!("expected {what} in {}", self.meta()),
        })
    }
}

impl Flag {
    fn names(&self) -> impl Iterator<Item = &'static str> {
        self.name.split(", ")
    }
}

impl Command {
    /// Parse `args` against the table; when a flag repeats, the last wins.
    fn parse(&'static self, args: &[impl AsRef<str>]) -> Result<Args, String> {
        let mut values = vec![None; self.flags.len()];
        let mut operands = Vec::new();
        let mut it = args.iter().map(AsRef::as_ref);
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                operands.push(arg.to_owned());
                continue;
            }
            let Some(i) = self.flags.iter().position(|f| f.names().any(|n| n == arg)) else {
                let known = self.flags.iter().map(|f| f.name).collect::<Vec<_>>().join(", ");
                return Err(format!("{arg}: expected one of [{known}] (see `jsn help`)"));
            };
            let kind = self.flags[i].kind;
            values[i] = Some(match kind {
                Switch => String::new(),
                _ => {
                    let raw = it
                        .next()
                        .ok_or_else(|| format!("{arg}: expected a value ({})", kind.meta()))?;
                    kind.parse(raw).map_err(|why| format!("{arg} {raw}: {why}"))?
                }
            });
        }
        let extra = operands.get(self.usage.split(' ').count() - 1);
        if let Some(extra) = extra.filter(|_| !self.usage.ends_with("...]")) {
            return Err(format!("{extra}: expected no more than `jsn {}`", self.usage));
        }
        for (f, value) in self.flags.iter().zip(&mut values) {
            if value.is_none() && !f.default.is_empty() {
                *value = Some(f.kind.parse(f.default)?);
            }
        }
        Ok(Args { cmd: self, values, operands })
    }
}

/// One invocation's flag values, defaults filled in, and operands.
struct Args {
    cmd: &'static Command,
    values: Vec<Option<String>>,
    operands: Vec<String>,
}

impl Args {
    /// The value of flag `name`, given or defaulted, as the type its row
    /// checked it fits.
    fn opt<T: FromStr<Err: Debug>>(&self, name: &str) -> Option<T> {
        let row = self.cmd.flags.iter().position(|f| f.names().any(|n| n == name));
        let value = &self.values[row.unwrap_or_else(|| panic!("{name} is not in the table"))];
        value.as_ref().map(|v| v.parse().expect("the table checked the value"))
    }

    /// The value of a flag whose row has a default.
    fn get<T: FromStr<Err: Debug>>(&self, name: &str) -> T {
        self.opt(name).unwrap_or_else(|| panic!("{name} has no default"))
    }

    fn on(&self, name: &str) -> bool {
        self.opt::<String>(name).is_some()
    }

    /// The application the first operand names.
    fn app(&self) -> Result<(&str, AppProfile), String> {
        let app = self.operands.first().ok_or_else(|| format!("usage: jsn {}", self.cmd.usage))?;
        Ok((app, lookup_app(app)?))
    }
}

const COMMANDS: &[Command] = &[
    Command { usage: "apps", help: "list the bundled applications", flags: &[], run: cmd_apps },
    Command {
        usage: "run <app>",
        help: "simulate one application on the paper's five-level hierarchy\n\
               The figures' runner: fetch-block stream, JSN_WARMUP warm-up (none with\n\
               --cpu), -n measured instructions.\n\
               LABEL: baseline, perfect (any case), HMNM1..4, TMNM_<b>x<r>, CMNM_<k>_<m>,\n\
               RMNM_<blocks>_<assoc>, SMNM_<w>x<r> or BLOOM_<b>x<k>.",
        flags: &[
            flag("--config", PRESET, "HMNM4", "filter preset"),
            flag("-n", Int(1, MAX), "500000", "instructions measured after the warm-up"),
            flag("--cpu", Switch, "", "time the run on the 8-wide out-of-order core model"),
            flag("--json", Switch, "", "print a jsn-run/v1 document"),
        ],
        run: cmd_run,
    },
    Command {
        usage: "run-all",
        help: "regenerate every table and figure under supervision\n\
               Jobs retry on panic or deadline overrun and are journaled, so --resume\n\
               finishes a killed sweep with the identical manifest. JSN_WARMUP /\n\
               JSN_MEASURE set budgets, JSN_FAULT injects faults (EXPERIMENTS.md).\n\
               Exit 1: a job failed, artifacts still written; 2: configuration/IO error.",
        flags: &[
            flag("-o, --out", path("DIR"), "results", "output directory"),
            flag("--resume", path("DIR"), "", "continue the interrupted sweep in DIR"),
            flag("--deadline", Int(0, MAX), "", "wall-clock seconds per job attempt"),
            flag("--retries", Int(0, U32_MAX), "2", "retries after a job's first attempt"),
            flag("--only", JOBS, "", "comma-separated job names to run"),
            flag("-q, --quiet", Switch, "", "print no tables"),
        ],
        run: cmd_run_all,
    },
    Command {
        usage: "coverage <app> [LABEL...]",
        help: "per-configuration coverage for one application\n\
               The figures' runner at JSN_WARMUP / JSN_MEASURE, so a row equals the\n\
               figure's row at that budget.\n\
               Default labels: RMNM_4096_8 SMNM_20x3 TMNM_12x3 CMNM_8_12 HMNM4.",
        flags: &[],
        run: cmd_coverage,
    },
    Command {
        usage: "trace <app>",
        help: "persist a binary trace",
        flags: &[
            flag("-o", path("FILE"), "", "the trace file to write (required)"),
            flag("-n", Int(1, MAX), "500000", "instructions to write"),
        ],
        run: cmd_trace,
    },
    Command {
        usage: "diff <a.json> <b.json>",
        help: "compare two results artifacts cell by cell (exit 1 on divergence)",
        flags: &[flag("--tol", Real(0.0, f64::INFINITY), "1e-9", "absolute tolerance per cell")],
        run: cmd_diff,
    },
    Command {
        usage: "check",
        help: "differential soundness sweep against the perfect oracle and a reference\n\
               cache; a failure is shrunk and printed with its replay line. Under a\n\
               JSN_FAULT flip plan, check must report the corrupted filter's lie.",
        flags: &[
            flag("--seeds", Int(1, MAX), "8", "seeds per filter and generator"),
            flag("--len", Int(1, MAX), "4000", "operations per scenario"),
            flag("--filter", PRESET, "", "check only this filter"),
            flag("--gen", GEN, "", "check only this trace generator"),
            flag("--seed", Int(0, MAX), "", "replay one scenario (needs --filter and --gen)"),
            flag("--json", Switch, "", "print the report as JSON"),
            flag("-o", path("FILE"), "", "also write the JSON report to FILE"),
        ],
        run: cmd_check,
    },
    Command {
        usage: "shard",
        help: "epoch-synchronized N-core simulation over one shared L3\n\
               The pipelined engine and --single are bit-identical by contract;\n\
               `--epoch auto` fixes the epoch before the run so that holds. --check\n\
               re-verifies engine identity per scenario under a lockstep reference.",
        flags: &[
            flag("--app", APP, "181.mcf", "application"),
            flag("--cores", Int(1, MAX), "4", "cores, one host thread each"),
            flag("-n", Int(1, MAX), "", "accesses per core: 200000, or 6000 with --workload"),
            flag("--epoch", IntOrAuto(1, MAX), "2048", "accesses per epoch, or calibrate"),
            flag("--sharing", Real(0.0, 1.0), "0.25", "share of accesses to shared lines"),
            flag("--config", MNM, "HMNM4", "per-core MNM configuration"),
            flag("--seed", Int(0, MAX), "42", "sharing-stream seed"),
            flag("--single", Switch, "", "run the single-threaded reference engine"),
            flag("--json", Switch, "", "print the report, with per-phase timing, as JSON"),
            flag("--check", Switch, "", "run the multi-core soundness sweep instead"),
            flag("--quick", Switch, "", "with --check: the quick sweep"),
            flag("--workload", WORKLOAD, "", "with --check: replay one"),
        ],
        run: cmd_shard,
    },
    Command {
        usage: "serve",
        help: "trace-stream replay service; GET /metrics on the same endpoint\n\
               EP is <host>:<port> or unix:<path>. Protocol v2: frames are CRC32-checked\n\
               and at most 64 KiB; broken sessions park and resume exactly-once by\n\
               token; hellos at the shed watermark get STATUS_BUSY with a retry hint.\n\
               SIGTERM drains sessions and flushes a final snapshot.",
        flags: &[
            flag("--listen", ENDPOINT, "127.0.0.1:7227", "endpoint to bind"),
            flag("--max-sessions", Int(1, MAX), "64", "concurrent sessions; more get BUSY"),
            flag("--queue", Int(1, MAX), "32", "frames queued between reader and worker"),
            flag("--stall-ms", Int(0, MAX), "10000", "evict a peer stalled mid-frame"),
            flag("--idle-ms", Int(0, MAX), "30000", "evict a peer sending no frame"),
            flag("--resume-window-ms", Int(0, MAX), "60000", "how long a parked session lives"),
            flag("--max-parked", Int(0, MAX), "256", "parked sessions kept for resume"),
            flag("--shed-watermark", Int(0, MAX), "", "shed hellos at this queue depth"),
            flag("--retry-after-ms", Int(0, MAX), "200", "retry hint sent with BUSY"),
            flag("--drain-ms", Int(0, MAX), "5000", "how long shutdown waits for sessions"),
            flag("--snapshot", path("FILE"), "", "write the final metrics here"),
        ],
        run: cmd_serve,
    },
    Command {
        usage: "slam",
        help: "load-generate against a running server (exit 1 unless all completed)\n\
               Dead connections reconnect with jittered exponential backoff and resume\n\
               from the acked frame; progress resets the retry count.",
        flags: &[
            flag("--connect", ENDPOINT, "127.0.0.1:7227", "server endpoint"),
            flag("--sessions", Int(1, MAX), "32", "concurrent sessions"),
            flag("--records", Int(0, MAX), "50000", "trace records per session"),
            flag("--frame", Int(1, MAX_FRAME_RECORDS as u64), "1024", "records per frame"),
            flag("--config", PRESET, "HMNM4", "filter preset sent in each hello"),
            flag("--seed", Int(0, MAX), "42", "base seed of the session traces"),
            flag("--window", Int(1, MAX), "4", "unacknowledged frames in flight"),
            flag("--retries", Int(0, U32_MAX), "5", "fruitless reconnects in a row"),
            flag("--backoff-ms", Int(0, MAX), "50", "base reconnect backoff"),
            flag("--metrics", ENDPOINT, "", "scrape endpoint for --verify"),
            flag("--verify", Switch, "", "require verdicts bit-identical to offline replay"),
        ],
        run: cmd_slam,
    },
    Command {
        usage: "chaos",
        help: "deterministic fault proxy between slam and serve\n\
               The plan (or JSN_CHAOS) reads like JSN_FAULT, e.g.\n  \
               seed=42,tear=1/24,delay=1/16:5,drop=1/64,corrupt=1/24,dup=1/32\n\
               Faults fire at offsets the seed alone decides, so reruns repeat them.",
        flags: &[
            flag("--upstream", ENDPOINT, "", "the real server (required)"),
            flag("--listen", ENDPOINT, "127.0.0.1:7228", "endpoint to bind"),
            flag("--log", path("FILE"), "", "log every fired fault, sorted"),
            flag("--plan", PLAN, "", "fault plan (default $JSN_CHAOS)"),
        ],
        run: cmd_chaos,
    },
    Command { usage: "help", help: "this text", flags: &[], run: cmd_help },
];

fn job_list(v: &str) -> impl Iterator<Item = &str> {
    v.split(',').map(str::trim).filter(|s| !s.is_empty())
}

fn cmd_help(_: &Args) -> Result<ExitCode, String> {
    println!(
        "jsn — Just Say No (HPCA 2003) reproduction CLI\n\
         A bad flag exits 1 with `jsn: --flag VALUE: expected …`.\n\nUSAGE:"
    );
    for c in COMMANDS {
        let flags = if c.flags.is_empty() { "" } else { " [flags]" };
        println!("  jsn {}{flags}", c.usage);
        for line in c.help.lines() {
            println!("      {line}");
        }
        for f in c.flags {
            let synopsis = format!("{} {}", f.name, f.kind.meta());
            let default =
                Some(f.default).filter(|d| !d.is_empty()).map(|d| format!(" (default {d})"));
            println!("      {synopsis:<28}{}{}", f.help, default.unwrap_or_default());
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn lookup_app(name: &str) -> Result<AppProfile, String> {
    profiles::by_name(name)
        .ok_or_else(|| format!("unknown application `{name}` (expected one that `jsn apps` lists)"))
}

fn cmd_apps(_: &Args) -> Result<ExitCode, String> {
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
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(a: &Args) -> Result<ExitCode, String> {
    let (app, profile) = a.app()?;
    let (measure, timed) = (a.get("-n"), a.on("--cpu"));
    let preset = FilterPreset::parse(&a.get::<String>("--config"))?;
    let hier_cfg = HierarchyConfig::paper_five_level();
    let (run, warmup) = if timed {
        let params = RunParams { warmup: 0, measure };
        (run_app_timed(&profile, &hier_cfg, &CpuConfig::paper_eight_way(), &preset, params), 0)
    } else {
        let params = RunParams { warmup: RunParams::try_warmup_from_env()?, measure };
        (run_app_functional(&profile, &hier_cfg, &preset, params), params.warmup)
    };
    if a.on("--json") {
        print!("{}", run_json(&run, warmup, timed).render_pretty());
        return Ok(ExitCode::SUCCESS);
    }
    println!("app: {app}   config: {}   stream: {STREAM}   warm-up: {warmup}", run.config);
    let (cpu, st) = (&run.cpu, &run.hierarchy);
    if timed {
        println!(
            "instructions: {}   cycles: {}   IPC: {:.3}",
            cpu.instructions,
            cpu.cycles,
            cpu.ipc()
        );
        println!("loads: {}   mean load latency: {:.1} cycles", cpu.loads, cpu.mean_load_latency());
        println!("branches: {} ({} mispredicted)", cpu.branches, cpu.mispredicts);
    } else {
        println!("instructions: {measure}   accesses: {} ({} data)", st.accesses, st.data_accesses);
        println!("mean access time: {:.2} cycles", st.mean_access_time());
        println!("miss-time fraction: {:.1}%", st.miss_time_fraction() * 100.0);
    }
    if let Some(m) = &run.mnm {
        let bits: u64 = run.mnm_storage.iter().map(|c| c.bits).sum();
        let parts = run.mnm_storage.len();
        println!(
            "coverage: {:.1}%   MNM state: {bits} bits in {parts} components",
            m.coverage() * 100.0
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The `jsn run --json` document: one run's counters, schema
/// `jsn-run/v1`.
fn run_json(run: &AppRun, warmup: u64, timed: bool) -> Json {
    let st = &run.hierarchy;
    let structures = Json::Arr(
        (run.structure_names.iter().zip(&run.level_of_structure).zip(&st.structures))
            .map(|((name, &level), s)| {
                Json::obj(vec![
                    ("name", Json::str(name)),
                    ("level", Json::num(level as f64)),
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
        ("app", Json::str(&run.app)),
        ("config", Json::str(&run.config)),
        ("stream", Json::str(STREAM)),
        ("warmup", Json::num(warmup as f64)),
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
    if timed {
        let cpu = &run.cpu;
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
    if let Some(m) = &run.mnm {
        pairs.push((
            "mnm",
            Json::obj(vec![
                ("coverage", Json::num(m.coverage())),
                ("identified_misses", Json::num(m.identified_misses() as f64)),
                ("bypassable_misses", Json::num(m.bypassable_misses() as f64)),
                (
                    "storage_bits",
                    Json::num(run.mnm_storage.iter().map(|c| c.bits).sum::<u64>() as f64),
                ),
                ("components", Json::num(run.mnm_storage.len() as f64)),
            ]),
        ));
    }
    Json::obj(pairs)
}

/// `jsn diff a.json b.json [--tol X]`: per-cell comparison of two results
/// artifacts (run manifests or single-table documents). Exits 0 when they
/// agree within the tolerance, 1 when any cell or structure diverges.
fn cmd_diff(a: &Args) -> Result<ExitCode, String> {
    let tolerance: f64 = a.get("--tol");
    let [a_path, b_path] = &a.operands[..] else {
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
fn cmd_check(a: &Args) -> Result<ExitCode, String> {
    use just_say_no::mnm_check::{run_scenario, run_suite, Scenario, SuiteReport, DEFAULT_FILTERS};

    // A JSN_FAULT `flip` clause corrupts selected scenarios' filter state
    // mid-trace, which the checker must then catch.
    arm_faults()?;

    let len = a.get("--len");
    let filter_arg: Option<String> = a.opt("--filter");
    let gen_arg = a.opt::<String>("--gen").and_then(|g| TraceGen::parse(&g));

    let report = if let Some(seed) = a.opt("--seed") {
        // Replay mode: one fully-pinned scenario, as printed in a failure's
        // replay line.
        let filter = filter_arg.ok_or("replaying a seed needs --filter")?;
        let gen = gen_arg.ok_or("replaying a seed needs --gen")?;
        let scenario = Scenario { filter, gen, seed, len };
        SuiteReport { scenarios: vec![run_scenario(&scenario)?] }
    } else {
        let filters = filter_arg.as_deref().map_or(DEFAULT_FILTERS.to_vec(), |f| vec![f]);
        let gens = gen_arg.map_or(TraceGen::ALL.to_vec(), |g| vec![g]);
        run_suite(&filters, &gens, a.get("--seeds"), len)?
    };

    if let Some(path) = a.opt::<PathBuf>("-o") {
        just_say_no::mnm_experiments::fsio::write_artifact(
            &path,
            report.to_json().render_pretty().as_bytes(),
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if a.on("--json") {
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

/// `jsn run-all`: the supervised experiment sweep. Exit 0 on a clean sweep,
/// 1 when jobs failed, 2 when the sweep itself fails on configuration or IO.
fn cmd_run_all(a: &Args) -> Result<ExitCode, String> {
    use just_say_no::mnm_experiments::{params, supervisor::SupervisorConfig, sweep};

    let resume: Option<PathBuf> = a.opt("--resume");
    let out = resume.clone().unwrap_or_else(|| a.get("--out"));
    let supervisor = SupervisorConfig {
        deadline: a.opt("--deadline").map(Duration::from_secs),
        retries: a.get("--retries"),
        ..SupervisorConfig::default()
    };
    let only = a.opt::<String>("--only").map(|v| job_list(&v).map(str::to_owned).collect());
    let swept = arm_faults().and_then(|()| {
        sweep::run_cli(&sweep::SweepOptions {
            resume: resume.is_some(),
            threads: params::try_worker_threads()?,
            supervisor,
            only,
            quiet: a.on("--quiet"),
            ..sweep::SweepOptions::new(out, params::RunParams::try_from_env()?)
        })
    });
    Ok(match swept {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("jsn: {msg}");
            ExitCode::from(2)
        }
    })
}

fn cmd_coverage(a: &Args) -> Result<ExitCode, String> {
    let (app, profile) = a.app()?;
    let defaults = ["RMNM_4096_8", "SMNM_20x3", "TMNM_12x3", "CMNM_8_12", "HMNM4"];
    let labels: Vec<&str> = match &a.operands[1..] {
        [] => defaults.to_vec(),
        given => given.iter().map(String::as_str).collect(),
    };
    let params = RunParams::try_from_env()?;
    let hier_cfg = HierarchyConfig::paper_five_level();
    let (warmup, measure) = (params.warmup, params.measure);
    println!("app: {app}   stream: {STREAM}   warm-up: {warmup}   measured: {measure}");
    println!("{:<14}{:>10}", "config", "coverage");
    for label in labels {
        let config = MnmConfig::parse(label).map_err(|e| e.to_string())?;
        let run = run_app_functional(&profile, &hier_cfg, &FilterPreset::Mnm(config), params);
        let mnm = run.mnm.expect("an MNM preset builds an MNM filter");
        println!("{:<14}{:>9.1}%", label, mnm.coverage() * 100.0);
    }
    Ok(ExitCode::SUCCESS)
}

/// `jsn serve`: bind the replay service and block until SIGTERM/ctrl-c.
fn cmd_serve(a: &Args) -> Result<ExitCode, String> {
    use just_say_no::mnm_serve::{signal, Server, ServerConfig};

    arm_faults()?;
    let ms = |name| Duration::from_millis(a.get(name));
    let config = ServerConfig {
        max_sessions: a.get("--max-sessions"),
        queue_frames: a.get("--queue"),
        stall_timeout: ms("--stall-ms"),
        idle_timeout: ms("--idle-ms"),
        resume_window: ms("--resume-window-ms"),
        max_parked: a.get("--max-parked"),
        shed_watermark: a.opt("--shed-watermark"),
        retry_after_ms: a.get("--retry-after-ms"),
        drain: ms("--drain-ms"),
        snapshot_path: a.opt("--snapshot"),
    };
    let endpoint = Endpoint::parse(&a.get::<String>("--listen"))?;
    signal::install();
    let server = Server::bind(endpoint.clone(), config)
        .map_err(|e| format!("cannot bind {endpoint}: {e}"))?;
    eprintln!(
        "jsn serve: listening on {} (scrape GET /metrics; SIGTERM drains)",
        server.local_endpoint()
    );
    server.run().map_err(|e| format!("server error: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// Arm the JSN_FAULT plan, if one is set. A malformed plan stops the
/// command at startup, not at the first injected fault.
fn arm_faults() -> Result<(), String> {
    use just_say_no::mnm_experiments::faults;

    if let Some(plan) = faults::FaultPlan::from_env()? {
        eprintln!("fault injection armed: {}", plan.summary());
        faults::install(Some(plan));
    }
    Ok(())
}

/// `jsn slam`: load-generate against a running server. Exit 0 only when
/// every session completed, no frame went unacknowledged, and (with
/// --verify) the served verdict histogram matches the offline replay.
fn cmd_slam(a: &Args) -> Result<ExitCode, String> {
    use just_say_no::mnm_serve::slam::{format_report, run_slam, SlamOptions};

    let report = run_slam(&SlamOptions {
        endpoint: Endpoint::parse(&a.get::<String>("--connect"))?,
        sessions: a.get("--sessions"),
        records: a.get("--records"),
        frame_records: a.get("--frame"),
        config: a.get("--config"),
        seed: a.get("--seed"),
        window: a.get("--window"),
        retries: a.get("--retries"),
        backoff_ms: a.get("--backoff-ms"),
        verify: a.on("--verify"),
        metrics: a.opt::<String>("--metrics").map(|m| Endpoint::parse(&m)).transpose()?,
    })?;
    print!("{}", format_report(&report));
    let verify_failed = report.verify.as_ref().is_some_and(|v| !v.mismatches.is_empty());
    let ok = report.sessions_failed == 0 && report.dropped_frames() == 0 && !verify_failed;
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `jsn chaos`: the deterministic network-fault proxy. With no plan it
/// relays clean — useful for measuring the proxy's own overhead.
fn cmd_chaos(a: &Args) -> Result<ExitCode, String> {
    use just_say_no::mnm_serve::chaos::{ChaosOptions, ChaosProxy};
    use just_say_no::mnm_serve::signal;

    let listen = Endpoint::parse(&a.get::<String>("--listen"))?;
    let upstream: String =
        a.opt("--upstream").ok_or("chaos needs `--upstream <endpoint>` (the real server)")?;
    let plan = match a.opt::<String>("--plan") {
        Some(text) => ChaosPlan::parse(&text)?,
        None => ChaosPlan::from_env()?.unwrap_or(ChaosPlan::parse("")?),
    };

    signal::install();
    let proxy = ChaosProxy::bind(ChaosOptions {
        listen: listen.clone(),
        upstream: Endpoint::parse(&upstream)?,
        plan: plan.clone(),
        log_path: a.opt("--log"),
    })
    .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let handle = proxy.handle();
    eprintln!("jsn chaos: listening on {} — {}", proxy.local_endpoint(), plan.summary());
    proxy.run().map_err(|e| format!("chaos proxy error: {e}"))?;
    eprintln!("jsn chaos: fired {} fault(s)", handle.fired().len());
    Ok(ExitCode::SUCCESS)
}

/// `jsn shard`: the epoch-synchronized N-core simulation.
fn cmd_shard(a: &Args) -> Result<ExitCode, String> {
    use just_say_no::mnm_check::{run_multicore_scenario, run_multicore_suite, MulticoreScenario};
    use just_say_no::mnm_shard::{
        autotune_epoch, sharded_streams, Engine, ShardConfig, ShardedSim,
    };
    use just_say_no::trace_synth::sharing::SharingSpec;

    let cores = a.get("--cores");
    // `--epoch auto` (no number) calibrates the epoch before the run.
    let epoch: Option<usize> = a.get::<String>("--epoch").parse().ok();
    let sharing: f64 = a.get("--sharing");
    let label: String = a.get("--config");
    let seed = a.get("--seed");
    let engine = if a.on("--single") { Engine::Single } else { Engine::Pipelined };
    let n = |default| a.opt("-n").unwrap_or(default);

    if a.on("--check") {
        let epoch =
            epoch.ok_or("--epoch auto is not supported with --check (scenarios pin the epoch)")?;
        // Replay mode (a failure's reproducer line) or the full sweep.
        let failures = if let Some(w) = a.opt::<String>("--workload") {
            let scenario = MulticoreScenario {
                filter: label,
                workload: ShardWorkload::parse(&w).expect("the table checked --workload"),
                cores,
                sharing_ratio: sharing,
                seed,
                len: n(6_000),
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
            Vec::from_iter((!report.passed()).then_some(report))
        } else {
            let (failures, total) = run_multicore_suite(a.on("--quick"))?;
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

    let n = n(200_000);
    let mut config = ShardConfig::new(cores, MnmConfig::parse(&label).map_err(|e| e.to_string())?);
    let app: String = a.get("--app");
    let profile = lookup_app(&app)?;
    let spec = SharingSpec {
        cores,
        sharing_ratio: sharing,
        shared_bytes: 256 * 1024,
        line_bytes: config.l3.block_bytes,
        seed,
    };
    let streams = sharded_streams(&profile, &spec, n, config.l1.block_bytes);
    if let Some(epoch) = epoch {
        config.epoch = epoch;
    } else {
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
    let private = Hierarchy::new(config.private_hierarchy());
    let report = ShardedSim::new(config, streams).run_engine(engine);
    if a.on("--json") {
        print!("{}", report.to_json(&label, cores, epoch, sharing));
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
        println!("  unsound verdicts: {}", report.total_unsound());
    }
    // Either output mode fails on an unsound verdict, naming where it was.
    for (i, c) in report.cores.iter().enumerate() {
        if c.unsound_verdicts > 0 {
            eprintln!("jsn shard: core {i} shared L3: {} unsound verdicts", c.unsound_verdicts);
        }
        for s in private.structures() {
            let n = c.private.structures[s.id.index()].unsound_bypasses;
            if n > 0 {
                eprintln!("jsn shard: core {i} {}: {n} unsound bypasses", s.name);
            }
        }
    }
    Ok(if report.total_unsound() > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn cmd_trace(a: &Args) -> Result<ExitCode, String> {
    let (app, profile) = a.app()?;
    let path: String = a.opt("-o").ok_or("trace needs `-o <file>`")?;

    let instrs: Vec<Instr> = Program::new(profile).take(a.get("-n")).collect();
    let stats = characterize(instrs.iter().copied());
    let file = std::fs::File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let written = write_trace(std::io::BufWriter::new(file), instrs).map_err(|e| e.to_string())?;
    println!(
        "wrote {written} instructions of {app} to {path} ({} KB data / {} KB code footprint)",
        stats.data_footprint_bytes() / 1024,
        stats.code_footprint_bytes() / 1024
    );
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values each side of a kind's bounds: `(rejected, accepted)`.
    fn probes(kind: Kind) -> (Vec<String>, Vec<String>) {
        match kind {
            Switch => (vec![], vec![]),
            // Paths accept anything.
            Text(_, check) if check("%bogus%").is_ok() => (vec![], vec![]),
            Text(..) => (vec!["%bogus%".to_owned()], vec![]),
            Int(lo, hi) | IntOrAuto(lo, hi) => {
                let mut bad = vec!["x1".to_owned(), (u128::from(hi) + 1).to_string()];
                bad.extend(lo.checked_sub(1).map(|n| n.to_string()));
                (bad, vec![lo.to_string(), hi.to_string(), format!("{lo:#x}")])
            }
            Real(lo, hi) => {
                let mut bad = vec!["x".to_owned(), "NaN".to_owned(), (lo - 1.0).to_string()];
                bad.extend(hi.is_finite().then(|| (hi + 1.0).to_string()));
                (bad, vec![lo.to_string(), hi.to_string()])
            }
        }
    }

    /// Every row of every table: a missing value, a value that does not
    /// parse and each side of its range are rejected with a message naming
    /// the flag; the bounds themselves and every default parse.
    #[test]
    fn every_row_rejects_bad_values_naming_the_flag() {
        for cmd in COMMANDS {
            assert!(cmd.parse(&[""; 0]).is_ok(), "{} defaults", cmd.usage);
            let err = cmd.parse(&["--bogus"]).err().expect("unknown flag rejected");
            assert!(err.starts_with("--bogus: expected"), "{}: {err}", cmd.usage);
            for (f, name) in cmd.flags.iter().flat_map(|f| f.names().map(move |n| (f, n))) {
                let (bad, good) = probes(f.kind);
                for value in &good {
                    assert!(cmd.parse(&[name, value]).is_ok(), "{name} {value}");
                }
                let missing = (!matches!(f.kind, Switch)).then(|| vec![name]);
                for args in bad.iter().map(|v| vec![name, v]).chain(missing) {
                    let err = cmd.parse(&args).err().unwrap_or_else(|| panic!("{args:?} accepted"));
                    assert!(err.starts_with(name) && err.contains("expected"), "{args:?}: {err}");
                }
            }
        }
    }

    /// A bound at the value type's maximum reads as open in `jsn help`; a
    /// value past a `u32` flag's bound still names the exact range.
    #[test]
    fn type_maximum_bounds_print_open() {
        assert_eq!((Int(1, MAX).meta(), Int(0, U32_MAX).meta()), ("1..".into(), "0..".into()));
        assert_eq!(Int(1, 3276).meta(), "1..=3276");
        assert_eq!(Int(0, U32_MAX).parse("4294967295"), Ok("4294967295".to_owned()));
        let err = Int(0, U32_MAX).parse("4294967296").unwrap_err();
        assert_eq!(err, "expected an integer in 0..=4294967295");
    }

    #[test]
    fn a_repeated_flag_takes_its_last_value() {
        let run = &COMMANDS[1];
        let a = run.parse(&["164.gzip", "-n", "5", "-n", "1_000_000"]).unwrap();
        assert_eq!((run.usage, a.get::<u64>("-n")), ("run <app>", 1_000_000));
    }
}
