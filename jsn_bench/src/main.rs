//! `jsn_bench`: run one benchmark workload, or compare report sets.
//!
//! ```text
//! jsn_bench --workload <name|all> [--seed N] [--trace [0|1]]
//! jsn_bench compare <A-reports...> -- <B-reports...>
//! ```
//!
//! A run measures for `run_seconds` of `BENCHMARK.json`. It prints every
//! metric as `name value unit`, then each check, then — as its last line
//! — one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! It writes a `jsn-bench/v1` report under `target/jsn-bench/` and exits
//! 1 if any check failed. `--workload all` runs each workload in a child
//! process of its own, so peak memory is measured per workload. `compare`
//! judges report sets under the bounds of `BENCHMARK.json`.

use std::path::Path;
use std::process::{Command, ExitCode};

use jsn_bench::report::{self, Provenance};
use jsn_bench::{Options, Sizes, Workload};

#[global_allocator]
static ALLOC: mnm_bench::CountingAlloc = mnm_bench::CountingAlloc;

const USAGE: &str = "usage: jsn_bench --workload <replay_resident|replay_memory|serve_loopback|shard_coherent|all> \
     [--seed N] [--trace [0|1]]\n       jsn_bench compare <A-reports...> -- <B-reports...>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare(&args[1..])
    } else {
        bench(&args)
    };
    result.unwrap_or_else(|e| {
        eprintln!("jsn_bench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// Parsed run arguments: the workload name (or `all`) and the options.
fn parse(args: &[String]) -> Result<(String, u64, bool), String> {
    let mut workload = None;
    let (mut seed, mut trace) = (1u64, false);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            // Benchmark runners pass `run_seconds` back; the run length is
            // fixed by BENCHMARK.json, so any other value is refused.
            "--seconds" => {
                let seconds: f64 =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds != jsn_bench::run_seconds() {
                    return Err(format!(
                        "--seconds must equal BENCHMARK.json's run_seconds ({})",
                        jsn_bench::run_seconds()
                    ));
                }
            }
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some(v @ ("0" | "1")) => {
                    trace = v == "1";
                    it.next();
                }
                _ => trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, seed, trace))
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let (name, seed, trace) = parse(args)?;
    if name == "all" {
        return all(seed, trace);
    }
    let workload = Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seconds = jsn_bench::run_seconds();
    let opts = Options { workload, seed, seconds, trace, sizes: Sizes::standard(workload) };
    let outcome = jsn_bench::run(&opts);
    let host = Provenance::collect();
    for m in outcome.metrics.iter().chain(&outcome.extras) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for c in &outcome.checks {
        println!("check {} {}: {}", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    match report::write(&outcome, &opts, &host) {
        Ok(path) => println!("report {}", path.display()),
        Err(e) => return Err(format!("writing the report: {e}")),
    }
    println!("{}", report::result_line(&outcome));
    Ok(if outcome.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Run every workload in its own child process.
fn all(seed: u64, trace: bool) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failed = Vec::new();
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        if !status.success() {
            failed.push(w.name());
        }
    }
    println!("all: {} workloads, {} failed {:?}", Workload::ALL.len(), failed.len(), failed);
    Ok(if failed.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut second = false;
    for arg in args {
        match arg.as_str() {
            "--" => second = true,
            path if second => b.push(Path::new(path)),
            path => a.push(Path::new(path)),
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err("compare needs reports on both sides of `--`".to_owned());
    }
    print!("{}", jsn_bench::compare::compare(&a, &b, &jsn_bench::benchmark())?);
    Ok(ExitCode::SUCCESS)
}
