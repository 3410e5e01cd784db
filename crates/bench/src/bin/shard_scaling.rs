//! Multi-core scaling harness for the sharded simulation: sweeps core
//! counts, running each configuration through both engines — the
//! single-threaded reference and the pipelined engine — over identical
//! streams. Emits `BENCH_shard_scaling.json` and enforces the committed
//! floors in `shard_floors.json`.
//!
//! Two gates, in increasing host-sensitivity:
//!
//! 1. **Correctness** (always on): both reports must be bit-identical at
//!    every core count — the workspace's race-freedom proof — and no run
//!    may produce an unsound verdict.
//! 2. **Floors** (skipped when `JSN_BENCH_NO_FLOORS=1`): pipelined
//!    throughput and pipelined-over-single speedup must clear the
//!    committed per-core-count minimums, but only for configurations the
//!    host can actually run in parallel (simulated cores ≤ host cores).

use std::path::Path;
use std::time::Instant;

use mnm_core::MnmConfig;
use mnm_experiments::{fsio, json::Json};
use mnm_shard::{sharded_streams, Engine, ShardConfig, ShardedSim};
use trace_synth::{profiles, SharingSpec};

const PROFILE: &str = "181.mcf";
const FILTER: &str = "HMNM4";
const SHARING: f64 = 0.25;
const EPOCH: usize = 2048;

/// Committed per-core-count floors (see the `note` field inside).
const FLOORS: &str = include_str!("../../shard_floors.json");

fn accesses_per_core() -> usize {
    std::env::var("JSN_BENCH_N").ok().and_then(|v| v.parse().ok()).unwrap_or(200_000)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn build_sim(cores: usize, n: usize) -> ShardedSim {
    let profile = profiles::by_name(PROFILE).expect("profile");
    let config = ShardConfig {
        epoch: EPOCH,
        ..ShardConfig::new(cores, MnmConfig::parse(FILTER).expect("filter label"))
    };
    let spec = SharingSpec {
        sharing_ratio: SHARING,
        line_bytes: config.l3.block_bytes,
        seed: 42,
        ..SharingSpec::new(cores)
    };
    let streams = sharded_streams(&profile, &spec, n, config.l1.block_bytes);
    ShardedSim::new(config, streams)
}

struct Point {
    cores: usize,
    accesses: u64,
    single_nanos: u64,
    pipelined_nanos: u64,
    resolver_occupancy: f64,
    /// Whether the host could run this configuration truly in parallel
    /// (simulated cores ≤ host cores) — floors only apply when it could.
    parallel_capable: bool,
}

impl Point {
    fn maccs(&self, nanos: u64) -> f64 {
        self.accesses as f64 * 1e3 / nanos as f64
    }
    fn pipelined_speedup(&self) -> f64 {
        self.single_nanos as f64 / self.pipelined_nanos as f64
    }
    fn to_json(&self) -> Json {
        let round2 = |x: f64| (x * 100.0).round() / 100.0;
        Json::obj(vec![
            ("cores", Json::num(self.cores as f64)),
            ("accesses", Json::num(self.accesses as f64)),
            ("parallel_capable", Json::num(if self.parallel_capable { 1.0 } else { 0.0 })),
            ("single_nanos", Json::num(self.single_nanos as f64)),
            ("pipelined_nanos", Json::num(self.pipelined_nanos as f64)),
            ("single_maccs_per_sec", Json::num(round2(self.maccs(self.single_nanos)))),
            ("pipelined_maccs_per_sec", Json::num(round2(self.maccs(self.pipelined_nanos)))),
            ("pipelined_speedup", Json::num(round2(self.pipelined_speedup()))),
            ("resolver_occupancy", Json::num(round2(self.resolver_occupancy))),
        ])
    }
}

/// Check the floors for every parallel-capable point. Returns failure
/// messages (empty = pass).
fn check_floors(points: &[Point]) -> Vec<String> {
    let doc = Json::parse(FLOORS).expect("shard_floors.json must parse");
    let Some(floors) = doc.get("floors") else {
        return vec!["shard_floors.json has no `floors` object".to_owned()];
    };
    let mut failures = Vec::new();
    for p in points.iter().filter(|p| p.parallel_capable) {
        let Some(floor) = floors.get(&p.cores.to_string()) else {
            failures.push(format!("no committed floor for {} cores", p.cores));
            continue;
        };
        let maccs_min = floor.get("pipelined_maccs_min").and_then(Json::as_f64).unwrap_or(0.0);
        let speedup_min = floor.get("pipelined_speedup_min").and_then(Json::as_f64).unwrap_or(0.0);
        let maccs = p.maccs(p.pipelined_nanos);
        if maccs < maccs_min {
            failures.push(format!(
                "{} cores: pipelined {:.2} Maccs/s below floor {:.2}",
                p.cores, maccs, maccs_min
            ));
        }
        if p.pipelined_speedup() < speedup_min {
            failures.push(format!(
                "{} cores: pipelined speedup {:.2}x below floor {:.2}x",
                p.cores,
                p.pipelined_speedup(),
                speedup_min
            ));
        }
    }
    failures
}

fn main() {
    let n = accesses_per_core();
    let host = host_cores();
    // Record points up to at least 4 cores even on smaller hosts (the
    // committed artifact should show the sweep shape everywhere); floors
    // only gate the parallel-capable subset.
    let cap = host.max(4);
    let sweep: Vec<usize> = [1usize, 2, 4, 8, 16].into_iter().filter(|&c| c <= cap).collect();
    println!(
        "shard scaling: {PROFILE} / {FILTER}, sharing {SHARING}, epoch {EPOCH}, \
         {n} accesses/core, host has {host} cores"
    );

    let mut points = Vec::new();
    for &cores in &sweep {
        let run = |engine: Engine| {
            let mut sim = build_sim(cores, n);
            let t = Instant::now();
            let report = sim.run_engine(engine);
            (report, t.elapsed().as_nanos() as u64)
        };
        let (single, single_nanos) = run(Engine::Single);
        let (pipelined, pipelined_nanos) = run(Engine::Pipelined);

        assert_eq!(
            single, pipelined,
            "pipelined and single-threaded reports diverged at {cores} cores"
        );
        assert_eq!(pipelined.total_unsound(), 0, "unsound verdicts at {cores} cores");

        let point = Point {
            cores,
            accesses: pipelined.total_accesses(),
            single_nanos,
            pipelined_nanos,
            resolver_occupancy: pipelined.timing.resolver_occupancy(),
            parallel_capable: cores <= host,
        };
        println!(
            "  {:>2} cores: single {:>7.2} | pipelined {:>7.2} Maccs/s ({:.2}x, resolver \
             {:.0}%){}",
            cores,
            point.maccs(point.single_nanos),
            point.maccs(point.pipelined_nanos),
            point.pipelined_speedup(),
            100.0 * point.resolver_occupancy,
            if point.parallel_capable { "" } else { "  [host too small: floors skipped]" },
        );
        points.push(point);
    }

    let doc = Json::obj(vec![
        ("benchmark", Json::str("shard_scaling")),
        ("profile", Json::str(PROFILE)),
        ("filter", Json::str(FILTER)),
        ("epoch", Json::num(EPOCH as f64)),
        ("host_cores", Json::num(host as f64)),
        ("points", Json::Arr(points.iter().map(Point::to_json).collect())),
    ])
    .render_pretty();
    fsio::write_artifact(Path::new("BENCH_shard_scaling.json"), doc.as_bytes())
        .expect("write BENCH_shard_scaling.json");
    println!(
        "wrote BENCH_shard_scaling.json ({} configurations, all reports identical)",
        points.len()
    );

    if std::env::var_os("JSN_BENCH_NO_FLOORS").is_some() {
        println!("JSN_BENCH_NO_FLOORS set: skipping shard floor enforcement");
        return;
    }
    let failures = check_floors(&points);
    if failures.is_empty() {
        let enforced = points.iter().filter(|p| p.parallel_capable).count();
        println!("all {enforced} parallel-capable configuration(s) above their committed floors");
    } else {
        for f in &failures {
            eprintln!("shard floor FAILED: {f}");
        }
        std::process::exit(1);
    }
}
