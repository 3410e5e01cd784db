//! Replay-throughput harness: drives synthetic access streams through the
//! hierarchy under one scenario per filter family, measuring accesses/sec
//! with `std::time::Instant` and heap allocations with the crate's
//! counting allocator. Emits `BENCH_replay.json`.
//!
//! The harness is the executable proof of the zero-allocation hot path
//! and the throughput regression gate: after warmup, **every** scenario —
//! including the perfect oracle — must perform zero heap allocations per
//! access, and each scenario must stay above its committed floor in
//! `floors.json` (set `JSN_BENCH_NO_FLOORS=1` to measure on hardware the
//! floors were not calibrated for). Violations exit non-zero so CI's
//! bench-smoke job fails.

use std::time::Instant;

use cache_sim::{Access, BatchSummary, Hierarchy, HierarchyConfig};
use mnm_bench::{allocations, render_report, ScenarioResult, LEGACY_ALLOCS_PER_ACCESS};
use mnm_core::{Mnm, MnmConfig, ReplayFilter};
use mnm_experiments::json::Json;
use mnm_experiments::runner::access;
use trace_synth::{profiles, FetchRule, Program, RefStream};

#[global_allocator]
static ALLOC: mnm_bench::CountingAlloc = mnm_bench::CountingAlloc;

const WARMUP: usize = 50_000;
const MEASURE: usize = 1_000_000;

/// Batch size for the chunked `run_many` scenario: big enough to amortize
/// the scratch swap, small enough to model a trace-reader refill loop.
const BATCH: usize = 4096;

/// Committed per-scenario throughput floors (accesses/sec), conservative
/// relative to the reference measurement so normal jitter never trips the
/// gate while a real regression (for example, reintroducing dynamic
/// dispatch or a per-access allocation) does.
const FLOORS: &str = include_str!("../../floors.json");

/// One Mnm-driven scenario per filter family: label in the report, MNM
/// configuration string.
const FAMILY_SCENARIOS: [(&str, &str); 7] = [
    ("session_rmnm", "RMNM_512_2"),
    ("session_smnm", "SMNM_13x2"),
    ("session_tmnm", "TMNM_12x3"),
    ("session_cmnm", "CMNM_8_12"),
    ("session_bloom", "BLOOM_12x2"),
    ("session_hmnm4", "HMNM4"),
    ("session_hmnm4_batched", "HMNM4"),
];

/// Materialize exactly `n` references of one profile by the figures'
/// [`FetchRule::Blocks`] rule at the paper hierarchy's L1-I line size, so
/// generation cost and its allocations stay outside the measured region.
fn materialize(profile_name: &str, n: usize) -> Vec<Access> {
    let profile = profiles::by_name(profile_name).expect("profile");
    let block_bytes = HierarchyConfig::paper_five_level().fetch_block_bytes();
    let refs = RefStream::new(Program::new(profile), FetchRule::Blocks { block_bytes });
    let out: Vec<Access> = refs.take(n).map(access).collect();
    assert_eq!(out.len(), n, "a synthetic program is endless");
    out
}

struct Measured {
    nanos: u64,
    allocs: u64,
}

/// Run `f` over the warmup slice, then time it over the measured slice,
/// returning wall time and allocation count attributable to the latter.
/// `f` receives a whole slice so batched drivers can chunk it themselves.
fn measure(mut f: impl FnMut(&[Access]), stream: &[Access]) -> Measured {
    f(&stream[..WARMUP]);
    let alloc_before = allocations();
    let t0 = Instant::now();
    f(&stream[WARMUP..]);
    let nanos = t0.elapsed().as_nanos() as u64;
    Measured { nanos, allocs: allocations() - alloc_before }
}

fn scenario(label: &str, stream: &[Access], f: impl FnMut(&[Access])) -> ScenarioResult {
    let m = measure(f, stream);
    let accesses = (stream.len() - WARMUP) as u64;
    if m.allocs != 0 {
        eprintln!("FATAL: scenario {label} allocated {} times in steady state", m.allocs);
        std::process::exit(1);
    }
    let r = ScenarioResult {
        label: label.to_owned(),
        accesses,
        nanos: m.nanos,
        allocations: m.allocs,
        allocations_avoided: accesses * LEGACY_ALLOCS_PER_ACCESS - m.allocs.min(accesses),
    };
    println!(
        "{:<22} {:>12.0} accesses/s   {:>6} allocs   {:>9} avoided",
        r.label,
        r.accesses_per_sec(),
        r.allocations,
        r.allocations_avoided
    );
    r
}

/// Check every result against the committed floors. Returns the failure
/// messages (empty = gate passed). A floor without a matching scenario is
/// itself a failure: renaming a scenario must not silently drop its gate.
fn floor_failures(results: &[ScenarioResult]) -> Vec<String> {
    let doc = Json::parse(FLOORS).expect("floors.json must parse");
    let Some(Json::Obj(floors)) = doc.get("floors").cloned() else {
        return vec!["floors.json has no `floors` object".to_owned()];
    };
    let mut failures = Vec::new();
    for (label, floor) in &floors {
        let floor = floor.as_f64().unwrap_or(f64::INFINITY);
        match results.iter().find(|r| r.label == *label) {
            None => failures.push(format!("floor `{label}` has no matching scenario")),
            Some(r) if r.accesses_per_sec() < floor => failures.push(format!(
                "{label}: {:.0} accesses/s is below the committed floor of {floor:.0}",
                r.accesses_per_sec()
            )),
            Some(_) => {}
        }
    }
    for r in results {
        if !floors.iter().any(|(label, _)| *label == r.label) {
            failures.push(format!("scenario `{}` has no committed floor", r.label));
        }
    }
    failures
}

fn main() {
    let stream = materialize("164.gzip", WARMUP + MEASURE);
    let mut results = Vec::new();

    // Baseline: the per-access protocol with no filter.
    {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        results.push(scenario("session_baseline", &stream, |s| {
            for &a in s {
                hier.step(&mut ReplayFilter::Baseline, a);
            }
        }));
    }

    // Internal-scratch convenience wrapper.
    {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let bypass = cache_sim::BypassSet::none();
        results.push(scenario("access_wrapper", &stream, |s| {
            for &a in s {
                hier.access(a, &bypass);
            }
        }));
    }

    // One full-protocol scenario per filter family (query + walk + event
    // feedback + coverage), plus the chunked batch entry point.
    for (label, config) in FAMILY_SCENARIOS {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut mnm = Mnm::new(&hier, MnmConfig::parse(config).expect("bench config"));
        if label.ends_with("_batched") {
            let mut total = BatchSummary::default();
            results.push(scenario(label, &stream, |s| {
                for chunk in s.chunks(BATCH) {
                    total.merge(mnm.run_many(&mut hier, chunk));
                }
            }));
        } else {
            results.push(scenario(label, &stream, |s| {
                for &a in s {
                    mnm.run_access(&mut hier, a);
                }
            }));
        }
    }

    // Perfect oracle: dry_run_bypass builds its verdict on the stack, so
    // the oracle is held to the same zero-allocation standard.
    {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        results.push(scenario("session_perfect", &stream, |s| {
            for &a in s {
                hier.step(&mut ReplayFilter::Perfect, a);
            }
        }));
    }

    if std::env::var_os("JSN_BENCH_NO_FLOORS").is_some() {
        println!("\nJSN_BENCH_NO_FLOORS set: skipping throughput floor enforcement");
    } else {
        let failures = floor_failures(&results);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FATAL: {f}");
            }
            std::process::exit(1);
        }
        println!("\nall {} scenarios above their committed floors", results.len());
    }

    let report = render_report(&results);
    // Atomic + retrying write: a crash mid-write (or an injected torn
    // write) must never leave a half-baked benchmark artifact behind.
    if let Err(e) = mnm_experiments::fsio::write_artifact(
        std::path::Path::new("BENCH_replay.json"),
        report.as_bytes(),
    ) {
        eprintln!("error: failed to write BENCH_replay.json: {e}");
        std::process::exit(1);
    }
    println!("wrote BENCH_replay.json");
}
