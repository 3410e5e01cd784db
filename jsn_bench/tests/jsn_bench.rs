//! Every workload, run through the library entry point with tiny sizes.
//!
//! Every test holds one lock for its whole body: the tests time work and
//! count the process's heap allocations, so a test running beside
//! another would see the other's time and allocations.

use std::sync::{Mutex, MutexGuard};

use cache_sim::{Hierarchy, HierarchyConfig};
use jsn_bench::ledger::{Ledger, SAMPLE_EVERY, SPAN_CAPACITY};
use jsn_bench::{run, AccessSource, Metric, Options, Outcome, Sizes, Workload};
use mnm_core::{Mnm, MnmConfig};
use mnm_experiments::json::Json;

#[global_allocator]
static ALLOC: mnm_bench::CountingAlloc = mnm_bench::CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tiny(workload: Workload, seed: u64, trace: bool, seconds: f64) -> Outcome {
    run(&Options { workload, seed, seconds, trace, sizes: Sizes::tiny() })
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let bench = jsn_bench::benchmark();
    let mut out: Vec<(String, String)> = bench
        .get(section)
        .and_then(Json::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    let mut out: Vec<_> = metrics.iter().map(|m| (m.name.clone(), m.unit.to_owned())).collect();
    out.sort();
    out
}

fn failed_checks(o: &Outcome) -> Vec<String> {
    o.checks.iter().filter(|c| !c.ok).map(|c| format!("{}: {}", c.name, c.detail)).collect()
}

/// Failed checks other than the ledger reconciliations, which need
/// longer runs than the name-and-unit test makes.
fn failed_outputs(o: &Outcome) -> Vec<String> {
    o.checks
        .iter()
        .filter(|c| !c.ok && !c.name.ends_with("reconciles"))
        .map(|c| format!("{}: {}", c.name, c.detail))
        .collect()
}

#[test]
fn every_listed_metric_is_emitted_with_its_unit() {
    let _serial = serial();
    let workloads: Vec<String> = jsn_bench::benchmark()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_owned())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_owned()));
    for w in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let o = tiny(w, 2, trace, 0.3);
            assert_eq!(emitted(&o.metrics), listed(section), "{} trace={trace}", w.name());
            assert!(
                failed_outputs(&o).is_empty(),
                "{} trace={trace}: {:?}",
                w.name(),
                failed_outputs(&o)
            );
            assert_eq!(o.failed, 0, "{} trace={trace}", w.name());
            assert!(o.attempted > 0);
            assert!(o.metrics.iter().all(|m| m.value.is_finite()), "{}: {:?}", w.name(), o.metrics);
        }
    }
}

/// The simulated count metrics (they land in `extras` of untraced runs).
fn sim_metrics(o: &Outcome) -> Vec<(String, f64)> {
    let names = ["cache_sim.", "core.coverage", "core.flag_rate", "core.updates_per_access"];
    o.extras
        .iter()
        .filter(|m| {
            names.iter().any(|n| m.name.starts_with(n)) && !m.name.ends_with("ns_per_access")
        })
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

#[test]
fn simulated_metrics_repeat_for_a_seed_and_change_with_it() {
    let _serial = serial();
    for w in Workload::ALL {
        let a = sim_metrics(&tiny(w, 3, false, 0.1));
        let b = sim_metrics(&tiny(w, 3, false, 0.1));
        let c = sim_metrics(&tiny(w, 4, false, 0.1));
        assert_eq!(a.len(), 7, "{}: {a:?}", w.name());
        assert_eq!(a, b, "{}: same seed, different simulation", w.name());
        assert_ne!(a, c, "{}: another seed, same simulation", w.name());
    }
}

/// The ledger is checked at the standard sizes, where its caches and
/// filters are as warm as in the benchmark. It times real work on a
/// shared host, whose speed can halve for seconds at a time, so a ledger
/// must add up in one of three runs.
#[test]
fn ledgers_reconcile() {
    let _serial = serial();
    for w in Workload::ALL {
        let expected = match w {
            Workload::ServeLoopback | Workload::ShardCoherent => 2,
            _ => 1,
        };
        let mut failures = Vec::new();
        for _ in 0..3 {
            let o = run(&Options {
                workload: w,
                seed: 5,
                seconds: 1.0,
                trace: true,
                sizes: Sizes::standard(w),
            });
            assert!(failed_outputs(&o).is_empty(), "{}: {:?}", w.name(), failed_outputs(&o));
            let reconciles = o.checks.iter().filter(|c| c.name.ends_with("reconciles")).count();
            assert_eq!(reconciles, expected, "{}", w.name());
            if o.correct() {
                break;
            }
            failures.push(failed_checks(&o));
        }
        assert!(failures.len() < 3, "{}: {failures:?}", w.name());
    }
}

#[test]
fn span_buffer_never_reallocates() {
    let _serial = serial();
    let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
    let mut mnm = Mnm::new(&hier, MnmConfig::parse("HMNM4").expect("label"));
    let profile = jsn_bench::seeded_profile("164.gzip", 6);
    let mut source = AccessSource::new(profile);
    let slice_len = 1 << 16;
    let mut slice = Vec::with_capacity(slice_len);
    let mut ledger = Ledger::new(1024);
    let (ptr, cap) = (ledger.spans().spans().as_ptr(), ledger.spans().capacity());
    // Enough sampled accesses to fill the buffer (4 spans each) and more.
    let needed = (SPAN_CAPACITY as u64 / 4 + 100) * SAMPLE_EVERY;
    let mut driven = 0;
    while driven < needed {
        source.fill(&mut slice, slice_len);
        assert_eq!(slice.capacity(), slice_len, "the access buffer grew");
        ledger.traced(&mut mnm, &mut hier, &slice);
        driven += slice_len as u64;
    }
    assert_eq!(ledger.spans().spans().as_ptr(), ptr, "span buffer moved");
    assert_eq!(ledger.spans().capacity(), cap, "span buffer grew");
    assert_eq!(ledger.spans().spans().len(), SPAN_CAPACITY);
    assert!(ledger.spans().dropped() > 0);
    assert_eq!(ledger.allocations(), 0, "the traced hot path allocated");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let _serial = serial();
    let other_length = (jsn_bench::run_seconds() + 1.0).to_string();
    for args in [
        ["--workload", "no_such_workload", "--seed", "1"],
        ["--workload", "replay_resident", "--seconds", &other_length],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_jsn_bench"))
            .args(args)
            .output()
            .expect("run jsn_bench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "printed a result: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
