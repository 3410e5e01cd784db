//! End-to-end chaos soaks: `slam → chaos proxy → serve`, in process.
//!
//! Two properties are on trial:
//!
//! 1. **Exactly-once under faults** — whatever the proxy does to the
//!    bytes (corruption, duplicated writes, torn frames, connection
//!    resets, stalls), the slam run must complete with a served
//!    verdict histogram bit-identical to an offline replay of the same
//!    seeds: zero lost records, zero double-applied records.
//! 2. **Reproducibility** — the same chaos seed against the same
//!    workload fires the same fault sequence, byte for byte, so a
//!    failing soak can be replayed exactly.
//!
//! The `--verify` scrape goes directly to the server endpoint, not
//! through the proxy: the proof must not be garbled by the very faults
//! it is checking.

use mnm_serve::chaos::{ChaosOptions, ChaosPlan, ChaosProxy};
use mnm_serve::server::{Endpoint, Server, ServerConfig};
use mnm_serve::slam::{run_slam, SlamOptions, SlamReport};

/// Run one full soak: server + chaos proxy + slam, all in process,
/// allowing `retries` reconnects in a row without progress per session.
/// Returns the slam report and the proxy's sorted fired-fault log.
fn soak(
    plan: &str,
    sessions: usize,
    records: u64,
    seed: u64,
    retries: u32,
) -> (SlamReport, String) {
    let server =
        Server::bind(Endpoint::Tcp("127.0.0.1:0".to_string()), ServerConfig::default()).unwrap();
    let server_endpoint = server.local_endpoint();
    let server_handle = server.handle();
    let server_join = std::thread::spawn(move || server.run());

    let proxy = ChaosProxy::bind(ChaosOptions {
        listen: Endpoint::Tcp("127.0.0.1:0".to_string()),
        upstream: server_endpoint.clone(),
        plan: ChaosPlan::parse(plan).expect("plan parses"),
        log_path: None,
    })
    .unwrap();
    let proxy_endpoint = proxy.local_endpoint();
    let proxy_handle = proxy.handle();
    let proxy_join = std::thread::spawn(move || proxy.run());

    let opts = SlamOptions {
        endpoint: proxy_endpoint,
        metrics: Some(server_endpoint), // verify must bypass the chaos
        sessions,
        records,
        frame_records: 256,
        config: "HMNM4".to_string(),
        seed,
        window: 2,
        retries,
        backoff_ms: 2,
        verify: true,
    };
    let report = run_slam(&opts).expect("slam");

    proxy_handle.shutdown();
    proxy_join.join().unwrap().expect("proxy run");
    let log = proxy_handle.fired_log();
    server_handle.shutdown();
    server_join.join().unwrap().expect("server run");
    (report, log)
}

fn assert_soak_clean(report: &SlamReport, label: &str) {
    assert_eq!(report.sessions_failed, 0, "{label}: failures {:?}", report.failures);
    assert_eq!(report.dropped_frames(), 0, "{label}: dropped frames");
    let verify = report.verify.as_ref().expect("verify ran");
    assert!(verify.compared > 0, "{label}: nothing compared");
    assert!(
        verify.mismatches.is_empty(),
        "{label}: served verdicts diverged from offline replay: {:?}",
        verify.mismatches
    );
}

/// Non-terminal faults only (corruption, duplicated bytes, stalls):
/// the same seed must fire the identical fault sequence twice — and
/// both runs must still verify bit-identical to offline replay.
#[test]
fn same_seed_fires_the_same_fault_log_byte_for_byte() {
    let plan = "seed=3,corrupt=1/8,dup=1/16,delay=1/6:1";
    let (first, log_a) = soak(plan, 1, 2_000, 17, 20);
    let (second, log_b) = soak(plan, 1, 2_000, 17, 20);
    assert!(!log_a.is_empty(), "the corrupt-heavy plan fired nothing — inert soak");
    assert_eq!(log_a, log_b, "same seed, different fault sequence");
    assert_soak_clean(&first, "corrupt-heavy run 1");
    assert_soak_clean(&second, "corrupt-heavy run 2");
    // The corruption was not silently absorbed: the client had to
    // retry at least once.
    assert!(first.retries > 0, "faults fired but no retry was needed?");
}

/// Disconnect-heavy profile: torn frames and full connection resets.
/// Sessions must resume across the kills and still finish with the
/// offline-identical histogram.
#[test]
fn disconnect_heavy_soak_survives_with_exactly_once_verdicts() {
    let (report, log) = soak("seed=2,drop=1/8,tear=1/12", 4, 2_000, 29, 20);
    assert!(log.contains("kind=drop") || log.contains("kind=tear"), "no disconnects fired:\n{log}");
    assert_soak_clean(&report, "disconnect-heavy");
    assert!(report.resumes > 0, "connections were killed but nothing resumed");
}

/// `retries` bounds reconnects in a row that make no progress, not
/// reconnects in total. This single session (so its connections, and
/// the faults they draw, come in a fixed order) needs 13 reconnects
/// to finish its 8 frames, but never more than 4 in a row without a
/// newly acked frame; a budget of 6 must carry it through.
#[test]
fn retry_budget_resets_whenever_a_reconnect_makes_progress() {
    let retries = 6;
    let (report, log) = soak("seed=8,drop=1/8,tear=1/12", 1, 2_000, 29, retries);
    assert!(log.contains("kind=drop") || log.contains("kind=tear"), "no disconnects fired:\n{log}");
    assert_soak_clean(&report, "progress resets the budget");
    assert!(
        report.retries > u64::from(retries),
        "{} reconnects fit the budget of {retries} in total: the soak does not test resets",
        report.retries
    );
}

/// The mixed profile from CI: every fault kind at once.
#[test]
fn mixed_fault_soak_survives_with_exactly_once_verdicts() {
    let (report, log) =
        soak("seed=1,tear=1/24,corrupt=1/24,dup=1/32,delay=1/16:5,drop=1/64", 4, 2_000, 41, 20);
    assert!(!log.is_empty(), "mixed plan fired nothing — inert soak");
    assert_soak_clean(&report, "mixed");
}

/// An empty plan relays clean: no faults, no retries, no resumes —
/// the proxy itself must not perturb the protocol.
#[test]
fn empty_plan_relays_clean() {
    let (report, log) = soak("seed=9", 2, 1_000, 5, 20);
    assert!(log.is_empty(), "clean relay fired faults:\n{log}");
    assert_soak_clean(&report, "clean relay");
    assert_eq!(report.retries, 0);
    assert_eq!(report.resumes, 0);
}
