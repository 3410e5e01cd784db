//! Integration tests for `jsn serve` protocol v2: CRC-framed wire
//! robustness (torn frames, bit corruption, oversize headers, version
//! mismatches in both directions), exactly-once session resume,
//! idle-deadline eviction, load shedding, and the end-to-end acceptance
//! run — 32 concurrent slam sessions with zero dropped frames and a
//! verdict histogram bit-identical to an offline replay.
//!
//! Every robustness case must end as a clean per-session outcome with
//! no leaked session slot: `sessions_active` returns to zero and the
//! gauge table empties.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use mnm_serve::protocol::{
    encode_frame, encode_hello, encode_records_payload, FrameType, SessionStatsWire, MAGIC,
    MAX_FRAME_RECORDS, STATUS_BUSY, STATUS_OK, STATUS_REJECTED, VERSION,
};
use mnm_serve::server::{Endpoint, Server, ServerConfig, ServerHandle};
use mnm_serve::slam::{run_slam, scrape_metrics, SlamOptions};

/// Start a server on an ephemeral TCP port; returns its handle, the
/// endpoint, and the join handle of the accept loop.
fn start_server(
    config: ServerConfig,
) -> (ServerHandle, Endpoint, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(Endpoint::Tcp("127.0.0.1:0".to_string()), config).expect("bind");
    let endpoint = server.local_endpoint();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (handle, endpoint, join)
}

fn tcp_connect(endpoint: &Endpoint) -> TcpStream {
    let Endpoint::Tcp(addr) = endpoint else { panic!("expected tcp endpoint") };
    let s = TcpStream::connect(addr.as_str()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// Read a v2 hello reply; returns (status, detail, token, last_acked).
/// The OK trailer (token, acked, crc) is only present when status is
/// OK.
fn read_hello_reply(s: &mut TcpStream) -> (u8, String, u64, u64) {
    let mut fixed = [0u8; 7];
    s.read_exact(&mut fixed).expect("hello reply");
    assert_eq!(&fixed[..4], &MAGIC, "reply magic");
    assert_eq!(u16::from_le_bytes([fixed[4], fixed[5]]), VERSION, "reply version");
    let status = fixed[6];
    let mut len = [0u8; 2];
    s.read_exact(&mut len).expect("detail len");
    let mut detail = vec![0u8; u16::from_le_bytes(len) as usize];
    s.read_exact(&mut detail).expect("detail");
    let (mut token, mut acked) = (0u64, 0u64);
    if status == STATUS_OK {
        let mut trailer = [0u8; 20];
        s.read_exact(&mut trailer).expect("ok trailer");
        token = u64::from_le_bytes(trailer[..8].try_into().unwrap());
        acked = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
        let mut whole = Vec::with_capacity(25);
        whole.extend_from_slice(&fixed);
        whole.extend_from_slice(&len);
        whole.extend_from_slice(&trailer[..16]);
        let crc = u32::from_le_bytes(trailer[16..].try_into().unwrap());
        assert_eq!(crc, trace_synth::crc32(&whole), "hello reply crc");
    }
    (status, String::from_utf8_lossy(&detail).to_string(), token, acked)
}

/// Read one CRC-framed server frame: (type byte, payload).
fn read_frame(s: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut header = [0u8; 9];
    s.read_exact(&mut header).expect("frame header");
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    let crc = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
    let mut payload = vec![0u8; len];
    s.read_exact(&mut payload).expect("frame payload");
    let mut c = trace_synth::Crc32::new();
    c.update(&header[..5]);
    c.update(&payload);
    assert_eq!(crc, c.finish(), "server frame crc");
    (header[0], payload)
}

fn test_instrs(n: usize) -> Vec<trace_synth::Instr> {
    use trace_synth::{Instr, InstrKind};
    (0..n)
        .map(|i| Instr {
            pc: 0x40_0000 + i as u64 * 4,
            kind: InstrKind::Load { addr: 0x1000_0000 + i as u64 * 64 },
            src1: 0,
            src2: 0,
        })
        .collect()
}

/// Encode one sequenced v2 records frame holding `n` loads.
fn records_frame(seq: u64, n: usize) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_records_payload(seq, &test_instrs(n), &mut payload);
    let mut frame = Vec::new();
    encode_frame(FrameType::Records, &payload, &mut frame);
    frame
}

fn finish_frame() -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame(FrameType::Finish, &[], &mut frame);
    frame
}

/// A Summary payload is `seq u64 | accesses u64 | ...`.
fn summary_parts(payload: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(payload[..8].try_into().unwrap()),
        u64::from_le_bytes(payload[8..16].try_into().unwrap()),
    )
}

/// Wait for the server to settle at zero active sessions.
fn wait_idle(handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.registry().sessions_active.load(Ordering::SeqCst) > 0 {
        assert!(Instant::now() < deadline, "sessions_active never returned to zero: leaked slot");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(handle.registry().gauge_count(), 0, "leaked session gauge");
}

fn counter(handle: &ServerHandle, which: &str) -> u64 {
    let page = handle.registry().render();
    mnm_serve::metrics::scrape_value(&page, which).unwrap_or_else(|| panic!("no metric {which}"))
}

#[test]
fn torn_frame_header_parks_the_session_for_resume() {
    let (handle, endpoint, join) = start_server(ServerConfig::default());
    {
        let mut s = tcp_connect(&endpoint);
        s.write_all(&encode_hello("baseline", 0)).unwrap();
        assert_eq!(read_hello_reply(&mut s).0, STATUS_OK);
        // Three bytes of a nine-byte frame header, then vanish.
        s.write_all(&[1u8, 0xFF, 0x00]).unwrap();
    }
    wait_idle(&handle);
    // Wire damage is retryable: the session parks instead of failing.
    assert_eq!(counter(&handle, "jsn_sessions_parked"), 1);
    assert_eq!(counter(&handle, "jsn_sessions_failed_total"), 0);
    assert_eq!(counter(&handle, "jsn_sessions_accepted_total"), 1);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn short_reads_are_reassembled() {
    let (handle, endpoint, join) = start_server(ServerConfig::default());
    let mut s = tcp_connect(&endpoint);
    s.write_all(&encode_hello("TMNM_12x1", 0)).unwrap();
    assert_eq!(read_hello_reply(&mut s).0, STATUS_OK);

    // Dribble a whole records frame one byte at a time.
    let frame = records_frame(1, 10);
    for &b in &frame {
        s.write_all(&[b]).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let (t, payload) = read_frame(&mut s);
    assert_eq!(
        t,
        FrameType::Summary as u8,
        "dribbled frame still replays: {:?}",
        String::from_utf8_lossy(&payload)
    );
    let (seq, accesses) = summary_parts(&payload);
    assert_eq!(seq, 1, "summary echoes the frame seq");
    assert_eq!(accesses, 10);

    // Clean finish.
    s.write_all(&finish_frame()).unwrap();
    let (t, _) = read_frame(&mut s);
    assert_eq!(t, FrameType::Stats as u8);
    drop(s);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_sessions_completed_total"), 1);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn oversize_frame_header_is_rejected_without_allocation() {
    let (handle, endpoint, join) = start_server(ServerConfig::default());
    let mut s = tcp_connect(&endpoint);
    s.write_all(&encode_hello("baseline", 0)).unwrap();
    assert_eq!(read_hello_reply(&mut s).0, STATUS_OK);
    // Declare a 2 GiB payload (the CRC field never gets a say: the
    // bound check fires on the header alone).
    s.write_all(&[FrameType::Records as u8]).unwrap();
    s.write_all(&0x8000_0000u32.to_le_bytes()).unwrap();
    s.write_all(&[0u8; 4]).unwrap();
    let (t, payload) = read_frame(&mut s);
    assert_eq!(t, FrameType::Error as u8);
    let msg = String::from_utf8_lossy(&payload).to_string();
    assert!(msg.contains("exceeds"), "error names the bound: {msg}");
    drop(s);
    wait_idle(&handle);
    assert!(counter(&handle, "jsn_protocol_errors_total") >= 1);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Satellite (b), server side: a v1 hello against this v2 server gets
/// a clean versioned rejection — not a hang, not a decode failure —
/// because the server checks the version before reading any
/// version-specific hello field (the v1 hello has no resume token and
/// must not be over-read).
#[test]
fn v1_hello_against_v2_server_is_rejected_cleanly() {
    let (handle, endpoint, join) = start_server(ServerConfig::default());
    let mut s = tcp_connect(&endpoint);
    let mut hello = Vec::new();
    hello.extend_from_slice(&MAGIC);
    hello.extend_from_slice(&1u16.to_le_bytes()); // protocol v1
    hello.extend_from_slice(&0u16.to_le_bytes()); // empty config
    s.write_all(&hello).unwrap();
    // No token follows — a v1 client wouldn't send one. The reply must
    // still arrive promptly.
    let (status, detail, _, _) = read_hello_reply(&mut s);
    assert_eq!(status, STATUS_REJECTED);
    assert!(detail.contains("version 1") && detail.contains(&VERSION.to_string()), "{detail}");
    drop(s);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_sessions_rejected_total"), 1);
    assert_eq!(counter(&handle, "jsn_sessions_accepted_total"), 0);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Satellite (b), client side: a v2 slam client against a v1 server
/// reports the version mismatch by name. The fake v1 server answers
/// every hello with a v1-versioned OK reply prefix, which the client
/// must recognize via the version-invariant reply prefix.
#[test]
fn v2_client_against_v1_server_names_the_mismatch() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        // Serve a few hellos (the client retries), then quit.
        for stream in listener.incoming().take(3) {
            let Ok(mut s) = stream else { break };
            let mut sink = [0u8; 256];
            let _ = s.read(&mut sink);
            let mut reply = Vec::new();
            reply.extend_from_slice(&MAGIC);
            reply.extend_from_slice(&1u16.to_le_bytes()); // v1 speaks back
            reply.push(STATUS_OK);
            reply.extend_from_slice(&0u16.to_le_bytes());
            let _ = s.write_all(&reply);
        }
    });

    let opts = SlamOptions {
        endpoint: Endpoint::Tcp(addr.to_string()),
        sessions: 1,
        records: 100,
        frame_records: 50,
        retries: 2,
        backoff_ms: 1,
        ..SlamOptions::default()
    };
    let report = run_slam(&opts).expect("slam runs");
    assert_eq!(report.sessions_failed, 1);
    let failure = &report.failures[0];
    assert!(
        failure.contains("protocol v1") && failure.contains(&format!("v{VERSION}")),
        "failure names both versions: {failure}"
    );
    server.join().unwrap();
}

#[test]
fn unknown_preset_is_rejected_with_help() {
    let (handle, endpoint, join) = start_server(ServerConfig::default());
    let mut s = tcp_connect(&endpoint);
    s.write_all(&encode_hello("MNMX_99", 0)).unwrap();
    let (status, detail, _, _) = read_hello_reply(&mut s);
    assert_eq!(status, STATUS_REJECTED);
    assert!(detail.contains("MNMX_99"), "{detail}");
    drop(s);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_sessions_rejected_total"), 1);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The resume round-trip, plus exactly-once replay accounting: a
/// session that dies mid-stream parks; reconnecting with its token
/// resumes at the server's acked frame; re-sending an already-applied
/// frame is re-acked from the summary ring without being re-fed.
#[test]
fn mid_session_disconnect_parks_and_resumes_exactly_once() {
    let (handle, endpoint, join) = start_server(ServerConfig::default());
    let token = {
        let mut s = tcp_connect(&endpoint);
        s.write_all(&encode_hello("HMNM4", 0)).unwrap();
        let (status, _, token, acked) = read_hello_reply(&mut s);
        assert_eq!(status, STATUS_OK);
        assert_ne!(token, 0, "server issues a resume token");
        assert_eq!(acked, 0);
        s.write_all(&records_frame(1, 100)).unwrap();
        let (t, payload) = read_frame(&mut s);
        assert_eq!(t, FrameType::Summary as u8);
        assert_eq!(summary_parts(&payload).1, 100);
        token
        // Drop without Finish.
    };
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_sessions_parked"), 1);
    assert_eq!(counter(&handle, "jsn_frames_in_total"), 1);

    // Reconnect with the token: the server reports frame 1 acked.
    let mut s = tcp_connect(&endpoint);
    s.write_all(&encode_hello("HMNM4", token)).unwrap();
    let (status, _, token2, acked) = read_hello_reply(&mut s);
    assert_eq!(status, STATUS_OK);
    assert_eq!(token2, token, "token survives the resume");
    assert_eq!(acked, 1, "server remembers the applied frame");

    // Replay frame 1 (as a client that missed the ack would): it must
    // be re-acked — summary seq echoes — without being re-fed.
    s.write_all(&records_frame(1, 100)).unwrap();
    let (t, payload) = read_frame(&mut s);
    assert_eq!(t, FrameType::Summary as u8);
    assert_eq!(summary_parts(&payload).0, 1);

    // New work, then finish.
    s.write_all(&records_frame(2, 50)).unwrap();
    let (t, payload) = read_frame(&mut s);
    assert_eq!(t, FrameType::Summary as u8);
    assert_eq!(summary_parts(&payload), (2, 50));
    s.write_all(&finish_frame()).unwrap();
    let (t, payload) = read_frame(&mut s);
    assert_eq!(t, FrameType::Stats as u8);
    let stats = SessionStatsWire::decode(&payload).expect("stats decode");
    assert_eq!(stats.frames, 2, "applied frames only — the replayed duplicate is not re-counted");
    assert_eq!(stats.accesses, 150, "100 + 50, exactly once");
    drop(s);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_sessions_resumed_total"), 1);
    assert_eq!(counter(&handle, "jsn_sessions_completed_total"), 1);
    assert_eq!(counter(&handle, "jsn_frames_replayed_total"), 1);
    assert_eq!(counter(&handle, "jsn_frames_applied_total"), 2);
    // Reconciliation invariant: nothing lost, nothing double-applied.
    assert_eq!(
        counter(&handle, "jsn_frames_in_total"),
        counter(&handle, "jsn_frames_applied_total")
            + counter(&handle, "jsn_frames_replayed_total")
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A frame whose bytes were damaged in flight fails its CRC: the
/// damage is counted, the session parks (wire damage is retryable, not
/// the client's fault), and a resume completes the session with
/// correct totals.
#[test]
fn crc_corruption_parks_and_resume_recovers() {
    let (handle, endpoint, join) = start_server(ServerConfig::default());
    let token = {
        let mut s = tcp_connect(&endpoint);
        s.write_all(&encode_hello("baseline", 0)).unwrap();
        let (status, _, token, _) = read_hello_reply(&mut s);
        assert_eq!(status, STATUS_OK);
        let mut frame = records_frame(1, 20);
        let last = frame.len() - 1;
        frame[last] ^= 0x40; // one flipped bit in the payload
        s.write_all(&frame).unwrap();
        let (t, payload) = read_frame(&mut s);
        assert_eq!(t, FrameType::Error as u8);
        assert!(String::from_utf8_lossy(&payload).contains("crc"));
        token
    };
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_crc_errors_total"), 1);
    assert_eq!(counter(&handle, "jsn_sessions_parked"), 1);
    assert_eq!(counter(&handle, "jsn_sessions_failed_total"), 0);

    let mut s = tcp_connect(&endpoint);
    s.write_all(&encode_hello("baseline", token)).unwrap();
    let (status, _, _, acked) = read_hello_reply(&mut s);
    assert_eq!(status, STATUS_OK);
    assert_eq!(acked, 0, "the corrupt frame was never applied");
    s.write_all(&records_frame(1, 20)).unwrap();
    let (t, _) = read_frame(&mut s);
    assert_eq!(t, FrameType::Summary as u8);
    s.write_all(&finish_frame()).unwrap();
    let (t, payload) = read_frame(&mut s);
    assert_eq!(t, FrameType::Stats as u8);
    assert_eq!(SessionStatsWire::decode(&payload).unwrap().accesses, 20);
    drop(s);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_sessions_completed_total"), 1);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn session_cap_rejects_with_busy_and_retry_hint() {
    let config = ServerConfig { max_sessions: 1, ..ServerConfig::default() };
    let (handle, endpoint, join) = start_server(config);

    let mut first = tcp_connect(&endpoint);
    first.write_all(&encode_hello("baseline", 0)).unwrap();
    assert_eq!(read_hello_reply(&mut first).0, STATUS_OK);

    let mut second = tcp_connect(&endpoint);
    second.write_all(&encode_hello("baseline", 0)).unwrap();
    let (status, detail, _, _) = read_hello_reply(&mut second);
    assert_eq!(status, STATUS_BUSY);
    assert!(detail.contains("1-session cap"), "{detail}");
    assert!(
        mnm_serve::protocol::parse_retry_after_ms(&detail).is_some(),
        "BUSY carries a retry-after hint: {detail}"
    );

    // The first session still works and finishes cleanly.
    first.write_all(&records_frame(1, 5)).unwrap();
    let (t, _) = read_frame(&mut first);
    assert_eq!(t, FrameType::Summary as u8);
    first.write_all(&finish_frame()).unwrap();
    let (t, _) = read_frame(&mut first);
    assert_eq!(t, FrameType::Stats as u8);
    drop(first);
    drop(second);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_sessions_rejected_total"), 1);
    assert_eq!(counter(&handle, "jsn_sessions_completed_total"), 1);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Load shedding: while the worker queue sits at or above the
/// watermark, new hellos get STATUS_BUSY with a retry-after hint and
/// the shed counter moves. (`Some(0)` sheds unconditionally.)
#[test]
fn shed_watermark_sheds_new_sessions_with_busy() {
    let config = ServerConfig { shed_watermark: Some(0), ..ServerConfig::default() };
    let (handle, endpoint, join) = start_server(config);
    let mut s = tcp_connect(&endpoint);
    s.write_all(&encode_hello("baseline", 0)).unwrap();
    let (status, detail, _, _) = read_hello_reply(&mut s);
    assert_eq!(status, STATUS_BUSY);
    assert!(detail.contains("shedding"), "{detail}");
    assert!(
        mnm_serve::protocol::parse_retry_after_ms(&detail).is_some(),
        "shed reply carries a retry-after hint: {detail}"
    );
    drop(s);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_sessions_shed_total"), 1);
    assert_eq!(counter(&handle, "jsn_sessions_accepted_total"), 0);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Satellite (c): a connected client that goes quiet past the idle
/// deadline is evicted — the slot frees, the eviction counter moves
/// exactly once, and the state does NOT park (an idle peer is
/// indistinguishable from a dead one).
#[test]
fn idle_client_is_evicted_exactly_once() {
    let config =
        ServerConfig { idle_timeout: Duration::from_millis(250), ..ServerConfig::default() };
    let (handle, endpoint, join) = start_server(config);
    let mut s = tcp_connect(&endpoint);
    s.write_all(&encode_hello("baseline", 0)).unwrap();
    assert_eq!(read_hello_reply(&mut s).0, STATUS_OK);
    // Say nothing. The server must hang up on its own.
    let (t, payload) = read_frame(&mut s);
    assert_eq!(t, FrameType::Error as u8);
    assert!(String::from_utf8_lossy(&payload).contains("idle"));
    drop(s);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_sessions_evicted_total"), 1, "evicted exactly once");
    assert_eq!(counter(&handle, "jsn_sessions_parked"), 0, "idle sessions do not park");
    assert_eq!(counter(&handle, "jsn_sessions_failed_total"), 0);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A mid-payload stall (frame started, then silence) still trips the
/// stall deadline, distinct from the idle one.
#[test]
fn mid_frame_stall_is_evicted() {
    let config =
        ServerConfig { stall_timeout: Duration::from_millis(250), ..ServerConfig::default() };
    let (handle, endpoint, join) = start_server(config);
    let mut s = tcp_connect(&endpoint);
    s.write_all(&encode_hello("baseline", 0)).unwrap();
    assert_eq!(read_hello_reply(&mut s).0, STATUS_OK);
    // Start a frame header, then stall forever.
    s.write_all(&[FrameType::Records as u8, 0x10]).unwrap();
    let (t, payload) = read_frame(&mut s);
    assert_eq!(t, FrameType::Error as u8);
    assert!(String::from_utf8_lossy(&payload).contains("stalled"));
    drop(s);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_sessions_evicted_total"), 1);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn http_scrape_serves_metrics_and_404s_elsewhere() {
    let (handle, endpoint, join) = start_server(ServerConfig::default());
    let page = scrape_metrics(&endpoint).expect("scrape");
    assert!(page.contains("jsn_sessions_accepted_total 0"));
    assert!(page.contains("jsn_request_latency_us_p99"));
    for gauge in [
        "jsn_queue_depth",
        "jsn_sessions_shed_total",
        "jsn_sessions_resumed_total",
        "jsn_crc_errors_total",
        "jsn_frames_applied_total",
        "jsn_frames_replayed_total",
    ] {
        assert!(page.contains(gauge), "metrics page exposes {gauge}");
    }

    let mut s = tcp_connect(&endpoint);
    s.write_all(b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 404"), "{response}");
    drop(s);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_scrapes_total"), 1);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The acceptance run: ≥ 32 concurrent sessions, zero dropped frames,
/// scraped verdict histogram bit-identical to the offline replay.
#[test]
fn slam_32_sessions_verdicts_bit_identical_to_offline() {
    let (handle, endpoint, join) = start_server(ServerConfig::default());
    let opts = SlamOptions {
        endpoint: endpoint.clone(),
        sessions: 32,
        records: 4_000,
        frame_records: 512,
        config: "HMNM4".to_string(),
        seed: 7,
        window: 4,
        verify: true,
        ..SlamOptions::default()
    };
    let report = run_slam(&opts).expect("slam");
    assert_eq!(report.sessions_failed, 0, "failures: {:?}", report.failures);
    assert_eq!(report.sessions_ok, 32);
    assert_eq!(report.dropped_frames(), 0, "dropped frames");
    assert_eq!(report.records_sent, 32 * 4_000);
    let verify = report.verify.as_ref().expect("verify ran");
    assert!(verify.compared > 0);
    assert!(verify.mismatches.is_empty(), "verdict mismatch: {:?}", verify.mismatches);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_sessions_completed_total"), 32);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The largest frame slam accepts is the largest the server's default
/// payload bound admits; one record more, or none, is an options error
/// rather than a session that fails on every reconnect.
#[test]
fn slam_frames_up_to_the_payload_bound_and_no_further() {
    let (handle, endpoint, join) = start_server(ServerConfig::default());
    let opts = SlamOptions {
        endpoint: endpoint.clone(),
        sessions: 1,
        records: 2 * MAX_FRAME_RECORDS as u64 + 5,
        frame_records: MAX_FRAME_RECORDS,
        config: "HMNM4".to_string(),
        seed: 3,
        verify: true,
        ..SlamOptions::default()
    };
    let report = run_slam(&opts).expect("slam");
    assert_eq!(report.sessions_failed, 0, "failures: {:?}", report.failures);
    assert_eq!(report.frames_acked, 3);
    assert_eq!(report.retries, 0);
    let verify = report.verify.as_ref().expect("verify ran");
    assert!(verify.mismatches.is_empty(), "verdict mismatch: {:?}", verify.mismatches);
    for frame_records in [0, MAX_FRAME_RECORDS + 1] {
        let err = run_slam(&SlamOptions { frame_records, ..opts.clone() }).unwrap_err();
        assert!(err.contains("--frame"), "{frame_records}: {err}");
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Unix-socket transport end to end, plus the shutdown snapshot flushed
/// through the atomic fsio writer.
#[test]
fn unix_socket_slam_and_shutdown_snapshot() {
    let dir = std::env::temp_dir().join(format!("jsn-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("jsn.sock");
    let snapshot = dir.join("metrics-final.txt");

    let config = ServerConfig { snapshot_path: Some(snapshot.clone()), ..ServerConfig::default() };
    let server = Server::bind(Endpoint::Unix(sock.clone()), config).expect("bind unix");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let opts = SlamOptions {
        endpoint: Endpoint::Unix(sock.clone()),
        sessions: 8,
        records: 2_000,
        frame_records: 256,
        config: "TMNM_12x1".to_string(),
        seed: 11,
        window: 2,
        verify: true,
        ..SlamOptions::default()
    };
    let report = run_slam(&opts).expect("slam over unix socket");
    assert_eq!(report.sessions_failed, 0, "failures: {:?}", report.failures);
    assert_eq!(report.dropped_frames(), 0);
    let verify = report.verify.as_ref().expect("verify ran");
    assert!(verify.mismatches.is_empty(), "verdict mismatch: {:?}", verify.mismatches);

    handle.shutdown();
    join.join().unwrap().unwrap();
    let page = std::fs::read_to_string(&snapshot).expect("snapshot flushed");
    assert!(page.contains("jsn_sessions_accepted_total 8"), "snapshot has final counters");
    assert!(!sock.exists(), "socket file cleaned up");
    let _ = std::fs::remove_dir_all(&dir);
}
