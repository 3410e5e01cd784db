//! `jsn slam`: a load generator for `jsn serve`.
//!
//! Spawns N concurrent client sessions, each streaming a deterministic
//! synthetic-profile trace (derived from `--seed`, so any run can be
//! reproduced offline), and reports sessions/sec, per-frame round-trip
//! p50/p99 and dropped-frame counts.
//!
//! ## Retry and resume
//!
//! Each session survives connection loss: on a retryable failure —
//! reset, torn frame, a CRC mismatch in either direction, a
//! `STATUS_BUSY` shed — the client reconnects with its session token,
//! learns the server's `last_acked` sequence number from the hello
//! reply, and re-sends **only** the frames after it from its replay
//! buffer (the deterministic trace itself, so the buffer costs
//! nothing). `retries` bounds the reconnects *in a row* that make no
//! progress: an attempt that advances the server's ack watermark
//! resets the count and the exponential backoff, so a long session on
//! a lossy wire is not failed for faults it keeps surviving. Backoff
//! carries deterministic jitter derived from the slam seed and honors
//! any `retry_after_ms=` hint the server attached to a BUSY reply.
//!
//! With `--verify`, after the slam finishes the server's `/metrics`
//! page is scraped and its global verdict histogram compared against an
//! offline replay of the exact same sessions through the same
//! [`SessionCore`] — the counts must match **bit for bit**, proving the
//! service path is the replay path *even across faults*: a chaos soak
//! that loses or duplicates a single frame's worth of verdicts fails
//! this check. The scrape can be pointed at a separate `metrics`
//! endpoint so verification bypasses a chaos proxy sitting on the data
//! path.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use trace_synth::rng::splitmix64;
use trace_synth::{profiles, Instr, Program};

use crate::protocol::{
    decode_summary, encode_frame, encode_hello, encode_records_payload, parse_frame_header,
    parse_retry_after_ms, verify_frame_crc, FrameType, SessionStatsWire, FRAME_HEADER_BYTES, MAGIC,
    MAX_FRAME_BYTES, MAX_FRAME_RECORDS, STATUS_BUSY, STATUS_OK, VERSION,
};
use crate::server::{Conn, Endpoint};
use crate::session::SessionCore;

/// How long a slam client waits on a single read before giving up.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Backoff is capped here no matter the attempt count.
const MAX_BACKOFF: Duration = Duration::from_secs(5);

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct SlamOptions {
    /// Server endpoint.
    pub endpoint: Endpoint,
    /// Concurrent sessions to run.
    pub sessions: usize,
    /// Trace records per session.
    pub records: u64,
    /// Records per `Records` frame.
    pub frame_records: usize,
    /// Filter preset label sent in each hello.
    pub config: String,
    /// Base seed; session `k` derives its profile and trace from it.
    pub seed: u64,
    /// Outstanding unacknowledged frames per session (pipelining).
    pub window: usize,
    /// Reconnect attempts in a row, per session, that may end without
    /// a newly acknowledged frame; any progress resets the count.
    pub retries: u32,
    /// Base backoff between attempts; doubles per attempt without
    /// progress, jittered.
    pub backoff_ms: u64,
    /// Scrape `/metrics` afterwards and compare with an offline replay.
    pub verify: bool,
    /// Scrape endpoint for `--verify`; defaults to `endpoint`. Point it
    /// at the server directly when the data path runs through `jsn
    /// chaos`.
    pub metrics: Option<Endpoint>,
}

impl Default for SlamOptions {
    fn default() -> Self {
        SlamOptions {
            endpoint: Endpoint::Tcp("127.0.0.1:7227".to_string()),
            sessions: 32,
            records: 50_000,
            frame_records: 1024,
            config: "HMNM4".to_string(),
            seed: 42,
            window: 4,
            retries: 5,
            backoff_ms: 50,
            verify: false,
            metrics: None,
        }
    }
}

/// Outcome of a verification pass.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Per-structure/per-verdict mismatches, empty on success.
    pub mismatches: Vec<String>,
    /// Counters compared.
    pub compared: usize,
}

/// Aggregate slam results.
#[derive(Debug, Clone, Default)]
pub struct SlamReport {
    /// Sessions that ran to a clean `Stats` frame.
    pub sessions_ok: u64,
    /// Sessions that errored (with the first few reasons).
    pub sessions_failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// `Records` frames sent across all sessions (re-sends included).
    pub frames_sent: u64,
    /// Distinct frames confirmed applied — by a summary, or by the
    /// server's resume watermark when the summary itself was lost to a
    /// disconnect.
    pub frames_acked: u64,
    /// Trace records streamed (first sends only).
    pub records_sent: u64,
    /// Cache accesses acknowledged by the server.
    pub accesses_acked: u64,
    /// Reconnect attempts made after retryable failures.
    pub retries: u64,
    /// Successful session resumes (reconnect accepted with a token).
    pub resumes: u64,
    /// Frames re-sent during resume replays.
    pub frames_resent: u64,
    /// Wall-clock duration of the slam.
    pub elapsed: Duration,
    /// Median per-frame round trip (µs).
    pub p50_us: u64,
    /// 99th-percentile per-frame round trip (µs).
    pub p99_us: u64,
    /// Completed sessions per wall-clock second.
    pub sessions_per_sec: f64,
    /// Verification outcome, when requested.
    pub verify: Option<VerifyReport>,
}

impl SlamReport {
    /// Distinct frames sent but never confirmed applied. Re-sends of
    /// the same frame during resume replays count once: `frames_sent -
    /// frames_resent` is the number of first transmissions, and each
    /// is acked exactly once (by summary or resume watermark).
    pub fn dropped_frames(&self) -> u64 {
        self.frames_sent.saturating_sub(self.frames_resent).saturating_sub(self.frames_acked)
    }
}

/// The deterministic trace for slam session `k`: one of the 20
/// synthetic SPEC2000-like profiles, reseeded per session.
pub fn session_instrs(base_seed: u64, k: usize, records: u64) -> Vec<Instr> {
    let all = profiles::all();
    let pick = (splitmix64(base_seed.wrapping_add(k as u64)) % all.len() as u64) as usize;
    let mut profile = all.into_iter().nth(pick).unwrap();
    profile.seed = splitmix64(base_seed ^ (k as u64).wrapping_mul(0x5851_F42D_4C95_7F2D));
    Program::new(profile).take(records as usize).collect()
}

fn connect(endpoint: &Endpoint) -> Result<Conn, String> {
    let conn = endpoint.connect().map_err(|e| format!("connect {endpoint}: {e}"))?;
    conn.set_timeouts(CLIENT_READ_TIMEOUT).map_err(|e| e.to_string())?;
    Ok(conn)
}

/// A client-side failure, tagged with whether reconnect-and-resume can
/// fix it.
#[derive(Debug)]
struct ClientError {
    msg: String,
    retryable: bool,
    /// Server-suggested wait before the next attempt (BUSY replies).
    retry_after_ms: Option<u64>,
}

impl ClientError {
    fn fatal(msg: impl Into<String>) -> ClientError {
        ClientError { msg: msg.into(), retryable: false, retry_after_ms: None }
    }

    fn retryable(msg: impl Into<String>) -> ClientError {
        ClientError { msg: msg.into(), retryable: true, retry_after_ms: None }
    }
}

fn read_exact_client(conn: &mut Conn, buf: &mut [u8]) -> Result<(), ClientError> {
    // Any socket-level read failure is wire trouble: reconnectable.
    conn.read_exact(buf).map_err(|e| ClientError::retryable(format!("read: {e}")))
}

/// Read the server's hello reply; `Ok` carries `(token, last_acked)`.
///
/// Every failure here is retryable: a rejected or garbled hello means
/// the server created **no** session state (slots and state are only
/// committed after an OK reply goes out), so reconnecting and saying
/// hello again can never double-apply anything — and on a chaotic wire
/// a "rejection" is as likely a corrupted hello as a real refusal. A
/// genuinely fatal condition (bad preset, version mismatch) simply
/// keeps failing until the retry budget runs out, with the server's
/// reason in the final error.
fn read_hello_reply(conn: &mut Conn) -> Result<(u64, u64), ClientError> {
    let mut fixed = [0u8; 7];
    read_exact_client(conn, &mut fixed)?;
    if fixed[..4] != MAGIC {
        return Err(ClientError::retryable(format!(
            "hello reply has bad magic {:02x?}",
            &fixed[..4]
        )));
    }
    let version = u16::from_le_bytes([fixed[4], fixed[5]]);
    let status = fixed[6];
    let mut len = [0u8; 2];
    read_exact_client(conn, &mut len)?;
    let mut detail = vec![0u8; u16::from_le_bytes(len) as usize];
    read_exact_client(conn, &mut detail)?;
    let detail = String::from_utf8_lossy(&detail).into_owned();
    if version != VERSION {
        // The reply prefix is version-invariant, so this decodes
        // cleanly into a named mismatch instead of shearing.
        return Err(ClientError::retryable(format!(
            "server speaks protocol v{version}, this client speaks v{VERSION}: {detail}"
        )));
    }
    match status {
        STATUS_OK => {
            // The OK trailer carries the rewind point; verify its CRC
            // before trusting it — resuming from a corrupted
            // `last_acked` would silently skip or replay frames.
            let mut trailer = [0u8; 20];
            read_exact_client(conn, &mut trailer)?;
            let mut whole = Vec::with_capacity(25);
            whole.extend_from_slice(&fixed);
            whole.extend_from_slice(&len);
            whole.extend_from_slice(&trailer[..16]);
            let wire_crc = u32::from_le_bytes(trailer[16..].try_into().unwrap());
            if trace_synth::crc32(&whole) != wire_crc {
                return Err(ClientError::retryable("hello reply failed its crc".to_string()));
            }
            let token = u64::from_le_bytes(trailer[..8].try_into().unwrap());
            let last_acked = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
            Ok((token, last_acked))
        }
        STATUS_BUSY => Err(ClientError {
            msg: format!("server busy: {detail}"),
            retryable: true,
            retry_after_ms: parse_retry_after_ms(&detail),
        }),
        _ => Err(ClientError::retryable(format!("session refused (status {status}): {detail}"))),
    }
}

/// Read one server frame, verifying its CRC — a corrupted
/// server-to-client frame must trigger reconnect, not a garbage decode.
/// Server frames are far below [`MAX_FRAME_BYTES`] (a `Summary` is 48
/// bytes, `Stats` and `Error` a few hundred), so a longer declared
/// length is corruption and fails before anything is allocated.
fn read_server_frame(conn: &mut Conn) -> Result<(FrameType, Vec<u8>), ClientError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    read_exact_client(conn, &mut header)?;
    let parsed = parse_frame_header(&header, MAX_FRAME_BYTES)
        .map_err(|e| ClientError::retryable(e.to_string()))?;
    let mut payload = vec![0u8; parsed.payload_len as usize];
    read_exact_client(conn, &mut payload)?;
    verify_frame_crc(&parsed, &payload).map_err(|e| ClientError::retryable(e.to_string()))?;
    Ok((parsed.frame_type, payload))
}

#[derive(Default)]
struct SessionResult {
    frames_sent: u64,
    frames_acked: u64,
    records_sent: u64,
    accesses_acked: u64,
    retries: u64,
    resumes: u64,
    frames_resent: u64,
    latencies_us: Vec<u64>,
    error: Option<String>,
}

/// Persistent client-side session state across connection attempts.
struct ClientSession<'a> {
    chunks: Vec<&'a [Instr]>,
    config: &'a str,
    window: usize,
    /// Server-issued session token (0 until the first accepted hello).
    token: u64,
    /// Highest sequence number the server has acknowledged.
    acked: u64,
    /// Highest sequence number ever sent (for re-send accounting).
    max_sent: u64,
}

/// One connection attempt: hello (possibly resuming), stream every
/// unacked frame, finish, validate stats.
fn run_attempt(
    sess: &mut ClientSession<'_>,
    endpoint: &Endpoint,
    result: &mut SessionResult,
) -> Result<(), ClientError> {
    let mut conn = connect(endpoint).map_err(ClientError::retryable)?;
    let resuming = sess.token != 0;
    conn.write_all(&encode_hello(sess.config, sess.token))
        .map_err(|e| ClientError::retryable(format!("hello: {e}")))?;
    let (token, last_acked) = read_hello_reply(&mut conn)?;
    sess.token = token;
    // The server's ack watermark is authoritative: anything at or below
    // it was applied exactly once; everything after must be (re)sent.
    // A watermark ahead of what we saw acked means those summaries were
    // lost to the disconnect — credit them now, or they would read as
    // dropped frames.
    if last_acked > sess.acked {
        result.frames_acked += last_acked - sess.acked;
    }
    sess.acked = last_acked;
    if resuming {
        result.resumes += 1;
    }

    let total = sess.chunks.len() as u64;
    let window = sess.window.max(1);
    let mut in_flight: std::collections::VecDeque<(u64, Instant)> =
        std::collections::VecDeque::new();
    let mut payload = Vec::new();
    let mut frame = Vec::new();

    let ack = |conn: &mut Conn,
               sess: &mut ClientSession<'_>,
               in_flight: &mut std::collections::VecDeque<(u64, Instant)>,
               result: &mut SessionResult|
     -> Result<(), ClientError> {
        loop {
            let (frame_type, payload) = read_server_frame(conn)?;
            match frame_type {
                FrameType::Summary => {
                    let (seq, vals) =
                        decode_summary(&payload).map_err(|e| ClientError::fatal(e.to_string()))?;
                    // A duplicated Records frame on a chaotic wire
                    // earns two summaries; anything at or below the
                    // ack watermark is the stale echo — skip it.
                    if seq <= sess.acked {
                        continue;
                    }
                    let Some((want, t0)) = in_flight.pop_front() else {
                        return Err(ClientError::fatal(format!(
                            "unsolicited summary for seq {seq}"
                        )));
                    };
                    if seq != want {
                        return Err(ClientError::fatal(format!(
                            "summary for seq {seq}, expected {want}"
                        )));
                    }
                    sess.acked = seq;
                    result.accesses_acked += vals[0];
                    result.frames_acked += 1;
                    result.latencies_us.push(t0.elapsed().as_micros() as u64);
                    return Ok(());
                }
                FrameType::Error => {
                    // The server names its reason; whether a resume
                    // can help is decided by the reconnect hello (a
                    // parked session resumes, an evicted or failed one
                    // is rejected), so classify optimistically here.
                    return Err(ClientError::retryable(format!(
                        "server error: {}",
                        String::from_utf8_lossy(&payload)
                    )));
                }
                other => {
                    return Err(ClientError::fatal(format!(
                        "unexpected {other:?} frame while awaiting a summary"
                    )));
                }
            }
        }
    };

    for seq in (sess.acked + 1)..=total {
        let chunk = sess.chunks[(seq - 1) as usize];
        payload.clear();
        encode_records_payload(seq, chunk, &mut payload);
        frame.clear();
        encode_frame(FrameType::Records, &payload, &mut frame);
        conn.write_all(&frame).map_err(|e| ClientError::retryable(format!("send frame: {e}")))?;
        result.frames_sent += 1;
        if seq <= sess.max_sent {
            result.frames_resent += 1;
        } else {
            sess.max_sent = seq;
            result.records_sent += chunk.len() as u64;
        }
        in_flight.push_back((seq, Instant::now()));
        while in_flight.len() >= window {
            ack(&mut conn, sess, &mut in_flight, result)?;
        }
    }
    while !in_flight.is_empty() {
        ack(&mut conn, sess, &mut in_flight, result)?;
    }

    frame.clear();
    encode_frame(FrameType::Finish, &[], &mut frame);
    conn.write_all(&frame).map_err(|e| ClientError::retryable(format!("send finish: {e}")))?;
    loop {
        let (frame_type, stats_payload) = read_server_frame(&mut conn)?;
        match frame_type {
            FrameType::Summary => {
                // A stale duplicate summary straggling in before the
                // stats frame; ignore it.
                continue;
            }
            FrameType::Stats => {
                let stats = SessionStatsWire::decode(&stats_payload)
                    .map_err(|e| ClientError::fatal(e.to_string()))?;
                if stats.frames != total {
                    return Err(ClientError::fatal(format!(
                        "server applied {} frames, session has {total}",
                        stats.frames
                    )));
                }
                // Summaries that covered resumed frames are advisory;
                // the final stats frame is the authoritative access
                // count.
                result.accesses_acked = stats.accesses;
                return Ok(());
            }
            FrameType::Error => {
                return Err(ClientError::retryable(format!(
                    "server error at finish: {}",
                    String::from_utf8_lossy(&stats_payload)
                )));
            }
            other => {
                return Err(ClientError::fatal(format!("unexpected {other:?} frame at finish")));
            }
        }
    }
}

/// Exponential backoff with deterministic jitter: attempt `a` waits
/// `backoff_ms × 2^a` plus up to half that again, seeded so reruns
/// reproduce the exact schedule.
fn backoff_delay(backoff_ms: u64, attempt: u32, jitter_seed: u64) -> Duration {
    let base = backoff_ms.max(1).saturating_mul(1u64 << attempt.min(16));
    let jitter = splitmix64(jitter_seed ^ u64::from(attempt)) % (base / 2 + 1);
    Duration::from_millis(base + jitter).min(MAX_BACKOFF)
}

/// Run one client session end to end: stream `instrs` in frames with a
/// pipelining window, reconnecting and resuming across retryable
/// failures, finishing with a validated `Stats` frame.
#[allow(clippy::too_many_arguments)]
fn run_client_session(
    endpoint: &Endpoint,
    config: &str,
    instrs: &[Instr],
    frame_records: usize,
    window: usize,
    retries: u32,
    backoff_ms: u64,
    jitter_seed: u64,
) -> SessionResult {
    let mut result = SessionResult::default();
    let mut sess = ClientSession {
        chunks: instrs.chunks(frame_records).collect(),
        config,
        window,
        token: 0,
        acked: 0,
        max_sent: 0,
    };
    // `attempt` counts reconnects in a row that made no progress: an
    // attempt that advanced the ack watermark past its best so far
    // resets it (and the backoff exponent). Each reset needs a newly
    // acked frame, so a session still ends after at most
    // `(frames + 1) × (retries + 1)` attempts.
    let mut attempt = 0u32;
    let mut best_acked = 0u64;
    loop {
        let outcome = run_attempt(&mut sess, endpoint, &mut result);
        if sess.acked > best_acked {
            best_acked = sess.acked;
            attempt = 0;
        }
        match outcome {
            Ok(()) => break,
            Err(e) if e.retryable && attempt < retries => {
                result.retries += 1;
                let delay = e
                    .retry_after_ms
                    .map(Duration::from_millis)
                    .unwrap_or_else(|| backoff_delay(backoff_ms, attempt, jitter_seed));
                std::thread::sleep(delay);
                attempt += 1;
            }
            Err(e) => {
                result.error = Some(if e.retryable {
                    format!(
                        "{} (after {} retries, {attempt} in a row without progress)",
                        e.msg, result.retries
                    )
                } else {
                    e.msg
                });
                break;
            }
        }
    }
    result
}

/// Scrape the server's `/metrics` page; returns the body.
pub fn scrape_metrics(endpoint: &Endpoint) -> Result<String, String> {
    let mut conn = connect(endpoint)?;
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").map_err(|e| format!("scrape: {e}"))?;
    let mut response = String::new();
    conn.read_to_string(&mut response).map_err(|e| format!("scrape read: {e}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or_else(|| "scrape response has no body".to_string())?;
    if !response.starts_with("HTTP/1.0 200") {
        return Err(format!("scrape failed: {}", response.lines().next().unwrap_or("")));
    }
    Ok(body)
}

/// Parse all `jsn_verdict_total` counters out of a metrics page into
/// `(structure, verdict) → count`.
pub fn parse_verdicts(page: &str) -> BTreeMap<(String, String), u64> {
    let mut out = BTreeMap::new();
    for line in page.lines() {
        let Some(rest) = line.strip_prefix("jsn_verdict_total{") else { continue };
        let Some((labels, value)) = rest.split_once("} ") else { continue };
        let mut structure = None;
        let mut verdict = None;
        for part in labels.split(',') {
            if let Some(v) = part.strip_prefix("structure=\"") {
                structure = Some(v.trim_end_matches('"').to_string());
            } else if let Some(v) = part.strip_prefix("verdict=\"") {
                verdict = Some(v.trim_end_matches('"').to_string());
            }
        }
        if let (Some(s), Some(v), Ok(n)) = (structure, verdict, value.trim().parse::<u64>()) {
            out.insert((s, v), n);
        }
    }
    out
}

/// Replay the slam's sessions offline and return the expected global
/// verdict histogram, `(structure, verdict) → count`.
pub fn offline_verdicts(opts: &SlamOptions) -> Result<BTreeMap<(String, String), u64>, String> {
    let mut expected: BTreeMap<(String, String), u64> = BTreeMap::new();
    for k in 0..opts.sessions {
        let mut core = SessionCore::new(&opts.config)?;
        let instrs = session_instrs(opts.seed, k, opts.records);
        for chunk in instrs.chunks(opts.frame_records.max(1)) {
            core.feed(chunk);
        }
        for v in core.verdicts() {
            *expected.entry((v.name.clone(), "hit".to_string())).or_default() += v.hits;
            *expected.entry((v.name.clone(), "maybe_miss".to_string())).or_default() +=
                v.maybe_misses;
            *expected.entry((v.name.clone(), "definite_miss".to_string())).or_default() +=
                v.definite_misses;
        }
    }
    Ok(expected)
}

/// Compare a scraped page against the offline replay.
pub fn verify_against_offline(opts: &SlamOptions, page: &str) -> VerifyReport {
    let scraped = parse_verdicts(page);
    let expected = match offline_verdicts(opts) {
        Ok(e) => e,
        Err(e) => {
            return VerifyReport {
                mismatches: vec![format!("offline replay failed: {e}")],
                compared: 0,
            };
        }
    };
    let mut report = VerifyReport::default();
    for (key, want) in &expected {
        let got = scraped.get(key).copied().unwrap_or(0);
        report.compared += 1;
        if got != *want {
            report.mismatches.push(format!(
                "{}/{}: server counted {got}, offline replay expects {want}",
                key.0, key.1
            ));
        }
    }
    report
}

/// Run the load generator.
pub fn run_slam(opts: &SlamOptions) -> Result<SlamReport, String> {
    if opts.sessions == 0 {
        return Err("need at least one session".to_string());
    }
    if !(1..=MAX_FRAME_RECORDS).contains(&opts.frame_records) {
        // A larger frame exceeds the server's default payload bound:
        // it would be refused on every reconnect until retries ran out.
        return Err(format!(
            "--frame {}: expected 1..={MAX_FRAME_RECORDS} records per frame \
             (a Records payload is bounded by {MAX_FRAME_BYTES} bytes)",
            opts.frame_records
        ));
    }
    let started = Instant::now();
    let all_latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let results: Mutex<Vec<SessionResult>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for k in 0..opts.sessions {
            let all_latencies = &all_latencies;
            let results = &results;
            let opts = &*opts;
            scope.spawn(move || {
                let instrs = session_instrs(opts.seed, k, opts.records);
                let mut r = run_client_session(
                    &opts.endpoint,
                    &opts.config,
                    &instrs,
                    opts.frame_records,
                    opts.window,
                    opts.retries,
                    opts.backoff_ms,
                    splitmix64(opts.seed).wrapping_add(k as u64),
                );
                all_latencies
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .append(&mut r.latencies_us);
                results.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(r);
            });
        }
    });

    let elapsed = started.elapsed();
    let mut latencies =
        all_latencies.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    latencies.sort_unstable();
    let percentile = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((p * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    };

    let mut report = SlamReport {
        elapsed,
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
        ..SlamReport::default()
    };
    for r in results.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
        report.frames_sent += r.frames_sent;
        report.frames_acked += r.frames_acked;
        report.records_sent += r.records_sent;
        report.accesses_acked += r.accesses_acked;
        report.retries += r.retries;
        report.resumes += r.resumes;
        report.frames_resent += r.frames_resent;
        match r.error {
            None => report.sessions_ok += 1,
            Some(e) => {
                report.sessions_failed += 1;
                if report.failures.len() < 5 {
                    report.failures.push(e);
                }
            }
        }
    }
    report.sessions_per_sec = report.sessions_ok as f64 / elapsed.as_secs_f64().max(1e-9);

    if opts.verify {
        let scrape_endpoint = opts.metrics.as_ref().unwrap_or(&opts.endpoint);
        let page = scrape_metrics(scrape_endpoint)?;
        report.verify = Some(verify_against_offline(opts, &page));
    }
    Ok(report)
}

/// Render a human-readable slam report.
pub fn format_report(report: &SlamReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sessions: {} ok, {} failed ({:.1} sessions/sec)",
        report.sessions_ok, report.sessions_failed, report.sessions_per_sec
    );
    let _ = writeln!(
        out,
        "frames:   {} sent, {} acked, {} dropped",
        report.frames_sent,
        report.frames_acked,
        report.dropped_frames()
    );
    let _ = writeln!(
        out,
        "records:  {} sent, {} accesses replayed",
        report.records_sent, report.accesses_acked
    );
    let _ = writeln!(
        out,
        "resume:   {} retries, {} resumes, {} frames resent",
        report.retries, report.resumes, report.frames_resent
    );
    let _ = writeln!(
        out,
        "latency:  p50 {} us, p99 {} us per frame round-trip, {:.2}s wall",
        report.p50_us,
        report.p99_us,
        report.elapsed.as_secs_f64()
    );
    for f in &report.failures {
        let _ = writeln!(out, "failure:  {f}");
    }
    match &report.verify {
        Some(v) if v.mismatches.is_empty() => {
            let _ = writeln!(
                out,
                "verify:   OK — {} verdict counters bit-identical to offline replay",
                v.compared
            );
        }
        Some(v) => {
            let _ = writeln!(
                out,
                "verify:   FAILED — {} of {} counters differ",
                v.mismatches.len(),
                v.compared
            );
            for m in &v.mismatches {
                let _ = writeln!(out, "  {m}");
            }
        }
        None => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_instrs_are_deterministic_and_distinct() {
        let a = session_instrs(42, 0, 1000);
        let b = session_instrs(42, 0, 1000);
        let c = session_instrs(42, 1, 1000);
        assert_eq!(a, b, "same seed and session must reproduce the trace");
        assert_ne!(a, c, "different sessions must differ");
        assert_eq!(a.len(), 1000);
    }

    #[test]
    fn verdict_page_parsing_round_trips() {
        let page = "jsn_verdict_total{structure=\"dl1\",level=\"1\",verdict=\"hit\"} 42\n\
                    jsn_verdict_total{structure=\"ul2\",level=\"2\",verdict=\"definite_miss\"} 7\n\
                    jsn_other 1\n";
        let v = parse_verdicts(page);
        assert_eq!(v.get(&("dl1".to_string(), "hit".to_string())), Some(&42));
        assert_eq!(v.get(&("ul2".to_string(), "definite_miss".to_string())), Some(&7));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn offline_verdicts_match_themselves() {
        let opts = SlamOptions { sessions: 2, records: 2000, ..SlamOptions::default() };
        let a = offline_verdicts(&opts).unwrap();
        let b = offline_verdicts(&opts).unwrap();
        assert_eq!(a, b);
        assert!(a.values().any(|&v| v > 0), "a 2k-record replay produces verdicts");
    }

    #[test]
    fn tcp_client_sockets_disable_nagle() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
        let conn = connect(&endpoint).unwrap();
        let Conn::Tcp(s) = &conn else { panic!("a tcp endpoint yields a tcp connection") };
        assert!(s.nodelay().unwrap(), "TCP_NODELAY set on the client socket");
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let a = backoff_delay(50, 0, 7);
        let b = backoff_delay(50, 0, 7);
        assert_eq!(a, b, "same seed and attempt reproduce the delay");
        // Exponential floor: attempt 3 waits at least 8× the base.
        assert!(backoff_delay(50, 3, 7) >= Duration::from_millis(400));
        assert!(backoff_delay(50, 40, 7) <= MAX_BACKOFF);
    }
}
