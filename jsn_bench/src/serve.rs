//! The served workload: an in-process `jsn serve` on loopback TCP and one
//! closed-loop client built from the public `protocol` functions, sending
//! one frame of `batch` records at a time. Every frame is encoded during
//! set-up, so the measured phase is wire, server and replay only.
//!
//! One frame in flight leaves a single runnable thread of the stack at
//! any moment, so the numbers do not depend on how the host places
//! threads on cores: with four in flight, the server's reader and worker
//! threads pipelined or not as the scheduler decided, and on a two-core
//! host the round trip flipped between regimes from run to run. The
//! client busy-polls its socket instead of sleeping in `read`, because a
//! sleeping client's wake-up latency on a virtual machine changed by tens
//! of microseconds from minute to minute.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cache_sim::{Access, Hierarchy, HierarchyConfig};
use mnm_core::Mnm;
use mnm_serve::protocol::{
    decode_records, decode_summary, encode_frame, encode_hello, encode_records_payload,
    encode_summary, parse_frame_header, verify_frame_crc, FrameType, SessionStatsWire,
    FRAME_HEADER_BYTES, MAGIC, MAX_FRAME_BYTES, STATUS_OK, VERSION,
};
use mnm_serve::{Endpoint, Server, ServerConfig, ServerHandle, SessionCore};
use trace_synth::{Instr, InstrKind, Program};

use crate::hostspeed::{Pinned, RefKernel, Times};
use crate::ledger::{Ledger, RECONCILE_TOLERANCE};
use crate::metrics::{median, percentile_of};
use crate::{
    filter_config, pin_check, seeded_profile, Check, Metric, Options, Outcome, SimCounts, FILTER,
};

/// How long the client waits on one read before declaring the server hung.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The server's `max_parked`, instead of the default 256. A finished
/// session stays parked, whole, for the resume window (60 s), so that a
/// client that lost its `Stats` reply can fetch it again; at about 5.9 MB
/// a session, the default's memory grows with the number of sessions a
/// run completes (957 MB after 160), and so would `peak_rss_mb`.
const MAX_PARKED: usize = 1;

/// The vCPU (see [`Pinned::nth`]) the client's session loop runs on.
const CLIENT_CPU: usize = 0;

/// The vCPU the server runs on; its connection threads inherit it.
const SERVER_CPU: usize = 1;

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// A server running on its own thread; stopped and joined on drop.
struct Served {
    handle: ServerHandle,
    addr: String,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    /// Threads of the process while no connection is open.
    idle_threads: usize,
}

impl Served {
    fn start() -> Result<Served, String> {
        let config = ServerConfig { max_parked: MAX_PARKED, ..ServerConfig::default() };
        let server = Server::bind(Endpoint::Tcp("127.0.0.1:0".to_owned()), config)
            .map_err(|e| format!("bind loopback: {e}"))?;
        let Endpoint::Tcp(addr) = server.local_endpoint() else {
            return Err("server bound a non-TCP endpoint".to_owned());
        };
        let handle = server.handle();
        let thread = std::thread::spawn(move || {
            let _pinned = Pinned::nth(SERVER_CPU);
            server.run()
        });
        Ok(Served { handle, addr, thread: Some(thread), idle_threads: threads() })
    }

    /// Wait until the server has counted `n` completed sessions and the
    /// connection's threads have exited. The server counts a session
    /// after sending its `Stats`, so a client that reconnects at once
    /// races the previous connection's teardown; and a connection thread
    /// that starts beside an exiting one gets a fresh allocator arena,
    /// which made `peak_rss_mb` read 4 MB high in some runs.
    fn await_completed(&self, n: u64) -> Result<(), String> {
        let reg = self.handle.registry();
        let deadline = Instant::now() + READ_TIMEOUT;
        while reg.sessions_completed.load(Ordering::SeqCst) < n
            || reg.sessions_active.load(Ordering::SeqCst) > 0
            || threads() > self.idle_threads
        {
            if Instant::now() > deadline {
                return Err(format!("the server never finished session {n}"));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        Ok(())
    }

    /// Drain the server and wait for its threads.
    fn stop(&mut self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.take().map(JoinHandle::join) {
            None | Some(Ok(Ok(()))) => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server error: {e}")),
            Some(Err(_)) => Err("server thread panicked".to_owned()),
        }
    }
}

/// Return the heap's free memory to the system (`malloc_trim(3)`) once a
/// session has ended. The next session's connection threads may allocate
/// from another malloc arena than the last one's, and the last one's
/// freed memory then stayed resident beside them: `peak_rss_mb` read
/// about 31 or about 35 MB by which arena a session happened to get.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: takes no pointers; it only returns free heap pages.
        unsafe { malloc_trim(0) };
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A session's `Records` frames, encoded back to back.
struct Frames {
    bytes: Vec<u8>,
    bounds: Vec<(usize, usize)>,
}

impl Frames {
    fn encode(records: &[Instr], per_frame: usize) -> Frames {
        let mut frames = Frames { bytes: Vec::new(), bounds: Vec::new() };
        let mut payload = Vec::new();
        for (i, chunk) in records.chunks(per_frame).enumerate() {
            payload.clear();
            encode_records_payload(i as u64 + 1, chunk, &mut payload);
            let start = frames.bytes.len();
            encode_frame(FrameType::Records, &payload, &mut frames.bytes);
            frames.bounds.push((start, frames.bytes.len()));
        }
        frames
    }

    fn len(&self) -> u64 {
        self.bounds.len() as u64
    }
}

/// Read exactly `buf.len()` bytes from a non-blocking socket, spinning
/// while none are ready, for at most [`READ_TIMEOUT`].
fn read_spin(conn: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    let deadline = Instant::now() + READ_TIMEOUT;
    let mut filled = 0;
    while filled < buf.len() {
        match conn.read(&mut buf[filled..]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::hint::spin_loop();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write all of `buf` to a non-blocking socket, spinning while it is full,
/// for at most [`READ_TIMEOUT`].
fn write_spin(conn: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    let deadline = Instant::now() + READ_TIMEOUT;
    while !buf.is_empty() {
        match conn.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::hint::spin_loop();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one server frame into `payload`, verifying its CRC.
fn read_frame(conn: &mut TcpStream, payload: &mut Vec<u8>) -> Result<FrameType, String> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    read_spin(conn, &mut header).map_err(|e| format!("read frame header: {e}"))?;
    let header = parse_frame_header(&header, MAX_FRAME_BYTES).map_err(|e| e.to_string())?;
    payload.resize(header.payload_len as usize, 0);
    read_spin(conn, payload).map_err(|e| format!("read frame payload: {e}"))?;
    verify_frame_crc(&header, payload).map_err(|e| e.to_string())?;
    Ok(header.frame_type)
}

/// Read the hello reply; anything but an intact OK is an error.
fn read_hello_ok(conn: &mut TcpStream) -> Result<(), String> {
    // magic (4) | version (2) | status (1) | detail_len (2)
    let mut fixed = [0u8; 9];
    read_spin(conn, &mut fixed).map_err(|e| format!("read hello reply: {e}"))?;
    let mut detail = vec![0u8; usize::from(u16::from_le_bytes([fixed[7], fixed[8]]))];
    read_spin(conn, &mut detail).map_err(|e| format!("read hello detail: {e}"))?;
    let version = u16::from_le_bytes([fixed[4], fixed[5]]);
    if fixed[..4] != MAGIC || version != VERSION || fixed[6] != STATUS_OK {
        return Err(format!(
            "hello refused (version {version}, status {}): {}",
            fixed[6],
            String::from_utf8_lossy(&detail)
        ));
    }
    // token (8) | last_acked (8) | crc32 over everything before it (4)
    let mut trailer = [0u8; 20];
    read_spin(conn, &mut trailer).map_err(|e| format!("read hello trailer: {e}"))?;
    let mut covered = fixed.to_vec();
    covered.extend_from_slice(&trailer[..16]);
    if trace_synth::crc32(&covered).to_le_bytes() != trailer[16..] {
        return Err("hello reply failed its crc".to_owned());
    }
    Ok(())
}

/// One completed session.
struct Session {
    /// Accesses the server's final `Stats` frame reports.
    accesses: u64,
    /// First frame sent to `Stats` received.
    nanos: u64,
}

/// Stream every frame over one connection, waiting for each frame's
/// summary before sending the next, and push each round trip onto
/// `rtt_ns`.
fn session(addr: &str, frames: &Frames, rtt_ns: &mut Vec<f64>) -> Result<Session, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.set_nonblocking(true).map_err(|e| e.to_string())?;
    write_spin(&mut conn, &encode_hello(FILTER, 0)).map_err(|e| format!("send hello: {e}"))?;
    read_hello_ok(&mut conn)?;

    let mut payload = Vec::new();
    let start = Instant::now();
    for (seq, &(a, b)) in (1..).zip(&frames.bounds) {
        let sent = Instant::now();
        write_spin(&mut conn, &frames.bytes[a..b]).map_err(|e| format!("send frame: {e}"))?;
        match read_frame(&mut conn, &mut payload)? {
            FrameType::Summary => {
                let (acked, _) = decode_summary(&payload).map_err(|e| e.to_string())?;
                if acked != seq {
                    return Err(format!("summary for frame {acked}, expected {seq}"));
                }
                rtt_ns.push(sent.elapsed().as_nanos() as f64);
            }
            FrameType::Error => {
                return Err(format!("server error: {}", String::from_utf8_lossy(&payload)));
            }
            other => return Err(format!("unexpected {other:?} frame awaiting a summary")),
        }
    }
    let mut finish = Vec::new();
    encode_frame(FrameType::Finish, &[], &mut finish);
    write_spin(&mut conn, &finish).map_err(|e| format!("send finish: {e}"))?;
    if read_frame(&mut conn, &mut payload)? != FrameType::Stats {
        return Err("no stats frame after finish".to_owned());
    }
    let stats = SessionStatsWire::decode(&payload).map_err(|e| e.to_string())?;
    let nanos = start.elapsed().as_nanos() as u64;
    if stats.frames != frames.len() {
        return Err(format!("server applied {} of {} frames", stats.frames, frames.len()));
    }
    Ok(Session { accesses: stats.accesses, nanos })
}

/// Inputs and a warm server.
struct Setup {
    records: Vec<Instr>,
    frames: Frames,
    server: Served,
    gen_ns: u64,
    encode_ns: u64,
}

fn set_up(opts: &Options) -> Result<Setup, String> {
    let t = Instant::now();
    let profile = seeded_profile(opts.workload.profile(), opts.seed);
    let records: Vec<Instr> = Program::new(profile).take(opts.sizes.records).collect();
    let gen_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let frames = Frames::encode(&records, opts.sizes.batch);
    let encode_ns = t.elapsed().as_nanos() as u64;
    let server = Served::start()?;
    // One warm-up session: connection set-up paths, page faults, lazy
    // allocation in the server.
    session(&server.addr, &frames, &mut Vec::new())?;
    server.await_completed(1)?;
    release_free_memory();
    Ok(Setup { records, frames, server, gen_ns, encode_ns })
}

/// The session's cache accesses, converted as `SessionCore::feed` does.
fn accesses_of(records: &[Instr]) -> Vec<Access> {
    records
        .iter()
        .filter_map(|r| match r.kind {
            InstrKind::Load { addr } => Some(Access::load(addr)),
            InstrKind::Store { addr } => Some(Access::store(addr)),
            InstrKind::Op { .. } | InstrKind::Branch { .. } => None,
        })
        .collect()
}

/// Live sessions until `deadline` (at least one), each followed by one
/// reference-kernel call on the server's vCPU for the host's speed.
struct Live {
    sessions: u64,
    /// Per-session host nanoseconds, first frame sent to `Stats` received.
    session_ns: Times,
    rtt_ns: Times,
    accesses: Vec<u64>,
    error: Option<String>,
}

fn live(s: &Setup, deadline: Instant, kernel: &mut RefKernel) -> Live {
    let mut live = Live {
        sessions: 0,
        session_ns: Times::default(),
        rtt_ns: Times::default(),
        accesses: Vec::new(),
        error: None,
    };
    let mut rtt_ns = Vec::new();
    loop {
        rtt_ns.clear();
        let done = {
            let _pinned = Pinned::nth(CLIENT_CPU);
            session(&s.server.addr, &s.frames, &mut rtt_ns)
        }
        .and_then(|r| s.server.await_completed(live.sessions + 2).map(|()| r));
        release_free_memory();
        match done {
            Ok(r) => {
                let slowdown = kernel.slowdown_on(SERVER_CPU);
                live.sessions += 1;
                live.session_ns.push(r.nanos as f64, slowdown);
                for &ns in &rtt_ns {
                    live.rtt_ns.push(ns, slowdown);
                }
                live.accesses.push(r.accesses);
            }
            Err(e) => {
                live.error = Some(e);
                return live;
            }
        }
        if Instant::now() >= deadline {
            return live;
        }
    }
}

pub(crate) fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::new(opts.workload, opts.trace);
    out.notes.push(format!(
        "closed loop: one busy-polling client connection, one frame of {} records in flight, \
         {} records per session; every session replays the same stream from a fresh {} session",
        opts.sizes.batch, opts.sizes.records, FILTER
    ));
    out.notes.push(format!(
        "the server runs with max_parked {MAX_PARKED}, not the default {}: with the default, \
         every finished session stays parked for the resume window and peak_rss_mb grows with \
         the sessions completed",
        ServerConfig::default().max_parked
    ));
    match measure(opts, &mut out) {
        Ok(()) => {}
        Err(e) => {
            out.failed += 1;
            out.checks.push(Check::fail("serve", e));
        }
    }
    out
}

fn measure(opts: &Options, out: &mut Outcome) -> Result<(), String> {
    let sizes = &opts.sizes;
    let mut kernel = RefKernel::new();
    let t = Instant::now();
    let mut s = set_up(opts)?;
    let mut setup_s = Times::default();
    setup_s.push(t.elapsed().as_secs_f64(), kernel.slowdown_all_cpus());
    let accesses = accesses_of(&s.records);
    out.report(
        true,
        Metric::new("trace.gen_ns_per_access", s.gen_ns as f64 / accesses.len() as f64, "ns"),
    );
    out.extras.push(Metric::new(
        "client.encode_us_per_frame",
        s.encode_ns as f64 / 1e3 / s.frames.len() as f64,
        "us",
    ));

    let start = Instant::now();
    let phase = |k: f64| start + Duration::from_secs_f64(opts.seconds * k);
    let live = live(&s, if opts.trace { phase(1.0 / 3.0) } else { phase(1.0) }, &mut kernel);
    let rtt_us = |ns: &[f64], q: f64| percentile_of(ns, q) / 1e3;
    let rtt = &live.rtt_ns.reference;
    let rtt_p50_us = rtt_us(&live.rtt_ns.raw, 0.50);
    out.attempted += live.sessions * s.frames.len() + u64::from(live.error.is_some());
    if let Some(e) = &live.error {
        out.failed += 1;
        out.checks.push(Check::fail("sessions", e.clone()));
    }
    if !opts.trace {
        out.metrics.push(crate::metrics::peak_rss());
        // The further set-ups `setup_s` is the median of come after peak
        // memory is read, so that their allocator churn does not count.
        for _ in 1..sizes.setups {
            let t = Instant::now();
            let mut again = set_up(opts)?;
            setup_s.push(t.elapsed().as_secs_f64(), kernel.slowdown_all_cpus());
            again.server.stop()?;
        }
        // Every session replays the same accesses: the median session's
        // throughput. Gated values are at reference speed; the measured
        // ones are extras.
        let accesses = live.accesses.first().copied().unwrap_or(0) as f64;
        let maccs = |session_ns: &[f64]| accesses * 1e3 / median(session_ns);
        out.metrics.push(Metric::new("maccs", maccs(&live.session_ns.reference), "Macc/s"));
        out.metrics.push(Metric::new("batch_p50_us", rtt_us(rtt, 0.50), "us"));
        out.extras.push(Metric::new("raw_maccs", maccs(&live.session_ns.raw), "Macc/s"));
        out.extras.push(Metric::new("raw_batch_p50_us", rtt_p50_us, "us"));
        out.extras.push(Metric::new("batch_p90_us", rtt_us(rtt, 0.90), "us"));
        out.extras.push(Metric::new("batch_p99_us", rtt_us(rtt, 0.99), "us"));
        out.extras.push(Metric::new("host_slowdown", live.session_ns.slowdown(), "ratio"));
        out.extras.push(Metric::new("frames", rtt.len() as f64, "count"));
        out.extras.push(Metric::new("sessions", live.sessions as f64, "count"));
    }
    out.report(false, Metric::new("setup_s", median(&setup_s.reference), "s"));
    out.extras.push(Metric::new("raw_setup_s", median(&setup_s.raw), "s"));

    let mut ledger = Ledger::new(sizes.batch);
    if opts.trace {
        let stages = frame_stages(&s, &mut ledger, phase(2.0 / 3.0))?;
        out.attempted += stages.frames;
        let per_frame = |ns: u64| ns as f64 / 1e3 / stages.frames as f64;
        let stage_us =
            [stages.crc_ns, stages.decode_ns, stages.feed_ns, stages.summary_ns].map(per_frame);
        for (name, us) in [
            "serve.crc_us_per_frame",
            "serve.decode_us_per_frame",
            "serve.feed_us_per_frame",
            "serve.summary_us_per_frame",
        ]
        .into_iter()
        .zip(stage_us)
        {
            out.extras.push(Metric::new(name, us, "us"));
        }
        let wire_queue = rtt_p50_us - stage_us.iter().sum::<f64>();
        out.extras.push(Metric::new("serve.frame_rtt_p50_us", rtt_p50_us, "us"));
        out.extras.push(Metric::new("serve.wire_queue_us_p50", wire_queue, "us"));
        // The stages are timed offline and the round trip live, so each
        // carries its own noise: the stages may not exceed the round trip
        // by more than the ledger tolerance.
        out.checks.push(Check::new(
            "serve_ledger_reconciles",
            wire_queue >= -RECONCILE_TOLERANCE * rtt_p50_us,
            format!(
                "round-trip p50 {rtt_p50_us:.1} us against {:.1} us of frame stages: \
                 {wire_queue:.1} us on the wire and in queues",
                rtt_p50_us - wire_queue
            ),
        ));

        let deadline = phase(1.0);
        let template = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut pass = 0u64;
        while pass < 2 || Instant::now() < deadline {
            let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
            let mut mnm = Mnm::new(&template, filter_config());
            if pass.is_multiple_of(2) {
                ledger.untraced(&mut mnm, &mut hier, &accesses);
            } else {
                ledger.traced(&mut mnm, &mut hier, &accesses);
            }
            pass += 1;
        }
        if ledger.allocations() > 0 {
            out.failed += 1;
        }
        out.metrics.extend(ledger.metrics());
        out.extras.extend(ledger.extras());
        out.checks.extend(ledger.checks());
    }

    // Server-side counters, read through the registry once the server has
    // drained.
    s.server.stop()?;
    let reg = s.server.handle.registry();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;
    let completed = reg.sessions_completed.load(Ordering::Relaxed);
    out.extras.push(Metric::new(
        "serve.service_us_p50",
        reg.latency.percentile_us(0.50) as f64,
        "us",
    ));
    out.extras.push(Metric::new(
        "serve.service_us_p99",
        reg.latency.percentile_us(0.99) as f64,
        "us",
    ));
    out.extras.push(Metric::new(
        "serve.accesses_per_frame",
        load(&reg.accesses) / load(&reg.frames_applied).max(1.0),
        "count",
    ));
    for (name, counter) in [
        ("serve.frames_applied", &reg.frames_applied),
        ("serve.frames_replayed", &reg.frames_replayed),
        ("serve.crc_errors", &reg.crc_errors),
        ("serve.protocol_errors", &reg.protocol_errors),
        ("serve.sessions_failed", &reg.sessions_failed),
    ] {
        out.extras.push(Metric::new(name, load(counter), "count"));
    }

    // Correctness: an offline replay of the stream through the same
    // `SessionCore` predicts every server counter; the registry is
    // cumulative, so it must hold exactly (warm-up + live) times it.
    let mut offline = SessionCore::new(FILTER)?;
    for chunk in s.records.chunks(sizes.batch) {
        offline.feed(chunk);
    }
    let k = 1 + live.sessions;
    out.checks.push(Check::new(
        "sessions_completed",
        completed == k,
        format!("server completed {completed} sessions, client ran {k}"),
    ));
    let wrong_sessions = live.accesses.iter().filter(|&&a| a != offline.accesses()).count();
    out.failed += wrong_sessions as u64;
    out.checks.push(Check::new(
        "session_accesses",
        wrong_sessions == 0,
        format!(
            "{wrong_sessions} sessions' stats disagree with the offline {} accesses",
            offline.accesses()
        ),
    ));
    let mismatches: Vec<String> = offline
        .verdicts()
        .iter()
        .filter_map(|v| {
            let want = (v.hits * k, v.maybe_misses * k, v.definite_misses * k);
            let got = reg.verdict_counts(&v.name);
            (got != Some(want)).then(|| format!("{}: server {got:?}, expected {want:?}", v.name))
        })
        .collect();
    out.checks.push(Check::new(
        "served_verdicts",
        mismatches.is_empty(),
        if mismatches.is_empty() {
            format!("every verdict counter equals {k} x the offline replay")
        } else {
            mismatches.join("; ")
        },
    ));
    let faults = reg.crc_errors.load(Ordering::Relaxed)
        + reg.protocol_errors.load(Ordering::Relaxed)
        + reg.sessions_failed.load(Ordering::Relaxed);
    out.checks.push(Check::new(
        "server_faults",
        faults == 0,
        format!("{faults} crc, protocol or session failures"),
    ));

    // The replica the ledger steps must be the session's own replay.
    let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
    let mut mnm = Mnm::new(&hier, filter_config());
    for chunk in accesses.chunks(sizes.batch) {
        mnm.run_many(&mut hier, chunk);
    }
    let replica_verdicts: Vec<_> =
        hier.stats().structures.iter().map(|st| (st.hits, st.misses, st.bypasses)).collect();
    let session_verdicts: Vec<_> =
        offline.verdicts().iter().map(|v| (v.hits, v.maybe_misses, v.definite_misses)).collect();
    out.checks.push(Check::new(
        "replica_equals_session",
        replica_verdicts == session_verdicts,
        "run_many over the session's accesses reproduces SessionCore's verdicts".to_owned(),
    ));
    let counts = SimCounts::of_replay(hier.stats(), mnm.stats());
    out.checks.extend(pin_check(opts, &counts));
    for m in counts.metrics() {
        out.report(true, m);
    }

    out.spans = ledger.take_spans();
    Ok(())
}

/// Host time of the server's per-frame stages, replayed offline.
struct FrameStages {
    frames: u64,
    crc_ns: u64,
    decode_ns: u64,
    feed_ns: u64,
    summary_ns: u64,
}

/// Replay the session's frames offline through the server's stages —
/// header and CRC check, record decode, `SessionCore::feed`, summary
/// encode — until `deadline` (at least one pass).
fn frame_stages(s: &Setup, ledger: &mut Ledger, deadline: Instant) -> Result<FrameStages, String> {
    let mut st = FrameStages { frames: 0, crc_ns: 0, decode_ns: 0, feed_ns: 0, summary_ns: 0 };
    let mut records = Vec::new();
    let mut reply = Vec::new();
    loop {
        let mut core = SessionCore::new(FILTER)?;
        for &(a, b) in &s.frames.bounds {
            let frame = &s.frames.bytes[a..b];
            let t0 = Instant::now();
            let header: &[u8; FRAME_HEADER_BYTES] =
                frame[..FRAME_HEADER_BYTES].try_into().expect("frames carry a header");
            let header = parse_frame_header(header, MAX_FRAME_BYTES).map_err(|e| e.to_string())?;
            let payload = &frame[FRAME_HEADER_BYTES..];
            verify_frame_crc(&header, payload).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            records.clear();
            let seq = decode_records(payload, &mut records).map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            let sum = core.feed(&records);
            let t3 = Instant::now();
            reply.clear();
            let counts = [sum.accesses, sum.total_latency, sum.l1_hits, sum.misses, sum.bypassed];
            encode_frame(FrameType::Summary, &encode_summary(seq, counts), &mut reply);
            let t4 = Instant::now();
            st.crc_ns += (t1 - t0).as_nanos() as u64;
            st.decode_ns += (t2 - t1).as_nanos() as u64;
            st.feed_ns += (t3 - t2).as_nanos() as u64;
            st.summary_ns += (t4 - t3).as_nanos() as u64;
            let id = st.frames;
            st.frames += 1;
            ledger.push_span("serve.frame", None, id, (t0, t4));
            ledger.push_span("serve.crc", Some("serve.frame"), id, (t0, t1));
            ledger.push_span("serve.decode", Some("serve.frame"), id, (t1, t2));
            ledger.push_span("serve.feed", Some("serve.frame"), id, (t2, t3));
            ledger.push_span("serve.summary", Some("serve.frame"), id, (t3, t4));
        }
        if Instant::now() >= deadline {
            return Ok(st);
        }
    }
}
