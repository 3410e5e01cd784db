//! `jsn chaos`: a deterministic network-fault proxy for the serving
//! stack.
//!
//! Sits between `jsn slam` and `jsn serve`, relaying bytes in both
//! directions while injecting faults decided **purely** by a seeded
//! plan — the `JSN_CHAOS` environment variable, mirroring the
//! `JSN_FAULT` grammar of the offline experiment runner:
//!
//! ```text
//! JSN_CHAOS=seed=42,tear=1/24,delay=1/16:5,drop=1/64,corrupt=1/24,dup=1/32
//! ```
//!
//! Each clause is an `m/n` ratio; `delay` takes a trailing `:ms`
//! duration. Parsing is strict (unknown, duplicate, or malformed
//! clauses are hard errors), because a soak armed with a typo'd plan
//! would otherwise run clean and prove nothing.
//!
//! ## Determinism
//!
//! Every byte stream is divided into fixed [`CELL`]-byte cells. For
//! each `(fault kind, connection, direction, cell)` tuple the plan
//! derives a hash; the hash decides whether the fault fires in that
//! cell *and* at which absolute byte offset within it. Because
//! decisions are keyed to absolute stream offsets — never to how the
//! kernel happened to chunk a read — the same seed against the same
//! byte streams fires the same faults at the same offsets, and the
//! fired-fault log is reproducible byte for byte. Two details make
//! that hold at connection teardown, where TCP timing is inherently
//! racy:
//!
//! * a relay whose destination dies keeps *reading* its source and
//!   recording fault decisions (sinking the undeliverable bytes), so
//!   the log depends only on what the source wrote — which is decided
//!   by deterministic client/server code — never on which write
//!   happened to fail first;
//! * a terminal fault closes both sockets and lets the opposite relay
//!   drain its source to EOF, rather than signalling it to stop at a
//!   racy point mid-stream.
//!
//! Connection ids are assigned in accept order, so full-log
//! determinism holds when connections are sequential (single-session
//! soaks); concurrent soaks are still per-connection deterministic.
//!
//! The faults:
//!
//! | kind | effect at the fault offset |
//! |------|---------------------------|
//! | `corrupt` | XOR one byte with a seeded nonzero mask |
//! | `dup`     | emit the byte twice (a minimal duplicated write that desynchronizes framing) |
//! | `delay`   | stall the relay for the configured milliseconds |
//! | `tear`    | deliver bytes before the offset, then cut the connection (torn frame) |
//! | `drop`    | deliver bytes before the offset, then cut the connection (reset) |
//!
//! `tear` and `drop` are mechanically the same cut — delivering the
//! offset-exact prefix is what keeps the shear reproducible — but they
//! are sampled independently, so a profile can dial torn-frame-heavy
//! and reset-heavy mixes separately; at the peer they surface as torn
//! mid-frame reads or clean closes depending on where the offset lands
//! relative to frame boundaries.
//!
//! Every fired fault is recorded `(conn, direction, cell, offset,
//! kind)`; [`ChaosHandle::fired_log`] renders the log sorted so two
//! runs can be `diff`ed, and `jsn chaos` writes it through the
//! crash-safe `fsio` writer on shutdown.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mnm_experiments::faults::PlanClauses;
use trace_synth::rng::{fnv1a, splitmix64};

use crate::server::{Conn, Endpoint, Listener};
use crate::signal;

/// Environment variable holding the chaos plan.
pub const ENV_CHAOS: &str = "JSN_CHAOS";

/// Fault-decision granularity: one decision per fault kind per
/// [`CELL`] bytes of stream, keyed to absolute offsets so kernel read
/// chunking cannot move a fault.
pub const CELL: u64 = 1024;

/// Default stall when a `delay` clause gives no `:ms` suffix.
const DEFAULT_DELAY_MS: u64 = 5;

/// Socket poll tick for the relay loops.
const TICK: Duration = Duration::from_millis(20);

/// The injectable fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChaosKind {
    /// Flip one byte.
    Corrupt,
    /// Duplicate one byte (desynchronizes framing downstream).
    Dup,
    /// Stall the relay.
    Delay,
    /// Close one direction mid-stream (torn write).
    Tear,
    /// Reset the whole connection.
    Drop,
}

impl ChaosKind {
    /// Stable name, used both for decision hashing and the log.
    pub fn name(self) -> &'static str {
        match self {
            ChaosKind::Corrupt => "corrupt",
            ChaosKind::Dup => "dup",
            ChaosKind::Delay => "delay",
            ChaosKind::Tear => "tear",
            ChaosKind::Drop => "drop",
        }
    }

    const ALL: [ChaosKind; 5] =
        [ChaosKind::Corrupt, ChaosKind::Dup, ChaosKind::Delay, ChaosKind::Tear, ChaosKind::Drop];
}

/// Relay direction, part of every fault decision and log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Direction {
    /// Client → server bytes.
    ClientToServer,
    /// Server → client bytes.
    ServerToClient,
}

impl Direction {
    fn name(self) -> &'static str {
        match self {
            Direction::ClientToServer => "c2s",
            Direction::ServerToClient => "s2c",
        }
    }
}

/// A parsed `JSN_CHAOS` plan: a seed plus one optional `m/n` ratio per
/// fault kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    seed: u64,
    corrupt: Option<(u64, u64)>,
    dup: Option<(u64, u64)>,
    delay: Option<(u64, u64)>,
    delay_ms: u64,
    tear: Option<(u64, u64)>,
    drop: Option<(u64, u64)>,
}

/// One scheduled fault inside a cell: where, and what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellFault {
    kind: ChaosKind,
    /// Absolute byte offset in the stream where it fires.
    offset: u64,
}

impl ChaosPlan {
    /// Parse a plan like `seed=42,tear=1/24,delay=1/16:5,corrupt=1/24`.
    ///
    /// Each fault clause takes an `m/n` ratio (fire in ~m of n cells);
    /// `delay` accepts a trailing `:ms` duration. `seed` defaults to 0.
    ///
    /// Parsing is strict, like `JSN_FAULT`: unknown or duplicate
    /// clauses, malformed ratios, and bad delay durations are hard
    /// errors — a chaos soak with a silently inert plan would pass
    /// while proving nothing.
    pub fn parse(input: &str) -> Result<ChaosPlan, String> {
        let clauses =
            PlanClauses::parse(ENV_CHAOS, input, &["corrupt", "dup", "delay", "tear", "drop"])?;
        let mut plan = ChaosPlan {
            seed: clauses.seed,
            corrupt: None,
            dup: None,
            delay: None,
            delay_ms: DEFAULT_DELAY_MS,
            tear: None,
            drop: None,
        };
        for &(key, value) in &clauses.clauses {
            match key {
                "corrupt" => plan.corrupt = Some(clauses.ratio(value)?),
                "dup" => plan.dup = Some(clauses.ratio(value)?),
                "tear" => plan.tear = Some(clauses.ratio(value)?),
                "drop" => plan.drop = Some(clauses.ratio(value)?),
                _ => {
                    let (sel, ms) = clauses.with_ms(key, value, DEFAULT_DELAY_MS)?;
                    plan.delay = Some(clauses.ratio(sel)?);
                    plan.delay_ms = ms;
                }
            }
        }
        Ok(plan)
    }

    /// Read the plan from `JSN_CHAOS`; `Ok(None)` when unset or empty.
    pub fn from_env() -> Result<Option<ChaosPlan>, String> {
        PlanClauses::env(ENV_CHAOS)?.map(|v| ChaosPlan::parse(&v)).transpose()
    }

    /// The configured delay duration.
    pub fn delay_ms(&self) -> u64 {
        self.delay_ms
    }

    fn ratio(&self, kind: ChaosKind) -> Option<(u64, u64)> {
        match kind {
            ChaosKind::Corrupt => self.corrupt,
            ChaosKind::Dup => self.dup,
            ChaosKind::Delay => self.delay,
            ChaosKind::Tear => self.tear,
            ChaosKind::Drop => self.drop,
        }
    }

    /// The per-kind decision hash for one cell of one stream.
    fn cell_hash(&self, kind: ChaosKind, conn: u64, dir: Direction, cell: u64) -> u64 {
        splitmix64(
            self.seed
                ^ fnv1a(kind.name())
                ^ fnv1a(dir.name())
                ^ splitmix64(conn).rotate_left(17)
                ^ splitmix64(cell).rotate_left(41),
        )
    }

    /// The faults scheduled for `cell` of `(conn, dir)`, sorted by
    /// offset. Pure: same inputs, same schedule, forever.
    fn cell_faults(&self, conn: u64, dir: Direction, cell: u64) -> Vec<CellFault> {
        let mut out = Vec::new();
        for kind in ChaosKind::ALL {
            let Some((m, n)) = self.ratio(kind) else { continue };
            let h = self.cell_hash(kind, conn, dir, cell);
            if h % n < m {
                out.push(CellFault { kind, offset: cell * CELL + splitmix64(h) % CELL });
            }
        }
        // Stable order: by offset, ties broken by kind so the schedule
        // never depends on iteration luck.
        out.sort_by_key(|f| (f.offset, f.kind));
        out
    }

    /// One-line human description for run banners.
    pub fn summary(&self) -> String {
        let fmt = |r: Option<(u64, u64)>| match r {
            Some((m, n)) => format!("{m}/{n}"),
            None => "off".to_string(),
        };
        format!(
            "chaos plan: seed={} corrupt={} dup={} delay={} ({}ms) tear={} drop={}",
            self.seed,
            fmt(self.corrupt),
            fmt(self.dup),
            fmt(self.delay),
            self.delay_ms,
            fmt(self.tear),
            fmt(self.drop),
        )
    }
}

/// One fault the proxy actually fired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FiredFault {
    /// Connection id (accept order, starting at 1).
    pub conn: u64,
    /// Which direction's stream.
    pub dir: Direction,
    /// The absolute byte offset the fault fired at.
    pub offset: u64,
    /// What fired.
    pub kind: ChaosKind,
}

impl FiredFault {
    fn render(&self) -> String {
        format!(
            "conn={} dir={} cell={} offset={} kind={}",
            self.conn,
            self.dir.name(),
            self.offset / CELL,
            self.offset,
            self.kind.name()
        )
    }
}

/// Chaos proxy options.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Where the proxy listens (clients connect here).
    pub listen: Endpoint,
    /// The real server to relay to.
    pub upstream: Endpoint,
    /// The fault plan.
    pub plan: ChaosPlan,
    /// Where to write the fired-fault log on shutdown.
    pub log_path: Option<PathBuf>,
}

/// A handle for stopping a running proxy and reading its fault log.
#[derive(Clone)]
pub struct ChaosHandle {
    shutdown: Arc<AtomicBool>,
    fired: Arc<Mutex<Vec<FiredFault>>>,
}

impl ChaosHandle {
    /// Ask the proxy to stop accepting and exit.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Snapshot of every fault fired so far.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.fired.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// The fired-fault log, one line per fault, sorted `(conn, dir,
    /// offset, kind)` so two runs of the same seed diff clean.
    pub fn fired_log(&self) -> String {
        let mut faults = self.fired();
        faults.sort();
        let mut out = String::with_capacity(faults.len() * 48 + 1);
        for f in &faults {
            out.push_str(&f.render());
            out.push('\n');
        }
        out
    }
}

/// The proxy: bind with [`ChaosProxy::bind`], then block in
/// [`ChaosProxy::run`].
pub struct ChaosProxy {
    listener: Listener,
    options: ChaosOptions,
    shutdown: Arc<AtomicBool>,
    fired: Arc<Mutex<Vec<FiredFault>>>,
    next_conn: AtomicU64,
}

impl ChaosProxy {
    /// Bind the listen endpoint. A stale unix socket file is removed
    /// first.
    pub fn bind(options: ChaosOptions) -> std::io::Result<ChaosProxy> {
        let listener = Listener::bind(&options.listen)?;
        Ok(ChaosProxy {
            listener,
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
            fired: Arc::new(Mutex::new(Vec::new())),
            next_conn: AtomicU64::new(1),
        })
    }

    /// The bound listen endpoint (resolves TCP port 0).
    pub fn local_endpoint(&self) -> Endpoint {
        self.listener.local_endpoint(&self.options.listen)
    }

    /// A handle for shutdown and fault-log access.
    pub fn handle(&self) -> ChaosHandle {
        ChaosHandle { shutdown: Arc::clone(&self.shutdown), fired: Arc::clone(&self.fired) }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::requested()
    }

    /// Accept and relay until shutdown, then flush the fired-fault log.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut relays: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutting_down() {
            match self.listener.accept() {
                Ok(client) => {
                    let conn_id = self.next_conn.fetch_add(1, Ordering::Relaxed);
                    let upstream = match self.options.upstream.connect() {
                        Ok(u) => u,
                        Err(_) => {
                            client.shutdown_both();
                            continue;
                        }
                    };
                    let (Ok(client_r), Ok(upstream_r)) = (client.try_clone(), upstream.try_clone())
                    else {
                        client.shutdown_both();
                        upstream.shutdown_both();
                        continue;
                    };
                    for (src, dst, dir) in [
                        (client, upstream, Direction::ClientToServer),
                        (upstream_r, client_r, Direction::ServerToClient),
                    ] {
                        let plan = self.options.plan.clone();
                        let fired = Arc::clone(&self.fired);
                        let shutdown = Arc::clone(&self.shutdown);
                        relays.push(std::thread::spawn(move || {
                            relay(src, dst, &plan, conn_id, dir, &fired, &shutdown);
                        }));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(TICK);
                    relays.retain(|r| !r.is_finished());
                }
                Err(e) => return Err(e),
            }
        }
        for r in relays {
            let _ = r.join();
        }
        if let Some(path) = &self.options.log_path {
            let log = self.handle().fired_log();
            mnm_experiments::fsio::write_artifact(path, log.as_bytes())?;
        }
        if let Endpoint::Unix(path) = &self.options.listen {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

fn record(fired: &Mutex<Vec<FiredFault>>, fault: FiredFault) {
    fired.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(fault);
}

/// Relay one direction of one connection, injecting the plan's faults.
///
/// Reads never cross a cell boundary, so each relayed chunk lies in
/// exactly one cell and every fault offset falls inside at most one
/// chunk — which is what makes the injected byte stream a pure
/// function of (plan, conn, dir, clean stream), independent of read
/// chunking.
///
/// A destination that dies does NOT stop the relay: it switches to
/// *sinking* — reading, deciding, and recording as before, discarding
/// the output. Which write fails first is a TCP-buffering race, and
/// letting it truncate the loop would make the fired-fault log depend
/// on that race; the source closing (a deterministic consequence of
/// client/server code) is the only clean end of stream.
fn relay(
    mut src: Conn,
    mut dst: Conn,
    plan: &ChaosPlan,
    conn_id: u64,
    dir: Direction,
    fired: &Mutex<Vec<FiredFault>>,
    shutdown: &AtomicBool,
) {
    let _ = src.set_timeouts(TICK);
    let _ = dst.set_timeouts(TICK);
    let mut offset: u64 = 0;
    let mut sinking = false;
    let mut buf = vec![0u8; CELL as usize];
    let mut out: Vec<u8> = Vec::with_capacity(CELL as usize + 8);
    let flush = |dst: &mut Conn, out: &mut Vec<u8>, sinking: &mut bool| {
        if !*sinking && !out.is_empty() && write_all_tolerant(dst, out, shutdown).is_err() {
            *sinking = true;
        }
        out.clear();
    };
    loop {
        if shutdown.load(Ordering::SeqCst) || signal::requested() {
            break;
        }
        let room = (CELL - offset % CELL) as usize;
        let n = match src.read(&mut buf[..room]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let chunk = &buf[..n];
        let start = offset;
        let end = offset + n as u64;
        offset = end;

        // Faults scheduled in this chunk's cell that land inside this
        // chunk's absolute byte range, in offset order.
        let cell = start / CELL;
        let faults: Vec<CellFault> = plan
            .cell_faults(conn_id, dir, cell)
            .into_iter()
            .filter(|f| f.offset >= start && f.offset < end)
            .collect();

        out.clear();
        let mut cursor = start;
        for fault in faults {
            let rel = (fault.offset - start) as usize;
            match fault.kind {
                ChaosKind::Delay => {
                    // Flush what precedes the fault point, then stall.
                    out.extend_from_slice(&chunk[(cursor - start) as usize..rel]);
                    cursor = fault.offset;
                    flush(&mut dst, &mut out, &mut sinking);
                    record(
                        fired,
                        FiredFault { conn: conn_id, dir, offset: fault.offset, kind: fault.kind },
                    );
                    std::thread::sleep(Duration::from_millis(plan.delay_ms));
                }
                ChaosKind::Corrupt => {
                    out.extend_from_slice(&chunk[(cursor - start) as usize..rel]);
                    cursor = fault.offset + 1;
                    let mask = (splitmix64(plan.cell_hash(fault.kind, conn_id, dir, cell) ^ 0xC0)
                        % 255
                        + 1) as u8;
                    out.push(chunk[rel] ^ mask);
                    record(
                        fired,
                        FiredFault { conn: conn_id, dir, offset: fault.offset, kind: fault.kind },
                    );
                }
                ChaosKind::Dup => {
                    out.extend_from_slice(&chunk[(cursor - start) as usize..rel]);
                    cursor = fault.offset + 1;
                    out.push(chunk[rel]);
                    out.push(chunk[rel]);
                    record(
                        fired,
                        FiredFault { conn: conn_id, dir, offset: fault.offset, kind: fault.kind },
                    );
                }
                ChaosKind::Tear | ChaosKind::Drop => {
                    // Deliver exactly the bytes before the fault
                    // offset, then cut the whole connection. The
                    // delivered prefix is offset-exact, so reruns
                    // shear at the same byte.
                    out.extend_from_slice(&chunk[(cursor - start) as usize..rel]);
                    flush(&mut dst, &mut out, &mut sinking);
                    record(
                        fired,
                        FiredFault { conn: conn_id, dir, offset: fault.offset, kind: fault.kind },
                    );
                    src.shutdown_both();
                    dst.shutdown_both();
                    return;
                }
            }
        }
        out.extend_from_slice(&chunk[(cursor - start) as usize..]);
        flush(&mut dst, &mut out, &mut sinking);
    }
    // Natural end of stream: pass the FIN downstream but leave the
    // paired direction alone — it drains to its own EOF. A full
    // teardown here would cut the opposite relay's source at a
    // buffering-dependent instant and make the fired log racy.
    dst.shutdown_write();
}

/// `write_all` over a socket with a poll-tick timeout.
fn write_all_tolerant(conn: &mut Conn, mut buf: &[u8], shutdown: &AtomicBool) -> Result<(), ()> {
    while !buf.is_empty() {
        if shutdown.load(Ordering::SeqCst) {
            return Err(());
        }
        match conn.write(buf) {
            Ok(0) => return Err(()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return Err(()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let p =
            ChaosPlan::parse("seed=42, tear=1/24, delay=1/16:5, drop=1/64, corrupt=1/24, dup=1/32")
                .unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.tear, Some((1, 24)));
        assert_eq!(p.delay, Some((1, 16)));
        assert_eq!(p.delay_ms, 5);
        assert_eq!(p.drop, Some((1, 64)));
        assert_eq!(p.corrupt, Some((1, 24)));
        assert_eq!(p.dup, Some((1, 32)));
        assert!(p.summary().contains("tear=1/24"));
    }

    #[test]
    fn rejects_malformed_plans() {
        for bad in [
            "tear",            // not key=value
            "wat=1/2",         // unknown clause
            "seed=x",          // bad seed
            "tear=1/0",        // zero denominator
            "corrupt=",        // empty ratio
            "corrupt=site",    // chaos has no site selectors
            "delay=1/6:25x",   // malformed ms tail
            "tear=1/4,tear=1", // duplicate clause
        ] {
            assert!(ChaosPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(ChaosPlan::parse("").is_ok(), "an empty plan relays clean");
    }

    #[test]
    fn cell_schedule_is_deterministic_and_seed_sensitive() {
        let a = ChaosPlan::parse("seed=1,corrupt=1/4,tear=1/8").unwrap();
        let b = ChaosPlan::parse("seed=2,corrupt=1/4,tear=1/8").unwrap();
        let schedule = |p: &ChaosPlan| -> Vec<Vec<CellFault>> {
            (0..256).map(|c| p.cell_faults(7, Direction::ClientToServer, c)).collect()
        };
        assert_eq!(schedule(&a), schedule(&a), "same plan, same schedule");
        assert_ne!(schedule(&a), schedule(&b), "seed changes the schedule");
        // Directions are independent decisions.
        let c2s: Vec<_> =
            (0..256).map(|c| a.cell_faults(7, Direction::ClientToServer, c)).collect();
        let s2c: Vec<_> =
            (0..256).map(|c| a.cell_faults(7, Direction::ServerToClient, c)).collect();
        assert_ne!(c2s, s2c);
        // A 1/4 ratio over 256 cells fires a nontrivial subset.
        let hits = c2s.iter().filter(|f| !f.is_empty()).count();
        assert!(hits > 16 && hits < 240, "{hits} of 256 cells faulted");
    }

    #[test]
    fn fault_offsets_stay_inside_their_cell() {
        let p = ChaosPlan::parse("seed=9,corrupt=1/1,dup=1/1,delay=1/1,tear=1/1,drop=1/1").unwrap();
        for cell in 0..64 {
            for f in p.cell_faults(3, Direction::ServerToClient, cell) {
                assert!(f.offset >= cell * CELL && f.offset < (cell + 1) * CELL, "{f:?}");
            }
        }
    }

    #[test]
    fn fired_log_renders_sorted() {
        let fired = Arc::new(Mutex::new(vec![
            FiredFault {
                conn: 2,
                dir: Direction::ClientToServer,
                offset: 10,
                kind: ChaosKind::Dup,
            },
            FiredFault {
                conn: 1,
                dir: Direction::ServerToClient,
                offset: 2048,
                kind: ChaosKind::Tear,
            },
            FiredFault {
                conn: 1,
                dir: Direction::ClientToServer,
                offset: 99,
                kind: ChaosKind::Corrupt,
            },
        ]));
        let handle = ChaosHandle { shutdown: Arc::new(AtomicBool::new(false)), fired };
        let log = handle.fired_log();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "conn=1 dir=c2s cell=0 offset=99 kind=corrupt");
        assert_eq!(lines[1], "conn=1 dir=s2c cell=2 offset=2048 kind=tear");
        assert_eq!(lines[2], "conn=2 dir=c2s cell=0 offset=10 kind=dup");
    }
}
