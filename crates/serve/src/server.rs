//! The `jsn serve` daemon: a threaded TCP / unix-socket server that
//! runs one [`SessionCore`] per *session* — which, since protocol v2,
//! may span several connections.
//!
//! ## Threading and back-pressure
//!
//! Each accepted session gets two threads: a **reader** that pulls
//! frames off the socket and a **worker** that replays them. They are
//! joined by a *bounded* [`std::sync::mpsc::sync_channel`]: when the
//! worker falls behind, the channel fills, the reader blocks, the
//! kernel receive buffer fills, and the client's writes stall — classic
//! TCP back-pressure with a hard bound on per-session buffered memory
//! (`queue_frames × MAX_FRAME_BYTES` plus one in-flight frame). The
//! aggregate queued-frame count is exported as the `jsn_queue_depth`
//! gauge, and a hello arriving while the gauge is at or above
//! `shed_watermark` is **shed**: answered `STATUS_BUSY` with a
//! `retry_after_ms=` hint instead of admitted to a queue that is
//! already behind.
//!
//! Global memory is bounded by `max_sessions`: a hello past the cap is
//! answered with `STATUS_BUSY` and the connection closed.
//!
//! ## Deadlines: stall vs idle
//!
//! Two distinct read deadlines protect worker slots:
//!
//! * **stall** (`stall_timeout`) — the peer started a frame (or hello)
//!   and then made no byte progress. Always short: a wedged or
//!   maliciously slow peer.
//! * **idle** (`idle_timeout`) — the peer is between frames and simply
//!   sent nothing. May be longer: a client computing its next batch.
//!
//! Either deadline evicts the session: the slot is freed, the eviction
//! counter increments exactly once, and the session state is dropped —
//! an idle peer is indistinguishable from a dead one, so its state is
//! not worth parking.
//!
//! ## Resume and exactly-once accounting
//!
//! Every accepted session is issued a token; when a connection dies a
//! *retryable* death — reset, torn frame, CRC mismatch, corrupted
//! header — the session state (core, highest applied sequence number,
//! a bounded ring of recent summaries) is **parked** for up to
//! `resume_window`. A client reconnecting with the token gets back
//! `last_acked` in the hello reply and replays only frames after it;
//! frames at or below `last_acked` are re-acked from the summary ring
//! *without touching the replay state*. Applied and replayed frames are
//! counted separately, and the invariant
//! `frames_in == frames_applied + frames_replayed` is the
//! reconciliation check the drain snapshot (and the chaos soak's
//! `--verify`) relies on: every received frame was applied exactly once
//! or acknowledged as a duplicate, never both, never neither.
//!
//! Retryable deaths park; *authenticated* misbehavior — a frame that
//! passed its CRC but carries a sequence gap, ragged records, or a
//! frame type invalid for its direction — fails the session outright,
//! because a checksummed bad frame is a client bug, not wire damage.
//!
//! ## Shutdown
//!
//! SIGINT/SIGTERM (or [`ServerHandle::shutdown`]) stops the accept
//! loop; live sessions get up to `drain` to finish, are told
//! `server shutting down` in an `Error` frame otherwise, and the final
//! metrics page is flushed through the crash-safe `fsio` writer.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cache_sim::{Hierarchy, HierarchyConfig, StructureStats};
use trace_synth::rng::splitmix64;

use crate::metrics::{Registry, SessionGauge};
use crate::protocol::{
    encode_frame, encode_hello_reply, encode_hello_reply_ok, parse_frame_header,
    retry_after_detail, verify_frame_crc, FrameHeader, FrameType, WireError, FRAME_HEADER_BYTES,
    MAGIC, MAX_CONFIG_BYTES, MAX_FRAME_BYTES, STATUS_BUSY, STATUS_REJECTED, VERSION,
};
use crate::session::SessionCore;
use crate::signal;

/// Socket poll tick: reads time out this often so loops can check the
/// shutdown flag and stall budget.
const TICK: Duration = Duration::from_millis(50);

/// How many recent batch summaries a session keeps for re-acking
/// duplicate frames after a resume. Must exceed any sane client
/// pipeline window (slam's default is 4).
const SUMMARY_RING: usize = 64;

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address like `127.0.0.1:7227`.
    Tcp(String),
    /// A unix socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parse `unix:<path>` or `<host>:<port>`.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix endpoint needs a path: unix:/tmp/jsn.sock".to_string());
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if s.contains(':') {
            Ok(Endpoint::Tcp(s.to_string()))
        } else {
            Err(format!("endpoint `{s}` is neither unix:<path> nor <host>:<port>"))
        }
    }

    /// Connect to this endpoint. TCP connections turn Nagle off: every
    /// leg carries small pipelined frames, and with Nagle on one written
    /// while an earlier one is still unacknowledged waits for that ACK,
    /// which a peer with nothing to send delays by up to 40 ms.
    pub(crate) fn connect(&self) -> std::io::Result<Conn> {
        match self {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "{a}"),
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Server tuning knobs, all bounded.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent sessions; hellos past the cap get `STATUS_BUSY`.
    pub max_sessions: usize,
    /// Bounded frame-queue depth between reader and worker (≥ 1).
    pub queue_frames: usize,
    /// Evict a session making no byte progress *mid-frame* for this long.
    pub stall_timeout: Duration,
    /// Evict a session sending no new frame for this long.
    pub idle_timeout: Duration,
    /// How long a parked session survives awaiting resume.
    pub resume_window: Duration,
    /// Maximum parked sessions; past it the oldest (finished first) are
    /// expired to make room.
    pub max_parked: usize,
    /// Shed new hellos while `jsn_queue_depth` ≥ this watermark
    /// (`None` disables shedding; `Some(0)` sheds everything — useful
    /// in tests).
    pub shed_watermark: Option<u64>,
    /// The `retry_after_ms=` hint attached to BUSY replies.
    pub retry_after_ms: u64,
    /// How long shutdown waits for live sessions to finish.
    pub drain: Duration,
    /// Where to flush the final metrics snapshot on shutdown.
    pub snapshot_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            queue_frames: 32,
            stall_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            resume_window: Duration::from_secs(60),
            max_parked: 256,
            shed_watermark: None,
            retry_after_ms: 200,
            drain: Duration::from_secs(5),
            snapshot_path: None,
        }
    }
}

/// A live connection, TCP or unix.
pub enum Conn {
    /// TCP transport.
    Tcp(TcpStream),
    /// Unix-socket transport.
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    pub(crate) fn set_timeouts(&self, t: Duration) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_read_timeout(Some(t))?;
                s.set_write_timeout(Some(t))
            }
            Conn::Unix(s) => {
                s.set_read_timeout(Some(t))?;
                s.set_write_timeout(Some(t))
            }
        }
    }

    pub(crate) fn shutdown_both(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    /// Half-close: send FIN, keep the read side open. Lets a relay
    /// propagate end-of-stream downstream without tearing down the
    /// opposite direction of the same connection.
    pub(crate) fn shutdown_write(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound listening socket, TCP or unix.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Bind `endpoint`. A stale unix socket file from a previous run is
    /// removed first.
    pub(crate) fn bind(endpoint: &Endpoint) -> std::io::Result<Listener> {
        Ok(match endpoint {
            Endpoint::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr.as_str())?),
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                Listener::Unix(UnixListener::bind(path)?)
            }
        })
    }

    /// Accept one connection, with Nagle off on TCP (see
    /// [`Endpoint::connect`]).
    pub(crate) fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| {
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    pub(crate) fn set_nonblocking(&self, v: bool) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(v),
            Listener::Unix(l) => l.set_nonblocking(v),
        }
    }

    /// The bound TCP address (resolves port 0), or `configured` for unix
    /// sockets.
    pub(crate) fn local_endpoint(&self, configured: &Endpoint) -> Endpoint {
        match self {
            Listener::Tcp(l) => match l.local_addr() {
                Ok(a) => Endpoint::Tcp(a.to_string()),
                Err(_) => configured.clone(),
            },
            Listener::Unix(_) => configured.clone(),
        }
    }
}

/// The resumable state of one logical session, carried across
/// connections.
struct SessionState {
    /// The filter preset label the session was created with.
    label: String,
    /// The replay state, or what is left of it after `Finish`.
    phase: Phase,
    /// Highest `Records` sequence number applied.
    last_acked: u64,
    /// Recent `(seq, summary)` pairs for re-acking duplicates.
    ring: VecDeque<(u64, [u8; 48])>,
}

/// Whether a session still replays, or has served its final `Stats`.
enum Phase {
    /// The replay state itself.
    Live(Box<SessionCore>),
    /// The encoded final `Stats` payload, once `Finish` has been
    /// served — kept so a client that lost the reply can ask again.
    /// The replay state (megabytes of simulated caches and filters) is
    /// dropped: a finished tombstone only re-serves `Stats` and re-acks
    /// duplicates from the ring.
    Finished(Vec<u8>),
}

impl SessionState {
    fn new(label: String, core: SessionCore) -> SessionState {
        SessionState {
            label,
            phase: Phase::Live(Box::new(core)),
            last_acked: 0,
            ring: VecDeque::new(),
        }
    }

    fn is_finished(&self) -> bool {
        matches!(self.phase, Phase::Finished(_))
    }

    fn remember_summary(&mut self, seq: u64, summary: [u8; 48]) {
        if self.ring.len() >= SUMMARY_RING {
            self.ring.pop_front();
        }
        self.ring.push_back((seq, summary));
    }

    fn recall_summary(&self, seq: u64) -> [u8; 48] {
        // A duplicate older than the ring can only come from a client
        // rewinding further than it ever had in flight; ack it with a
        // zero-count summary — summaries are advisory, the final
        // `Stats` frame is the authoritative tally.
        self.ring
            .iter()
            .find(|(s, _)| *s == seq)
            .map(|(_, bytes)| *bytes)
            .unwrap_or_else(|| crate::protocol::encode_summary(seq, [0; 5]))
    }
}

struct Parked {
    state: SessionState,
    parked_at: Instant,
}

/// The parked-session table: token → resumable state, bounded in count
/// and in age.
struct Parking {
    table: Mutex<HashMap<u64, Parked>>,
    next_token: AtomicU64,
}

fn lock_table(m: &Mutex<HashMap<u64, Parked>>) -> std::sync::MutexGuard<'_, HashMap<u64, Parked>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Parking {
    fn new() -> Parking {
        Parking { table: Mutex::new(HashMap::new()), next_token: AtomicU64::new(1) }
    }

    /// A fresh nonzero session token.
    fn issue_token(&self) -> u64 {
        let t = splitmix64(self.next_token.fetch_add(1, Ordering::Relaxed));
        if t == 0 {
            1
        } else {
            t
        }
    }

    /// Drop entries older than `window`, charging `sessions_expired`.
    fn purge(&self, window: Duration, registry: &Registry) {
        let mut table = lock_table(&self.table);
        let before = table.len();
        table.retain(|_, p| p.parked_at.elapsed() <= window);
        let dropped = before - table.len();
        if dropped > 0 {
            registry.sessions_expired.fetch_add(dropped as u64, Ordering::Relaxed);
            registry.sessions_parked.fetch_sub(dropped as u64, Ordering::Relaxed);
        }
    }

    /// Park `state` under `token`. A full table expires finished
    /// tombstones first, then the oldest live entry.
    fn park(&self, token: u64, state: SessionState, config: &ServerConfig, registry: &Registry) {
        self.purge(config.resume_window, registry);
        let mut table = lock_table(&self.table);
        while table.len() >= config.max_parked.max(1) {
            let victim = table
                .iter()
                .min_by_key(|(_, p)| (!p.state.is_finished(), p.parked_at))
                .map(|(t, _)| *t);
            match victim {
                Some(t) => {
                    table.remove(&t);
                    registry.sessions_expired.fetch_add(1, Ordering::Relaxed);
                    registry.sessions_parked.fetch_sub(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        table.insert(token, Parked { state, parked_at: Instant::now() });
        registry.sessions_parked.fetch_add(1, Ordering::Relaxed);
    }

    /// Take the parked state for `token`, if it is still within the
    /// resume window.
    fn resume(&self, token: u64, window: Duration, registry: &Registry) -> Option<SessionState> {
        self.purge(window, registry);
        let taken = lock_table(&self.table).remove(&token);
        if taken.is_some() {
            registry.sessions_parked.fetch_sub(1, Ordering::Relaxed);
        }
        taken.map(|p| p.state)
    }
}

/// A handle for stopping a running server and reading its metrics.
#[derive(Clone)]
pub struct ServerHandle {
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Ask the server to drain and exit.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

/// The server: bind with [`Server::bind`], then block in [`Server::run`].
pub struct Server {
    listener: Listener,
    endpoint: Endpoint,
    config: ServerConfig,
    registry: Arc<Registry>,
    parking: Arc<Parking>,
    shutdown: Arc<AtomicBool>,
    next_session: Arc<AtomicU64>,
}

impl Server {
    /// Bind `endpoint`. A stale unix socket file from a previous run is
    /// removed first.
    pub fn bind(endpoint: Endpoint, config: ServerConfig) -> std::io::Result<Server> {
        let listener = Listener::bind(&endpoint)?;
        let hierarchy = Hierarchy::new(HierarchyConfig::paper_five_level());
        Ok(Server {
            listener,
            endpoint,
            config,
            registry: Arc::new(Registry::new(&hierarchy)),
            parking: Arc::new(Parking::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            next_session: Arc::new(AtomicU64::new(1)),
        })
    }

    /// The bound TCP address (resolves port 0), or the configured
    /// endpoint for unix sockets.
    pub fn local_endpoint(&self) -> Endpoint {
        self.listener.local_endpoint(&self.endpoint)
    }

    /// The bound TCP socket address, if TCP.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        }
    }

    /// A handle for shutdown and metrics access.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { registry: Arc::clone(&self.registry), shutdown: Arc::clone(&self.shutdown) }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::requested()
    }

    /// Accept sessions until shutdown, then drain and flush the final
    /// metrics snapshot.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutting_down() {
            match self.listener.accept() {
                Ok(conn) => {
                    let registry = Arc::clone(&self.registry);
                    let parking = Arc::clone(&self.parking);
                    let shutdown = Arc::clone(&self.shutdown);
                    let config = self.config.clone();
                    let id = self.next_session.fetch_add(1, Ordering::Relaxed);
                    workers.push(std::thread::spawn(move || {
                        handle_connection(conn, id, &registry, &parking, &config, &shutdown);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                    workers.retain(|w| !w.is_finished());
                }
                Err(e) => return Err(e),
            }
        }

        // Drain: sessions observe the shutdown flag within one tick.
        let deadline = Instant::now() + self.config.drain;
        while self.registry.sessions_active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        for w in workers {
            let _ = w.join();
        }

        if let Some(path) = &self.config.snapshot_path {
            let page = self.registry.render();
            mnm_experiments::fsio::write_artifact(path, page.as_bytes())?;
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Read exactly `buf.len()` bytes, tolerating short reads and socket
/// timeouts, charging bytes to the registry, respecting the shutdown
/// flag and two progress budgets: `idle` (if set) bounds the wait for
/// the *first* byte and times out as [`WireError::Idle`]; `stall`
/// bounds every inter-byte gap after progress has started.
#[allow(clippy::too_many_arguments)]
fn read_exact_budget(
    conn: &mut Conn,
    buf: &mut [u8],
    stall: Duration,
    idle: Option<Duration>,
    shutdown: &AtomicBool,
    registry: &Registry,
    clean_eof: bool,
    context: &'static str,
) -> Result<(), WireError> {
    let mut filled = 0usize;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        match conn.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && clean_eof {
                    WireError::Closed
                } else {
                    WireError::Torn { context }
                });
            }
            Ok(n) => {
                filled += n;
                registry.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) || signal::requested() {
                    return Err(WireError::Shutdown);
                }
                match idle {
                    Some(budget) if filled == 0 => {
                        if last_progress.elapsed() > budget {
                            return Err(WireError::Idle);
                        }
                    }
                    _ => {
                        if last_progress.elapsed() > stall {
                            return Err(WireError::Stalled);
                        }
                    }
                }
            }
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// One frame off the wire, CRC-verified. The wait for the frame's first
/// byte is bounded by `idle`, everything after by `stall`.
fn read_frame(
    conn: &mut Conn,
    stall: Duration,
    idle: Duration,
    shutdown: &AtomicBool,
    registry: &Registry,
) -> Result<(FrameHeader, Vec<u8>), WireError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    read_exact_budget(
        conn,
        &mut header,
        stall,
        Some(idle),
        shutdown,
        registry,
        true,
        "frame header",
    )?;
    let parsed = parse_frame_header(&header, MAX_FRAME_BYTES)?;
    let mut payload = vec![0u8; parsed.payload_len as usize];
    read_exact_budget(conn, &mut payload, stall, None, shutdown, registry, false, "frame payload")?;
    verify_frame_crc(&parsed, &payload)?;
    Ok((parsed, payload))
}

fn write_all_frame(
    conn: &mut Conn,
    frame_type: FrameType,
    payload: &[u8],
) -> Result<(), WireError> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    encode_frame(frame_type, payload, &mut buf);
    write_with_timeouts(conn, &buf)
}

/// `write_all` that tolerates the per-socket timeout a few times before
/// declaring the client stalled (a client that never reads its
/// summaries must not wedge a worker thread).
fn write_with_timeouts(conn: &mut Conn, mut buf: &[u8]) -> Result<(), WireError> {
    let mut stalls = 0;
    while !buf.is_empty() {
        match conn.write(buf) {
            Ok(0) => return Err(WireError::Torn { context: "write" }),
            Ok(n) => {
                buf = &buf[n..];
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                stalls += 1;
                if stalls > 100 {
                    return Err(WireError::Stalled);
                }
            }
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(())
}

enum ReaderMsg {
    Frame(FrameHeader, Vec<u8>),
    Failed(WireError),
}

/// How a session (this connection's slice of it) ended.
enum SessionEnd {
    /// `Finish` served for the first time: count a completion, park a
    /// finished tombstone so a lost `Stats` reply can be re-served.
    Completed,
    /// A finished tombstone re-served its `Stats`; nothing to recount.
    ReCompleted,
    /// Retryable wire failure: park the state for resume.
    Parked,
    /// Stall/idle deadline or shutdown drain: free the slot, drop the
    /// state.
    Evicted,
    /// Authenticated protocol violation: drop the state.
    Failed,
}

/// Is this reader error wire damage (parkable) rather than a deadline
/// or an authenticated client bug?
fn is_retryable(e: &WireError) -> bool {
    matches!(
        e,
        WireError::Closed
            | WireError::Torn { .. }
            | WireError::Io(_)
            | WireError::Crc { .. }
            | WireError::BadFrameType(_)
            | WireError::Oversize { .. }
    )
}

fn reject(conn: &mut Conn, registry: &Registry, detail: &str) {
    registry.protocol_errors.fetch_add(1, Ordering::Relaxed);
    registry.sessions_rejected.fetch_add(1, Ordering::Relaxed);
    let _ = write_with_timeouts(conn, &encode_hello_reply(STATUS_REJECTED, detail));
}

fn handle_connection(
    mut conn: Conn,
    id: u64,
    registry: &Arc<Registry>,
    parking: &Arc<Parking>,
    config: &ServerConfig,
    shutdown: &Arc<AtomicBool>,
) {
    if conn.set_timeouts(TICK).is_err() {
        return;
    }

    // Sniff the first four bytes: an HTTP GET serves the metrics page,
    // anything else must be a protocol hello.
    let mut head = [0u8; 4];
    if read_exact_budget(
        &mut conn,
        &mut head,
        config.stall_timeout,
        None,
        shutdown,
        registry,
        true,
        "hello magic",
    )
    .is_err()
    {
        return;
    }
    if &head == b"GET " {
        serve_metrics(&mut conn, config, shutdown, registry);
        return;
    }
    if head != MAGIC {
        reject(&mut conn, registry, &WireError::BadMagic(head).to_string());
        return;
    }

    // Version + config-label length. Reading only these four bytes
    // before the version check is what keeps mismatches clean in both
    // directions: every protocol version's hello starts this way, so a
    // v1 client is answered with a well-formed versioned rejection
    // instead of a decode failure — and never has its (shorter) hello
    // over-read.
    let mut fixed = [0u8; 4];
    if read_exact_budget(
        &mut conn,
        &mut fixed,
        config.stall_timeout,
        None,
        shutdown,
        registry,
        false,
        "hello header",
    )
    .is_err()
    {
        registry.protocol_errors.fetch_add(1, Ordering::Relaxed);
        registry.sessions_rejected.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let version = u16::from_le_bytes([fixed[0], fixed[1]]);
    let config_len = u16::from_le_bytes([fixed[2], fixed[3]]) as usize;
    if version != VERSION {
        reject(&mut conn, registry, &WireError::BadVersion { got: version }.to_string());
        return;
    }
    if config_len > MAX_CONFIG_BYTES {
        reject(&mut conn, registry, &format!("config label of {config_len} bytes is too long"));
        return;
    }
    let mut label_bytes = vec![0u8; config_len];
    if read_exact_budget(
        &mut conn,
        &mut label_bytes,
        config.stall_timeout,
        None,
        shutdown,
        registry,
        false,
        "hello config",
    )
    .is_err()
    {
        registry.protocol_errors.fetch_add(1, Ordering::Relaxed);
        registry.sessions_rejected.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let Ok(label) = String::from_utf8(label_bytes) else {
        reject(&mut conn, registry, "config label is not utf-8");
        return;
    };
    let mut token_bytes = [0u8; 8];
    if read_exact_budget(
        &mut conn,
        &mut token_bytes,
        config.stall_timeout,
        None,
        shutdown,
        registry,
        false,
        "hello token",
    )
    .is_err()
    {
        registry.protocol_errors.fetch_add(1, Ordering::Relaxed);
        registry.sessions_rejected.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let resume_token = u64::from_le_bytes(token_bytes);

    let (token, state) = if resume_token != 0 {
        // Resume: the client holds a token from an earlier connection.
        match parking.resume(resume_token, config.resume_window, registry) {
            Some(state) => (resume_token, state),
            None => {
                reject(&mut conn, registry, &WireError::BadToken.to_string());
                return;
            }
        }
    } else {
        // Admission control: a queue already at the watermark means
        // every admitted frame waits behind it — shed instead. Resumes
        // are exempt: they were already admitted once and shedding
        // them would strand parked state.
        if let Some(watermark) = config.shed_watermark {
            if registry.queue_depth.load(Ordering::Relaxed) >= watermark {
                registry.sessions_shed.fetch_add(1, Ordering::Relaxed);
                registry.sessions_rejected.fetch_add(1, Ordering::Relaxed);
                let _ = write_with_timeouts(
                    &mut conn,
                    &encode_hello_reply(
                        STATUS_BUSY,
                        &retry_after_detail("server shedding load", config.retry_after_ms),
                    ),
                );
                return;
            }
        }
        // Build the session before claiming a slot, so a bad label
        // never occupies one.
        match SessionCore::new(&label) {
            Ok(core) => (parking.issue_token(), SessionState::new(label.clone(), core)),
            Err(e) => {
                reject(&mut conn, registry, &e);
                return;
            }
        }
    };
    let resumed = resume_token != 0;

    // Claim a session slot under the global cap.
    let claimed = registry
        .sessions_active
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            if (n as usize) < config.max_sessions {
                Some(n + 1)
            } else {
                None
            }
        })
        .is_ok();
    if !claimed {
        registry.sessions_rejected.fetch_add(1, Ordering::Relaxed);
        let _ = write_with_timeouts(
            &mut conn,
            &encode_hello_reply(
                STATUS_BUSY,
                &retry_after_detail(
                    &format!("server at its {}-session cap", config.max_sessions),
                    config.retry_after_ms,
                ),
            ),
        );
        if resumed {
            // Don't strand the state the client will retry for.
            parking.park(token, state, config, registry);
        }
        return;
    }
    registry.sessions_accepted.fetch_add(1, Ordering::Relaxed);
    if resumed {
        registry.sessions_resumed.fetch_add(1, Ordering::Relaxed);
    }
    if write_with_timeouts(&mut conn, &encode_hello_reply_ok(token, state.last_acked)).is_err() {
        // The reply never arrived; park so the token (already held by a
        // resuming client) or nothing (a new client never learned the
        // token) is recoverable. New-session state at this point is
        // empty, so parking it is harmless either way.
        if resumed {
            parking.park(token, state, config, registry);
        } else {
            registry.sessions_failed.fetch_add(1, Ordering::Relaxed);
        }
        registry.sessions_active.fetch_sub(1, Ordering::SeqCst);
        return;
    }

    let was_finished = state.is_finished();
    let (end, state) = run_session(&mut conn, id, state, registry, config, shutdown);

    registry.remove_session_gauge(id);
    match end {
        SessionEnd::Completed => {
            registry.sessions_completed.fetch_add(1, Ordering::Relaxed);
            parking.park(token, state, config, registry);
        }
        SessionEnd::ReCompleted => {
            debug_assert!(was_finished);
            parking.park(token, state, config, registry);
        }
        SessionEnd::Parked => {
            parking.park(token, state, config, registry);
        }
        SessionEnd::Evicted => {
            registry.sessions_evicted.fetch_add(1, Ordering::Relaxed);
        }
        SessionEnd::Failed => {
            registry.sessions_failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    registry.sessions_active.fetch_sub(1, Ordering::SeqCst);
    conn.shutdown_both();
}

fn run_session(
    conn: &mut Conn,
    id: u64,
    mut state: SessionState,
    registry: &Arc<Registry>,
    config: &ServerConfig,
    shutdown: &Arc<AtomicBool>,
) -> (SessionEnd, SessionState) {
    let (tx, rx): (SyncSender<ReaderMsg>, Receiver<ReaderMsg>) =
        std::sync::mpsc::sync_channel(config.queue_frames.max(1));

    let reader_conn = match conn.try_clone() {
        Ok(c) => c,
        Err(e) => {
            let _ = write_all_frame(conn, FrameType::Error, e.to_string().as_bytes());
            return (SessionEnd::Failed, state);
        }
    };
    let reader = {
        let registry = Arc::clone(registry);
        let shutdown = Arc::clone(shutdown);
        let stall = config.stall_timeout;
        let idle = config.idle_timeout;
        std::thread::spawn(move || {
            let mut conn = reader_conn;
            loop {
                match read_frame(&mut conn, stall, idle, &shutdown, &registry) {
                    Ok((header, payload)) => {
                        // Gauge first, then the blocking send — the
                        // worker only ever decrements what was already
                        // counted. The send IS the back-pressure: a
                        // full queue stops the reader, and the kernel
                        // buffer stalls the client.
                        registry.queue_depth.fetch_add(1, Ordering::Relaxed);
                        if tx.send(ReaderMsg::Frame(header, payload)).is_err() {
                            registry.queue_depth.fetch_sub(1, Ordering::Relaxed);
                            return;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(ReaderMsg::Failed(e));
                        return;
                    }
                }
            }
        })
    };

    // Verdict deltas are computed against the stats at *connection*
    // start: on a resume this is the parked cumulative state, so the
    // global verdict counters never re-count work a previous
    // connection already reported.
    let mut prev: Vec<StructureStats> = match &state.phase {
        Phase::Live(core) => core.structure_stats().to_vec(),
        Phase::Finished(_) => Vec::new(),
    };
    let mut deltas: Vec<(u64, u64, u64)> = Vec::with_capacity(prev.len());
    let mut batch = Vec::new();
    // Once shutdown is observed the session may keep serving until the
    // drain budget runs out, then is told to go away.
    let mut drain_deadline: Option<Instant> = None;
    let end = loop {
        if shutdown.load(Ordering::SeqCst) || signal::requested() {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + config.drain);
            if Instant::now() >= deadline {
                let _ = write_all_frame(
                    conn,
                    FrameType::Error,
                    WireError::Shutdown.to_string().as_bytes(),
                );
                break SessionEnd::Evicted;
            }
        }
        match rx.recv_timeout(TICK) {
            Ok(ReaderMsg::Frame(header, payload)) => {
                registry.queue_depth.fetch_sub(1, Ordering::Relaxed);
                match header.frame_type {
                    FrameType::Records => {
                        let t0 = Instant::now();
                        batch.clear();
                        let (seq, records) =
                            match crate::protocol::decode_accesses(&payload, &mut batch) {
                                Ok(decoded) => decoded,
                                Err(e) => {
                                    // The frame passed its CRC, so this is
                                    // not wire damage: fail, don't park.
                                    registry.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                    let _ = write_all_frame(
                                        conn,
                                        FrameType::Error,
                                        e.to_string().as_bytes(),
                                    );
                                    break SessionEnd::Failed;
                                }
                            };
                        if seq <= state.last_acked {
                            // Duplicate from a resume replay: re-ack
                            // without touching the replay state —
                            // exactly-once is this branch.
                            registry.frames_in.fetch_add(1, Ordering::Relaxed);
                            registry.frames_replayed.fetch_add(1, Ordering::Relaxed);
                            let reply = state.recall_summary(seq);
                            if write_all_frame(conn, FrameType::Summary, &reply).is_err() {
                                break SessionEnd::Parked;
                            }
                            continue;
                        }
                        let core = match &mut state.phase {
                            Phase::Live(core) if seq == state.last_acked + 1 => core,
                            phase => {
                                let e = match phase {
                                    Phase::Finished(_) => {
                                        WireError::Unexpected("new records after finish")
                                    }
                                    Phase::Live(_) => {
                                        WireError::SeqGap { acked: state.last_acked, got: seq }
                                    }
                                };
                                registry.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                let _ = write_all_frame(
                                    conn,
                                    FrameType::Error,
                                    e.to_string().as_bytes(),
                                );
                                break SessionEnd::Failed;
                            }
                        };
                        let summary = core.feed_accesses(records, &batch);
                        if let Some((n, first)) = core.unsound() {
                            // A definite-miss verdict was wrong: refuse
                            // the frame's summary and end the session
                            // rather than serve or park a broken replay.
                            let msg = format!(
                                "unsound verdict: {n} bypasses of resident blocks, first in {first}"
                            );
                            let _ = write_all_frame(conn, FrameType::Error, msg.as_bytes());
                            break SessionEnd::Failed;
                        }
                        state.last_acked = seq;
                        registry.frames_in.fetch_add(1, Ordering::Relaxed);
                        registry.frames_applied.fetch_add(1, Ordering::Relaxed);
                        registry.records_in.fetch_add(records, Ordering::Relaxed);
                        registry.accesses.fetch_add(summary.accesses, Ordering::Relaxed);
                        deltas.clear();
                        for (now, before) in core.structure_stats().iter().zip(&prev) {
                            deltas.push((
                                now.hits - before.hits,
                                now.misses - before.misses,
                                now.bypasses - before.bypasses,
                            ));
                        }
                        registry.add_verdicts(&deltas);
                        prev.clear();
                        prev.extend_from_slice(core.structure_stats());
                        let occ = core.occupancy();
                        registry.set_session_gauge(
                            id,
                            SessionGauge {
                                config: state.label.clone(),
                                occupancy_tracked: occ.tracked,
                                occupancy_capacity: occ.capacity,
                                accesses: core.accesses(),
                            },
                        );
                        let reply = crate::protocol::encode_summary(
                            seq,
                            [
                                summary.accesses,
                                summary.total_latency,
                                summary.l1_hits,
                                summary.misses,
                                summary.bypassed,
                            ],
                        );
                        state.remember_summary(seq, reply);
                        if write_all_frame(conn, FrameType::Summary, &reply).is_err() {
                            break SessionEnd::Parked;
                        }
                        registry.latency.observe(t0.elapsed().as_micros() as u64);
                    }
                    FrameType::Finish => {
                        match &state.phase {
                            Phase::Finished(stats) => {
                                // A client that lost the first Stats
                                // reply asks again; serve the cached
                                // payload.
                                let _ = write_all_frame(conn, FrameType::Stats, stats);
                                break SessionEnd::ReCompleted;
                            }
                            Phase::Live(core) => {
                                // Even if the reply write fails, the
                                // session IS complete: the tombstone
                                // parked under Completed lets the
                                // client's retry re-fetch the cached
                                // Stats.
                                let stats = core.stats_wire().encode();
                                let _ = write_all_frame(conn, FrameType::Stats, &stats);
                                state.phase = Phase::Finished(stats);
                                break SessionEnd::Completed;
                            }
                        }
                    }
                    FrameType::Summary | FrameType::Stats | FrameType::Error => {
                        registry.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        let _ = write_all_frame(
                            conn,
                            FrameType::Error,
                            WireError::Unexpected("server-to-client frame type from a client")
                                .to_string()
                                .as_bytes(),
                        );
                        break SessionEnd::Failed;
                    }
                }
            }
            Ok(ReaderMsg::Failed(e)) => {
                if matches!(e, WireError::Crc { .. }) {
                    registry.crc_errors.fetch_add(1, Ordering::Relaxed);
                }
                break match e {
                    WireError::Stalled | WireError::Idle | WireError::Shutdown => {
                        let _ = write_all_frame(conn, FrameType::Error, e.to_string().as_bytes());
                        SessionEnd::Evicted
                    }
                    ref err if is_retryable(err) => {
                        registry.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        // Best effort: the socket may already be gone.
                        let _ = write_all_frame(conn, FrameType::Error, e.to_string().as_bytes());
                        SessionEnd::Parked
                    }
                    other => {
                        registry.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        let _ =
                            write_all_frame(conn, FrameType::Error, other.to_string().as_bytes());
                        SessionEnd::Failed
                    }
                };
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break SessionEnd::Failed,
        }
    };

    // Unblock and reap the reader: closing the socket fails its read.
    conn.shutdown_both();
    let _ = reader.join();
    // Frames the worker never consumed must not leak into the gauge.
    while let Ok(msg) = rx.try_recv() {
        if matches!(msg, ReaderMsg::Frame(..)) {
            registry.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
    }
    (end, state)
}

/// Serve `GET /metrics` (HTTP/1.0, close-delimited). The `GET ` prefix
/// has already been consumed.
fn serve_metrics(
    conn: &mut Conn,
    config: &ServerConfig,
    shutdown: &Arc<AtomicBool>,
    registry: &Arc<Registry>,
) {
    // Read the rest of the request head, bounded.
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    let deadline = Instant::now() + config.stall_timeout;
    while !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") && head.len() < 4096 {
        match conn.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => head.push(byte[0]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() > deadline
                    || shutdown.load(Ordering::SeqCst)
                    || signal::requested()
                {
                    return;
                }
            }
            Err(_) => return,
        }
    }
    let path =
        std::str::from_utf8(&head).ok().and_then(|s| s.split_whitespace().next()).unwrap_or("");
    let (status, body) = if path.starts_with("/metrics") {
        registry.scrapes.fetch_add(1, Ordering::Relaxed);
        ("200 OK", registry.render())
    } else {
        ("404 Not Found", format!("no such page `{path}`; scrape /metrics\n"))
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = write_with_timeouts(conn, response.as_bytes());
    conn.shutdown_both();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_tcp_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let conn = Listener::Tcp(listener).accept().unwrap();
        let Conn::Tcp(s) = &conn else { panic!("a tcp listener yields a tcp connection") };
        assert!(s.nodelay().unwrap(), "TCP_NODELAY set on the accepted socket");
        drop(client);
    }
}
