//! # mnm-serve — a long-running trace-stream replay service
//!
//! Turns the batch replay machinery of this workspace into a daemon:
//! `jsn serve` listens on TCP or a unix socket, gives every connection
//! its own cache hierarchy plus miss-filter preset, and replays the
//! trace records the client streams at it, answering each frame with a
//! batch summary. `GET /metrics` on the same port serves a live
//! Prometheus-style page: verdict histograms (hit / maybe-miss /
//! definite-miss per structure), request-latency percentiles, filter
//! occupancy and session counters.
//!
//! `jsn slam` is the companion load generator: N concurrent synthetic
//! sessions, deterministic per-seed, with an offline-verification mode
//! that proves the served verdict counts are bit-identical to a local
//! replay — the service path *is* the replay path ([`SessionCore`] is
//! shared by both).
//!
//! Module map:
//!
//! * [`protocol`] — wire format: hello, CRC-framed records, bounded decode
//! * [`session`] — per-connection replay state ([`SessionCore`])
//! * [`metrics`] — shared counters + scrape-page rendering
//! * [`server`] — accept loop, back-pressure, resume parking, shedding
//! * [`slam`] — load generator: retry/resume client + verification
//! * [`chaos`] — deterministic network-fault proxy (`jsn chaos`)
//! * [`signal`] — std-only SIGINT/SIGTERM flag

#![warn(missing_docs)]

pub mod chaos;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod session;
pub mod signal;
pub mod slam;

pub use chaos::{ChaosHandle, ChaosOptions, ChaosPlan, ChaosProxy};
pub use metrics::{Registry, SessionGauge};
pub use protocol::{FrameType, SessionStatsWire, WireError, MAX_FRAME_BYTES, VERSION};
pub use server::{Endpoint, Server, ServerConfig, ServerHandle};
pub use session::SessionCore;
pub use slam::{run_slam, SlamOptions, SlamReport};
