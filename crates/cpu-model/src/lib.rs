//! # ooo-model
//!
//! A dataflow out-of-order superscalar timing model, the stand-in for
//! SimpleScalar's `sim-outorder` in the HPCA 2003 *"Just Say No"*
//! reproduction (paper §4.1 simulates an 8-way processor with 5 cache
//! levels).
//!
//! The model schedules every dynamic instruction through fetch → dispatch
//! → issue → complete → commit with explicit resource constraints:
//!
//! * **fetch**: `fetch_width` per cycle, charged the I-side cache latency
//!   on every fetch-block transition (through the full hierarchy and, when
//!   present, the MNM), stalled by branch-mispredict redirects;
//! * **window**: an instruction cannot be fetched until the instruction
//!   `window_size` older has committed (the RUU of SimpleScalar);
//! * **issue**: `issue_width` ports, dataflow-ready at the completion of
//!   both producers (dependency distances from the trace);
//! * **memory**: loads access the data-side hierarchy non-blocking, with at
//!   most `lsq_size` memory operations in flight (MLP limit); stores
//!   write-allocate but retire without stalling;
//! * **commit**: `commit_width` per cycle, in order.
//!
//! This is not a structural pipeline simulator; it is the standard
//! dataflow/resource approximation, which preserves exactly what Figure 15
//! measures — how much shorter memory latencies (from MNM bypassing)
//! shrink total execution cycles once filtered through ILP, MLP and
//! resource limits.

#![forbid(unsafe_code)]

mod config;
mod pipeline;
mod stats;

pub use config::{CpuConfig, LoadSpeculation};
pub use pipeline::simulate;
pub use stats::CpuStats;
