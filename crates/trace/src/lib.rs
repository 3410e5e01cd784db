//! # trace-synth
//!
//! Deterministic synthetic workload generation for the HPCA 2003
//! *"Just Say No"* reproduction.
//!
//! The paper evaluates on 10 integer + 10 floating-point SPEC CPU2000
//! applications simulated with SimpleScalar. Neither the binaries nor the
//! reference inputs are redistributable, so this crate substitutes
//! **synthetic application profiles**: each of the 20 profiles (named after
//! its SPEC counterpart) composes
//!
//! * a set of weighted **data regions** with distinct locality models
//!   (hot/stack reuse, strided streaming, pointer chasing, uniform random),
//! * a **code-footprint model** producing the instruction-fetch address
//!   stream (loops, function calls, footprint size),
//! * an **instruction mix** (loads/stores/branches/int/fp), register
//!   **dependency distances**, and a branch **misprediction rate**.
//!
//! What the MNM and the cache hierarchy observe is only the block-address
//! stream and its locality structure; the profiles are tuned so the
//! per-level hit rates span the same qualitative range as the paper's
//! Table 2 (from tight-loop codes to `mcf`/`art`-like chasers and an
//! `apsi`-like large-code application).
//!
//! Everything is deterministic given the profile's seed.
//!
//! ```
//! use trace_synth::{profiles, Program};
//!
//! let profile = profiles::by_name("181.mcf").unwrap();
//! let mut program = Program::new(profile.clone());
//! let instrs: Vec<_> = (&mut program).take(1000).collect();
//! assert_eq!(instrs.len(), 1000);
//! // Deterministic: a fresh program replays identically.
//! let replay: Vec<_> = Program::new(profile.clone()).take(1000).collect();
//! assert_eq!(instrs, replay);
//! ```

#![forbid(unsafe_code)]

mod crc;
mod io;
mod program;
mod record;
mod regions;
mod stats;
mod stream;

pub mod profiles;
pub mod rng;
pub mod sharing;

pub use crc::{crc32, Crc32};
pub use io::{
    decode_record, encode_record, read_trace, record_tag_and_addr, write_trace, TraceIoError,
    RECORD_BYTES, TAG_BRANCH, TAG_LOAD, TAG_OP, TAG_STORE,
};
pub use program::{AppCategory, AppProfile, PhaseDrift, Program, RegionSpec};
pub use record::{Instr, InstrKind};
pub use regions::{Region, RegionKind};
pub use rng::Prng;
pub use sharing::{sharded_programs, SharedProgram, SharingSpec};
pub use stats::{characterize, TraceStats};
pub use stream::{FetchRule, MemRef, RefKind, RefStream};
