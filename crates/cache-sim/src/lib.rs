//! # cache-sim
//!
//! A trace-driven, multi-level cache hierarchy simulator.
//!
//! This crate is the simulation substrate for the reproduction of
//! *"Just Say No: Benefits of Early Cache Miss Determination"* (HPCA 2003).
//! It models the cache system of a processor with an arbitrary number of
//! cache levels — split instruction/data caches at the lower levels and
//! unified caches above — and exposes exactly the hooks the paper's
//! *Mostly No Machine* (MNM) needs:
//!
//! * a **placement/replacement event stream** ([`CacheEvent`]) emitted for
//!   every block that enters or leaves any cache structure, which the MNM
//!   uses for its bookkeeping (paper §2);
//! * **probe-level bypass**: the caller can declare, per access, a set of
//!   structures that must not be probed ([`BypassSet`]), modelling the miss
//!   tags the MNM attaches to requests (paper §2);
//! * per-access **latency accounting** following the paper's Equation 1
//!   (hit time of the supplying level plus miss-detect time of every level
//!   probed before it).
//!
//! The hierarchy is **non-inclusive** (paper §3: "The techniques do not
//! assume the inclusion property of caches"): on a fill, the block is
//! installed in every structure on the access path below the supplier, and
//! evictions at one level do not invalidate other levels. An optional
//! inclusive mode exists for ablation studies.
//!
//! ## Quick example
//!
//! ```
//! use cache_sim::{Hierarchy, HierarchyConfig, Access, AccessKind, BypassSet};
//!
//! // The paper's 5-level configuration (Section 4.1).
//! let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
//! let res = hier.access(Access::load(0x2ff4), &BypassSet::none());
//! assert_eq!(res.supply_level, hier.memory_level()); // cold miss: memory supplies
//! assert!(res.latency > 0);
//! ```

#![forbid(unsafe_code)]

mod access;
mod cache;
mod config;
mod events;
mod hierarchy;
mod replacement;
mod replay;
mod stats;

pub use access::{Access, AccessKind, AccessResult, BypassSet, ProbeOutcome, ProbeRecord};
pub use cache::{Cache, Eviction};
pub use config::{CacheConfig, ConfigError, HierarchyConfig, LevelConfig, WritePolicy};
pub use events::{BlockRun, CacheEvent, EventKind};
pub use hierarchy::{Hierarchy, StructureId, StructureInfo};
pub use replacement::ReplacementPolicy;
pub use replay::{AccessFilter, BatchSummary, NoFilter, ReplayScratch};
pub use stats::{HierarchyStats, StructureStats};
