//! # mnm-core — the Mostly No Machine
//!
//! Reproduction of the primary contribution of *"Just Say No: Benefits of
//! Early Cache Miss Determination"* (Memik, Reinman, Mangione-Smith,
//! HPCA 2003).
//!
//! The **Mostly No Machine (MNM)** sits next to a multi-level cache
//! hierarchy and, for every reference, determines whether the access will
//! *definitely miss* at each cache level beyond L1. Accesses that are known
//! to miss bypass the corresponding cache probes: the request travels
//! straight to the next level, saving latency (parallel MNM, in front of
//! L1) or probe energy (serial MNM, after an L1 miss).
//!
//! Every technique is **one-sided** (paper §3.6): a *miss* verdict is
//! guaranteed correct, while a *maybe* verdict requires a normal probe.
//! Debug builds of the companion [`cache_sim`] crate assert this contract
//! on every bypass; release builds count breaches in
//! `StructureStats::unsound_bypasses`.
//!
//! ## Techniques
//!
//! | Type | Paper § | Idea |
//! |------|---------|------|
//! | [`Rmnm`] | 3.1 | cache of recently **replaced** block addresses, one presence bit per cache structure |
//! | [`SmnmFilter`] | 3.2 | sum-of-squares hash **checkers** over address slices; set-only between flushes |
//! | [`TmnmFilter`] | 3.3 | tables of saturating **counters** indexed by address slices |
//! | [`CmnmFilter`](Cmnm) | 3.4 | **virtual-tag finder** over the high address bits feeding a counter table |
//! | [`hybrid`] (HMNM) | 3.5 | combinations of the above, different mixes per level group |
//!
//! The machine holds one filter per technique of each level group, with
//! one [`LaneFilter`] lane per guarded cache structure, so one probe
//! answers every structure the group guards.
//!
//! [`FilterPreset`] names the three configurations every experiment
//! compares (no filter, a real MNM, the perfect MNM of §4.3) and builds a
//! [`ReplayFilter`] that drives `Hierarchy::step` / `Hierarchy::run`.
//!
//! ## Quick example
//!
//! ```
//! use cache_sim::{Access, Hierarchy, HierarchyConfig};
//! use mnm_core::{Mnm, MnmConfig};
//!
//! let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
//! let mut mnm = Mnm::new(&hier, MnmConfig::hmnm(4));
//! for i in 0..1000u64 {
//!     mnm.run_access(&mut hier, Access::load((i % 64) * 32));
//! }
//! let cov = mnm.stats().coverage();
//! assert!((0.0..=1.0).contains(&cov));
//! ```

#![forbid(unsafe_code)]

mod block;
mod bloom;
mod cmnm;
mod config;
mod filter;
mod machine;
mod perfect;
mod preset;
mod rmnm;
mod smnm;
mod stats;
mod tmnm;

pub mod hybrid;

pub use block::Granularity;
pub use bloom::{BloomConfig, BloomFilter};
pub use cmnm::{Cmnm, CmnmConfig};
pub use config::{Assignment, MnmConfig, MnmPlacement, ParseConfigError, TechniqueConfig};
pub use filter::{FilterOccupancy, LaneFilter, MissFilter};
pub use machine::{ComponentStorage, FilterKind, Mnm};
pub use perfect::perfect_bypass;
pub use preset::{FilterPreset, ReplayFilter};
pub use rmnm::{Rmnm, RmnmConfig};
pub use smnm::{SmnmChecker, SmnmConfig, SmnmFilter};
pub use stats::{MnmStats, SlotStats};
pub use tmnm::{TmnmConfig, TmnmFilter, TmnmTable};
