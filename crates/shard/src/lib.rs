//! # mnm-shard
//!
//! Multi-core sharded simulation for the *"Just Say No"* (HPCA 2003)
//! reproduction: N cores, each owning a private L1/L2 hierarchy **and**
//! its own MNM filter state, sharing one L3, driven by an
//! epoch-synchronized replay loop so an N-core simulation actually uses
//! N host cores.
//!
//! The interesting part is keeping the *filters* coherent, not just the
//! caches: cross-core stores and shared-L3 replacements remove blocks
//! from remote private caches, and every removal flows into the remote
//! core's filters through the `Invalidated` event path — a blocked
//! filter update here would leave a filter believing a block is still
//! resident (harmless) or, worse, un-counted state that drifts from the
//! cache. The default engine is **pipelined**: a dedicated resolver
//! thread drains epoch E's shared-L3 queues while the cores already
//! compute epoch E+1, handing off over per-core bounded channels. See
//! the private `sim` module for the execution model, the
//! frozen-view soundness argument, and the two engines (pipelined /
//! single) whose reports are bit-identical by contract.
//!
//! ```
//! use mnm_core::MnmConfig;
//! use mnm_shard::{sharded_streams, ShardConfig, ShardedSim};
//! use trace_synth::{profiles, sharing::SharingSpec};
//!
//! let config = ShardConfig::new(2, MnmConfig::parse("CMNM_8_12").unwrap());
//! let mut spec = SharingSpec::new(2);
//! spec.sharing_ratio = 0.5;
//! let profile = profiles::by_name("181.mcf").unwrap();
//! let streams = sharded_streams(&profile, &spec, 5_000, config.l1.block_bytes);
//! let mut sim = ShardedSim::new(config, streams);
//! let report = sim.run_single_threaded();
//! assert_eq!(report.total_unsound(), 0);
//! ```

#![forbid(unsafe_code)]

mod config;
mod report;
mod sim;
mod stream;
mod tune;

pub use config::ShardConfig;
pub use report::{CoreReport, ShardReport, ShardTiming};
pub use sim::{Engine, L3Outcome, ShardObserver, ShardedSim};
pub use stream::sharded_streams;
pub use tune::{autotune_epoch, TunePoint, EPOCH_CANDIDATES};
