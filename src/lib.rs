//! # just-say-no
//!
//! A full reproduction of *"Just Say No: Benefits of Early Cache Miss
//! Determination"* (Memik, Reinman, Mangione-Smith, HPCA 2003) as a Rust
//! workspace. This facade crate re-exports the public API of every
//! sub-crate; see `README.md` for the architecture overview and
//! `DESIGN.md` for the experiment index.
//!
//! * [`mnm_core`] — the Mostly No Machine: RMNM, SMNM, TMNM, CMNM, HMNM
//!   filters and the machine that wires them to a hierarchy.
//! * [`cache_sim`] — the trace-driven multi-level cache hierarchy.
//! * [`trace_synth`] — 20 synthetic SPEC CPU2000-like workload profiles.
//! * [`ooo_model`] — the 8-way out-of-order timing model.
//! * [`power_model`] — the CACTI-style energy model.
//! * [`mnm_experiments`] — harness regenerating every table and figure.
//! * [`mnm_check`] — differential soundness checker (`jsn check`).
//! * [`mnm_serve`] — trace-stream replay service (`jsn serve` / `jsn slam`).
//! * [`mnm_shard`] — epoch-synchronized multi-core sharded simulation
//!   (`jsn shard`).
//!
//! ## Quickstart
//!
//! ```
//! use just_say_no::prelude::*;
//!
//! // The paper's 5-level hierarchy with the best hybrid MNM.
//! let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
//! let mut mnm = Mnm::new(&hier, MnmConfig::hmnm(4));
//!
//! // Drive a synthetic mcf-like workload through it.
//! let mut program = Program::new(profiles::by_name("181.mcf").unwrap());
//! for instr in (&mut program).take(50_000) {
//!     if let Some(addr) = instr.data_addr() {
//!         mnm.run_access(&mut hier, Access::load(addr));
//!     }
//! }
//! println!("coverage: {:.1}%", mnm.stats().coverage() * 100.0);
//! ```

pub use cache_sim;
pub use mnm_check;
pub use mnm_core;
pub use mnm_experiments;
pub use mnm_serve;
pub use mnm_shard;
pub use ooo_model;
pub use power_model;
pub use trace_synth;

/// The most common imports in one place.
pub mod prelude {
    pub use cache_sim::{
        Access, AccessKind, AccessResult, BypassSet, CacheConfig, Hierarchy, HierarchyConfig,
        LevelConfig,
    };
    pub use mnm_core::{FilterPreset, Mnm, MnmConfig, MnmPlacement, ReplayFilter};
    pub use ooo_model::{simulate, CpuConfig};
    pub use power_model::{account_hierarchy, mnm_total_energy, EnergyModel};
    pub use trace_synth::{profiles, AppProfile, Instr, InstrKind, Program};
}
