//! # power-model
//!
//! Analytic per-access energy model for caches and MNM structures.
//!
//! The paper obtains cache energies from **CACTI 3.1** and SMNM checker
//! energies from Synopsys Design Compiler on RTL (Section 4.4). Neither
//! tool is redistributable, so this crate substitutes a CACTI-*style*
//! component model — decoder, wordline, bitline, sense amplifiers, tag
//! match, output drive, and inter-subarray routing — with constants set for
//! a 2003-era 0.18 µm process. Figures 3 and 16 report *fractions* and
//! *relative reductions*, so only the relative scaling (small MNM arrays
//! vs. large caches) must be faithful, which the component model preserves:
//! energy grows roughly with the square root of capacity via subarray
//! partitioning, exactly CACTI's qualitative behaviour.
//!
//! ```
//! use cache_sim::CacheConfig;
//! use power_model::EnergyModel;
//!
//! let m = EnergyModel::default();
//! let small = m.cache_read_energy(&CacheConfig::new("dl1", 4 * 1024, 1, 32, 2));
//! let large = m.cache_read_energy(&CacheConfig::new("ul5", 2 * 1024 * 1024, 8, 128, 70));
//! assert!(large > 4.0 * small);
//! ```

#![forbid(unsafe_code)]

mod accounting;
mod cacti;
mod mnm_energy;

pub use accounting::{account_hierarchy, CacheEnergyBreakdown, StructureEnergy};
pub use cacti::EnergyModel;
pub use mnm_energy::{mnm_access_energy, mnm_total_energy, MnmEnergy};
