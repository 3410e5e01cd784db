//! Turning simulation counters into energy totals.

use cache_sim::{AccessKind, Hierarchy};

use crate::cacti::EnergyModel;

/// Energy totals for one cache structure, in nJ.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureEnergy {
    /// Structure name ("dl1", "ul3", ...).
    pub name: String,
    /// Energy of all performed probes (hits + misses).
    pub probe_nj: f64,
    /// Energy of probes that missed — the waste the MNM eliminates
    /// (Figure 3's numerator).
    pub miss_probe_nj: f64,
    /// Energy of line fills.
    pub fill_nj: f64,
    /// Energy of write-back traffic this structure sent to its next level
    /// (charged as writes at the receiving cache).
    pub writeback_nj: f64,
}

impl StructureEnergy {
    /// Total energy charged to this structure.
    pub fn total_nj(&self) -> f64 {
        self.probe_nj + self.fill_nj + self.writeback_nj
    }
}

/// Energy breakdown of a whole cache system after a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEnergyBreakdown {
    /// Per-structure totals.
    pub structures: Vec<StructureEnergy>,
}

impl CacheEnergyBreakdown {
    /// Total cache energy (probes + fills), in nJ.
    pub fn total_nj(&self) -> f64 {
        self.structures.iter().map(StructureEnergy::total_nj).sum()
    }

    /// Energy of miss probes, in nJ.
    pub fn miss_probe_nj(&self) -> f64 {
        self.structures.iter().map(|s| s.miss_probe_nj).sum()
    }

    /// Fraction of the total cache energy spent on probes that missed
    /// (paper Figure 3).
    pub fn miss_fraction(&self) -> f64 {
        let total = self.total_nj();
        if total == 0.0 {
            0.0
        } else {
            self.miss_probe_nj() / total
        }
    }
}

/// Charge every probe and fill recorded in the hierarchy's statistics.
///
/// Bypassed probes cost nothing — that is exactly the serial MNM's saving
/// (paper §4.4).
pub fn account_hierarchy(hierarchy: &Hierarchy, model: &EnergyModel) -> CacheEnergyBreakdown {
    let stats = hierarchy.stats();
    let structures = hierarchy
        .structures()
        .iter()
        .map(|info| {
            let cfg = hierarchy.cache(info.id).config();
            let st = stats.structures[info.id.index()];
            let read = model.cache_read_energy(cfg);
            let write = model.cache_write_energy(cfg);
            // Writebacks are charged as writes at the next level on this
            // structure's path; the outermost level writes to memory,
            // which is not cache energy.
            let path = if info.instr_only {
                hierarchy.path(AccessKind::InstrFetch)
            } else {
                hierarchy.path(AccessKind::Load)
            };
            let next_write = path
                .iter()
                .position(|sid| *sid == info.id)
                .and_then(|pos| path.get(pos + 1))
                .map(|next| model.cache_write_energy(hierarchy.cache(*next).config()))
                .unwrap_or(0.0);
            StructureEnergy {
                name: info.name.clone(),
                probe_nj: st.probes as f64 * read,
                miss_probe_nj: st.misses as f64 * read,
                fill_nj: st.fills as f64 * write,
                writeback_nj: st.writebacks as f64 * next_write,
            }
        })
        .collect();
    CacheEnergyBreakdown { structures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{Access, BypassSet, HierarchyConfig};

    #[test]
    fn cold_misses_dominate_energy_on_cold_hierarchy() {
        let mut h = Hierarchy::new(HierarchyConfig::paper_five_level());
        for i in 0..64u64 {
            h.access(Access::load(i * 4096), &BypassSet::none());
        }
        let b = account_hierarchy(&h, &EnergyModel::default());
        // All probes missed, so miss fraction = probe share of total.
        assert!(b.miss_fraction() > 0.3, "fraction {}", b.miss_fraction());
        assert!(b.total_nj() > 0.0);
        assert_eq!(b.structures.len(), 7);
    }

    #[test]
    fn warm_hits_have_zero_miss_energy() {
        let mut h = Hierarchy::new(HierarchyConfig::paper_five_level());
        h.access(Access::load(0x100), &BypassSet::none());
        h.reset_stats();
        for _ in 0..100 {
            h.access(Access::load(0x100), &BypassSet::none());
        }
        let b = account_hierarchy(&h, &EnergyModel::default());
        assert_eq!(b.miss_probe_nj(), 0.0);
        assert!(b.total_nj() > 0.0);
        assert_eq!(b.miss_fraction(), 0.0);
    }

    #[test]
    fn bypasses_reduce_total_energy() {
        let cfg = HierarchyConfig::paper_five_level();
        let mut plain = Hierarchy::new(cfg.clone());
        let mut bypassing = Hierarchy::new(cfg);
        for i in 0..64u64 {
            let access = Access::load(i * 4096);
            plain.access(access, &BypassSet::none());
            let bypass = bypassing.dry_run_bypass(access);
            bypassing.access(access, &bypass);
        }
        let m = EnergyModel::default();
        let e_plain = account_hierarchy(&plain, &m).total_nj();
        let e_bypass = account_hierarchy(&bypassing, &m).total_nj();
        assert!(e_bypass < e_plain, "bypassing must save energy: {e_bypass} vs {e_plain}");
    }
}
