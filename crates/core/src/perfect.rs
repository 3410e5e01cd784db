//! The perfect MNM oracle (paper §4.3).
//!
//! "The perfect MNM always knows where the data is and hence bypasses all
//! the caches that miss." It consumes no storage and no energy; it bounds
//! the achievable benefit of any realizable technique.

use cache_sim::{Access, BypassSet, Hierarchy};

/// Compute the bypass set a perfect MNM would produce for `access`:
/// every structure beyond L1 on the access path that does not hold the
/// block and sits before the supplying level.
///
/// Like the real techniques, the first level is never bypassed (the paper
/// does not predict L1 misses).
///
/// ```
/// use cache_sim::{Access, Hierarchy, HierarchyConfig};
/// use mnm_core::perfect_bypass;
///
/// let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
/// let access = Access::load(0x1000);
/// let bypass = perfect_bypass(&hier, access);
/// assert_eq!(bypass.len(), 4); // cold caches: L2..L5 all flagged
/// let r = hier.access(access, &bypass);
/// assert_eq!(r.misses, 1);     // only the un-bypassable L1 probe missed
/// ```
pub fn perfect_bypass(hierarchy: &Hierarchy, access: Access) -> BypassSet {
    hierarchy.dry_run_bypass(access)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::HierarchyConfig;

    #[test]
    fn perfect_bypass_is_exact() {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        // Warm one block.
        hier.access(Access::load(0x8000), &BypassSet::none());
        // Resident block: nothing to bypass.
        assert!(perfect_bypass(&hier, Access::load(0x8000)).is_empty());
        // Fresh block: all four outer levels flagged; the driven access
        // then misses only in L1.
        let access = Access::load(0x4_0000);
        let bypass = perfect_bypass(&hier, access);
        assert_eq!(bypass.len(), 4);
        let r = hier.access(access, &bypass);
        assert_eq!(r.misses, 1);
        assert_eq!(r.bypassed, 4);
        assert_eq!(r.latency, 2 + 320);
    }

    #[test]
    fn perfect_bypass_stops_at_the_supplier() {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        hier.access(Access::load(0x8000), &BypassSet::none());
        // Evict 0x8000 from the 4KB direct-mapped L1 (128 sets of 32B:
        // stride 4096 aliases).
        hier.access(Access::load(0x8000 + 4096), &BypassSet::none());
        // 0x8000 now hits in L2: the perfect MNM flags nothing.
        let bypass = perfect_bypass(&hier, Access::load(0x8000));
        assert!(bypass.is_empty());
    }
}
