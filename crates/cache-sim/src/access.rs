//! Access descriptors, bypass sets and per-access results.

use crate::hierarchy::StructureId;

/// The kind of memory reference entering the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch; routed through the instruction-side path
    /// (L1-I, L2-I, then the unified levels).
    InstrFetch,
    /// Data read; routed through the data-side path.
    Load,
    /// Data write; routed through the data-side path (write-allocate).
    Store,
}

impl AccessKind {
    /// Whether this access travels the instruction-side path.
    pub fn is_instruction(self) -> bool {
        matches!(self, AccessKind::InstrFetch)
    }
}

/// A single reference presented to the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Byte address of the reference.
    pub addr: u64,
    /// Reference kind (instruction fetch, load, store).
    pub kind: AccessKind,
}

impl Access {
    /// Convenience constructor for a load at `addr`.
    pub fn load(addr: u64) -> Self {
        Access { addr, kind: AccessKind::Load }
    }

    /// Convenience constructor for a store at `addr`.
    pub fn store(addr: u64) -> Self {
        Access { addr, kind: AccessKind::Store }
    }

    /// Convenience constructor for an instruction fetch at `addr`.
    pub fn fetch(addr: u64) -> Self {
        Access { addr, kind: AccessKind::InstrFetch }
    }
}

/// The set of cache structures an access must *not* probe.
///
/// This models the per-level miss bits the MNM tags onto a request
/// (paper §2: "The i-th miss bit dictates whether the access should be
/// performed at level i, or whether the address should be bypassed to the
/// next cache level"). A bypassed structure contributes no latency and no
/// probe energy; the block is still filled into it on the refill path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BypassSet(u64);

impl BypassSet {
    /// The empty set: probe every level normally.
    pub fn none() -> Self {
        BypassSet(0)
    }

    /// Mark `structure` as "definitely a miss — do not probe".
    pub fn insert(&mut self, structure: StructureId) {
        debug_assert!(structure.index() < 64, "more than 64 cache structures");
        self.0 |= 1 << structure.index();
    }

    /// Whether `structure` must be bypassed.
    pub fn contains(self, structure: StructureId) -> bool {
        self.0 & (1 << structure.index()) != 0
    }

    /// Whether no structure is bypassed.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of structures marked for bypass.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }
}

impl FromIterator<StructureId> for BypassSet {
    fn from_iter<I: IntoIterator<Item = StructureId>>(iter: I) -> Self {
        let mut set = BypassSet::none();
        for s in iter {
            set.insert(s);
        }
        set
    }
}

/// What happened at one structure during an access walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The structure was probed and held the block.
    Hit,
    /// The structure was probed and did not hold the block.
    Miss,
    /// The structure was skipped because the caller's [`BypassSet`]
    /// declared it a definite miss.
    Bypassed,
}

/// One entry in the per-access probe trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeRecord {
    /// Which structure this record describes.
    pub structure: StructureId,
    /// Hierarchy level (1-based) of the structure.
    pub level: u8,
    /// Probe result.
    pub outcome: ProbeOutcome,
    /// Cycles this structure contributed to the access latency.
    pub latency: u64,
}

/// The result of driving one access through the hierarchy.
///
/// Deliberately `Copy` and allocation-free: the per-probe trail lives in
/// the caller's reusable [`ReplayScratch`](crate::ReplayScratch) (or the
/// hierarchy's internal scratch for
/// [`Hierarchy::access`](crate::Hierarchy::access)), not in the result, so
/// the replay hot path never allocates per access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// 1-based level that supplied the data. Equal to
    /// [`Hierarchy::memory_level`](crate::Hierarchy::memory_level) when main
    /// memory supplied it.
    pub supply_level: u8,
    /// Total data-access latency in cycles: miss-detect time of every level
    /// probed before the supplier, plus the supplier's hit time (paper
    /// Equation 1). Bypassed levels contribute zero.
    pub latency: u64,
    /// Number of structures that were probed and missed.
    pub misses: u32,
    /// Number of structures skipped via the bypass set.
    pub bypassed: u32,
    /// Number of structures beyond level 1 that were actually probed
    /// (hit or miss, not bypassed). Together with `bypassed` this gives the
    /// number of levels a distributed MNM is consulted at.
    pub probed_beyond_l1: u32,
}

impl AccessResult {
    /// Whether the access hit in the first-level cache.
    pub fn l1_hit(&self) -> bool {
        self.supply_level == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bypass_set_insert_contains() {
        let mut set = BypassSet::none();
        assert!(set.is_empty());
        set.insert(StructureId::new(3));
        assert!(set.contains(StructureId::new(3)));
        assert!(!set.contains(StructureId::new(2)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn bypass_set_from_iterator() {
        let set: BypassSet = [StructureId::new(1), StructureId::new(4)].into_iter().collect();
        assert_eq!(set.len(), 2);
        assert!(set.contains(StructureId::new(1)));
        assert!(set.contains(StructureId::new(4)));
        assert!(!set.contains(StructureId::new(0)));
    }

    #[test]
    fn access_constructors_set_kind() {
        assert_eq!(Access::load(8).kind, AccessKind::Load);
        assert_eq!(Access::store(8).kind, AccessKind::Store);
        assert_eq!(Access::fetch(8).kind, AccessKind::InstrFetch);
        assert!(AccessKind::InstrFetch.is_instruction());
        assert!(!AccessKind::Load.is_instruction());
    }
}
