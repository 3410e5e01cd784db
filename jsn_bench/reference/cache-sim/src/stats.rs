//! Aggregate statistics collected by the hierarchy.

/// Counters for one cache structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StructureStats {
    /// Probes that reached the structure (hits + misses; bypasses excluded).
    pub probes: u64,
    /// Probes that found the block.
    pub hits: u64,
    /// Probes that did not find the block.
    pub misses: u64,
    /// Probes skipped because the caller's bypass set flagged a sure miss.
    pub bypasses: u64,
    /// Blocks installed (refills of already-resident blocks not counted).
    pub fills: u64,
    /// Blocks evicted to make room for fills.
    pub evictions: u64,
    /// Blocks removed by invalidation rather than replacement: inclusive
    /// back-invalidations from an outer level, or external coherence
    /// traffic (remote stores, shared-level replacements). Disjoint from
    /// `evictions`; `fills == evictions + invalidations + resident`.
    pub invalidations: u64,
    /// Dirty evictions (write-back) or propagated stores (write-through):
    /// write transactions sent toward the next level.
    pub writebacks: u64,
    /// Hits whose block sat in the MRU way of its set (an MRU
    /// way-predictor's correct predictions; related-work comparison).
    pub mru_hits: u64,
}

impl StructureStats {
    /// Hit rate over performed probes, in [0, 1]. Zero when never probed.
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes as f64
        }
    }

    /// Miss rate over performed probes, in [0, 1]. Zero when never probed.
    pub fn miss_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.misses as f64 / self.probes as f64
        }
    }

    /// Hit rate counting bypasses as (correctly predicted) misses: the
    /// fraction of *references* that found the block. This matches the
    /// paper's per-level hit-rate definition, which is a property of the
    /// reference stream, not of the MNM.
    pub fn reference_hit_rate(&self) -> f64 {
        let refs = self.probes + self.bypasses;
        if refs == 0 {
            0.0
        } else {
            self.hits as f64 / refs as f64
        }
    }
}

/// Counters for the whole hierarchy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierarchyStats {
    /// Per-structure counters, indexed by `StructureId::index()`.
    pub structures: Vec<StructureStats>,
    /// Total accesses driven through the hierarchy.
    pub accesses: u64,
    /// Instruction-side accesses.
    pub instr_accesses: u64,
    /// Data-side accesses (loads + stores).
    pub data_accesses: u64,
    /// Accesses ultimately supplied by main memory.
    pub memory_supplies: u64,
    /// Sum of per-access latencies (cycles).
    pub total_latency: u64,
    /// Sum of latency cycles spent probing structures that missed
    /// (the numerator of the paper's Figure 2 fraction).
    pub miss_latency: u64,
    /// Per-level supply counts, indexed by `level - 1`; the final entry is
    /// main memory.
    pub supplies_by_level: Vec<u64>,
}

impl HierarchyStats {
    pub(crate) fn new(num_structures: usize, num_levels: usize) -> Self {
        HierarchyStats {
            structures: vec![StructureStats::default(); num_structures],
            supplies_by_level: vec![0; num_levels + 1],
            ..Default::default()
        }
    }

    /// Mean data-access time in cycles over all accesses.
    pub fn mean_access_time(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.accesses as f64
        }
    }

    /// Fraction of total access latency spent determining misses
    /// (paper Figure 2).
    pub fn miss_time_fraction(&self) -> f64 {
        if self.total_latency == 0 {
            0.0
        } else {
            self.miss_latency as f64 / self.total_latency as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_probes() {
        let s = StructureStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.reference_hit_rate(), 0.0);
    }

    #[test]
    fn reference_hit_rate_counts_bypasses() {
        let s =
            StructureStats { probes: 50, hits: 40, misses: 10, bypasses: 50, ..Default::default() };
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
        assert!((s.reference_hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_fractions() {
        let mut h = HierarchyStats::new(2, 2);
        h.accesses = 10;
        h.total_latency = 100;
        h.miss_latency = 25;
        assert!((h.mean_access_time() - 10.0).abs() < 1e-12);
        assert!((h.miss_time_fraction() - 0.25).abs() < 1e-12);
    }
}
