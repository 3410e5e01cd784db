//! Coverage and activity statistics for the MNM.

/// Counters for one guarded cache structure: `flagged`,
/// `bypassable_misses`, `identified_misses`, `updates` and
/// `invalidations`.
///
/// A structure is asked about on every access whose path holds it, so
/// its query count is the hierarchy's instruction or data access count
/// for its side and is not kept here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Accesses on whose path this structure was flagged "definite miss".
    pub flagged: u64,
    /// Misses that occurred at this structure before the supplying level
    /// (the coverage denominator contribution).
    pub bypassable_misses: u64,
    /// Of those, the ones the MNM identified.
    pub identified_misses: u64,
    /// Filter state updates (placements + replacements + invalidations
    /// observed, after sub-block expansion).
    pub updates: u64,
    /// Of the updates, blocks retired by invalidation (inclusive
    /// back-invalidations or external coherence traffic) rather than by
    /// the replacement policy.
    pub invalidations: u64,
}

impl SlotStats {
    /// Coverage at this structure, in [0, 1].
    pub fn coverage(&self) -> f64 {
        if self.bypassable_misses == 0 {
            0.0
        } else {
            self.identified_misses as f64 / self.bypassable_misses as f64
        }
    }
}

/// Aggregate counters for the whole machine: `accesses`,
/// `accesses_with_flags` and the per-structure `slots`.
///
/// The shared RMNM, when configured, is searched once per access and
/// updated once per slot update, so its lookups equal `accesses` and its
/// updates the sum of the slots' `updates`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MnmStats {
    /// Accesses for which the machine was queried.
    pub accesses: u64,
    /// Accesses where at least one level was flagged.
    pub accesses_with_flags: u64,
    /// Per-structure counters, indexed by MNM slot.
    pub slots: Vec<SlotStats>,
}

impl MnmStats {
    pub(crate) fn new(num_slots: usize) -> Self {
        MnmStats { slots: vec![SlotStats::default(); num_slots], ..Default::default() }
    }

    /// Total bypassable misses observed (coverage denominator; paper §4.2:
    /// misses at levels beyond L1 that occur before the supplying level).
    pub fn bypassable_misses(&self) -> u64 {
        self.slots.iter().map(|s| s.bypassable_misses).sum()
    }

    /// Total misses the MNM identified (coverage numerator).
    pub fn identified_misses(&self) -> u64 {
        self.slots.iter().map(|s| s.identified_misses).sum()
    }

    /// The paper's coverage metric: identified misses over all bypassable
    /// misses, in [0, 1].
    pub fn coverage(&self) -> f64 {
        let total = self.bypassable_misses();
        if total == 0 {
            0.0
        } else {
            self.identified_misses() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_ratio_of_sums() {
        let mut st = MnmStats::new(2);
        st.slots[0] =
            SlotStats { bypassable_misses: 30, identified_misses: 30, ..Default::default() };
        st.slots[1] =
            SlotStats { bypassable_misses: 70, identified_misses: 20, ..Default::default() };
        assert!((st.coverage() - 0.5).abs() < 1e-12);
        assert!((st.slots[0].coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_misses_means_zero_coverage() {
        let st = MnmStats::new(3);
        assert_eq!(st.coverage(), 0.0);
        assert_eq!(st.slots[0].coverage(), 0.0);
    }
}
