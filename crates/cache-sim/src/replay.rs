//! Reusable per-access scratch buffers and the filter protocol.
//!
//! The replay hot path is deliberately **zero-allocation in steady state**:
//! every access needs somewhere to record its probe trail and the cache
//! events (fills/evictions) it caused, and allocating a fresh `Vec` per
//! access dominated the profile of long trace replays. [`ReplayScratch`]
//! owns both buffers and is cleared — not reallocated — between accesses.
//!
//! [`AccessFilter`] is the one per-access protocol every replay driver
//! speaks: [`Hierarchy::step`] and [`Hierarchy::run`] drive an access
//! stream through a hierarchy with a pluggable filter (the MNM, a perfect
//! oracle, or [`NoFilter`] for baselines) while the hierarchy's internal
//! scratch buffers are reused across the whole run.

use crate::access::{Access, AccessResult, BypassSet, ProbeRecord};
use crate::events::CacheEvent;
use crate::hierarchy::Hierarchy;

/// Reusable per-access buffers for probes and cache events.
///
/// Construct one per replay loop (or use [`Hierarchy::access`], which keeps
/// one internally) and pass it to
/// [`Hierarchy::access_with_events`](crate::Hierarchy::access_with_events);
/// the buffers are cleared on entry and hold that access's probe trail and
/// event stream afterwards. Capacity is retained across accesses, so after
/// the first few accesses the hot path performs no heap allocation.
#[derive(Debug, Default, Clone)]
pub struct ReplayScratch {
    pub(crate) probes: Vec<ProbeRecord>,
    pub(crate) events: Vec<CacheEvent>,
}

impl ReplayScratch {
    /// A fresh, empty scratch buffer.
    pub fn new() -> Self {
        ReplayScratch::default()
    }

    /// Clear both buffers, retaining capacity.
    pub fn clear(&mut self) {
        self.probes.clear();
        self.events.clear();
    }

    /// The probe trail of the most recent access, ordered from L1 outward,
    /// ending at the supplier (memory does not appear as a probe record).
    pub fn probes(&self) -> &[ProbeRecord] {
        &self.probes
    }

    /// Cache events (fills and the evictions they caused) of the most
    /// recent access, in placement order.
    pub fn events(&self) -> &[CacheEvent] {
        &self.events
    }
}

/// A per-access bypass decision source driving a replay.
///
/// Implementations decide, before each access, which structures the access
/// may skip ([`BypassSet`]), and observe the outcome afterwards to update
/// their own state. The MNM in `mnm-core` implements this; [`NoFilter`]
/// is the baseline that never bypasses.
///
/// `query` receives the hierarchy immutably so oracle filters (the paper's
/// perfect MNM, §4.3) can inspect actual cache contents.
pub trait AccessFilter {
    /// Decide which structures `access` may bypass.
    fn query(&mut self, hierarchy: &Hierarchy, access: Access) -> BypassSet;

    /// Observe the placement/replacement events the access caused.
    fn observe_events(&mut self, _hierarchy: &Hierarchy, _events: &[CacheEvent]) {}

    /// Observe the probe trail of the completed access.
    fn note_probes(&mut self, _access: Access, _probes: &[ProbeRecord]) {}

    /// Flush the caches *and* this filter's state in one step. The default
    /// suits stateless filters; stateful ones must clear themselves here —
    /// clearing only one side either leaves stale state (lossy) or flags
    /// still-resident blocks (unsound).
    fn flush_system(&mut self, hierarchy: &mut Hierarchy) {
        hierarchy.flush();
    }
}

/// The no-op filter: never bypasses, observes nothing. Baseline runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFilter;

impl AccessFilter for NoFilter {
    fn query(&mut self, _hierarchy: &Hierarchy, _access: Access) -> BypassSet {
        BypassSet::none()
    }
}

/// Accumulated outcome of a batch of accesses driven through
/// [`Hierarchy::run`].
///
/// The per-access [`AccessResult`]s fold into plain sums; drivers that
/// need the individual results should use [`Hierarchy::step`] instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Accesses driven.
    pub accesses: u64,
    /// Summed access latency in cycles.
    pub total_latency: u64,
    /// Accesses supplied by the first cache level.
    pub l1_hits: u64,
    /// Total probes that missed.
    pub misses: u64,
    /// Total probes skipped on a filter's definite-miss verdict.
    pub bypassed: u64,
}

impl BatchSummary {
    /// Fold one access outcome into the summary.
    #[inline]
    pub fn absorb(&mut self, result: AccessResult) {
        self.accesses += 1;
        self.total_latency += result.latency;
        self.l1_hits += u64::from(result.l1_hit());
        self.misses += u64::from(result.misses);
        self.bypassed += u64::from(result.bypassed);
    }

    /// Merge another summary (e.g. per-chunk summaries of one trace).
    pub fn merge(&mut self, other: BatchSummary) {
        self.accesses += other.accesses;
        self.total_latency += other.total_latency;
        self.l1_hits += other.l1_hits;
        self.misses += other.misses;
        self.bypassed += other.bypassed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;

    /// Counts what the protocol feeds back to a filter.
    #[derive(Default)]
    struct Recorder {
        queries: u64,
        events: usize,
        probes: usize,
    }

    impl AccessFilter for Recorder {
        fn query(&mut self, _hierarchy: &Hierarchy, _access: Access) -> BypassSet {
            self.queries += 1;
            BypassSet::none()
        }

        fn observe_events(&mut self, _hierarchy: &Hierarchy, events: &[CacheEvent]) {
            self.events = events.len();
        }

        fn note_probes(&mut self, _access: Access, probes: &[ProbeRecord]) {
            self.probes = probes.len();
        }
    }

    #[test]
    fn step_feeds_events_and_probes_back_to_the_filter() {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut rec = Recorder::default();
        let cold = hier.step(&mut rec, Access::load(0x4000));
        assert_eq!(cold.supply_level, hier.memory_level());
        assert!(cold.misses > 0);
        assert!(rec.probes > 0 && rec.events > 0);

        let warm = hier.step(&mut rec, Access::load(0x4000));
        assert!(warm.l1_hit());
        assert_eq!(rec.probes, 1);
        assert_eq!(rec.events, 0);
        assert_eq!(rec.queries, 2);
    }

    #[test]
    fn scratch_capacity_is_retained_across_accesses() {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut scratch = ReplayScratch::new();
        hier.access_with_events(Access::load(0x9000), &BypassSet::none(), &mut scratch);
        let probes_cap = scratch.probes.capacity();
        let events_cap = scratch.events.capacity();
        assert!(probes_cap > 0 && events_cap > 0);
        // A warm re-access clears but must not shrink the buffers.
        hier.access_with_events(Access::load(0x9000), &BypassSet::none(), &mut scratch);
        assert!(scratch.probes.capacity() >= probes_cap);
        assert!(scratch.events.capacity() >= events_cap);
    }

    #[test]
    fn run_matches_stepping_each_access() {
        let stream: Vec<Access> =
            (0..500u64).map(|i| Access::load((i * 0x9E37) % 0x8000)).collect();
        let mut stepped = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut expect = BatchSummary::default();
        for &a in &stream {
            expect.absorb(stepped.step(&mut NoFilter, a));
        }
        let mut batched = Hierarchy::new(HierarchyConfig::paper_five_level());
        let summary = batched.run(&mut NoFilter, &stream);
        assert_eq!(summary, expect);
        assert_eq!(summary.accesses, 500);
        assert_eq!(batched.stats(), stepped.stats());
    }
}
