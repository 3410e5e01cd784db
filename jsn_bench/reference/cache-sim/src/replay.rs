//! Reusable per-access scratch buffers and the streaming replay session.
//!
//! The replay hot path is deliberately **zero-allocation in steady state**:
//! every access needs somewhere to record its probe trail and the cache
//! events (fills/evictions) it caused, and allocating a fresh `Vec` per
//! access dominated the profile of long trace replays. [`ReplayScratch`]
//! owns both buffers and is cleared — not reallocated — between accesses.
//!
//! [`ReplaySession`] packages the common replay loop: an access stream is
//! driven through a [`Hierarchy`] with a pluggable [`AccessFilter`]
//! (the MNM, a perfect oracle, or [`NoFilter`] for baselines) while the
//! scratch buffers are reused across the whole run.

use crate::access::{Access, AccessResult, BypassSet, ProbeOutcome, ProbeRecord};
use crate::events::CacheEvent;
use crate::hierarchy::{Hierarchy, StructureId};

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

    /// Structures the most recent access probed and missed in.
    pub fn missed_structures(&self) -> impl Iterator<Item = StructureId> + '_ {
        self.probes.iter().filter(|p| p.outcome == ProbeOutcome::Miss).map(|p| p.structure)
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
}

/// The no-op filter: never bypasses, observes nothing. Baseline runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFilter;

impl AccessFilter for NoFilter {
    fn query(&mut self, _hierarchy: &Hierarchy, _access: Access) -> BypassSet {
        BypassSet::none()
    }
}

impl<F: AccessFilter + ?Sized> AccessFilter for &mut F {
    fn query(&mut self, hierarchy: &Hierarchy, access: Access) -> BypassSet {
        (**self).query(hierarchy, access)
    }

    fn observe_events(&mut self, hierarchy: &Hierarchy, events: &[CacheEvent]) {
        (**self).observe_events(hierarchy, events);
    }

    fn note_probes(&mut self, access: Access, probes: &[ProbeRecord]) {
        (**self).note_probes(access, probes);
    }
}

/// Accumulated outcome of a batch of accesses driven through
/// [`ReplaySession::process_many`] (or `Mnm::run_many` in `mnm-core`).
///
/// The per-access [`AccessResult`]s fold into plain sums; batch drivers
/// that need the individual results should step the session instead.
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

/// A streaming replay of an access trace through a hierarchy and filter,
/// reusing one [`ReplayScratch`] for the whole run.
///
/// ```
/// use cache_sim::{Access, Hierarchy, HierarchyConfig, NoFilter, ReplaySession};
///
/// let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
/// let mut session = ReplaySession::new(&mut hier, NoFilter);
/// for addr in [0x1000u64, 0x1040, 0x1000] {
///     session.step(Access::load(addr));
/// }
/// assert_eq!(session.accesses(), 3);
/// ```
#[derive(Debug)]
pub struct ReplaySession<'h, F> {
    hierarchy: &'h mut Hierarchy,
    filter: F,
    scratch: ReplayScratch,
    accesses: u64,
}

impl<'h, F: AccessFilter> ReplaySession<'h, F> {
    /// Start a session over `hierarchy` driven by `filter`.
    pub fn new(hierarchy: &'h mut Hierarchy, filter: F) -> Self {
        ReplaySession { hierarchy, filter, scratch: ReplayScratch::new(), accesses: 0 }
    }

    /// Drive one access: query the filter, walk the hierarchy, feed the
    /// outcome back to the filter. No per-access heap allocation.
    pub fn step(&mut self, access: Access) -> AccessResult {
        let bypass = self.filter.query(self.hierarchy, access);
        let result = self.hierarchy.access_with_events(access, &bypass, &mut self.scratch);
        self.filter.observe_events(self.hierarchy, &self.scratch.events);
        self.filter.note_probes(access, &self.scratch.probes);
        self.accesses += 1;
        result
    }

    /// Drive a batch of accesses through the session, folding the
    /// outcomes into one [`BatchSummary`]. Identical protocol and state
    /// evolution as calling [`ReplaySession::step`] per access — the batch
    /// form exists so trace drivers can hand the replay loop a whole chunk
    /// at a time (one call per chunk instead of one per access) without
    /// touching per-access results they would only sum anyway.
    pub fn process_many(&mut self, accesses: &[Access]) -> BatchSummary {
        let mut summary = BatchSummary::default();
        for &access in accesses {
            let bypass = self.filter.query(self.hierarchy, access);
            let result = self.hierarchy.access_with_events(access, &bypass, &mut self.scratch);
            self.filter.observe_events(self.hierarchy, &self.scratch.events);
            self.filter.note_probes(access, &self.scratch.probes);
            summary.absorb(result);
        }
        self.accesses += summary.accesses;
        summary
    }

    /// Number of accesses driven so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Scratch state of the most recent access (probe trail and events).
    pub fn last(&self) -> &ReplayScratch {
        &self.scratch
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        self.hierarchy
    }

    /// The filter.
    pub fn filter(&self) -> &F {
        &self.filter
    }

    /// The filter, mutably (e.g. to reset its statistics mid-run).
    pub fn filter_mut(&mut self) -> &mut F {
        &mut self.filter
    }

    /// End the session, returning the filter.
    pub fn into_filter(self) -> F {
        self.filter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;

    #[test]
    fn session_replays_and_reports_probes() {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut session = ReplaySession::new(&mut hier, NoFilter);
        let cold = session.step(Access::load(0x4000));
        assert_eq!(cold.supply_level, session.hierarchy().memory_level());
        assert!(!session.last().probes().is_empty());
        assert!(!session.last().events().is_empty());
        assert!(session.last().missed_structures().count() > 0);

        let warm = session.step(Access::load(0x4000));
        assert!(warm.l1_hit());
        assert_eq!(session.last().probes().len(), 1);
        assert!(session.last().events().is_empty());
        assert_eq!(session.accesses(), 2);
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
    fn filter_by_mut_ref_also_works() {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut filter = NoFilter;
        let mut session = ReplaySession::new(&mut hier, &mut filter);
        session.step(Access::fetch(0x100));
        assert_eq!(session.accesses(), 1);
    }
}
