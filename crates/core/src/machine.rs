//! The Mostly No Machine: technique filters wired to a cache hierarchy.

use cache_sim::{
    Access, AccessFilter, AccessResult, BatchSummary, BypassSet, CacheEvent, EventKind, Hierarchy,
    ProbeOutcome, ProbeRecord, StructureId,
};

use crate::block::Granularity;
use crate::bloom::BloomFilter;
use crate::cmnm::Cmnm;
use crate::config::{MnmConfig, MnmPlacement, TechniqueConfig};
use crate::filter::MissFilter;
use crate::rmnm::Rmnm;
use crate::smnm::SmnmFilter;
use crate::stats::MnmStats;
use crate::tmnm::TmnmFilter;

/// One per-structure filter technique, dispatched statically.
///
/// The machine's hot query loop matches on this enum instead of calling
/// through a `Box<dyn MissFilter>` vtable, so each technique's
/// `is_definite_miss` inlines into [`Mnm::query`]. The [`MissFilter`]
/// trait still exists — and `FilterKind` implements it — because the
/// checker and fault-injection surface (`crates/check`) deliberately talk
/// to filters through the object-safe trait: the fault hooks must work
/// uniformly over any filter, including test doubles the checker defines
/// for itself, and none of that code is performance-sensitive.
#[derive(Debug, Clone)]
pub enum FilterKind {
    /// Sum-hash checkers (paper §3.2).
    Smnm(SmnmFilter),
    /// Saturating-counter tables (paper §3.3).
    Tmnm(TmnmFilter),
    /// Virtual-tag finder + counter table (paper §3.4).
    Cmnm(Cmnm),
    /// Counting Bloom filter (related work).
    Bloom(BloomFilter),
}

impl FilterKind {
    /// Instantiate the technique `config` describes.
    pub fn build(config: TechniqueConfig) -> Self {
        match config {
            TechniqueConfig::Smnm(c) => FilterKind::Smnm(SmnmFilter::new(c)),
            TechniqueConfig::Tmnm(c) => FilterKind::Tmnm(TmnmFilter::new(c)),
            TechniqueConfig::Cmnm(c) => FilterKind::Cmnm(Cmnm::new(c)),
            TechniqueConfig::Bloom(c) => FilterKind::Bloom(BloomFilter::new(c)),
        }
    }

    /// Statically dispatched [`MissFilter::is_definite_miss`] — the hot
    /// probe.
    #[inline]
    pub fn is_definite_miss(&self, block: u64) -> bool {
        match self {
            FilterKind::Smnm(f) => MissFilter::is_definite_miss(f, block),
            FilterKind::Tmnm(f) => MissFilter::is_definite_miss(f, block),
            FilterKind::Cmnm(f) => MissFilter::is_definite_miss(f, block),
            FilterKind::Bloom(f) => MissFilter::is_definite_miss(f, block),
        }
    }

    /// Statically dispatched [`MissFilter::on_place`].
    #[inline]
    pub fn on_place(&mut self, block: u64) {
        match self {
            FilterKind::Smnm(f) => MissFilter::on_place(f, block),
            FilterKind::Tmnm(f) => MissFilter::on_place(f, block),
            FilterKind::Cmnm(f) => MissFilter::on_place(f, block),
            FilterKind::Bloom(f) => MissFilter::on_place(f, block),
        }
    }

    /// Statically dispatched [`MissFilter::on_replace`].
    #[inline]
    pub fn on_replace(&mut self, block: u64) {
        match self {
            FilterKind::Smnm(f) => MissFilter::on_replace(f, block),
            FilterKind::Tmnm(f) => MissFilter::on_replace(f, block),
            FilterKind::Cmnm(f) => MissFilter::on_replace(f, block),
            FilterKind::Bloom(f) => MissFilter::on_replace(f, block),
        }
    }

    /// Statically dispatched [`MissFilter::on_invalidate`] — the
    /// `FilterInvalidate` path. Every family retires the block exactly as
    /// it would a replacement victim (for the set-only SMNM that is a
    /// deliberate no-op); soundness rests on the caller only reporting
    /// blocks that were actually removed.
    #[inline]
    pub fn on_invalidate(&mut self, block: u64) {
        match self {
            FilterKind::Smnm(f) => MissFilter::on_invalidate(f, block),
            FilterKind::Tmnm(f) => MissFilter::on_invalidate(f, block),
            FilterKind::Cmnm(f) => MissFilter::on_invalidate(f, block),
            FilterKind::Bloom(f) => MissFilter::on_invalidate(f, block),
        }
    }

    /// The wrapped filter as a [`MissFilter`] trait object (checker and
    /// fault-surface plumbing).
    pub fn as_miss_filter(&self) -> &dyn MissFilter {
        match self {
            FilterKind::Smnm(f) => f,
            FilterKind::Tmnm(f) => f,
            FilterKind::Cmnm(f) => f,
            FilterKind::Bloom(f) => f,
        }
    }

    /// Mutable form of [`FilterKind::as_miss_filter`].
    pub fn as_miss_filter_mut(&mut self) -> &mut dyn MissFilter {
        match self {
            FilterKind::Smnm(f) => f,
            FilterKind::Tmnm(f) => f,
            FilterKind::Cmnm(f) => f,
            FilterKind::Bloom(f) => f,
        }
    }
}

impl MissFilter for FilterKind {
    fn on_place(&mut self, block: u64) {
        FilterKind::on_place(self, block);
    }

    fn on_replace(&mut self, block: u64) {
        FilterKind::on_replace(self, block);
    }

    fn on_invalidate(&mut self, block: u64) {
        FilterKind::on_invalidate(self, block);
    }

    fn is_definite_miss(&self, block: u64) -> bool {
        FilterKind::is_definite_miss(self, block)
    }

    fn flush(&mut self) {
        self.as_miss_filter_mut().flush();
    }

    fn storage_bits(&self) -> u64 {
        self.as_miss_filter().storage_bits()
    }

    fn label(&self) -> &str {
        self.as_miss_filter().label()
    }

    fn reserve(&mut self, max_live_blocks: usize) {
        self.as_miss_filter_mut().reserve(max_live_blocks);
    }

    fn state_bits(&self) -> u64 {
        self.as_miss_filter().state_bits()
    }

    fn flip_state_bit(&mut self, bit: u64) -> bool {
        self.as_miss_filter_mut().flip_state_bit(bit)
    }

    fn state_bit_of(&self, block: u64) -> Option<u64> {
        self.as_miss_filter().state_bit_of(block)
    }

    fn occupancy(&self) -> crate::filter::FilterOccupancy {
        self.as_miss_filter().occupancy()
    }
}

#[derive(Debug)]
struct Slot {
    structure: StructureId,
    level: u8,
    name: String,
    filters: Vec<FilterKind>,
    /// MNM blocks currently resident in the guarded structure, maintained
    /// exactly from the event stream (placements add, replacements and
    /// invalidations retire; the hierarchy only reports actual state
    /// changes). Backs [`Mnm::occupancy`] with a block count independent
    /// of how many member filters a hybrid stacks on the slot.
    live_blocks: u64,
    /// Capacity of the guarded structure in MNM blocks.
    capacity_blocks: u64,
}

/// Apply one cache event's MNM sub-blocks to slot `si`, in order: for
/// each sub-block, `filter_op` on every filter of the slot, then `rmnm_op`
/// on the shared RMNM. Generic over the two operations, so each event
/// kind compiles to its own loop with the calls inlined. Returns the
/// number of sub-blocks.
#[inline(always)]
fn feed(
    blocks: impl Iterator<Item = u64>,
    si: usize,
    slot: &mut Slot,
    mut rmnm: Option<&mut Rmnm>,
    filter_op: impl Fn(&mut FilterKind, u64),
    rmnm_op: impl Fn(&mut Rmnm, usize, u64),
) -> u64 {
    let mut n = 0;
    for block in blocks {
        for f in &mut slot.filters {
            filter_op(f, block);
        }
        if let Some(r) = rmnm.as_deref_mut() {
            rmnm_op(r, si, block);
        }
        n += 1;
    }
    n
}

/// Storage cost of one MNM component, for the power model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentStorage {
    /// Configuration label (`"TMNM_12x3"`, `"RMNM_512_2"`, ...).
    pub label: String,
    /// Guarded structure name, or `"shared"` for the RMNM.
    pub structure: String,
    /// SRAM/flip-flop bits.
    pub bits: u64,
}

/// The Mostly No Machine (paper §2).
///
/// Owns one filter stack per guarded cache structure (every structure at
/// level 2 and beyond) plus the optional shared [`Rmnm`], performs the
/// per-access definite-miss query, consumes the hierarchy's
/// placement/replacement event stream, and tracks coverage.
#[derive(Debug)]
pub struct Mnm {
    config: MnmConfig,
    granularity: Granularity,
    slots: Vec<Slot>,
    /// Slot index per structure index; `None` for L1 structures.
    slot_of_structure: Vec<Option<usize>>,
    /// Slot indices along each path, in level order.
    instr_slots: Vec<usize>,
    data_slots: Vec<usize>,
    rmnm: Option<Rmnm>,
    stats: MnmStats,
}

impl Mnm {
    /// Build a machine for `hierarchy` from `config`.
    ///
    /// Every structure at level ≥ 2 receives fresh instances of the
    /// techniques assigned to its level; the paper never filters L1.
    pub fn new(hierarchy: &Hierarchy, config: MnmConfig) -> Self {
        let granularity = Granularity::from_bytes(hierarchy.mnm_granularity());
        let mut slots = Vec::new();
        let mut slot_of_structure = vec![None; hierarchy.structures().len()];

        for info in hierarchy.structures() {
            if info.level < 2 {
                continue;
            }
            // Capacity of the guarded structure in MNM blocks: bounds any
            // filter bookkeeping that is sized by residency.
            let max_live =
                (hierarchy.cache(info.id).config().size_bytes / granularity.bytes()) as usize;
            let filters: Vec<FilterKind> = config
                .techniques_for_level(info.level)
                .into_iter()
                .map(|t| {
                    let mut f = FilterKind::build(t);
                    f.reserve(max_live);
                    f
                })
                .collect();
            slot_of_structure[info.id.index()] = Some(slots.len());
            slots.push(Slot {
                structure: info.id,
                level: info.level,
                name: info.name.clone(),
                filters,
                live_blocks: 0,
                capacity_blocks: max_live as u64,
            });
        }

        let slot_path = |kind| {
            hierarchy
                .path(kind)
                .iter()
                .filter_map(|sid| slot_of_structure[sid.index()])
                .collect::<Vec<_>>()
        };
        let instr_slots = slot_path(cache_sim::AccessKind::InstrFetch);
        let data_slots = slot_path(cache_sim::AccessKind::Load);

        let rmnm = config.rmnm.map(|rc| Rmnm::new(rc, slots.len()));
        let stats = MnmStats::new(slots.len());

        Mnm { config, granularity, slots, slot_of_structure, instr_slots, data_slots, rmnm, stats }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MnmConfig {
        &self.config
    }

    /// The MNM block granularity (the L2 line size).
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Coverage/activity statistics.
    pub fn stats(&self) -> &MnmStats {
        &self.stats
    }

    /// Reset statistics, keeping filter state (post-warmup measurement).
    pub fn reset_stats(&mut self) {
        self.stats = MnmStats::new(self.slots.len());
    }

    /// Ask the machine which structures on this access's path will
    /// definitely miss. Sound: every flagged structure is guaranteed not to
    /// hold the block.
    pub fn query(&mut self, access: Access) -> BypassSet {
        let block = self.granularity.block_of(access.addr);
        let slots = if access.kind.is_instruction() { &self.instr_slots } else { &self.data_slots };
        let mut set = BypassSet::none();
        self.stats.accesses += 1;
        // One shared-RMNM tag search per access: its entry carries one miss
        // bit per slot, so the per-slot loop below tests bits of this mask
        // instead of re-running the set scan for every guarded structure.
        let rmnm_mask = match &self.rmnm {
            Some(r) => {
                self.stats.rmnm_queries += 1;
                r.miss_mask(block)
            }
            None => 0,
        };
        let mut any = false;
        for &si in slots {
            let slot = &self.slots[si];
            let st = &mut self.stats.slots[si];
            st.queries += 1;
            let miss =
                rmnm_mask >> si & 1 != 0 || slot.filters.iter().any(|f| f.is_definite_miss(block));
            if miss {
                set.insert(slot.structure);
                st.flagged += 1;
                any = true;
            }
        }
        if any {
            self.stats.accesses_with_flags += 1;
        }
        set
    }

    /// [`Mnm::query`] over a batch: one verdict per access, appended to
    /// `out` (cleared first, capacity retained across calls). Verdicts and
    /// statistics are identical to querying each access individually.
    pub fn query_many(&mut self, accesses: &[Access], out: &mut Vec<BypassSet>) {
        out.clear();
        out.reserve(accesses.len());
        for &access in accesses {
            out.push(self.query(access));
        }
    }

    /// Feed the hierarchy's placement/replacement events into the filters
    /// (the MNM bookkeeping of paper §2). Blocks from caches with lines
    /// larger than the MNM granularity expand into multiple updates
    /// (paper §3.1).
    pub fn observe_events(&mut self, events: &[CacheEvent]) {
        let grain = self.granularity.bytes();
        for ev in events {
            let Some(si) = self.slot_of_structure[ev.structure.index()] else {
                continue; // L1 structures are not tracked
            };
            let slot = &mut self.slots[si];
            let st = &mut self.stats.slots[si];
            let rmnm = self.rmnm.as_mut();
            let blocks = ev.sub_blocks(grain);
            let n = match ev.kind {
                EventKind::Placed => {
                    let n = feed(blocks, si, slot, rmnm, FilterKind::on_place, Rmnm::on_place);
                    slot.live_blocks += n;
                    n
                }
                EventKind::Replaced => {
                    let n = feed(blocks, si, slot, rmnm, FilterKind::on_replace, Rmnm::on_replace);
                    slot.live_blocks = slot.live_blocks.saturating_sub(n);
                    n
                }
                EventKind::Invalidated => {
                    let n = feed(
                        blocks,
                        si,
                        slot,
                        rmnm,
                        FilterKind::on_invalidate,
                        Rmnm::on_invalidate,
                    );
                    slot.live_blocks = slot.live_blocks.saturating_sub(n);
                    st.invalidations += n;
                    n
                }
            };
            st.updates += n;
            if self.rmnm.is_some() {
                self.stats.rmnm_updates += n;
            }
        }
    }

    /// Fold an access's probe trail into the coverage statistics (paper
    /// §4.2): every probe at level ≥ 2 that missed is a bypassable miss;
    /// every bypassed probe is an identified one.
    pub fn note_probes(&mut self, probes: &[ProbeRecord]) {
        for p in probes {
            let Some(si) = self.slot_of_structure[p.structure.index()] else {
                continue;
            };
            let st = &mut self.stats.slots[si];
            match p.outcome {
                ProbeOutcome::Miss => st.bypassable_misses += 1,
                ProbeOutcome::Bypassed => {
                    st.bypassable_misses += 1;
                    st.identified_misses += 1;
                }
                ProbeOutcome::Hit => {}
            }
        }
    }

    /// The full per-access MNM protocol in one call: query, walk, feed
    /// events and probes back ([`Hierarchy::step`] with this machine as
    /// the filter). Zero heap allocations per access in steady state.
    pub fn run_access(&mut self, hierarchy: &mut Hierarchy, access: Access) -> AccessResult {
        hierarchy.step(self, access)
    }

    /// [`Mnm::run_access`] over a batch ([`Hierarchy::run`]), folding the
    /// per-access outcomes into one [`BatchSummary`].
    pub fn run_many(&mut self, hierarchy: &mut Hierarchy, accesses: &[Access]) -> BatchSummary {
        hierarchy.run(self, accesses)
    }

    /// The access latency including MNM placement effects: a serial MNM
    /// (paper Figure 1b) adds its delay once to every access that goes
    /// beyond L1; a parallel MNM (Figure 1a) hides its delay under the L1
    /// access; a distributed MNM pays the delay once per consulted level.
    pub fn adjusted_latency(&self, result: &AccessResult) -> u64 {
        match self.config.placement {
            MnmPlacement::Parallel => result.latency,
            MnmPlacement::Serial => {
                if result.l1_hit() {
                    result.latency
                } else {
                    result.latency + self.config.delay
                }
            }
            MnmPlacement::Distributed => {
                // Consulted at every non-L1 structure the request reached:
                // both the ones actually probed and the ones the MNM let it
                // skip (the skip decision itself is an MNM consultation).
                let consulted = u64::from(result.probed_beyond_l1 + result.bypassed);
                result.latency + self.config.delay * consulted
            }
        }
    }

    /// Storage cost of every component, for the power model.
    pub fn storage(&self) -> Vec<ComponentStorage> {
        let mut out = Vec::new();
        for slot in &self.slots {
            for f in &slot.filters {
                out.push(ComponentStorage {
                    label: f.label().to_owned(),
                    structure: slot.name.clone(),
                    bits: f.storage_bits(),
                });
            }
        }
        if let Some(r) = &self.rmnm {
            out.push(ComponentStorage {
                label: r.label(),
                structure: "shared".to_owned(),
                bits: r.storage_bits(),
            });
        }
        out
    }

    /// Total storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.storage().iter().map(|c| c.bits).sum()
    }

    /// Machine-level occupancy: MNM blocks currently resident in the
    /// guarded structures over their total block capacity, maintained
    /// exactly from the event stream.
    ///
    /// This counts *blocks*, not filter state units, so hybrids that stack
    /// several member filters on one slot report each resident block once.
    /// (The previous implementation summed
    /// [`MissFilter::occupancy`] across members, so an HMNM counted every
    /// block once per member filter — roughly doubling the reported load.
    /// Per-component state-unit occupancy is still available via
    /// [`Mnm::component_occupancy`].)
    pub fn occupancy(&self) -> crate::filter::FilterOccupancy {
        let mut occ = crate::filter::FilterOccupancy::default();
        for slot in &self.slots {
            occ.merge(crate::filter::FilterOccupancy {
                tracked: slot.live_blocks,
                capacity: slot.capacity_blocks,
            });
        }
        occ
    }

    /// Aggregate *state-unit* occupancy summed across every component
    /// filter (and the shared RMNM): armed counters / presence bits / valid
    /// entries over total state units. A hardware load factor, not a block
    /// count — blocks guarded by several member filters are counted once
    /// per member. Use [`Mnm::occupancy`] for a block-exact view.
    pub fn component_occupancy(&self) -> crate::filter::FilterOccupancy {
        let mut occ = crate::filter::FilterOccupancy::default();
        for slot in &self.slots {
            for f in &slot.filters {
                occ.merge(f.as_miss_filter().occupancy());
            }
        }
        if let Some(r) = &self.rmnm {
            occ.merge(r.occupancy());
        }
        occ
    }

    /// Names and levels of the guarded structures, in slot order.
    pub fn guarded_structures(&self) -> Vec<(String, u8)> {
        self.slots.iter().map(|s| (s.name.clone(), s.level)).collect()
    }

    /// The [`StructureId`] each slot guards, in slot order.
    pub fn slot_structures(&self) -> Vec<StructureId> {
        self.slots.iter().map(|s| s.structure).collect()
    }

    /// Fault-injection surface: `(slot, filter, state_bits)` for every
    /// component filter that exposes flippable state. The soundness
    /// checker uses this to aim [`Mnm::flip_filter_bit`]; nothing on the
    /// simulation path consults it.
    pub fn fault_surface(&self) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        for (si, slot) in self.slots.iter().enumerate() {
            for (fi, f) in slot.filters.iter().enumerate() {
                let bits = f.state_bits();
                if bits > 0 {
                    out.push((si, fi, bits));
                }
            }
        }
        out
    }

    /// XOR one state bit of the component filter at `(slot, filter)`,
    /// emulating a soft error. Returns whether a bit was actually flipped.
    pub fn flip_filter_bit(&mut self, slot: usize, filter: usize, bit: u64) -> bool {
        self.slots
            .get_mut(slot)
            .and_then(|s| s.filters.get_mut(filter))
            .is_some_and(|f| f.flip_state_bit(bit))
    }

    /// The state bit of component `(slot, filter)` guarding the MNM block
    /// containing byte address `addr`, if the filter exposes one.
    pub fn state_bit_of(&self, slot: usize, filter: usize, addr: u64) -> Option<u64> {
        let block = self.granularity.block_of(addr);
        self.slots.get(slot)?.filters.get(filter)?.state_bit_of(block)
    }

    /// Reset all filter state and statistics.
    ///
    /// **Soundness caveat**: this clears only the MNM side. Cold SMNM
    /// checkers and zeroed TMNM/CMNM/Bloom counters read as "definite
    /// miss" for *every* block, so calling this while the guarded caches
    /// still hold data makes the very next query unsound. Unless the
    /// hierarchy is already empty, use [`Mnm::flush_system`], which clears
    /// both sides in the same step.
    pub fn flush(&mut self) {
        for slot in &mut self.slots {
            for f in &mut slot.filters {
                f.flush();
            }
            slot.live_blocks = 0;
        }
        if let Some(r) = &mut self.rmnm {
            r.flush();
        }
        self.reset_stats();
    }

    /// Flush the machine together with the hierarchy it guards — the only
    /// safe way to model a cache flush mid-trace.
    ///
    /// A flush must clear every attached filter (TMNM counters, CMNM live
    /// set, the shared RMNM table, SMNM checkers) *and* the caches in the
    /// same step: flushing the caches alone leaves filters conservatively
    /// stale (sound but lossy), while flushing the filters alone flags
    /// still-resident blocks (unsound). The differential checker in
    /// `crates/check` replays flush-heavy traces through this entry point
    /// to enforce the invariant.
    pub fn flush_system(&mut self, hierarchy: &mut Hierarchy) {
        hierarchy.flush();
        self.flush();
    }
}

/// The MNM as a [`Hierarchy::step`] filter: queries produce the miss tags,
/// and the hierarchy feeds events and probe trails back into the filters.
impl AccessFilter for Mnm {
    fn query(&mut self, _hierarchy: &Hierarchy, access: Access) -> BypassSet {
        Mnm::query(self, access)
    }

    fn observe_events(&mut self, _hierarchy: &Hierarchy, events: &[CacheEvent]) {
        Mnm::observe_events(self, events);
    }

    fn note_probes(&mut self, _access: Access, probes: &[ProbeRecord]) {
        Mnm::note_probes(self, probes);
    }

    fn flush_system(&mut self, hierarchy: &mut Hierarchy) {
        Mnm::flush_system(self, hierarchy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{CacheConfig, HierarchyConfig, LevelConfig};

    fn tiny_hierarchy() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 64, 1, 32, 2),
                    data: CacheConfig::new("dl1", 64, 1, 32, 2),
                },
                LevelConfig::Unified(CacheConfig::new("ul2", 256, 2, 32, 8)),
                LevelConfig::Unified(CacheConfig::new("ul3", 1024, 2, 64, 18)),
            ],
            memory_latency: 100,
            inclusive: false,
        })
    }

    #[test]
    fn guards_every_non_l1_structure() {
        let hier = tiny_hierarchy();
        let mnm = Mnm::new(&hier, MnmConfig::parse("TMNM_10x1").unwrap());
        let guarded = mnm.guarded_structures();
        assert_eq!(guarded, vec![("ul2".to_owned(), 2), ("ul3".to_owned(), 3)]);
    }

    /// Every filter family reports a meaningful dynamic occupancy: empty
    /// at build, strictly growing as distinct blocks are placed, and
    /// empty again after a flush.
    #[test]
    fn occupancy_tracks_placements_and_flushes() {
        for label in ["TMNM_12x1", "SMNM_13x2", "CMNM_8_12", "BLOOM_13x4", "RMNM_512_2", "HMNM4"] {
            let mut hier = tiny_hierarchy();
            let mut mnm = Mnm::new(&hier, MnmConfig::parse(label).unwrap());
            let empty = mnm.occupancy();
            assert!(empty.capacity > 0, "{label}: no occupancy surface");
            assert_eq!(empty.tracked, 0, "{label}: fresh filter not empty");
            assert_eq!(empty.ratio(), 0.0);

            for i in 0..64u64 {
                mnm.run_access(&mut hier, Access::load(0x1_0000 + i * 4096));
            }
            let warm = mnm.occupancy();
            assert!(warm.tracked > 0, "{label}: occupancy never rose");
            assert!(warm.ratio() > 0.0 && warm.ratio() <= 1.0);
            assert_eq!(warm.capacity, empty.capacity, "{label}: capacity drifted");

            mnm.flush_system(&mut hier);
            assert_eq!(mnm.occupancy().tracked, 0, "{label}: flush left state armed");
        }
    }

    /// Resident MNM sub-blocks per guarded structure, straight from the
    /// caches — the ground truth [`Mnm::occupancy`] must report.
    fn resident_mnm_blocks(hier: &Hierarchy, mnm: &Mnm) -> u64 {
        let gran = mnm.granularity().bytes();
        mnm.slot_structures()
            .iter()
            .map(|&sid| {
                let cache = hier.cache(sid);
                let per_line = (cache.config().block_bytes / gran).max(1);
                cache.occupancy() as u64 * per_line
            })
            .sum()
    }

    /// Satellite bugfix pin: `Mnm::occupancy` must count each resident
    /// block once, for every family. The pre-fix implementation summed
    /// per-component state-unit occupancies, so the hybrid (two member
    /// filters per slot) reported roughly twice the real load, and
    /// hash-shaped families (SMNM/TMNM/Bloom) under-reported whenever two
    /// blocks collided into one counter.
    #[test]
    fn occupancy_counts_each_resident_block_once_per_family() {
        for label in ["TMNM_12x1", "SMNM_13x2", "CMNM_8_12", "BLOOM_13x4", "RMNM_512_2", "HMNM4"] {
            let mut hier = tiny_hierarchy();
            let mut mnm = Mnm::new(&hier, MnmConfig::parse(label).unwrap());
            let mut x: u64 = 0xdead_beef;
            for _ in 0..4096 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                mnm.run_access(&mut hier, Access::load((x % 0x8000) & !0x3));
            }
            let occ = mnm.occupancy();
            let resident = resident_mnm_blocks(&hier, &mnm);
            assert_eq!(
                occ.tracked, resident,
                "{label}: occupancy must equal resident blocks (no double counting)"
            );
            assert!(occ.tracked <= occ.capacity, "{label}: load factor above 1");
        }
    }

    /// Satellite bugfix regression: after external invalidations (the
    /// coherence path), filter occupancy and verdicts must match a filter
    /// rebuilt from scratch against the surviving cache contents. Uses
    /// CMNM, whose live-set state is exact, so any cache/filter desync —
    /// e.g. removing blocks from the caches without the FilterInvalidate
    /// notification — shows up as a hard mismatch.
    #[test]
    fn invalidation_keeps_filters_synced_with_rebuilt_state() {
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse("CMNM_8_12").unwrap());
        let addrs: Vec<u64> = (0..64u64).map(|i| (i * 0x2b3 % 0x2000) & !0x1f).collect();
        for &a in &addrs {
            mnm.run_access(&mut hier, Access::load(a));
        }
        // Coherence traffic: invalidate every other touched block
        // everywhere, feeding the events to the filters.
        let mut events = Vec::new();
        for &a in addrs.iter().step_by(2) {
            hier.invalidate_block(a, &mut events);
        }
        mnm.observe_events(&events);

        // Rebuild a fresh machine against the surviving residency.
        let mut fresh = Mnm::new(&hier, MnmConfig::parse("CMNM_8_12").unwrap());
        let mut rebuilt = Vec::new();
        for info in hier.structures() {
            if info.level < 2 {
                continue;
            }
            for base in hier.cache(info.id).resident_blocks() {
                rebuilt.push(CacheEvent {
                    structure: info.id,
                    kind: EventKind::Placed,
                    block_base: base,
                    block_bytes: info.block_bytes,
                });
            }
        }
        fresh.observe_events(&rebuilt);

        assert_eq!(
            mnm.occupancy().tracked,
            fresh.occupancy().tracked,
            "occupancy diverged from a rebuilt filter after invalidation"
        );
        for probe in (0..0x2400u64).step_by(32) {
            assert_eq!(
                mnm.query(Access::load(probe)),
                fresh.query(Access::load(probe)),
                "verdict for {probe:#x} diverged from a rebuilt filter"
            );
        }
    }

    /// The RMNM learns from invalidations exactly as from replacements:
    /// an invalidated block is a definite miss until re-placed.
    #[test]
    fn rmnm_flags_invalidated_blocks() {
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse("RMNM_512_2").unwrap());
        mnm.run_access(&mut hier, Access::load(0x1000));
        assert!(mnm.query(Access::load(0x1000)).is_empty());
        let mut events = Vec::new();
        assert!(hier.invalidate_block(0x1000, &mut events) > 0);
        mnm.observe_events(&events);
        let bypass = mnm.query(Access::load(0x1000));
        let ul2 = hier.structures().iter().find(|s| s.name == "ul2").unwrap().id;
        let ul3 = hier.structures().iter().find(|s| s.name == "ul3").unwrap().id;
        assert!(bypass.contains(ul2) && bypass.contains(ul3));
        assert!(mnm.stats().slots.iter().map(|s| s.invalidations).sum::<u64>() > 0);
        // And the verdict is sound: the access runs with those bypasses.
        let r = mnm.run_access(&mut hier, Access::load(0x1000));
        assert_eq!(r.bypassed, 2);
    }

    /// Single-core regression for the inclusive back-invalidation path:
    /// filters must track back-invalidated blocks, so every verdict stays
    /// sound and occupancy stays block-exact under an aliasing trace that
    /// constantly back-invalidates L1/L2 copies.
    #[test]
    fn back_invalidation_keeps_filters_sound_and_exact() {
        let mut hier = Hierarchy::new(HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 64, 1, 32, 2),
                    data: CacheConfig::new("dl1", 64, 1, 32, 2),
                },
                LevelConfig::Unified(CacheConfig::new("ul2", 256, 2, 32, 8)),
                // Small direct-mapped L3 forces frequent back-invalidations.
                LevelConfig::Unified(CacheConfig::new("ul3", 512, 1, 64, 18)),
            ],
            memory_latency: 100,
            inclusive: true,
        });
        let mut mnm = Mnm::new(&hier, MnmConfig::hmnm(1));
        let mut x: u64 = 0x5eed;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x % 0x4000) & !0x3;
            let access = if i % 3 == 0 { Access::store(addr) } else { Access::load(addr) };
            // run_access verifies each bypass against actual contents via
            // the hierarchy's debug assertion.
            mnm.run_access(&mut hier, access);
        }
        let st = hier.stats();
        assert!(
            st.structures.iter().map(|s| s.invalidations).sum::<u64>() > 0,
            "trace never exercised back-invalidation"
        );
        assert_eq!(mnm.occupancy().tracked, resident_mnm_blocks(&hier, &mnm));
    }

    #[test]
    fn tmnm_flags_cold_misses_and_stays_sound() {
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse("TMNM_12x1").unwrap());
        // First touch: everything cold, filter flags both levels.
        let r = mnm.run_access(&mut hier, Access::load(0x1000));
        assert_eq!(r.bypassed, 2);
        assert_eq!(r.supply_level, 4);
        // Immediately after: resident everywhere, nothing flagged.
        let r = mnm.run_access(&mut hier, Access::load(0x1000));
        assert_eq!(r.bypassed, 0);
        assert_eq!(r.supply_level, 1);
    }

    #[test]
    fn coverage_is_one_for_pure_cold_misses_with_tmnm() {
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse("TMNM_12x1").unwrap());
        // Distinct 64-byte-aligned addresses spread over the 12-bit table:
        // all cold, all flagged.
        for i in 0..32u64 {
            mnm.run_access(&mut hier, Access::load(i * 64));
        }
        assert!(mnm.stats().coverage() > 0.9, "cold misses are TMNM's best case");
        assert_eq!(mnm.stats().bypassable_misses(), mnm.stats().identified_misses());
    }

    #[test]
    fn rmnm_covers_conflict_misses() {
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse("RMNM_128_1").unwrap());
        // Warm two conflicting blocks through ul2 (2-way, 4 sets of 32B:
        // set = block & 3). Blocks 0x0, 0x100, 0x200 share ul2 set 0.
        for addr in [0x0u64, 0x100, 0x200] {
            mnm.run_access(&mut hier, Access::load(addr));
        }
        // 0x0 was evicted from ul2 by the fill of 0x200. RMNM knows.
        let bypass = mnm.query(Access::load(0x0));
        let ul2 = hier.structures().iter().find(|s| s.name == "ul2").unwrap().id;
        assert!(bypass.contains(ul2), "RMNM must flag the replaced block");
        // And it is sound: running the access with the bypass works.
        let r = mnm.run_access(&mut hier, Access::load(0x0));
        assert!(r.bypassed >= 1);
    }

    #[test]
    fn adjusted_latency_depends_on_placement() {
        let mut hier = tiny_hierarchy();
        let mut parallel = Mnm::new(&hier, MnmConfig::parse("TMNM_10x1").unwrap());
        let r = parallel.run_access(&mut hier, Access::load(0x4000));
        assert_eq!(parallel.adjusted_latency(&r), r.latency);

        let serial_cfg =
            MnmConfig::parse("TMNM_10x1").unwrap().with_placement(MnmPlacement::Serial);
        let mut hier2 = tiny_hierarchy();
        let mut serial = Mnm::new(&hier2, serial_cfg);
        let r = serial.run_access(&mut hier2, Access::load(0x4000));
        assert_eq!(serial.adjusted_latency(&r), r.latency + 2);
        let r = serial.run_access(&mut hier2, Access::load(0x4000));
        assert!(r.l1_hit());
        assert_eq!(serial.adjusted_latency(&r), r.latency, "L1 hits skip the serial MNM");
    }

    #[test]
    fn large_lines_expand_to_multiple_updates() {
        let mut hier = tiny_hierarchy(); // ul3 has 64B lines, granularity 32B
        let mut mnm = Mnm::new(&hier, MnmConfig::parse("TMNM_12x1").unwrap());
        mnm.run_access(&mut hier, Access::load(0x2000));
        // After the fill, BOTH halves of ul3's 64-byte line are maybe-hits.
        let bypass = mnm.query(Access::load(0x2020));
        let ul3 = hier.structures().iter().find(|s| s.name == "ul3").unwrap().id;
        assert!(!bypass.contains(ul3), "sibling half of the ul3 line must not be flagged");
    }

    #[test]
    fn hmnm_storage_lists_all_components() {
        let hier = tiny_hierarchy();
        let mnm = Mnm::new(&hier, MnmConfig::hmnm(2));
        let storage = mnm.storage();
        // ul2 (level 2): SMNM+TMNM; ul3 (level 3): SMNM+TMNM; shared RMNM.
        assert_eq!(storage.len(), 5);
        assert!(storage.iter().any(|c| c.structure == "shared" && c.label.starts_with("RMNM")));
        assert!(mnm.storage_bits() > 0);
    }

    #[test]
    fn flush_resets_filters_and_stats() {
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse("TMNM_10x1").unwrap());
        mnm.run_access(&mut hier, Access::load(0x0));
        assert!(mnm.stats().accesses > 0);
        mnm.flush();
        assert_eq!(mnm.stats().accesses, 0);
        // Filters are cold again: a resident block would now be flagged,
        // so flush the hierarchy too to stay sound.
        hier.flush();
        let bypass = mnm.query(Access::load(0x0));
        assert_eq!(bypass.len(), 2);
    }

    #[test]
    fn flush_system_clears_both_sides_in_one_step() {
        // Drive a trace far enough to populate every filter and every
        // cache, flush mid-trace, then replay the same trace. The
        // hierarchy's debug assertion verifies each bypass against actual
        // contents, and we re-check the invariant explicitly so release
        // builds exercise it too.
        let trace: Vec<Access> = (0..256u64)
            .map(|i| {
                let addr = ((i * 0x2b3) % 0x4000) & !0x3;
                match i % 3 {
                    0 => Access::load(addr),
                    1 => Access::store(addr),
                    _ => Access::fetch(addr),
                }
            })
            .collect();
        for label in ["HMNM4", "TMNM_12x1", "CMNM_8_12", "RMNM_512_2", "SMNM_13x2"] {
            let mut hier = tiny_hierarchy();
            let mut mnm = Mnm::new(&hier, MnmConfig::parse(label).unwrap());
            for &a in &trace {
                mnm.run_access(&mut hier, a);
            }
            mnm.flush_system(&mut hier);
            assert_eq!(mnm.stats().accesses, 0, "{label}: filter stats must reset");
            assert_eq!(hier.stats().accesses, 0, "{label}: hierarchy stats must reset");
            for info in hier.structures() {
                assert_eq!(hier.cache(info.id).occupancy(), 0, "{label}: {} not empty", info.name);
            }
            // Replay: every flag the cold machine raises must be sound
            // against the (initially empty, then refilling) caches.
            // `query` is state-preserving on the filters, so peeking at the
            // verdict before `run_access` sees the same bypass set.
            for &a in &trace {
                let bypass = mnm.query(a);
                for info in hier.structures() {
                    if bypass.contains(info.id) {
                        assert!(
                            !hier.contains(info.id, a.addr),
                            "{label}: unsound flag on {} after flush_system",
                            info.name
                        );
                    }
                }
                mnm.run_access(&mut hier, a);
            }
        }
    }

    #[test]
    fn soundness_fuzz_under_heavy_aliasing() {
        // Tight address space forces constant conflict evictions at every
        // level; the debug_assert inside the hierarchy verifies every
        // bypass decision against actual cache contents.
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::hmnm(1));
        let mut x: u64 = 0x12345;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x % 0x4000) & !0x3;
            let access = match i % 3 {
                0 => Access::load(addr),
                1 => Access::store(addr),
                _ => Access::fetch(addr),
            };
            mnm.run_access(&mut hier, access);
        }
        // Sanity: the machine actually did something.
        assert!(mnm.stats().bypassable_misses() > 0);
    }

    #[test]
    fn flipping_a_guarding_bit_makes_the_machine_lie() {
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse("TMNM_12x1").unwrap());
        mnm.run_access(&mut hier, Access::load(0x1000));
        // Resident everywhere: nothing flagged.
        assert!(mnm.query(Access::load(0x1000)).is_empty());

        let surface = mnm.fault_surface();
        assert_eq!(surface.len(), 2, "one TMNM per guarded level");
        assert!(surface.iter().all(|&(_, _, bits)| bits == 4096 * 3));
        assert_eq!(mnm.slot_structures().len(), 2);

        // Corrupt the ul2 TMNM's counter for the resident block: the
        // machine now (unsoundly) flags the guarded structure.
        let (slot, filter, _) = surface[0];
        let bit = mnm.state_bit_of(slot, filter, 0x1000).unwrap();
        assert!(mnm.flip_filter_bit(slot, filter, bit));
        let bypass = mnm.query(Access::load(0x1000));
        assert!(bypass.contains(mnm.slot_structures()[slot]), "corruption must surface as a lie");
        // Flip back: honest again.
        assert!(mnm.flip_filter_bit(slot, filter, bit));
        assert!(mnm.query(Access::load(0x1000)).is_empty());
        // Out-of-range coordinates are rejected, not panics.
        assert!(!mnm.flip_filter_bit(99, 0, 0));
        assert!(mnm.state_bit_of(99, 0, 0x1000).is_none());
    }
}
