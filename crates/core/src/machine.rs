//! The Mostly No Machine: technique filters wired to a cache hierarchy.

use std::ops::Range;

use cache_sim::{
    Access, AccessFilter, AccessResult, BatchSummary, BlockRun, BypassSet, CacheEvent, EventKind,
    Hierarchy, ProbeOutcome, ProbeRecord, StructureId,
};

use crate::block::Granularity;
use crate::bloom::BloomFilter;
use crate::cmnm::Cmnm;
use crate::config::{MnmConfig, MnmPlacement, TechniqueConfig};
use crate::filter::{FilterOccupancy, LaneFilter};
use crate::rmnm::Rmnm;
use crate::smnm::SmnmFilter;
use crate::stats::MnmStats;
use crate::tmnm::TmnmFilter;

/// One technique's filter, dispatched statically, with one lane per cache
/// structure its [`Assignment`](crate::Assignment) guards.
///
/// The machine builds one `FilterKind` per technique of each assignment,
/// not one per structure: HMNM4's SMNM_20x3 guards `il2`, `dl2` and `ul3`
/// as three lanes of one filter. SMNM, TMNM and Bloom store their state
/// interleaved by lane: lane `l` of index `i` is bit `i × stride + l` of
/// the flag bitset (present bits, zero bits), with `stride` the lane count
/// rounded up to a power of two, and counter `i × lanes + l` of the
/// counter array. So a probe computes the block's hash or slice index
/// once per checker or table and reads every lane's flag from one word;
/// updates name their lane and touch only it. CMNM keeps registers,
/// counters and frame tags per lane and scans the registers of each
/// lane asked about. [`LaneFilter::miss_lanes`] inlines, through this
/// match, into [`Mnm::query`].
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Evaluate `$e` with `$f` bound to the filter inside `$self`.
macro_rules! dispatch {
    ($self:expr, $f:ident => $e:expr) => {
        match $self {
            FilterKind::Smnm($f) => $e,
            FilterKind::Tmnm($f) => $e,
            FilterKind::Cmnm($f) => $e,
            FilterKind::Bloom($f) => $e,
        }
    };
}

impl FilterKind {
    /// Instantiate the technique `config` describes, guarding `lanes`
    /// structures (1..=64).
    pub fn build(config: TechniqueConfig, lanes: usize) -> Self {
        match config {
            TechniqueConfig::Smnm(c) => FilterKind::Smnm(SmnmFilter::new(c, lanes)),
            TechniqueConfig::Tmnm(c) => FilterKind::Tmnm(TmnmFilter::new(c, lanes)),
            TechniqueConfig::Cmnm(c) => FilterKind::Cmnm(Cmnm::new(c, lanes)),
            TechniqueConfig::Bloom(c) => FilterKind::Bloom(BloomFilter::new(c, lanes)),
        }
    }
}

impl LaneFilter for FilterKind {
    fn lanes(&self) -> usize {
        dispatch!(self, f => f.lanes())
    }

    #[inline(always)]
    fn miss_lanes(&self, block: u64, want: u64) -> u64 {
        dispatch!(self, f => f.miss_lanes(block, want))
    }

    #[inline]
    fn place(&mut self, lane: usize, run: BlockRun) {
        dispatch!(self, f => f.place(lane, run))
    }

    #[inline]
    fn replace(&mut self, lane: usize, run: BlockRun) {
        dispatch!(self, f => f.replace(lane, run))
    }

    fn flush_lanes(&mut self) {
        dispatch!(self, f => f.flush_lanes())
    }

    fn lane_storage_bits(&self) -> u64 {
        dispatch!(self, f => f.lane_storage_bits())
    }

    fn technique_label(&self) -> &str {
        dispatch!(self, f => f.technique_label())
    }

    fn reserve_lane(&mut self, lane: usize, frame_slots: usize) {
        dispatch!(self, f => f.reserve_lane(lane, frame_slots))
    }

    fn lane_state_bits(&self) -> u64 {
        dispatch!(self, f => f.lane_state_bits())
    }

    fn flip_lane_bit(&mut self, lane: usize, bit: u64) -> bool {
        dispatch!(self, f => f.flip_lane_bit(lane, bit))
    }

    fn lane_bit_of(&self, lane: usize, block: u64) -> Option<u64> {
        dispatch!(self, f => f.lane_bit_of(lane, block))
    }

    fn lane_occupancy(&self, lane: usize) -> FilterOccupancy {
        dispatch!(self, f => f.lane_occupancy(lane))
    }
}

#[derive(Debug)]
struct Slot {
    structure: StructureId,
    level: u8,
    name: String,
    /// The `(filter, lane)` of each technique guarding this slot, in the
    /// order of [`MnmConfig::techniques_for_level`]: the `filter` index of
    /// the fault surface and of [`Mnm::storage`].
    members: Vec<(usize, usize)>,
    /// MNM blocks currently resident in the guarded structure, maintained
    /// exactly from the event stream (placements add, replacements and
    /// invalidations retire; the hierarchy only reports actual state
    /// changes). Backs [`Mnm::occupancy`] with a block count independent
    /// of how many member filters a hybrid stacks on the slot.
    live_blocks: u64,
    /// Capacity of the guarded structure in frame slots (MNM blocks,
    /// unless its lines are shorter than the MNM grain).
    capacity_blocks: u64,
    /// Indices into [`Mnm`]'s stacks of every stack with a lane here: the
    /// stacks whose version a change to this slot's filter state bumps.
    stacks: Vec<usize>,
}

/// Entries in each stack's verdict memo: a power of two. Measured against
/// 256 and 4096 on `jsn_bench`'s `replay_resident` and `replay_memory`:
/// 4096 answers more resident queries but slows the memory-bound replay,
/// whose queries rarely repeat.
const MEMO_ENTRIES: usize = 1024;

/// One remembered stack verdict: the lanes among `asked` that the stack's
/// filters flagged for `block` while the stack's state was at `version`.
/// Lane masks are 16 bits wide, so the entry stays 16 bytes; a stack with
/// more lanes records only its low 16, and a query wanting any higher
/// lane never hits. An entry with `asked == 0` is empty: it never hits,
/// because a stack with no lane to ask is not consulted at all.
#[derive(Debug, Clone, Copy, Default)]
struct MemoEntry {
    block: u64,
    version: u32,
    asked: u16,
    flagged: u16,
}

const _: () = assert!(std::mem::size_of::<MemoEntry>() == 16);

/// The filters of one [`Assignment`](crate::Assignment): lane `l` of each
/// guards slot `first_slot + l`. Slots are numbered in level order, so an
/// assignment's level range is one run of slots.
///
/// A stack also remembers its recent verdicts. Every family's
/// [`LaneFilter::miss_lanes`]`(block, want)` is `want & F(block)` for a
/// function `F` of that filter's state alone, so the cheapest-first probe
/// answers `want & (F₁ | … | Fₖ)`: a verdict recorded for `asked` lanes
/// answers any `want ⊆ asked` exactly, for as long as no filter of the
/// stack changes. `version` counts those changes ([`Stack::bump`]), and an
/// entry is used only at the version it was recorded at.
#[derive(Debug)]
struct Stack {
    /// Indices into [`Mnm`]'s filters, cheapest probe first
    /// ([`probe_cost`]).
    filters: Range<usize>,
    first_slot: u32,
    /// Bit `l` set for every lane.
    lanes: u64,
    /// Bumped on every change to the state of the stack's filters.
    version: u32,
    /// Direct-mapped by [`memo_index`]; [`MEMO_ENTRIES`] long, allocated
    /// once in [`Mnm::new`].
    memo: Box<[MemoEntry]>,
}

impl Stack {
    /// Record a change to the state of this stack's filters: every verdict
    /// remembered so far is stale. When the version wraps, the memo is
    /// cleared, so a stored version never aliases a later one.
    #[inline]
    fn bump(&mut self) {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.memo.fill(MemoEntry::default());
        }
    }
}

/// The memo entry of `block`: the top bits of a Fibonacci hash, so
/// strided and page-aligned blocks spread over the whole memo.
#[inline(always)]
fn memo_index(block: u64) -> usize {
    (block.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_ENTRIES.trailing_zeros())) as usize
}

/// Rank of a technique's probe cost: a stack probes its filters cheapest
/// first, so the dearer ones are asked only about lanes still undecided.
/// TMNM reads one word per table; SMNM first sums four table lookups per
/// checker; Bloom mixes the block once per hash; CMNM scans registers per
/// lane.
fn probe_cost(t: TechniqueConfig) -> u8 {
    match t {
        TechniqueConfig::Tmnm(_) => 0,
        TechniqueConfig::Smnm(_) => 1,
        TechniqueConfig::Bloom(_) => 2,
        TechniqueConfig::Cmnm(_) => 3,
    }
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
/// Guards every cache structure at level 2 and beyond (one *slot* each)
/// with one filter stack per [`Assignment`](crate::Assignment) — each
/// technique one [`FilterKind`] with a lane per guarded slot — plus the
/// optional shared [`Rmnm`]; performs the per-access definite-miss query,
/// consumes the hierarchy's placement/replacement event stream, and
/// tracks coverage.
#[derive(Debug)]
pub struct Mnm {
    config: MnmConfig,
    granularity: Granularity,
    slots: Vec<Slot>,
    /// Slot index per structure index; `None` for L1 structures.
    slot_of_structure: Vec<Option<usize>>,
    /// The slots along each path, as bit masks.
    instr_mask: u64,
    data_mask: u64,
    filters: Vec<FilterKind>,
    stacks: Vec<Stack>,
    rmnm: Option<Rmnm>,
    stats: MnmStats,
}

impl Mnm {
    /// Build a machine for `hierarchy` from `config`.
    ///
    /// Every structure at level ≥ 2 is guarded by a lane of each technique
    /// assigned to its level; the paper never filters L1.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy has more than 64 structures beyond L1.
    pub fn new(hierarchy: &Hierarchy, config: MnmConfig) -> Self {
        let granularity = Granularity::from_bytes(hierarchy.mnm_granularity());
        let mut slots = Vec::new();
        let mut slot_of_structure = vec![None; hierarchy.structures().len()];

        for info in hierarchy.structures() {
            if info.level < 2 {
                continue;
            }
            // Frame slots of the guarded structure: bounds both its live
            // MNM blocks and the slots its events name.
            let frame_slots = hierarchy.cache(info.id).config().frame_slots(granularity.bytes());
            slot_of_structure[info.id.index()] = Some(slots.len());
            slots.push(Slot {
                structure: info.id,
                level: info.level,
                name: info.name.clone(),
                members: Vec::new(),
                live_blocks: 0,
                capacity_blocks: frame_slots,
                stacks: Vec::new(),
            });
        }
        assert!(slots.len() <= 64, "an MNM guards at most 64 structures");

        let mut filters = Vec::new();
        let mut stacks = Vec::new();
        for a in &config.assignments {
            let guarded: Vec<usize> =
                (0..slots.len()).filter(|&si| a.levels.contains(&slots[si].level)).collect();
            let Some(&first) = guarded.first() else { continue };
            // Structures, and so slots, are numbered level by level.
            assert_eq!(guarded.len(), guarded[guarded.len() - 1] - first + 1, "one run of slots");
            let start = filters.len();
            let mut order: Vec<usize> = (0..a.techniques.len()).collect();
            order.sort_by_key(|&ti| probe_cost(a.techniques[ti]));
            let mut filter_of = vec![0; a.techniques.len()];
            for ti in order {
                let mut f = FilterKind::build(a.techniques[ti], guarded.len());
                for (lane, &si) in guarded.iter().enumerate() {
                    f.reserve_lane(lane, slots[si].capacity_blocks as usize);
                }
                filter_of[ti] = filters.len();
                filters.push(f);
            }
            for (lane, &si) in guarded.iter().enumerate() {
                slots[si].members.extend(filter_of.iter().map(|&fi| (fi, lane)));
                slots[si].stacks.push(stacks.len());
            }
            stacks.push(Stack {
                filters: start..filters.len(),
                first_slot: first as u32,
                lanes: u64::MAX >> (64 - guarded.len()),
                version: 0,
                memo: vec![MemoEntry::default(); MEMO_ENTRIES].into_boxed_slice(),
            });
        }

        let path_mask = |kind| {
            hierarchy
                .path(kind)
                .iter()
                .filter_map(|sid| slot_of_structure[sid.index()])
                .fold(0u64, |m, si| m | 1 << si)
        };
        let instr_mask = path_mask(cache_sim::AccessKind::InstrFetch);
        let data_mask = path_mask(cache_sim::AccessKind::Load);

        let rmnm = config.rmnm.map(|rc| Rmnm::new(rc, slots.len()));
        let stats = MnmStats::new(slots.len());

        Mnm {
            config,
            granularity,
            slots,
            slot_of_structure,
            instr_mask,
            data_mask,
            filters,
            stacks,
            rmnm,
            stats,
        }
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
    ///
    /// The shared RMNM is asked first, on every query. Each filter stack
    /// is then asked about the path lanes still open: from its verdict
    /// memo when the block's entry is current and covers those lanes,
    /// otherwise by probing its filters cheapest first and recording the
    /// answer. Both give the same verdict (see `Stack`); filter
    /// state is never changed here. Only the flagged slots are visited
    /// after that.
    pub fn query(&mut self, access: Access) -> BypassSet {
        let block = self.granularity.block_of(access.addr);
        let path = if access.kind.is_instruction() { self.instr_mask } else { self.data_mask };
        self.stats.accesses += 1;
        // One shared-RMNM search per access: its entry carries one miss
        // bit per slot.
        let mut miss = self.rmnm.as_ref().map_or(0, |r| r.miss_mask(block) & path);
        // One probe per technique answers all its lanes; a filter is asked
        // only about lanes on the path that nothing has flagged yet (the
        // verdict is an OR, so skipping a decided lane changes nothing).
        let memo_slot = memo_index(block);
        for stack in &mut self.stacks {
            let want = (path & !miss) >> stack.first_slot & stack.lanes;
            if want == 0 {
                continue;
            }
            let entry = &mut stack.memo[memo_slot];
            let flagged = if entry.block == block
                && entry.version == stack.version
                && want & !u64::from(entry.asked) == 0
            {
                want & u64::from(entry.flagged)
            } else {
                let mut open = want;
                for f in &self.filters[stack.filters.clone()] {
                    open &= !f.miss_lanes(block, open);
                    if open == 0 {
                        break;
                    }
                }
                *entry = MemoEntry {
                    block,
                    version: stack.version,
                    asked: want as u16,
                    flagged: (want & !open) as u16,
                };
                want & !open
            };
            miss |= flagged << stack.first_slot;
        }
        // `miss` holds path slots only: the RMNM mask was cut to the path
        // and every stack was asked about path lanes alone.
        let mut set = BypassSet::none();
        if miss != 0 {
            self.stats.accesses_with_flags += 1;
        }
        while miss != 0 {
            let si = miss.trailing_zeros() as usize;
            set.insert(self.slots[si].structure);
            self.stats.slots[si].flagged += 1;
            miss &= miss - 1;
        }
        set
    }

    /// Feed the hierarchy's placement/replacement events into the filters
    /// (the MNM bookkeeping of paper §2). Blocks from caches with lines
    /// larger than the MNM granularity expand into several MNM blocks
    /// (paper §3.1): each filter guarding the structure takes the line's
    /// whole [`BlockRun`] ([`CacheEvent::run`]) in
    /// one update, and the shared RMNM takes its blocks one by one.
    /// Filters are independent, so this equals feeding every sub-block to
    /// every filter in turn; each filter still sees its own updates in
    /// event order. The statistics count sub-blocks.
    ///
    /// An access that hit at L1 produced no events, so this returns at
    /// once on an empty list; the update itself stays out of line.
    #[inline]
    pub fn observe_events(&mut self, events: &[CacheEvent]) {
        if !events.is_empty() {
            self.apply_events(events);
        }
    }

    /// The body of [`Mnm::observe_events`], kept out of line so every
    /// family's update code stays out of the replay loop.
    #[inline(never)]
    fn apply_events(&mut self, events: &[CacheEvent]) {
        let grain = self.granularity.bytes();
        for ev in events {
            let Some(si) = self.slot_of_structure[ev.structure.index()] else {
                continue; // L1 structures are not tracked
            };
            let slot = &mut self.slots[si];
            for &s in &slot.stacks {
                self.stacks[s].bump();
            }
            let run = ev.run(grain);
            let n = u64::from(run.count());
            let st = &mut self.stats.slots[si];
            st.updates += n;
            if ev.kind == EventKind::Invalidated {
                st.invalidations += n;
            }
            if ev.kind == EventKind::Placed {
                for &(fi, lane) in &slot.members {
                    self.filters[fi].place(lane, run);
                }
                slot.live_blocks += n;
            } else {
                // Every family retires an invalidated block exactly as a
                // replacement victim (`LaneFilter::replace`).
                for &(fi, lane) in &slot.members {
                    self.filters[fi].replace(lane, run);
                }
                slot.live_blocks = slot.live_blocks.saturating_sub(n);
            }
            let Some(rmnm) = self.rmnm.as_mut() else { continue };
            match ev.kind {
                EventKind::Placed => run.blocks().for_each(|(b, _)| rmnm.on_place(si, b)),
                EventKind::Replaced => run.blocks().for_each(|(b, _)| rmnm.on_replace(si, b)),
                EventKind::Invalidated => run.blocks().for_each(|(b, _)| rmnm.on_invalidate(si, b)),
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
            for &(fi, _) in &slot.members {
                let f = &self.filters[fi];
                out.push(ComponentStorage {
                    label: f.technique_label().to_owned(),
                    structure: slot.name.clone(),
                    bits: f.lane_storage_bits(),
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
    /// Per-component state-unit occupancy is available via
    /// [`Mnm::component_occupancy`].
    pub fn occupancy(&self) -> FilterOccupancy {
        let mut occ = FilterOccupancy::default();
        for slot in &self.slots {
            occ.merge(FilterOccupancy {
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
    pub fn component_occupancy(&self) -> FilterOccupancy {
        let mut occ = FilterOccupancy::default();
        for slot in &self.slots {
            for &(fi, lane) in &slot.members {
                occ.merge(self.filters[fi].lane_occupancy(lane));
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
            for (member, &(fi, _)) in slot.members.iter().enumerate() {
                let bits = self.filters[fi].lane_state_bits();
                if bits > 0 {
                    out.push((si, member, bits));
                }
            }
        }
        out
    }

    /// XOR one state bit of the component filter at `(slot, filter)`,
    /// emulating a soft error. Returns whether a bit was actually flipped.
    pub fn flip_filter_bit(&mut self, slot: usize, filter: usize, bit: u64) -> bool {
        let Some(s) = self.slots.get(slot) else { return false };
        let Some(&(fi, lane)) = s.members.get(filter) else { return false };
        for &st in &s.stacks {
            self.stacks[st].bump();
        }
        self.filters[fi].flip_lane_bit(lane, bit)
    }

    /// The state bit of component `(slot, filter)` guarding the MNM block
    /// containing byte address `addr`, if the filter exposes one.
    pub fn state_bit_of(&self, slot: usize, filter: usize, addr: u64) -> Option<u64> {
        let block = self.granularity.block_of(addr);
        let &(fi, lane) = self.slots.get(slot)?.members.get(filter)?;
        self.filters[fi].lane_bit_of(lane, block)
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
        for f in &mut self.filters {
            f.flush_lanes();
        }
        for stack in &mut self.stacks {
            stack.bump();
        }
        for slot in &mut self.slots {
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
    /// A flush must clear every attached filter (TMNM counters, CMNM
    /// tags, the shared RMNM table, SMNM checkers) *and* the caches in the
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
            // Any distinct frame per resident block keeps the frame contract.
            for (frame, base) in hier.cache(info.id).resident_blocks().enumerate() {
                rebuilt.push(CacheEvent {
                    structure: info.id,
                    kind: EventKind::Placed,
                    block_base: base,
                    block_bytes: info.block_bytes,
                    frame: frame as u32,
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

    /// The memo entry of `addr`'s block in `mnm`'s first stack, and whether
    /// it was recorded at the stack's current version.
    fn memo_entry(mnm: &Mnm, addr: u64) -> (MemoEntry, bool) {
        let stack = &mnm.stacks[0];
        let e = stack.memo[memo_index(mnm.granularity.block_of(addr))];
        (e, e.version == stack.version)
    }

    /// `addr`'s block has a current entry, so the next query is answered
    /// from the memo.
    fn answered_from_memo(mnm: &Mnm, addr: u64) -> bool {
        let (e, current) = memo_entry(mnm, addr);
        current && e.asked != 0 && e.block == mnm.granularity.block_of(addr)
    }

    /// An access that hit at L1 hands feedback an empty event list: it
    /// changes no statistic, no filter state and no remembered verdict.
    #[test]
    fn empty_feedback_changes_nothing() {
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse("HMNM2").unwrap());
        mnm.run_access(&mut hier, Access::load(0x1000));
        mnm.query(Access::load(0x1000));
        assert!(answered_from_memo(&mnm, 0x1000));
        let stats = mnm.stats().clone();
        let versions: Vec<u32> = mnm.stacks.iter().map(|s| s.version).collect();
        let occupancy = (mnm.occupancy(), mnm.component_occupancy());

        mnm.observe_events(&[]);
        assert_eq!(mnm.stats(), &stats);
        assert_eq!(mnm.stacks.iter().map(|s| s.version).collect::<Vec<_>>(), versions);
        assert_eq!((mnm.occupancy(), mnm.component_occupancy()), occupancy);
        assert!(answered_from_memo(&mnm, 0x1000));
    }

    /// A trail of one record counts when its structure is guarded: the
    /// shard resolver hands a core its shared-L3 probe this way, so no
    /// shortcut may key on the trail's length. An L1 record never counts.
    #[test]
    fn a_single_guarded_probe_record_counts() {
        let hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse("TMNM_12x1").unwrap());
        let ul3 = mnm.slot_structures()[1];
        let dl1 = hier.path(cache_sim::AccessKind::Load)[0];
        let record =
            |structure, level, outcome| ProbeRecord { structure, level, outcome, latency: 0 };
        let counted = |mnm: &Mnm| {
            let st = &mnm.stats().slots[1];
            (st.bypassable_misses, st.identified_misses)
        };

        mnm.note_probes(&[record(ul3, 3, ProbeOutcome::Miss)]);
        assert_eq!(counted(&mnm), (1, 0));
        mnm.note_probes(&[record(ul3, 3, ProbeOutcome::Bypassed)]);
        assert_eq!(counted(&mnm), (2, 1));
        mnm.note_probes(&[record(ul3, 3, ProbeOutcome::Hit)]);
        mnm.note_probes(&[record(dl1, 1, ProbeOutcome::Miss)]);
        assert_eq!(counted(&mnm), (2, 1));
        assert_eq!(mnm.stats().slots[0], crate::stats::SlotStats::default());
    }

    #[test]
    fn memo_forgets_a_verdict_when_a_bit_flips() {
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse("TMNM_12x1").unwrap());
        mnm.run_access(&mut hier, Access::load(0x1000));
        assert!(mnm.query(Access::load(0x1000)).is_empty());
        assert!(answered_from_memo(&mnm, 0x1000));
        assert!(mnm.query(Access::load(0x1000)).is_empty());

        let (slot, filter, _) = mnm.fault_surface()[0];
        let bit = mnm.state_bit_of(slot, filter, 0x1000).unwrap();
        assert!(mnm.flip_filter_bit(slot, filter, bit));
        let bypass = mnm.query(Access::load(0x1000));
        assert!(bypass.contains(mnm.slot_structures()[slot]), "a stale verdict survived a flip");
    }

    #[test]
    fn memo_forgets_every_verdict_on_flush() {
        for label in ["TMNM_12x1", "SMNM_13x2", "CMNM_8_12", "BLOOM_13x4", "HMNM2"] {
            let mut hier = tiny_hierarchy();
            let mut mnm = Mnm::new(&hier, MnmConfig::parse(label).unwrap());
            mnm.run_access(&mut hier, Access::load(0x1000));
            assert!(mnm.query(Access::load(0x1000)).is_empty(), "{label}");
            assert!(answered_from_memo(&mnm, 0x1000), "{label}");
            mnm.flush();
            // Cold filters flag every structure on the path.
            assert_eq!(mnm.query(Access::load(0x1000)).len(), 2, "{label}: stale after flush");
        }
    }

    #[test]
    fn memo_forgets_a_verdict_on_placement_and_replacement() {
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse("TMNM_12x1").unwrap());
        // Placement: a cold block is flagged everywhere, from the memo the
        // second time, until the fill places it.
        assert_eq!(mnm.query(Access::load(0x0)).len(), 2);
        assert!(answered_from_memo(&mnm, 0x0));
        mnm.run_access(&mut hier, Access::load(0x0));
        assert!(mnm.query(Access::load(0x0)).is_empty(), "a stale verdict survived a placement");

        // Replacement: 0x100 and 0x200 share ul2's set with 0x0, so their
        // fills evict it from ul2 (ul3 keeps it).
        assert!(answered_from_memo(&mnm, 0x0));
        for addr in [0x100, 0x200] {
            mnm.run_access(&mut hier, Access::load(addr));
        }
        let ul2 = hier.structures().iter().find(|s| s.name == "ul2").unwrap().id;
        assert!(!hier.contains(ul2, 0x0));
        // The entry is still there; only its version keeps it from answering.
        let (e, current) = memo_entry(&mnm, 0x0);
        assert!(e.block == 0 && e.asked != 0 && !current);
        let bypass = mnm.query(Access::load(0x0));
        assert!(bypass.contains(ul2), "a stale verdict survived a replacement");
        assert_eq!(bypass.len(), 1);
    }

    #[test]
    fn memo_is_cleared_when_the_version_wraps() {
        let hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse("TMNM_12x1").unwrap());
        mnm.query(Access::load(0x1000));
        assert!(answered_from_memo(&mnm, 0x1000));
        // As after 2^32 - 1 further changes: the next one wraps to the
        // version the entry was recorded at.
        mnm.stacks[0].version = u32::MAX;
        mnm.stacks[0].bump();
        assert_eq!(mnm.stacks[0].version, 0);
        assert!(!answered_from_memo(&mnm, 0x1000), "a wrapped version revived an old verdict");
    }
}
