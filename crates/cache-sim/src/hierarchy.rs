//! The multi-level cache hierarchy.

use crate::access::{Access, AccessResult, BypassSet, ProbeOutcome, ProbeRecord};
use crate::cache::{Cache, Eviction, FillOutcome, Scan};
use crate::config::{HierarchyConfig, LevelConfig, WritePolicy};
use crate::events::{CacheEvent, EventKind};
use crate::replay::{AccessFilter, BatchSummary, ReplayScratch};
use crate::stats::HierarchyStats;

/// Opaque index identifying one cache structure in a hierarchy
/// (e.g. in the paper's 5-level processor there are 7 structures:
/// il1, dl1, il2, dl2, ul3, ul4, ul5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructureId(usize);

impl StructureId {
    /// Build a structure id from a raw index.
    pub fn new(index: usize) -> Self {
        StructureId(index)
    }

    /// The raw index, usable into [`Hierarchy::structures`] and
    /// [`HierarchyStats::structures`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// Static facts about one structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureInfo {
    /// The structure's id.
    pub id: StructureId,
    /// 1-based cache level.
    pub level: u8,
    /// Structure name from its configuration ("dl1", "ul3", ...).
    pub name: String,
    /// Line size in bytes.
    pub block_bytes: u64,
    /// Whether this structure serves only the instruction path
    /// (false for data-side and unified structures).
    pub instr_only: bool,
    /// Whether this structure serves only the data path.
    pub data_only: bool,
}

/// A multi-level cache hierarchy with split/unified levels, a
/// non-inclusive fill policy and probe-level bypass.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: HierarchyConfig,
    /// Level number of the first configured level (1 for a full system;
    /// higher when this hierarchy models only the outer levels).
    base_level: u8,
    caches: Vec<Cache>,
    infos: Vec<StructureInfo>,
    instr_path: Vec<StructureId>,
    data_path: Vec<StructureId>,
    /// The level of each step of `instr_path` and `data_path`.
    instr_levels: Vec<u8>,
    data_levels: Vec<u8>,
    /// A store's route, fixed by the write policies: the write-through
    /// structures at the head of `data_path` forward it, then the first
    /// write-back structure (if any) absorbs it.
    store_through: Vec<StructureId>,
    store_absorber: Option<StructureId>,
    stats: HierarchyStats,
    /// Reusable buffers backing [`Hierarchy::access`], [`Hierarchy::step`]
    /// and [`Hierarchy::run`], so those callers get the same
    /// allocation-free steady state as [`Hierarchy::access_with_events`]
    /// users.
    scratch: ReplayScratch,
}

/// Running totals of one access's walk through the hierarchy.
#[derive(Debug, Clone, Copy, Default)]
struct Walk {
    latency: u64,
    miss_latency: u64,
    misses: u32,
    bypassed: u32,
    probed_beyond_l1: u32,
}

impl Hierarchy {
    /// Build an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`HierarchyConfig::validate`].
    pub fn new(config: HierarchyConfig) -> Self {
        Self::with_base_level(config, 1)
    }

    /// Build a hierarchy whose first configured level is numbered
    /// `base_level` instead of 1.
    ///
    /// This lets a standalone hierarchy stand in for the *outer* portion
    /// of a larger system — the sharded multi-core simulation models its
    /// shared L3 as a single-level hierarchy with `base_level = 3`, so
    /// probe records carry the true level and the bypass path treats the
    /// structure as a guarded outer level (level-1 structures are never
    /// bypassed).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`HierarchyConfig::validate`] or
    /// `base_level` is zero.
    pub fn with_base_level(config: HierarchyConfig, base_level: u8) -> Self {
        config.validate().expect("invalid hierarchy configuration");
        assert!(base_level >= 1, "cache levels are 1-based");
        let mut caches = Vec::new();
        let mut infos = Vec::new();
        let mut instr_path = Vec::new();
        let mut data_path = Vec::new();

        for (level_idx, level) in config.levels.iter().enumerate() {
            let level_no = base_level + level_idx as u8;
            match level {
                LevelConfig::Split { instr, data } => {
                    let iid = StructureId(caches.len());
                    infos.push(StructureInfo {
                        id: iid,
                        level: level_no,
                        name: instr.name.clone(),
                        block_bytes: instr.block_bytes,
                        instr_only: true,
                        data_only: false,
                    });
                    caches.push(Cache::new(instr.clone()));
                    instr_path.push(iid);

                    let did = StructureId(caches.len());
                    infos.push(StructureInfo {
                        id: did,
                        level: level_no,
                        name: data.name.clone(),
                        block_bytes: data.block_bytes,
                        instr_only: false,
                        data_only: true,
                    });
                    caches.push(Cache::new(data.clone()));
                    data_path.push(did);
                }
                LevelConfig::Unified(cfg) => {
                    let id = StructureId(caches.len());
                    infos.push(StructureInfo {
                        id,
                        level: level_no,
                        name: cfg.name.clone(),
                        block_bytes: cfg.block_bytes,
                        instr_only: false,
                        data_only: false,
                    });
                    caches.push(Cache::new(cfg.clone()));
                    instr_path.push(id);
                    data_path.push(id);
                }
            }
        }

        let level_of = |path: &[StructureId]| path.iter().map(|id| infos[id.0].level).collect();
        let instr_levels = level_of(&instr_path);
        let data_levels = level_of(&data_path);
        let through = data_path
            .iter()
            .take_while(|id| caches[id.0].config().write_policy == WritePolicy::WriteThrough)
            .count();
        let store_through = data_path[..through].to_vec();
        let store_absorber = data_path.get(through).copied();

        let stats = HierarchyStats::new(caches.len(), config.levels.len());
        Hierarchy {
            config,
            base_level,
            caches,
            infos,
            instr_path,
            data_path,
            instr_levels,
            data_levels,
            store_through,
            store_absorber,
            stats,
            scratch: ReplayScratch::new(),
        }
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Static descriptions of every structure, indexed by
    /// [`StructureId::index`].
    pub fn structures(&self) -> &[StructureInfo] {
        &self.infos
    }

    /// The cache object behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this hierarchy.
    pub fn cache(&self, id: StructureId) -> &Cache {
        &self.caches[id.0]
    }

    /// Number of cache levels.
    pub fn num_levels(&self) -> usize {
        self.config.levels.len()
    }

    /// The pseudo-level representing main memory: one past the last
    /// configured cache level (`base_level + num_levels()`, 1-based).
    pub fn memory_level(&self) -> u8 {
        self.base_level + self.num_levels() as u8
    }

    /// Ordered structure path for instruction or data references.
    pub fn path(&self, kind: crate::AccessKind) -> &[StructureId] {
        if kind.is_instruction() {
            &self.instr_path
        } else {
            &self.data_path
        }
    }

    /// The line size of the level-2 structures, the MNM's working
    /// granularity (paper §3.1). Falls back to the L1 line size in
    /// single-level hierarchies.
    ///
    /// On a split L2 the data-side structure defines the granularity: the
    /// MNM filters the data reference stream (the dominant energy/latency
    /// consumer in the paper's accounting), and structure order within a
    /// level is an artifact of hierarchy construction, so picking whichever
    /// structure `find` hits first would silently bind the MNM to the
    /// instruction-side block size.
    pub fn mnm_granularity(&self) -> u64 {
        let level = if self.num_levels() >= 2 { self.base_level + 1 } else { self.base_level };
        self.infos
            .iter()
            .find(|i| i.level == level && !i.instr_only)
            .or_else(|| self.infos.iter().find(|i| i.level == level))
            .map(|i| i.block_bytes)
            .expect("hierarchy has at least one level")
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Reset statistics, keeping cache contents (used after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::new(self.caches.len(), self.num_levels());
    }

    /// Whether the block containing `addr` is resident in `id`. Never
    /// perturbs replacement state.
    pub fn contains(&self, id: StructureId, addr: u64) -> bool {
        self.caches[id.0].contains(addr)
    }

    /// Dry-run: the structures beyond level 1 on the access path that
    /// would be probed and miss before the supplying level, found without
    /// touching any state. This is the oracle behind the *perfect MNM*
    /// (paper §4.3); the first level is never included, since the paper
    /// does not predict L1 misses.
    ///
    /// ```
    /// use cache_sim::{Access, Hierarchy, HierarchyConfig};
    ///
    /// let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
    /// let access = Access::load(0x1000);
    /// let bypass = hier.dry_run_bypass(access);
    /// assert_eq!(bypass.len(), 4); // cold caches: L2..L5 all flagged
    /// let r = hier.access(access, &bypass);
    /// assert_eq!(r.misses, 1);     // only the un-bypassable L1 probe missed
    /// ```
    pub fn dry_run_bypass(&self, access: Access) -> BypassSet {
        let mut missing = BypassSet::none();
        for &sid in self.path(access.kind) {
            if self.caches[sid.0].contains(access.addr) {
                return missing;
            }
            if self.infos[sid.0].level > 1 {
                missing.insert(sid);
            }
        }
        missing
    }

    /// Drive one access through the hierarchy in one pass, inner to
    /// outer, along the access's path.
    ///
    /// Structures in `bypass` (other than level 1, which is always probed)
    /// are skipped: they contribute no latency and no probe count. The
    /// caller guarantees — and debug builds verify — that bypassed
    /// structures do not hold the block; this is the MNM's soundness
    /// contract (paper §3.6).
    ///
    /// A probed structure's set is scanned once: the scan yields the hit
    /// and the MRU-way test behind `mru_hits`. After a miss, a pass over
    /// the set's stamps alone picks the way, and the block is refilled
    /// into it at once, before the walk moves outward. A bypassed
    /// structure was not scanned, so its refill scans the set in full,
    /// which also finds a block an unsound bypass skipped
    /// (`unsound_bypasses`). So every structure closer to the core than
    /// the supplier is refilled (non-inclusive refill), each at its own
    /// line size, in path order; fills and the evictions they cause are
    /// reported through `scratch.events()`, and the probe trail through
    /// `scratch.probes()`. A store then follows its route, fixed at
    /// construction, through the write-through structures to the
    /// write-back structure that absorbs it.
    ///
    /// The walk has a short inline head and an out-of-line level loop.
    /// The head probes the first structure on the path and, on a hit,
    /// closes the access there: an L1 hit, the common case, pays for one
    /// probe and none of the loop's set-up. Only a miss there, which
    /// continues from the next structure, or a bypassed first structure
    /// (a hierarchy built [`with_base_level`](Hierarchy::with_base_level)
    /// above 1) enters the loop. Both record every probe through one
    /// helper and close every access through another, so the head is the
    /// loop's first step, not a second walk: trail, events, stats and
    /// result are the same either way.
    ///
    /// The scratch buffer is cleared on entry and reused across calls:
    /// in steady state this path performs **zero heap allocations** per
    /// access (no path clone, no per-access probe or event vector).
    #[inline]
    pub fn access_with_events(
        &mut self,
        access: Access,
        bypass: &BypassSet,
        scratch: &mut ReplayScratch,
    ) -> AccessResult {
        scratch.clear();
        let (sid, level) = self.path_step(access.kind.is_instruction(), 0);
        let mut walk = Walk::default();
        if level > 1 && bypass.contains(sid) {
            return self.walk_from(0, access, bypass, scratch, walk);
        }
        if self.probe(sid, level, access.addr, scratch, &mut walk) {
            return self.finish(access, level, walk);
        }
        self.walk_from(1, access, bypass, scratch, walk)
    }

    /// The level loop of [`Hierarchy::access_with_events`]: walk the
    /// access's path from step `start` on, carrying the totals of the
    /// steps before it, until a structure supplies the block or memory
    /// does.
    #[inline(never)]
    fn walk_from(
        &mut self,
        start: usize,
        access: Access,
        bypass: &BypassSet,
        scratch: &mut ReplayScratch,
        mut walk: Walk,
    ) -> AccessResult {
        let is_instr = access.kind.is_instruction();
        let path_len = if is_instr { self.instr_path.len() } else { self.data_path.len() };
        for i in start..path_len {
            let (sid, level) = self.path_step(is_instr, i);
            if level > 1 && bypass.contains(sid) {
                debug_assert!(
                    !self.caches[sid.0].contains(access.addr),
                    "unsound bypass: {} holds {:#x}",
                    self.infos[sid.0].name,
                    access.addr
                );
                self.stats.structures[sid.0].bypasses += 1;
                walk.bypassed += 1;
                scratch.probes.push(ProbeRecord {
                    structure: sid,
                    level,
                    outcome: ProbeOutcome::Bypassed,
                    latency: 0,
                });
                // The refill travels back through the bypassed structure.
                // Its set was not scanned, so this fill scans it in full;
                // finding the block there means the bypass breached the
                // one-sided contract, which release builds count.
                match self.caches[sid.0].fill(access.addr) {
                    FillOutcome::Filled { frame, victim } => {
                        self.placed(sid, access.addr, frame, victim, &mut scratch.events)
                    }
                    FillOutcome::Already => self.stats.structures[sid.0].unsound_bypasses += 1,
                }
                continue;
            }
            if self.probe(sid, level, access.addr, scratch, &mut walk) {
                return self.finish(access, level, walk);
            }
        }
        walk.latency += self.config.memory_latency;
        self.stats.memory_supplies += 1;
        self.finish(access, self.memory_level(), walk)
    }

    /// The structure and level of step `i` of the instruction or data
    /// path. The paths are fixed at construction; indexing them afresh
    /// each step borrows cleanly against the cache mutations.
    #[inline(always)]
    fn path_step(&self, is_instr: bool, i: usize) -> (StructureId, u8) {
        if is_instr {
            (self.instr_path[i], self.instr_levels[i])
        } else {
            (self.data_path[i], self.data_levels[i])
        }
    }

    /// Probe `sid`, the structure at `level`, for `addr` and record it:
    /// its stats, its trail record and, after a miss, the refill the probe
    /// made. Returns whether it hit. The walk's only probe accounting.
    #[inline(always)]
    fn probe(
        &mut self,
        sid: StructureId,
        level: u8,
        addr: u64,
        scratch: &mut ReplayScratch,
        walk: &mut Walk,
    ) -> bool {
        let cache = &mut self.caches[sid.0];
        let scan = cache.access(addr);
        let config = cache.config();
        let st = &mut self.stats.structures[sid.0];
        st.probes += 1;
        if level > 1 {
            walk.probed_beyond_l1 += 1;
        }
        let (outcome, lat) = match scan {
            Scan::Hit { mru } => {
                st.hits += 1;
                st.mru_hits += u64::from(mru);
                (ProbeOutcome::Hit, config.hit_latency)
            }
            Scan::Miss { .. } => {
                st.misses += 1;
                walk.misses += 1;
                walk.miss_latency += config.miss_latency;
                (ProbeOutcome::Miss, config.miss_latency)
            }
        };
        walk.latency += lat;
        scratch.probes.push(ProbeRecord { structure: sid, level, outcome, latency: lat });
        let Scan::Miss { frame, victim } = scan else { return true };
        self.placed(sid, addr, frame, victim, &mut scratch.events);
        false
    }

    /// Close an access that `supply_level` supplied: route a store, then
    /// count the access and its latency. The walk's only access
    /// bookkeeping.
    ///
    /// Write handling: each write-through structure on the store's route
    /// forwards the write (one write transaction of traffic) until the
    /// write-back structure absorbs it as a dirty mark, matching the
    /// paper's traffic accounting. A non-resident block at the absorbing
    /// level is left alone (write-no-allocate beyond L1; the traffic was
    /// already counted at the forwarding level).
    #[inline(always)]
    fn finish(&mut self, access: Access, supply_level: u8, walk: Walk) -> AccessResult {
        if access.kind == crate::AccessKind::Store {
            for sid in &self.store_through {
                self.stats.structures[sid.0].writebacks += 1;
            }
            if let Some(sid) = self.store_absorber {
                self.caches[sid.0].mark_dirty(access.addr);
            }
        }
        self.stats.accesses += 1;
        if access.kind.is_instruction() {
            self.stats.instr_accesses += 1;
        } else {
            self.stats.data_accesses += 1;
        }
        self.stats.total_latency += walk.latency;
        self.stats.miss_latency += walk.miss_latency;
        self.stats.supplies_by_level[(supply_level - self.base_level) as usize] += 1;
        let Walk { latency, miss_latency: _, misses, bypassed, probed_beyond_l1 } = walk;
        AccessResult { supply_level, latency, misses, bypassed, probed_beyond_l1 }
    }

    /// Account for the block containing `addr` entering `frame` of `sid`,
    /// evicting `victim`: count the fill, report the events and, in an
    /// inclusive hierarchy, back-invalidate the victim.
    fn placed(
        &mut self,
        sid: StructureId,
        addr: u64,
        frame: u32,
        victim: Option<Eviction>,
        events: &mut Vec<CacheEvent>,
    ) {
        let block_bytes = self.caches[sid.0].config().block_bytes;
        self.stats.structures[sid.0].fills += 1;
        if let Some(victim) = victim {
            self.stats.structures[sid.0].evictions += 1;
            if victim.dirty {
                // Write-back traffic: counted and charged by the power
                // model as a write at the next level; contents there are
                // not modelled (write-no-allocate for writebacks), so MNM
                // soundness is unaffected.
                self.stats.structures[sid.0].writebacks += 1;
            }
            events.push(CacheEvent {
                structure: sid,
                kind: EventKind::Replaced,
                block_base: victim.block_base,
                block_bytes,
                frame,
            });
            if self.config.inclusive {
                self.back_invalidate(sid, victim.block_base, block_bytes, events);
            }
        }
        events.push(CacheEvent {
            structure: sid,
            kind: EventKind::Placed,
            block_base: addr & !(block_bytes - 1),
            block_bytes,
            frame,
        });
    }

    /// Inclusive-mode ablation: evicting from an outer level invalidates
    /// the block in every structure at a strictly closer level.
    ///
    /// Each removal is reported as an [`EventKind::Invalidated`] event (so
    /// attached filters can retire the block) and counted in the inner
    /// structure's `invalidations` stat — not `evictions`, which is reserved
    /// for replacement-policy victims. A dirty inner copy owes a writeback,
    /// exactly as a dirty replacement victim would.
    fn back_invalidate(
        &mut self,
        from: StructureId,
        victim_base: u64,
        victim_bytes: u64,
        events: &mut Vec<CacheEvent>,
    ) {
        let from_level = self.infos[from.0].level;
        for idx in 0..self.caches.len() {
            if self.infos[idx].level >= from_level {
                continue;
            }
            let inner_bytes = self.caches[idx].config().block_bytes;
            // Invalidate every inner block covered by the victim line.
            let count = (victim_bytes / inner_bytes).max(1);
            for i in 0..count {
                let a = victim_base + i * inner_bytes;
                self.invalidate_in_structure(StructureId(idx), a, events);
            }
        }
    }

    /// Remove one inner block from one structure, with full accounting:
    /// bumps `invalidations` (plus `writebacks` if the copy was dirty) and
    /// emits an [`EventKind::Invalidated`] event. Emits nothing when the
    /// block is not resident — filter updates must only see blocks that
    /// were actually removed, or count-based filters go unsound.
    fn invalidate_in_structure(
        &mut self,
        sid: StructureId,
        addr: u64,
        events: &mut Vec<CacheEvent>,
    ) -> bool {
        let Some(removed) = self.caches[sid.0].invalidate(addr) else {
            return false;
        };
        let st = &mut self.stats.structures[sid.0];
        st.invalidations += 1;
        if removed.dirty {
            // The invalidated copy was the only dirty one we model; it is
            // written back toward the outer level / memory on removal.
            st.writebacks += 1;
        }
        events.push(CacheEvent {
            structure: sid,
            kind: EventKind::Invalidated,
            block_base: removed.block_base,
            block_bytes: self.caches[sid.0].config().block_bytes,
            frame: removed.frame,
        });
        true
    }

    /// External coherence entry point: remove the block containing `addr`
    /// from **every** structure of this hierarchy (each at its own line
    /// granularity), as a remote core's store or a shared outer level's
    /// replacement would. Removals are appended to `events` as
    /// [`EventKind::Invalidated`] — feed them to the attached MNM so its
    /// filter state retires the block along with the cache. Returns the
    /// number of structures that actually held (and lost) a copy.
    ///
    /// Events are emitted only for blocks actually removed; broadcasting an
    /// invalidation for a block a cache never held must not reach the
    /// filters (a blind decrement would be unsound).
    pub fn invalidate_block(&mut self, addr: u64, events: &mut Vec<CacheEvent>) -> u32 {
        let mut removed = 0;
        for idx in 0..self.caches.len() {
            if self.invalidate_in_structure(StructureId(idx), addr, events) {
                removed += 1;
            }
        }
        removed
    }

    /// Convenience wrapper around [`Hierarchy::access_with_events`] for
    /// callers that do not consume the probe trail or event stream. Routes
    /// through an internal [`ReplayScratch`], so it is just as
    /// allocation-free in steady state as the explicit-scratch path.
    pub fn access(&mut self, access: Access, bypass: &BypassSet) -> AccessResult {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.access_with_events(access, bypass, &mut scratch);
        self.scratch = scratch;
        result
    }

    /// Drive one access under `filter`: query it, walk the hierarchy with
    /// the resulting bypass set, then feed the event stream and probe
    /// trail back — the full per-access protocol. Reuses the internal
    /// scratch, so it allocates nothing in steady state.
    ///
    /// An access that hits the first structure on its path stays in the
    /// walk's inline head ([`Hierarchy::access_with_events`]): one probe,
    /// a one-record trail and no events, which the MNM's feedback
    /// (`Mnm::observe_events`) returns from at once. Only a miss there
    /// enters the level loop and feeds updates back.
    ///
    /// ```
    /// use cache_sim::{Access, Hierarchy, HierarchyConfig, NoFilter};
    ///
    /// let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
    /// let cold = hier.step(&mut NoFilter, Access::load(0x1000));
    /// assert_eq!(cold.supply_level, hier.memory_level());
    /// assert!(hier.step(&mut NoFilter, Access::load(0x1000)).l1_hit());
    /// ```
    pub fn step<F: AccessFilter + ?Sized>(
        &mut self,
        filter: &mut F,
        access: Access,
    ) -> AccessResult {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.step_with(filter, access, &mut scratch);
        self.scratch = scratch;
        result
    }

    /// [`Hierarchy::step`] over a batch, folding the outcomes into one
    /// [`BatchSummary`]. State evolution is identical to stepping each
    /// access; the batch form takes the scratch out of the hierarchy once
    /// per call instead of once per access.
    pub fn run<F: AccessFilter + ?Sized>(
        &mut self,
        filter: &mut F,
        accesses: &[Access],
    ) -> BatchSummary {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut summary = BatchSummary::default();
        for &access in accesses {
            summary.absorb(self.step_with(filter, access, &mut scratch));
        }
        self.scratch = scratch;
        summary
    }

    #[inline(always)]
    fn step_with<F: AccessFilter + ?Sized>(
        &mut self,
        filter: &mut F,
        access: Access,
        scratch: &mut ReplayScratch,
    ) -> AccessResult {
        let bypass = filter.query(self, access);
        let result = self.access_with_events(access, &bypass, scratch);
        filter.observe_events(self, &scratch.events);
        filter.note_probes(access, &scratch.probes);
        result
    }

    /// Flush every cache and reset statistics.
    pub fn flush(&mut self) {
        for c in &mut self.caches {
            c.flush();
        }
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, HierarchyConfig, LevelConfig};

    fn tiny_two_level() -> Hierarchy {
        // L1: 2 sets x 1 way x 32B (64B); L2: 4 sets x 2 ways x 32B (256B).
        Hierarchy::new(HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 64, 1, 32, 2),
                    data: CacheConfig::new("dl1", 64, 1, 32, 2),
                },
                LevelConfig::Unified(CacheConfig::new("ul2", 256, 2, 32, 8)),
            ],
            memory_latency: 100,
            inclusive: false,
        })
    }

    #[test]
    fn cold_miss_goes_to_memory_and_fills_path() {
        let mut h = tiny_two_level();
        let mut scratch = ReplayScratch::new();
        let r = h.access_with_events(Access::load(0x1000), &BypassSet::none(), &mut scratch);
        assert_eq!(r.supply_level, 3); // memory
        assert_eq!(r.latency, 2 + 8 + 100);
        assert_eq!(r.misses, 2);
        assert_eq!(r.probed_beyond_l1, 1); // ul2 was probed
                                           // Filled into dl1 and ul2.
        assert_eq!(scratch.events().iter().filter(|e| e.kind == EventKind::Placed).count(), 2);
        assert_eq!(scratch.probes().len(), 2);
        let r2 = h.access(Access::load(0x1000), &BypassSet::none());
        assert_eq!(r2.supply_level, 1);
        assert_eq!(r2.latency, 2);
        assert_eq!(r2.probed_beyond_l1, 0);
    }

    #[test]
    fn l2_hit_after_l1_conflict() {
        let mut h = tiny_two_level();
        h.access(Access::load(0x0000), &BypassSet::none());
        // 0x0040 conflicts with 0x0000 in the 2-set L1 but not in the 4-set L2.
        h.access(Access::load(0x0040), &BypassSet::none());
        let r = h.access(Access::load(0x0000), &BypassSet::none());
        assert_eq!(r.supply_level, 2);
        assert_eq!(r.latency, 2 + 8);
    }

    #[test]
    fn bypass_skips_probe_and_latency() {
        let mut h = tiny_two_level();
        // Cold access with L2 flagged as a sure miss.
        let ul2 = h.structures().iter().find(|s| s.name == "ul2").unwrap().id;
        let mut bypass = BypassSet::none();
        bypass.insert(ul2);
        let r = h.access(Access::load(0x2000), &bypass);
        assert_eq!(r.supply_level, 3);
        assert_eq!(r.latency, 2 + 100); // no 8-cycle L2 miss-detect
        assert_eq!(r.bypassed, 1);
        assert_eq!(h.stats().structures[ul2.index()].bypasses, 1);
        // Refill still installed the block in the bypassed level.
        assert!(h.contains(ul2, 0x2000));
    }

    #[test]
    #[should_panic(expected = "unsound bypass")]
    #[cfg(debug_assertions)]
    fn unsound_bypass_is_caught() {
        let mut h = tiny_two_level();
        h.access(Access::load(0x3000), &BypassSet::none());
        // Evict from L1 (2 sets): 0x3040 maps to the other set; use 0x3080
        // which shares L1 set 0 with 0x3000 (64B L1, 32B lines => sets by
        // bit 5). 0x3000 set = (0x3000>>5)&1 = 0; 0x3080 set = 0.
        h.access(Access::load(0x3080), &BypassSet::none());
        // 0x3000 is now only in ul2; bypassing ul2 is unsound.
        let ul2 = h.structures().iter().find(|s| s.name == "ul2").unwrap().id;
        let mut bypass = BypassSet::none();
        bypass.insert(ul2);
        h.access(Access::load(0x3000), &bypass);
    }

    /// Release builds drop the assertion above but still count the breach,
    /// and a sound bypass counts nothing.
    #[test]
    #[cfg(not(debug_assertions))]
    fn unsound_bypass_is_counted_in_release_builds() {
        let mut h = tiny_two_level();
        let ul2 = h.structures().iter().find(|s| s.name == "ul2").unwrap().id;
        let mut bypass = BypassSet::none();
        bypass.insert(ul2);
        h.access(Access::load(0x5000), &bypass);
        assert_eq!(h.stats().structures[ul2.index()].unsound_bypasses, 0, "cold: sound");
        h.access(Access::load(0x3000), &BypassSet::none());
        h.access(Access::load(0x3080), &BypassSet::none());
        h.access(Access::load(0x3000), &bypass);
        let st = &h.stats().structures[ul2.index()];
        assert_eq!((st.bypasses, st.unsound_bypasses), (2, 1));
    }

    #[test]
    fn instruction_and_data_paths_are_disjoint_at_l1() {
        let mut h = tiny_two_level();
        h.access(Access::fetch(0x4000), &BypassSet::none());
        let il1 = h.structures().iter().find(|s| s.name == "il1").unwrap().id;
        let dl1 = h.structures().iter().find(|s| s.name == "dl1").unwrap().id;
        assert!(h.contains(il1, 0x4000));
        assert!(!h.contains(dl1, 0x4000));
        // Unified L2 serves both.
        let ul2 = h.structures().iter().find(|s| s.name == "ul2").unwrap().id;
        assert!(h.contains(ul2, 0x4000));
        let r = h.access(Access::load(0x4000), &BypassSet::none());
        assert_eq!(r.supply_level, 2);
    }

    #[test]
    fn dry_run_matches_actual_misses() {
        let mut h = tiny_two_level();
        h.access(Access::load(0x5000), &BypassSet::none());
        // A fresh address misses everywhere: dry run reports ul2 only
        // (L1 is excluded).
        let misses = h.dry_run_bypass(Access::load(0x6000));
        let ul2 = h.structures().iter().find(|s| s.name == "ul2").unwrap().id;
        assert_eq!(misses.len(), 1);
        assert!(misses.contains(ul2));
        // The resident address reports no predictable misses.
        assert!(h.dry_run_bypass(Access::load(0x5000)).is_empty());
    }

    #[test]
    fn dry_run_bypass_is_exact() {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        // Warm one block.
        hier.access(Access::load(0x8000), &BypassSet::none());
        // Resident block: nothing to bypass.
        assert!(hier.dry_run_bypass(Access::load(0x8000)).is_empty());
        // Fresh block: all four outer levels flagged; the driven access
        // then misses only in L1.
        let access = Access::load(0x4_0000);
        let bypass = hier.dry_run_bypass(access);
        assert_eq!(bypass.len(), 4);
        let r = hier.access(access, &bypass);
        assert_eq!(r.misses, 1);
        assert_eq!(r.bypassed, 4);
        assert_eq!(r.latency, 2 + 320);
    }

    #[test]
    fn dry_run_bypass_stops_at_the_supplier() {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        hier.access(Access::load(0x8000), &BypassSet::none());
        // Evict 0x8000 from the 4KB direct-mapped L1 (128 sets of 32B:
        // stride 4096 aliases).
        hier.access(Access::load(0x8000 + 4096), &BypassSet::none());
        // 0x8000 now hits in L2: the perfect MNM flags nothing.
        let bypass = hier.dry_run_bypass(Access::load(0x8000));
        assert!(bypass.is_empty());
    }

    #[test]
    fn replacement_events_are_emitted() {
        let mut h = tiny_two_level();
        let mut scratch = ReplayScratch::new();
        // L1 has 2 sets; 0x0000 and 0x0080 share set 0 (stride 64 covers
        // both sets, stride 128 aliases).
        h.access_with_events(Access::load(0x0000), &BypassSet::none(), &mut scratch);
        h.access_with_events(Access::load(0x0080), &BypassSet::none(), &mut scratch);
        let dl1 = h.structures().iter().find(|s| s.name == "dl1").unwrap().id;
        let replaced: Vec<_> = scratch
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Replaced && e.structure == dl1)
            .collect();
        assert_eq!(replaced.len(), 1);
        assert_eq!(replaced[0].block_base, 0x0000);
    }

    #[test]
    fn paper_config_supplies_accumulate() {
        let mut h = Hierarchy::new(HierarchyConfig::paper_five_level());
        // Stride 128 = the largest line size, so every access is a fresh
        // block at every level (pure cold misses).
        for i in 0..100u64 {
            h.access(Access::load(i * 128), &BypassSet::none());
        }
        let s = h.stats();
        assert_eq!(s.accesses, 100);
        assert_eq!(s.supplies_by_level.iter().sum::<u64>(), 100);
        assert_eq!(s.memory_supplies, 100); // all cold
        assert_eq!(s.mean_access_time(), (2 + 8 + 18 + 34 + 70 + 320) as f64);
    }

    #[test]
    fn inclusive_mode_back_invalidates() {
        let mut h = Hierarchy::new(HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 64, 1, 32, 1),
                    data: CacheConfig::new("dl1", 64, 1, 32, 1),
                },
                // Direct-mapped 2-set L2 to force quick evictions.
                LevelConfig::Unified(CacheConfig::new("ul2", 64, 1, 32, 2)),
            ],
            memory_latency: 10,
            inclusive: true,
        });
        let dl1 = h.structures().iter().find(|s| s.name == "dl1").unwrap().id;
        h.access(Access::load(0x0000), &BypassSet::none());
        assert!(h.contains(dl1, 0x0000));
        // 0x0040 evicts 0x0000 from the 2-set L2 (sets by bit 5: both map
        // to set 0? 0x0000>>5=0 set0; 0x0040>>5=2 set0). Yes: set 0.
        h.access(Access::load(0x0040), &BypassSet::none());
        assert!(!h.contains(dl1, 0x0000), "inclusive eviction must back-invalidate L1");
    }

    fn tiny_inclusive() -> Hierarchy {
        // dl1 is a single 2-way set (both test addresses fit), while the
        // direct-mapped 2-set ul2 with 64B lines conflicts on them — so an
        // ul2 eviction back-invalidates a block dl1 still holds, instead
        // of dl1 having already evicted it on its own.
        Hierarchy::new(HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 64, 2, 32, 1),
                    data: CacheConfig::new("dl1", 64, 2, 32, 1),
                },
                LevelConfig::Unified(CacheConfig::new("ul2", 128, 1, 64, 2)),
            ],
            memory_latency: 10,
            inclusive: true,
        })
    }

    #[test]
    fn back_invalidation_emits_invalidated_events_with_accounting() {
        let mut h = tiny_inclusive();
        let dl1 = h.structures().iter().find(|s| s.name == "dl1").unwrap().id;
        let mut scratch = ReplayScratch::new();
        h.access_with_events(Access::load(0x0000), &BypassSet::none(), &mut scratch);
        // 0x0100 evicts line 0x0000 from ul2 (same set), back-invalidating
        // dl1's copy; dl1 itself still has a free way.
        h.access_with_events(Access::load(0x0100), &BypassSet::none(), &mut scratch);
        let inv: Vec<_> = scratch
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Invalidated && e.structure == dl1)
            .collect();
        assert_eq!(inv.len(), 1, "dl1 copy of 0x0000 must surface as an Invalidated event");
        assert_eq!(inv[0].block_base, 0x0000);
        let st = &h.stats().structures[dl1.index()];
        assert_eq!(st.invalidations, 1);
        assert_eq!(st.evictions, 0, "back-invalidations are not replacement victims");
    }

    #[test]
    fn dirty_back_invalidation_owes_a_writeback() {
        let mut h = tiny_inclusive();
        let dl1 = h.structures().iter().find(|s| s.name == "dl1").unwrap().id;
        h.access(Access::store(0x0000), &BypassSet::none());
        assert!(h.cache(dl1).is_dirty(0x0000));
        h.access(Access::load(0x0100), &BypassSet::none());
        let st = &h.stats().structures[dl1.index()];
        assert_eq!(st.invalidations, 1);
        assert_eq!(st.writebacks, 1, "dirty data lost to back-invalidation must write back");
    }

    #[test]
    fn invalidate_block_removes_from_every_level() {
        let mut h = tiny_two_level();
        h.access(Access::load(0x1000), &BypassSet::none());
        let dl1 = h.structures().iter().find(|s| s.name == "dl1").unwrap().id;
        let ul2 = h.structures().iter().find(|s| s.name == "ul2").unwrap().id;
        let mut events = Vec::new();
        assert_eq!(h.invalidate_block(0x1008, &mut events), 2);
        assert!(!h.contains(dl1, 0x1000));
        assert!(!h.contains(ul2, 0x1000));
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.kind == EventKind::Invalidated));
        assert_eq!(h.stats().structures[dl1.index()].invalidations, 1);
        assert_eq!(h.stats().structures[ul2.index()].invalidations, 1);
        // Re-invalidating emits nothing: filters must never be told about
        // removals that did not happen.
        events.clear();
        assert_eq!(h.invalidate_block(0x1000, &mut events), 0);
        assert!(events.is_empty());
    }

    #[test]
    fn dirty_evictions_count_as_writebacks() {
        let mut h = tiny_two_level();
        let dl1 = h.structures().iter().find(|s| s.name == "dl1").unwrap().id;
        // Write a block, then evict it from the 2-set dl1 with an alias.
        h.access(Access::store(0x0000), &BypassSet::none());
        assert!(h.cache(dl1).is_dirty(0x0000));
        h.access(Access::load(0x0080), &BypassSet::none()); // same dl1 set
        assert_eq!(h.stats().structures[dl1.index()].writebacks, 1);
        // Clean evictions don't count: read-only traffic.
        h.access(Access::load(0x0000), &BypassSet::none());
        assert_eq!(h.stats().structures[dl1.index()].writebacks, 1);
    }

    #[test]
    fn write_through_counts_stores_not_evictions() {
        let cfg = HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 64, 1, 32, 2),
                    data: CacheConfig::new("dl1", 64, 1, 32, 2)
                        .with_write_policy(crate::WritePolicy::WriteThrough),
                },
                LevelConfig::Unified(CacheConfig::new("ul2", 256, 2, 32, 8)),
            ],
            memory_latency: 100,
            inclusive: false,
        };
        cfg.validate().unwrap();
        let mut h = Hierarchy::new(cfg);
        let dl1 = h.structures().iter().find(|s| s.name == "dl1").unwrap().id;
        for _ in 0..5 {
            h.access(Access::store(0x40), &BypassSet::none());
        }
        assert_eq!(h.stats().structures[dl1.index()].writebacks, 5);
        assert!(!h.cache(dl1).is_dirty(0x40), "write-through leaves blocks clean");
    }

    #[test]
    fn write_through_stores_propagate_to_next_level() {
        // Regression: stores through a write-through dl1 were counted there
        // but never reached ul2 — the next write-back level must absorb the
        // write as a dirty mark.
        let mut h = Hierarchy::new(HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 64, 1, 32, 2),
                    data: CacheConfig::new("dl1", 64, 1, 32, 2)
                        .with_write_policy(WritePolicy::WriteThrough),
                },
                LevelConfig::Unified(CacheConfig::new("ul2", 256, 2, 32, 8)),
            ],
            memory_latency: 100,
            inclusive: false,
        });
        let dl1 = h.structures().iter().find(|s| s.name == "dl1").unwrap().id;
        let ul2 = h.structures().iter().find(|s| s.name == "ul2").unwrap().id;
        h.access(Access::store(0x40), &BypassSet::none());
        assert!(!h.cache(dl1).is_dirty(0x40));
        assert!(h.cache(ul2).is_dirty(0x40), "store must propagate through write-through dl1");
        // An ul2 eviction of that block now produces write-back traffic,
        // which the pre-fix accounting lost entirely.
        assert_eq!(h.stats().structures[dl1.index()].writebacks, 1);
        assert_eq!(h.stats().structures[ul2.index()].writebacks, 0);
    }

    #[test]
    fn write_through_chain_counts_traffic_at_every_forwarding_level() {
        // Two stacked write-through levels: the store is forwarded (and
        // counted) at both, then absorbed by the write-back ul3.
        let mut h = Hierarchy::new(HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 64, 1, 32, 2),
                    data: CacheConfig::new("dl1", 64, 1, 32, 2)
                        .with_write_policy(WritePolicy::WriteThrough),
                },
                LevelConfig::Unified(
                    CacheConfig::new("ul2", 256, 2, 32, 8)
                        .with_write_policy(WritePolicy::WriteThrough),
                ),
                LevelConfig::Unified(CacheConfig::new("ul3", 1024, 4, 64, 16)),
            ],
            memory_latency: 100,
            inclusive: false,
        });
        let dl1 = h.structures().iter().find(|s| s.name == "dl1").unwrap().id;
        let ul2 = h.structures().iter().find(|s| s.name == "ul2").unwrap().id;
        let ul3 = h.structures().iter().find(|s| s.name == "ul3").unwrap().id;
        for _ in 0..3 {
            h.access(Access::store(0x80), &BypassSet::none());
        }
        assert_eq!(h.stats().structures[dl1.index()].writebacks, 3);
        assert_eq!(h.stats().structures[ul2.index()].writebacks, 3);
        assert!(h.cache(ul3).is_dirty(0x80));
        assert!(!h.cache(ul2).is_dirty(0x80));
    }

    #[test]
    fn mnm_granularity_is_l2_block() {
        let h = Hierarchy::new(HierarchyConfig::paper_five_level());
        assert_eq!(h.mnm_granularity(), 32);
    }

    #[test]
    fn mnm_granularity_prefers_data_side_on_split_l2() {
        // Regression: with a split L2 whose instruction side has a larger
        // line, `find` over construction order returned il2's block size.
        let h = Hierarchy::new(HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 64, 1, 32, 2),
                    data: CacheConfig::new("dl1", 64, 1, 32, 2),
                },
                LevelConfig::Split {
                    instr: CacheConfig::new("il2", 512, 2, 128, 8),
                    data: CacheConfig::new("dl2", 512, 2, 64, 8),
                },
                LevelConfig::Unified(CacheConfig::new("ul3", 2048, 4, 128, 16)),
            ],
            memory_latency: 100,
            inclusive: false,
        });
        assert_eq!(h.mnm_granularity(), 64, "data-side L2 line defines MNM granularity");
    }
}
