//! CMNM — the Common-Address MNM (paper §3.4).
//!
//! CMNM exploits the spatial locality of the *high* address bits. A
//! **virtual-tag finder** holds `k` registers, each storing a previously
//! encountered most-significant address portion together with a mask. An
//! incoming block address is split into its high `(addr_bits - m)` bits and
//! low `m` bits; the high bits are matched against the registers:
//!
//! * no register matches → the block can be in the cache only if it was
//!   placed through a register, so the access is a **definite miss**;
//! * register `r` matches → the index `r * 2^m + low_bits` selects a
//!   saturating counter in the CMNM table; a zero counter is a **definite
//!   miss**.
//!
//! When a *placement* matches no register, the registers' masks are widened
//! ("shifted left until a match is found"); the matching register keeps the
//! wider mask permanently. Masks only ever widen, so a block that matched a
//! register at placement time keeps matching it — the foundation of the
//! no-match-is-a-miss rule.
//!
//! One hardware subtlety the paper glosses over: after masks widen, a
//! *different* register may also start matching an old block, so pairing
//! each replacement with the counter its placement incremented needs the
//! register index to travel with the cache block. We model exactly that —
//! the register index is tagged onto the block when it is filled, in the
//! block's own cache frame (the paper already requires caches to report
//! replaced blocks to the MNM, §2; the event names the frame too) — which
//! keeps the counters exact and the filter sound. The tags are one byte
//! per frame slot, indexed by the slot the event reports, so an update
//! touches the bytes of its own line and nothing is hashed or searched.
//! An update is the aligned run of MNM blocks one line holds; when the
//! run varies only in the table's low `m` bits, its blocks share one high
//! portion, so the register is found (or installed) once per run, while
//! counters and tags are still kept per block.

use cache_sim::BlockRun;

use crate::filter::{FilterOccupancy, LaneFilter};

/// `CMNM_<registers>_<table_bits>` (e.g. `CMNM_8_12`): `registers` entries
/// in the virtual-tag finder, `2^table_bits` counters per register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmnmConfig {
    /// Number of virtual-tag registers (k). Must be a power of two, at
    /// most 128.
    pub registers: u32,
    /// Low bits of the block address used to index the table (m).
    pub table_bits: u32,
    /// Width of the block-address space examined (paper: 32-bit addresses).
    pub addr_bits: u32,
    /// Width of each saturating counter (paper: 3).
    pub counter_bits: u32,
}

impl CmnmConfig {
    /// Create a configuration with the paper's 32-bit addresses and 3-bit
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if `registers` is not a power of two in 1..=128 (each
    /// block's register tag is one byte, with one value for "no tag"), or
    /// `table_bits` is 0 or ≥ 31.
    pub fn new(registers: u32, table_bits: u32) -> Self {
        assert!(
            registers.is_power_of_two() && (1..=128).contains(&registers),
            "register count must be a power of two in 1..=128"
        );
        assert!((1..31).contains(&table_bits), "table_bits must be 1..=30");
        CmnmConfig { registers, table_bits, addr_bits: 32, counter_bits: 3 }
    }

    /// The paper's label for this configuration.
    pub fn label(&self) -> String {
        format!("CMNM_{}_{}", self.registers, self.table_bits)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Register {
    /// High address portion captured at install time.
    value: u64,
    /// How many low bits of the high portion are currently ignored.
    /// Monotonically non-decreasing (masks only widen).
    shift: u32,
    valid: bool,
}

impl Register {
    fn matches(&self, high: u64) -> bool {
        self.valid && (high >> self.shift) == (self.value >> self.shift)
    }

    fn matches_at(&self, high: u64, shift: u32) -> bool {
        self.valid && (high >> shift) == (self.value >> shift)
    }
}

/// The state of one guarded structure: CMNM keeps everything per
/// structure, registers included.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CmnmLane {
    regs: Vec<Register>,
    counters: Vec<u8>,
    /// The per-block tag described in the module docs, one per frame slot:
    /// 1 + the register index the slot's block was counted under, or
    /// [`Cmnm::NO_TAG`] for an empty slot or a block placed before a
    /// flush.
    tags: Vec<u8>,
    /// Tagged slots: the live blocks placed since the last flush.
    live: usize,
}

impl CmnmLane {
    /// First register matching `high` under its current mask.
    fn find_register(&self, high: u64) -> Option<u32> {
        self.regs.iter().position(|r| r.matches(high)).map(|i| i as u32)
    }

    /// Install coverage for `high`: reuse a matching register, fill an
    /// invalid one, or widen masks until a register matches (paper §3.4).
    /// Returns the register index.
    fn cover(&mut self, high: u64, high_bits: u32) -> u32 {
        if let Some(r) = self.find_register(high) {
            return r;
        }
        if let Some(i) = self.regs.iter().position(|r| !r.valid) {
            self.regs[i] = Register { value: high, shift: 0, valid: true };
            return i as u32;
        }
        // "Mask values are shifted left until a match is found. Then the
        // mask values are reset to their original position except the
        // register that matched": widen a trial shift until some register
        // matches; only that register keeps the wider mask.
        for shift in 1..=high_bits {
            if let Some(i) = self.regs.iter().position(|r| r.matches_at(high, shift.max(r.shift))) {
                let s = shift.max(self.regs[i].shift);
                self.regs[i].shift = s;
                return i as u32;
            }
        }
        unreachable!("a full-width shift matches every valid register");
    }

    /// Whether no register matching `high` has a positive counter at
    /// `low` — sound under widening: a live block always still matches
    /// the register it was counted under, whose counter is then
    /// positive. The scan stops at the first such register.
    #[inline]
    fn misses(&self, high: u64, low: u64, table_bits: u32) -> bool {
        for (i, r) in self.regs.iter().enumerate() {
            if r.matches(high) && self.counters[(i << table_bits) | low as usize] > 0 {
                return false;
            }
        }
        true
    }
}

/// A Common-Address MNM filter: one virtual-tag finder, counter table and
/// set of frame tags per guarded structure (lane).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cmnm {
    config: CmnmConfig,
    lanes: Vec<CmnmLane>,
    counter_max: u8,
    high_bits: u32,
    label: String,
}

impl Cmnm {
    /// The tag of a slot no placement since the last flush has tagged.
    const NO_TAG: u8 = 0;

    /// Build an empty filter guarding `lanes` structures (1..=64).
    pub fn new(config: CmnmConfig, lanes: usize) -> Self {
        assert!((1..=64).contains(&lanes), "a filter has 1..=64 lanes, got {lanes}");
        let lane = CmnmLane {
            regs: vec![Register { value: 0, shift: 0, valid: false }; config.registers as usize],
            counters: vec![0; (config.registers as usize) << config.table_bits],
            tags: Vec::new(),
            live: 0,
        };
        Cmnm {
            lanes: vec![lane; lanes],
            counter_max: ((1u32 << config.counter_bits) - 1) as u8,
            high_bits: config.addr_bits - config.table_bits,
            label: config.label(),
            config,
        }
    }

    /// This filter's configuration.
    pub fn config(&self) -> &CmnmConfig {
        &self.config
    }

    #[inline]
    fn split(&self, block: u64) -> (u64, u64) {
        let low = block & ((1u64 << self.config.table_bits) - 1);
        let high = (block >> self.config.table_bits) & ((1u64 << self.high_bits) - 1);
        (high, low)
    }

    fn table_index(&self, reg: u32, low: u64) -> usize {
        ((reg as usize) << self.config.table_bits) | low as usize
    }

    /// Count a block with low bits `low`, placed in lane `lane`'s frame
    /// slot `frame_slot`, under register `reg`, and tag the slot with it.
    #[inline]
    fn count_in(&mut self, lane: usize, reg: u32, low: u64, frame_slot: usize) {
        let idx = self.table_index(reg, low);
        let l = &mut self.lanes[lane];
        if l.counters[idx] < self.counter_max {
            l.counters[idx] += 1;
        }
        if frame_slot >= l.tags.len() {
            // Only a lane `reserve_lane` never sized grows.
            l.tags.resize(frame_slot + 1, Self::NO_TAG);
        }
        // Registers number at most 128, so the tag fits a byte.
        let tag = std::mem::replace(&mut l.tags[frame_slot], reg as u8 + 1);
        if tag == Self::NO_TAG {
            l.live += 1;
        }
    }

    /// Counter value a block currently maps to in lane `lane`, if any
    /// register matches (for tests/diagnostics).
    pub fn counter_for(&self, lane: usize, block: u64) -> Option<u8> {
        let (high, low) = self.split(block);
        let l = &self.lanes[lane];
        l.find_register(high).map(|r| l.counters[self.table_index(r, low)])
    }
}

impl LaneFilter for Cmnm {
    fn lanes(&self) -> usize {
        self.lanes.len()
    }

    #[inline(always)]
    fn miss_lanes(&self, block: u64, want: u64) -> u64 {
        let (high, low) = self.split(block);
        let mut miss = 0;
        let mut rest = want;
        while rest != 0 {
            let l = rest.trailing_zeros();
            rest &= rest - 1;
            if self.lanes[l as usize].misses(high, low, self.config.table_bits) {
                miss |= 1 << l;
            }
        }
        miss
    }

    #[inline]
    fn place(&mut self, lane: usize, run: BlockRun) {
        if self.config.table_bits >= run.shift() {
            // The run's blocks differ only in their low `table_bits`: one
            // high portion, so one register covers them all.
            let (high, low) = self.split(run.first());
            let reg = self.lanes[lane].cover(high, self.high_bits);
            for (i, (_, frame_slot)) in run.blocks().enumerate() {
                self.count_in(lane, reg, low + i as u64, frame_slot);
            }
        } else {
            for (block, frame_slot) in run.blocks() {
                let (high, low) = self.split(block);
                let reg = self.lanes[lane].cover(high, self.high_bits);
                self.count_in(lane, reg, low, frame_slot);
            }
        }
    }

    fn replace(&mut self, lane: usize, run: BlockRun) {
        for (block, frame_slot) in run.blocks() {
            let l = &mut self.lanes[lane];
            // Pair the decrement with the exact counter the placement used.
            let Some(tag) = l.tags.get_mut(frame_slot) else {
                continue; // a slot beyond any placement: never tagged
            };
            let reg = std::mem::replace(tag, Self::NO_TAG);
            if reg == Self::NO_TAG {
                continue; // replacement of a block placed before a flush
            }
            l.live -= 1;
            let (_, low) = self.split(block);
            let idx = self.table_index(u32::from(reg - 1), low);
            let c = &mut self.lanes[lane].counters[idx];
            if *c > 0 && *c < self.counter_max {
                *c -= 1;
            }
        }
    }

    fn flush_lanes(&mut self) {
        for l in &mut self.lanes {
            for r in &mut l.regs {
                r.valid = false;
                r.shift = 0;
            }
            l.counters.fill(0);
            l.tags.fill(Self::NO_TAG);
            l.live = 0;
        }
    }

    fn lane_storage_bits(&self) -> u64 {
        let reg_bits = u64::from(self.config.registers)
            * (u64::from(self.high_bits)
                + u64::from(self.high_bits.next_power_of_two().trailing_zeros())
                + 1);
        let table_bits = (u64::from(self.config.registers) << self.config.table_bits)
            * u64::from(self.config.counter_bits);
        reg_bits + table_bits
    }

    fn technique_label(&self) -> &str {
        &self.label
    }

    fn reserve_lane(&mut self, lane: usize, frame_slots: usize) {
        // One tag per frame slot: once sized here it never grows.
        let tags = &mut self.lanes[lane].tags;
        if frame_slots > tags.len() {
            tags.resize(frame_slots, Self::NO_TAG);
        }
    }

    fn lane_state_bits(&self) -> u64 {
        // Only the counter table is bit-addressable; the virtual-tag
        // registers and the per-frame register tags are modelled, not
        // fault targets.
        (u64::from(self.config.registers) << self.config.table_bits)
            * u64::from(self.config.counter_bits)
    }

    fn flip_lane_bit(&mut self, lane: usize, bit: u64) -> bool {
        let width = u64::from(self.config.counter_bits);
        let Some(counter) = self.lanes[lane].counters.get_mut((bit / width) as usize) else {
            return false;
        };
        *counter ^= 1 << (bit % width);
        true
    }

    fn lane_bit_of(&self, lane: usize, block: u64) -> Option<u64> {
        // The low bit of the counter the block maps to under the first
        // matching register (a resident block always still matches the
        // register it was counted under).
        let (high, low) = self.split(block);
        let reg = self.lanes[lane].find_register(high)?;
        Some(self.table_index(reg, low) as u64 * u64::from(self.config.counter_bits))
    }

    fn lane_occupancy(&self, lane: usize) -> FilterOccupancy {
        let l = &self.lanes[lane];
        FilterOccupancy { tracked: l.live as u64, capacity: l.counters.len() as u64 }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use cache_sim::{
        Access, BypassSet, CacheConfig, EventKind, Hierarchy, HierarchyConfig, LevelConfig,
        ReplayScratch,
    };

    use super::*;

    fn cmnm(k: u32, m: u32) -> Cmnm {
        Cmnm::new(CmnmConfig::new(k, m), 1)
    }

    #[test]
    fn unseen_region_is_definite_miss() {
        let mut f = cmnm(4, 10);
        f.place(0, BlockRun::one(0x0040_0001, 0));
        assert!(f.miss_lanes(0x0040_0001, 1) == 0);
        // Same region, different low bits: counter 0 => miss.
        assert!(f.miss_lanes(0x0040_0002, 1) != 0);
        // Entirely different region: no register matches => miss.
        assert!(f.miss_lanes(0x0990_0001, 1) != 0);
    }

    #[test]
    fn place_replace_round_trip() {
        let mut f = cmnm(2, 8);
        f.place(0, BlockRun::one(0x1234_5600 | 0x7f, 3));
        assert!(f.miss_lanes(0x1234_5600 | 0x7f, 1) == 0);
        f.replace(0, BlockRun::one(0x1234_5600 | 0x7f, 3));
        assert!(f.miss_lanes(0x1234_5600 | 0x7f, 1) != 0);
    }

    #[test]
    fn widening_keeps_old_blocks_matching() {
        let mut f = cmnm(2, 4);
        // Fill both registers with far-apart regions.
        f.place(0, BlockRun::one(0x1000_0000, 0));
        f.place(0, BlockRun::one(0x2000_0000, 1));
        // A third region forces widening of some register.
        f.place(0, BlockRun::one(0x1000_1000, 2));
        // The original blocks must still be recognized as maybe-hits.
        assert!(f.miss_lanes(0x1000_0000, 1) == 0);
        assert!(f.miss_lanes(0x2000_0000, 1) == 0);
        assert!(f.miss_lanes(0x1000_1000, 1) == 0);
    }

    #[test]
    fn widened_replacement_decrements_the_right_counter() {
        let mut f = cmnm(2, 4);
        f.place(0, BlockRun::one(0x1000_0000, 0)); // reg 0
        f.place(0, BlockRun::one(0x2000_0000, 1)); // reg 1
        f.place(0, BlockRun::one(0x1000_1000, 2)); // widens a register (same low nibble as reg0's block!)
                                                   // Replace the widened block; the original block must stay a
                                                   // maybe-hit even though both share low bits.
        f.replace(0, BlockRun::one(0x1000_1000, 2));
        assert!(f.miss_lanes(0x1000_0000, 1) == 0, "sound pairing of place/replace");
        f.replace(0, BlockRun::one(0x1000_0000, 0));
        assert!(f.miss_lanes(0x1000_0000, 1) != 0);
    }

    #[test]
    fn saturation_is_sticky() {
        let mut f = cmnm(1, 2);
        // 8+ blocks with the same low 2 bits in one region.
        for i in 0..10u64 {
            f.place(0, BlockRun::one(0x100 + (i << 2), i as usize));
        }
        for i in 0..10u64 {
            f.replace(0, BlockRun::one(0x100 + (i << 2), i as usize));
        }
        assert!(f.miss_lanes(0x100, 1) == 0, "stuck counter stays conservative");
    }

    #[test]
    fn flush_forgets_everything() {
        let mut f = cmnm(4, 8);
        f.place(0, BlockRun::one(0xdead_be00, 5));
        f.flush_lanes();
        assert!(f.miss_lanes(0xdead_be00, 1) != 0);
        // Replacement after a flush for a pre-flush block is ignored.
        f.replace(0, BlockRun::one(0xdead_be00, 5));
        assert!(f.miss_lanes(0xdead_be00, 1) != 0);
        assert_eq!(f.lane_occupancy(0).tracked, 0);
    }

    /// `reserve_lane` sizes one tag per frame slot up front; after that no
    /// update grows the array, and an unreserved filter grows to the
    /// highest slot it is told about. Removing from a never-tagged slot,
    /// in range or beyond it, is a no-op.
    #[test]
    fn tags_are_one_byte_per_reserved_frame_slot() {
        let mut f = cmnm(8, 12);
        f.reserve_lane(0, 64);
        assert_eq!(f.lanes[0].tags.len(), 64);
        for slot in 0..64 {
            f.place(0, BlockRun::one(0x4000 + slot as u64, slot));
        }
        assert_eq!((f.lanes[0].tags.len(), f.lane_occupancy(0).tracked), (64, 64));
        f.replace(0, BlockRun::one(0x4000, 0));
        f.replace(0, BlockRun::one(0x4000, 0));
        f.replace(0, BlockRun::one(0x9000, 1_000));
        assert_eq!((f.lanes[0].tags.len(), f.lane_occupancy(0).tracked), (64, 63));

        let mut grown = cmnm(8, 12);
        grown.replace(0, BlockRun::one(0x4000, 9));
        grown.place(0, BlockRun::one(0x4000, 9));
        assert_eq!((grown.lanes[0].tags.len(), grown.lane_occupancy(0).tracked), (10, 1));
    }

    /// Two frames holding parts of one MNM block (lines shorter than the
    /// grain) each carry their own tag, so both placements are paired
    /// exactly and the counter drains to zero.
    #[test]
    fn two_frames_of_one_block_pair_exactly() {
        let mut f = cmnm(2, 8);
        f.place(0, BlockRun::one(0x77, 0));
        f.place(0, BlockRun::one(0x77, 1));
        f.replace(0, BlockRun::one(0x77, 0));
        assert!(f.miss_lanes(0x77, 1) == 0, "the other frame still holds part of the block");
        f.replace(0, BlockRun::one(0x77, 1));
        assert!(f.miss_lanes(0x77, 1) != 0);
        assert_eq!(f.counter_for(0, 0x77), Some(0));
    }

    #[test]
    fn storage_counts_registers_and_table() {
        let f = cmnm(8, 12);
        // Table: 8 * 4096 * 3 bits dominates.
        assert!(f.lane_storage_bits() >= 8 * 4096 * 3);
        assert!(f.lane_storage_bits() < 8 * 4096 * 3 + 8 * 64);
    }

    #[test]
    fn label_matches_paper() {
        assert_eq!(CmnmConfig::new(8, 12).label(), "CMNM_8_12");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_registers() {
        CmnmConfig::new(3, 10);
    }

    #[test]
    #[should_panic(expected = "1..=128")]
    fn rejects_more_registers_than_a_tag_byte_holds() {
        CmnmConfig::new(256, 10);
    }

    /// The block-keyed pairing the frame tags replace: the same registers
    /// and counters (a `Cmnm` whose own tags stay unused), with each live
    /// block's register kept in a map keyed by block address.
    struct BlockKeyed {
        f: Cmnm,
        tags: HashMap<u64, u8>,
    }

    impl BlockKeyed {
        fn place(&mut self, block: u64) {
            let (high, low) = self.f.split(block);
            let reg = self.f.lanes[0].cover(high, self.f.high_bits);
            let idx = self.f.table_index(reg, low);
            let lane = &mut self.f.lanes[0];
            if lane.counters[idx] < self.f.counter_max {
                lane.counters[idx] += 1;
            }
            self.tags.insert(block, reg as u8);
        }

        fn remove(&mut self, block: u64) {
            let Some(reg) = self.tags.remove(&block) else { return };
            let (_, low) = self.f.split(block);
            let idx = self.f.table_index(u32::from(reg), low);
            let lane = &mut self.f.lanes[0];
            let c = lane.counters[idx];
            if c > 0 && c < self.f.counter_max {
                lane.counters[idx] = c - 1;
            }
        }

        fn flush(&mut self) {
            self.f.flush_lanes();
            self.tags.clear();
        }
    }

    /// Pairing identity: on real `Hierarchy` event streams the frame-tagged
    /// CMNM, fed each line as one run, keeps the same registers, counters,
    /// live count and verdicts as the block-keyed model, fed block by
    /// block, after every access. A 2-register, 16-entry
    /// CMNM per guarded structure makes masks widen and counters saturate;
    /// the streams mix loads, stores and fetches, filter-only flushes
    /// mid-stream (`Mnm::flush`: the caches keep their blocks, so
    /// untagged blocks are later removed), `invalidate_block`, and, on
    /// the tiny inclusive geometry, constant back-invalidation.
    #[test]
    fn frame_tags_pair_exactly_like_block_keyed_tags() {
        use trace_synth::rng::splitmix64;
        let tiny_inclusive = HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 64, 2, 32, 1),
                    data: CacheConfig::new("dl1", 64, 2, 32, 1),
                },
                LevelConfig::Unified(CacheConfig::new("ul2", 256, 2, 32, 4)),
                LevelConfig::Unified(CacheConfig::new("ul3", 512, 1, 64, 8)),
            ],
            memory_latency: 20,
            inclusive: true,
        };
        let geometries =
            [(HierarchyConfig::paper_five_level(), 1u64 << 24), (tiny_inclusive, 1 << 14)];
        for (gi, (config, space)) in geometries.into_iter().enumerate() {
            for seed in 0..4u64 {
                let mut hier = Hierarchy::new(config.clone());
                let grain = hier.mnm_granularity();
                let mut slot_of = vec![None; hier.structures().len()];
                let mut pairs: Vec<(Cmnm, BlockKeyed)> = Vec::new();
                for info in hier.structures().iter().filter(|i| i.level >= 2) {
                    let mut real = cmnm(2, 4);
                    real.reserve_lane(0, hier.cache(info.id).config().frame_slots(grain) as usize);
                    slot_of[info.id.index()] = Some(pairs.len());
                    pairs.push((real, BlockKeyed { f: cmnm(2, 4), tags: HashMap::new() }));
                }
                let mut scratch = ReplayScratch::new();
                let mut events = Vec::new();
                let mut x = splitmix64(seed ^ (gi as u64) << 32);
                let (mut removed, mut flushes, mut back_invalidated) = (0u64, 0u64, 0u64);
                let mut widened = false;
                for step in 0..12_000u64 {
                    x = splitmix64(x);
                    // Hot and cold regions far apart, so registers widen.
                    let addr = if x.is_multiple_of(4) {
                        (x >> 8) & (space - 1)
                    } else {
                        (x >> 8) & 0x3fff
                    };
                    events.clear();
                    match x % 97 {
                        0 => {
                            hier.invalidate_block(addr, &mut events);
                        }
                        1 if step > 1_000 => {
                            for (real, model) in &mut pairs {
                                real.flush_lanes();
                                model.flush();
                            }
                            flushes += 1;
                        }
                        _ => {
                            let access = match x % 3 {
                                0 => Access::store(addr),
                                1 => Access::load(addr),
                                _ => Access::fetch(addr),
                            };
                            hier.access_with_events(access, &BypassSet::none(), &mut scratch);
                            events.extend_from_slice(scratch.events());
                            back_invalidated +=
                                events.iter().filter(|e| e.kind == EventKind::Invalidated).count()
                                    as u64;
                        }
                    }
                    for ev in &events {
                        let Some(si) = slot_of[ev.structure.index()] else { continue };
                        let (real, model) = &mut pairs[si];
                        // The filter takes the line as one run, the model
                        // its blocks one by one.
                        let run = ev.run(grain);
                        if ev.kind == EventKind::Placed {
                            real.place(0, run);
                            run.blocks().for_each(|(block, _)| model.place(block));
                        } else {
                            real.replace(0, run);
                            run.blocks().for_each(|(block, _)| model.remove(block));
                            removed += u64::from(run.count());
                        }
                    }
                    let probe = addr / grain;
                    for (si, (real, model)) in pairs.iter().enumerate() {
                        let what = format!("geometry {gi} seed {seed} step {step} slot {si}");
                        let (real_lane, model_lane) = (&real.lanes[0], &model.f.lanes[0]);
                        assert_eq!(real_lane.counters, model_lane.counters, "{what}: counters");
                        assert_eq!(real_lane.live, model.tags.len(), "{what}: live blocks");
                        for (a, b) in real_lane.regs.iter().zip(&model_lane.regs) {
                            assert_eq!((a.value, a.shift, a.valid), (b.value, b.shift, b.valid));
                            widened |= a.shift > 0;
                        }
                        for block in [probe, probe ^ 1, probe + 0x1_0000] {
                            assert_eq!(
                                real.miss_lanes(block, 1) != 0,
                                model.f.miss_lanes(block, 1) != 0,
                                "{what}: verdict for {block:#x}"
                            );
                        }
                    }
                }
                assert!(removed > 1_000 && flushes > 10, "{removed} removals, {flushes} flushes");
                assert!(widened, "geometry {gi} seed {seed}: no register ever widened");
                assert!(config.inclusive == (back_invalidated > 0), "{back_invalidated}");
            }
        }
    }

    #[test]
    fn flipping_the_guarding_counter_bit_makes_a_live_block_lie() {
        let mut f = cmnm(4, 8);
        f.place(0, BlockRun::one(0x0040_0001, 0));
        assert!(f.miss_lanes(0x0040_0001, 1) == 0);
        let bit = f.lane_bit_of(0, 0x0040_0001).expect("resident block matches a register");
        assert!(f.flip_lane_bit(0, bit));
        assert!(f.miss_lanes(0x0040_0001, 1) != 0, "counter 1 -> 0: the filter now lies");
        assert!(f.flip_lane_bit(0, bit));
        assert!(f.miss_lanes(0x0040_0001, 1) == 0);
        // A block no register covers has no guarding bit.
        assert_eq!(f.lane_bit_of(0, 0x7700_0000), None);
        assert!(!f.flip_lane_bit(0, f.lane_state_bits()));
    }
}
