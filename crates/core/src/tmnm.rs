//! TMNM — the Table MNM (paper §3.3).
//!
//! Each table holds `2^bits` saturating counters indexed by a slice of the
//! block address. Placing a block increments the counter at its slot,
//! replacing a block decrements it — unless the counter ever saturated, in
//! which case it sticks at the maximum ("the counter becomes an indicator
//! that any access mapped to this position may be a hit"). A counter value
//! of zero means no live block maps to that slot: a definite miss.
//!
//! The paper uses 3-bit counters; the width is configurable here for the
//! counter-width ablation study.
//!
//! The query path never reads the counters themselves: each table keeps a
//! packed *zero bitset* (one bit per counter, set while the counter is 0)
//! maintained on the update path, so a probe touches 1/24th of the state a
//! counter-array read would (for the paper's 3-bit counters that shrinks
//! the probed state of `TMNM_12x3` from 12 KB to 1.5 KB — it fits in a
//! couple dozen cache lines). A filter guarding several structures (one
//! lane each) interleaves their counters and zero flags by lane, so one
//! slice index and one load answer every lane.

use crate::filter::{FilterOccupancy, LaneBits, LaneFilter};
use crate::smnm::SLICE_OFFSETS;

/// `TMNM_<bits>x<replication>` (e.g. `TMNM_12x3`). `counter_bits` defaults
/// to the paper's 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmnmConfig {
    /// Index width: each table has `2^bits` counters.
    pub bits: u32,
    /// Number of parallel tables over different address slices (1–3).
    pub replication: u32,
    /// Width of each saturating counter in bits (paper: 3).
    pub counter_bits: u32,
}

impl TmnmConfig {
    /// Create a configuration with the paper's 3-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 24, or `replication` is not in 1..=3.
    pub fn new(bits: u32, replication: u32) -> Self {
        Self::with_counter_bits(bits, replication, 3)
    }

    /// Create a configuration with an explicit counter width (ablation).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters (`counter_bits` must be 1..=8).
    pub fn with_counter_bits(bits: u32, replication: u32, counter_bits: u32) -> Self {
        assert!((1..=24).contains(&bits), "table index width must be 1..=24");
        assert!(
            (1..=SLICE_OFFSETS.len() as u32).contains(&replication),
            "replication must be between 1 and 3"
        );
        assert!((1..=8).contains(&counter_bits), "counter width must be 1..=8 bits");
        TmnmConfig { bits, replication, counter_bits }
    }

    /// The paper's label for this configuration.
    pub fn label(&self) -> String {
        if self.counter_bits == 3 {
            format!("TMNM_{}x{}", self.bits, self.replication)
        } else {
            format!("TMNM_{}x{}c{}", self.bits, self.replication, self.counter_bits)
        }
    }
}

/// One counter table over a slice of the block address, with one counter
/// per slot and lane.
#[derive(Debug, Clone)]
pub struct TmnmTable {
    offset: u32,
    mask: u64,
    max: u8,
    /// Lane `l`'s counter for slot `s` is `counters[s × lanes + l]`.
    counters: Vec<u8>,
    /// Lane `l`'s bit of slot `s` set iff its counter is 0 — the only
    /// state a probe reads.
    zero: Vec<u64>,
    lanes: LaneBits,
}

impl TmnmTable {
    /// Build a table over address bits `[offset, offset + bits)` with
    /// `counter_bits`-wide saturating counters and `lanes` lanes (1..=64).
    pub fn new(offset: u32, bits: u32, counter_bits: u32, lanes: usize) -> Self {
        let lanes = LaneBits::new(lanes);
        TmnmTable {
            offset,
            mask: (1u64 << bits) - 1,
            max: ((1u32 << counter_bits) - 1) as u8,
            counters: vec![0; lanes.lanes() << bits],
            zero: lanes.filled(1 << bits),
            lanes,
        }
    }

    #[inline(always)]
    fn slot(&self, block: u64) -> usize {
        ((block >> self.offset) & self.mask) as usize
    }

    /// Counters per lane.
    fn slots(&self) -> usize {
        self.mask as usize + 1
    }

    fn sync_zero_flag(&mut self, slot: usize, lane: usize) {
        let empty = self.counters[self.lanes.counter(slot, lane)] == 0;
        self.lanes.assign(&mut self.zero, slot, lane, empty);
    }

    /// Increment lane `lane`'s counter on placement; saturates at the
    /// maximum.
    pub fn increment(&mut self, lane: usize, block: u64) {
        let s = self.slot(block);
        let i = self.lanes.counter(s, lane);
        let c = self.counters[i];
        if c < self.max {
            self.counters[i] = c + 1;
            if c == 0 {
                self.lanes.clear(&mut self.zero, s, lane);
            }
        }
    }

    /// Decrement lane `lane`'s counter on replacement — unless saturated,
    /// which is sticky.
    pub fn decrement(&mut self, lane: usize, block: u64) {
        let s = self.slot(block);
        let i = self.lanes.counter(s, lane);
        let c = self.counters[i];
        if c > 0 && c < self.max {
            self.counters[i] = c - 1;
            if c == 1 {
                self.lanes.set(&mut self.zero, s, lane);
            }
        }
    }

    /// The zero flags of the block's slot, lane `l` at bit `l` (1 = no
    /// live block of lane `l` maps here: a definite miss). Branch-free
    /// input to the filter's any-table OR.
    #[inline(always)]
    pub fn zero_lanes(&self, block: u64) -> u64 {
        self.lanes.get(&self.zero, self.slot(block))
    }

    /// Raw counter value of lane `lane` at the block's slot (for
    /// tests/diagnostics).
    pub fn counter(&self, lane: usize, block: u64) -> u8 {
        self.counters[self.lanes.counter(self.slot(block), lane)]
    }

    /// Reset all counters (cache flush).
    pub fn reset(&mut self) {
        self.counters.fill(0);
        let slots = self.slots();
        self.lanes.fill(&mut self.zero, slots);
    }

    /// Width of one counter in bits.
    pub fn counter_bits(&self) -> u32 {
        u8::BITS - self.max.leading_zeros()
    }

    /// State bits of one lane (counter count × counter width).
    pub fn state_bits(&self) -> u64 {
        self.slots() as u64 * u64::from(self.counter_bits())
    }

    /// XOR one bit of lane `lane`'s state (fault injection). Bits are
    /// numbered counter-major: bit `i` is bit `i % width` of counter
    /// `i / width`.
    pub fn flip_bit(&mut self, lane: usize, bit: u64) -> bool {
        let width = u64::from(self.counter_bits());
        let slot = (bit / width) as usize;
        if slot >= self.slots() {
            return false;
        }
        self.counters[self.lanes.counter(slot, lane)] ^= 1 << (bit % width);
        self.sync_zero_flag(slot, lane);
        true
    }

    /// The lowest state bit of the counter `block` maps to (every lane).
    pub fn state_bit_of(&self, block: u64) -> u64 {
        self.slot(block) as u64 * u64::from(self.counter_bits())
    }

    /// Nonzero counters of lane `lane`.
    fn armed(&self, lane: usize) -> u64 {
        self.slots() as u64 - self.lanes.count(&self.zero, lane)
    }
}

/// A TMNM filter: `replication` parallel tables, each with one lane per
/// guarded structure.
#[derive(Debug, Clone)]
pub struct TmnmFilter {
    config: TmnmConfig,
    tables: Vec<TmnmTable>,
    lanes: LaneBits,
    label: String,
}

impl TmnmFilter {
    /// Build an empty filter guarding `lanes` structures (1..=64).
    pub fn new(config: TmnmConfig, lanes: usize) -> Self {
        let tables = SLICE_OFFSETS
            .iter()
            .take(config.replication as usize)
            .map(|&off| TmnmTable::new(off, config.bits, config.counter_bits, lanes))
            .collect();
        TmnmFilter { tables, lanes: LaneBits::new(lanes), label: config.label(), config }
    }

    /// This filter's configuration.
    pub fn config(&self) -> &TmnmConfig {
        &self.config
    }
}

impl LaneFilter for TmnmFilter {
    fn lanes(&self) -> usize {
        self.lanes.lanes()
    }

    #[inline(always)]
    fn miss_lanes(&self, block: u64, want: u64) -> u64 {
        // OR the zero flags of every table: a lane misses iff any of its
        // slots is empty.
        let mut any_zero = 0u64;
        for t in &self.tables {
            any_zero |= t.zero_lanes(block);
        }
        want & any_zero
    }

    fn place(&mut self, lane: usize, block: u64, _frame_slot: usize) {
        for t in &mut self.tables {
            t.increment(lane, block);
        }
    }

    fn replace(&mut self, lane: usize, block: u64, _frame_slot: usize) {
        for t in &mut self.tables {
            t.decrement(lane, block);
        }
    }

    fn flush_lanes(&mut self) {
        for t in &mut self.tables {
            t.reset();
        }
    }

    fn lane_storage_bits(&self) -> u64 {
        (self.tables.len() as u64)
            * (1u64 << self.config.bits)
            * u64::from(self.config.counter_bits)
    }

    fn technique_label(&self) -> &str {
        &self.label
    }

    fn lane_state_bits(&self) -> u64 {
        self.tables.iter().map(TmnmTable::state_bits).sum()
    }

    fn flip_lane_bit(&mut self, lane: usize, mut bit: u64) -> bool {
        for t in &mut self.tables {
            if bit < t.state_bits() {
                return t.flip_bit(lane, bit);
            }
            bit -= t.state_bits();
        }
        false
    }

    fn lane_bit_of(&self, _lane: usize, block: u64) -> Option<u64> {
        // The first table's counter for this block: any table reporting an
        // empty slot flags a definite miss, so corrupting one table can lie.
        Some(self.tables[0].state_bit_of(block))
    }

    fn lane_occupancy(&self, lane: usize) -> FilterOccupancy {
        // A counter is "armed" when nonzero; the packed zero-flag bitset
        // (bit set iff counter == 0) gives the complement in O(words).
        FilterOccupancy {
            tracked: self.tables.iter().map(|t| t.armed(lane)).sum(),
            capacity: self.tables.iter().map(|t| t.slots() as u64).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    //! TMNM ignores the frame slot, so these tests pass 0 for it.

    use super::*;

    #[test]
    fn place_replace_round_trip() {
        let mut f = TmnmFilter::new(TmnmConfig::new(6, 1), 1);
        assert!(f.miss_lanes(0x12, 1) != 0);
        f.place(0, 0x12, 0);
        assert!(f.miss_lanes(0x12, 1) == 0);
        f.replace(0, 0x12, 0);
        assert!(f.miss_lanes(0x12, 1) != 0);
    }

    #[test]
    fn aliasing_blocks_keep_counter_positive() {
        let mut f = TmnmFilter::new(TmnmConfig::new(4, 1), 1);
        // 0x5 and 0x15 share the low-4 slot.
        f.place(0, 0x5, 0);
        f.place(0, 0x15, 0);
        f.replace(0, 0x5, 0);
        assert!(f.miss_lanes(0x15, 1) == 0, "one alias still live");
        f.replace(0, 0x15, 0);
        assert!(f.miss_lanes(0x15, 1) != 0);
    }

    #[test]
    fn saturation_is_sticky() {
        let mut f = TmnmFilter::new(TmnmConfig::with_counter_bits(4, 1, 2), 1); // max = 3
        for i in 0..5u64 {
            f.place(0, 0x3 | (i << 4), 0); // 5 aliases of slot 3
        }
        // Removing all of them cannot drain the stuck counter.
        for i in 0..5u64 {
            f.replace(0, 0x3 | (i << 4), 0);
        }
        assert!(f.miss_lanes(0x3, 1) == 0, "saturated slot stays 'maybe' forever");
    }

    #[test]
    fn exactly_max_blocks_saturates_conservatively() {
        // The paper: a saturated value occurs when 2^c different blocks map
        // to the same location; even max-count followed by full drain must
        // stay conservative.
        let mut f = TmnmFilter::new(TmnmConfig::with_counter_bits(4, 1, 2), 1); // max = 3
        for i in 0..3u64 {
            f.place(0, 0x1 | (i << 4), 0);
        }
        for i in 0..3u64 {
            f.replace(0, 0x1 | (i << 4), 0);
        }
        // Counter hit its max (3) with exactly 3 blocks: it cannot tell 3
        // from >3, so it must stick.
        assert!(f.miss_lanes(0x1, 1) == 0);
    }

    #[test]
    fn replicated_tables_raise_precision() {
        let mut one = TmnmFilter::new(TmnmConfig::new(10, 1), 1);
        let mut three = TmnmFilter::new(TmnmConfig::new(10, 3), 1);
        let a = 0x0000_0400u64; // bit 10 set: invisible to the low-10 table
        one.place(0, 0, 0);
        three.place(0, 0, 0);
        assert!(one.miss_lanes(a, 1) == 0, "low slice aliases with block 0");
        assert!(three.miss_lanes(a, 1) != 0, "offset-6 table sees the difference");
    }

    #[test]
    fn paper_counter_width_is_three_bits() {
        let f = TmnmFilter::new(TmnmConfig::new(12, 3), 1);
        assert_eq!(f.config().counter_bits, 3);
        assert_eq!(f.lane_storage_bits(), 3 * 4096 * 3);
    }

    #[test]
    fn flush_resets_counters() {
        let mut f = TmnmFilter::new(TmnmConfig::new(6, 2), 1);
        f.place(0, 9, 0);
        f.flush_lanes();
        assert!(f.miss_lanes(9, 1) != 0);
        assert_eq!(f.tables[0].counter(0, 9), 0);
    }

    #[test]
    fn zero_bitset_tracks_counters_exactly() {
        // Drive one table hard and check the bitset against the counters
        // after every operation, including flips and a sub-word table.
        let mut t = TmnmTable::new(0, 5, 2, 1); // 32 slots: one partial word
        let mut x: u64 = 0x9E37_79B9;
        for step in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let block = x % 64;
            match step % 4 {
                0 | 1 => t.increment(0, block),
                2 => t.decrement(0, block),
                _ => {
                    t.flip_bit(0, x % t.state_bits());
                }
            }
            for b in 0..32u64 {
                assert_eq!(
                    t.zero_lanes(b) == 1,
                    t.counter(0, b) == 0,
                    "slot {b} after step {step}"
                );
            }
        }
        t.reset();
        for b in 0..32u64 {
            assert_eq!(t.zero_lanes(b), 1);
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(TmnmConfig::new(12, 3).label(), "TMNM_12x3");
        assert_eq!(TmnmConfig::with_counter_bits(10, 1, 2).label(), "TMNM_10x1c2");
    }

    #[test]
    fn fault_surface_matches_storage() {
        let f = TmnmFilter::new(TmnmConfig::new(6, 2), 1);
        assert_eq!(f.lane_state_bits(), f.lane_storage_bits());
        assert_eq!(f.lane_state_bits(), 2 * 64 * 3);
    }

    #[test]
    fn flipping_the_guarding_bit_makes_a_live_block_lie() {
        let mut f = TmnmFilter::new(TmnmConfig::new(6, 1), 1);
        f.place(0, 0x12, 0);
        assert!(f.miss_lanes(0x12, 1) == 0);
        let bit = f.lane_bit_of(0, 0x12).unwrap();
        assert!(f.flip_lane_bit(0, bit), "bit {bit} must be in range");
        assert!(f.miss_lanes(0x12, 1) != 0, "counter 1 -> 0: the filter now lies");
        // Flipping again restores the original state.
        assert!(f.flip_lane_bit(0, bit));
        assert!(f.miss_lanes(0x12, 1) == 0);
        assert!(!f.flip_lane_bit(0, f.lane_state_bits()), "out-of-range bit is rejected");
    }
}
