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
//! couple dozen cache lines).

use crate::filter::MissFilter;
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

/// One counter table over a slice of the block address.
#[derive(Debug, Clone)]
pub struct TmnmTable {
    offset: u32,
    mask: u64,
    max: u8,
    counters: Vec<u8>,
    /// Bit `s` set iff `counters[s] == 0` — the only state a probe reads.
    zero: Vec<u64>,
}

fn zero_words(slots: usize) -> Vec<u64> {
    let mut words = vec![u64::MAX; slots.div_ceil(64)];
    if !slots.is_multiple_of(64) {
        *words.last_mut().unwrap() = (1u64 << (slots % 64)) - 1;
    }
    words
}

impl TmnmTable {
    /// Build a table over address bits `[offset, offset + bits)` with
    /// `counter_bits`-wide saturating counters.
    pub fn new(offset: u32, bits: u32, counter_bits: u32) -> Self {
        TmnmTable {
            offset,
            mask: (1u64 << bits) - 1,
            max: ((1u32 << counter_bits) - 1) as u8,
            counters: vec![0; 1 << bits],
            zero: zero_words(1 << bits),
        }
    }

    fn slot(&self, block: u64) -> usize {
        ((block >> self.offset) & self.mask) as usize
    }

    fn sync_zero_flag(&mut self, slot: usize) {
        let bit = 1u64 << (slot & 63);
        if self.counters[slot] == 0 {
            self.zero[slot >> 6] |= bit;
        } else {
            self.zero[slot >> 6] &= !bit;
        }
    }

    /// Increment on placement; saturates at the maximum.
    pub fn increment(&mut self, block: u64) {
        let s = self.slot(block);
        let c = self.counters[s];
        if c < self.max {
            self.counters[s] = c + 1;
            if c == 0 {
                self.zero[s >> 6] &= !(1u64 << (s & 63));
            }
        }
    }

    /// Decrement on replacement — unless saturated, which is sticky.
    pub fn decrement(&mut self, block: u64) {
        let s = self.slot(block);
        let c = self.counters[s];
        if c > 0 && c < self.max {
            self.counters[s] = c - 1;
            if c == 1 {
                self.zero[s >> 6] |= 1 << (s & 63);
            }
        }
    }

    /// The block's zero flag as the low bit of a word (1 = empty slot).
    /// Branch-free input to the filter's any-table OR.
    #[inline]
    pub fn zero_bit(&self, block: u64) -> u64 {
        let s = self.slot(block);
        self.zero[s >> 6] >> (s & 63) & 1
    }

    /// Definite miss iff no live block can map here (counter is zero).
    pub fn is_empty_slot(&self, block: u64) -> bool {
        self.zero_bit(block) != 0
    }

    /// Raw counter value at the block's slot (for tests/diagnostics).
    pub fn counter(&self, block: u64) -> u8 {
        self.counters[self.slot(block)]
    }

    /// Reset all counters (cache flush).
    pub fn reset(&mut self) {
        self.counters.fill(0);
        self.zero = zero_words(self.counters.len());
    }

    /// Width of one counter in bits.
    pub fn counter_bits(&self) -> u32 {
        u8::BITS - self.max.leading_zeros()
    }

    /// Total state bits in this table (counter count × counter width).
    pub fn state_bits(&self) -> u64 {
        self.counters.len() as u64 * u64::from(self.counter_bits())
    }

    /// XOR one bit of the table state (fault injection). Bits are numbered
    /// counter-major: bit `i` is bit `i % width` of counter `i / width`.
    pub fn flip_bit(&mut self, bit: u64) -> bool {
        let width = u64::from(self.counter_bits());
        let slot = (bit / width) as usize;
        let Some(counter) = self.counters.get_mut(slot) else {
            return false;
        };
        *counter ^= 1 << (bit % width);
        self.sync_zero_flag(slot);
        true
    }

    /// The lowest state bit of the counter `block` maps to.
    pub fn state_bit_of(&self, block: u64) -> u64 {
        self.slot(block) as u64 * u64::from(self.counter_bits())
    }
}

/// A per-structure TMNM filter: `replication` parallel tables.
#[derive(Debug, Clone)]
pub struct TmnmFilter {
    config: TmnmConfig,
    tables: Vec<TmnmTable>,
    label: String,
}

impl TmnmFilter {
    /// Build an empty filter.
    pub fn new(config: TmnmConfig) -> Self {
        let tables = SLICE_OFFSETS
            .iter()
            .take(config.replication as usize)
            .map(|&off| TmnmTable::new(off, config.bits, config.counter_bits))
            .collect();
        TmnmFilter { tables, label: config.label(), config }
    }

    /// This filter's configuration.
    pub fn config(&self) -> &TmnmConfig {
        &self.config
    }
}

impl MissFilter for TmnmFilter {
    fn on_place(&mut self, block: u64) {
        for t in &mut self.tables {
            t.increment(block);
        }
    }

    fn on_replace(&mut self, block: u64) {
        for t in &mut self.tables {
            t.decrement(block);
        }
    }

    #[inline]
    fn is_definite_miss(&self, block: u64) -> bool {
        // OR the zero flags of every table: miss iff any slot is empty.
        let mut any_zero = 0u64;
        for t in &self.tables {
            any_zero |= t.zero_bit(block);
        }
        any_zero != 0
    }

    fn flush(&mut self) {
        for t in &mut self.tables {
            t.reset();
        }
    }

    fn storage_bits(&self) -> u64 {
        (self.tables.len() as u64)
            * (1u64 << self.config.bits)
            * u64::from(self.config.counter_bits)
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn state_bits(&self) -> u64 {
        self.tables.iter().map(TmnmTable::state_bits).sum()
    }

    fn flip_state_bit(&mut self, mut bit: u64) -> bool {
        for t in &mut self.tables {
            if bit < t.state_bits() {
                return t.flip_bit(bit);
            }
            bit -= t.state_bits();
        }
        false
    }

    fn state_bit_of(&self, block: u64) -> Option<u64> {
        // The first table's counter for this block: any table reporting an
        // empty slot flags a definite miss, so corrupting one table can lie.
        Some(self.tables[0].state_bit_of(block))
    }

    fn occupancy(&self) -> crate::filter::FilterOccupancy {
        // A counter is "armed" when nonzero; the packed zero-flag bitset
        // (bit set iff counter == 0) gives the complement in O(words).
        let mut occ = crate::filter::FilterOccupancy::default();
        for t in &self.tables {
            let zeros: u64 = t.zero.iter().map(|w| u64::from(w.count_ones())).sum();
            occ.tracked += t.counters.len() as u64 - zeros;
            occ.capacity += t.counters.len() as u64;
        }
        occ
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_replace_round_trip() {
        let mut f = TmnmFilter::new(TmnmConfig::new(6, 1));
        assert!(f.is_definite_miss(0x12));
        f.on_place(0x12);
        assert!(!f.is_definite_miss(0x12));
        f.on_replace(0x12);
        assert!(f.is_definite_miss(0x12));
    }

    #[test]
    fn aliasing_blocks_keep_counter_positive() {
        let mut f = TmnmFilter::new(TmnmConfig::new(4, 1));
        // 0x5 and 0x15 share the low-4 slot.
        f.on_place(0x5);
        f.on_place(0x15);
        f.on_replace(0x5);
        assert!(!f.is_definite_miss(0x15), "one alias still live");
        f.on_replace(0x15);
        assert!(f.is_definite_miss(0x15));
    }

    #[test]
    fn saturation_is_sticky() {
        let mut f = TmnmFilter::new(TmnmConfig::with_counter_bits(4, 1, 2)); // max = 3
        for i in 0..5u64 {
            f.on_place(0x3 | (i << 4)); // 5 aliases of slot 3
        }
        // Removing all of them cannot drain the stuck counter.
        for i in 0..5u64 {
            f.on_replace(0x3 | (i << 4));
        }
        assert!(!f.is_definite_miss(0x3), "saturated slot stays 'maybe' forever");
    }

    #[test]
    fn exactly_max_blocks_saturates_conservatively() {
        // The paper: a saturated value occurs when 2^c different blocks map
        // to the same location; even max-count followed by full drain must
        // stay conservative.
        let mut f = TmnmFilter::new(TmnmConfig::with_counter_bits(4, 1, 2)); // max = 3
        for i in 0..3u64 {
            f.on_place(0x1 | (i << 4));
        }
        for i in 0..3u64 {
            f.on_replace(0x1 | (i << 4));
        }
        // Counter hit its max (3) with exactly 3 blocks: it cannot tell 3
        // from >3, so it must stick.
        assert!(!f.is_definite_miss(0x1));
    }

    #[test]
    fn replicated_tables_raise_precision() {
        let mut one = TmnmFilter::new(TmnmConfig::new(10, 1));
        let mut three = TmnmFilter::new(TmnmConfig::new(10, 3));
        let a = 0x0000_0400u64; // bit 10 set: invisible to the low-10 table
        one.on_place(0);
        three.on_place(0);
        assert!(!one.is_definite_miss(a), "low slice aliases with block 0");
        assert!(three.is_definite_miss(a), "offset-6 table sees the difference");
    }

    #[test]
    fn paper_counter_width_is_three_bits() {
        let f = TmnmFilter::new(TmnmConfig::new(12, 3));
        assert_eq!(f.config().counter_bits, 3);
        assert_eq!(f.storage_bits(), 3 * 4096 * 3);
    }

    #[test]
    fn flush_resets_counters() {
        let mut f = TmnmFilter::new(TmnmConfig::new(6, 2));
        f.on_place(9);
        f.flush();
        assert!(f.is_definite_miss(9));
        assert_eq!(f.tables[0].counter(9), 0);
    }

    #[test]
    fn zero_bitset_tracks_counters_exactly() {
        // Drive one table hard and check the bitset against the counters
        // after every operation, including flips and a sub-word table.
        let mut t = TmnmTable::new(0, 5, 2); // 32 slots: one partial word
        let mut x: u64 = 0x9E37_79B9;
        for step in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let block = x % 64;
            match step % 4 {
                0 | 1 => t.increment(block),
                2 => t.decrement(block),
                _ => {
                    t.flip_bit(x % t.state_bits());
                }
            }
            for b in 0..32u64 {
                assert_eq!(t.is_empty_slot(b), t.counter(b) == 0, "slot {b} after step {step}");
            }
        }
        t.reset();
        for b in 0..32u64 {
            assert!(t.is_empty_slot(b));
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(TmnmConfig::new(12, 3).label(), "TMNM_12x3");
        assert_eq!(TmnmConfig::with_counter_bits(10, 1, 2).label(), "TMNM_10x1c2");
    }

    #[test]
    fn fault_surface_matches_storage() {
        let f = TmnmFilter::new(TmnmConfig::new(6, 2));
        assert_eq!(f.state_bits(), f.storage_bits());
        assert_eq!(f.state_bits(), 2 * 64 * 3);
    }

    #[test]
    fn flipping_the_guarding_bit_makes_a_live_block_lie() {
        let mut f = TmnmFilter::new(TmnmConfig::new(6, 1));
        f.on_place(0x12);
        assert!(!f.is_definite_miss(0x12));
        let bit = f.state_bit_of(0x12).unwrap();
        assert!(f.flip_state_bit(bit), "bit {bit} must be in range");
        assert!(f.is_definite_miss(0x12), "counter 1 -> 0: the filter now lies");
        // Flipping again restores the original state.
        assert!(f.flip_state_bit(bit));
        assert!(!f.is_definite_miss(0x12));
        assert!(!f.flip_state_bit(f.state_bits()), "out-of-range bit is rejected");
    }
}
