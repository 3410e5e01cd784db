//! A counting Bloom filter, the literature's main alternative to the
//! paper's techniques (Peir et al., ICS 2002 used Bloom filters for cache
//! miss determination; Moshovos et al.'s JETTY — co-authored by this
//! paper's first author — used a similar include-JETTY structure for snoop
//! filtering).
//!
//! `k` independent hash functions index a single array of saturating
//! counters; a block is *definitely absent* when **any** of its `k`
//! counters is zero. Placements increment all `k` counters, replacements
//! decrement them — with the same sticky-saturation conservatism as the
//! TMNM (a counter that ever saturates can no longer be trusted to reach
//! zero meaningfully, so it sticks).
//!
//! Structurally this generalizes the TMNM: TMNM's replicated tables are a
//! partitioned Bloom filter whose "hashes" are plain bit-field extractions.
//! The comparison experiment (`rw02`) quantifies what real hashing buys at
//! equal storage.
//!
//! Like the TMNM, queries read only a packed per-counter *zero bitset*
//! maintained on the update path, and the update path stages its `k` slot
//! indices in a fixed stack array (k ≤ 8) — no heap traffic per event.
//! A filter guarding several structures (one lane each) interleaves their
//! counters and zero flags by lane: the `k` hashes are computed once and
//! each reads every lane in one load.

use crate::filter::{FilterOccupancy, LaneBits, LaneFilter};

/// `BLOOM_<bits>x<hashes>`: `2^bits` counters shared by `hashes` hash
/// functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BloomConfig {
    /// log2 of the counter count.
    pub bits: u32,
    /// Number of hash functions (k).
    pub hashes: u32,
    /// Width of each saturating counter (3, like the paper's tables).
    pub counter_bits: u32,
}

/// Upper bound on `BloomConfig::hashes`, sizing the update path's stack
/// buffer of slot indices.
const MAX_HASHES: usize = 8;

impl BloomConfig {
    /// Create a configuration with 3-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside 1..=24 or `hashes` outside 1..=8.
    pub fn new(bits: u32, hashes: u32) -> Self {
        assert!((1..=24).contains(&bits), "counter-array width must be 1..=24 bits");
        assert!((1..=MAX_HASHES as u32).contains(&hashes), "hash count must be 1..=8");
        BloomConfig { bits, hashes, counter_bits: 3 }
    }

    /// The label used in experiment tables.
    pub fn label(&self) -> String {
        format!("BLOOM_{}x{}", self.bits, self.hashes)
    }
}

/// A counting Bloom filter with one counter array per guarded structure
/// (lane), interleaved by lane.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    config: BloomConfig,
    /// Lane `l`'s counter `s` is `counters[s × lanes + l]`.
    counters: Vec<u8>,
    /// Lane `l`'s bit of counter `s` set iff the counter is 0 — the only
    /// state a probe reads.
    zero: Vec<u64>,
    lanes: LaneBits,
    max: u8,
    mask: u64,
    label: String,
}

/// One round of a splitmix64-style mixer, parameterized by the hash index.
#[inline(always)]
fn mix(block: u64, which: u32) -> u64 {
    let mut z = block.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(which) + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BloomFilter {
    /// Build an empty filter guarding `lanes` structures (1..=64).
    pub fn new(config: BloomConfig, lanes: usize) -> Self {
        let lanes = LaneBits::new(lanes);
        BloomFilter {
            counters: vec![0; lanes.lanes() << config.bits],
            zero: lanes.filled(1 << config.bits),
            lanes,
            max: ((1u32 << config.counter_bits) - 1) as u8,
            mask: (1u64 << config.bits) - 1,
            label: config.label(),
            config,
        }
    }

    /// This filter's configuration.
    pub fn config(&self) -> &BloomConfig {
        &self.config
    }

    /// Counters per lane.
    fn slots(&self) -> usize {
        self.mask as usize + 1
    }

    /// The `k` slot indices of `block`, staged on the stack so the update
    /// path can mutate `self` while iterating them.
    fn slot_array(&self, block: u64) -> ([usize; MAX_HASHES], usize) {
        let k = self.config.hashes as usize;
        let mut slots = [0usize; MAX_HASHES];
        for (which, slot) in slots[..k].iter_mut().enumerate() {
            *slot = (mix(block, which as u32) & self.mask) as usize;
        }
        (slots, k)
    }
}

impl LaneFilter for BloomFilter {
    fn lanes(&self) -> usize {
        self.lanes.lanes()
    }

    #[inline(always)]
    fn miss_lanes(&self, block: u64, want: u64) -> u64 {
        // OR the zero flags of all k counters: a lane misses iff any of
        // its k counters is zero.
        let mut any_zero = 0u64;
        for which in 0..self.config.hashes {
            let s = (mix(block, which) & self.mask) as usize;
            any_zero |= self.lanes.get(&self.zero, s);
        }
        want & any_zero
    }

    fn place(&mut self, lane: usize, block: u64, _frame_slot: usize) {
        let (slots, k) = self.slot_array(block);
        for &s in &slots[..k] {
            let i = self.lanes.counter(s, lane);
            let c = self.counters[i];
            if c < self.max {
                self.counters[i] = c + 1;
                if c == 0 {
                    self.lanes.clear(&mut self.zero, s, lane);
                }
            }
        }
    }

    fn replace(&mut self, lane: usize, block: u64, _frame_slot: usize) {
        let (slots, k) = self.slot_array(block);
        for &s in &slots[..k] {
            let i = self.lanes.counter(s, lane);
            let c = self.counters[i];
            if c > 0 && c < self.max {
                self.counters[i] = c - 1;
                if c == 1 {
                    self.lanes.set(&mut self.zero, s, lane);
                }
            }
        }
    }

    fn flush_lanes(&mut self) {
        self.counters.fill(0);
        let slots = self.slots();
        self.lanes.fill(&mut self.zero, slots);
    }

    fn lane_storage_bits(&self) -> u64 {
        (1u64 << self.config.bits) * u64::from(self.config.counter_bits)
    }

    fn technique_label(&self) -> &str {
        &self.label
    }

    fn lane_state_bits(&self) -> u64 {
        self.lane_storage_bits()
    }

    fn flip_lane_bit(&mut self, lane: usize, bit: u64) -> bool {
        let width = u64::from(self.config.counter_bits);
        let slot = (bit / width) as usize;
        if slot >= self.slots() {
            return false;
        }
        let i = self.lanes.counter(slot, lane);
        self.counters[i] ^= 1 << (bit % width);
        self.lanes.assign(&mut self.zero, slot, lane, self.counters[i] == 0);
        true
    }

    fn lane_bit_of(&self, _lane: usize, block: u64) -> Option<u64> {
        // The low bit of the first hash's counter: one zero counter among
        // the k is enough to flag a definite miss.
        let slot = mix(block, 0) & self.mask;
        Some(slot * u64::from(self.config.counter_bits))
    }

    fn lane_occupancy(&self, lane: usize) -> FilterOccupancy {
        let slots = self.slots() as u64;
        FilterOccupancy { tracked: slots - self.lanes.count(&self.zero, lane), capacity: slots }
    }
}

#[cfg(test)]
mod tests {
    //! The Bloom filter ignores the frame slot, so these tests pass 0 for it.

    use super::*;

    #[test]
    fn place_replace_round_trip() {
        let mut f = BloomFilter::new(BloomConfig::new(10, 2), 1);
        assert!(f.miss_lanes(0xAB, 1) != 0);
        f.place(0, 0xAB, 0);
        assert!(f.miss_lanes(0xAB, 1) == 0);
        f.replace(0, 0xAB, 0);
        assert!(f.miss_lanes(0xAB, 1) != 0);
    }

    #[test]
    fn double_counting_hazard_is_handled() {
        // If two hash functions of the SAME block collide on one slot, the
        // slot is incremented twice; decrementing twice on replace keeps
        // the pairing exact, so soundness is preserved either way.
        let mut f = BloomFilter::new(BloomConfig::new(2, 4), 1); // tiny: collisions certain
        for b in 0..16u64 {
            f.place(0, b, 0);
        }
        for b in 0..16u64 {
            // All other blocks still live — no flag may appear for them.
            f.replace(0, b, 0);
            for live in (b + 1)..16 {
                assert!(f.miss_lanes(live, 1) == 0, "unsound for {live:#x} after removing {b:#x}");
            }
        }
    }

    #[test]
    fn aliasing_blocks_keep_counters_positive() {
        let mut f = BloomFilter::new(BloomConfig::new(12, 3), 1);
        f.place(0, 1, 0);
        f.place(0, 2, 0);
        f.replace(0, 1, 0);
        assert!(f.miss_lanes(2, 1) == 0);
        f.replace(0, 2, 0);
        assert!(f.miss_lanes(2, 1) != 0);
    }

    #[test]
    fn saturation_is_sticky() {
        let mut f = BloomFilter::new(BloomConfig::new(1, 1), 1); // 2 counters
        for b in 0..32u64 {
            f.place(0, b, 0);
        }
        for b in 0..32u64 {
            f.replace(0, b, 0);
        }
        // Both counters saturated and stuck: nothing is ever flagged.
        for b in 0..32u64 {
            assert!(f.miss_lanes(b, 1) == 0);
        }
    }

    #[test]
    fn zero_bitset_tracks_counters_exactly() {
        let mut f = BloomFilter::new(BloomConfig::new(5, 3), 1); // 32 counters: partial word
        let mut x: u64 = 0x1234_5678;
        for step in 0..3000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match step % 4 {
                0 | 1 => f.place(0, x % 512, 0),
                2 => f.replace(0, x % 512, 0),
                _ => {
                    f.flip_lane_bit(0, x % f.lane_state_bits());
                }
            }
            for (s, &c) in f.counters.iter().enumerate() {
                assert_eq!(
                    f.zero[s >> 6] >> (s & 63) & 1 != 0,
                    c == 0,
                    "slot {s} after step {step}"
                );
            }
        }
        f.flush_lanes();
        assert!(f.counters.iter().all(|&c| c == 0));
        assert!(f.miss_lanes(0, 1) != 0);
    }

    #[test]
    fn hashing_spreads_better_than_bit_slicing_on_stride_patterns() {
        use crate::tmnm::{TmnmConfig, TmnmFilter};
        // Strided block addresses with zero low bits: TMNM's low-bit table
        // collapses to few slots; the Bloom filter spreads them.
        let mut bloom = BloomFilter::new(BloomConfig::new(10, 2), 1);
        let mut tmnm = TmnmFilter::new(TmnmConfig::new(10, 1), 1);
        for i in 0..256u64 {
            let block = i << 10; // all low 10 bits zero
            bloom.place(0, block, 0);
            tmnm.place(0, block, 0);
        }
        // A fresh strided block: TMNM cannot flag it (slot 0 is saturated),
        // the Bloom filter usually can.
        let fresh = 1000u64 << 10;
        assert!(tmnm.miss_lanes(fresh, 1) == 0, "bit-slice table is blind here");
        assert!(bloom.miss_lanes(fresh, 1) != 0, "hashing separates strided blocks");
    }

    #[test]
    fn storage_accounting() {
        let f = BloomFilter::new(BloomConfig::new(12, 4), 1);
        assert_eq!(f.lane_storage_bits(), 4096 * 3);
        assert_eq!(f.technique_label(), "BLOOM_12x4");
    }

    #[test]
    #[should_panic(expected = "hash count")]
    fn rejects_too_many_hashes() {
        BloomConfig::new(10, 9);
    }
}
