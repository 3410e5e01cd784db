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

use crate::filter::MissFilter;

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

/// A per-structure counting Bloom filter.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    config: BloomConfig,
    counters: Vec<u8>,
    /// Bit `s` set iff `counters[s] == 0` — the only state a probe reads.
    zero: Vec<u64>,
    max: u8,
    mask: u64,
    label: String,
}

/// One round of a splitmix64-style mixer, parameterized by the hash index.
fn mix(block: u64, which: u32) -> u64 {
    let mut z = block.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(which) + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn zero_words(slots: usize) -> Vec<u64> {
    let mut words = vec![u64::MAX; slots.div_ceil(64)];
    if !slots.is_multiple_of(64) {
        *words.last_mut().unwrap() = (1u64 << (slots % 64)) - 1;
    }
    words
}

impl BloomFilter {
    /// Build an empty filter.
    pub fn new(config: BloomConfig) -> Self {
        BloomFilter {
            counters: vec![0; 1 << config.bits],
            zero: zero_words(1 << config.bits),
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

    fn sync_zero_flag(&mut self, slot: usize) {
        let bit = 1u64 << (slot & 63);
        if self.counters[slot] == 0 {
            self.zero[slot >> 6] |= bit;
        } else {
            self.zero[slot >> 6] &= !bit;
        }
    }
}

impl MissFilter for BloomFilter {
    fn on_place(&mut self, block: u64) {
        let (slots, k) = self.slot_array(block);
        for &s in &slots[..k] {
            let c = self.counters[s];
            if c < self.max {
                self.counters[s] = c + 1;
                if c == 0 {
                    self.zero[s >> 6] &= !(1u64 << (s & 63));
                }
            }
        }
    }

    fn on_replace(&mut self, block: u64) {
        let (slots, k) = self.slot_array(block);
        for &s in &slots[..k] {
            let c = self.counters[s];
            if c > 0 && c < self.max {
                self.counters[s] = c - 1;
                if c == 1 {
                    self.zero[s >> 6] |= 1 << (s & 63);
                }
            }
        }
    }

    #[inline]
    fn is_definite_miss(&self, block: u64) -> bool {
        // OR the zero flags of all k counters: miss iff any is zero.
        let mut any_zero = 0u64;
        for which in 0..self.config.hashes {
            let s = (mix(block, which) & self.mask) as usize;
            any_zero |= self.zero[s >> 6] >> (s & 63) & 1;
        }
        any_zero != 0
    }

    fn flush(&mut self) {
        self.counters.fill(0);
        self.zero = zero_words(self.counters.len());
    }

    fn storage_bits(&self) -> u64 {
        (1u64 << self.config.bits) * u64::from(self.config.counter_bits)
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn state_bits(&self) -> u64 {
        self.storage_bits()
    }

    fn flip_state_bit(&mut self, bit: u64) -> bool {
        let width = u64::from(self.config.counter_bits);
        let slot = (bit / width) as usize;
        let Some(counter) = self.counters.get_mut(slot) else {
            return false;
        };
        *counter ^= 1 << (bit % width);
        self.sync_zero_flag(slot);
        true
    }

    fn state_bit_of(&self, block: u64) -> Option<u64> {
        // The low bit of the first hash's counter: one zero counter among
        // the k is enough to flag a definite miss.
        let slot = mix(block, 0) & self.mask;
        Some(slot * u64::from(self.config.counter_bits))
    }

    fn occupancy(&self) -> crate::filter::FilterOccupancy {
        let zeros: u64 = self.zero.iter().map(|w| u64::from(w.count_ones())).sum();
        crate::filter::FilterOccupancy {
            tracked: self.counters.len() as u64 - zeros,
            capacity: self.counters.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_replace_round_trip() {
        let mut f = BloomFilter::new(BloomConfig::new(10, 2));
        assert!(f.is_definite_miss(0xAB));
        f.on_place(0xAB);
        assert!(!f.is_definite_miss(0xAB));
        f.on_replace(0xAB);
        assert!(f.is_definite_miss(0xAB));
    }

    #[test]
    fn double_counting_hazard_is_handled() {
        // If two hash functions of the SAME block collide on one slot, the
        // slot is incremented twice; decrementing twice on replace keeps
        // the pairing exact, so soundness is preserved either way.
        let mut f = BloomFilter::new(BloomConfig::new(2, 4)); // tiny: collisions certain
        for b in 0..16u64 {
            f.on_place(b);
        }
        for b in 0..16u64 {
            // All other blocks still live — no flag may appear for them.
            f.on_replace(b);
            for live in (b + 1)..16 {
                assert!(!f.is_definite_miss(live), "unsound for {live:#x} after removing {b:#x}");
            }
        }
    }

    #[test]
    fn aliasing_blocks_keep_counters_positive() {
        let mut f = BloomFilter::new(BloomConfig::new(12, 3));
        f.on_place(1);
        f.on_place(2);
        f.on_replace(1);
        assert!(!f.is_definite_miss(2));
        f.on_replace(2);
        assert!(f.is_definite_miss(2));
    }

    #[test]
    fn saturation_is_sticky() {
        let mut f = BloomFilter::new(BloomConfig::new(1, 1)); // 2 counters
        for b in 0..32u64 {
            f.on_place(b);
        }
        for b in 0..32u64 {
            f.on_replace(b);
        }
        // Both counters saturated and stuck: nothing is ever flagged.
        for b in 0..32u64 {
            assert!(!f.is_definite_miss(b));
        }
    }

    #[test]
    fn zero_bitset_tracks_counters_exactly() {
        let mut f = BloomFilter::new(BloomConfig::new(5, 3)); // 32 counters: partial word
        let mut x: u64 = 0x1234_5678;
        for step in 0..3000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match step % 4 {
                0 | 1 => f.on_place(x % 512),
                2 => f.on_replace(x % 512),
                _ => {
                    f.flip_state_bit(x % f.state_bits());
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
        f.flush();
        assert!(f.counters.iter().all(|&c| c == 0));
        assert!(f.is_definite_miss(0));
    }

    #[test]
    fn hashing_spreads_better_than_bit_slicing_on_stride_patterns() {
        use crate::tmnm::{TmnmConfig, TmnmFilter};
        // Strided block addresses with zero low bits: TMNM's low-bit table
        // collapses to few slots; the Bloom filter spreads them.
        let mut bloom = BloomFilter::new(BloomConfig::new(10, 2));
        let mut tmnm = TmnmFilter::new(TmnmConfig::new(10, 1));
        for i in 0..256u64 {
            let block = i << 10; // all low 10 bits zero
            bloom.on_place(block);
            tmnm.on_place(block);
        }
        // A fresh strided block: TMNM cannot flag it (slot 0 is saturated),
        // the Bloom filter usually can.
        let fresh = 1000u64 << 10;
        assert!(!tmnm.is_definite_miss(fresh), "bit-slice table is blind here");
        assert!(bloom.is_definite_miss(fresh), "hashing separates strided blocks");
    }

    #[test]
    fn storage_accounting() {
        let f = BloomFilter::new(BloomConfig::new(12, 4));
        assert_eq!(f.storage_bits(), 4096 * 3);
        assert_eq!(f.label(), "BLOOM_12x4");
    }

    #[test]
    #[should_panic(expected = "hash count")]
    fn rejects_too_many_hashes() {
        BloomConfig::new(10, 9);
    }
}
