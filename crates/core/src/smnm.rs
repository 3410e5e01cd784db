//! SMNM — the Sum MNM (paper §3.2).
//!
//! Each *checker* examines a `sum_width`-bit slice of the block address and
//! hashes it with the paper's sum-of-squares function (Figure 5):
//!
//! ```text
//! sum = 0;
//! for (i = 1; i <= SUM_WIDTH; i++) { if (tag & 1) sum += i*i; tag >>= 1; }
//! ```
//!
//! A flip-flop per possible sum value records which hashes have ever been
//! placed into the guarded cache (Figure 6). An access whose hash was never
//! admitted is a definite miss. The structure is *set-only*: replacements
//! cannot clear flip-flops (several live blocks may share a hash), so only
//! never-seen hash values — mostly cold regions — are filtered, matching
//! the paper's observation that SMNM coverage is low except for
//! small-footprint caches.
//!
//! Replicated checkers examine address slices starting at bits 0, 6 and 12
//! (paper: "the first one examines the least significant bits, the second
//! examines the bits starting from the 7th ... the third one starting from
//! the 13th"); an access is a definite miss if *any* checker rejects it.
//!
//! The hash is evaluated bytewise through precomputed tables (the sum is
//! additive over disjoint bit groups), and the flip-flops are packed 64 per
//! word so a probe is one load plus a shift per checker instead of a
//! per-bit loop — same function values, same verdicts. A filter guarding
//! several structures (one lane each) interleaves their flip-flops by
//! lane, so that one hash and one load answer every lane.

use crate::filter::{FilterOccupancy, LaneBits, LaneFilter};

/// Bit offsets at which replicated checkers/tables slice the block address.
pub(crate) const SLICE_OFFSETS: [u32; 3] = [0, 6, 12];

/// `SMNM_<sum_width>x<replication>` (e.g. `SMNM_13x2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmnmConfig {
    /// Bits examined by each checker.
    pub sum_width: u32,
    /// Number of parallel checkers (1–3).
    pub replication: u32,
}

impl SmnmConfig {
    /// Create a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sum_width` is zero or `replication` is not in 1..=3.
    pub fn new(sum_width: u32, replication: u32) -> Self {
        assert!(sum_width >= 1, "sum_width must be at least 1");
        assert!(sum_width <= 32, "sum_width above 32 is meaningless for 32-bit block addresses");
        assert!(
            (1..=SLICE_OFFSETS.len() as u32).contains(&replication),
            "replication must be between 1 and 3"
        );
        SmnmConfig { sum_width, replication }
    }

    /// The paper's label for this configuration.
    pub fn label(&self) -> String {
        format!("SMNM_{}x{}", self.sum_width, self.replication)
    }
}

/// Per-byte partial sums: `SUM_LUT[k][b]` is `Σ (8k+j+1)²` over the set
/// bits `j` of byte `b` — the paper's loop restricted to byte `k` of the
/// slice. The full hash is the sum of at most four table lookups.
const fn byte_sums(byte_index: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut j = 0u32;
        let mut sum = 0u32;
        while j < 8 {
            if (b >> j) & 1 == 1 {
                let i = 8 * byte_index + j + 1;
                sum += i * i;
            }
            j += 1;
        }
        table[b] = sum;
        b += 1;
    }
    table
}

const SUM_LUT: [[u32; 256]; 4] = [byte_sums(0), byte_sums(1), byte_sums(2), byte_sums(3)];

/// The paper's sum-of-squares hash over the low `width` bits of `slice`,
/// for `width` in 1..=32 (the range [`SmnmConfig::new`] admits): at most
/// four table lookups, with no per-bit loop.
#[inline(always)]
pub fn sum_hash(slice: u64, width: u32) -> u32 {
    debug_assert!((1..=32).contains(&width), "sum width {width} outside 1..=32");
    let masked = (slice & (u64::MAX >> (64 - width))) as u32;
    SUM_LUT[0][(masked & 0xff) as usize]
        + SUM_LUT[1][(masked >> 8 & 0xff) as usize]
        + SUM_LUT[2][(masked >> 16 & 0xff) as usize]
        + SUM_LUT[3][(masked >> 24) as usize]
}

/// The hash as literally written in the paper (Figure 5): the reference
/// the tabulated [`sum_hash`] is tested against.
#[cfg(test)]
fn sum_hash_loop(slice: u64, width: u32) -> u32 {
    let mut tag = slice;
    let mut sum = 0u32;
    for i in 1..=width {
        if tag & 1 != 0 {
            sum += i * i;
        }
        tag >>= 1;
    }
    sum
}

/// Maximum hash value for `width` bits: `w(w+1)(2w+1)/6` (paper Equation 3,
/// the flip-flop count of one checker, minus the slot for sum = 0).
pub fn max_sum(width: u32) -> u32 {
    width * (width + 1) * (2 * width + 1) / 6
}

/// One checker circuit (paper Figure 6): a flip-flop per possible sum and
/// lane, packed lane-interleaved, 64 to a word.
#[derive(Debug, Clone)]
pub struct SmnmChecker {
    offset: u32,
    width: u32,
    /// Conceptual flip-flop `s` of lane `l` is `lanes`' bit `(s, l)`.
    present: Vec<u64>,
    lanes: LaneBits,
    flip_flops: u64,
}

impl SmnmChecker {
    /// Build a checker over address bits `[offset, offset + width)` with
    /// `lanes` lanes (1..=64).
    pub fn new(offset: u32, width: u32, lanes: usize) -> Self {
        let lanes = LaneBits::new(lanes);
        let flip_flops = u64::from(max_sum(width)) + 1;
        SmnmChecker {
            offset,
            width,
            present: lanes.cleared(flip_flops as usize),
            lanes,
            flip_flops,
        }
    }

    #[inline(always)]
    fn hash(&self, block: u64) -> usize {
        sum_hash(block >> self.offset, self.width) as usize
    }

    /// Record the hash of a block placed in lane `lane`'s structure.
    pub fn admit(&mut self, lane: usize, block: u64) {
        let h = self.hash(block);
        self.lanes.set(&mut self.present, h, lane);
    }

    /// The flip-flops guarding `block`, lane `l` at bit `l` (1 = the
    /// block's hash has been admitted to lane `l`). Branch-free input to
    /// the filter's all-checkers AND.
    #[inline(always)]
    pub fn present_lanes(&self, block: u64) -> u64 {
        self.lanes.get(&self.present, self.hash(block))
    }

    /// Reset all flip-flops.
    pub fn reset(&mut self) {
        self.present.fill(0);
    }

    /// Flip-flop count of one lane (paper Equation 3 plus the sum = 0 slot).
    pub fn flip_flops(&self) -> u64 {
        self.flip_flops
    }

    /// Toggle one flip-flop of lane `lane` (fault injection). Bit `i`
    /// guards sum value `i`.
    pub fn flip_bit(&mut self, lane: usize, bit: u64) -> bool {
        if bit >= self.flip_flops {
            return false;
        }
        self.lanes.toggle(&mut self.present, bit as usize, lane);
        true
    }

    /// The flip-flop index guarding `block` in this checker (every lane).
    pub fn state_bit_of(&self, block: u64) -> u64 {
        self.hash(block) as u64
    }

    /// Set flip-flops of lane `lane`.
    fn admitted(&self, lane: usize) -> u64 {
        self.lanes.count(&self.present, lane)
    }
}

/// An SMNM filter: `replication` parallel checkers, each with one lane
/// per guarded structure.
#[derive(Debug, Clone)]
pub struct SmnmFilter {
    config: SmnmConfig,
    checkers: Vec<SmnmChecker>,
    lanes: LaneBits,
    label: String,
}

impl SmnmFilter {
    /// Build an empty filter guarding `lanes` structures (1..=64).
    pub fn new(config: SmnmConfig, lanes: usize) -> Self {
        let checkers = SLICE_OFFSETS
            .iter()
            .take(config.replication as usize)
            .map(|&off| SmnmChecker::new(off, config.sum_width, lanes))
            .collect();
        SmnmFilter { checkers, lanes: LaneBits::new(lanes), label: config.label(), config }
    }

    /// This filter's configuration.
    pub fn config(&self) -> &SmnmConfig {
        &self.config
    }
}

impl LaneFilter for SmnmFilter {
    fn lanes(&self) -> usize {
        self.lanes.lanes()
    }

    #[inline(always)]
    fn miss_lanes(&self, block: u64, want: u64) -> u64 {
        // AND the present bits of every checker: a lane misses iff any
        // checker lacks the block's sum there.
        let mut all_present = self.lanes.mask();
        for c in &self.checkers {
            all_present &= c.present_lanes(block);
        }
        want & !all_present
    }

    fn place(&mut self, lane: usize, block: u64, _frame_slot: usize) {
        for c in &mut self.checkers {
            c.admit(lane, block);
        }
    }

    fn replace(&mut self, _lane: usize, _block: u64, _frame_slot: usize) {
        // Set-only: several live blocks may share a hash value, so a
        // replacement cannot clear any flip-flop (soundness).
    }

    fn flush_lanes(&mut self) {
        for c in &mut self.checkers {
            c.reset();
        }
    }

    fn lane_storage_bits(&self) -> u64 {
        self.checkers.iter().map(SmnmChecker::flip_flops).sum()
    }

    fn technique_label(&self) -> &str {
        &self.label
    }

    fn lane_state_bits(&self) -> u64 {
        self.lane_storage_bits()
    }

    fn flip_lane_bit(&mut self, lane: usize, mut bit: u64) -> bool {
        for c in &mut self.checkers {
            if bit < c.flip_flops() {
                return c.flip_bit(lane, bit);
            }
            bit -= c.flip_flops();
        }
        false
    }

    fn lane_bit_of(&self, _lane: usize, block: u64) -> Option<u64> {
        // Clearing the first checker's flip-flop for a live block's hash
        // makes that checker reject it — one checker's rejection flags.
        Some(self.checkers[0].state_bit_of(block))
    }

    fn lane_occupancy(&self, lane: usize) -> FilterOccupancy {
        FilterOccupancy {
            tracked: self.checkers.iter().map(|c| c.admitted(lane)).sum(),
            capacity: self.lane_storage_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    //! SMNM ignores the frame slot, so these tests pass 0 for it.

    use super::*;

    #[test]
    fn hash_matches_paper_function() {
        // Bits 0 and 2 set => 1*1 + 3*3 = 10.
        assert_eq!(sum_hash(0b101, 8), 10);
        assert_eq!(sum_hash(0, 8), 0);
        // All bits of width 3: 1 + 4 + 9 = 14 = max_sum(3).
        assert_eq!(sum_hash(0b111, 3), 14);
        assert_eq!(max_sum(3), 14);
        // Bits above the width are ignored.
        assert_eq!(sum_hash(0b1000, 3), 0);
    }

    #[test]
    fn tabulated_hash_equals_paper_loop() {
        let mut x: u64 = 0xDEAD_BEEF_1234_5678;
        for width in 1..=32 {
            for _ in 0..256 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                assert_eq!(
                    sum_hash(x, width),
                    sum_hash_loop(x, width),
                    "width {width} slice {x:#x}"
                );
            }
        }
    }

    #[test]
    fn equation3_flip_flop_count() {
        // Equation 3: w(w+1)(2w+1)/6 = 650 for w = 12; +1 for sum = 0.
        assert_eq!(max_sum(12), 650);
        assert_eq!(SmnmChecker::new(0, 12, 1).flip_flops(), 651);
    }

    #[test]
    fn never_seen_hash_is_definite_miss() {
        let mut f = SmnmFilter::new(SmnmConfig::new(10, 1), 1);
        assert!(f.miss_lanes(0b1, 1) != 0); // nothing admitted yet
        f.place(0, 0b1, 0);
        assert!(f.miss_lanes(0b1, 1) == 0);
        // 0b100 hashes to 9, distinct from 1 => still a definite miss.
        assert!(f.miss_lanes(0b100, 1) != 0);
    }

    #[test]
    fn replace_never_clears() {
        let mut f = SmnmFilter::new(SmnmConfig::new(10, 2), 1);
        f.place(0, 42, 0);
        f.replace(0, 42, 0);
        assert!(f.miss_lanes(42, 1) == 0, "set-only semantics");
    }

    #[test]
    fn aliasing_blocks_share_fate() {
        let mut f = SmnmFilter::new(SmnmConfig::new(4, 1), 1);
        // 0b0011 -> 1+4 = 5; 0b...? find another 4-bit value hashing to 5:
        // none (sums are distinct subsets of {1,4,9,16}), but values equal
        // modulo the 4-bit slice alias: 0b10011 has the same low-4 slice.
        f.place(0, 0b0011, 0);
        assert!(f.miss_lanes(0b1_0011, 1) == 0, "slice alias must not be rejected");
    }

    #[test]
    fn replicated_checkers_catch_high_bit_differences() {
        let mut f = SmnmFilter::new(SmnmConfig::new(10, 3), 1);
        f.place(0, 0x0000_0001, 0);
        // Same low slice, different bits at offset 12 => third checker
        // rejects.
        assert!(f.miss_lanes(0x0000_1001 | 1 << 13, 1) != 0);
        // Single-checker filter cannot.
        let mut f1 = SmnmFilter::new(SmnmConfig::new(10, 1), 1);
        f1.place(0, 0x0000_0001, 0);
        assert!(f1.miss_lanes(0x0000_0001 | 1 << 13, 1) == 0);
    }

    #[test]
    fn flush_resets_to_all_miss() {
        let mut f = SmnmFilter::new(SmnmConfig::new(8, 1), 1);
        f.place(0, 3, 0);
        f.flush_lanes();
        assert!(f.miss_lanes(3, 1) != 0);
    }

    #[test]
    fn storage_scales_cubically() {
        let w10 = SmnmFilter::new(SmnmConfig::new(10, 1), 1).lane_storage_bits();
        let w20 = SmnmFilter::new(SmnmConfig::new(20, 1), 1).lane_storage_bits();
        // (20·21·41 - 10·11·21)/6: roughly 8x.
        assert!(w20 > w10 * 7 && w20 < w10 * 9);
    }

    #[test]
    fn label_matches_paper() {
        assert_eq!(SmnmConfig::new(13, 2).label(), "SMNM_13x2");
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn rejects_excess_replication() {
        SmnmConfig::new(10, 4);
    }

    #[test]
    fn flipping_the_guarding_flip_flop_makes_an_admitted_block_lie() {
        let mut f = SmnmFilter::new(SmnmConfig::new(10, 2), 1);
        f.place(0, 42, 0);
        assert!(f.miss_lanes(42, 1) == 0);
        let bit = f.lane_bit_of(0, 42).unwrap();
        assert!(f.flip_lane_bit(0, bit));
        assert!(f.miss_lanes(42, 1) != 0, "cleared flip-flop: the filter now lies");
        assert!(f.flip_lane_bit(0, bit));
        assert!(f.miss_lanes(42, 1) == 0);
        assert_eq!(f.lane_state_bits(), f.lane_storage_bits());
        assert!(!f.flip_lane_bit(0, f.lane_state_bits()));
    }

    #[test]
    fn flip_bit_addresses_every_flip_flop() {
        // The packed words must expose exactly `flip_flops` addressable
        // bits, including the last partial word.
        let mut c = SmnmChecker::new(0, 7, 1); // 141 flip-flops: 3 words
        assert_eq!(c.flip_flops(), 141);
        assert!(c.flip_bit(0, 140));
        assert!(!c.flip_bit(0, 141));
        // Sum 140 = max_sum(7): the all-ones slice.
        assert_eq!(SmnmChecker::new(0, 7, 1).present_lanes(0x7f), 0, "fresh checker rejects all");
        assert_eq!(c.state_bit_of(0x7f), 140);
        assert_eq!(c.present_lanes(0x7f), 1, "flipped bit 140 admits the all-ones hash");
    }
}
