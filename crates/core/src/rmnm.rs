//! RMNM — the Replacements MNM (paper §3.1).
//!
//! A single small set-associative *RMNM cache* shared by all levels. Each
//! entry is keyed by an MNM block address and holds one bit per guarded
//! cache structure: bit *c* set means "this block was replaced from
//! structure *c* and has not been placed back since", so an access to it
//! will definitely miss there. Cold misses are invisible to this technique.

/// Geometry of the RMNM cache: `RMNM_<blocks>_<assoc>` in the paper's
/// figures (e.g. `RMNM_4096_8` = 4096 entries, 8-way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RmnmConfig {
    /// Total number of entries. Must be a power of two and a multiple of
    /// `assoc`.
    pub blocks: u32,
    /// Associativity.
    pub assoc: u32,
}

impl RmnmConfig {
    /// Create a configuration, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is not a power of two, `assoc` is zero, or
    /// `blocks` is not a multiple of `assoc`.
    pub fn new(blocks: u32, assoc: u32) -> Self {
        assert!(blocks.is_power_of_two(), "RMNM entry count must be a power of two");
        assert!(assoc >= 1, "RMNM associativity must be at least 1");
        assert!(blocks.is_multiple_of(assoc), "RMNM entries must divide evenly into ways");
        assert!((blocks / assoc).is_power_of_two(), "RMNM set count must be a power of two");
        RmnmConfig { blocks, assoc }
    }

    /// The paper's label for this configuration.
    pub fn label(&self) -> String {
        format!("RMNM_{}_{}", self.blocks, self.assoc)
    }
}

/// One RMNM entry. An empty entry's tag is never compared: its way's
/// fingerprint is 0, which no search looks for.
#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    /// Bitmask over slots; bit set = definite miss at that slot.
    bits: u64,
}

impl Entry {
    const EMPTY: Entry = Entry { tag: u64::MAX, bits: 0 };
}

/// `0x01` in every byte of a fingerprint word.
const LO_BYTES: u64 = 0x0101_0101_0101_0101;
/// `0x7f` in every byte: masks each byte's high bit off.
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// Bit 7 of every byte of `x` that is zero, and no other bit. Exact: the
/// per-byte add cannot carry into the next byte, so a byte is flagged
/// only if it is zero itself.
#[inline(always)]
fn zero_bytes(x: u64) -> u64 {
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The fingerprint of `tag`: the top byte of a multiplicative hash,
/// forced odd, so it is never zero and a zero byte can mark an empty way.
#[inline(always)]
fn fingerprint_of(tag: u64) -> u8 {
    (tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8 | 1
}

/// The shared replacements-tracking structure.
///
/// Unlike the other techniques, RMNM is a *single* structure covering every
/// guarded cache (paper: "we have chosen to have a single RMNM cache that
/// stores information about each cache level"), so it is not a
/// [`LaneFilter`](crate::LaneFilter) of one technique: the machine
/// addresses it with a `(slot, block)` pair where `slot` indexes the
/// guarded structures.
///
/// Beside each tag the simulator keeps a one-byte fingerprint of it,
/// packed eight ways to a `u64` (`ceil(assoc / 8)` words per set), 0 for
/// an empty way. A search compares all of a set's fingerprints at once
/// and reads a tag only where its fingerprint matches, confirming every
/// such candidate against the full tag; most queries find no entry and
/// read one word. Fingerprints mirror tags: every write of a tag writes
/// its fingerprint. They speed up the simulator and model no hardware,
/// so [`Rmnm::storage_bits`] leaves them out.
#[derive(Debug, Clone)]
pub struct Rmnm {
    config: RmnmConfig,
    sets: usize,
    assoc: usize,
    /// Fingerprint words per set.
    words: usize,
    /// `sets × words` words; byte `w % 8` of word `set × words + w / 8`
    /// is way `w`'s fingerprint, 0 when the way is empty. Bytes past
    /// `assoc` stay 0.
    fingerprints: Vec<u64>,
    /// Tag and slot mask per entry, side by side, so a search that finds
    /// its entry reads one cache line.
    entries: Vec<Entry>,
    stamps: Vec<u64>,
    clock: u64,
    num_slots: usize,
}

impl Rmnm {
    /// Build an empty RMNM cache guarding `num_slots` cache structures.
    ///
    /// # Panics
    ///
    /// Panics if `num_slots > 64` (entries hold a 64-bit slot mask).
    pub fn new(config: RmnmConfig, num_slots: usize) -> Self {
        assert!(num_slots <= 64, "RMNM entries hold at most 64 slot bits");
        let sets = (config.blocks / config.assoc) as usize;
        let total = config.blocks as usize;
        let words = config.assoc.div_ceil(8) as usize;
        Rmnm {
            config,
            sets,
            assoc: config.assoc as usize,
            words,
            fingerprints: vec![0; sets * words],
            entries: vec![Entry::EMPTY; total],
            stamps: vec![0; total],
            clock: 0,
            num_slots,
        }
    }

    /// This structure's configuration.
    pub fn config(&self) -> &RmnmConfig {
        &self.config
    }

    fn set_of(&self, block: u64) -> usize {
        (block as usize) & (self.sets - 1)
    }

    fn tag_of(&self, block: u64) -> u64 {
        block >> self.sets.trailing_zeros()
    }

    /// The fingerprint byte kept for `block`'s entry: odd, so never 0.
    /// The simulator's search aid only; exposed so tests can build blocks
    /// of one set whose fingerprints collide.
    pub fn fingerprint(&self, block: u64) -> u8 {
        fingerprint_of(self.tag_of(block))
    }

    /// The entry holding `block`: a zero-byte test of each fingerprint
    /// word XOR the broadcast fingerprint yields the candidate ways, and
    /// each candidate is confirmed by its tag.
    #[inline(always)]
    fn find(&self, block: u64) -> Option<usize> {
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let wanted = u64::from(fingerprint_of(tag)) * LO_BYTES;
        let base = set * self.assoc;
        let words = &self.fingerprints[set * self.words..][..self.words];
        for (w, &word) in words.iter().enumerate() {
            let mut candidates = zero_bytes(word ^ wanted);
            while candidates != 0 {
                let i = base + w * 8 + (candidates.trailing_zeros() / 8) as usize;
                if self.entries[i].tag == tag {
                    return Some(i);
                }
                candidates &= candidates - 1;
            }
        }
        None
    }

    /// The way of `set` a new entry takes: the first empty way, else the
    /// first with the oldest stamp (LRU). An empty way's stamp is 0 and
    /// every entry's at least 1, so the first oldest stamp is both.
    #[inline(always)]
    fn victim_way(&self, set: usize) -> usize {
        let stamps = &self.stamps[set * self.assoc..][..self.assoc];
        stamps.iter().enumerate().min_by_key(|&(_, &stamp)| stamp).map_or(0, |(way, _)| way)
    }

    /// A block was replaced from structure `slot`: remember the definite
    /// miss. May evict an older RMNM entry (losing only *miss* information,
    /// which is safe).
    #[inline]
    pub fn on_replace(&mut self, slot: usize, block: u64) {
        debug_assert!(slot < self.num_slots);
        self.clock += 1;
        if let Some(i) = self.find(block) {
            self.entries[i].bits |= 1 << slot;
            self.stamps[i] = self.clock;
            return;
        }
        let set = self.set_of(block);
        let way = self.victim_way(set);
        let tag = self.tag_of(block);
        let shift = way % 8 * 8;
        let word = &mut self.fingerprints[set * self.words + way / 8];
        *word = *word & !(0xff << shift) | u64::from(fingerprint_of(tag)) << shift;
        let i = set * self.assoc + way;
        self.entries[i] = Entry { tag, bits: 1 << slot };
        self.stamps[i] = self.clock;
    }

    /// A block was removed from structure `slot` by an invalidation
    /// (inclusive back-invalidation or external coherence traffic). The
    /// block is just as gone as a replacement victim, so the same definite
    /// miss is remembered; the caller guarantees the block was actually
    /// removed.
    pub fn on_invalidate(&mut self, slot: usize, block: u64) {
        self.on_replace(slot, block);
    }

    /// A block was placed into structure `slot`: the miss bit must be
    /// cleared (the block is resident again).
    #[inline]
    pub fn on_place(&mut self, slot: usize, block: u64) {
        debug_assert!(slot < self.num_slots);
        if let Some(i) = self.find(block) {
            self.entries[i].bits &= !(1 << slot);
        }
    }

    /// The full per-slot miss mask for `block`: bit `s` set means an
    /// access is a definite miss at structure `s`. One search answers
    /// every guarded structure on an access path — the machine's query
    /// masks it to the path instead of repeating the search.
    #[inline]
    pub fn miss_mask(&self, block: u64) -> u64 {
        match self.find(block) {
            Some(i) => self.entries[i].bits,
            None => 0,
        }
    }

    /// Whether an access to `block` is a definite miss at structure `slot`.
    pub fn is_definite_miss(&self, slot: usize, block: u64) -> bool {
        debug_assert!(slot < self.num_slots);
        self.miss_mask(block) & (1 << slot) != 0
    }

    /// Drop all entries.
    pub fn flush(&mut self) {
        self.fingerprints.fill(0);
        self.entries.fill(Entry::EMPTY);
        self.stamps.fill(0);
        self.clock = 0;
    }

    /// Storage cost in bits: per entry, a tag plus one bit per guarded
    /// structure, plus a valid bit.
    ///
    /// The tag width is derived from the full 64-bit block-address width —
    /// the same width the lookups (`Rmnm::tag_of`) compare. An earlier
    /// version modelled a 32-bit address space here; that was only a
    /// storage-accounting shortfall (lookups always used full tags), but
    /// any truncation of the *stored* tag would let two blocks differing
    /// only above bit 32 alias into one entry and turn a stale miss bit
    /// into an unsound "definite miss" (see
    /// `full_width_tags_do_not_alias_high_addresses`).
    ///
    /// The fingerprint bytes are not counted: they are the simulator's
    /// search aid and model no hardware of the paper.
    pub fn storage_bits(&self) -> u64 {
        let index_bits = (self.sets as u64).trailing_zeros() as u64;
        let tag_bits = 64u64.saturating_sub(index_bits);
        (self.config.blocks as u64) * (tag_bits + self.num_slots as u64 + 1)
    }

    /// The paper's label for this configuration.
    pub fn label(&self) -> String {
        self.config.label()
    }

    /// Current occupancy: valid entries (nonzero fingerprints) over total
    /// entries.
    pub fn occupancy(&self) -> crate::filter::FilterOccupancy {
        let empty: u32 = self.fingerprints.iter().map(|&w| zero_bytes(w).count_ones()).sum();
        crate::filter::FilterOccupancy {
            tracked: (self.fingerprints.len() * 8) as u64 - u64::from(empty),
            capacity: self.config.blocks.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_then_miss_then_place_clears() {
        let mut r = Rmnm::new(RmnmConfig::new(16, 2), 5);
        let b = 0x2fc0 >> 5;
        assert!(!r.is_definite_miss(3, b));
        r.on_replace(3, b);
        assert!(r.is_definite_miss(3, b));
        assert!(!r.is_definite_miss(2, b), "other slots unaffected");
        r.on_place(3, b);
        assert!(!r.is_definite_miss(3, b));
    }

    /// The paper's Table 1 scenario: a two-level hierarchy where block
    /// 0x2fc0 is replaced from L2 and the subsequent access is captured.
    #[test]
    fn table1_scenario() {
        // One guarded structure (the L2), slot 0.
        let mut r = Rmnm::new(RmnmConfig::new(8, 1), 1);
        let g = |addr: u64| addr >> 5; // 32-byte L2 blocks
                                       // x2ff4 placed into L1 and L2; x2fc0 later replaced from L2.
        r.on_place(0, g(0x2ff4));
        r.on_place(0, g(0x2fc0));
        r.on_replace(0, g(0x2fc0));
        // The access to x2fc0 is identified as an L2 miss.
        assert!(r.is_definite_miss(0, g(0x2fc0)));
        // Placing it back (after the miss is serviced) clears the entry.
        r.on_place(0, g(0x2fc0));
        assert!(!r.is_definite_miss(0, g(0x2fc0)));
    }

    #[test]
    fn allocation_eviction_loses_only_miss_info() {
        // 2 entries, direct-mapped: set = block & 1.
        let mut r = Rmnm::new(RmnmConfig::new(2, 1), 1);
        r.on_replace(0, 0); // set 0
        r.on_replace(0, 2); // set 0: evicts entry for block 0
        assert!(!r.is_definite_miss(0, 0), "evicted info degrades to maybe");
        assert!(r.is_definite_miss(0, 2));
    }

    #[test]
    fn lru_keeps_recent_entries() {
        // 1 set x 2 ways: blocks 0,2,4 all map to set 0.
        let mut r = Rmnm::new(RmnmConfig::new(2, 2), 1);
        r.on_replace(0, 0);
        r.on_replace(0, 2);
        r.on_replace(0, 0); // refresh block 0
        r.on_replace(0, 4); // must evict block 2 (LRU)
        assert!(r.is_definite_miss(0, 0));
        assert!(!r.is_definite_miss(0, 2));
        assert!(r.is_definite_miss(0, 4));
    }

    #[test]
    fn multiple_slots_accumulate_in_one_entry() {
        let mut r = Rmnm::new(RmnmConfig::new(8, 2), 4);
        r.on_replace(1, 7);
        r.on_replace(3, 7);
        assert!(r.is_definite_miss(1, 7));
        assert!(r.is_definite_miss(3, 7));
        assert!(!r.is_definite_miss(0, 7));
        r.on_place(1, 7);
        assert!(!r.is_definite_miss(1, 7));
        assert!(r.is_definite_miss(3, 7), "placement into one structure keeps other bits");
    }

    #[test]
    fn flush_clears_everything() {
        let mut r = Rmnm::new(RmnmConfig::new(8, 2), 2);
        r.on_replace(0, 5);
        r.flush();
        assert!(!r.is_definite_miss(0, 5));
    }

    #[test]
    fn storage_bits_scales_with_entries() {
        let small = Rmnm::new(RmnmConfig::new(128, 1), 5).storage_bits();
        let large = Rmnm::new(RmnmConfig::new(4096, 8), 5).storage_bits();
        assert!(large > small * 16);
    }

    #[test]
    fn storage_accounts_full_block_address_tags() {
        // 128 entries, direct-mapped: 7 index bits, 57 tag bits, 5 slot
        // bits, 1 valid bit. The old 32-bit model counted 25 tag bits.
        let r = Rmnm::new(RmnmConfig::new(128, 1), 5);
        assert_eq!(r.storage_bits(), 128 * (57 + 5 + 1));
    }

    /// Regression: tags must cover the full 64-bit block-address width.
    /// Under a 32-bit tag scheme these two blocks — identical in their low
    /// 32 bits, different above — would alias into one entry, and the miss
    /// bit recorded for the first would unsoundly flag the second.
    #[test]
    fn full_width_tags_do_not_alias_high_addresses() {
        let mut r = Rmnm::new(RmnmConfig::new(8, 1), 1);
        let low = 0x0000_0000_2fc0_u64 >> 5;
        let high = low | (1u64 << 40); // same low 32 bits after the shift
        r.on_replace(0, low);
        assert!(r.is_definite_miss(0, low));
        assert!(
            !r.is_definite_miss(0, high),
            "a block differing only above bit 32 must not inherit the miss bit"
        );
        // And the reverse direction: placing the high alias must not clear
        // the low block's (still valid) miss information.
        r.on_place(0, high);
        assert!(r.is_definite_miss(0, low));
    }

    #[test]
    fn zero_bytes_flags_exactly_the_zero_bytes() {
        for x in [0u64, 1, 0x80, 0x0100, 0x00ff_0001_0000_8000, u64::MAX, 0x0101_0101_0101_0100] {
            let want =
                (0..8).filter(|b| (x >> (b * 8)) as u8 == 0).fold(0u64, |m, b| m | 0x80 << (b * 8));
            assert_eq!(zero_bytes(x), want, "{x:#018x}");
        }
    }

    #[test]
    fn a_fingerprint_collision_is_settled_by_the_tag() {
        // 1 set x 8 ways: every block is its own tag.
        let mut r = Rmnm::new(RmnmConfig::new(8, 8), 1);
        let a = 3;
        let twin = (4..).find(|&b| r.fingerprint(b) == r.fingerprint(a)).unwrap();
        r.on_replace(0, a);
        assert!(r.is_definite_miss(0, a));
        assert!(!r.is_definite_miss(0, twin), "a shared fingerprint is not a match");
        r.on_replace(0, twin);
        r.on_place(0, a);
        assert!(!r.is_definite_miss(0, a));
        assert!(r.is_definite_miss(0, twin), "placing one twin leaves the other's bit");
        assert_eq!(r.occupancy().tracked, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_rejects_non_power_of_two() {
        RmnmConfig::new(100, 2);
    }

    #[test]
    fn label_matches_paper() {
        assert_eq!(RmnmConfig::new(512, 2).label(), "RMNM_512_2");
    }
}
