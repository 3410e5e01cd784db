//! Differential specification tests for the bit-parallel probe paths.
//!
//! SMNM, TMNM and the counting Bloom filter answer queries from packed
//! bitsets (present/zero flags) maintained on the update path, and SMNM
//! evaluates the paper's sum-of-squares hash through byte lookup tables.
//! These tests replay randomized place/replace/fault-flip traces through
//! each filter and through a deliberately naive in-test model written
//! straight from the paper's prose — per-bit hash loop, plain counter
//! arrays, no bitsets — and require bit-identical verdicts after every
//! operation. Any divergence between the fast representation and the
//! specification is a bug in the fast one. None of these families reads
//! the frame slot, so the traces pass 0 for it.
//!
//! The shared RMNM searches a set through packed tag fingerprints before
//! it reads a tag; it is held to a per-set way list with full-tag
//! compares and LRU by clock, the structure of paper §3.1.

use std::collections::HashSet;

use mnm_core::{
    BloomConfig, BloomFilter, LaneFilter, Rmnm, RmnmConfig, SmnmConfig, SmnmFilter, TmnmConfig,
    TmnmFilter,
};

/// The slice offsets of replicated SMNM checkers / TMNM tables (paper:
/// bits 0, 7th, 13th — i.e. offsets 0, 6, 12). Pinned here independently
/// of the implementation constant.
const OFFSETS: [u32; 3] = [0, 6, 12];

/// Minimal deterministic generator (xorshift).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The paper's Figure 5 hash, as literally written: a per-bit loop.
fn spec_sum_hash(slice: u64, width: u32) -> u32 {
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

fn max_sum(width: u32) -> u32 {
    width * (width + 1) * (2 * width + 1) / 6
}

/// Spec SMNM: one admitted-sums set per checker, no packed words.
struct SpecSmnm {
    width: u32,
    admitted: Vec<HashSet<u32>>,
}

impl SpecSmnm {
    fn new(config: SmnmConfig) -> Self {
        SpecSmnm {
            width: config.sum_width,
            admitted: vec![HashSet::new(); config.replication as usize],
        }
    }

    fn sums(&self, block: u64) -> impl Iterator<Item = u32> + '_ {
        OFFSETS
            .iter()
            .take(self.admitted.len())
            .map(move |&off| spec_sum_hash(block >> off, self.width))
    }

    fn on_place(&mut self, block: u64) {
        let sums: Vec<u32> = self.sums(block).collect();
        for (set, sum) in self.admitted.iter_mut().zip(sums) {
            set.insert(sum);
        }
    }

    fn is_definite_miss(&self, block: u64) -> bool {
        self.admitted.iter().zip(self.sums(block)).any(|(set, sum)| !set.contains(&sum))
    }

    /// Mirror `LaneFilter::flip_lane_bit`: bit `i` of checker `c` guards
    /// sum value `i`, checkers concatenated in offset order.
    fn flip_bit(&mut self, mut bit: u64) {
        let flip_flops = u64::from(max_sum(self.width)) + 1;
        for set in &mut self.admitted {
            if bit < flip_flops {
                let sum = bit as u32;
                if !set.remove(&sum) {
                    set.insert(sum);
                }
                return;
            }
            bit -= flip_flops;
        }
    }
}

#[test]
fn smnm_lut_hash_and_present_bitset_match_the_paper_loop() {
    for (case, &(width, repl)) in
        [(4u32, 1u32), (7, 2), (13, 3), (20, 3), (32, 1)].iter().enumerate()
    {
        let config = SmnmConfig::new(width, repl);
        let mut real = SmnmFilter::new(config, 1);
        let mut spec = SpecSmnm::new(config);
        let mut gen = Gen(0x51EC_0001 + case as u64);
        let mut recent = Vec::new();
        for step in 0..2_500u64 {
            let r = gen.next();
            let block = gen.next() % 0x2_0000;
            match r % 8 {
                0..=4 => {
                    real.place(0, block, 0);
                    spec.on_place(block);
                    recent.push(block);
                }
                5 => {
                    // Replacements must be ignored by both (set-only).
                    real.replace(0, block, 0);
                }
                6 => {
                    let bit = gen.next() % real.lane_state_bits();
                    assert!(real.flip_lane_bit(0, bit));
                    spec.flip_bit(bit);
                }
                _ => {
                    real.flush_lanes();
                    spec.admitted.iter_mut().for_each(HashSet::clear);
                    recent.clear();
                }
            }
            for probe in recent.iter().rev().take(4).chain(&[block, gen.next() % 0x2_0000]) {
                assert_eq!(
                    real.miss_lanes(*probe, 1) != 0,
                    spec.is_definite_miss(*probe),
                    "SMNM_{width}x{repl}: verdicts diverged for block {probe:#x} at step {step}"
                );
            }
        }
    }
}

/// Spec TMNM: plain `Vec<u8>` counter arrays scanned directly, sticky
/// saturation written out longhand.
struct SpecTmnm {
    bits: u32,
    max: u8,
    tables: Vec<Vec<u8>>,
}

impl SpecTmnm {
    fn new(config: TmnmConfig) -> Self {
        SpecTmnm {
            bits: config.bits,
            max: ((1u32 << config.counter_bits) - 1) as u8,
            tables: vec![vec![0; 1 << config.bits]; config.replication as usize],
        }
    }

    fn slot(&self, table: usize, block: u64) -> usize {
        ((block >> OFFSETS[table]) & ((1 << self.bits) - 1)) as usize
    }

    fn on_place(&mut self, block: u64) {
        for ti in 0..self.tables.len() {
            let s = self.slot(ti, block);
            let c = self.tables[ti][s];
            if c < self.max {
                self.tables[ti][s] = c + 1;
            }
        }
    }

    fn on_replace(&mut self, block: u64) {
        for ti in 0..self.tables.len() {
            let s = self.slot(ti, block);
            let c = self.tables[ti][s];
            if c > 0 && c < self.max {
                self.tables[ti][s] = c - 1;
            }
        }
    }

    fn is_definite_miss(&self, block: u64) -> bool {
        (0..self.tables.len()).any(|ti| self.tables[ti][self.slot(ti, block)] == 0)
    }

    fn flip_bit(&mut self, bit: u64, counter_bits: u32) {
        let per_table = (1u64 << self.bits) * u64::from(counter_bits);
        let table = (bit / per_table) as usize;
        let within = bit % per_table;
        let slot = (within / u64::from(counter_bits)) as usize;
        self.tables[table][slot] ^= 1 << (within % u64::from(counter_bits));
    }
}

#[test]
fn tmnm_zero_bitset_matches_a_naive_counter_scan() {
    for (case, &(bits, repl, cw)) in
        [(5u32, 1u32, 3u32), (8, 2, 2), (12, 3, 3), (6, 3, 1)].iter().enumerate()
    {
        let config = TmnmConfig::with_counter_bits(bits, repl, cw);
        let mut real = TmnmFilter::new(config, 1);
        let mut spec = SpecTmnm::new(config);
        let mut gen = Gen(0x7AB1_0001 + case as u64);
        for step in 0..2_500u64 {
            let r = gen.next();
            let block = gen.next() % 0x2_0000;
            match r % 8 {
                0..=3 => {
                    real.place(0, block, 0);
                    spec.on_place(block);
                }
                4..=5 => {
                    real.replace(0, block, 0);
                    spec.on_replace(block);
                }
                6 => {
                    let bit = gen.next() % real.lane_state_bits();
                    assert!(real.flip_lane_bit(0, bit));
                    spec.flip_bit(bit, cw);
                }
                _ => {
                    real.flush_lanes();
                    spec.tables.iter_mut().for_each(|t| t.fill(0));
                }
            }
            for probe in [block, gen.next() % 0x2_0000, gen.next() % 0x40] {
                assert_eq!(
                    real.miss_lanes(probe, 1) != 0,
                    spec.is_definite_miss(probe),
                    "TMNM_{bits}x{repl}c{cw}: verdicts diverged for {probe:#x} at step {step}"
                );
            }
        }
    }
}

/// The Bloom filter's hash mixer, copied verbatim: the constants are part
/// of the on-disk verdict contract (golden experiment results depend on
/// them), so a change to the implementation's mixer must fail here.
fn spec_mix(block: u64, which: u32) -> u64 {
    let mut z = block.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(which) + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Spec Bloom: one flat counter array, k sequential updates per event
/// (same-slot collisions increment twice, exactly like the real filter).
struct SpecBloom {
    k: u32,
    mask: u64,
    max: u8,
    counters: Vec<u8>,
}

impl SpecBloom {
    fn new(config: BloomConfig) -> Self {
        SpecBloom {
            k: config.hashes,
            mask: (1u64 << config.bits) - 1,
            max: ((1u32 << config.counter_bits) - 1) as u8,
            counters: vec![0; 1 << config.bits],
        }
    }

    fn on_place(&mut self, block: u64) {
        for which in 0..self.k {
            let s = (spec_mix(block, which) & self.mask) as usize;
            if self.counters[s] < self.max {
                self.counters[s] += 1;
            }
        }
    }

    fn on_replace(&mut self, block: u64) {
        for which in 0..self.k {
            let s = (spec_mix(block, which) & self.mask) as usize;
            let c = self.counters[s];
            if c > 0 && c < self.max {
                self.counters[s] = c - 1;
            }
        }
    }

    fn is_definite_miss(&self, block: u64) -> bool {
        (0..self.k).any(|which| self.counters[(spec_mix(block, which) & self.mask) as usize] == 0)
    }
}

#[test]
fn bloom_zero_bitset_and_mixer_match_the_naive_model() {
    for (case, &(bits, k)) in [(5u32, 2u32), (10, 3), (12, 4), (3, 8)].iter().enumerate() {
        let config = BloomConfig::new(bits, k);
        let mut real = BloomFilter::new(config, 1);
        let mut spec = SpecBloom::new(config);
        let mut gen = Gen(0xB100_0001 + case as u64);
        for step in 0..2_500u64 {
            let r = gen.next();
            let block = gen.next() % 0x2_0000;
            match r % 8 {
                0..=3 => {
                    real.place(0, block, 0);
                    spec.on_place(block);
                }
                4..=5 => {
                    real.replace(0, block, 0);
                    spec.on_replace(block);
                }
                6 => {
                    let bit = gen.next() % real.lane_state_bits();
                    assert!(real.flip_lane_bit(0, bit));
                    let slot = (bit / 3) as usize;
                    spec.counters[slot] ^= 1 << (bit % 3);
                }
                _ => {
                    real.flush_lanes();
                    spec.counters.fill(0);
                }
            }
            for probe in [block, gen.next() % 0x2_0000, gen.next() % 0x100] {
                assert_eq!(
                    real.miss_lanes(probe, 1) != 0,
                    spec.is_definite_miss(probe),
                    "BLOOM_{bits}x{k}: verdicts diverged for {probe:#x} at step {step}"
                );
            }
        }
    }
}

/// One RMNM entry of the spec model: the full block address, the per-slot
/// miss bits, and the clock of its last replacement.
#[derive(Clone, Copy)]
struct SpecEntry {
    block: u64,
    bits: u64,
    stamp: u64,
}

/// Spec RMNM (paper §3.1): each set a list of ways, `None` when empty,
/// searched by comparing full block addresses; a new entry takes the
/// first empty way, else the least recently replaced one.
struct SpecRmnm {
    sets: u64,
    ways: Vec<Vec<Option<SpecEntry>>>,
    clock: u64,
}

impl SpecRmnm {
    fn new(config: RmnmConfig) -> Self {
        let sets = config.blocks / config.assoc;
        SpecRmnm {
            sets: u64::from(sets),
            ways: vec![vec![None; config.assoc as usize]; sets as usize],
            clock: 0,
        }
    }

    fn set(&mut self, block: u64) -> &mut Vec<Option<SpecEntry>> {
        &mut self.ways[(block % self.sets) as usize]
    }

    fn on_replace(&mut self, slot: usize, block: u64) {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set(block);
        if let Some(e) = set.iter_mut().flatten().find(|e| e.block == block) {
            e.bits |= 1 << slot;
            e.stamp = clock;
            return;
        }
        let way = set.iter().position(Option::is_none).unwrap_or_else(|| {
            let oldest = set.iter().flatten().map(|e| e.stamp).min().unwrap();
            set.iter().position(|e| e.unwrap().stamp == oldest).unwrap()
        });
        set[way] = Some(SpecEntry { block, bits: 1 << slot, stamp: clock });
    }

    fn on_place(&mut self, slot: usize, block: u64) {
        if let Some(e) = self.set(block).iter_mut().flatten().find(|e| e.block == block) {
            e.bits &= !(1 << slot);
        }
    }

    fn miss_mask(&self, block: u64) -> u64 {
        let set = &self.ways[(block % self.sets) as usize];
        set.iter().flatten().find(|e| e.block == block).map_or(0, |e| e.bits)
    }

    fn flush(&mut self) {
        self.ways.iter_mut().for_each(|set| set.fill(None));
        self.clock = 0;
    }

    fn occupancy(&self) -> u64 {
        self.ways.iter().flatten().flatten().count() as u64
    }
}

/// The fingerprinted RMNM against the way-list model at every
/// associativity the paper uses and at 16 ways (two fingerprint words per
/// set). Each set's universe holds more blocks than ways, so entries are
/// evicted, and half of it are blocks whose fingerprint equals another
/// universe block's while their tags differ. Every block's miss mask and
/// the occupancy must agree after every operation; a different victim
/// shows as a lost or surviving mask, at once or on the block's next
/// replacement.
#[test]
fn rmnm_fingerprints_match_a_way_list_model() {
    const SLOTS: usize = 5;
    const SETS: u32 = 4;
    for (case, &assoc) in [1u32, 2, 4, 8, 16].iter().enumerate() {
        let config = RmnmConfig::new(SETS * assoc, assoc);
        let mut real = Rmnm::new(config, SLOTS);
        let mut spec = SpecRmnm::new(config);
        let mut gen = Gen(0x5A3E_0001 + case as u64);
        let mut universe = Vec::new();
        for set in 0..u64::from(SETS) {
            for _ in 0..assoc + 2 {
                // Tags up to bit 61, so high address bits are exercised.
                let block = (gen.next() >> 2) / u64::from(SETS) * u64::from(SETS) + set;
                let fp = real.fingerprint(block);
                let twin = (1..)
                    .map(|k| block.wrapping_add(k * u64::from(SETS)))
                    .find(|&b| real.fingerprint(b) == fp)
                    .unwrap();
                universe.extend([block, twin]);
            }
        }
        for step in 0..6_000u64 {
            let block = universe[(gen.next() % universe.len() as u64) as usize];
            let slot = (gen.next() % SLOTS as u64) as usize;
            let op = match gen.next() % 64 {
                0 => {
                    real.flush();
                    spec.flush();
                    "flush"
                }
                1..=28 => {
                    real.on_replace(slot, block);
                    spec.on_replace(slot, block);
                    "replace"
                }
                29..=38 => {
                    real.on_invalidate(slot, block);
                    spec.on_replace(slot, block);
                    "invalidate"
                }
                _ => {
                    real.on_place(slot, block);
                    spec.on_place(slot, block);
                    "place"
                }
            };
            let label = real.label();
            assert_eq!(
                real.occupancy().tracked,
                spec.occupancy(),
                "{label}: occupancy diverged after {op} {block:#x} at step {step}"
            );
            for &b in &universe {
                assert_eq!(
                    real.miss_mask(b),
                    spec.miss_mask(b),
                    "{label}: miss mask of {b:#x} diverged after {op} {block:#x} at step {step}"
                );
            }
        }
    }
}
