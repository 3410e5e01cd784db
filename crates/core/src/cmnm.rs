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
//! the register index is conceptually tagged onto the block when it is
//! filled (the paper already requires caches to report replaced block
//! addresses to the MNM, §2) — which keeps the counters exact and the
//! filter sound. The tags live in [`TagTable`], a flat open-addressed
//! table sized once from the guarded structure's capacity.

use crate::filter::MissFilter;

/// `CMNM_<registers>_<table_bits>` (e.g. `CMNM_8_12`): `registers` entries
/// in the virtual-tag finder, `2^table_bits` counters per register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmnmConfig {
    /// Number of virtual-tag registers (k). Must be a power of two.
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
    /// Panics if `registers` is not a power of two in 1..=256, or
    /// `table_bits` is 0 or ≥ 31.
    pub fn new(registers: u32, table_bits: u32) -> Self {
        assert!(
            registers.is_power_of_two() && (1..=256).contains(&registers),
            "register count must be a power of two in 1..=256"
        );
        assert!((1..31).contains(&table_bits), "table_bits must be 1..=30");
        CmnmConfig { registers, table_bits, addr_bits: 32, counter_bits: 3 }
    }

    /// The paper's label for this configuration.
    pub fn label(&self) -> String {
        format!("CMNM_{}_{}", self.registers, self.table_bits)
    }
}

#[derive(Debug, Clone, Copy)]
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

/// A per-structure Common-Address MNM filter.
#[derive(Debug, Clone)]
pub struct Cmnm {
    config: CmnmConfig,
    regs: Vec<Register>,
    counters: Vec<u8>,
    counter_max: u8,
    /// Register index each live block was counted under (the per-block tag
    /// described in the module docs). Keyed by MNM block address.
    live: TagTable,
    high_bits: u32,
    label: String,
}

impl Cmnm {
    /// Build an empty filter.
    pub fn new(config: CmnmConfig) -> Self {
        let table_len = (config.registers as usize) << config.table_bits;
        Cmnm {
            regs: vec![Register { value: 0, shift: 0, valid: false }; config.registers as usize],
            counters: vec![0; table_len],
            counter_max: ((1u32 << config.counter_bits) - 1) as u8,
            live: TagTable::new(),
            high_bits: config.addr_bits - config.table_bits,
            label: config.label(),
            config,
        }
    }

    /// This filter's configuration.
    pub fn config(&self) -> &CmnmConfig {
        &self.config
    }

    fn split(&self, block: u64) -> (u64, u64) {
        let low = block & ((1u64 << self.config.table_bits) - 1);
        let high = (block >> self.config.table_bits) & ((1u64 << self.high_bits) - 1);
        (high, low)
    }

    fn table_index(&self, reg: u32, low: u64) -> usize {
        ((reg as usize) << self.config.table_bits) | low as usize
    }

    /// First register matching `high` under its current mask.
    fn find_register(&self, high: u64) -> Option<u32> {
        self.regs.iter().position(|r| r.matches(high)).map(|i| i as u32)
    }

    /// Install coverage for `high`: reuse a matching register, fill an
    /// invalid one, or widen masks until a register matches (paper §3.4).
    /// Returns the register index.
    fn cover(&mut self, high: u64) -> u32 {
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
        for shift in 1..=self.high_bits {
            if let Some(i) = self.regs.iter().position(|r| r.matches_at(high, shift.max(r.shift))) {
                let s = shift.max(self.regs[i].shift);
                self.regs[i].shift = s;
                return i as u32;
            }
        }
        unreachable!("a full-width shift matches every valid register");
    }

    /// Counter value a block currently maps to, if any register matches
    /// (for tests/diagnostics).
    pub fn counter_for(&self, block: u64) -> Option<u8> {
        let (high, low) = self.split(block);
        self.find_register(high).map(|r| self.counters[self.table_index(r, low)])
    }
}

impl MissFilter for Cmnm {
    fn on_place(&mut self, block: u64) {
        let (high, low) = self.split(block);
        let reg = self.cover(high);
        let idx = self.table_index(reg, low);
        if self.counters[idx] < self.counter_max {
            self.counters[idx] += 1;
        }
        self.live.insert(block, reg as u8);
    }

    fn on_replace(&mut self, block: u64) {
        // Pair the decrement with the exact counter the placement used.
        let Some(reg) = self.live.remove(block) else {
            return; // replacement of a block placed before a flush
        };
        let (_, low) = self.split(block);
        let idx = self.table_index(u32::from(reg), low);
        let c = self.counters[idx];
        if c > 0 && c < self.counter_max {
            self.counters[idx] = c - 1;
        }
    }

    fn is_definite_miss(&self, block: u64) -> bool {
        let (high, low) = self.split(block);
        // Sound under widening: a live block always still matches the
        // register it was counted under, whose counter is then positive.
        // So "every matching register's counter is zero" implies absent;
        // "no register matches" likewise.
        for (i, r) in self.regs.iter().enumerate() {
            if r.matches(high) && self.counters[self.table_index(i as u32, low)] > 0 {
                return false;
            }
        }
        true
    }

    fn flush(&mut self) {
        for r in &mut self.regs {
            r.valid = false;
            r.shift = 0;
        }
        self.counters.fill(0);
        self.live.clear();
    }

    fn storage_bits(&self) -> u64 {
        let reg_bits = u64::from(self.config.registers)
            * (u64::from(self.high_bits)
                + u64::from(self.high_bits.next_power_of_two().trailing_zeros())
                + 1);
        let table_bits = (u64::from(self.config.registers) << self.config.table_bits)
            * u64::from(self.config.counter_bits);
        reg_bits + table_bits
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn reserve(&mut self, max_live_blocks: usize) {
        // The tag table holds at most one entry per resident block of the
        // guarded structure, so once sized here it never grows.
        self.live.reserve(max_live_blocks);
    }

    fn state_bits(&self) -> u64 {
        // Only the counter table is bit-addressable; the virtual-tag
        // registers and the per-block pairing map are modelled, not SRAM.
        self.counters.len() as u64 * u64::from(self.config.counter_bits)
    }

    fn flip_state_bit(&mut self, bit: u64) -> bool {
        let width = u64::from(self.config.counter_bits);
        let Some(counter) = self.counters.get_mut((bit / width) as usize) else {
            return false;
        };
        *counter ^= 1 << (bit % width);
        true
    }

    fn state_bit_of(&self, block: u64) -> Option<u64> {
        // The low bit of the counter the block maps to under the first
        // matching register (a resident block always still matches the
        // register it was counted under).
        let (high, low) = self.split(block);
        let reg = self.find_register(high)?;
        Some(self.table_index(reg, low) as u64 * u64::from(self.config.counter_bits))
    }

    fn occupancy(&self) -> crate::filter::FilterOccupancy {
        crate::filter::FilterOccupancy {
            tracked: self.live.len as u64,
            capacity: self.counters.len() as u64,
        }
    }
}

/// One slot of the [`TagTable`].
#[derive(Debug, Clone, Copy)]
struct Tag {
    block: u64,
    reg: u8,
    used: bool,
}

impl Tag {
    const EMPTY: Tag = Tag { block: 0, reg: 0, used: false };
}

/// The per-block register tags of the live blocks: MNM block address →
/// register index, the few tag bits per line the module docs describe.
///
/// Open addressing with linear probing over a power-of-two array of
/// 16-byte slots. A multiplicative (Fibonacci) hash of `block / GROUP`
/// picks a group of `GROUP` adjacent slots and the block's low bits its
/// home slot in it, so the sub-blocks of one cache line (four at the
/// paper's 128-byte outer lines and 32-byte MNM grain) share one 64-byte
/// stretch of the table: one cache event touches one place, not four.
/// Removal shifts the rest of the probe run back into the hole, so the
/// table keeps no tombstones. [`TagTable::reserve`] sizes it to at least
/// twice the guarded structure's block capacity, which keeps the load at
/// or below one half for good; only a table that was never reserved
/// grows, by doubling. Every `u64` is a valid key: an explicit `used`
/// flag, not a sentinel key, marks empty slots.
#[derive(Debug, Clone)]
struct TagTable {
    slots: Vec<Tag>,
    len: usize,
    /// `64 - log2(slots.len() / GROUP)`: the hash keeps the product's top
    /// bits, one group index.
    shift: u32,
}

impl TagTable {
    /// Slots per hash group: consecutive block addresses stay adjacent.
    const GROUP: u64 = 4;
    /// Smallest slot array a table allocates.
    const MIN_SLOTS: usize = 16;

    fn new() -> Self {
        TagTable { slots: Vec::new(), len: 0, shift: 64 }
    }

    /// Size the table for up to `max_live` entries at load ≤ ½.
    fn reserve(&mut self, max_live: usize) {
        let want = (2 * max_live).next_power_of_two().max(Self::MIN_SLOTS);
        if want > self.slots.len() {
            self.resize(want);
        }
    }

    /// The slot `block`'s probe run starts at: the multiplicative hash
    /// of `block / GROUP` picks a group, `block % GROUP` a slot in it.
    fn home(&self, block: u64) -> usize {
        let group = (block / Self::GROUP).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift;
        (group * Self::GROUP + block % Self::GROUP) as usize
    }

    /// The slot holding `block`, or `Err` with the empty slot that ends
    /// its probe run. The table must have slots.
    fn find(&self, block: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(block);
        loop {
            let t = &self.slots[i];
            if !t.used {
                return Err(i);
            }
            if t.block == block {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Tag `block` with `reg`, overwriting any previous tag.
    fn insert(&mut self, block: u64, reg: u8) {
        if self.slots.is_empty() {
            self.resize(Self::MIN_SLOTS);
        }
        match self.find(block) {
            Ok(i) => self.slots[i].reg = reg,
            Err(mut i) => {
                if 2 * (self.len + 1) > self.slots.len() {
                    self.resize(2 * self.slots.len());
                    i = self.find(block).unwrap_err();
                }
                self.slots[i] = Tag { block, reg, used: true };
                self.len += 1;
            }
        }
    }

    /// Remove `block`'s tag, returning it; `None` for an untagged block.
    fn remove(&mut self, block: u64) -> Option<u8> {
        if self.len == 0 {
            return None;
        }
        let mut hole = self.find(block).ok()?;
        let reg = self.slots[hole].reg;
        // Backward-shift deletion: walk the rest of the probe run and
        // move each entry whose home does not lie cyclically in
        // (hole, j] back into the hole.
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let t = self.slots[j];
            if !t.used {
                break;
            }
            let displacement = j.wrapping_sub(self.home(t.block)) & mask;
            if displacement >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = t;
                hole = j;
            }
        }
        self.slots[hole] = Tag::EMPTY;
        self.len -= 1;
        Some(reg)
    }

    /// Drop every tag, keeping the slot array.
    fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill(Tag::EMPTY);
            self.len = 0;
        }
    }

    /// Rehash into `slots` slots (a power of two, above twice `len`).
    fn resize(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two() && slots >= 2 * self.len);
        let old = std::mem::replace(&mut self.slots, vec![Tag::EMPTY; slots]);
        self.shift = 64 - (slots as u64 / Self::GROUP).trailing_zeros();
        for t in old.into_iter().filter(|t| t.used) {
            let Err(i) = self.find(t.block) else { unreachable!("keys are unique") };
            self.slots[i] = t;
        }
    }

    #[cfg(test)]
    fn get(&self, block: u64) -> Option<u8> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(block).ok().map(|i| self.slots[i].reg)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn cmnm(k: u32, m: u32) -> Cmnm {
        Cmnm::new(CmnmConfig::new(k, m))
    }

    #[test]
    fn unseen_region_is_definite_miss() {
        let mut f = cmnm(4, 10);
        f.on_place(0x0040_0001);
        assert!(!f.is_definite_miss(0x0040_0001));
        // Same region, different low bits: counter 0 => miss.
        assert!(f.is_definite_miss(0x0040_0002));
        // Entirely different region: no register matches => miss.
        assert!(f.is_definite_miss(0x0990_0001));
    }

    #[test]
    fn place_replace_round_trip() {
        let mut f = cmnm(2, 8);
        f.on_place(0x1234_5600 | 0x7f);
        assert!(!f.is_definite_miss(0x1234_5600 | 0x7f));
        f.on_replace(0x1234_5600 | 0x7f);
        assert!(f.is_definite_miss(0x1234_5600 | 0x7f));
    }

    #[test]
    fn widening_keeps_old_blocks_matching() {
        let mut f = cmnm(2, 4);
        // Fill both registers with far-apart regions.
        f.on_place(0x1000_0000);
        f.on_place(0x2000_0000);
        // A third region forces widening of some register.
        f.on_place(0x1000_1000);
        // The original blocks must still be recognized as maybe-hits.
        assert!(!f.is_definite_miss(0x1000_0000));
        assert!(!f.is_definite_miss(0x2000_0000));
        assert!(!f.is_definite_miss(0x1000_1000));
    }

    #[test]
    fn widened_replacement_decrements_the_right_counter() {
        let mut f = cmnm(2, 4);
        f.on_place(0x1000_0000); // reg 0
        f.on_place(0x2000_0000); // reg 1
        f.on_place(0x1000_1000); // widens a register (same low nibble as reg0's block!)
                                 // Replace the widened block; the original block must stay a
                                 // maybe-hit even though both share low bits.
        f.on_replace(0x1000_1000);
        assert!(!f.is_definite_miss(0x1000_0000), "sound pairing of place/replace");
        f.on_replace(0x1000_0000);
        assert!(f.is_definite_miss(0x1000_0000));
    }

    #[test]
    fn saturation_is_sticky() {
        let mut f = cmnm(1, 2);
        // 8+ blocks with the same low 2 bits in one region.
        for i in 0..10u64 {
            f.on_place(0x100 + (i << 2));
        }
        for i in 0..10u64 {
            f.on_replace(0x100 + (i << 2));
        }
        assert!(!f.is_definite_miss(0x100), "stuck counter stays conservative");
    }

    #[test]
    fn flush_forgets_everything() {
        let mut f = cmnm(4, 8);
        f.on_place(0xdead_be00);
        f.flush();
        assert!(f.is_definite_miss(0xdead_be00));
        // Replacement after a flush for a pre-flush block is ignored.
        f.on_replace(0xdead_be00);
        assert!(f.is_definite_miss(0xdead_be00));
    }

    #[test]
    fn storage_counts_registers_and_table() {
        let f = cmnm(8, 12);
        // Table: 8 * 4096 * 3 bits dominates.
        assert!(f.storage_bits() >= 8 * 4096 * 3);
        assert!(f.storage_bits() < 8 * 4096 * 3 + 8 * 64);
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

    /// Check `t` against `model`: same length, every model entry found
    /// with its register, no tombstones (used slots == len), load ≤ ½.
    fn assert_matches_model(t: &TagTable, model: &HashMap<u64, u8>, what: &str) {
        assert_eq!(t.len, model.len(), "{what}: len");
        assert_eq!(t.slots.iter().filter(|s| s.used).count(), t.len, "{what}: used slots");
        assert!(2 * t.len <= t.slots.len(), "{what}: load above one half");
        for (&k, &r) in model {
            assert_eq!(t.get(k), Some(r), "{what}: key {k:#x}");
        }
    }

    /// Seeded differential test of the tag table against `HashMap`:
    /// inserts of new keys and overwrites, removes of present and absent
    /// keys, clears, growth from empty and the extreme keys.
    #[test]
    fn tag_table_matches_a_hash_map_model() {
        use trace_synth::rng::splitmix64;
        for seed in 0..16u64 {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = move || {
                x = x.wrapping_add(1);
                splitmix64(x)
            };
            // Half the seeds start from a reserved table, half grow one.
            let mut t = TagTable::new();
            if seed % 2 == 0 {
                t.reserve(64);
            }
            let mut model = HashMap::new();
            // A small universe makes overwrites and present removes
            // common; a dense run exercises whole hash groups.
            let universe = 1 + next() % 300;
            let key = |r: u64| match r % 8 {
                0 => 0,
                1 => u64::MAX,
                2 => u64::MAX - r % 5,
                3 | 4 => 0x1000 + (r >> 8) % 16,
                _ => (r >> 8) % universe * 0x10_0001,
            };
            for step in 0..4_000 {
                let r = next();
                let k = key(next());
                match r % 16 {
                    0..=8 => {
                        let reg = (r >> 8) as u8;
                        t.insert(k, reg);
                        model.insert(k, reg);
                    }
                    9..=14 => assert_eq!(t.remove(k), model.remove(&k), "seed {seed} step {step}"),
                    _ if r % 512 == 15 => {
                        t.clear();
                        model.clear();
                    }
                    _ => assert_eq!(t.get(k), model.get(&k).copied()),
                }
                assert_eq!(t.len, model.len(), "seed {seed} step {step}");
                if step % 97 == 0 {
                    assert_matches_model(&t, &model, &format!("seed {seed} step {step}"));
                }
            }
            assert_matches_model(&t, &model, &format!("seed {seed} end"));
        }
    }

    #[test]
    fn tag_table_grows_only_when_never_reserved() {
        let mut grown = TagTable::new();
        let mut reserved = TagTable::new();
        reserved.reserve(1_000);
        let slots = reserved.slots.len();
        assert_eq!(slots, 2_048);
        let mut model = HashMap::new();
        for k in 0..1_000u64 {
            let key = k.wrapping_mul(0xD1B5_4A32_D192_ED03);
            grown.insert(key, k as u8);
            reserved.insert(key, k as u8);
            model.insert(key, k as u8);
        }
        assert_eq!(reserved.slots.len(), slots, "a reserved table never grows");
        assert_eq!(grown.slots.len(), 2_048, "doubling keeps the load at most one half");
        assert_matches_model(&grown, &model, "grown");
        assert_matches_model(&reserved, &model, "reserved");
        // Removing everything leaves empty slots behind, not tombstones.
        for &k in model.keys() {
            assert!(reserved.remove(k).is_some());
        }
        assert!(reserved.slots.iter().all(|s| !s.used));
    }

    /// Keys whose home slots sit at the end of the table share one probe
    /// run across the wrap-around to slot 0; removing them in every
    /// rotation of insertion order exercises backward-shift deletion
    /// across the wrap.
    #[test]
    fn backward_shift_deletion_across_the_wrap() {
        let mut probe = TagTable::new();
        probe.reserve(8); // 16 slots
        let last = probe.slots.len() - 1;
        let table = &probe;
        let homed = |slot: usize| (0..u64::MAX).filter(move |&k| table.home(k) == slot).take(3);
        // Three keys homed at the last slot wrap into slots 0 and 1; three
        // homed one slot earlier then sit behind them, displaced past the
        // wrap, so a removal must tell the two homes apart.
        let keys: Vec<u64> = homed(last).chain(homed(last - 1)).chain([0, u64::MAX]).collect();
        assert!(!keys[..6].contains(&0) && !keys[..6].contains(&u64::MAX));
        for rot in 0..keys.len() {
            let mut t = probe.clone();
            let mut model = HashMap::new();
            for (i, &k) in keys.iter().enumerate() {
                t.insert(k, i as u8);
                model.insert(k, i as u8);
            }
            assert!(t.slots[0].used && t.slots[1].used, "the run wraps past slot 0");
            for j in 0..keys.len() {
                let k = keys[(rot + j) % keys.len()];
                assert_eq!(t.remove(k), model.remove(&k));
                assert_eq!(t.remove(k), None, "a removed key is gone");
                assert_matches_model(&t, &model, &format!("rotation {rot}, removal {j}"));
            }
            assert_eq!(t.slots.len(), 16);
        }
    }

    #[test]
    fn tag_table_keeps_every_key_and_overwrites() {
        let mut t = TagTable::new();
        assert_eq!(t.remove(7), None, "removing from an empty table is a no-op");
        for (k, r) in [(0, 1), (u64::MAX, 2), (0, 3), (u64::MAX, 4)] {
            t.insert(k, r);
        }
        assert_eq!((t.len, t.get(0), t.get(u64::MAX)), (2, Some(3), Some(4)));
        t.clear();
        assert_eq!((t.len, t.get(0), t.remove(u64::MAX)), (0, None, None));
    }

    #[test]
    fn flipping_the_guarding_counter_bit_makes_a_live_block_lie() {
        let mut f = cmnm(4, 8);
        f.on_place(0x0040_0001);
        assert!(!f.is_definite_miss(0x0040_0001));
        let bit = f.state_bit_of(0x0040_0001).expect("resident block matches a register");
        assert!(f.flip_state_bit(bit));
        assert!(f.is_definite_miss(0x0040_0001), "counter 1 -> 0: the filter now lies");
        assert!(f.flip_state_bit(bit));
        assert!(!f.is_definite_miss(0x0040_0001));
        // A block no register covers has no guarding bit.
        assert_eq!(f.state_bit_of(0x7700_0000), None);
        assert!(!f.flip_state_bit(f.state_bits()));
    }
}
