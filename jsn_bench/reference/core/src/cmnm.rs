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
//! filter sound.

use std::collections::HashMap;

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
    live: HashMap<u64, u32>,
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
            live: HashMap::new(),
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
        self.live.insert(block, reg);
    }

    fn on_replace(&mut self, block: u64) {
        // Pair the decrement with the exact counter the placement used.
        let Some(reg) = self.live.remove(&block) else {
            return; // replacement of a block placed before a flush
        };
        let (_, low) = self.split(block);
        let idx = self.table_index(reg, low);
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
        let mut any_match = false;
        for (i, r) in self.regs.iter().enumerate() {
            if r.matches(high) {
                any_match = true;
                if self.counters[self.table_index(i as u32, low)] > 0 {
                    return false;
                }
            }
        }
        // No match at all, or all matching counters are zero.
        let _ = any_match;
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
        // The live map holds at most one entry per resident block of the
        // guarded structure. Reserving twice that keeps on_place free of
        // rehash allocations permanently, not just until the first wrap:
        // insert/remove churn accumulates tombstones until the map's
        // growth budget empties, and a table occupied to at most half its
        // reserved capacity is then rehashed in place instead of being
        // reallocated. (Sizing to exactly max_live_blocks allocated once
        // per run when a near-full structure churned long enough.)
        let target = 2 * max_live_blocks + 1;
        self.live.reserve(target.saturating_sub(self.live.capacity()));
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
            tracked: self.live.len() as u64,
            capacity: self.counters.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
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
