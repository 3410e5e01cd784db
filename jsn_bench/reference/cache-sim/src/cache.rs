//! A single set-associative cache structure.

use crate::config::CacheConfig;

/// Outcome of a lookup in one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LookupResult {
    pub hit: bool,
}

/// A block evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Byte address of the first byte of the evicted block.
    pub block_base: u64,
    /// Whether the block was dirty (needs a writeback under
    /// [`WritePolicy::WriteBack`](crate::config::WritePolicy)).
    pub dirty: bool,
}

/// What a [`Cache::fill`] did, resolved in a single set scan (callers
/// previously paired `contains` + `fill`, scanning the set twice per fill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FillOutcome {
    /// The block was already resident; its replacement stamp was refreshed
    /// and nothing was evicted.
    Already,
    /// The block was installed, evicting the contained victim if the set
    /// was full.
    Filled(Option<Eviction>),
}

/// A set-associative cache holding block tags only (trace-driven simulation
/// carries no data payloads).
///
/// All addresses handed to the cache are byte addresses; the cache derives
/// its own block/set/tag decomposition from its [`CacheConfig`].
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `tags[set * assoc + way]`; `TAG_INVALID` marks an empty way.
    tags: Vec<u64>,
    /// Policy stamps, same layout as `tags`.
    stamps: Vec<u64>,
    /// Dirty bits, same layout as `tags`.
    dirty: Vec<bool>,
    set_mask: u64,
    block_shift: u32,
    /// `set_mask.count_ones()`, cached so the per-access tag extraction
    /// does no popcount.
    tag_shift: u32,
    assoc: usize,
    clock: u64,
    rng_state: u64,
}

const TAG_INVALID: u64 = u64::MAX;

impl Cache {
    /// Build an empty cache from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: CacheConfig) -> Self {
        config.validate().expect("invalid cache configuration");
        let sets = config.num_sets() as usize;
        let assoc = config.assoc as usize;
        Cache {
            set_mask: config.num_sets() - 1,
            tag_shift: (config.num_sets() - 1).count_ones(),
            block_shift: config.block_shift(),
            tags: vec![TAG_INVALID; sets * assoc],
            stamps: vec![0; sets * assoc],
            dirty: vec![false; sets * assoc],
            assoc,
            clock: 0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
            config,
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Block address (byte address shifted by the block size) of `addr`.
    pub fn block_addr(&self, addr: u64) -> u64 {
        addr >> self.block_shift
    }

    /// Byte address of the first byte of the block containing `addr`.
    pub fn block_base(&self, addr: u64) -> u64 {
        addr & !(self.config.block_bytes - 1)
    }

    fn set_of(&self, block: u64) -> usize {
        (block & self.set_mask) as usize
    }

    fn tag_of(&self, block: u64) -> u64 {
        block >> self.tag_shift
    }

    /// Probe for `addr`. On a hit, refreshes the LRU stamp. Does **not**
    /// allocate on a miss; call [`Cache::fill`] for that.
    pub(crate) fn lookup(&mut self, addr: u64) -> LookupResult {
        let block = self.block_addr(addr);
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        self.clock += 1;
        let base = set * self.assoc;
        for way in 0..self.assoc {
            if self.tags[base + way] == tag {
                if self.config.replacement.touches_on_hit() {
                    self.stamps[base + way] = self.clock;
                }
                return LookupResult { hit: true };
            }
        }
        LookupResult { hit: false }
    }

    /// Whether the block containing `addr` is resident. Never perturbs
    /// replacement state — safe for shadow/soundness checks.
    pub fn contains(&self, addr: u64) -> bool {
        let block = self.block_addr(addr);
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = set * self.assoc;
        self.tags[base..base + self.assoc].contains(&tag)
    }

    /// Install the block containing `addr`, evicting a victim if the set is
    /// full. Resident blocks, empty ways and victims are resolved in one
    /// scan of the set.
    ///
    /// Filling a block that is already resident refreshes its stamp and
    /// evicts nothing ([`FillOutcome::Already`]).
    pub(crate) fn fill(&mut self, addr: u64) -> FillOutcome {
        let block = self.block_addr(addr);
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        self.clock += 1;
        let base = set * self.assoc;

        let mut empty_way = None;
        for way in 0..self.assoc {
            match self.tags[base + way] {
                t if t == tag => {
                    // Already resident: refresh only.
                    self.stamps[base + way] = self.clock;
                    return FillOutcome::Already;
                }
                TAG_INVALID if empty_way.is_none() => empty_way = Some(way),
                _ => {}
            }
        }

        if let Some(way) = empty_way {
            self.tags[base + way] = tag;
            self.stamps[base + way] = self.clock;
            self.dirty[base + way] = false;
            return FillOutcome::Filled(None);
        }

        // Evict.
        let victim_way = self
            .config
            .replacement
            .choose_victim(&self.stamps[base..base + self.assoc], &mut self.rng_state);
        let victim_tag = self.tags[base + victim_way];
        let victim_dirty = self.dirty[base + victim_way];
        self.tags[base + victim_way] = tag;
        self.stamps[base + victim_way] = self.clock;
        self.dirty[base + victim_way] = false;
        let victim_block = (victim_tag << self.tag_shift) | set as u64;
        FillOutcome::Filled(Some(Eviction {
            block_base: victim_block << self.block_shift,
            dirty: victim_dirty,
        }))
    }

    /// Mark the block containing `addr` dirty, if resident. Returns whether
    /// a block was marked. Used for write-back accounting; a non-resident
    /// address is a no-op.
    pub(crate) fn mark_dirty(&mut self, addr: u64) -> bool {
        let block = self.block_addr(addr);
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = set * self.assoc;
        for way in 0..self.assoc {
            if self.tags[base + way] == tag {
                self.dirty[base + way] = true;
                return true;
            }
        }
        false
    }

    /// Whether the block containing `addr` sits in the most-recently-used
    /// way of its set — i.e. whether an MRU way-predictor (Powell et al.,
    /// cited in the paper's related work) would probe the right way first.
    pub fn mru_way_correct(&self, addr: u64) -> bool {
        let block = self.block_addr(addr);
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = set * self.assoc;
        let mut mru = base;
        for way in base..base + self.assoc {
            if self.tags[way] != TAG_INVALID && self.stamps[way] > self.stamps[mru] {
                mru = way;
            }
        }
        self.tags[mru] == tag
    }

    /// Whether the block containing `addr` is resident and dirty.
    pub fn is_dirty(&self, addr: u64) -> bool {
        let block = self.block_addr(addr);
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = set * self.assoc;
        (0..self.assoc).any(|w| self.tags[base + w] == tag && self.dirty[base + w])
    }

    /// Remove the block containing `addr` if resident. Returns the removed
    /// block (base address plus whether it was dirty and thus owes a
    /// writeback) or `None` if the address was not resident. Used by the
    /// inclusive-hierarchy back-invalidation path and by external coherence
    /// traffic ([`Hierarchy::invalidate_block`](crate::Hierarchy::invalidate_block)).
    pub(crate) fn invalidate(&mut self, addr: u64) -> Option<Eviction> {
        let block = self.block_addr(addr);
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = set * self.assoc;
        for way in 0..self.assoc {
            if self.tags[base + way] == tag {
                let was_dirty = self.dirty[base + way];
                self.tags[base + way] = TAG_INVALID;
                self.stamps[base + way] = 0;
                self.dirty[base + way] = false;
                return Some(Eviction { block_base: block << self.block_shift, dirty: was_dirty });
            }
        }
        None
    }

    /// Drop every block (cache flush). Replacement state is reset too.
    pub fn flush(&mut self) {
        self.tags.fill(TAG_INVALID);
        self.stamps.fill(0);
        self.dirty.fill(false);
        self.clock = 0;
    }

    /// Number of resident blocks.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != TAG_INVALID).count()
    }

    /// Iterate over the byte base addresses of all resident blocks.
    pub fn resident_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags.iter().enumerate().filter_map(move |(i, &tag)| {
            if tag == TAG_INVALID {
                return None;
            }
            let set = (i / self.assoc) as u64;
            Some(((tag << self.tag_shift) | set) << self.block_shift)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::ReplacementPolicy;

    fn small_cache(assoc: u32, policy: ReplacementPolicy) -> Cache {
        // 4 sets x assoc ways x 32B blocks.
        let cfg =
            CacheConfig::new("t", 4 * u64::from(assoc) * 32, assoc, 32, 1).with_replacement(policy);
        Cache::new(cfg)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache(2, ReplacementPolicy::Lru);
        assert!(!c.lookup(0x1000).hit);
        assert_eq!(c.fill(0x1000), FillOutcome::Filled(None));
        assert!(c.lookup(0x1000).hit);
        assert!(c.contains(0x1000));
        assert!(c.contains(0x101F)); // same 32B block
        assert!(!c.contains(0x1020)); // next block
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache(2, ReplacementPolicy::Lru);
        // Set is selected by block bits; 4 sets of 32B blocks => stride 128
        // keeps us in the same set.
        c.fill(0x0000);
        c.fill(0x0080);
        // Touch 0x0000 so 0x0080 becomes LRU.
        assert!(c.lookup(0x0000).hit);
        let FillOutcome::Filled(victim) = c.fill(0x0100) else {
            panic!("0x0100 was not resident");
        };
        assert_eq!(victim.map(|v| v.block_base), Some(0x0080));
        assert!(c.contains(0x0000));
        assert!(!c.contains(0x0080));
        assert!(c.contains(0x0100));
    }

    #[test]
    fn fifo_evicts_first_filled_despite_touch() {
        let mut c = small_cache(2, ReplacementPolicy::Fifo);
        c.fill(0x0000);
        c.fill(0x0080);
        assert!(c.lookup(0x0000).hit); // does not refresh under FIFO
        let FillOutcome::Filled(victim) = c.fill(0x0100) else {
            panic!("0x0100 was not resident");
        };
        assert_eq!(victim.map(|v| v.block_base), Some(0x0000));
    }

    #[test]
    fn refill_of_resident_block_evicts_nothing() {
        let mut c = small_cache(2, ReplacementPolicy::Lru);
        c.fill(0x0000);
        c.fill(0x0080);
        assert_eq!(c.fill(0x0000), FillOutcome::Already);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn victim_address_reconstruction_round_trips() {
        let mut c = small_cache(1, ReplacementPolicy::Lru);
        // Direct-mapped, 4 sets: 0x40 and 0x240 share set 2.
        c.fill(0x40);
        let FillOutcome::Filled(Some(victim)) = c.fill(0x240) else {
            panic!("expected a conflict eviction");
        };
        assert_eq!(victim.block_base, 0x40);
        assert!(!victim.dirty, "never-written blocks evict clean");
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = small_cache(2, ReplacementPolicy::Lru);
        c.fill(0x1000);
        assert_eq!(c.invalidate(0x1008), Some(Eviction { block_base: 0x1000, dirty: false }));
        assert!(!c.contains(0x1000));
        assert_eq!(c.invalidate(0x1000), None);
    }

    #[test]
    fn invalidate_reports_dirty_state() {
        let mut c = small_cache(2, ReplacementPolicy::Lru);
        c.fill(0x1000);
        assert!(c.mark_dirty(0x1000));
        assert_eq!(c.invalidate(0x1000), Some(Eviction { block_base: 0x1000, dirty: true }));
        // The dirty bit must not leak into the way's next occupant.
        c.fill(0x1000);
        assert!(!c.is_dirty(0x1000));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small_cache(2, ReplacementPolicy::Lru);
        c.fill(0x0);
        c.fill(0x20);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(0x0));
    }

    #[test]
    fn resident_blocks_reports_bases() {
        let mut c = small_cache(2, ReplacementPolicy::Lru);
        c.fill(0x1008); // block base 0x1000
        c.fill(0x2030); // block base 0x2020? no: base = 0x2020 & !31 = 0x2020
        let mut blocks: Vec<_> = c.resident_blocks().collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0x1000, 0x2020]);
    }
}
