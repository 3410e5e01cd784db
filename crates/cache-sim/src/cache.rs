//! A single set-associative cache structure.

use crate::config::CacheConfig;
use crate::replacement::{oldest_way, ReplacementPolicy};

/// What [`Cache::access`] found, and on a miss where it put the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scan {
    /// The block was resident; `mru` says whether it sat in the set's most
    /// recently used way, i.e. whether an MRU way-predictor (Powell et
    /// al., cited in the paper's related work) would probe the right way
    /// first.
    Hit { mru: bool },
    /// The block was absent and now occupies `frame` (`set × assoc +
    /// way`), evicting `victim` from that frame if the set was full.
    Miss { frame: u32, victim: Option<Eviction> },
}

/// A block evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Byte address of the first byte of the evicted block.
    pub block_base: u64,
    /// Whether the block was dirty (needs a writeback under
    /// [`WritePolicy::WriteBack`](crate::config::WritePolicy)).
    pub dirty: bool,
    /// The frame (`set × assoc + way`) the block left.
    pub frame: u32,
}

/// What a [`Cache::fill`] did, resolved in a single set scan (callers
/// previously paired `contains` + `fill`, scanning the set twice per fill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FillOutcome {
    /// The block was already resident; its replacement stamp was refreshed
    /// and nothing was evicted.
    Already,
    /// The block was installed in `frame` (`set × assoc + way`), evicting
    /// `victim` from that frame if the set was full.
    Filled { frame: u32, victim: Option<Eviction> },
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

    /// Whether the block containing `addr` is resident. Never perturbs
    /// replacement state — safe for shadow/soundness checks.
    pub fn contains(&self, addr: u64) -> bool {
        let block = self.block_addr(addr);
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = set * self.assoc;
        self.tags[base..base + self.assoc].contains(&tag)
    }

    /// Look `addr` up and, on a miss, install it at once.
    ///
    /// One scan of the set finds the block and the set's newest stamp,
    /// which is the MRU way's: every resident block carries a distinct
    /// nonzero stamp, an empty way stamp 0. A hit refreshes the stamp
    /// under LRU. Only after a miss does a pass over the set's stamps
    /// pick the way to refill, and the block is installed there. Stamps,
    /// the clock and the random state advance exactly as a one-tick probe
    /// followed, on a miss, by [`Cache::fill`] would advance them.
    #[inline]
    pub(crate) fn access(&mut self, addr: u64) -> Scan {
        let block = self.block_addr(addr);
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        self.clock += 1;
        let base = set * self.assoc;
        let tags = &self.tags[base..base + self.assoc];
        let stamps = &self.stamps[base..base + self.assoc];

        let mut hit = None;
        let mut newest = 0;
        for (way, (&t, &stamp)) in tags.iter().zip(stamps).enumerate() {
            if t == tag {
                hit = Some(way);
            }
            newest = newest.max(stamp);
        }

        if let Some(way) = hit {
            let mru = stamps[way] == newest;
            if self.config.replacement.touches_on_hit() {
                self.stamps[base + way] = self.clock;
            }
            return Scan::Hit { mru };
        }
        self.clock += 1;
        let way = self.refill_way(base);
        let (frame, victim) = self.install(set, way, tag);
        Scan::Miss { frame, victim }
    }

    /// Install the block containing `addr`, evicting a victim if the set is
    /// full, and report the frame the block entered (the victim, if any,
    /// left that same frame). The set is scanned for the block, then its
    /// stamps for the way to refill, as after a miss in [`Cache::access`].
    ///
    /// Filling a block that is already resident refreshes its stamp and
    /// evicts nothing ([`FillOutcome::Already`]).
    pub(crate) fn fill(&mut self, addr: u64) -> FillOutcome {
        let block = self.block_addr(addr);
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        self.clock += 1;
        let base = set * self.assoc;

        if let Some(way) = self.tags[base..base + self.assoc].iter().position(|&t| t == tag) {
            // Already resident: refresh only.
            self.stamps[base + way] = self.clock;
            return FillOutcome::Already;
        }
        let way = self.refill_way(base);
        let (frame, victim) = self.install(set, way, tag);
        FillOutcome::Filled { frame, victim }
    }

    /// The way a miss in the set starting at `base` refills: the first way
    /// with the oldest stamp, which is the first empty way (stamp 0) if the
    /// set has one and otherwise the LRU/FIFO victim; a full set under
    /// `Random` draws its way instead.
    fn refill_way(&mut self, base: usize) -> usize {
        let stamps = &self.stamps[base..base + self.assoc];
        let oldest = oldest_way(stamps);
        if self.tags[base + oldest] == TAG_INVALID
            || self.config.replacement != ReplacementPolicy::Random
        {
            oldest
        } else {
            self.config.replacement.choose_victim(stamps, &mut self.rng_state)
        }
    }

    /// Put `tag` into `way` of `set` with a fresh stamp, returning the
    /// frame and the block it evicted, if the way held one.
    fn install(&mut self, set: usize, way: usize, tag: u64) -> (u32, Option<Eviction>) {
        let slot = set * self.assoc + way;
        let old_tag = std::mem::replace(&mut self.tags[slot], tag);
        let old_dirty = std::mem::replace(&mut self.dirty[slot], false);
        self.stamps[slot] = self.clock;
        let frame = slot as u32;
        let victim = (old_tag != TAG_INVALID).then(|| Eviction {
            block_base: ((old_tag << self.tag_shift) | set as u64) << self.block_shift,
            dirty: old_dirty,
            frame,
        });
        (frame, victim)
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

    /// Whether the block containing `addr` is resident and dirty.
    pub fn is_dirty(&self, addr: u64) -> bool {
        let block = self.block_addr(addr);
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = set * self.assoc;
        (0..self.assoc).any(|w| self.tags[base + w] == tag && self.dirty[base + w])
    }

    /// Remove the block containing `addr` if resident. Returns the removed
    /// block (base address, whether it was dirty and thus owes a writeback,
    /// and the frame it left) or `None` if the address was not resident. Used by the
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
                return Some(Eviction {
                    block_base: block << self.block_shift,
                    dirty: was_dirty,
                    frame: (base + way) as u32,
                });
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
        assert!(!c.contains(0x1000));
        assert_eq!(c.fill(0x1000), FillOutcome::Filled { frame: 0, victim: None });
        assert!(matches!(c.access(0x1000), Scan::Hit { .. }));
        assert!(c.contains(0x1000));
        assert!(c.contains(0x101F)); // same 32B block
        assert!(!c.contains(0x1020)); // next block
    }

    /// `access` answers the hit, the MRU test and the refill way: ways
    /// fill in order, a hit is MRU only when nothing newer sits in the
    /// set, and a miss takes the first empty way before any victim.
    #[test]
    fn access_reports_hit_mru_and_refill_way() {
        let mut c = small_cache(2, ReplacementPolicy::Lru);
        // 4 sets of 32B blocks: 0x0, 0x80, 0x100 and 0x180 share set 0.
        assert_eq!(c.access(0x000), Scan::Miss { frame: 0, victim: None });
        assert_eq!(c.access(0x080), Scan::Miss { frame: 1, victim: None });
        assert_eq!(c.access(0x000), Scan::Hit { mru: false });
        assert_eq!(c.access(0x000), Scan::Hit { mru: true });
        let evicted = Eviction { block_base: 0x080, dirty: false, frame: 1 };
        assert_eq!(c.access(0x100), Scan::Miss { frame: 1, victim: Some(evicted) });
        assert_eq!(c.invalidate(0x000).map(|e| e.frame), Some(0));
        assert_eq!(c.access(0x180), Scan::Miss { frame: 0, victim: None });
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache(2, ReplacementPolicy::Lru);
        // Set is selected by block bits; 4 sets of 32B blocks => stride 128
        // keeps us in the same set.
        c.fill(0x0000);
        c.fill(0x0080);
        // Touch 0x0000 so 0x0080 becomes LRU.
        assert!(matches!(c.access(0x0000), Scan::Hit { .. }));
        let FillOutcome::Filled { victim, .. } = c.fill(0x0100) else {
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
        // A hit does not refresh under FIFO.
        assert!(matches!(c.access(0x0000), Scan::Hit { .. }));
        let FillOutcome::Filled { victim, .. } = c.fill(0x0100) else {
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
        let FillOutcome::Filled { frame, victim: Some(victim) } = c.fill(0x240) else {
            panic!("expected a conflict eviction");
        };
        assert_eq!(victim.block_base, 0x40);
        assert_eq!((frame, victim.frame), (2, 2), "the new block takes the victim's frame");
        assert!(!victim.dirty, "never-written blocks evict clean");
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = small_cache(2, ReplacementPolicy::Lru);
        c.fill(0x1000);
        assert_eq!(
            c.invalidate(0x1008),
            Some(Eviction { block_base: 0x1000, dirty: false, frame: 0 })
        );
        assert!(!c.contains(0x1000));
        assert_eq!(c.invalidate(0x1000), None);
    }

    #[test]
    fn invalidate_reports_dirty_state() {
        let mut c = small_cache(2, ReplacementPolicy::Lru);
        c.fill(0x1000);
        assert!(c.mark_dirty(0x1000));
        assert_eq!(
            c.invalidate(0x1000),
            Some(Eviction { block_base: 0x1000, dirty: true, frame: 0 })
        );
        // The dirty bit must not leak into the way's next occupant.
        c.fill(0x1000);
        assert!(!c.is_dirty(0x1000));
    }

    /// Each fill reports `set × assoc + way`: the ways of a set fill in
    /// order, and an invalidation reports the frame the block left, which
    /// the next fill of that set reuses.
    #[test]
    fn fills_and_invalidations_report_frames() {
        let mut c = small_cache(2, ReplacementPolicy::Lru);
        // 4 sets of 32B blocks: 0x20 is set 1; 0xa0 and 0x120 share it.
        let frame = |o| match o {
            FillOutcome::Filled { frame, .. } => frame,
            FillOutcome::Already => panic!("block was resident"),
        };
        assert_eq!(frame(c.fill(0x20)), 2);
        assert_eq!(frame(c.fill(0xa0)), 3);
        assert_eq!(c.invalidate(0x20).map(|e| e.frame), Some(2));
        assert_eq!(frame(c.fill(0x120)), 2);
        assert_eq!(c.fill(0x120), FillOutcome::Already);
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
