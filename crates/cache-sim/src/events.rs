//! Placement/replacement event stream.
//!
//! The MNM's bookkeeping (paper §2) requires knowing, for every cache
//! structure, which blocks are placed into it and which blocks are replaced
//! from it. The hierarchy reports both through [`CacheEvent`]s attached to
//! each access, each naming the frame the block entered or left.

use crate::hierarchy::StructureId;

/// What happened to a block in one structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The block was installed into the structure.
    Placed,
    /// The block was evicted from the structure by a fill (capacity or
    /// conflict replacement chosen by the replacement policy).
    Replaced,
    /// The block was removed from the structure by an invalidation:
    /// an inclusive back-invalidation from an outer level, or external
    /// coherence traffic (a remote core's store or a shared-level
    /// replacement). Like `Replaced`, the block is guaranteed to have
    /// actually been resident — invalidation events are only emitted for
    /// blocks the cache really removed, which is what keeps count-based
    /// filter updates sound.
    Invalidated,
}

impl EventKind {
    /// Whether this event removes a block from the structure
    /// (`Replaced` or `Invalidated`).
    pub fn removes(self) -> bool {
        matches!(self, EventKind::Replaced | EventKind::Invalidated)
    }
}

/// A block entering or leaving a cache structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEvent {
    /// The structure affected.
    pub structure: StructureId,
    /// Placement or replacement.
    pub kind: EventKind,
    /// Byte address of the first byte of the affected block.
    pub block_base: u64,
    /// Size of the affected block in bytes (the structure's line size).
    ///
    /// The MNM keys its state on the L2 block size; blocks from caches with
    /// larger lines expand to `block_bytes / l2_block_bytes` MNM entries
    /// (paper §3.1).
    pub block_bytes: u64,
    /// The frame the block entered (`Placed`) or left (`Replaced`,
    /// `Invalidated`): `set × assoc + way` in the structure, so always
    /// below its `sets × assoc`.
    ///
    /// The frame contract: at any moment every live block of a structure
    /// holds a distinct frame, and the event removing a block reports the
    /// frame its placement did. Per-line metadata (CMNM's register tag,
    /// paper §3.4) can therefore live in an array indexed by frame,
    /// exactly as it would sit beside the line's tag in hardware.
    pub frame: u32,
}

impl CacheEvent {
    /// This event's MNM blocks at granularity `granularity` bytes (the
    /// MNM's working block size) as one aligned [`BlockRun`]: the single
    /// definition of how a line expands (paper §3.1). The run holds
    /// `count = max(1, block_bytes / granularity)` consecutive blocks
    /// from `first = block_base / granularity`, and its `i`-th block sits
    /// in frame slot `frame × count + i` of an array with one entry per
    /// sub-block of every frame
    /// ([`CacheConfig::frame_slots`](crate::CacheConfig::frame_slots)
    /// long). The frame contract carries over: live sub-blocks hold
    /// distinct slots, and a removal reports the slots its placement did.
    #[inline]
    pub fn run(&self, granularity: u64) -> BlockRun {
        debug_assert!(granularity.is_power_of_two());
        let count = (self.block_bytes / granularity).max(1);
        // A line starts on a multiple of its own size, so `first` is a
        // multiple of `count`.
        let first = self.block_base >> granularity.trailing_zeros();
        debug_assert!(first.is_multiple_of(count), "{self:?} is not line-aligned");
        BlockRun { first, count: count as u32, first_slot: self.frame as usize * count as usize }
    }

    /// The blocks of [`CacheEvent::run`], each paired with its frame slot.
    pub fn sub_blocks(&self, granularity: u64) -> impl Iterator<Item = (u64, usize)> {
        self.run(granularity).blocks()
    }
}

/// An aligned run of consecutive MNM blocks that one cache line holds,
/// with the frame slot of each: the unit in which the MNM feeds a cache
/// event to its filters.
///
/// `count` is a power of two and `first` a multiple of it, so every block
/// of the run agrees with `first` on all address bits from
/// [`BlockRun::shift`] up: a hash or slice of those bits is the same for
/// the whole run. Block `first + i` sits in frame slot `first_slot + i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRun {
    first: u64,
    count: u32,
    first_slot: usize,
}

impl BlockRun {
    /// The run of `count` blocks from `first`, the first in frame slot
    /// `first_slot`.
    ///
    /// # Panics
    ///
    /// Panics unless `count` is a power of two and `first` a multiple of
    /// it.
    pub fn new(first: u64, count: u32, first_slot: usize) -> Self {
        assert!(count.is_power_of_two(), "a run of {count} blocks");
        assert!(first.is_multiple_of(u64::from(count)), "a run of {count} from {first:#x}");
        BlockRun { first, count, first_slot }
    }

    /// The run of the one block `block`, in frame slot `frame_slot`.
    #[inline]
    pub fn one(block: u64, frame_slot: usize) -> Self {
        BlockRun { first: block, count: 1, first_slot: frame_slot }
    }

    /// The first block.
    #[inline]
    pub fn first(self) -> u64 {
        self.first
    }

    /// Number of blocks: a power of two.
    #[inline]
    pub fn count(self) -> u32 {
        self.count
    }

    /// log2 of [`BlockRun::count`]: the low address bits in which the
    /// run's blocks differ.
    #[inline]
    pub fn shift(self) -> u32 {
        self.count.trailing_zeros()
    }

    /// Frame slot of the first block.
    #[inline]
    pub fn first_slot(self) -> usize {
        self.first_slot
    }

    /// Each block of the run in order, paired with its frame slot.
    #[inline]
    pub fn blocks(self) -> impl Iterator<Item = (u64, usize)> {
        (0..self.count).map(move |i| (self.first + u64::from(i), self.first_slot + i as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_blocks_expands_large_lines() {
        let ev = CacheEvent {
            structure: StructureId::new(4),
            kind: EventKind::Placed,
            block_base: 0x1000,
            block_bytes: 128,
            frame: 5,
        };
        let subs: Vec<_> = ev.sub_blocks(32).map(|(block, _)| block).collect();
        assert_eq!(
            subs,
            vec![0x1000 >> 5, (0x1000 >> 5) + 1, (0x1000 >> 5) + 2, (0x1000 >> 5) + 3]
        );
    }

    #[test]
    fn sub_blocks_identity_at_same_granularity() {
        let ev = CacheEvent {
            structure: StructureId::new(1),
            kind: EventKind::Replaced,
            block_base: 0x2fc0,
            block_bytes: 32,
            frame: 0,
        };
        let subs: Vec<_> = ev.sub_blocks(32).collect();
        assert_eq!(subs, vec![(0x2fc0 >> 5, 0)]);
    }

    #[test]
    fn sub_blocks_never_empty_for_small_lines() {
        // A hypothetical structure with lines smaller than the MNM grain
        // still produces one entry.
        let ev = CacheEvent {
            structure: StructureId::new(0),
            kind: EventKind::Placed,
            block_base: 0x40,
            block_bytes: 16,
            frame: 3,
        };
        assert_eq!(ev.sub_blocks(32).collect::<Vec<_>>(), vec![(0x40 >> 5, 3)]);
        let run = ev.run(32);
        assert_eq!((run.first(), run.count(), run.shift(), run.first_slot()), (0x40 >> 5, 1, 0, 3));
    }

    #[test]
    fn sub_blocks_number_every_sub_block_slot_of_a_frame() {
        let ev = CacheEvent {
            structure: StructureId::new(4),
            kind: EventKind::Replaced,
            block_base: 0x1000,
            block_bytes: 128,
            frame: 5,
        };
        let slots: Vec<_> = ev.sub_blocks(32).map(|(_, slot)| slot).collect();
        assert_eq!(slots, vec![20, 21, 22, 23]);
        // One run of four from slot `frame × 4`.
        assert_eq!(ev.run(32), BlockRun::new(0x1000 >> 5, 4, 5 * 4));
        assert_eq!(ev.run(32).shift(), 2);
    }

    #[test]
    fn a_2_kib_line_is_a_run_of_64() {
        let ev = CacheEvent {
            structure: StructureId::new(2),
            kind: EventKind::Placed,
            block_base: 0x3_0800,
            block_bytes: 2048,
            frame: 7,
        };
        let run = ev.run(32);
        assert_eq!((run.first(), run.count(), run.shift(), run.first_slot()), (0x1840, 64, 6, 448));
        let blocks: Vec<_> = ev.sub_blocks(32).collect();
        assert_eq!(blocks.len(), 64);
        assert_eq!((blocks[0], blocks[63]), ((0x1840, 448), (0x187f, 511)));
    }

    #[test]
    #[should_panic(expected = "a run of 4 from 0x82")]
    fn a_misaligned_run_is_rejected() {
        BlockRun::new(0x82, 4, 0);
    }

    #[test]
    #[should_panic(expected = "a run of 3 blocks")]
    fn a_run_is_a_power_of_two_long() {
        BlockRun::new(0x80, 3, 0);
    }

    #[test]
    fn the_frame_fits_in_the_event_padding() {
        assert_eq!(std::mem::size_of::<CacheEvent>(), 32);
    }
}
