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
    /// Expand this event into block addresses of granularity `granularity`
    /// bytes (the MNM's working block size), each paired with its frame
    /// slot. Yields `n = max(1, block_bytes / granularity)` shifted block
    /// addresses; the `i`-th sits in slot `frame × n + i` of an array with
    /// one entry per sub-block of every frame
    /// ([`CacheConfig::frame_slots`](crate::CacheConfig::frame_slots)
    /// long). The frame contract carries over: live sub-blocks hold
    /// distinct slots, and a removal reports the slots its placement did.
    pub fn sub_blocks(&self, granularity: u64) -> impl Iterator<Item = (u64, usize)> {
        debug_assert!(granularity.is_power_of_two());
        let count = (self.block_bytes / granularity).max(1);
        let first = self.block_base >> granularity.trailing_zeros();
        let first_slot = self.frame as usize * count as usize;
        (0..count).map(move |i| (first + i, first_slot + i as usize))
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
    }

    #[test]
    fn the_frame_fits_in_the_event_padding() {
        assert_eq!(std::mem::size_of::<CacheEvent>(), 32);
    }
}
