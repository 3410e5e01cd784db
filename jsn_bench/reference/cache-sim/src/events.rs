//! Placement/replacement event stream.
//!
//! The MNM's bookkeeping (paper §2) requires knowing, for every cache
//! structure, which blocks are placed into it and which blocks are replaced
//! from it. The hierarchy reports both through [`CacheEvent`]s attached to
//! each access.

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
}

impl CacheEvent {
    /// Expand this event into block addresses of granularity `granularity`
    /// bytes (the MNM's working block size). Yields
    /// `max(1, block_bytes / granularity)` shifted block addresses.
    pub fn sub_blocks(&self, granularity: u64) -> impl Iterator<Item = u64> + '_ {
        debug_assert!(granularity.is_power_of_two());
        let shift = granularity.trailing_zeros();
        let count = (self.block_bytes / granularity).max(1);
        let first = self.block_base >> shift;
        (0..count).map(move |i| first + i)
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
        };
        let subs: Vec<_> = ev.sub_blocks(32).collect();
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
        };
        let subs: Vec<_> = ev.sub_blocks(32).collect();
        assert_eq!(subs, vec![0x2fc0 >> 5]);
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
        };
        assert_eq!(ev.sub_blocks(32).count(), 1);
    }
}
