//! The MNM's working block granularity.

/// The block granularity at which the MNM keys all of its structures.
///
/// The paper fixes this to the level-2 line size (§3.1): "They are shifted
/// according to the block size of the level 2 cache(s)". Addresses entering
/// any MNM structure are byte addresses shifted right by this granularity;
/// events from caches with larger lines expand into multiple MNM blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Granularity {
    shift: u32,
}

impl Granularity {
    /// Build from a power-of-two block size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or not a power of two.
    pub fn from_bytes(bytes: u64) -> Self {
        assert!(bytes > 0 && bytes.is_power_of_two(), "granularity must be a power of two");
        Granularity { shift: bytes.trailing_zeros() }
    }

    /// The block size in bytes.
    pub fn bytes(self) -> u64 {
        1 << self.shift
    }

    /// The right-shift applied to byte addresses.
    pub fn shift(self) -> u32 {
        self.shift
    }

    /// The MNM block address of byte address `addr`.
    pub fn block_of(self, addr: u64) -> u64 {
        addr >> self.shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_of_shifts_by_line_size() {
        let g = Granularity::from_bytes(32);
        assert_eq!(g.shift(), 5);
        assert_eq!(g.bytes(), 32);
        assert_eq!(g.block_of(0x2ff4), 0x2ff4 >> 5);
        assert_eq!(g.block_of(0x1f), 0);
        assert_eq!(g.block_of(0x20), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        Granularity::from_bytes(48);
    }
}
