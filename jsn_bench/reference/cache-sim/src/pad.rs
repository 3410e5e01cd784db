//! Cache-line padding for cross-thread state.
//!
//! Atomics and handoff cells that different host threads hammer
//! concurrently must not share a cache line: two logically independent
//! counters on one line force every update through the coherence
//! protocol's ownership dance (false sharing), turning relaxed atomic
//! increments into cross-core stalls. [`CachePadded`] aligns its
//! contents to 64 bytes — the line size of every x86-64 and most AArch64
//! parts — so each padded value owns its line outright.
//!
//! Measured effect: on a single-core dev host the wrapper is free (same
//! shard-bench throughput within run-to-run noise, as expected — there
//! is no second core to contend with); the serve registry and the shard
//! SPSC handoff cells wear it for the multi-core CI and production
//! hosts, where adjacent-atomic contention is the classic multiprocessor
//! cache-efficiency failure mode (cf. Hamada & Abdallah in PAPERS.md).

use std::ops::{Deref, DerefMut};

/// Pads and aligns `T` to 64 bytes so it occupies its own cache line.
///
/// `Deref`s to `T`, so `CachePadded<AtomicU64>` drops into existing
/// call sites (`counter.fetch_add(1, Relaxed)`) unchanged.
#[derive(Debug, Default, Clone)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwrap the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn padded_values_are_line_aligned_and_line_sized() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 64);
        assert!(std::mem::size_of::<CachePadded<AtomicU64>>() >= 64);
        // An array of padded cells puts every element on its own line.
        let cells: [CachePadded<AtomicUsize>; 2] =
            [CachePadded::new(AtomicUsize::new(0)), CachePadded::new(AtomicUsize::new(0))];
        let a = &*cells[0] as *const AtomicUsize as usize;
        let b = &*cells[1] as *const AtomicUsize as usize;
        assert!(b - a >= 64);
    }

    #[test]
    fn deref_passes_through() {
        let c = CachePadded::new(AtomicU64::new(41));
        c.fetch_add(1, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 42);
        assert_eq!(c.into_inner().into_inner(), 42);
    }
}
