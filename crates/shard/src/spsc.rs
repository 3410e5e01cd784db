//! Bounded single-producer/single-consumer handoff slots for the
//! pipelined epoch engine.
//!
//! Each simulated core owns exactly two of these rings: an **outbox**
//! (core → resolver) carrying the epoch's shared-level requests, and an
//! **inbox** (resolver → core) carrying one resolution round's results.
//! Both endpoints are single-threaded by construction — one core thread,
//! one resolver thread — so the ring needs no CAS loops: the producer
//! owns `tail`, the consumer owns `head`, and a pair of
//! acquire/release `AtomicUsize` sequence numbers publishes each slot,
//! and cores never contend on a shared lock.
//!
//! The sequence numbers and every slot are cache-line padded
//! ([`CachePadded`]): `head` is written by the consumer on every pop and
//! `tail` by the producer on every push, so sharing a line between them
//! (or with a payload slot) would ping-pong ownership on every handoff —
//! the textbook false-sharing penalty this module exists to avoid. On
//! the single-core dev host the padding is measurably free; on
//! multi-core hosts it keeps the two hot indices out of each other's
//! coherence traffic.
//!
//! Capacity is [`DEPTH`] messages. The pipeline is one epoch deep, which
//! bounds the in-flight count per direction at two (see the proof in the
//! module docs of [`sim`](crate::sim)); `DEPTH = 4` leaves headroom for
//! the stop message without ever blocking a correct schedule.
//!
//! Blocking strategy: a short spin (`hint::spin_loop`) followed by
//! `thread::yield_now`. The yield matters — identity tests run 8-core
//! simulations on single-core containers, where a pure spin would
//! livelock the scheduler.

use cache_sim::CachePadded;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Ring capacity. Must be a power of two ≥ the pipeline's maximum
/// in-flight count per direction (2 results + 1 stop message).
const DEPTH: usize = 4;

/// Spins before the wait loop starts yielding the host thread.
const SPINS_BEFORE_YIELD: u32 = 64;

/// A bounded SPSC ring of `T`, safe for exactly one producer thread and
/// one consumer thread.
pub(crate) struct SpscRing<T> {
    /// Next sequence number the consumer will pop. Written only by the
    /// consumer.
    head: CachePadded<AtomicUsize>,
    /// Next sequence number the producer will push. Written only by the
    /// producer.
    tail: CachePadded<AtomicUsize>,
    /// Payload cells, one line each so a slot write never invalidates the
    /// neighbouring slot the consumer may be reading.
    slots: [CachePadded<UnsafeCell<Option<T>>>; DEPTH],
}

// SAFETY: the ring hands each `T` from exactly one thread to exactly one
// other; the acquire/release pair on `tail`/`head` orders every slot
// write before the matching read. `T: Send` is all that is required.
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    pub(crate) fn new() -> Self {
        SpscRing {
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            slots: std::array::from_fn(|_| CachePadded::new(UnsafeCell::new(None))),
        }
    }

    /// Producer side: publish `value`, blocking (spin, then yield) while
    /// the ring is full. Must only ever be called from one thread.
    pub(crate) fn push(&self, value: T) {
        let tail = self.tail.load(Ordering::Relaxed);
        let mut spins = 0u32;
        while tail.wrapping_sub(self.head.load(Ordering::Acquire)) == DEPTH {
            wait(&mut spins);
        }
        // SAFETY: slots in [head, head+DEPTH) are owned by the producer
        // once `tail - head < DEPTH`; only this thread writes `tail`.
        unsafe {
            *self.slots[tail % DEPTH].get() = Some(value);
        }
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
    }

    /// Consumer side: take the next message, blocking (spin, then yield)
    /// while the ring is empty. Must only ever be called from one thread.
    pub(crate) fn pop(&self) -> T {
        let head = self.head.load(Ordering::Relaxed);
        let mut spins = 0u32;
        while self.tail.load(Ordering::Acquire) == head {
            wait(&mut spins);
        }
        // SAFETY: the release store of `tail` above made this slot's
        // contents visible; only this thread writes `head`.
        let value = unsafe { (*self.slots[head % DEPTH].get()).take() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        value.expect("SPSC slot published without a payload")
    }
}

#[inline]
fn wait(spins: &mut u32) {
    if *spins < SPINS_BEFORE_YIELD {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Every message arrives exactly once, in order, under real
    /// cross-thread contention (including full-ring backpressure).
    #[test]
    fn handoff_preserves_order_and_loses_nothing() {
        const N: usize = 10_000;
        let ring = Arc::new(SpscRing::<usize>::new());
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..N {
                    ring.push(i);
                }
            })
        };
        for i in 0..N {
            assert_eq!(ring.pop(), i);
        }
        producer.join().unwrap();
    }

    /// The ring never exceeds its depth: a producer pushing DEPTH + 1
    /// messages blocks until the consumer drains one.
    #[test]
    fn full_ring_applies_backpressure() {
        let ring = Arc::new(SpscRing::<u32>::new());
        for i in 0..DEPTH as u32 {
            ring.push(i);
        }
        let t = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                ring.push(99); // blocks until a pop frees a slot
                ring.tail.load(Ordering::Relaxed)
            })
        };
        assert_eq!(ring.pop(), 0);
        assert_eq!(t.join().unwrap(), DEPTH + 1);
        for i in 1..DEPTH as u32 {
            assert_eq!(ring.pop(), i);
        }
        assert_eq!(ring.pop(), 99);
    }
}
