//! Replacement policies for set-associative caches.

/// Victim-selection policy applied within a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way (the paper's policy).
    Lru,
    /// Evict the way that was filled earliest, ignoring reuse.
    Fifo,
    /// Evict a pseudo-random way (deterministic xorshift sequence).
    Random,
}

impl ReplacementPolicy {
    /// Pick the victim way given per-way metadata.
    ///
    /// `stamps[w]` is the policy-maintained timestamp of way `w` (last use
    /// for LRU, fill time for FIFO, unused for Random). `rng_state` is a
    /// per-cache xorshift state advanced only by Random.
    pub(crate) fn choose_victim(self, stamps: &[u64], rng_state: &mut u64) -> usize {
        match self {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => oldest_way(stamps),
            ReplacementPolicy::Random => {
                // xorshift64*
                let mut x = *rng_state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *rng_state = x;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as usize % stamps.len()
            }
        }
    }

    /// Whether a hit refreshes the way's stamp (true only for LRU).
    pub(crate) fn touches_on_hit(self) -> bool {
        matches!(self, ReplacementPolicy::Lru)
    }
}

/// The first way holding the smallest stamp: the LRU/FIFO victim of a
/// full set, and the first empty way (stamp 0) of a set that has one.
pub(crate) fn oldest_way(stamps: &[u64]) -> usize {
    let mut victim = 0;
    let mut best = u64::MAX;
    for (w, &s) in stamps.iter().enumerate() {
        if s < best {
            best = s;
            victim = w;
        }
    }
    victim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_picks_oldest_stamp() {
        let mut rng = 1;
        let stamps = [5, 2, 9, 4];
        assert_eq!(ReplacementPolicy::Lru.choose_victim(&stamps, &mut rng), 1);
    }

    #[test]
    fn fifo_ignores_touch_semantics() {
        assert!(!ReplacementPolicy::Fifo.touches_on_hit());
        assert!(ReplacementPolicy::Lru.touches_on_hit());
        assert!(!ReplacementPolicy::Random.touches_on_hit());
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let mut rng1 = 42;
        let mut rng2 = 42;
        let stamps = [0u64; 8];
        let picks1: Vec<_> =
            (0..32).map(|_| ReplacementPolicy::Random.choose_victim(&stamps, &mut rng1)).collect();
        let picks2: Vec<_> =
            (0..32).map(|_| ReplacementPolicy::Random.choose_victim(&stamps, &mut rng2)).collect();
        assert_eq!(picks1, picks2);
        assert!(picks1.iter().all(|&w| w < 8));
        // Not all the same way.
        assert!(picks1.iter().any(|&w| w != picks1[0]));
    }
}
