//! Tests for the §4.5 TLB-filtering extension: the filter's verdicts stay
//! sound against the real L2 TLB contents under arbitrary page streams,
//! and filtering never changes where translations come from. Deterministic
//! seeded sweeps (formerly proptest).

use cache_sim::{TlbConfig, TlbEvent, TwoLevelTlb};
use mnm_core::{MissFilter, TmnmConfig, TmnmFilter};

/// Minimal deterministic generator for test inputs (splitmix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pages(&mut self, max_len: u64) -> Vec<u64> {
        let n = 1 + self.next() % max_len;
        (0..n).map(|_| self.next() % 64).collect()
    }
}

fn tiny_tlb() -> TwoLevelTlb {
    TwoLevelTlb::new(TlbConfig::new("t1", 8, 2, 4096, 1), TlbConfig::new("t2", 32, 4, 4096, 3), 40)
}

/// Drive random page streams with the filter active; verify every
/// bypass against the actual L2 TLB before issuing it (the TLB's
/// debug_assert double-checks).
#[test]
fn tlb_filter_never_flags_resident_translations() {
    let mut gen = Gen(0x71B);
    for _ in 0..48 {
        let pages = gen.pages(500);
        let mut tlb = tiny_tlb();
        let mut filter = TmnmFilter::new(TmnmConfig::new(5, 1));
        let mut events: Vec<TlbEvent> = Vec::new();
        for &p in &pages {
            let addr = p * 4096 + 12;
            let bypass = filter.is_definite_miss(tlb.page_of(addr));
            if bypass {
                assert!(!tlb.l2_contains(addr), "filter flagged resident page {p}");
            }
            events.clear();
            tlb.translate(addr, bypass, &mut events);
            for ev in &events {
                match *ev {
                    TlbEvent::L2Placed { page, frame } => filter.on_place(page, frame as usize),
                    TlbEvent::L2Replaced { page, frame } => filter.on_replace(page, frame as usize),
                }
            }
        }
    }
}

/// Filtering is functionally invisible: the same stream produces the
/// same number of page walks and the same final L2 residency.
#[test]
fn tlb_filtering_never_changes_walk_count() {
    let mut gen = Gen(0x71B2);
    for _ in 0..48 {
        let pages = gen.pages(400);
        let mut plain = tiny_tlb();
        let mut filtered = tiny_tlb();
        let mut filter = TmnmFilter::new(TmnmConfig::new(5, 1));
        let mut ev = Vec::new();
        for &p in &pages {
            let addr = p * 4096;
            ev.clear();
            let a = plain.translate(addr, false, &mut ev);
            let bypass = filter.is_definite_miss(filtered.page_of(addr));
            ev.clear();
            let b = filtered.translate(addr, bypass, &mut ev);
            for e in &ev {
                match *e {
                    TlbEvent::L2Placed { page, frame } => filter.on_place(page, frame as usize),
                    TlbEvent::L2Replaced { page, frame } => filter.on_replace(page, frame as usize),
                }
            }
            assert_eq!(a.supply_level, b.supply_level);
            assert!(b.latency <= a.latency);
        }
        let (_, _, walks_a) = plain.stats();
        let (_, _, walks_b) = filtered.stats();
        assert_eq!(walks_a, walks_b);
        for &p in &pages {
            assert_eq!(plain.l2_contains(p * 4096), filtered.l2_contains(p * 4096));
        }
    }
}
