//! A two-level TLB substrate.
//!
//! The paper's §4.5 suggests using early miss determination "to reduce the
//! power consumption of other caching structures such as the TLBs". This
//! module provides the substrate for that extension experiment: a
//! two-level TLB (small fully-pipelined L1 TLB backed by a larger L2 TLB
//! and a slow page-table walk), structurally a cache hierarchy over page
//! numbers, emitting the same placement/replacement events the MNM
//! consumes.

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::replacement::ReplacementPolicy;

/// Geometry and timing of one TLB level.
#[derive(Debug, Clone, PartialEq)]
pub struct TlbConfig {
    /// Display name ("dtlb1", ...).
    pub name: String,
    /// Number of entries.
    pub entries: u32,
    /// Associativity.
    pub assoc: u32,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
    /// Cycles per lookup that hits.
    pub hit_latency: u64,
}

impl TlbConfig {
    /// Create a TLB level configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (zero/non-power-of-two entries or page
    /// size, associativity not dividing the entry count).
    pub fn new(name: &str, entries: u32, assoc: u32, page_bytes: u64, hit_latency: u64) -> Self {
        assert!(entries.is_power_of_two() && entries > 0, "entry count must be a power of two");
        assert!(assoc >= 1 && entries.is_multiple_of(assoc), "ways must divide entries");
        assert!(
            page_bytes.is_power_of_two() && page_bytes >= 512,
            "page size must be a power of two >= 512"
        );
        TlbConfig { name: name.to_owned(), entries, assoc, page_bytes, hit_latency }
    }

    fn as_cache_config(&self) -> CacheConfig {
        // A TLB is a cache whose "blocks" are pages: capacity =
        // entries * page_bytes, line = page.
        CacheConfig::new(
            &self.name,
            u64::from(self.entries) * self.page_bytes,
            self.assoc,
            self.page_bytes,
            self.hit_latency,
        )
        .with_replacement(ReplacementPolicy::Lru)
    }
}

/// Counters for one TLB level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbLevelStats {
    /// Lookups performed (bypassed lookups excluded).
    pub probes: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups skipped because a filter declared a sure miss.
    pub bypasses: u64,
}

/// What one translation cost and where it was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbAccessResult {
    /// 1 = L1 TLB, 2 = L2 TLB, 3 = page walk.
    pub supply_level: u8,
    /// Total translation latency in cycles.
    pub latency: u64,
    /// Whether the L2 lookup was skipped by the filter.
    pub l2_bypassed: bool,
}

/// An event visible to a TLB-guarding filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbEvent {
    /// A translation entered the L2 TLB (page number).
    L2Placed(u64),
    /// A translation left the L2 TLB (page number).
    L2Replaced(u64),
}

/// A two-level TLB with an optional miss filter in front of the L2.
#[derive(Debug, Clone)]
pub struct TwoLevelTlb {
    l1: Cache,
    l2: Cache,
    page_shift: u32,
    l1_latency: u64,
    l2_latency: u64,
    walk_latency: u64,
    l1_stats: TlbLevelStats,
    l2_stats: TlbLevelStats,
    walks: u64,
    latency_sum: u64,
    accesses: u64,
}

impl TwoLevelTlb {
    /// Build an empty two-level TLB. `walk_latency` is the page-table walk
    /// cost charged when both levels miss.
    pub fn new(l1: TlbConfig, l2: TlbConfig, walk_latency: u64) -> Self {
        assert_eq!(l1.page_bytes, l2.page_bytes, "both levels must share the page size");
        let page_shift = l1.page_bytes.trailing_zeros();
        TwoLevelTlb {
            l1_latency: l1.hit_latency,
            l2_latency: l2.hit_latency,
            l1: Cache::new(l1.as_cache_config()),
            l2: Cache::new(l2.as_cache_config()),
            page_shift,
            walk_latency,
            l1_stats: TlbLevelStats::default(),
            l2_stats: TlbLevelStats::default(),
            walks: 0,
            latency_sum: 0,
            accesses: 0,
        }
    }

    /// A typical 2003-era configuration: 64-entry fully-associative-ish L1
    /// (16-way here), 512-entry 4-way L2, 4 KB pages, 80-cycle walk.
    pub fn typical() -> Self {
        TwoLevelTlb::new(
            TlbConfig::new("tlb1", 64, 16, 4096, 1),
            TlbConfig::new("tlb2", 512, 4, 4096, 4),
            80,
        )
    }

    /// Page number of a byte address.
    pub fn page_of(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Whether the L2 TLB currently holds the translation for `addr`.
    /// Never perturbs replacement state (shadow checks).
    pub fn l2_contains(&self, addr: u64) -> bool {
        self.l2.contains(addr)
    }

    /// Translate `addr`. When `bypass_l2` is set the L2 lookup is skipped
    /// (the caller's filter guarantees — and debug builds check — that it
    /// would miss).
    ///
    /// Refills install the translation into both levels and report L2
    /// placement/replacement events through `events`.
    pub fn translate(
        &mut self,
        addr: u64,
        bypass_l2: bool,
        events: &mut Vec<TlbEvent>,
    ) -> TlbAccessResult {
        self.accesses += 1;
        let mut latency = self.l1_latency;
        self.l1_stats.probes += 1;
        if self.l1.lookup(addr).hit {
            self.l1_stats.hits += 1;
            self.latency_sum += latency;
            return TlbAccessResult { supply_level: 1, latency, l2_bypassed: false };
        }

        let mut supply = 3;
        let mut l2_bypassed = false;
        if bypass_l2 {
            debug_assert!(!self.l2.contains(addr), "unsound TLB bypass for {addr:#x}");
            self.l2_stats.bypasses += 1;
            l2_bypassed = true;
        } else {
            self.l2_stats.probes += 1;
            latency += self.l2_latency;
            if self.l2.lookup(addr).hit {
                self.l2_stats.hits += 1;
                supply = 2;
            }
        }

        if supply == 3 {
            latency += self.walk_latency;
            self.walks += 1;
            if let crate::cache::FillOutcome::Filled(Some(victim)) = self.l2.fill(addr) {
                events.push(TlbEvent::L2Replaced(victim.block_base >> self.page_shift));
            }
            events.push(TlbEvent::L2Placed(self.page_of(addr)));
        }
        // L1 refill (its events are not needed: filters guard only L2).
        self.l1.fill(addr);

        self.latency_sum += latency;
        TlbAccessResult { supply_level: supply, latency, l2_bypassed }
    }

    /// Per-level counters: (L1, L2, page walks).
    pub fn stats(&self) -> (TlbLevelStats, TlbLevelStats, u64) {
        (self.l1_stats, self.l2_stats, self.walks)
    }

    /// Mean translation latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.accesses as f64
        }
    }

    /// Total translations performed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TwoLevelTlb {
        TwoLevelTlb::new(
            TlbConfig::new("t1", 4, 2, 4096, 1),
            TlbConfig::new("t2", 16, 4, 4096, 3),
            50,
        )
    }

    #[test]
    fn cold_walk_then_l1_hit() {
        let mut tlb = tiny();
        let mut ev = Vec::new();
        let r = tlb.translate(0x1234_5678, false, &mut ev);
        assert_eq!(r.supply_level, 3);
        assert_eq!(r.latency, 1 + 3 + 50);
        assert!(matches!(ev.as_slice(), [TlbEvent::L2Placed(_)]));
        let r = tlb.translate(0x1234_5000, false, &mut ev);
        assert_eq!(r.supply_level, 1, "same page hits the L1 TLB");
        assert_eq!(r.latency, 1);
    }

    #[test]
    fn l2_catches_l1_capacity_victims() {
        let mut tlb = tiny();
        let mut ev = Vec::new();
        // Touch 5 distinct pages: the 4-entry L1 loses one, the 16-entry
        // L2 keeps all.
        for p in 0..5u64 {
            tlb.translate(p * 4096 * 5, false, &mut ev); // 5-page stride avoids L1 set bias? keep simple
        }
        // Re-touch the first page: at worst L2 supplies it.
        let r = tlb.translate(0, false, &mut ev);
        assert!(r.supply_level <= 2);
    }

    #[test]
    fn bypass_skips_l2_latency_and_probe() {
        let mut tlb = tiny();
        let mut ev = Vec::new();
        let r = tlb.translate(0xABC0_0000, true, &mut ev);
        assert_eq!(r.supply_level, 3);
        assert_eq!(r.latency, 1 + 50, "no L2 lookup latency");
        assert!(r.l2_bypassed);
        let (_, l2, walks) = tlb.stats();
        assert_eq!(l2.probes, 0);
        assert_eq!(l2.bypasses, 1);
        assert_eq!(walks, 1);
        // The refill still installed the translation in L2.
        assert!(tlb.l2_contains(0xABC0_0000));
    }

    #[test]
    #[should_panic(expected = "unsound TLB bypass")]
    #[cfg(debug_assertions)]
    fn unsound_tlb_bypass_is_caught() {
        let mut tlb = tiny();
        let mut ev = Vec::new();
        tlb.translate(0x5000_0000, false, &mut ev);
        // Flood the original page's L1 set (2 sets: even pages) with pages
        // that land in a *different* L2 set (4 sets: pages ≡ 2 mod 4), so
        // the translation leaves the L1 TLB but stays in the L2 TLB.
        for p in 0..4u64 {
            tlb.translate(0x5000_0000 + (p * 4 + 2) * 4096, false, &mut ev);
        }
        // 0x5000_0000 now misses L1 but lives in L2: bypassing is unsound.
        tlb.translate(0x5000_0000, true, &mut ev);
    }

    #[test]
    fn replacement_events_report_page_numbers() {
        let mut tlb = TwoLevelTlb::new(
            TlbConfig::new("t1", 2, 1, 4096, 1),
            TlbConfig::new("t2", 2, 1, 4096, 2),
            10,
        );
        let mut ev = Vec::new();
        tlb.translate(0, false, &mut ev);
        ev.clear();
        // Page 2 maps to the same direct-mapped L2 slot as page 0.
        tlb.translate(2 * 4096, false, &mut ev);
        assert!(ev.contains(&TlbEvent::L2Replaced(0)), "{ev:?}");
    }

    #[test]
    fn mean_latency_accumulates() {
        let mut tlb = tiny();
        let mut ev = Vec::new();
        tlb.translate(0, false, &mut ev);
        tlb.translate(0, false, &mut ev);
        assert!(tlb.mean_latency() > 1.0);
        assert_eq!(tlb.accesses(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        TlbConfig::new("x", 48, 4, 4096, 1);
    }
}
