//! Tests for the §4.5 TLB-filtering extension. The TLB is an ordinary
//! two-level `Hierarchy` over pages: the preset's latencies, refills and
//! events are those of a TLB, the filter's verdicts stay sound against
//! the real L2 TLB contents under arbitrary page streams, and filtering
//! never changes where translations come from. Deterministic seeded
//! sweeps (formerly proptest).

use cache_sim::{
    Access, AccessFilter, AccessKind, BypassSet, CacheConfig, CacheEvent, EventKind, Hierarchy,
    HierarchyConfig, LevelConfig, NoFilter, ProbeRecord, ReplayScratch, StructureId,
};
use mnm_core::{FilterPreset, ReplayFilter};
use trace_synth::rng::splitmix64;

const PAGE: u64 = 4096;

/// Deterministic test inputs: the SplitMix64 stream seeded with `.0`.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    fn pages(&mut self, max_len: u64) -> Vec<u64> {
        let n = 1 + self.next() % max_len;
        (0..n).map(|_| self.next() % 64).collect()
    }
}

/// An 8-entry 2-way L1 TLB over a 32-entry 4-way L2 TLB, 40-cycle walk.
fn tiny_tlb() -> Hierarchy {
    Hierarchy::new(HierarchyConfig {
        levels: vec![
            LevelConfig::Unified(CacheConfig::new("t1", 8 * PAGE, 2, PAGE, 1)),
            LevelConfig::Unified(CacheConfig::new("t2", 32 * PAGE, 4, PAGE, 3)),
        ],
        memory_latency: 40,
        inclusive: false,
    })
}

/// The L2 TLB: the second structure on the data path.
fn tlb2(tlb: &Hierarchy) -> StructureId {
    tlb.path(AccessKind::Load)[1]
}

/// Passes `filter`'s verdicts through after checking each against the
/// L2 TLB's contents, before the access acts on it.
struct Audited(ReplayFilter);

impl AccessFilter for Audited {
    fn query(&mut self, tlb: &Hierarchy, access: Access) -> BypassSet {
        let bypass = self.0.query(tlb, access);
        if bypass.contains(tlb2(tlb)) {
            let page = access.addr / PAGE;
            assert!(!tlb.contains(tlb2(tlb), access.addr), "filter flagged resident page {page}");
        }
        bypass
    }

    fn observe_events(&mut self, tlb: &Hierarchy, events: &[CacheEvent]) {
        self.0.observe_events(tlb, events);
    }

    fn note_probes(&mut self, access: Access, probes: &[ProbeRecord]) {
        self.0.note_probes(access, probes);
    }
}

/// A cold translation pays the L1 probe, the L2 probe and the walk; a
/// second touch of the page hits the L1 TLB.
#[test]
fn cold_walk_then_l1_hit() {
    let mut tlb = Hierarchy::new(HierarchyConfig::two_level_tlb());
    let cold = tlb.step(&mut NoFilter, Access::load(0x1234_5678));
    assert_eq!(cold.supply_level, tlb.memory_level());
    assert_eq!(cold.latency, 1 + 4 + 80);
    let warm = tlb.step(&mut NoFilter, Access::load(0x1234_5000));
    assert_eq!(warm.supply_level, 1, "same page hits the L1 TLB");
    assert_eq!(warm.latency, 1);
}

/// Seventeen pages of one 16-way L1 TLB set overflow it, while the
/// 512-entry L2 TLB keeps them all in distinct sets: the L1 victim
/// comes back from the L2 TLB, at L1 + L2 latency and with no walk.
#[test]
fn l2_catches_l1_capacity_victims() {
    let mut tlb = Hierarchy::new(HierarchyConfig::two_level_tlb());
    // The L1 TLB has 4 sets, so a 4-page stride stays in set 0.
    for p in 0..17u64 {
        tlb.step(&mut NoFilter, Access::load(p * 4 * PAGE));
    }
    let walks = tlb.stats().memory_supplies;
    let r = tlb.step(&mut NoFilter, Access::load(0));
    assert_eq!((r.supply_level, r.latency), (2, 1 + 4));
    assert_eq!(tlb.stats().memory_supplies, walks);
}

/// L2 TLB events name page-aligned blocks and frames below its 512
/// entries, and a replacement names the evicted page.
#[test]
fn l2_events_report_pages_and_frames() {
    let mut tlb = Hierarchy::new(HierarchyConfig::two_level_tlb());
    let l2 = tlb2(&tlb);
    let mut scratch = ReplayScratch::new();
    let mut gen = Gen(0x7EB2);
    let mut placed = 0;
    for _ in 0..4000 {
        let addr = (gen.next() % 2048) * PAGE + gen.next() % PAGE;
        tlb.access_with_events(Access::load(addr), &BypassSet::none(), &mut scratch);
        for e in scratch.events().iter().filter(|e| e.structure == l2) {
            assert_eq!((e.block_base % PAGE, e.block_bytes), (0, PAGE), "{e:?}");
            assert!(e.frame < 512, "{e:?}");
            placed += u64::from(e.kind == EventKind::Placed);
        }
    }
    assert!(placed > 512, "the stream overflowed the L2 TLB");

    // Pages 0, 128, 256, 384 and 512 share L2 TLB set 0 (128 sets of 4
    // ways); the fifth evicts page 0 from the frame it was placed in.
    let mut tlb = Hierarchy::new(HierarchyConfig::two_level_tlb());
    for p in [0u64, 128, 256, 384] {
        tlb.access_with_events(Access::load(p * PAGE), &BypassSet::none(), &mut scratch);
    }
    tlb.access_with_events(Access::load(512 * PAGE), &BypassSet::none(), &mut scratch);
    let replaced: Vec<_> = scratch
        .events()
        .iter()
        .filter(|e| e.structure == l2 && e.kind == EventKind::Replaced)
        .map(|e| (e.block_base, e.frame))
        .collect();
    assert_eq!(replaced, [(0, 0)]);
}

/// Drive random page streams with the filter active; verify every
/// bypass against the actual L2 TLB before the hierarchy acts on it (the
/// hierarchy's debug_assert double-checks).
#[test]
fn tlb_filter_never_flags_resident_translations() {
    // `Gen` is the canonical SplitMix64 stream: the reference outputs for
    // seed 0.
    let mut g = Gen(0);
    assert_eq!([g.next(), g.next()], [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4]);
    let mut gen = Gen(0x71B);
    let mut bypassed = 0;
    for _ in 0..48 {
        let pages = gen.pages(500);
        let mut tlb = tiny_tlb();
        let mut filter = Audited(FilterPreset::parse("TMNM_5x1").unwrap().build(&tlb));
        for &p in &pages {
            tlb.step(&mut filter, Access::load(p * PAGE + 12));
        }
        let st = tlb.stats().structures[tlb2(&tlb).index()];
        assert_eq!(st.unsound_bypasses, 0);
        bypassed += st.bypasses;
    }
    assert!(bypassed > 0, "the filter never skipped an L2 TLB lookup");
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
        let mut filter = FilterPreset::parse("TMNM_5x1").unwrap().build(&filtered);
        for &p in &pages {
            let addr = p * PAGE;
            let a = plain.step(&mut NoFilter, Access::load(addr));
            let b = filtered.step(&mut filter, Access::load(addr));
            assert_eq!(a.supply_level, b.supply_level);
            assert!(b.latency <= a.latency);
        }
        assert_eq!(plain.stats().memory_supplies, filtered.stats().memory_supplies);
        let (l2a, l2b) = (tlb2(&plain), tlb2(&filtered));
        for &p in &pages {
            assert_eq!(plain.contains(l2a, p * PAGE), filtered.contains(l2b, p * PAGE));
        }
    }
}
