//! The checker on a TLB: a two-level hierarchy whose blocks are 4 KiB
//! pages, so the MNM keys its filters on page numbers. Every default
//! filter runs through `check_ops` on the `two_level_tlb` preset and on a
//! tiny TLB that small page sets thrash, under page-stride adversaries
//! and random page streams of loads and stores with occasional
//! full-system flushes.

use cache_sim::{Access, AccessKind, CacheConfig, Hierarchy, HierarchyConfig, LevelConfig};
use mnm_check::{check_ops, Op, DEFAULT_FILTERS};
use mnm_core::FilterPreset;
use trace_synth::Prng;

const PAGE: u64 = 4096;

/// An 8-entry 2-way L1 TLB over a 32-entry 4-way L2 TLB.
fn tiny_tlb() -> HierarchyConfig {
    HierarchyConfig {
        levels: vec![
            LevelConfig::Unified(CacheConfig::new("t1", 8 * PAGE, 2, PAGE, 1)),
            LevelConfig::Unified(CacheConfig::new("t2", 32 * PAGE, 4, PAGE, 3)),
        ],
        memory_latency: 40,
        inclusive: false,
    }
}

/// `len` ops over `hier`'s pages. A strided stream cycles, in phases of
/// 64 ops, a ring of pages a stride apart (one page, or either TLB's set
/// count, so a ring can pile into one set); a random stream picks pages
/// from twice the L2 TLB's reach. Offsets within the page are random, a
/// quarter of the accesses are stores, and one op in 512 flushes the
/// system.
fn page_stream(hier: &Hierarchy, strided: bool, seed: u64, len: usize) -> Vec<Op> {
    let [l1, l2] = [0, 1].map(|i| hier.cache(hier.path(AccessKind::Load)[i]).config().clone());
    let strides = [1, l1.num_sets(), l2.num_sets(), l2.num_sets() + 1];
    let arena = 2 * l2.num_blocks();
    let mut rng = Prng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(len);
    let (mut stride, mut ring, mut base) = (1, 1, 0);
    for i in 0..len as u64 {
        if i % 64 == 0 {
            stride = strides[rng.gen_range(0..4) as usize];
            ring = rng.gen_range_inclusive(2..=2 * u64::from(l1.assoc.max(l2.assoc)) + 1);
            base = rng.gen_range(0..arena);
        }
        if rng.gen_range(0..512) == 0 {
            ops.push(Op::Flush);
            continue;
        }
        let page = if strided { base + (i % ring) * stride } else { rng.gen_range(0..arena) };
        let addr = page * PAGE + rng.gen_range(0..PAGE);
        let access =
            if rng.gen_range(0..4) == 0 { Access::store(addr) } else { Access::load(addr) };
        ops.push(Op::Access(access));
    }
    ops
}

#[test]
fn every_filter_is_sound_on_tlb_geometries() {
    let mut tmnm_flags = 0;
    for config in [HierarchyConfig::two_level_tlb(), tiny_tlb()] {
        assert_eq!(Hierarchy::new(config.clone()).mnm_granularity(), PAGE);
        for filter in DEFAULT_FILTERS {
            let preset = FilterPreset::parse(filter).unwrap();
            for strided in [true, false] {
                for seed in 0..6 {
                    let mut hier = Hierarchy::new(config.clone());
                    let ops = page_stream(&hier, strided, seed, 3000);
                    let mut f = preset.build(&hier);
                    let (counters, violation) = check_ops(&ops, &mut hier, &mut f);
                    let name = &config.levels[1].configs()[0].name;
                    assert!(
                        violation.is_none(),
                        "{filter} on {name}, strided {strided}, seed {seed}: {violation:?}"
                    );
                    assert!(counters.accesses > 0 && counters.flushes > 0);
                    if filter.starts_with("TMNM") {
                        tmnm_flags += counters.flags;
                    }
                }
            }
        }
    }
    assert!(tmnm_flags > 0, "no TMNM scenario bypassed an L2 TLB lookup");
}
