//! Walk identity: seeded access streams through small hierarchies, with
//! every observable output of the walk folded into one digest per
//! configuration and compared against digests recorded from an earlier
//! implementation of the walk.
//!
//! The checker's reference model mirrors only LRU and FIFO non-inclusive
//! hierarchies, so Random replacement and inclusive back-invalidation
//! have no other bit-exact oracle at this level. A change to the walk
//! that alters any event (structure, kind, block base, line size, frame),
//! any probe record, any `AccessResult` or any `HierarchyStats` field
//! fails here, naming the configuration.
//!
//! The digests were recorded once and are fixed: a change that means to
//! alter the walk's behaviour must say so and record new ones.

use cache_sim::{
    Access, AccessResult, BypassSet, CacheConfig, CacheEvent, EventKind, Hierarchy,
    HierarchyConfig, HierarchyStats, LevelConfig, ProbeOutcome, ProbeRecord, ReplacementPolicy,
    ReplayScratch, StructureStats, WritePolicy,
};
use trace_synth::rng::{splitmix64, SplitMix64};

/// Accesses per configuration.
const ACCESSES: u64 = 6000;

/// An order-sensitive fold of 64-bit words.
struct Digest(u64);

impl Digest {
    fn add(&mut self, word: u64) {
        self.0 = splitmix64(self.0 ^ word);
    }

    fn event(&mut self, e: &CacheEvent) {
        let kind = match e.kind {
            EventKind::Placed => 1,
            EventKind::Replaced => 2,
            EventKind::Invalidated => 3,
        };
        self.add(e.structure.index() as u64);
        self.add(kind);
        self.add(e.block_base);
        self.add(e.block_bytes);
        self.add(u64::from(e.frame));
    }

    fn probe(&mut self, p: &ProbeRecord) {
        let outcome = match p.outcome {
            ProbeOutcome::Hit => 1,
            ProbeOutcome::Miss => 2,
            ProbeOutcome::Bypassed => 3,
        };
        self.add(p.structure.index() as u64);
        self.add(u64::from(p.level));
        self.add(outcome);
        self.add(p.latency);
    }

    fn result(&mut self, r: &AccessResult) {
        let AccessResult { supply_level, latency, misses, bypassed, probed_beyond_l1 } = *r;
        self.add(u64::from(supply_level));
        self.add(latency);
        self.add(u64::from(misses));
        self.add(u64::from(bypassed));
        self.add(u64::from(probed_beyond_l1));
    }

    fn stats(&mut self, s: &HierarchyStats) {
        let HierarchyStats {
            structures,
            accesses,
            instr_accesses,
            data_accesses,
            memory_supplies,
            total_latency,
            miss_latency,
            supplies_by_level,
        } = s;
        for st in structures {
            let StructureStats {
                probes,
                hits,
                misses,
                bypasses,
                unsound_bypasses,
                fills,
                evictions,
                invalidations,
                writebacks,
                mru_hits,
            } = *st;
            for w in [
                probes,
                hits,
                misses,
                bypasses,
                unsound_bypasses,
                fills,
                evictions,
                invalidations,
                writebacks,
                mru_hits,
            ] {
                self.add(w);
            }
        }
        for w in [
            *accesses,
            *instr_accesses,
            *data_accesses,
            *memory_supplies,
            *total_latency,
            *miss_latency,
        ] {
            self.add(w);
        }
        for &w in supplies_by_level {
            self.add(w);
        }
    }
}

/// Split 4-set L1s over 32-byte lines, an 8-set ul2 over 64-byte lines
/// and a 16-set ul3 over 128-byte lines, every structure `assoc`-way
/// under `policy`.
fn three_level(assoc: u32, policy: ReplacementPolicy, inclusive: bool) -> HierarchyConfig {
    let cfg = |name: &str, sets: u64, block: u64, latency: u64| {
        CacheConfig::new(name, sets * u64::from(assoc) * block, assoc, block, latency)
            .with_replacement(policy)
    };
    HierarchyConfig {
        levels: vec![
            LevelConfig::Split { instr: cfg("il1", 4, 32, 1), data: cfg("dl1", 4, 32, 1) },
            LevelConfig::Unified(cfg("ul2", 8, 64, 6)),
            LevelConfig::Unified(cfg("ul3", 16, 128, 15)),
        ],
        memory_latency: 90,
        inclusive,
    }
}

/// Stores through a write-through dl1 and a write-through ul2, absorbed
/// by the write-back ul3.
fn write_through_chain() -> HierarchyConfig {
    let mut cfg = three_level(2, ReplacementPolicy::Lru, false);
    let LevelConfig::Split { data, .. } = &mut cfg.levels[0] else { unreachable!() };
    data.write_policy = WritePolicy::WriteThrough;
    let LevelConfig::Unified(ul2) = &mut cfg.levels[1] else { unreachable!() };
    ul2.write_policy = WritePolicy::WriteThrough;
    cfg
}

/// One configuration of the walk under test.
struct Case {
    name: String,
    config: HierarchyConfig,
    /// The level number of the first configured level.
    base_level: u8,
    /// Addresses span `[0, span)`, half the accesses in its first eighth.
    span: u64,
}

impl Case {
    /// A full hierarchy whose largest structure holds 16 sets × `assoc`
    /// × 128 bytes; addresses span four times that.
    fn full(name: String, config: HierarchyConfig, assoc: u64) -> Self {
        Case { name, config, base_level: 1, span: 4 * 16 * 128 * assoc }
    }
}

/// Every configuration, in a fixed order.
fn configs() -> Vec<Case> {
    let mut out = Vec::new();
    for (pname, policy) in [
        ("lru", ReplacementPolicy::Lru),
        ("fifo", ReplacementPolicy::Fifo),
        ("random", ReplacementPolicy::Random),
    ] {
        for assoc in [1, 2, 4, 8] {
            for inclusive in [false, true] {
                let name = format!("{pname}-{assoc}way{}", if inclusive { "-incl" } else { "" });
                out.push(Case::full(name, three_level(assoc, policy, inclusive), u64::from(assoc)));
            }
        }
    }
    out.push(Case::full("write-through-chain".to_string(), write_through_chain(), 2));
    // The sharded simulator's shared L3: one unified level numbered 3, so
    // the first structure on every path is a guarded, bypassable one.
    out.push(Case {
        name: "shared-l3".to_string(),
        config: HierarchyConfig {
            levels: vec![LevelConfig::Unified(CacheConfig::new("ul3", 16 * 4 * 128, 4, 128, 15))],
            memory_latency: 90,
            inclusive: false,
        },
        base_level: 3,
        span: 4 * 16 * 4 * 128,
    });
    // Page-grained: 64 tlb1 entries and 512 tlb2 entries of 4 KiB pages.
    out.push(Case {
        name: "two-level-tlb".to_string(),
        config: HierarchyConfig::two_level_tlb(),
        base_level: 1,
        span: 4 * 512 * 4096,
    });
    out
}

/// How each access picks its bypass set.
#[derive(Clone, Copy)]
enum Bypass {
    /// Half the accesses bypass every structure `dry_run_bypass` proves
    /// absent, the other half probe everything.
    Sound,
    /// Every third access bypasses every level-2+ structure on its path,
    /// resident or not: the `unsound_bypasses` counter's path, which debug
    /// builds assert against, so only release builds run it.
    #[cfg_attr(debug_assertions, allow(dead_code))]
    Unsound,
}

/// Replay `ACCESSES` seeded fetches, loads and stores through `case`,
/// with an occasional external invalidation, and fold everything the walk
/// reports.
fn digest(case: &Case, seed: u64, bypass_mode: Bypass) -> u64 {
    let mut hier = Hierarchy::with_base_level(case.config.clone(), case.base_level);
    let mut scratch = ReplayScratch::new();
    let mut events = Vec::new();
    let mut d = Digest(seed);
    let span = case.span;
    // The stream steps its state before mixing: seeded with `seed + γ`.
    let mut rng = SplitMix64::new(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    for i in 0..ACCESSES {
        let r = rng.next_u64();
        let addr = if r & 1 == 0 { (r >> 8) % (span / 8) } else { (r >> 8) % span };
        let access = match (r >> 1) % 4 {
            0 => Access::fetch(addr),
            1 => Access::store(addr),
            _ => Access::load(addr),
        };
        let bypass = match bypass_mode {
            Bypass::Sound if (r >> 3) & 1 == 0 => hier.dry_run_bypass(access),
            Bypass::Sound => BypassSet::none(),
            Bypass::Unsound if i % 3 == 0 => hier
                .path(access.kind)
                .iter()
                .copied()
                .filter(|&sid| hier.structures()[sid.index()].level > 1)
                .collect(),
            Bypass::Unsound => BypassSet::none(),
        };
        let result = hier.access_with_events(access, &bypass, &mut scratch);
        d.result(&result);
        scratch.probes().iter().for_each(|p| d.probe(p));
        scratch.events().iter().for_each(|e| d.event(e));
        if (r >> 4).is_multiple_of(64) {
            events.clear();
            let removed = hier.invalidate_block((r >> 12) % span, &mut events);
            d.add(u64::from(removed));
            events.iter().for_each(|e| d.event(e));
        }
    }
    d.stats(hier.stats());
    d.0
}

fn check(expected: &[(&str, u64)], seed: u64, mode: Bypass) {
    let got: Vec<(String, u64)> =
        configs().into_iter().map(|case| (case.name.clone(), digest(&case, seed, mode))).collect();
    let table: String =
        got.iter().map(|(name, d)| format!("        (\"{name}\", {d:#018x}),\n")).collect();
    assert_eq!(got.len(), expected.len(), "configuration list changed; digests now:\n{table}");
    for ((name, d), (want_name, want)) in got.iter().zip(expected) {
        assert_eq!(name, want_name, "configuration order changed; digests now:\n{table}");
        assert_eq!(d, want, "walk output changed for {name}; digests now:\n{table}");
    }
}

/// Sound bypasses: the walk's outputs match the recorded digests in
/// every configuration.
#[test]
fn walk_matches_recorded_digests() {
    check(SOUND, 0x5A1E_0001, Bypass::Sound);
}

/// Unsound bypasses reach the refill of a structure that already holds
/// the block. Debug builds assert on that, so this runs in release
/// builds only, where `unsound_bypasses` counts it.
#[test]
#[cfg(not(debug_assertions))]
fn unsound_walk_matches_recorded_digests() {
    check(UNSOUND, 0x5A1E_0002, Bypass::Unsound);
}

const SOUND: &[(&str, u64)] = &[
    ("lru-1way", 0xc3df668950bd08b4),
    ("lru-1way-incl", 0x10288ce73e6a6801),
    ("lru-2way", 0x4e91cd70f1804b9d),
    ("lru-2way-incl", 0xfd59388f8974a202),
    ("lru-4way", 0x3410faf6a60dba18),
    ("lru-4way-incl", 0x4f3702f4aa7f3436),
    ("lru-8way", 0xb552a9a6ed81c321),
    ("lru-8way-incl", 0x59515fcf6a2b102b),
    ("fifo-1way", 0xc3df668950bd08b4),
    ("fifo-1way-incl", 0x10288ce73e6a6801),
    ("fifo-2way", 0x9ffe68c6e590d480),
    ("fifo-2way-incl", 0x60caaf111427f43a),
    ("fifo-4way", 0xa86a839fc142bc24),
    ("fifo-4way-incl", 0xe5fe4d9efeb6fd96),
    ("fifo-8way", 0x8245a32e035068e8),
    ("fifo-8way-incl", 0x1cc9e11318d15c79),
    ("random-1way", 0xc3df668950bd08b4),
    ("random-1way-incl", 0x10288ce73e6a6801),
    ("random-2way", 0x49ed6fc5797a04f3),
    ("random-2way-incl", 0xe8dd9552e036bca5),
    ("random-4way", 0xaa939eef44553d6d),
    ("random-4way-incl", 0x02d055f21af63496),
    ("random-8way", 0x6eeab9f7e9dcc93c),
    ("random-8way-incl", 0xe4f3c8318ffdf726),
    ("write-through-chain", 0x2452c51aba201970),
    ("shared-l3", 0xbb52bb230915462b),
    ("two-level-tlb", 0xef00cbacbaba3b19),
];

#[cfg(not(debug_assertions))]
const UNSOUND: &[(&str, u64)] = &[
    ("lru-1way", 0x476e89e44d41d1ac),
    ("lru-1way-incl", 0x2b8fc2d8a3a11ca1),
    ("lru-2way", 0x70d6424af2b921f3),
    ("lru-2way-incl", 0xd56ed417f5c99ed9),
    ("lru-4way", 0xe8730699c5b55467),
    ("lru-4way-incl", 0x7fae688ef45f66bf),
    ("lru-8way", 0xa83d546bd3d7f7d7),
    ("lru-8way-incl", 0x208ba1544cfd3590),
    ("fifo-1way", 0x476e89e44d41d1ac),
    ("fifo-1way-incl", 0x2b8fc2d8a3a11ca1),
    ("fifo-2way", 0x5817faa3d0f871cd),
    ("fifo-2way-incl", 0xfd2c496bf6596f81),
    ("fifo-4way", 0xf2fff332987a0a19),
    ("fifo-4way-incl", 0x27a4d08914aed888),
    ("fifo-8way", 0xc33d1fb14d228663),
    ("fifo-8way-incl", 0x3201782daebfbe6d),
    ("random-1way", 0x476e89e44d41d1ac),
    ("random-1way-incl", 0x2b8fc2d8a3a11ca1),
    ("random-2way", 0xc4aae8c2735d1f07),
    ("random-2way-incl", 0x0906883cbfb9021e),
    ("random-4way", 0x7f9cf82377a25e51),
    ("random-4way-incl", 0x95f236abe6f9a525),
    ("random-8way", 0xf20ec71e2ed2abd4),
    ("random-8way-incl", 0x99af49fc1fcdd9eb),
    ("write-through-chain", 0x6b451245c9221663),
    ("shared-l3", 0x3afff897118bb656),
    ("two-level-tlb", 0xc930af94f8dea34c),
];
