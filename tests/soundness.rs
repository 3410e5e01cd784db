//! The paper's central correctness property (§3.6): an MNM **never**
//! incorrectly indicates a miss. Deterministic seeded sweeps (formerly
//! proptest) drive every technique with randomized traces over
//! aliasing-heavy address spaces, through the differential checker
//! (`mnm_check::check_ops`) and the public API.

use cache_sim::{ProbeOutcome, ReplayScratch};
use just_say_no::prelude::*;
use mnm_check::{check_ops, Op};
use trace_synth::rng::SplitMix64;

const CONFIGS: [&str; 10] = [
    "RMNM_128_1",
    "RMNM_512_2",
    "SMNM_10x2",
    "SMNM_13x2",
    "TMNM_10x1",
    "TMNM_12x3",
    "CMNM_2_9",
    "CMNM_8_12",
    "HMNM1",
    "HMNM4",
];

/// A random access within a tight (conflict-heavy) arena.
fn random_access(gen: &mut SplitMix64) -> Access {
    let addr = (gen.next_u64() % 0x8000) & !0x3;
    match gen.next_u64() % 3 {
        0 => Access::load(addr),
        1 => Access::store(addr),
        _ => Access::fetch(addr),
    }
}

/// Between 1 and `max_len` random accesses.
fn random_trace(gen: &mut SplitMix64, max_len: u64) -> Vec<Access> {
    let n = 1 + gen.next_u64() % max_len;
    (0..n).map(|_| random_access(gen)).collect()
}

fn tiny_hierarchy() -> Hierarchy {
    Hierarchy::new(HierarchyConfig {
        levels: vec![
            LevelConfig::Split {
                instr: CacheConfig::new("il1", 128, 1, 32, 1),
                data: CacheConfig::new("dl1", 128, 1, 32, 1),
            },
            LevelConfig::Split {
                instr: CacheConfig::new("il2", 512, 2, 32, 3),
                data: CacheConfig::new("dl2", 512, 2, 32, 3),
            },
            LevelConfig::Unified(CacheConfig::new("ul3", 2048, 2, 64, 9)),
        ],
        memory_latency: 60,
        inclusive: false,
    })
}

/// Every technique passes the differential checker on every random
/// trace: no flagged structure holds the block — in the hierarchy, the
/// reference model or the event ledger — and the event stream, stats
/// and residency reconcile.
#[test]
fn no_technique_ever_flags_a_resident_block() {
    // The generator is the canonical SplitMix64 stream: the reference
    // outputs for seed 0.
    let mut g = SplitMix64::new(0);
    assert_eq!([g.next_u64(), g.next_u64()], [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4]);
    let mut gen = SplitMix64::new(0x50124D);
    for case in 0..48u64 {
        let config = CONFIGS[(case % CONFIGS.len() as u64) as usize];
        let ops: Vec<Op> = random_trace(&mut gen, 600).into_iter().map(Op::Access).collect();
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse(config).unwrap());
        let (_, violation) = check_ops(&ops, &mut hier, &mut mnm);
        assert!(violation.is_none(), "{config}: {}", violation.unwrap());
    }
}

/// Bypassing never changes where data is found or what gets cached:
/// an MNM-guarded run supplies every access from the same level as an
/// unguarded run of the same trace. This is the "sound bypass sets are
/// functionally invisible" property: any sound `BypassSet` only removes
/// probes of structures that would have missed anyway.
#[test]
fn bypassing_is_functionally_invisible() {
    let mut gen = SplitMix64::new(0x14715);
    for case in 0..48u64 {
        let config = CONFIGS[(case % CONFIGS.len() as u64) as usize];
        let trace = random_trace(&mut gen, 400);
        let mut plain = tiny_hierarchy();
        let mut guarded = tiny_hierarchy();
        let mut mnm = Mnm::new(&guarded, MnmConfig::parse(config).unwrap());
        for &access in &trace {
            let a = plain.access(access, &BypassSet::none());
            let b = mnm.run_access(&mut guarded, access);
            assert_eq!(a.supply_level, b.supply_level, "divergence at {:#x}", access.addr);
            assert!(b.latency <= a.latency, "a bypass may only shorten the walk");
        }
        assert_eq!(plain.stats().supplies_by_level, guarded.stats().supplies_by_level);
    }
}

/// The perfect oracle is sound and complete: after bypassing, the only
/// probed misses left are L1 misses.
#[test]
fn perfect_oracle_is_exact() {
    let mut gen = SplitMix64::new(0x0124C1E);
    for _ in 0..48 {
        let trace = random_trace(&mut gen, 400);
        let mut hier = tiny_hierarchy();
        let mut scratch = ReplayScratch::new();
        for &access in &trace {
            let bypass = hier.dry_run_bypass(access);
            hier.access_with_events(access, &bypass, &mut scratch);
            let non_l1_misses = scratch
                .probes()
                .iter()
                .filter(|p| p.level > 1 && p.outcome == ProbeOutcome::Miss)
                .count();
            assert_eq!(non_l1_misses, 0, "perfect bypass left a probed miss");
        }
    }
}

/// Flushing both sides resets to a consistent (all-cold) state.
#[test]
fn flush_restores_consistency() {
    let mut gen = SplitMix64::new(0xF1054);
    for _ in 0..48 {
        let trace = random_trace(&mut gen, 200);
        let mut hier = tiny_hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::hmnm(2));
        for &access in &trace {
            mnm.run_access(&mut hier, Access::load(access.addr));
        }
        hier.flush();
        mnm.flush();
        // Every non-L1 level is flagged cold again, and the run stays sound.
        for &access in &trace {
            mnm.run_access(&mut hier, Access::load(access.addr));
        }
        assert_eq!(mnm.stats().accesses as usize, trace.len());
    }
}
