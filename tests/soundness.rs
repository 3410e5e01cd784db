//! The paper's central correctness property (§3.6): an MNM **never**
//! incorrectly indicates a miss. Deterministic seeded sweeps (formerly
//! proptest) drive every technique with randomized traces over
//! aliasing-heavy address spaces, through the differential checker
//! (`mnm_check::check_ops`) and the public API.

use cache_sim::{ProbeOutcome, ReplayScratch};
use just_say_no::prelude::*;
use mnm_check::{check_ops, Op};
use trace_synth::rng::splitmix64;

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

/// Deterministic test inputs: the SplitMix64 stream seeded with `.0`.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// A random access within a tight (conflict-heavy) arena.
    fn access(&mut self) -> Access {
        let addr = (self.next() % 0x8000) & !0x3;
        match self.next() % 3 {
            0 => Access::load(addr),
            1 => Access::store(addr),
            _ => Access::fetch(addr),
        }
    }

    fn trace(&mut self, max_len: u64) -> Vec<Access> {
        let n = 1 + self.next() % max_len;
        (0..n).map(|_| self.access()).collect()
    }
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
    // `Gen` is the canonical SplitMix64 stream: the reference outputs for
    // seed 0.
    let mut g = Gen(0);
    assert_eq!([g.next(), g.next()], [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4]);
    let mut gen = Gen(0x50124D);
    for case in 0..48u64 {
        let config = CONFIGS[(case % CONFIGS.len() as u64) as usize];
        let ops: Vec<Op> = gen.trace(600).into_iter().map(Op::Access).collect();
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
    let mut gen = Gen(0x14715);
    for case in 0..48u64 {
        let config = CONFIGS[(case % CONFIGS.len() as u64) as usize];
        let trace = gen.trace(400);
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
    let mut gen = Gen(0x0124C1E);
    for _ in 0..48 {
        let trace = gen.trace(400);
        let mut hier = tiny_hierarchy();
        let mut scratch = ReplayScratch::new();
        for &access in &trace {
            let bypass = perfect_bypass(&hier, access);
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
    let mut gen = Gen(0xF1054);
    for _ in 0..48 {
        let trace = gen.trace(200);
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
