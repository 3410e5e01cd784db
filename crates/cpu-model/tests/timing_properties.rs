//! Tests of the timing model: monotonicity in resources and latencies,
//! bounds on cycle counts, and policy orderings. Deterministic seeded
//! sweeps (formerly proptest).

use cache_sim::{Hierarchy, HierarchyConfig};
use mnm_core::ReplayFilter;
use ooo_model::{simulate, CpuConfig, LoadSpeculation};
use trace_synth::rng::SplitMix64;
use trace_synth::{profiles, Instr, InstrKind, Program};

fn hier() -> Hierarchy {
    Hierarchy::new(HierarchyConfig::paper_five_level())
}

/// Random but structurally valid instruction traces.
fn trace(gen: &mut SplitMix64) -> Vec<Instr> {
    let n = 50 + gen.next_u64() % 550;
    (0..n)
        .map(|i| {
            let addr = (gen.next_u64() % 0x20000) as u32;
            let dep = (gen.next_u64() % 4) as u8;
            let flag = gen.next_u64().is_multiple_of(2);
            let pc = 0x40_0000 + 4 * ((i * 7) % 512);
            let kind = match gen.next_u64() % 4 {
                0 => InstrKind::Op { latency: 1 + (addr % 4) as u8 },
                1 => InstrKind::Load { addr: (0x1000_0000 + u64::from(addr)) & !7 },
                2 => InstrKind::Store { addr: (0x1000_0000 + u64::from(addr)) & !7 },
                _ => InstrKind::Branch { mispredicted: flag && i % 7 == 0 },
            };
            Instr { pc, kind, src1: dep, src2: 0 }
        })
        .collect()
}

/// Cycle counts are bounded below by the bandwidth limit and above by
/// fully-serial execution.
#[test]
fn cycles_within_structural_bounds() {
    // The generator is the canonical SplitMix64 stream: the reference
    // outputs for seed 0.
    let mut g = SplitMix64::new(0);
    assert_eq!([g.next_u64(), g.next_u64()], [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4]);
    let mut gen = SplitMix64::new(0xB0714D5);
    for _ in 0..24 {
        let t = trace(&mut gen);
        let cfg = CpuConfig::paper_eight_way();
        let n = t.len() as u64;
        let mut h = hier();
        let s = simulate(&cfg, &mut h, &mut ReplayFilter::Baseline, t.into_iter(), u64::MAX);
        assert_eq!(s.instructions, n);
        assert!(s.cycles >= n / u64::from(cfg.commit_width));
        // Generous serial upper bound: every instruction pays a full
        // memory round trip plus overheads.
        assert!(s.cycles <= (n + 10) * 600, "cycles {} for {} instrs", s.cycles, n);
    }
}

/// More resources never hurt: doubling widths/window/LSQ cannot
/// increase the cycle count on the same trace.
#[test]
fn resources_are_monotone() {
    let mut gen = SplitMix64::new(0x2E5);
    for _ in 0..24 {
        let t = trace(&mut gen);
        let small = CpuConfig {
            fetch_width: 2,
            issue_width: 2,
            commit_width: 2,
            window_size: 16,
            lsq_size: 8,
            dcache_ports: 1,
            mispredict_penalty: 8,
            load_speculation: LoadSpeculation::None,
        };
        let big = CpuConfig {
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            window_size: 32,
            lsq_size: 16,
            dcache_ports: 2,
            mispredict_penalty: 8,
            load_speculation: LoadSpeculation::None,
        };
        let mut h1 = hier();
        let a =
            simulate(&small, &mut h1, &mut ReplayFilter::Baseline, t.clone().into_iter(), u64::MAX);
        let mut h2 = hier();
        let b = simulate(&big, &mut h2, &mut ReplayFilter::Baseline, t.into_iter(), u64::MAX);
        assert!(b.cycles <= a.cycles, "big {} vs small {}", b.cycles, a.cycles);
    }
}

/// Memory policies are ordered: perfect <= baseline on the same trace
/// (the bypassed walk is never longer).
#[test]
fn perfect_policy_dominates_baseline() {
    let mut gen = SplitMix64::new(0xD0);
    for _ in 0..24 {
        let t = trace(&mut gen);
        let cfg = CpuConfig::paper_eight_way();
        let mut h1 = hier();
        let base =
            simulate(&cfg, &mut h1, &mut ReplayFilter::Baseline, t.clone().into_iter(), u64::MAX);
        let mut h2 = hier();
        let perfect = simulate(&cfg, &mut h2, &mut ReplayFilter::Perfect, t.into_iter(), u64::MAX);
        assert!(perfect.cycles <= base.cycles);
        assert_eq!(perfect.instructions, base.instructions);
        // Functional equivalence: same supply distribution.
        assert_eq!(h1.stats().supplies_by_level, h2.stats().supplies_by_level);
    }
}

/// The instruction budget is respected exactly.
#[test]
fn budget_truncates_exactly() {
    let mut gen = SplitMix64::new(0xB4D9E7);
    for _ in 0..24 {
        let t = trace(&mut gen);
        let budget = 1 + gen.next_u64() % 199;
        let cfg = CpuConfig::paper_eight_way();
        let mut h = hier();
        let n = t.len() as u64;
        let s = simulate(&cfg, &mut h, &mut ReplayFilter::Baseline, t.into_iter(), budget);
        assert_eq!(s.instructions, budget.min(n));
    }
}

/// Warm loads on a real profile: splitting a run into two simulate calls
/// continues cleanly (stats accumulate per phase, caches stay warm).
#[test]
fn phased_simulation_keeps_caches_warm() {
    let cfg = CpuConfig::paper_eight_way();
    let profile = profiles::by_name("164.gzip").unwrap();
    let mut h = hier();
    let mut program = Program::new(profile);
    let first = simulate(&cfg, &mut h, &mut ReplayFilter::Baseline, &mut program, 30_000);
    let warm_misses = h.stats().structures[1].misses;
    let second = simulate(&cfg, &mut h, &mut ReplayFilter::Baseline, &mut program, 30_000);
    let total_misses = h.stats().structures[1].misses;
    // The second phase misses less than the first did (warm caches).
    assert!(total_misses - warm_misses <= warm_misses);
    assert_eq!(first.instructions, 30_000);
    assert_eq!(second.instructions, 30_000);
}
