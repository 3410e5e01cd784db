//! Cross-crate end-to-end tests: workload → hierarchy → MNM → OoO core →
//! energy model, checking the orderings the paper's evaluation relies on.

use just_say_no::mnm_experiments::runner::access;
use just_say_no::prelude::*;

const N: u64 = 40_000;

fn run_cycles(label: &str) -> (u64, Option<f64>) {
    let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
    let mut filter = FilterPreset::parse(label).unwrap().build(&hier);
    let cpu = CpuConfig::paper_eight_way();
    let profile = profiles::by_name("300.twolf").unwrap();
    let s = simulate(&cpu, &mut hier, &mut filter, Program::new(profile), N);
    (s.cycles, filter.mnm().map(|m| m.stats().coverage()))
}

#[test]
fn figure15_ordering_holds_end_to_end() {
    let (base, _) = run_cycles("baseline");
    let (hmnm4, cov4) = run_cycles("HMNM4");
    let (hmnm1, _) = run_cycles("HMNM1");
    let (perfect, _) = run_cycles("perfect");

    assert!(hmnm4 <= base, "a parallel MNM never slows execution");
    assert!(hmnm1 <= base);
    assert!(perfect <= hmnm4, "the oracle bounds every real technique");
    assert!(cov4.unwrap() > 0.0);
}

#[test]
fn simulation_is_deterministic() {
    let a = run_cycles("HMNM2");
    let b = run_cycles("HMNM2");
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

#[test]
fn serial_mnm_trades_latency_for_energy() {
    // Same technique, both placements: serial pays delay on L1 misses,
    // parallel pays more MNM query energy.
    let profile = profiles::by_name("175.vpr").unwrap();
    let model = EnergyModel::default();

    let mut results = Vec::new();
    for placement in [MnmPlacement::Parallel, MnmPlacement::Serial] {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut mnm =
            Mnm::new(&hier, MnmConfig::parse("TMNM_12x3").unwrap().with_placement(placement));
        let mut latency_sum = 0u64;
        let rule = FetchRule::Blocks { block_bytes: hier.config().fetch_block_bytes() };
        for r in RefStream::new(Program::new(profile.clone()), rule).phase(N) {
            let r = mnm.run_access(&mut hier, access(r));
            latency_sum += mnm.adjusted_latency(&r);
        }
        let l1_misses: u64 = hier
            .structures()
            .iter()
            .filter(|s| s.level == 1)
            .map(|s| hier.stats().structures[s.id.index()].misses)
            .sum();
        let energy = mnm_total_energy(&mnm, &model, l1_misses);
        results.push((latency_sum, energy.query_nj));
    }
    let (parallel, serial) = (results[0], results[1]);
    assert!(serial.0 > parallel.0, "serial placement adds delay: {serial:?} vs {parallel:?}");
    assert!(serial.1 < parallel.1, "serial placement queries less often");
}

#[test]
fn energy_accounting_covers_all_structures() {
    let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
    let profile = profiles::by_name("171.swim").unwrap();
    for r in RefStream::new(Program::new(profile), FetchRule::DataOnly).phase(20_000) {
        hier.access(access(r), &BypassSet::none());
    }
    let breakdown = account_hierarchy(&hier, &EnergyModel::default());
    assert_eq!(breakdown.structures.len(), 7);
    // The data path was exercised: dl1 energy positive, il1 untouched.
    let by_name = |n: &str| breakdown.structures.iter().find(|s| s.name == n).unwrap();
    assert!(by_name("dl1").probe_nj > 0.0);
    assert_eq!(by_name("il1").probe_nj, 0.0);
    assert!(breakdown.miss_fraction() > 0.0 && breakdown.miss_fraction() < 1.0);
}

#[test]
fn all_twenty_profiles_run_through_the_full_stack() {
    // Smoke coverage of every bundled profile through core + MNM.
    let cpu = CpuConfig::paper_eight_way();
    for profile in profiles::all() {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut mnm = ReplayFilter::from(Mnm::new(&hier, MnmConfig::hmnm(1)));
        let s = simulate(&cpu, &mut hier, &mut mnm, Program::new(profile.clone()), 5_000);
        assert_eq!(s.instructions, 5_000, "{}", profile.name);
        assert!(s.cycles > 0, "{}", profile.name);
    }
}

#[test]
fn mnm_delay_only_hurts_serial_placement() {
    let profile = profiles::by_name("164.gzip").unwrap();
    let cycles_with_delay = |placement: MnmPlacement, delay: u64| {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let cfg =
            MnmConfig::parse("TMNM_10x1").unwrap().with_placement(placement).with_delay(delay);
        let mut mnm = ReplayFilter::from(Mnm::new(&hier, cfg));
        let cpu = CpuConfig::paper_eight_way();
        simulate(&cpu, &mut hier, &mut mnm, Program::new(profile.clone()), 20_000).cycles
    };
    assert_eq!(
        cycles_with_delay(MnmPlacement::Parallel, 2),
        cycles_with_delay(MnmPlacement::Parallel, 8),
        "a parallel MNM hides its delay"
    );
    assert!(
        cycles_with_delay(MnmPlacement::Serial, 8) > cycles_with_delay(MnmPlacement::Serial, 1),
        "a serial MNM pays its delay on every L1 miss"
    );
}
