//! Coverage-metric properties: monotonicity relations the paper's Figures
//! 10–14 rest on, verified on identical traces through the public API.

use just_say_no::mnm_experiments::runner::access;
use just_say_no::prelude::*;
use mnm_core::{Assignment, RmnmConfig, TechniqueConfig, TmnmConfig};

/// `n` instructions of `app` through the paper's hierarchy, fetches
/// included, as the figures run them.
fn run(config: MnmConfig, app: &str, n: u64) -> Mnm {
    let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
    let mut mnm = Mnm::new(&hier, config);
    let rule = FetchRule::Blocks { block_bytes: hier.config().fetch_block_bytes() };
    for r in RefStream::new(Program::new(profiles::by_name(app).unwrap()), rule).phase(n) {
        mnm.run_access(&mut hier, access(r));
    }
    mnm
}

fn run_coverage(config: MnmConfig, app: &str, n: u64) -> f64 {
    run(config, app, n).stats().coverage()
}

/// Adding a sound component to a fixed technique stack can only help:
/// TMNM+RMNM covers at least as much as the same TMNM alone.
#[test]
fn adding_rmnm_never_reduces_coverage() {
    for app in ["164.gzip", "181.mcf", "300.twolf"] {
        let tmnm_only = MnmConfig::parse("TMNM_11x2").unwrap();
        let mut with_rmnm = tmnm_only.clone();
        with_rmnm.rmnm = Some(RmnmConfig::new(2048, 4));
        let alone = run_coverage(tmnm_only, app, 40_000);
        let combined = run_coverage(with_rmnm, app, 40_000);
        assert!(combined >= alone - 1e-12, "{app}: TMNM+RMNM {combined} < TMNM {alone}");
    }
}

/// Stacking a second technique per level likewise only helps.
#[test]
fn stacked_techniques_dominate_single_ones() {
    for app in ["175.vpr", "188.ammp"] {
        let single = MnmConfig::parse("TMNM_10x1").unwrap();
        let mut stacked = single.clone();
        stacked.assignments = vec![Assignment {
            levels: 2..=u8::MAX,
            techniques: vec![
                TechniqueConfig::Tmnm(TmnmConfig::new(10, 1)),
                TechniqueConfig::Cmnm(mnm_core::CmnmConfig::new(4, 10)),
            ],
        }];
        let lone = run_coverage(single, app, 40_000);
        let both = run_coverage(stacked, app, 40_000);
        assert!(both >= lone - 1e-12, "{app}: stacked {both} < single {lone}");
    }
}

/// More TMNM index bits never hurt on the same trace (a strictly finer
/// partition of the address space).
#[test]
fn wider_tmnm_tables_dominate() {
    for app in ["197.parser", "183.equake"] {
        let narrow = run_coverage(MnmConfig::parse("TMNM_8x1").unwrap(), app, 40_000);
        let wide = run_coverage(MnmConfig::parse("TMNM_14x1").unwrap(), app, 40_000);
        assert!(wide >= narrow - 0.02, "{app}: wider table lost coverage: {wide} vs {narrow}");
    }
}

/// Coverage is a fraction.
#[test]
fn coverage_stays_in_unit_interval() {
    for label in ["RMNM_128_1", "SMNM_10x2", "TMNM_12x3", "CMNM_8_12", "HMNM4"] {
        let c = run_coverage(MnmConfig::parse(label).unwrap(), "256.bzip2", 30_000);
        assert!((0.0..=1.0).contains(&c), "{label}: {c}");
    }
}

/// Per-slot coverage decomposes the total: the aggregate equals the
/// weighted mean of per-structure coverages.
#[test]
fn per_slot_coverage_decomposition() {
    let mnm = run(MnmConfig::hmnm(3), "176.gcc", 60_000);
    let st = mnm.stats();
    let total: u64 = st.slots.iter().map(|s| s.bypassable_misses).sum();
    let identified: u64 = st.slots.iter().map(|s| s.identified_misses).sum();
    assert_eq!(st.bypassable_misses(), total);
    assert_eq!(st.identified_misses(), identified);
    assert!((st.coverage() - identified as f64 / total as f64).abs() < 1e-12);
    for s in &st.slots {
        assert!(s.identified_misses <= s.bypassable_misses);
    }
}
