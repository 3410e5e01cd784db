//! Using the library outside the paper's configuration: a custom 3-level
//! embedded-style hierarchy, a hand-picked per-level technique mix, and the
//! analytic model (paper Equations 1–2) cross-checked against simulation.
//!
//! Run with: `cargo run --release --example custom_hierarchy`

use just_say_no::mnm_experiments::runner::access;
use just_say_no::prelude::*;
use mnm_core::{Assignment, CmnmConfig, TechniqueConfig, TmnmConfig};
use mnm_experiments::analytic::{eq2_access_time, LevelModel};

fn main() {
    // A small embedded-style hierarchy: 8KB split L1, 64KB unified L2,
    // 1MB unified L3, slow flash-like backing store.
    let config = HierarchyConfig {
        levels: vec![
            LevelConfig::Split {
                instr: CacheConfig::new("il1", 8 * 1024, 2, 32, 1),
                data: CacheConfig::new("dl1", 8 * 1024, 2, 32, 1),
            },
            LevelConfig::Unified(CacheConfig::new("ul2", 64 * 1024, 4, 64, 6)),
            LevelConfig::Unified(CacheConfig::new("ul3", 1024 * 1024, 8, 128, 24)),
        ],
        memory_latency: 500,
        inclusive: false,
    };

    // A custom technique mix: cheap counter tables on L2, a common-address
    // filter on the big L3.
    let mnm_config = MnmConfig {
        name: "custom".to_owned(),
        assignments: vec![
            Assignment {
                levels: 2..=2,
                techniques: vec![TechniqueConfig::Tmnm(TmnmConfig::new(11, 2))],
            },
            Assignment {
                levels: 3..=3,
                techniques: vec![TechniqueConfig::Cmnm(CmnmConfig::new(4, 11))],
            },
        ],
        rmnm: Some(mnm_core::RmnmConfig::new(256, 2)),
        delay: 1,
        placement: MnmPlacement::Parallel,
    };

    let mut hier = Hierarchy::new(config.clone());
    let mut mnm = Mnm::new(&hier, mnm_config);

    // An equake-like mixed workload, its loads and stores only: Equation 2
    // below models the data path alone.
    let profile = profiles::by_name("183.equake").expect("bundled profile");
    for r in RefStream::new(Program::new(profile), FetchRule::DataOnly).phase(400_000) {
        mnm.run_access(&mut hier, access(r));
    }

    println!("custom 3-level hierarchy + custom MNM mix");
    println!("coverage: {:.1}%", mnm.stats().coverage() * 100.0);
    println!("mean data access time: {:.2} cycles", hier.stats().mean_access_time());

    // Cross-check with the paper's Equation 2 from the measured rates.
    let levels: Vec<LevelModel> = hier
        .path(AccessKind::Load)
        .iter()
        .map(|sid| {
            let st = hier.stats().structures[sid.index()];
            let cfg = hier.cache(*sid).config();
            let refs = (st.probes + st.bypasses) as f64;
            let misses = (st.misses + st.bypasses) as f64;
            LevelModel {
                hit_time: cfg.hit_latency as f64,
                miss_time: cfg.miss_latency as f64,
                miss_rate: if refs == 0.0 { 0.0 } else { misses / refs },
                unidentified: if misses == 0.0 { 1.0 } else { st.misses as f64 / misses },
            }
        })
        .collect();
    let predicted = eq2_access_time(&levels, config.memory_latency as f64);
    println!("Equation 2 prediction:  {predicted:.2} cycles (should match)");

    for (slot, (name, level)) in mnm.guarded_structures().into_iter().enumerate() {
        let st = mnm.stats().slots[slot];
        println!(
            "  {name} (L{level}): {:.1}% of its bypassable misses identified",
            st.coverage() * 100.0
        );
    }
}
