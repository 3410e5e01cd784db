//! Table 1: the paper's worked RMNM example — a two-level hierarchy where
//! a block replaced from L2 is caught by the RMNM on its next access.
//!
//! Run with: `cargo run --release --example table1_rmnm_example`

use just_say_no::prelude::*;

fn main() {
    // A deliberately tiny two-level hierarchy so a handful of accesses
    // forces the L2 replacement the example revolves around.
    let mut hier = Hierarchy::new(HierarchyConfig {
        levels: vec![
            LevelConfig::Split {
                instr: CacheConfig::new("il1", 64, 1, 32, 1),
                data: CacheConfig::new("dl1", 64, 1, 32, 1),
            },
            LevelConfig::Unified(CacheConfig::new("ul2", 128, 1, 32, 4)),
        ],
        memory_latency: 50,
        inclusive: false,
    });
    let mut mnm = Mnm::new(&hier, MnmConfig::parse("RMNM_128_1").unwrap());
    let ul2 = hier.structures().iter().find(|s| s.name == "ul2").unwrap().id;

    println!("event                                   ul2 holds 0x2fc0?  RMNM flags ul2 miss?");
    let report = |hier: &Hierarchy, mnm: &mut Mnm, what: &str| {
        let flagged = mnm.query(Access::load(0x2fc0)).contains(ul2);
        println!("{:<40}{:<19}{}", what, hier.contains(ul2, 0x2fc0), flagged);
    };

    report(&hier, &mut mnm, "start");
    mnm.run_access(&mut hier, Access::load(0x2fc0));
    report(&hier, &mut mnm, "access 0x2fc0 (placed into L1+L2)");
    // 0x2fc0 maps to ul2 set (0x2fc0>>5)&3 = 2; 0x2f40 shares it.
    mnm.run_access(&mut hier, Access::load(0x2f40));
    report(&hier, &mut mnm, "access 0x2f40 (replaces 0x2fc0 in ul2)");
    let r = mnm.run_access(&mut hier, Access::load(0x2fc0));
    println!(
        "access 0x2fc0 again: ul2 bypassed = {} (the RMNM captured the miss)",
        r.bypassed >= 1
    );
    report(&hier, &mut mnm, "after the refill (placed back into L2)");
}
