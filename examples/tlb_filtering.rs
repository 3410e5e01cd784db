//! The paper's §4.5 TLB suggestion, end to end: a small counter filter in
//! front of a 512-entry L2 TLB skips lookups that are certain to miss.
//! Big-footprint workloads (mcf-like) skip most L2 TLB lookups; compact
//! workloads never miss the L1 TLB and gain nothing.
//!
//! Run with: `cargo run --release --example tlb_filtering`

use just_say_no::prelude::*;

const N: u64 = 400_000;

fn run(app: &str, filtered: bool) -> (f64, f64, u64) {
    let profile = profiles::by_name(app).expect("bundled profile");
    let mut tlb = Hierarchy::new(HierarchyConfig::two_level_tlb());
    // One 4096-counter table over the low page-number bits.
    let label = if filtered { "TMNM_12x1" } else { "baseline" };
    let mut filter = FilterPreset::parse(label).expect("valid preset").build(&tlb);

    // A data TLB translates every load and store alike, as ext01 does.
    for r in RefStream::new(Program::new(profile), FetchRule::DataOnly).phase(N) {
        tlb.step(&mut filter, Access::load(r.addr));
    }
    let stats = tlb.stats();
    let l2 = stats.structures[tlb.path(AccessKind::Load)[1].index()];
    let skipped = l2.bypasses as f64 / (l2.probes + l2.bypasses).max(1) as f64;
    (skipped * 100.0, stats.mean_access_time(), stats.memory_supplies)
}

fn main() {
    println!(
        "{:<12}{:>18}{:>16}{:>12}",
        "app", "L2 lookups skipped", "mean lat [cyc]", "page walks"
    );
    for app in ["164.gzip", "181.mcf", "171.swim", "179.art"] {
        let (_, base_lat, base_walks) = run(app, false);
        let (skipped, filt_lat, walks) = run(app, true);
        assert_eq!(base_walks, walks, "filtering never changes where translations come from");
        println!(
            "{:<12}{:>17.1}%{:>8.1} -> {:>4.1}{:>12}",
            app, skipped, base_lat, filt_lat, walks
        );
    }
    println!("\nOnly workloads whose page set overflows the TLBs have anything to skip —");
    println!("the filter is sound, so every skipped lookup would have missed.");
}
