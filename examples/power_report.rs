//! Energy accounting with a serial MNM (the paper's Figure 16 protocol on
//! one application): per-structure cache energy, the miss-probe share the
//! MNM eliminates, and the MNM's own cost.
//!
//! Run with: `cargo run --release --example power_report`

use just_say_no::mnm_experiments::runner::access;
use just_say_no::prelude::*;

/// `n` instructions of 300.twolf, fetches included, as the figures run them.
fn drive(hier: &mut Hierarchy, filter: &mut ReplayFilter, n: u64) {
    let profile = profiles::by_name("300.twolf").expect("bundled profile");
    let rule = FetchRule::Blocks { block_bytes: hier.config().fetch_block_bytes() };
    for r in RefStream::new(Program::new(profile), rule).phase(n) {
        hier.step(filter, access(r));
    }
}

fn main() {
    const N: u64 = 400_000;
    let model = EnergyModel::default();

    // Baseline energy.
    let mut plain = Hierarchy::new(HierarchyConfig::paper_five_level());
    drive(&mut plain, &mut ReplayFilter::Baseline, N);
    let base = account_hierarchy(&plain, &model);

    // Serial HMNM2: queried only after L1 misses.
    let mut guarded = Hierarchy::new(HierarchyConfig::paper_five_level());
    let serial = MnmConfig::hmnm(2).with_placement(MnmPlacement::Serial);
    let mut filter = FilterPreset::Mnm(serial).build(&guarded);
    drive(&mut guarded, &mut filter, N);
    let mnm = filter.mnm().expect("an MNM preset builds an MNM");
    let with_mnm = account_hierarchy(&guarded, &model);
    let l1_misses: u64 = guarded
        .structures()
        .iter()
        .filter(|s| s.level == 1)
        .map(|s| guarded.stats().structures[s.id.index()].misses)
        .sum();
    let mnm_energy = mnm_total_energy(mnm, &model, l1_misses);

    println!("300.twolf-like workload, {N} instructions, serial HMNM2\n");
    println!("{:<8}{:>14}{:>16}{:>14}", "cache", "probe [nJ]", "miss share [%]", "fills [nJ]");
    for s in &base.structures {
        let miss_pct = if s.probe_nj > 0.0 { 100.0 * s.miss_probe_nj / s.probe_nj } else { 0.0 };
        println!("{:<8}{:>14.1}{:>16.1}{:>14.1}", s.name, s.probe_nj, miss_pct, s.fill_nj);
    }
    println!();
    println!("baseline cache energy:        {:>12.1} nJ", base.total_nj());
    println!(
        "  of which wasted on misses:  {:>12.1} nJ ({:.1}%)",
        base.miss_probe_nj(),
        100.0 * base.miss_fraction()
    );
    println!("with serial HMNM2:            {:>12.1} nJ (caches)", with_mnm.total_nj());
    println!(
        "  + MNM itself:               {:>12.1} nJ ({} queries after L1 misses)",
        mnm_energy.total_nj(),
        l1_misses
    );
    let total = with_mnm.total_nj() + mnm_energy.total_nj();
    println!(
        "net reduction:                {:>11.1}%",
        100.0 * (base.total_nj() - total) / base.total_nj()
    );
}
