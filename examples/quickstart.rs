//! Quickstart: attach the paper's best hybrid MNM (HMNM4) to the paper's
//! 5-level hierarchy, run a synthetic SPEC2000-like workload, and report
//! coverage and the mean access-time win.
//!
//! Run with: `cargo run --release --example quickstart`

use just_say_no::mnm_experiments::runner::access;
use just_say_no::prelude::*;

fn main() {
    // The paper's simulated processor (Section 4.1): 4KB split L1s, 16KB
    // split L2s, unified 128KB/512KB/2MB L3-L5, 320-cycle memory.
    let config = HierarchyConfig::paper_five_level();

    // Two identical hierarchies: one plain, one guarded by an MNM.
    let mut plain = Hierarchy::new(config.clone());
    let mut guarded = Hierarchy::new(config);
    let mut mnm = Mnm::new(&guarded, MnmConfig::hmnm(4));

    // A gzip-like instruction stream, turned into references the way the
    // paper's figures are: one fetch per new L1-I line (again after a
    // mispredicted branch), then each load or store.
    let profile = profiles::by_name("164.gzip").expect("bundled profile");
    println!("workload: {} ({} bytes of data touched)", profile.name, profile.data_footprint());

    let rule = FetchRule::Blocks { block_bytes: guarded.config().fetch_block_bytes() };
    for r in RefStream::new(Program::new(profile), rule).phase(400_000) {
        let a = access(r);
        plain.access(a, &BypassSet::none());
        mnm.run_access(&mut guarded, a);
    }

    let cov = mnm.stats().coverage() * 100.0;
    let t_plain = plain.stats().mean_access_time();
    let t_mnm = guarded.stats().mean_access_time();
    println!("bypassable misses identified (coverage): {cov:.1}%");
    println!("mean access time without MNM: {t_plain:.2} cycles");
    println!("mean access time with HMNM4:  {t_mnm:.2} cycles");
    println!("reduction: {:.1}%", 100.0 * (t_plain - t_mnm) / t_plain);

    // The MNM's verdicts are sound by construction: every bypass was
    // checked against actual cache contents in debug builds.
    println!(
        "MNM hardware: {} bits of state across {} components",
        mnm.storage_bits(),
        mnm.storage().len()
    );
}
