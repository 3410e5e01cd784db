//! The paper's motivating workload class: pointer chasing over a footprint
//! far larger than every cache level (`181.mcf`-like). Every chase step
//! walks the full 5-level hierarchy; an MNM lets the request skip straight
//! to memory.
//!
//! Runs the full out-of-order core model three times — baseline, HMNM4,
//! perfect oracle — and reports execution cycles (the paper's Figure 15
//! protocol, one application).
//!
//! Run with: `cargo run --release --example pointer_chasing`

use just_say_no::prelude::*;

const INSTRUCTIONS: u64 = 300_000;

fn run(label: &str) -> u64 {
    let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
    let mut filter = FilterPreset::parse(label).expect("preset label").build(&hier);
    let profile = profiles::by_name("181.mcf").expect("bundled profile");
    let cpu = CpuConfig::paper_eight_way();
    let stats = simulate(&cpu, &mut hier, &mut filter, Program::new(profile), INSTRUCTIONS);
    if let Some(mnm) = filter.mnm() {
        println!("  [{label}] coverage: {:.1}%", mnm.stats().coverage() * 100.0);
    }
    println!(
        "  [{label}] {} cycles, IPC {:.3}, mean load latency {:.1} cycles",
        stats.cycles,
        stats.ipc(),
        stats.mean_load_latency()
    );
    stats.cycles
}

fn main() {
    println!("181.mcf-like pointer chase, {INSTRUCTIONS} instructions, 8-way OoO core\n");
    let base = run("baseline");
    let hmnm = run("HMNM4");
    let perfect = run("perfect");

    println!();
    println!("HMNM4 cycle reduction:   {:.1}%", 100.0 * (base - hmnm) as f64 / base as f64);
    println!(
        "perfect cycle reduction: {:.1}% (upper bound)",
        100.0 * (base - perfect) as f64 / base as f64
    );
}
