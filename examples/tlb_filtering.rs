//! The paper's §4.5 TLB suggestion, end to end: a small counter filter in
//! front of a 512-entry L2 TLB skips lookups that are certain to miss.
//! Big-footprint workloads (mcf-like) skip most L2 TLB lookups; compact
//! workloads never miss the L1 TLB and gain nothing.
//!
//! Run with: `cargo run --release --example tlb_filtering`

use cache_sim::{TlbEvent, TwoLevelTlb};
use just_say_no::prelude::*;
use mnm_core::{MissFilter, TmnmConfig, TmnmFilter};

const N: usize = 400_000;

fn run(app: &str, filtered: bool) -> (f64, f64, u64) {
    let profile = profiles::by_name(app).expect("bundled profile");
    let mut tlb = TwoLevelTlb::typical();
    // One 4096-counter table over the low page-number bits.
    let mut filter = TmnmFilter::new(TmnmConfig::new(12, 1));
    let mut events: Vec<TlbEvent> = Vec::new();

    for instr in Program::new(profile).take(N) {
        let Some(addr) = instr.data_addr() else { continue };
        let bypass = filtered && filter.is_definite_miss(tlb.page_of(addr));
        events.clear();
        tlb.translate(addr, bypass, &mut events);
        for ev in &events {
            match *ev {
                TlbEvent::L2Placed { page, frame } => filter.on_place(page, frame as usize),
                TlbEvent::L2Replaced { page, frame } => filter.on_replace(page, frame as usize),
            }
        }
    }
    let (_, l2, walks) = tlb.stats();
    let skipped = l2.bypasses as f64 / (l2.probes + l2.bypasses).max(1) as f64;
    (skipped * 100.0, tlb.mean_latency(), walks)
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
