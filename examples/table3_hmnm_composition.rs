//! Table 3: the composition of the four hybrid (HMNM) configurations of
//! Figure 14 — which techniques guard which cache levels, plus the RMNM.
//!
//! Run with: `cargo run --release --example table3_hmnm_composition`

use just_say_no::prelude::*;

fn main() {
    println!("Table 3: HMNM compositions");
    for n in 1..=4u8 {
        let cfg = MnmConfig::hmnm(n);
        let parts: Vec<String> = cfg
            .assignments
            .iter()
            .map(|a| {
                let labels: Vec<String> = a.techniques.iter().map(|t| t.label()).collect();
                format!("L{}-{}: {}", a.levels.start(), a.levels.end().min(&5), labels.join("+"))
            })
            .collect();
        println!(
            "  HMNM{n}: {} + {}",
            parts.join("; "),
            cfg.rmnm.map(|r| r.label()).unwrap_or_default()
        );
    }
}
