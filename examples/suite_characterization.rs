//! Characterize the 20 synthetic applications: mixes, footprints,
//! idealized hit rates from reuse distances. Documents what the workload
//! substitution actually produces (DESIGN.md's Table-2 anchor points).
//!
//! Run with: `cargo run --release --example suite_characterization`
//! (`JSN_MEASURE` sets the instructions characterized per app).

use just_say_no::prelude::*;
use mnm_experiments::{RunParams, Table};
use trace_synth::characterize;

fn main() -> Result<(), String> {
    let params = RunParams::try_from_env()?;
    let columns: Vec<String> = [
        "load %",
        "store %",
        "branch %",
        "mispred %",
        "data KB",
        "code KB",
        "cold %",
        "ideal hit% @128",
        "ideal hit% @4096",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();

    let mut table = Table::new("Suite characterization (reuse-distance based)", "app", &columns);
    for profile in profiles::all() {
        let stats = characterize(Program::new(profile.clone()).take(params.measure as usize));
        let n = stats.instructions as f64;
        let mem = (stats.loads + stats.stores) as f64;
        table.push_row(
            &profile.name,
            vec![
                100.0 * stats.loads as f64 / n,
                100.0 * stats.stores as f64 / n,
                100.0 * stats.branches as f64 / n,
                if stats.branches == 0 {
                    0.0
                } else {
                    100.0 * stats.mispredicts as f64 / stats.branches as f64
                },
                stats.data_footprint_bytes() as f64 / 1024.0,
                stats.code_footprint_bytes() as f64 / 1024.0,
                100.0 * stats.cold_references as f64 / mem.max(1.0),
                100.0 * stats.ideal_hit_rate(128),
                100.0 * stats.ideal_hit_rate(4096),
            ],
        );
    }
    table.push_mean_row();
    print!("{}", table.render());
    Ok(())
}
