//! Equations 1 and 2: the analytic data-access-time model, validated
//! against the simulator for every application.
//!
//! Run with: `cargo run --release --example eq12_analytic_model`
//! (`JSN_WARMUP` / `JSN_MEASURE` set the instruction budgets).

use just_say_no::prelude::*;
use mnm_experiments::analytic::{eq1_access_time, LevelModel};
use mnm_experiments::runner::run_app_functional;
use mnm_experiments::{RunParams, Table};

fn main() -> Result<(), String> {
    let params = RunParams::try_from_env()?;
    let hier_cfg = HierarchyConfig::paper_five_level();

    let columns: Vec<String> =
        ["eq1 predicted", "simulated", "error %"].iter().map(|s| (*s).to_owned()).collect();
    let mut table = Table::new(
        "Equations 1-2: analytic vs simulated mean data-access time [cycles]",
        "app",
        &columns,
    );
    table.precision = 3;

    // The analytic model is per-path; validate on the data path by
    // rebuilding the per-level conditional miss rates from the counters.
    for app in profiles::all() {
        let run = run_app_functional(&app, &hier_cfg, &FilterPreset::Baseline, params);
        let hier = Hierarchy::new(hier_cfg.clone());
        // Unified levels also serve instruction refills; conditional
        // rates remain correct because they are per-probe.
        let levels: Vec<LevelModel> = hier
            .path(AccessKind::Load)
            .iter()
            .map(|sid| {
                let cfg = hier.cache(*sid).config();
                LevelModel {
                    hit_time: cfg.hit_latency as f64,
                    miss_time: cfg.miss_latency as f64,
                    miss_rate: run.hierarchy.structures[sid.index()].miss_rate(),
                    unidentified: 1.0,
                }
            })
            .collect();
        let predicted = eq1_access_time(&levels, hier_cfg.memory_latency as f64);
        // Simulated mean over *all* accesses mixes both paths; rebuild the
        // data-path mean from per-level supply counts is equivalent to the
        // overall mean when rates are per-probe, so compare against the
        // hierarchy-wide mean access time as the paper does.
        let simulated = run.hierarchy.mean_access_time();
        let err = if simulated == 0.0 { 0.0 } else { 100.0 * (predicted - simulated) / simulated };
        table.push_row(&app.name, vec![predicted, simulated, err]);
    }
    print!("{}", table.render());
    println!(
        "\nNote: eq1 uses data-path rates; instruction-path effects appear as small residuals."
    );
    Ok(())
}
