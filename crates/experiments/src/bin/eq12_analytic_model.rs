//! Equations 1 and 2: the analytic data-access-time model, validated
//! against the simulator for every application.

use cache_sim::AccessKind;
use mnm_core::FilterPreset;
use mnm_experiments::analytic::{eq1_access_time, LevelModel};
use mnm_experiments::runner::run_app_functional;
use mnm_experiments::{RunParams, Table};
use trace_synth::profiles;

fn main() {
    let params = RunParams::from_env();
    let hier_cfg = cache_sim::HierarchyConfig::paper_five_level();

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
        let hier = cache_sim::Hierarchy::new(hier_cfg.clone());
        let mut levels = Vec::new();
        let mut reach_refs = 0u64;
        for sid in hier.path(AccessKind::Load) {
            let st = run.hierarchy.structures[sid.index()];
            let cfg = hier.cache(*sid).config();
            // Unified levels also serve instruction refills; conditional
            // rates remain correct because they are per-probe.
            if levels.is_empty() {
                reach_refs = st.probes;
            }
            levels.push(LevelModel {
                hit_time: cfg.hit_latency as f64,
                miss_time: cfg.miss_latency as f64,
                miss_rate: st.miss_rate(),
                unidentified: 1.0,
            });
        }
        let _ = reach_refs;
        let predicted = eq1_access_time(&levels, hier_cfg.memory_latency as f64);
        // Simulated mean over *all* accesses mixes both paths; rebuild the
        // data-path mean from per-level supply counts is equivalent to the
        // overall mean when rates are per-probe, so compare against the
        // hierarchy-wide mean access time as the paper does.
        let simulated = run.hierarchy.mean_access_time();
        let err = if simulated == 0.0 { 0.0 } else { 100.0 * (predicted - simulated) / simulated };
        table.push_row(&app.name, vec![predicted, simulated, err]);
    }
    mnm_experiments::emit(&table);
    println!(
        "\nNote: eq1 uses data-path rates; instruction-path effects appear as small residuals."
    );
}
