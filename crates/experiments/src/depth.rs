//! Motivation experiments (paper §1.1, Figures 2–3): how much of the data
//! access time and of the cache energy is spent on misses, as the number of
//! cache levels grows.

use cache_sim::HierarchyConfig;
use mnm_core::FilterPreset;
use power_model::EnergyModel;
use trace_synth::profiles;

use crate::params::RunParams;
use crate::report::Table;
use crate::runner::{parallel_run, run_app_functional};

/// The hierarchy depths compared in Figures 2 and 3.
pub const DEPTHS: [usize; 4] = [2, 3, 5, 7];

/// One functional baseline run per (app, depth); returns the miss fraction
/// of data-access time (Figure 2) and of cache energy (Figure 3), both in
/// percent.
pub fn depth_fractions(params: RunParams) -> (Table, Table) {
    let apps = profiles::all();
    let model = EnergyModel::default();

    let jobs: Vec<(usize, usize)> =
        (0..apps.len()).flat_map(|a| DEPTHS.iter().map(move |&d| (a, d))).collect();
    let results = parallel_run(jobs, |&(a, depth)| {
        // Rebuild the hierarchy per job; depths use the motivation configs.
        let hier_cfg = HierarchyConfig::motivation_levels(depth);
        let run = run_app_functional(&apps[a], &hier_cfg, &FilterPreset::Baseline, params);
        let time_fraction = run.hierarchy.miss_time_fraction() * 100.0;
        let energy_fraction = energy_fraction_from_run(&run, depth, &model) * 100.0;
        (time_fraction, energy_fraction)
    });

    let columns: Vec<String> = DEPTHS.iter().map(|d| format!("{d}-level")).collect();
    let mut time_table =
        Table::new("Figure 2: fraction of misses in data access time [%]", "app", &columns);
    let mut power_table =
        Table::new("Figure 3: fraction of misses in cache power consumption [%]", "app", &columns);
    for (a, app) in apps.iter().enumerate() {
        let mut trow = Vec::new();
        let mut prow = Vec::new();
        for d in 0..DEPTHS.len() {
            let (t, p) = results[a * DEPTHS.len() + d];
            trow.push(t);
            prow.push(p);
        }
        time_table.push_row(&app.name, trow);
        power_table.push_row(&app.name, prow);
    }
    time_table.push_mean_row();
    power_table.push_mean_row();
    (time_table, power_table)
}

/// Energy miss-fraction recomputed from a finished run's counters: probe
/// energy of missing probes over total (probe + fill) energy.
fn energy_fraction_from_run(run: &crate::runner::AppRun, depth: usize, model: &EnergyModel) -> f64 {
    let cfg = HierarchyConfig::motivation_levels(depth);
    let mut configs = Vec::new();
    for level in &cfg.levels {
        for c in level.configs() {
            configs.push(c.clone());
        }
    }
    debug_assert_eq!(configs.len(), run.hierarchy.structures.len());
    let mut total = 0.0;
    let mut miss = 0.0;
    for (st, c) in run.hierarchy.structures.iter().zip(&configs) {
        let read = model.cache_read_energy(c);
        let write = model.cache_write_energy(c);
        total += st.probes as f64 * read + st.fills as f64 * write;
        miss += st.misses as f64 * read;
    }
    if total == 0.0 {
        0.0
    } else {
        miss / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{Access, BypassSet, Hierarchy};
    use power_model::account_hierarchy as account;

    #[test]
    fn energy_fraction_matches_direct_accounting() {
        // Drive a hierarchy directly and compare the two accounting paths.
        let mut h = Hierarchy::new(HierarchyConfig::motivation_levels(3));
        for i in 0..500u64 {
            h.access(Access::load((i % 40) * 128), &BypassSet::none());
        }
        let model = EnergyModel::default();
        let direct = account(&h, &model).miss_fraction();
        let run = crate::runner::AppRun {
            app: "x".into(),
            config: "Baseline".into(),
            hierarchy: h.stats().clone(),
            mnm: None,
            mnm_storage: Vec::new(),
            mnm_placement: None,
            cpu: Default::default(),
            level_of_structure: h.structures().iter().map(|s| s.level).collect(),
            structure_names: h.structures().iter().map(|s| s.name.clone()).collect(),
        };
        let via_run = energy_fraction_from_run(&run, 3, &model);
        assert!((direct - via_run).abs() < 1e-12, "{direct} vs {via_run}");
    }

    #[test]
    fn miss_fractions_grow_with_depth_for_a_chaser() {
        // A pointer-chasing app wastes more time on misses the deeper the
        // hierarchy — the paper's motivating observation.
        let params = RunParams { warmup: 5_000, measure: 40_000 };
        let apps = profiles::all();
        let mcf = apps.iter().position(|p| p.name == "181.mcf").unwrap();
        let shallow = run_app_functional(
            &apps[mcf],
            &HierarchyConfig::motivation_levels(2),
            &FilterPreset::Baseline,
            params,
        );
        let deep = run_app_functional(
            &apps[mcf],
            &HierarchyConfig::motivation_levels(7),
            &FilterPreset::Baseline,
            params,
        );
        assert!(
            deep.hierarchy.miss_time_fraction() > shallow.hierarchy.miss_time_fraction(),
            "deep {} vs shallow {}",
            deep.hierarchy.miss_time_fraction(),
            shallow.hierarchy.miss_time_fraction()
        );
    }

    #[test]
    fn account_is_consistent_with_power_model_export() {
        // Guard against the two accounting paths diverging silently.
        let mut h = Hierarchy::new(HierarchyConfig::paper_five_level());
        h.access(Access::load(0), &BypassSet::none());
        let b = account(&h, &EnergyModel::default());
        assert!(b.total_nj() > 0.0);
    }
}
