//! Execution-time experiments (paper §4.3, Figure 15) and the application
//! characterization (Table 2).

use cache_sim::HierarchyConfig;
use mnm_core::FilterPreset;
use ooo_model::CpuConfig;
use trace_synth::profiles;

use crate::params::RunParams;
use crate::report::Table;
use crate::runner::{parallel_run, preset, run_app_timed, AppRun};
use crate::FIG15_CONFIGS;

/// Figure 15: percentage reduction in execution cycles of the parallel MNM
/// configurations (and the perfect MNM) relative to the no-MNM baseline.
pub fn execution_reduction_table(params: RunParams) -> Table {
    let hier_cfg = HierarchyConfig::paper_five_level();
    let cpu_cfg = CpuConfig::paper_eight_way();
    let apps = profiles::all();

    let mut labels: Vec<String> = vec!["Baseline".to_owned()];
    labels.extend(FIG15_CONFIGS.iter().map(|s| (*s).to_owned()));
    labels.push("Perfect".to_owned());

    let jobs: Vec<(usize, usize)> =
        (0..apps.len()).flat_map(|a| (0..labels.len()).map(move |c| (a, c))).collect();
    let cycles = parallel_run(jobs, |&(a, c)| {
        let run = run_app_timed(&apps[a], &hier_cfg, &cpu_cfg, &preset(&labels[c]), params);
        run.cpu.cycles as f64
    });

    let columns: Vec<String> = labels[1..].to_vec();
    let mut table = Table::new("Figure 15: reduction in execution cycles [%]", "app", &columns);
    let w = labels.len();
    for (a, app) in apps.iter().enumerate() {
        let base = cycles[a * w];
        let row: Vec<f64> = (1..w).map(|c| 100.0 * (base - cycles[a * w + c]) / base).collect();
        table.push_row(&app.name, row);
    }
    table.push_mean_row();
    table
}

/// Table 2: per-application characteristics on the paper's 5-level
/// configuration — cycles, L1 access counts (millions), and per-structure
/// reference hit rates (percent).
pub fn characteristics_table(params: RunParams) -> Table {
    let hier_cfg = HierarchyConfig::paper_five_level();
    let cpu_cfg = CpuConfig::paper_eight_way();
    let apps = profiles::all();

    let runs: Vec<AppRun> = parallel_run(apps.clone(), |app| {
        run_app_timed(app, &hier_cfg, &cpu_cfg, &FilterPreset::Baseline, params)
    });

    let columns: Vec<String> = [
        "cycles[M]",
        "dl1 acc[M]",
        "il1 acc[M]",
        "dl1 hit%",
        "dl2 hit%",
        "il1 hit%",
        "il2 hit%",
        "ul3 hit%",
        "ul4 hit%",
        "ul5 hit%",
        "IPC",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();

    let mut table = Table::new("Table 2: application characteristics", "app", &columns);
    for run in &runs {
        // Structure order in the paper config: il1 dl1 il2 dl2 ul3 ul4 ul5.
        let s = &run.hierarchy.structures;
        let hit = |i: usize| s[i].reference_hit_rate() * 100.0;
        table.push_row(
            &run.app,
            vec![
                run.cpu.cycles as f64 / 1e6,
                (s[1].probes + s[1].bypasses) as f64 / 1e6,
                (s[0].probes + s[0].bypasses) as f64 / 1e6,
                hit(1),
                hit(3),
                hit(0),
                hit(2),
                hit(4),
                hit(5),
                hit(6),
                run.cpu.ipc(),
            ],
        );
    }
    table.push_mean_row();
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_app_timed;

    #[test]
    fn perfect_reduction_bounds_real_mnm() {
        // One app, small budget: perfect >= HMNM4 >= 0 reduction.
        let params = RunParams { warmup: 3_000, measure: 25_000 };
        let hier_cfg = HierarchyConfig::paper_five_level();
        let cpu_cfg = CpuConfig::paper_eight_way();
        let app = profiles::by_name("181.mcf").unwrap();
        let base =
            run_app_timed(&app, &hier_cfg, &cpu_cfg, &FilterPreset::Baseline, params).cpu.cycles;
        let hmnm = run_app_timed(&app, &hier_cfg, &cpu_cfg, &preset("HMNM4"), params).cpu.cycles;
        let perfect =
            run_app_timed(&app, &hier_cfg, &cpu_cfg, &FilterPreset::Perfect, params).cpu.cycles;
        assert!(hmnm <= base, "parallel MNM can only help: {hmnm} vs {base}");
        assert!(perfect <= hmnm, "perfect bounds the real technique: {perfect} vs {hmnm}");
    }

    #[test]
    fn characteristics_hit_rates_are_sane() {
        let params = RunParams { warmup: 2_000, measure: 20_000 };
        let hier_cfg = HierarchyConfig::paper_five_level();
        let cpu_cfg = CpuConfig::paper_eight_way();
        let app = profiles::by_name("164.gzip").unwrap();
        let run = run_app_timed(&app, &hier_cfg, &cpu_cfg, &FilterPreset::Baseline, params);
        for st in &run.hierarchy.structures {
            let h = st.reference_hit_rate();
            assert!((0.0..=1.0).contains(&h));
        }
        // gzip's hot set gives L1-D a decent hit rate even at 4 KB.
        assert!(run.hierarchy.structures[1].reference_hit_rate() > 0.5);
    }
}
