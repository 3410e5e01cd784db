//! Cache power-reduction experiment (paper §4.4, Figure 16).
//!
//! The MNM structures are placed **serially** (accessed only after an L1
//! miss). The reduction compares, per application:
//!
//! * baseline: cache probe + fill energy with no filtering;
//! * with MNM: the same workload with flagged probes bypassed (their probe
//!   energy saved) plus the MNM's own query/update energy;
//! * perfect: all bypassable miss probes saved, zero MNM energy.

use cache_sim::HierarchyConfig;
use mnm_core::{FilterPreset, MnmPlacement};
use power_model::EnergyModel;
use trace_synth::profiles;

use crate::params::RunParams;
use crate::report::Table;
use crate::runner::{parallel_run, preset, run_app_functional, AppRun};
use crate::FIG15_CONFIGS;

/// Total cache-system energy of a run, including MNM energy when present.
pub fn run_energy_nj(run: &AppRun, depth_cfg: &HierarchyConfig, model: &EnergyModel) -> f64 {
    // Cache probe + fill energy from recorded counters.
    let mut configs = Vec::new();
    for level in &depth_cfg.levels {
        for c in level.configs() {
            configs.push(c.clone());
        }
    }
    let mut cache_nj = 0.0;
    for (st, c) in run.hierarchy.structures.iter().zip(&configs) {
        cache_nj += st.probes as f64 * model.cache_read_energy(c)
            + st.fills as f64 * model.cache_write_energy(c);
    }

    // MNM energy (serial: queried once per L1-missing access).
    let mnm_nj = match (&run.mnm, run.mnm_placement) {
        (Some(stats), Some(placement)) => {
            let per_query: f64 = run
                .mnm_storage
                .iter()
                .map(|c| {
                    if let Some(rest) = c.label.strip_prefix("SMNM_") {
                        let width: u32 =
                            rest.split('x').next().and_then(|w| w.parse().ok()).unwrap_or(10);
                        model.smnm_checker_energy(c.bits, width)
                    } else {
                        model.small_array_energy(c.bits)
                    }
                })
                .sum();
            let updates: u64 = stats.slots.iter().map(|s| s.updates).sum();
            let per_update = per_query / run.mnm_storage.len().max(1) as f64;
            let query_nj = match placement {
                MnmPlacement::Parallel => stats.accesses as f64 * per_query,
                MnmPlacement::Serial => run.l1_miss_accesses() as f64 * per_query,
                MnmPlacement::Distributed => {
                    // Exact per-level accounting: each guarded structure's
                    // filters are consulted once per reference arriving at
                    // that structure; the shared RMNM is consulted at the
                    // first guarded level (i.e. once per L1 miss).
                    let refs_of = |name: &str| -> f64 {
                        run.structure_names
                            .iter()
                            .position(|n| n == name)
                            .map(|i| {
                                let st = run.hierarchy.structures[i];
                                (st.probes + st.bypasses) as f64
                            })
                            .unwrap_or(0.0)
                    };
                    run.mnm_storage
                        .iter()
                        .map(|c| {
                            let e = if let Some(rest) = c.label.strip_prefix("SMNM_") {
                                let width: u32 = rest
                                    .split('x')
                                    .next()
                                    .and_then(|w| w.parse().ok())
                                    .unwrap_or(10);
                                model.smnm_checker_energy(c.bits, width)
                            } else {
                                model.small_array_energy(c.bits)
                            };
                            let consultations = if c.structure == "shared" {
                                run.l1_miss_accesses() as f64
                            } else {
                                refs_of(&c.structure)
                            };
                            e * consultations
                        })
                        .sum()
                }
            };
            query_nj + updates as f64 * per_update
        }
        _ => 0.0,
    };

    cache_nj + mnm_nj
}

/// Figure 16: percentage reduction in cache power of the serial MNM
/// configurations (and the perfect MNM) relative to the baseline.
pub fn power_reduction_table(params: RunParams) -> Table {
    let hier_cfg = HierarchyConfig::paper_five_level();
    let apps = profiles::all();
    let model = EnergyModel::default();

    let mut labels: Vec<String> = vec!["Baseline".to_owned()];
    labels.extend(FIG15_CONFIGS.iter().map(|s| (*s).to_owned()));
    labels.push("Perfect".to_owned());

    let jobs: Vec<(usize, usize)> =
        (0..apps.len()).flat_map(|a| (0..labels.len()).map(move |c| (a, c))).collect();
    let energies = parallel_run(jobs, |&(a, c)| {
        let kind = match preset(&labels[c]) {
            FilterPreset::Mnm(cfg) => FilterPreset::Mnm(cfg.with_placement(MnmPlacement::Serial)),
            other => other,
        };
        let run = run_app_functional(&apps[a], &hier_cfg, &kind, params);
        run_energy_nj(&run, &hier_cfg, &model)
    });

    let columns: Vec<String> = labels[1..].to_vec();
    let mut table =
        Table::new("Figure 16: reduction in cache power consumption [%]", "app", &columns);
    let w = labels.len();
    for (a, app) in apps.iter().enumerate() {
        let base = energies[a * w];
        let row: Vec<f64> = (1..w).map(|c| 100.0 * (base - energies[a * w + c]) / base).collect();
        table.push_row(&app.name, row);
    }
    table.push_mean_row();
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnm_core::MnmConfig;

    #[test]
    fn perfect_saves_the_most_energy() {
        let params = RunParams { warmup: 3_000, measure: 25_000 };
        let hier_cfg = HierarchyConfig::paper_five_level();
        let model = EnergyModel::default();
        let app = profiles::by_name("181.mcf").unwrap();

        let base = run_app_functional(&app, &hier_cfg, &FilterPreset::Baseline, params);
        let e_base = run_energy_nj(&base, &hier_cfg, &model);

        let hmnm_cfg = FilterPreset::Mnm(MnmConfig::hmnm(4).with_placement(MnmPlacement::Serial));
        let hmnm = run_app_functional(&app, &hier_cfg, &hmnm_cfg, params);
        let e_hmnm = run_energy_nj(&hmnm, &hier_cfg, &model);

        let perfect = run_app_functional(&app, &hier_cfg, &FilterPreset::Perfect, params);
        let e_perfect = run_energy_nj(&perfect, &hier_cfg, &model);

        assert!(e_perfect < e_base, "perfect must save energy: {e_perfect} vs {e_base}");
        assert!(e_perfect <= e_hmnm, "perfect bounds the hybrid: {e_perfect} vs {e_hmnm}");
    }

    #[test]
    fn mnm_energy_is_charged() {
        // Same cache savings, but the real machine must pay its own way:
        // energy(with mnm counters) > energy(same counters, mnm stripped).
        let params = RunParams { warmup: 2_000, measure: 15_000 };
        let hier_cfg = HierarchyConfig::paper_five_level();
        let model = EnergyModel::default();
        let app = profiles::by_name("164.gzip").unwrap();
        let cfg = FilterPreset::Mnm(MnmConfig::hmnm(2).with_placement(MnmPlacement::Serial));
        let run = run_app_functional(&app, &hier_cfg, &cfg, params);
        let with_mnm = run_energy_nj(&run, &hier_cfg, &model);
        let mut stripped = run.clone();
        stripped.mnm = None;
        stripped.mnm_storage.clear();
        let without = run_energy_nj(&stripped, &hier_cfg, &model);
        assert!(with_mnm > without);
    }
}
