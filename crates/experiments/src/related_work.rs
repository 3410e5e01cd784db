//! Related-work comparison (paper §5): MRU **way prediction**
//! (Powell et al., MICRO 2001 — cited by the paper) as an alternative
//! cache-energy-saving technique, against and combined with the serial
//! MNM.
//!
//! Way prediction probes the predicted way first and falls back to the
//! remaining ways on a way-mispredict or a miss:
//!
//! * correct prediction (hit in the MRU way): `1/assoc` of the probe
//!   energy;
//! * anything else: the remaining ways are probed too — one full probe's
//!   energy in total, paid sequentially (the latency cost is why way
//!   prediction is an L1 technique; here we only account energy).
//!
//! The two techniques attack *different* energy: way prediction cheapens
//! **hits**, the MNM eliminates **miss probes** — so their savings should
//! compose almost additively, which this experiment verifies.

use cache_sim::{CacheConfig, HierarchyConfig};
use mnm_core::{FilterPreset, MnmConfig, MnmPlacement};
use power_model::EnergyModel;
use trace_synth::profiles;

use crate::params::RunParams;
use crate::power::run_energy_nj;
use crate::report::Table;
use crate::runner::{parallel_run, run_app_functional, AppRun};

/// Cache energy under MRU way prediction, recomputed from the per-probe
/// counters (`mru_hits` vs other probes).
pub fn way_predicted_cache_energy_nj(
    run: &AppRun,
    hier_cfg: &HierarchyConfig,
    model: &EnergyModel,
) -> f64 {
    let mut configs: Vec<CacheConfig> = Vec::new();
    for level in &hier_cfg.levels {
        for c in level.configs() {
            configs.push(c.clone());
        }
    }
    let mut total = 0.0;
    for (st, cfg) in run.hierarchy.structures.iter().zip(&configs) {
        let read = model.cache_read_energy(cfg);
        let write = model.cache_write_energy(cfg);
        let assoc = f64::from(cfg.assoc);
        // Direct-mapped caches have nothing to predict.
        let (cheap, expensive) =
            if cfg.assoc == 1 { (st.probes, 0) } else { (st.mru_hits, st.probes - st.mru_hits) };
        total += cheap as f64 * read / assoc;
        total += expensive as f64 * read;
        total += st.fills as f64 * write;
    }
    total
}

/// rw01 — energy reduction of way prediction, the serial MNM (HMNM4), and
/// both combined, relative to the plain baseline.
pub fn way_prediction_table(params: RunParams) -> Table {
    let hier_cfg = HierarchyConfig::paper_five_level();
    let model = EnergyModel::default();
    let apps = profiles::all();

    let rows = parallel_run(apps, |app| {
        let base = run_app_functional(app, &hier_cfg, &FilterPreset::Baseline, params);
        let e_base = run_energy_nj(&base, &hier_cfg, &model);
        let e_waypred = way_predicted_cache_energy_nj(&base, &hier_cfg, &model);

        let mnm_cfg = FilterPreset::Mnm(MnmConfig::hmnm(4).with_placement(MnmPlacement::Serial));
        let mnm_run = run_app_functional(app, &hier_cfg, &mnm_cfg, params);
        let e_mnm = run_energy_nj(&mnm_run, &hier_cfg, &model);
        // Combined: the MNM removes miss probes, way prediction cheapens
        // the remaining (mostly hit) probes; recompute the way-predicted
        // energy over the MNM run's counters and add the MNM's own cost.
        let mnm_cost = e_mnm - {
            // Cache-only energy of the MNM run.
            let stripped = AppRun { mnm: None, mnm_storage: Vec::new(), ..mnm_run.clone() };
            run_energy_nj(&stripped, &hier_cfg, &model)
        };
        let e_combined = way_predicted_cache_energy_nj(&mnm_run, &hier_cfg, &model) + mnm_cost;

        let red = |e: f64| 100.0 * (e_base - e) / e_base;
        (app.name.clone(), vec![red(e_waypred), red(e_mnm), red(e_combined)])
    });

    let columns = ["way-pred red %", "serial HMNM4 red %", "combined red %"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect::<Vec<_>>();
    let mut table = Table::new(
        "Related work: MRU way prediction vs serial MNM (cache energy)",
        "app",
        &columns,
    );
    for (name, row) in rows {
        table.push_row(&name, row);
    }
    table.push_mean_row();
    table
}

/// rw02 — counting Bloom filters (Peir et al.) vs the paper's bit-slice
/// tables at comparable storage:
///
/// | config | bits |
/// |---|---|
/// | TMNM_10x1 | 3 072 |
/// | BLOOM_10x2 | 3 072 |
/// | TMNM_12x3 | 36 864 |
/// | BLOOM_13x4 | 24 576 |
/// | BLOOM_14x4 | 49 152 |
pub fn bloom_table(params: RunParams) -> Table {
    crate::coverage::coverage_table(
        "Related work: counting Bloom filter vs TMNM coverage [%]",
        &["TMNM_10x1", "BLOOM_10x2", "TMNM_12x3", "BLOOM_13x4", "BLOOM_14x4"],
        params,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::preset;

    #[test]
    fn bloom_configs_run_end_to_end() {
        let params = RunParams { warmup: 1_000, measure: 10_000 };
        let hier_cfg = HierarchyConfig::paper_five_level();
        let app = profiles::by_name("181.mcf").unwrap();
        let run = run_app_functional(&app, &hier_cfg, &preset("BLOOM_12x2"), params);
        let cov = run.mnm.unwrap().coverage();
        assert!((0.0..=1.0).contains(&cov));
        assert!(cov > 0.0, "Bloom filter must catch some cold misses on mcf");
    }

    #[test]
    fn way_prediction_saves_on_hit_heavy_apps() {
        let params = RunParams { warmup: 2_000, measure: 20_000 };
        let hier_cfg = HierarchyConfig::paper_five_level();
        let model = EnergyModel::default();
        let app = profiles::by_name("164.gzip").unwrap();
        let run = run_app_functional(&app, &hier_cfg, &FilterPreset::Baseline, params);
        let plain = run_energy_nj(&run, &hier_cfg, &model);
        let predicted = way_predicted_cache_energy_nj(&run, &hier_cfg, &model);
        assert!(predicted < plain, "way prediction must save energy: {predicted} vs {plain}");
    }

    #[test]
    fn mru_hits_never_exceed_hits() {
        let params = RunParams { warmup: 1_000, measure: 15_000 };
        let hier_cfg = HierarchyConfig::paper_five_level();
        let app = profiles::by_name("175.vpr").unwrap();
        let run = run_app_functional(&app, &hier_cfg, &FilterPreset::Baseline, params);
        for st in &run.hierarchy.structures {
            assert!(st.mru_hits <= st.hits);
        }
        // The set-associative levels see real MRU locality.
        let ul5 = run.hierarchy.structures.last().unwrap();
        if ul5.hits > 100 {
            assert!(ul5.mru_hits > 0, "some hits land in the MRU way");
        }
    }

    #[test]
    fn combined_beats_either_alone_on_a_mixed_app() {
        let params = RunParams { warmup: 3_000, measure: 30_000 };
        let t = {
            // Single-app variant of the table for speed.
            let hier_cfg = HierarchyConfig::paper_five_level();
            let model = EnergyModel::default();
            let app = profiles::by_name("300.twolf").unwrap();
            let base = run_app_functional(&app, &hier_cfg, &FilterPreset::Baseline, params);
            let e_base = run_energy_nj(&base, &hier_cfg, &model);
            let e_way = way_predicted_cache_energy_nj(&base, &hier_cfg, &model);
            let mnm_cfg =
                FilterPreset::Mnm(MnmConfig::hmnm(4).with_placement(MnmPlacement::Serial));
            let mnm_run = run_app_functional(&app, &hier_cfg, &mnm_cfg, params);
            let stripped = AppRun { mnm: None, mnm_storage: Vec::new(), ..mnm_run.clone() };
            let mnm_cost = run_energy_nj(&mnm_run, &hier_cfg, &model)
                - run_energy_nj(&stripped, &hier_cfg, &model);
            let e_combined = way_predicted_cache_energy_nj(&mnm_run, &hier_cfg, &model) + mnm_cost;
            (e_base, e_way, e_combined)
        };
        let (e_base, e_way, e_combined) = t;
        assert!(e_combined < e_way, "combining must add the MNM's miss savings");
        assert!(e_combined < e_base);
    }
}
