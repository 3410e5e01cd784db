//! Extension experiments for the paper's §4.5 future-work directions:
//! TLB filtering and scheduler use of early miss information — plus the §2
//! distributed-MNM placement.

use cache_sim::{Access, AccessKind, Hierarchy, HierarchyConfig};
use mnm_core::{FilterPreset, Mnm, MnmConfig, MnmPlacement, ReplayFilter};
use ooo_model::{CpuConfig, LoadSpeculation};
use power_model::EnergyModel;
use trace_synth::{profiles, AppProfile, FetchRule, Program, RefStream};

use crate::params::RunParams;
use crate::report::Table;
use crate::runner::{parallel_run, preset, run_app_timed};

/// ext01 — TLB filtering (paper §4.5: "reduce the power consumption of
/// other caching structures such as the TLBs").
///
/// The TLB is a two-level hierarchy over 4 KiB pages
/// ([`HierarchyConfig::two_level_tlb`]); a TMNM guarding `tlb2`, keyed on
/// page numbers and fed by its placement/replacement events, skips L2 TLB
/// lookups that are sure to miss. Reports the fraction of L2 lookups
/// eliminated, the change in mean translation latency, and the net TLB
/// energy reduction.
pub fn tlb_filter_table(params: RunParams) -> Table {
    let apps = profiles::all();
    let model = EnergyModel::default();

    let rows = parallel_run(apps, |app| {
        // Filter: one 4096-counter table over the low page-number bits —
        // large enough to track multi-MB page working sets, ~60% of an L2
        // TLB probe's energy per query.
        let run = |filtered: bool| -> (f64, f64, f64) {
            let label = if filtered { "TMNM_12x1" } else { "baseline" };
            let (hier, filter) = replay_tlb(app, label, params.measure);
            let tlb2 = hier.path(AccessKind::Load)[1];
            let l2 = hier.stats().structures[tlb2.index()];
            // Energy: L2 TLB entry ≈ 64 bits (tag + frame + perms). The
            // filter is a small counter array.
            let l2_probe_nj = model.small_array_energy(hier.cache(tlb2).config().num_blocks() * 64);
            let filter_nj = model.small_array_energy(filter.mnm().map_or(0, Mnm::storage_bits));
            let energy =
                l2.probes as f64 * l2_probe_nj + (l2.probes + l2.bypasses) as f64 * filter_nj;
            (
                l2.bypasses as f64 / (l2.probes + l2.bypasses).max(1) as f64,
                hier.stats().mean_access_time(),
                energy,
            )
        };
        let (_, base_lat, base_energy) = run(false);
        let (bypassed_frac, filt_lat, filt_energy) = run(true);
        (
            app.name.clone(),
            vec![
                bypassed_frac * 100.0,
                base_lat,
                filt_lat,
                100.0 * (base_energy - filt_energy) / base_energy,
            ],
        )
    });

    let columns =
        ["L2 lookups skipped %", "base lat [cyc]", "filtered lat [cyc]", "TLB energy red %"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect::<Vec<_>>();
    let mut table = Table::new("Extension 1 (§4.5): TLB miss filtering", "app", &columns);
    for (name, row) in rows {
        table.push_row(&name, row);
    }
    table.push_mean_row();
    table
}

/// Translate `app`'s first `measure` data references, each as a load,
/// through a fresh two-level TLB under the filter preset `label`.
fn replay_tlb(app: &AppProfile, label: &str, measure: u64) -> (Hierarchy, ReplayFilter) {
    let mut hier = Hierarchy::new(HierarchyConfig::two_level_tlb());
    let mut filter = FilterPreset::parse(label).expect("TLB filter preset").build(&hier);
    let refs = RefStream::new(Program::new(app.clone()), FetchRule::DataOnly);
    for r in refs.take(measure as usize) {
        hier.step(&mut filter, Access::load(r.addr));
    }
    (hier, filter)
}

/// ext02 — scheduler use of miss information (paper §4.5: hold dependents
/// of loads known to miss instead of speculatively waking and replaying
/// them).
///
/// All configurations run under the replay scheduler; the reductions are
/// relative to the unfiltered baseline *with* replays, so they include
/// both the Figure 15 latency effect and the avoided replays.
pub fn scheduler_replay_table(params: RunParams) -> Table {
    let hier_cfg = HierarchyConfig::paper_five_level();
    let cpu_cfg =
        CpuConfig::paper_eight_way().with_load_speculation(LoadSpeculation::Replay { penalty: 6 });
    let apps = profiles::all();

    let labels = ["Baseline", "HMNM4", "Perfect"];
    let jobs: Vec<(usize, usize)> =
        (0..apps.len()).flat_map(|a| (0..labels.len()).map(move |c| (a, c))).collect();
    let outcomes = parallel_run(jobs, |&(a, c)| {
        let run = run_app_timed(&apps[a], &hier_cfg, &cpu_cfg, &preset(labels[c]), params);
        (run.cpu.cycles as f64, run.cpu.replays as f64)
    });

    let columns = ["HMNM4 red %", "Perfect red %", "replays/1k base", "replays/1k HMNM4"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect::<Vec<_>>();
    let mut table = Table::new("Extension 2 (§4.5): scheduler replay avoidance", "app", &columns);
    let w = labels.len();
    for (a, app) in apps.iter().enumerate() {
        let (base_cycles, base_replays) = outcomes[a * w];
        let (hmnm_cycles, hmnm_replays) = outcomes[a * w + 1];
        let (perfect_cycles, _) = outcomes[a * w + 2];
        let per_k = 1000.0 / params.measure as f64;
        table.push_row(
            &app.name,
            vec![
                100.0 * (base_cycles - hmnm_cycles) / base_cycles,
                100.0 * (base_cycles - perfect_cycles) / base_cycles,
                base_replays * per_k,
                hmnm_replays * per_k,
            ],
        );
    }
    table.push_mean_row();
    table
}

/// abl06 — distributed MNM placement (paper §2's third configuration):
/// per-level consultation. Compares cycle reduction and MNM query energy
/// of HMNM4 under the three placements on the full suite.
pub fn distributed_table(params: RunParams) -> Table {
    let hier_cfg = HierarchyConfig::paper_five_level();
    let cpu_cfg = CpuConfig::paper_eight_way();
    let apps = profiles::all();
    let placements = [MnmPlacement::Parallel, MnmPlacement::Serial, MnmPlacement::Distributed];

    let jobs: Vec<(usize, usize)> =
        (0..apps.len()).flat_map(|a| (0..=placements.len()).map(move |p| (a, p))).collect();
    let cycles = parallel_run(jobs, |&(a, p)| {
        let kind = if p == 0 {
            FilterPreset::Baseline
        } else {
            FilterPreset::Mnm(MnmConfig::hmnm(4).with_placement(placements[p - 1]))
        };
        run_app_timed(&apps[a], &hier_cfg, &cpu_cfg, &kind, params).cpu.cycles as f64
    });

    let columns = ["parallel red %", "serial red %", "distributed red %"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect::<Vec<_>>();
    let mut table = Table::new("Ablation 6: HMNM4 cycle reduction by placement", "app", &columns);
    let w = placements.len() + 1;
    for (a, app) in apps.iter().enumerate() {
        let base = cycles[a * w];
        let row: Vec<f64> = (1..w).map(|p| 100.0 * (base - cycles[a * w + p]) / base).collect();
        table.push_row(&app.name, row);
    }
    table.push_mean_row();
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlb_filter_is_sound_and_saves_lookups() {
        // One app: the run itself debug-asserts bypass soundness.
        let app = profiles::by_name("181.mcf").unwrap();
        let (hier, _) = replay_tlb(&app, "TMNM_10x3", 30_000);
        let tlb2 = hier.path(AccessKind::Load)[1];
        let l2 = hier.stats().structures[tlb2.index()];
        assert!(l2.bypasses > 0, "some L2 TLB lookups must be skipped on mcf");
        assert_eq!(l2.unsound_bypasses, 0);
    }

    #[test]
    fn replay_scheduler_rewards_mnm_knowledge() {
        let params = RunParams { warmup: 2_000, measure: 25_000 };
        let hier_cfg = HierarchyConfig::paper_five_level();
        let cpu = CpuConfig::paper_eight_way()
            .with_load_speculation(LoadSpeculation::Replay { penalty: 6 });
        let app = profiles::by_name("181.mcf").unwrap();
        let base = run_app_timed(&app, &hier_cfg, &cpu, &FilterPreset::Baseline, params);
        let hmnm = run_app_timed(&app, &hier_cfg, &cpu, &preset("HMNM4"), params);
        let perfect = run_app_timed(&app, &hier_cfg, &cpu, &FilterPreset::Perfect, params);
        assert!(base.cpu.replays > 0, "mcf must replay under speculation");
        assert!(hmnm.cpu.replays < base.cpu.replays, "MNM knowledge avoids replays");
        assert_eq!(perfect.cpu.replays, 0, "the oracle never replays");
        assert!(hmnm.cpu.cycles <= base.cpu.cycles);
        assert!(perfect.cpu.cycles <= hmnm.cpu.cycles);
    }

    #[test]
    fn distributed_placement_pays_per_level_delay() {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut mnm = mnm_core::Mnm::new(
            &hier,
            MnmConfig::parse("TMNM_10x1").unwrap().with_placement(MnmPlacement::Distributed),
        );
        // Cold access: everything flagged, 4 levels consulted.
        let r = mnm.run_access(&mut hier, Access::load(0x9000));
        assert_eq!(mnm.adjusted_latency(&r), r.latency + 2 * 4);
        // Warm access: L1 hit, no consultation beyond L1.
        let r = mnm.run_access(&mut hier, Access::load(0x9000));
        assert_eq!(mnm.adjusted_latency(&r), r.latency);
    }
}
