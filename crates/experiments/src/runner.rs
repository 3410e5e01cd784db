//! Per-application simulation drivers and the parallel job runner.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cache_sim::{Access, Hierarchy, HierarchyConfig, HierarchyStats};
use mnm_core::{FilterPreset, MnmStats, ReplayFilter};
use ooo_model::{simulate, CpuConfig, CpuStats};
use trace_synth::{AppProfile, InstrKind, Program};

use crate::params::{worker_threads, RunParams};

/// Parse an experiment's filter label ([`FilterPreset::parse`]).
///
/// # Panics
///
/// Panics on an unknown label (experiment configuration is static).
pub fn preset(label: &str) -> FilterPreset {
    FilterPreset::parse(label).unwrap_or_else(|e| panic!("bad experiment config: {e}"))
}

/// Everything measured in one application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Application name.
    pub app: String,
    /// Configuration label.
    pub config: String,
    /// Hierarchy counters over the measured phase.
    pub hierarchy: HierarchyStats,
    /// MNM counters over the measured phase (None for baseline/perfect).
    pub mnm: Option<MnmStats>,
    /// Per-MNM-query energy inputs: component storage, for the power model.
    pub mnm_storage: Vec<mnm_core::ComponentStorage>,
    /// MNM placement (copied from the config; None for baseline/perfect).
    pub mnm_placement: Option<mnm_core::MnmPlacement>,
    /// Core timing results (zeroed for functional runs).
    pub cpu: CpuStats,
    /// 1-based level of each structure (parallel to `hierarchy.structures`).
    pub level_of_structure: Vec<u8>,
    /// Structure names (parallel to `hierarchy.structures`).
    pub structure_names: Vec<String>,
}

impl AppRun {
    /// Accesses that missed in L1 (serial-MNM query count).
    pub fn l1_miss_accesses(&self) -> u64 {
        // Every L1 miss probes a level-2 structure (or memory); count the
        // references arriving at level-2 structures.
        self.hierarchy
            .structures
            .iter()
            .zip(&self.level_of_structure)
            .filter(|(_, &lvl)| lvl == 2)
            .map(|(s, _)| s.probes + s.bypasses)
            .sum()
    }
}

/// Drive one application through the full OoO timing model.
pub fn run_app_timed(
    profile: &AppProfile,
    hier_cfg: &HierarchyConfig,
    cpu_cfg: &CpuConfig,
    preset: &FilterPreset,
    params: RunParams,
) -> AppRun {
    let mut hierarchy = Hierarchy::new(hier_cfg.clone());
    let mut filter = preset.build(&hierarchy);
    let mut program = Program::new(profile.clone());
    simulate(cpu_cfg, &mut hierarchy, &mut filter, &mut program, params.warmup);
    reset_stats(&mut hierarchy, &mut filter);
    let cpu = simulate(cpu_cfg, &mut hierarchy, &mut filter, &mut program, params.measure);
    finish(profile, preset, hierarchy, filter, cpu)
}

/// Drive one application through the hierarchy only (no core timing):
/// instruction fetches at fetch-block granularity plus every load/store.
/// Much faster than [`run_app_timed`]; used for the coverage and power
/// experiments, which do not need cycles.
pub fn run_app_functional(
    profile: &AppProfile,
    hier_cfg: &HierarchyConfig,
    preset: &FilterPreset,
    params: RunParams,
) -> AppRun {
    let mut hierarchy = Hierarchy::new(hier_cfg.clone());
    let mut filter = preset.build(&hierarchy);
    let fetch_shift = hierarchy
        .structures()
        .iter()
        .find(|s| s.level == 1 && !s.data_only)
        .map(|s| s.block_bytes.trailing_zeros())
        .expect("L1 instruction structure");

    let mut program = Program::new(profile.clone());
    // Mirrors the timed model's fetch behaviour exactly (including the
    // refetch after a mispredict and the fresh fetch block per phase) so
    // functional and timed runs see identical reference streams.
    let mut drive = |hierarchy: &mut Hierarchy, filter: &mut ReplayFilter, n: u64| {
        let mut cur_block = u64::MAX;
        let mut done = 0;
        for instr in &mut program {
            let block = instr.pc >> fetch_shift;
            if block != cur_block {
                cur_block = block;
                hierarchy.step(filter, Access::fetch(instr.pc));
            }
            match instr.kind {
                InstrKind::Load { addr } => {
                    hierarchy.step(filter, Access::load(addr));
                }
                InstrKind::Store { addr } => {
                    hierarchy.step(filter, Access::store(addr));
                }
                InstrKind::Branch { mispredicted } => {
                    if mispredicted {
                        cur_block = u64::MAX;
                    }
                }
                InstrKind::Op { .. } => {}
            }
            done += 1;
            if done >= n {
                break;
            }
        }
    };

    drive(&mut hierarchy, &mut filter, params.warmup);
    reset_stats(&mut hierarchy, &mut filter);
    drive(&mut hierarchy, &mut filter, params.measure);

    finish(profile, preset, hierarchy, filter, CpuStats::default())
}

/// End of warm-up: zero the counters, keep cache and filter state.
fn reset_stats(hierarchy: &mut Hierarchy, filter: &mut ReplayFilter) {
    hierarchy.reset_stats();
    if let Some(m) = filter.mnm_mut() {
        m.reset_stats();
    }
}

fn finish(
    profile: &AppProfile,
    preset: &FilterPreset,
    hierarchy: Hierarchy,
    filter: ReplayFilter,
    cpu: CpuStats,
) -> AppRun {
    let mnm = filter.mnm();
    let run = AppRun {
        app: profile.name.clone(),
        config: preset.label(),
        level_of_structure: hierarchy.structures().iter().map(|s| s.level).collect(),
        structure_names: hierarchy.structures().iter().map(|s| s.name.clone()).collect(),
        hierarchy: hierarchy.stats().clone(),
        mnm_storage: mnm.map(|m| m.storage()).unwrap_or_default(),
        mnm_placement: mnm.map(|m| m.config().placement),
        mnm: mnm.map(|m| m.stats().clone()),
        cpu,
    };
    crate::metrics::record_app_run(&run);
    run
}

/// Run `jobs` on a bounded worker pool, preserving order.
///
/// Each job writes its result (and duration) into its own slot, so
/// completed workers never contend on a shared lock. A panicking job is
/// reported by index and payload instead of surfacing as an opaque
/// scoped-thread panic. Pool and per-job timings feed the telemetry recorder
/// when [`crate::metrics::enable_telemetry`] is active.
///
/// # Panics
///
/// Panics if any job panics, naming the failing job.
pub fn parallel_run<J, T, F>(jobs: Vec<J>, f: F) -> Vec<T>
where
    J: Sync,
    T: Send,
    F: Fn(&J) -> T + Sync,
{
    let n = jobs.len();
    // One mutex per slot: each is locked exactly once by the worker that
    // ran the job, so there is no cross-worker contention on completion.
    let slots: Vec<Mutex<Option<(T, Duration)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panicked: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let next = AtomicUsize::new(0);
    let jobs_ref = &jobs;
    let f_ref = &f;
    let slots_ref = &slots;
    let panicked_ref = &panicked;
    let workers = worker_threads().min(n.max(1));

    let pool_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let job_start = Instant::now();
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    f_ref(&jobs_ref[idx])
                }));
                match out {
                    Ok(value) => {
                        *slots_ref[idx].lock().expect("slot lock poisoned") =
                            Some((value, job_start.elapsed()));
                    }
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| payload.downcast_ref::<&str>().copied())
                            .unwrap_or("non-string panic payload")
                            .to_owned();
                        let mut guard = panicked_ref.lock().expect("panic slot poisoned");
                        if guard.is_none() {
                            *guard = Some((idx, msg));
                        }
                        // Stop claiming work; other workers drain and exit.
                        next.store(n, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });

    if let Some((idx, msg)) = panicked.into_inner().expect("panic slot poisoned") {
        panic!("parallel job {idx} of {n} panicked: {msg}");
    }

    let mut durations = Vec::with_capacity(n);
    let results = slots
        .into_iter()
        .map(|slot| {
            let (value, took) =
                slot.into_inner().expect("slot lock poisoned").expect("job completed");
            durations.push(took);
            value
        })
        .collect();
    crate::metrics::record_pool(n, workers, pool_start.elapsed(), &durations);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_synth::profiles;

    #[test]
    fn functional_and_timed_agree_on_cache_contents() {
        let profile = profiles::by_name("164.gzip").unwrap();
        let params = RunParams { warmup: 2_000, measure: 20_000 };
        let cfg = HierarchyConfig::paper_five_level();
        let f = run_app_functional(&profile, &cfg, &FilterPreset::Baseline, params);
        let t = run_app_timed(
            &profile,
            &cfg,
            &CpuConfig::paper_eight_way(),
            &FilterPreset::Baseline,
            params,
        );
        // The same reference stream hits the same levels.
        assert_eq!(f.hierarchy.data_accesses, t.hierarchy.data_accesses);
        assert_eq!(f.hierarchy.supplies_by_level, t.hierarchy.supplies_by_level);
        assert_eq!(t.cpu.instructions, 20_000);
        assert_eq!(f.cpu.instructions, 0);
    }

    #[test]
    fn mnm_runs_collect_coverage() {
        let profile = profiles::by_name("181.mcf").unwrap();
        let params = RunParams { warmup: 5_000, measure: 30_000 };
        let cfg = HierarchyConfig::paper_five_level();
        let run = run_app_functional(&profile, &cfg, &preset("HMNM4"), params);
        let st = run.mnm.expect("mnm stats");
        assert!(st.bypassable_misses() > 0);
        assert!(st.coverage() > 0.0);
        assert!(!run.mnm_storage.is_empty());
    }

    #[test]
    fn perfect_covers_everything() {
        let profile = profiles::by_name("181.mcf").unwrap();
        let params = RunParams { warmup: 2_000, measure: 20_000 };
        let cfg = HierarchyConfig::paper_five_level();
        let run = run_app_functional(&profile, &cfg, &FilterPreset::Perfect, params);
        // Every probed non-L1 structure miss should have been bypassed:
        // only L1 misses remain.
        for (st, lvl) in run.hierarchy.structures.iter().zip(&run.level_of_structure) {
            if *lvl >= 2 {
                assert_eq!(st.misses, 0, "perfect MNM leaves no probed miss at level {lvl}");
            }
        }
    }

    #[test]
    fn parallel_run_preserves_order() {
        let jobs: Vec<u64> = (0..100).collect();
        let out = parallel_run(jobs, |&j| j * j);
        assert_eq!(out[7], 49);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn parallel_run_names_the_panicking_job() {
        let payload = std::panic::catch_unwind(|| {
            parallel_run((0..16).collect::<Vec<u64>>(), |&j| {
                if j == 11 {
                    panic!("job eleven exploded");
                }
                j
            })
        })
        .expect_err("must propagate the panic");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("parallel job 11 of 16"), "got: {msg}");
        assert!(msg.contains("job eleven exploded"), "got: {msg}");
    }

    #[test]
    fn parallel_run_handles_empty_and_single_job_lists() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_run(empty, |&j: &u64| j).is_empty());
        assert_eq!(parallel_run(vec![5u64], |&j| j + 1), vec![6]);
    }

    #[test]
    fn experiment_labels_round_trip() {
        for label in ["Baseline", "Perfect", "HMNM3", "TMNM_12x3"] {
            assert_eq!(preset(label).label(), label);
        }
    }
}
