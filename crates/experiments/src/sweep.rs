//! The supervised `run-all` sweep: every experiment job under the
//! supervisor, checkpointed in a journal, resumable after a kill.
//!
//! The sweep is the composition of the crate's robustness layers:
//!
//! * each job runs via [`supervise`] — panics are isolated,
//!   deadlines enforced, retries bounded;
//! * every completed job is appended (fsynced) to the [`journal`] before
//!   the sweep moves on, so `--resume` replays completed work instead of
//!   recomputing it;
//! * final artifacts go through [`fsio::write_artifact`] — a kill leaves
//!   either the old artifact or the new one, never a torn file;
//! * a journal found in a fresh run's output directory is an interrupted
//!   run's marker: the sweep refuses to clobber it and points at
//!   `--resume`.
//!
//! Because journaled tables are replayed verbatim, an interrupted sweep
//! resumed to completion produces `all_experiments.json` tables identical
//! (tolerance 0) to an uninterrupted run's.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::ablation;
use crate::coverage::coverage_table;
use crate::depth::depth_fractions;
use crate::extensions;
use crate::faults;
use crate::fsio;
use crate::journal::{self, JobEntry, JournalWriter};
use crate::metrics::{self, RunManifest};
use crate::params::RunParams;
use crate::power::power_reduction_table;
use crate::related_work;
use crate::report::Table;
use crate::supervisor::{supervise, SupervisorConfig};
use crate::timing::{characteristics_table, execution_reduction_table};
use crate::{FIG10_CONFIGS, FIG11_CONFIGS, FIG12_CONFIGS, FIG13_CONFIGS, FIG14_CONFIGS};

/// One sweep job: a name (also its fault-injection site) and a generator
/// producing one or more named tables.
#[derive(Clone, Copy)]
pub struct JobSpec {
    /// Stable job name; journal entries and fault sites key on it.
    pub name: &'static str,
    /// The generator. Multi-table jobs (fig02+fig03 share one simulation
    /// pass) return several `(experiment name, table)` pairs.
    pub run: fn(RunParams) -> Vec<(String, Table)>,
}

fn one(name: &str, table: Table) -> Vec<(String, Table)> {
    vec![(name.to_owned(), table)]
}

fn job_depth(params: RunParams) -> Vec<(String, Table)> {
    let (fig2, fig3) = depth_fractions(params);
    vec![
        ("fig02_miss_time_fraction".to_owned(), fig2),
        ("fig03_miss_power_fraction".to_owned(), fig3),
    ]
}

/// Every experiment of the full sweep, in output order.
pub const JOBS: &[JobSpec] = &[
    JobSpec { name: "fig02_fig03_depth", run: job_depth },
    JobSpec {
        name: "table2_characteristics",
        run: |p| one("table2_characteristics", characteristics_table(p)),
    },
    JobSpec {
        name: "fig10_rmnm_coverage",
        run: |p| {
            one(
                "fig10_rmnm_coverage",
                coverage_table("Figure 10: RMNM coverage [%]", &FIG10_CONFIGS, p),
            )
        },
    },
    JobSpec {
        name: "fig11_smnm_coverage",
        run: |p| {
            one(
                "fig11_smnm_coverage",
                coverage_table("Figure 11: SMNM coverage [%]", &FIG11_CONFIGS, p),
            )
        },
    },
    JobSpec {
        name: "fig12_tmnm_coverage",
        run: |p| {
            one(
                "fig12_tmnm_coverage",
                coverage_table("Figure 12: TMNM coverage [%]", &FIG12_CONFIGS, p),
            )
        },
    },
    JobSpec {
        name: "fig13_cmnm_coverage",
        run: |p| {
            one(
                "fig13_cmnm_coverage",
                coverage_table("Figure 13: CMNM coverage [%]", &FIG13_CONFIGS, p),
            )
        },
    },
    JobSpec {
        name: "fig14_hmnm_coverage",
        run: |p| {
            one(
                "fig14_hmnm_coverage",
                coverage_table("Figure 14: HMNM coverage [%]", &FIG14_CONFIGS, p),
            )
        },
    },
    JobSpec {
        name: "fig15_execution_reduction",
        run: |p| one("fig15_execution_reduction", execution_reduction_table(p)),
    },
    JobSpec {
        name: "fig16_power_reduction",
        run: |p| one("fig16_power_reduction", power_reduction_table(p)),
    },
    JobSpec {
        name: "ablation_placement",
        run: |p| one("ablation_placement", ablation::placement_table(p)),
    },
    JobSpec {
        name: "ablation_counter_width",
        run: |p| one("ablation_counter_width", ablation::counter_width_table(p)),
    },
    JobSpec {
        name: "ablation_rmnm_sweep",
        run: |p| one("ablation_rmnm_sweep", ablation::rmnm_sweep_table(p)),
    },
    JobSpec { name: "ablation_delay", run: |p| one("ablation_delay", ablation::delay_table(p)) },
    JobSpec {
        name: "ablation_inclusion",
        run: |p| one("ablation_inclusion", ablation::inclusion_table(p)),
    },
    JobSpec {
        name: "ablation_phase_drift",
        run: |p| one("ablation_phase_drift", ablation::phase_drift_table(p)),
    },
    JobSpec {
        name: "ablation_l1_size",
        run: |p| one("ablation_l1_size", ablation::l1_size_table(p)),
    },
    JobSpec {
        name: "ext_distributed",
        run: |p| one("ext_distributed", extensions::distributed_table(p)),
    },
    JobSpec {
        name: "ext_tlb_filter",
        run: |p| one("ext_tlb_filter", extensions::tlb_filter_table(p)),
    },
    JobSpec {
        name: "ext_scheduler_replay",
        run: |p| one("ext_scheduler_replay", extensions::scheduler_replay_table(p)),
    },
    JobSpec {
        name: "related_way_prediction",
        run: |p| one("related_way_prediction", related_work::way_prediction_table(p)),
    },
    JobSpec { name: "related_bloom", run: |p| one("related_bloom", related_work::bloom_table(p)) },
];

/// Everything configuring one sweep invocation.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Output directory for the journal and final artifacts.
    pub out: PathBuf,
    /// Resume from the journal in `out` instead of starting fresh.
    pub resume: bool,
    /// Instruction budgets.
    pub params: RunParams,
    /// Worker threads (recorded in the manifest).
    pub threads: usize,
    /// Supervision policy.
    pub supervisor: SupervisorConfig,
    /// Restrict to these job names (testing / partial reruns).
    pub only: Option<Vec<String>>,
    /// Stop (as if killed) after this many jobs executed in THIS run —
    /// test hook for kill-and-resume; completed work stays journaled,
    /// no final artifacts are written.
    pub stop_after: Option<usize>,
    /// Suppress per-table stdout.
    pub quiet: bool,
}

impl SweepOptions {
    /// Defaults for `out`: full job list, no resume, default supervision.
    pub fn new(out: PathBuf, params: RunParams) -> Self {
        SweepOptions {
            out,
            resume: false,
            params,
            threads: 1,
            supervisor: SupervisorConfig::default(),
            only: None,
            stop_after: None,
            quiet: false,
        }
    }
}

/// What a sweep did, for callers and the CLI summary.
#[derive(Debug)]
pub struct SweepSummary {
    /// Output directory.
    pub out: PathBuf,
    /// Jobs actually executed in this invocation.
    pub executed: usize,
    /// Jobs replayed from the journal.
    pub resumed: usize,
    /// Jobs that exhausted their retries.
    pub failed: Vec<String>,
    /// Whether `stop_after` cut the sweep short.
    pub interrupted: bool,
    /// Faults the plan fired during this invocation.
    pub injected: Vec<faults::InjectedFault>,
}

/// Print, render to markdown and record one finished job's tables, the
/// same for a job replayed from the journal as for one just executed.
/// The job's wall time is split evenly across its tables.
fn emit_job(entry: &JobEntry, quiet: bool, md: &mut String, manifest: &mut RunManifest) {
    let per_table = Duration::from_millis(entry.wall_ms / entry.tables.len().max(1) as u64);
    for (name, table) in &entry.tables {
        if !quiet {
            print!("{}", table.render());
            println!();
        }
        md.push_str(&table.to_markdown());
        md.push('\n');
        manifest.push(name, per_table, table.clone());
    }
}

/// Run (or resume) the supervised sweep.
pub fn run_sweep(opts: &SweepOptions) -> Result<SweepSummary, String> {
    let jobs: Vec<&JobSpec> = match &opts.only {
        None => JOBS.iter().collect(),
        Some(names) => {
            for n in names {
                if !JOBS.iter().any(|j| j.name == n) {
                    return Err(format!("run-all: unknown job `{n}` in --only"));
                }
            }
            JOBS.iter().filter(|j| names.iter().any(|n| n == j.name)).collect()
        }
    };

    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("cannot create output directory {}: {e}", opts.out.display()))?;

    // Open (or refuse to clobber) the journal.
    let (mut writer, completed) = if opts.resume {
        let loaded = journal::load(&opts.out)?
            .ok_or_else(|| format!("nothing to resume: no journal in {}", opts.out.display()))?;
        if loaded.params != opts.params {
            return Err(format!(
                "cannot resume: journal in {} was written with warmup={} measure={}, \
                 current parameters are warmup={} measure={}",
                opts.out.display(),
                loaded.params.warmup,
                loaded.params.measure,
                opts.params.warmup,
                opts.params.measure
            ));
        }
        if loaded.truncated_tail {
            eprintln!(
                "resume: dropped a torn final journal line (previous run was killed mid-append)"
            );
        }
        let writer = JournalWriter::open_resume(&opts.out)
            .map_err(|e| format!("cannot reopen journal: {e}"))?;
        (writer, loaded.entries)
    } else {
        if journal::journal_path(&opts.out).exists() {
            return Err(format!(
                "{} contains the journal of an interrupted or failed run; \
                 pass `--resume {}` to continue it, or delete the directory to start over",
                opts.out.display(),
                opts.out.display()
            ));
        }
        let writer = JournalWriter::create(&opts.out, opts.params)
            .map_err(|e| format!("cannot create journal: {e}"))?;
        (writer, Vec::new())
    };

    metrics::enable_telemetry();
    let started = Instant::now();
    let params = opts.params;

    let mut md = String::from("# Generated experiment results\n\n");
    md.push_str(&format!(
        "Parameters: warmup {} + measured {} instructions per app ({} worker threads).\n\n",
        params.warmup, params.measure, opts.threads
    ));
    let mut manifest =
        RunManifest { params: Some(params), threads: opts.threads as u64, ..Default::default() };

    let mut executed = 0usize;
    let mut resumed = 0usize;
    let mut failed: Vec<String> = Vec::new();
    let mut interrupted = false;

    for spec in jobs {
        // Completed in a previous run: replay the journaled tables.
        if let Some(entry) = completed.iter().find(|e| e.job == spec.name) {
            resumed += 1;
            if !opts.quiet {
                println!("resume: `{}` replayed from journal", spec.name);
            }
            emit_job(entry, opts.quiet, &mut md, &mut manifest);
            manifest.jobs.push(entry.report.clone());
            continue;
        }

        // Simulated kill point (tests only).
        if opts.stop_after == Some(executed) {
            interrupted = true;
            break;
        }

        let (result, report) = supervise(spec.name, opts.supervisor, move || (spec.run)(params));
        let wall_ms = report.attempts.last().map_or(0, |a| a.wall_ms);
        manifest.jobs.push(report.clone());

        match result {
            Some(tables) => {
                executed += 1;
                let entry = JobEntry { job: spec.name.to_owned(), wall_ms, report, tables };
                writer.append(&entry).map_err(|e| format!("journal append failed: {e}"))?;
                emit_job(&entry, opts.quiet, &mut md, &mut manifest);
            }
            None => {
                // Isolation: a dead job does not abort the sweep.
                eprintln!(
                    "error: job `{}` failed after {} attempt(s); continuing with the rest",
                    spec.name,
                    report.attempts.len()
                );
                failed.push(spec.name.to_owned());
            }
        }
    }

    manifest.injected = faults::injected();

    if interrupted {
        // As if killed: journal persists, no artifacts are written.
        return Ok(SweepSummary {
            out: opts.out.clone(),
            executed,
            resumed,
            failed,
            interrupted,
            injected: manifest.injected,
        });
    }

    manifest.absorb_telemetry();
    manifest.total_wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let md_path = opts.out.join("all_experiments.md");
    fsio::write_artifact(&md_path, md.as_bytes())
        .map_err(|e| format!("could not write {}: {e}", md_path.display()))?;
    let json_path = opts.out.join("all_experiments.json");
    fsio::write_artifact(&json_path, manifest.to_json().render_pretty().as_bytes())
        .map_err(|e| format!("could not write {}: {e}", json_path.display()))?;
    if !opts.quiet {
        println!("wrote {}", md_path.display());
        println!("wrote {}", json_path.display());
    }

    // Re-snapshot: the artifact writes above may themselves have drawn
    // (and recovered from) torn-write faults. Those can't appear inside
    // the manifest they interrupted, but the summary must report them.
    let injected = faults::injected();
    if failed.is_empty() {
        // A clean finish retires the journal; its presence is the durable
        // marker of an interrupted or failed run.
        writer.remove().map_err(|e| format!("could not remove journal: {e}"))?;
    } else {
        eprintln!(
            "journal kept at {} — `--resume` will retry the failed job(s)",
            journal::journal_path(&opts.out).display()
        );
    }

    Ok(SweepSummary { out: opts.out.clone(), executed, resumed, failed, interrupted, injected })
}

/// The `jsn run-all` sweep: run it and print the summary. Returns
/// `Ok(true)` when every job succeeded, `Ok(false)` when some failed
/// (artifacts still written), `Err` on configuration/IO errors.
pub fn run_cli(opts: &SweepOptions) -> Result<bool, String> {
    let started = Instant::now();
    let summary = run_sweep(opts)?;
    println!(
        "jobs: {} executed, {} resumed, {} failed",
        summary.executed,
        summary.resumed,
        summary.failed.len()
    );
    for name in &summary.failed {
        eprintln!("failed: {name}");
    }
    if !summary.injected.is_empty() {
        let count = |kind: &str| summary.injected.iter().filter(|f| f.kind == kind).count();
        println!(
            "injected faults: {} panic, {} stall, {} torn, {} flip",
            count("panic"),
            count("stall"),
            count("torn"),
            count("flip")
        );
        if summary.failed.is_empty() {
            println!("all injected faults recovered");
        }
    }
    println!("total wall time: {:.1}s", started.elapsed().as_secs_f64());
    Ok(summary.failed.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_names_are_unique_and_match_the_legacy_order() {
        let names: Vec<&str> = JOBS.iter().map(|j| j.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate job name");
        assert_eq!(names[0], "fig02_fig03_depth");
        assert_eq!(names.len(), 21);
        assert!(names.contains(&"related_bloom"));
    }

    #[test]
    fn unknown_only_job_is_rejected() {
        let opts = SweepOptions {
            only: Some(vec!["no_such_job".to_owned()]),
            ..SweepOptions::new(std::env::temp_dir().join("jsn-sweep-unused"), RunParams::quick())
        };
        assert!(run_sweep(&opts).unwrap_err().contains("no_such_job"));
    }
}
