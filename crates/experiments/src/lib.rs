//! # mnm-experiments
//!
//! The experiment harness: one runnable target per table and figure of the
//! HPCA 2003 *"Just Say No"* paper, plus the ablation studies listed in
//! `DESIGN.md`.
//!
//! Every binary prints the same rows/series the paper reports (apps on the
//! x-axis, one series per configuration, plus the arithmetic mean) and
//! exits. See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.
//!
//! Instruction budgets default to 300 k warmup + 2 M measured per app and
//! can be overridden with the `JSN_WARMUP` / `JSN_MEASURE` environment
//! variables (`JSN_THREADS` bounds worker parallelism); malformed values
//! are rejected, not ignored. Set `JSN_JSON=1` to mirror every table as
//! `<out>/<slug>.json` (`JSN_OUT` picks the directory), and see
//! [`metrics`] for the run-manifest schema behind
//! `results/all_experiments.json` and `jsn diff`.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod analytic;
pub mod coverage;
pub mod depth;
pub mod extensions;
pub mod faults;
pub mod fsio;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod params;
pub mod power;
pub mod related_work;
pub mod report;
pub mod runner;
pub mod supervisor;
pub mod sweep;
pub mod timing;

pub use json::Json;
pub use metrics::{emit, RunManifest};
pub use params::RunParams;
pub use report::Table;

/// The four RMNM configurations of Figure 10.
pub const FIG10_CONFIGS: [&str; 4] = ["RMNM_128_1", "RMNM_512_2", "RMNM_2048_4", "RMNM_4096_8"];
/// The four SMNM configurations of Figure 11.
pub const FIG11_CONFIGS: [&str; 4] = ["SMNM_10x2", "SMNM_13x2", "SMNM_15x2", "SMNM_20x3"];
/// The four TMNM configurations of Figure 12.
pub const FIG12_CONFIGS: [&str; 4] = ["TMNM_10x1", "TMNM_11x2", "TMNM_10x3", "TMNM_12x3"];
/// The four CMNM configurations of Figure 13.
pub const FIG13_CONFIGS: [&str; 4] = ["CMNM_2_9", "CMNM_4_10", "CMNM_8_10", "CMNM_8_12"];
/// The four hybrid configurations of Figure 14 (paper Table 3).
pub const FIG14_CONFIGS: [&str; 4] = ["HMNM1", "HMNM2", "HMNM3", "HMNM4"];
/// The realizable configurations compared in Figures 15 and 16
/// (a perfect-MNM series is appended by those experiments).
pub const FIG15_CONFIGS: [&str; 4] = ["TMNM_12x3", "CMNM_8_10", "HMNM2", "HMNM4"];
