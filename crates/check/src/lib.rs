//! Differential soundness checker for the miss-determination filters.
//!
//! The paper's correctness contract (§3.6) is one-sided: an MNM may say
//! "maybe present" about anything, but a "definite miss" verdict must
//! never be wrong. The simulator enforces this with a `debug_assert!` in
//! the hierarchy's bypass path — which vanishes in release builds and
//! only fires *after* an unsound filter has already been asked to steer
//! the access. This crate closes both gaps: it replays randomized traces
//! through every filter in lockstep with the perfect oracle and an
//! independently implemented reference cache model, validating each
//! definite-miss flag against actual residency *before* the access is
//! driven, checking block conservation over the placement/replacement
//! event stream, and reconciling `HierarchyStats` against the reference
//! counters.
//!
//! When an invariant breaks, the failing trace is shrunk (ddmin-style
//! greedy bisection, [`shrink::shrink_ops`]) to a 1-minimal reproducer
//! and reported together with the `jsn check` command line that replays
//! it.
//!
//! Why the differential design is sound for `Lru`/`Fifo` (and why
//! `Random` is excluded): a sound filter's bypasses skip only lookups
//! that would have missed, so stamp assignments happen in the same order
//! in the filtered and unfiltered machines and victim selection — min
//! stamp, first index on ties — is identical. Residency, fills, and
//! evictions of the filtered hierarchy must therefore exactly equal an
//! unfiltered replay, which is what [`reference::RefModel`] computes.
//! `Random` replacement draws from a private per-cache stream that a
//! bypass would desynchronize, so the checker rejects it up front.

#![forbid(unsafe_code)]

pub mod corrupt;
pub mod generate;
pub mod harness;
pub mod multicore;
pub mod reference;
pub mod shrink;

pub use generate::{render_ops, scenario_seed, Op, TraceGen};
pub use harness::{check_ops, CheckCounters, Violation, ViolationKind};
pub use multicore::{
    run_multicore_scenario, run_multicore_suite, MulticoreChecker, MulticoreReport,
    MulticoreScenario, ShardWorkload, MULTICORE_FILTERS,
};
pub use reference::{RefCache, RefModel};
pub use shrink::shrink_ops;

use cache_sim::{CacheConfig, Hierarchy, HierarchyConfig, LevelConfig, ReplacementPolicy};
use mnm_core::FilterPreset;
use mnm_experiments::json::Json;

/// Filter labels the default suite sweeps: at least one preset per
/// technique family, every hybrid, and the perfect oracle itself (which
/// checks the checker — the oracle flags maximally and must never trip).
pub const DEFAULT_FILTERS: [&str; 11] = [
    "RMNM_128_1",
    "RMNM_512_2",
    "SMNM_13x2",
    "TMNM_12x1",
    "CMNM_8_12",
    "BLOOM_12x2",
    "HMNM1",
    "HMNM2",
    "HMNM3",
    "HMNM4",
    "PERFECT",
];

/// One fully-specified checker run, replayable from its fields alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Filter label (any [`FilterPreset::parse`] label).
    pub filter: String,
    /// Trace generator family.
    pub gen: TraceGen,
    /// Generator seed.
    pub seed: u64,
    /// Trace length in ops.
    pub len: usize,
}

impl Scenario {
    /// The `jsn check` invocation that replays exactly this scenario.
    pub fn reproducer_line(&self) -> String {
        format!(
            "jsn check --filter {} --gen {} --seed {:#x} --len {}",
            self.filter,
            self.gen.name(),
            self.seed,
            self.len
        )
    }

    /// The hierarchy this scenario runs on. The choice is a pure function
    /// of the generator so a seed line reproduces the whole machine:
    /// profile traces use the paper's five-level hierarchy; adversarial
    /// traces use a tiny conflict-heavy three-level machine (with a Fifo
    /// outer level so both supported policies stay covered) that the
    /// small arenas can actually thrash.
    pub fn hierarchy(&self) -> Hierarchy {
        match self.gen {
            TraceGen::Profile => Hierarchy::new(HierarchyConfig::paper_five_level()),
            TraceGen::Aliasing | TraceGen::FlushHeavy | TraceGen::Saturation => {
                Hierarchy::new(HierarchyConfig {
                    levels: vec![
                        LevelConfig::Split {
                            instr: CacheConfig::new("il1", 128, 1, 32, 1),
                            data: CacheConfig::new("dl1", 128, 1, 32, 1),
                        },
                        LevelConfig::Unified(CacheConfig::new("ul2", 512, 2, 32, 8)),
                        LevelConfig::Unified(
                            CacheConfig::new("ul3", 2048, 4, 64, 18)
                                .with_replacement(ReplacementPolicy::Fifo),
                        ),
                    ],
                    memory_latency: 100,
                    inclusive: false,
                })
            }
        }
    }
}

/// The outcome of one scenario: counters, plus the violation and its
/// minimized reproducer when the scenario failed.
#[derive(Debug)]
pub struct ScenarioReport {
    /// What was run.
    pub scenario: Scenario,
    /// Work done before the stream ended or the first violation.
    pub counters: CheckCounters,
    /// The first violation, if any.
    pub violation: Option<Violation>,
    /// The 1-minimal op stream still exhibiting a violation (only when
    /// `violation` is set).
    pub reproducer: Option<Vec<Op>>,
}

impl ScenarioReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }

    /// Render the failure block: scenario line, violation, minimized
    /// reproducer. Empty string when the scenario passed.
    pub fn render_failure(&self) -> String {
        let Some(violation) = &self.violation else {
            return String::new();
        };
        let mut out = String::new();
        out.push_str("soundness violation\n");
        out.push_str(&format!("  scenario: {}\n", self.scenario.reproducer_line()));
        out.push_str(&format!("  {violation}\n"));
        if let Some(ops) = &self.reproducer {
            out.push_str(&format!("  minimized reproducer ({} ops):\n", ops.len()));
            for line in render_ops(ops).lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        out
    }
}

/// Run one scenario: generate the trace, check it, and shrink on failure.
///
/// When the installed fault plan (`JSN_FAULT`) selects this scenario's
/// site for a `flip`, the run goes through
/// [`corrupt::run_corrupted_scenario`] instead: one filter-state bit is
/// flipped mid-trace and the checker is expected to catch the lie.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, String> {
    if matches!(FilterPreset::parse(&scenario.filter)?, FilterPreset::Mnm(_)) {
        if let Some(seed) = mnm_experiments::faults::flip_seed(&corrupt::scenario_site(scenario)) {
            return corrupt::run_corrupted_scenario(scenario, seed);
        }
    }
    run_plain_scenario(scenario)
}

/// The uncorrupted scenario path (also the fallback when no corrupting
/// flip exists for a fault-selected scenario).
pub(crate) fn run_plain_scenario(scenario: &Scenario) -> Result<ScenarioReport, String> {
    let ops = scenario.gen.generate(scenario.seed, scenario.len);
    let preset = FilterPreset::parse(&scenario.filter)?;
    let mut hierarchy = scenario.hierarchy();
    let mut filter = preset.build(&hierarchy);
    let (counters, violation) = check_ops(&ops, &mut hierarchy, &mut filter);

    let reproducer = violation.as_ref().map(|_| {
        shrink_ops(&ops, |candidate| {
            let mut h = scenario.hierarchy();
            let mut f = preset.build(&h);
            check_ops(candidate, &mut h, &mut f).1.is_some()
        })
    });

    Ok(ScenarioReport { scenario: scenario.clone(), counters, violation, reproducer })
}

/// Aggregate outcome of a suite sweep.
#[derive(Debug)]
pub struct SuiteReport {
    /// Every scenario run, in `(filter, gen, seed-index)` order.
    pub scenarios: Vec<ScenarioReport>,
}

impl SuiteReport {
    /// Whether every scenario passed.
    pub fn passed(&self) -> bool {
        self.scenarios.iter().all(ScenarioReport::passed)
    }

    /// The failing scenario reports.
    pub fn failures(&self) -> Vec<&ScenarioReport> {
        self.scenarios.iter().filter(|s| !s.passed()).collect()
    }

    /// Total accesses checked across all scenarios.
    pub fn total_accesses(&self) -> u64 {
        self.scenarios.iter().map(|s| s.counters.accesses).sum()
    }

    /// The machine-readable report (`jsn-check/v1`). Seeds are rendered
    /// as hex strings because they exceed JSON's exact-integer range.
    pub fn to_json(&self) -> Json {
        let scenarios = self
            .scenarios
            .iter()
            .map(|report| {
                let c = report.counters;
                let mut fields = vec![
                    ("filter", Json::str(&report.scenario.filter)),
                    ("gen", Json::str(report.scenario.gen.name())),
                    ("seed", Json::str(&format!("{:#x}", report.scenario.seed))),
                    ("len", Json::num(report.scenario.len as u32)),
                    ("passed", Json::Bool(report.passed())),
                    (
                        "counters",
                        Json::obj(vec![
                            ("accesses", Json::num(c.accesses as f64)),
                            ("flushes", Json::num(c.flushes as f64)),
                            ("flags", Json::num(c.flags as f64)),
                            ("flagged_accesses", Json::num(c.flagged_accesses as f64)),
                            ("audits", Json::num(c.audits as f64)),
                        ]),
                    ),
                ];
                if let Some(v) = &report.violation {
                    fields.push((
                        "violation",
                        Json::obj(vec![
                            ("index", Json::num(v.index as f64)),
                            ("kind", Json::str(&format!("{:?}", v.kind))),
                            ("detail", Json::str(&v.detail)),
                            ("replay", Json::str(&report.scenario.reproducer_line())),
                            (
                                "reproducer",
                                Json::str(
                                    report
                                        .reproducer
                                        .as_deref()
                                        .map(render_ops)
                                        .as_deref()
                                        .unwrap_or(""),
                                ),
                            ),
                        ]),
                    ));
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str("jsn-check/v1")),
            ("passed", Json::Bool(self.passed())),
            ("total_accesses", Json::num(self.total_accesses() as f64)),
            ("scenarios", Json::Arr(scenarios)),
        ])
    }
}

/// Sweep `seeds_per` deterministic seeds of every generator for each
/// filter label. Scenario seeds come from [`scenario_seed`], so the suite
/// is identical across runs and any failure's seed line replays alone.
pub fn run_suite(
    filters: &[&str],
    gens: &[TraceGen],
    seeds_per: u64,
    len: usize,
) -> Result<SuiteReport, String> {
    let mut scenarios = Vec::new();
    for &filter in filters {
        for &gen in gens {
            for k in 0..seeds_per {
                let scenario = Scenario {
                    filter: filter.to_owned(),
                    gen,
                    seed: scenario_seed(filter, gen, k),
                    len,
                };
                scenarios.push(run_scenario(&scenario)?);
            }
        }
    }
    Ok(SuiteReport { scenarios })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_filter_labels_all_build() {
        for label in DEFAULT_FILTERS {
            assert!(FilterPreset::parse(label).is_ok(), "{label}");
        }
        assert!(FilterPreset::parse("NOPE_1").is_err());
    }

    #[test]
    fn a_small_suite_passes_and_serializes() {
        let report = run_suite(&["HMNM4", "PERFECT"], &TraceGen::ALL, 1, 600).unwrap();
        assert!(report.passed(), "{:?}", report.failures().first().map(|f| f.render_failure()));
        assert_eq!(report.scenarios.len(), 2 * TraceGen::ALL.len());
        assert!(report.total_accesses() > 0);
        let json = report.to_json();
        assert_eq!(json.get("schema").and_then(Json::as_str), Some("jsn-check/v1"));
        assert_eq!(json.get("passed"), Some(&Json::Bool(true)));
        let rendered = json.render_pretty();
        let parsed = Json::parse(&rendered).expect("round-trips");
        assert_eq!(parsed, json);
    }

    #[test]
    fn scenario_reproducer_line_is_replayable_syntax() {
        let s = Scenario {
            filter: "TMNM_12x1".into(),
            gen: TraceGen::FlushHeavy,
            seed: 0xDEAD_BEEF,
            len: 512,
        };
        assert_eq!(
            s.reproducer_line(),
            "jsn check --filter TMNM_12x1 --gen flush --seed 0xdeadbeef --len 512"
        );
    }
}
