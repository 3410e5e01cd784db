//! # jsn-bench
//!
//! One benchmark for the three entry points of the reproduction — offline
//! replay (`Mnm::run_many`), the served trace stream (`jsn serve`) and the
//! sharded multi-core simulator (`jsn shard`) — measuring "trace records
//! in, verdicts out" end to end and, in a separate traced run, the host
//! cost of each layer.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; the program under test carries no tracing of its own. The
//! layers are the workspace crates: `trace` (input synthesis), `core`
//! (`Mnm::query`, `Mnm::observe_events` + `Mnm::note_probes`), `cache_sim`
//! (`Hierarchy::access_with_events`), `serve` and `shard`.
//!
//! [`run`] executes one workload and returns an [`Outcome`]: the metrics
//! the run reports, the correctness checks it made, and the spans it
//! recorded. The `jsn_bench` binary prints and files that outcome. The
//! gated host times are scaled to a reference speed measured beside the
//! work ([`hostspeed`], [`reference`]), because the reference host's
//! neighbours change its speed by up to a factor of two.

pub mod compare;
pub mod hostspeed;
pub mod ledger;
pub mod metrics;
pub mod reference;
pub mod report;

mod replay;
mod serve;
mod shard;

use cache_sim::{Access, HierarchyStats};
use mnm_core::{MnmConfig, MnmStats};
use mnm_experiments::json::Json;
use trace_synth::{profiles, AppProfile, InstrKind, Program};

pub use metrics::{Check, Metric, Outcome};

/// `BENCHMARK.json` at the repository root: the workloads, the metrics
/// with their units, directions and bounds, and the run length.
pub const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// [`BENCHMARK`], parsed.
pub fn benchmark() -> Json {
    Json::parse(BENCHMARK).expect("BENCHMARK.json parses")
}

/// Length of a run's measured phase in seconds: `run_seconds` of
/// `BENCHMARK.json`.
pub fn run_seconds() -> f64 {
    benchmark().get("run_seconds").and_then(Json::as_f64).expect("BENCHMARK.json run_seconds")
}

/// The filter every workload runs: the paper's hybrid HMNM4.
pub const FILTER: &str = "HMNM4";

/// The seed whose simulated statistics are pinned in `pins.json`.
pub const PINNED_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 164.gzip through `Mnm::run_many`: the footprint fits in ul4, so the
    /// filter query does most of the work.
    ReplayResident,
    /// 181.mcf through `Mnm::run_many`: the footprint dwarfs ul5, so the
    /// hierarchy walk and filter feedback do most of the work.
    ReplayMemory,
    /// 164.gzip records streamed to an in-process `jsn serve` over
    /// loopback by one closed-loop client.
    ServeLoopback,
    /// 181.mcf on two simulated cores with a quarter of the lines shared,
    /// run by the pipelined shard engine.
    ShardCoherent,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ReplayResident,
        Workload::ReplayMemory,
        Workload::ServeLoopback,
        Workload::ShardCoherent,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayResident => "replay_resident",
            Workload::ReplayMemory => "replay_memory",
            Workload::ServeLoopback => "serve_loopback",
            Workload::ShardCoherent => "shard_coherent",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The synthetic application the workload replays.
    pub fn profile(self) -> &'static str {
        match self {
            Workload::ReplayResident | Workload::ServeLoopback => "164.gzip",
            Workload::ReplayMemory | Workload::ShardCoherent => "181.mcf",
        }
    }
}

/// How much work one run does, apart from its duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sizes {
    /// Replay: accesses driven during set-up, before measurement, so
    /// caches and filters start the measured phase warm.
    pub warmup: usize,
    /// Replay: accesses per timed slice, and the length of the window the
    /// correctness checks replay.
    pub slice: usize,
    /// Accesses per `Mnm::run_many` call, and trace records per serve frame.
    pub batch: usize,
    /// Serve: trace records per session.
    pub records: usize,
    /// Shard: accesses per simulated core per run.
    pub per_core: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Sizes {
    /// The sizes the benchmark runs with.
    pub fn standard(workload: Workload) -> Sizes {
        Sizes {
            warmup: if workload == Workload::ReplayMemory { 2_000_000 } else { 1_000_000 },
            slice: 262_144,
            // Serve frames carry the most whole multiples of 1024 records
            // that fit the protocol's 64 KiB frame bound.
            batch: if workload == Workload::ServeLoopback { 3072 } else { 1024 },
            records: 262_144,
            per_core: 100_000,
            // At least three, and as many as take about a second: the
            // shorter a set-up, the more of its time is host noise.
            setups: match workload {
                Workload::ReplayMemory => 3,
                Workload::ReplayResident => 5,
                Workload::ServeLoopback | Workload::ShardCoherent => 9,
            },
        }
    }

    /// Small sizes for tests: every code path, a fraction of the work.
    pub fn tiny() -> Sizes {
        Sizes { warmup: 20_000, slice: 8192, batch: 256, records: 8192, per_core: 8192, setups: 2 }
    }

    /// The sizes a workload uses, for the report's provenance.
    pub fn describe(&self, workload: Workload) -> Vec<(&'static str, f64)> {
        let mut out = vec![("setups", self.setups as f64), ("batch", self.batch as f64)];
        match workload {
            Workload::ReplayResident | Workload::ReplayMemory => {
                out.push(("warmup_accesses", self.warmup as f64));
                out.push(("slice_accesses", self.slice as f64));
            }
            Workload::ServeLoopback => {
                out.push(("session_records", self.records as f64));
            }
            Workload::ShardCoherent => {
                out.push(("cores", shard::CORES as f64));
                out.push(("accesses_per_core", self.per_core as f64));
            }
        }
        out
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seeds the synthetic inputs; the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase in host seconds: [`run_seconds`] for
    /// the benchmark, shorter in tests.
    pub seconds: f64,
    /// Run the per-layer ledger instead of the end-to-end measurement.
    pub trace: bool,
    /// Work sizes.
    pub sizes: Sizes,
}

/// Run one workload.
pub fn run(opts: &Options) -> Outcome {
    let mut out = match opts.workload {
        Workload::ReplayResident | Workload::ReplayMemory => replay::run(opts),
        Workload::ServeLoopback => serve::run(opts),
        Workload::ShardCoherent => shard::run(opts),
    };
    out.notes.push(
        "maccs, batch_p*_us and setup_s are at reference speed: each timed unit is divided by \
         the slowdown of a reference timed right after it on the vCPUs it ran on (replay slices \
         and shard runs: the frozen copy of the simulator over the same accesses; sessions and \
         set-ups: the reference kernel); the raw_* extras are as measured"
            .to_owned(),
    );
    out
}

/// `profile` with its generator seed derived from the benchmark seed.
/// Seed 0 keeps the profile's own seed.
pub fn seeded_profile(name: &str, seed: u64) -> AppProfile {
    let mut profile = profiles::by_name(name).expect("benchmark profiles exist");
    profile.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    profile
}

/// Fetch-block size of the paper hierarchy's L1-I: one instruction fetch
/// per new 32-byte block, as in every replay driver of the workspace.
const FETCH_SHIFT: u32 = 5;

/// An endless access stream from a synthetic program: one fetch per new
/// fetch block (refetched after a misprediction) and one data access per
/// load or store — the single-core convention of `jsn run`.
pub struct AccessSource {
    program: Program,
    cur_block: u64,
    pending: Option<Access>,
}

impl AccessSource {
    /// A stream over `profile`.
    pub fn new(profile: AppProfile) -> AccessSource {
        AccessSource { program: Program::new(profile), cur_block: u64::MAX, pending: None }
    }

    /// Replace `out`'s contents with the next `n` accesses. `out` never
    /// grows past `n`, so a buffer reserved once is never reallocated.
    pub fn fill(&mut self, out: &mut Vec<Access>, n: usize) {
        out.clear();
        out.extend(self.pending.take());
        while out.len() < n {
            let instr = self.program.next().expect("synthetic programs are endless");
            let block = instr.pc >> FETCH_SHIFT;
            if block != self.cur_block {
                self.cur_block = block;
                out.push(Access::fetch(instr.pc));
            }
            let data = match instr.kind {
                InstrKind::Load { addr } => Access::load(addr),
                InstrKind::Store { addr } => Access::store(addr),
                InstrKind::Branch { mispredicted } => {
                    if mispredicted {
                        self.cur_block = u64::MAX;
                    }
                    continue;
                }
                InstrKind::Op { .. } => continue,
            };
            if out.len() < n {
                out.push(data);
            } else {
                self.pending = Some(data);
            }
        }
    }
}

/// The filter configuration every workload runs.
pub(crate) fn filter_config() -> MnmConfig {
    MnmConfig::parse(FILTER).expect("HMNM4 is a valid filter label")
}

/// Simulated outcome counts of a fixed window of work. They depend only
/// on the inputs, never on the host, so they repeat exactly for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Accesses simulated.
    pub accesses: u64,
    /// Simulated access latency, summed, in cycles.
    pub cycles: u64,
    /// Probes performed (bypassed probes excluded).
    pub probes: u64,
    /// Probes skipped on a definite-miss verdict.
    pub bypassed: u64,
    /// Fill, eviction and invalidation events.
    pub events: u64,
    /// Filter queries.
    pub queried: u64,
    /// Queries that flagged at least one level.
    pub flagged: u64,
    /// Filter state updates.
    pub updates: u64,
    /// Misses the filter identified (coverage numerator).
    pub identified: u64,
    /// Misses it could have identified (coverage denominator).
    pub bypassable: u64,
}

impl SimCounts {
    /// The field names, in the order of [`SimCounts::values`].
    pub const FIELDS: [&'static str; 10] = [
        "accesses",
        "cycles",
        "probes",
        "bypassed",
        "events",
        "queried",
        "flagged",
        "updates",
        "identified",
        "bypassable",
    ];

    /// The field values.
    pub fn values(&self) -> [u64; 10] {
        [
            self.accesses,
            self.cycles,
            self.probes,
            self.bypassed,
            self.events,
            self.queried,
            self.flagged,
            self.updates,
            self.identified,
            self.bypassable,
        ]
    }

    /// Fold in one hierarchy's probe and event counters.
    pub fn add_hierarchy(&mut self, stats: &HierarchyStats) {
        for s in &stats.structures {
            self.probes += s.probes;
            self.bypassed += s.bypasses;
            self.events += s.fills + s.evictions + s.invalidations;
        }
    }

    /// Fold in one filter's counters.
    pub fn add_mnm(&mut self, stats: &MnmStats) {
        self.queried += stats.accesses;
        self.flagged += stats.accesses_with_flags;
        self.updates += stats.slots.iter().map(|s| s.updates).sum::<u64>();
        self.identified += stats.identified_misses();
        self.bypassable += stats.bypassable_misses();
    }

    /// Counts of one single-core replay: hierarchy plus filter.
    pub fn of_replay(hier: &HierarchyStats, mnm: &MnmStats) -> SimCounts {
        let mut c =
            SimCounts { accesses: hier.accesses, cycles: hier.total_latency, ..Default::default() };
        c.add_hierarchy(hier);
        c.add_mnm(mnm);
        c
    }

    /// The per-layer count metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        vec![
            Metric::new("cache_sim.probes_per_access", per(self.probes, self.accesses), "count"),
            Metric::new("cache_sim.events_per_access", per(self.events, self.accesses), "count"),
            Metric::new(
                "cache_sim.bypassed_per_access",
                per(self.bypassed, self.accesses),
                "count",
            ),
            Metric::new("cache_sim.cycles_per_access", per(self.cycles, self.accesses), "cycles"),
            Metric::new("core.flag_rate", per(self.flagged, self.queried), "ratio"),
            Metric::new("core.updates_per_access", per(self.updates, self.accesses), "count"),
            Metric::new("core.coverage", per(self.identified, self.bypassable), "ratio"),
        ]
    }
}

/// The pinned simulated counts of the default seed, one object per
/// workload.
const PINS: &str = include_str!("../pins.json");

/// Compare `counts` against the pins when the run used the pinned seed
/// and the standard sizes.
pub(crate) fn pin_check(opts: &Options, counts: &SimCounts) -> Option<Check> {
    let workload = opts.workload;
    if opts.seed != PINNED_SEED || opts.sizes != Sizes::standard(workload) {
        return None;
    }
    let actual = SimCounts::FIELDS
        .iter()
        .zip(counts.values())
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(", ");
    let doc = Json::parse(PINS).expect("pins.json parses");
    let Some(pinned) = doc.get(workload.name()) else {
        return Some(Check::fail(
            "pins",
            format!("no pin for this workload; measured {{{actual}}}"),
        ));
    };
    let mismatched: Vec<String> = SimCounts::FIELDS
        .iter()
        .zip(counts.values())
        .filter(|(k, v)| pinned.get(k).and_then(|p| p.as_f64()) != Some(*v as f64))
        .map(|(k, _)| (*k).to_owned())
        .collect();
    let detail = if mismatched.is_empty() {
        "simulated counts equal the pinned default-seed values".to_owned()
    } else {
        format!("{} differ; measured {{{actual}}}", mismatched.join(", "))
    };
    Some(Check::new("pins", mismatched.is_empty(), detail))
}
