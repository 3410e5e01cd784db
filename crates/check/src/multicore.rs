//! Multi-core soundness checking for the sharded simulation.
//!
//! Single-core checking ([`check_ops`](crate::check_ops)) validates one
//! filter against one hierarchy. The sharded simulation adds two new
//! ways to go wrong, and this module checks both from the observer hooks
//! [`ShardedSim`] exposes:
//!
//! * **Private desync** — coherence invalidations (remote stores,
//!   shared-L3 victims) remove blocks from a core's private caches; if
//!   the removal does not reach that core's filters, a later rebuild
//!   would disagree with the live filter state and — for counting
//!   filters — decrements could go missing. The checker maintains a
//!   per-core, per-structure residency ledger from the event stream and
//!   validates every definite-miss verdict for the private L2 against
//!   it, plus event conservation (never place a resident block, never
//!   remove an absent one).
//! * **Shared-L3 verdict staleness** — per-core shared-slot filters are
//!   refreshed only when a resolution round's results are applied (one
//!   epoch behind issue under the pipelined schedule), so a verdict can
//!   be overtaken by another core's fill. The checker maintains a global
//!   L3 ledger updated exactly when the cores' filters are (the
//!   `l3_events` hook fires at application time, not resolution time)
//!   and requires every shared-L3 definite-miss verdict to be sound *at
//!   issue time* against that frozen image — a strictly stronger
//!   condition than the simulator's resolution-time classification.
//!
//! Every scenario additionally verifies **engine identity**: the
//! pipelined driver must reproduce the observed
//! single-threaded run bit-for-bit (the report equality that proves the
//! channel handoff and the overlap of compute with resolution change
//! nothing observable).
//!
//! Adversarial workloads concentrate on the cross-core races:
//! producer/consumer ping-pong over a handful of shared lines, false
//! sharing at distinct offsets of the same lines, simultaneous-eviction
//! pressure on one shared-L3 set, and profile-driven sharing across all
//! 20 synthetic applications.

use cache_sim::{Access, BypassSet, CacheEvent, EventKind, StructureId};
use mnm_core::MnmConfig;
use mnm_shard::{sharded_streams, L3Outcome, ShardConfig, ShardObserver, ShardReport, ShardedSim};
use std::collections::HashSet;
use trace_synth::profiles;
use trace_synth::sharing::SharingSpec;

use trace_synth::rng::splitmix64;

/// Filter labels the multi-core suite sweeps (the single-core defaults
/// minus the perfect oracle, which is not a buildable `MnmConfig`).
pub const MULTICORE_FILTERS: [&str; 10] = [
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
];

/// Families of multi-core trace generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardWorkload {
    /// Producer/consumer ping-pong: even cores store a small set of
    /// shared lines, odd cores load them, with private filler in
    /// between. Maximizes store-invalidation traffic.
    PingPong,
    /// All cores hammer distinct byte offsets of the *same* L3 lines —
    /// every store invalidates every other core's copy even though no
    /// addresses collide.
    FalseSharing,
    /// Every core walks one ring of addresses aliasing into a single
    /// shared-L3 set, so fills continuously evict each other and victim
    /// back-invalidations race with refills.
    EvictionRace,
    /// A synthetic application profile (selected by `seed % 20`, as the
    /// single-core `TraceGen::Profile` does) sharded with
    /// [`sharded_streams`].
    Profile,
}

impl ShardWorkload {
    /// CLI name of this workload.
    pub fn name(self) -> &'static str {
        match self {
            ShardWorkload::PingPong => "pingpong",
            ShardWorkload::FalseSharing => "falsesharing",
            ShardWorkload::EvictionRace => "evictionrace",
            ShardWorkload::Profile => "profile",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pingpong" => Some(ShardWorkload::PingPong),
            "falsesharing" => Some(ShardWorkload::FalseSharing),
            "evictionrace" => Some(ShardWorkload::EvictionRace),
            "profile" => Some(ShardWorkload::Profile),
            _ => None,
        }
    }

    /// Generate the per-core access streams for this workload.
    pub fn generate(
        self,
        config: &ShardConfig,
        seed: u64,
        len: usize,
        sharing_ratio: f64,
    ) -> Vec<Vec<Access>> {
        match self {
            ShardWorkload::Profile => {
                let all = profiles::all();
                let profile = &all[(seed % all.len() as u64) as usize];
                let spec = SharingSpec {
                    cores: config.cores,
                    sharing_ratio,
                    shared_bytes: 64 * 1024,
                    line_bytes: config.l3.block_bytes,
                    seed,
                };
                sharded_streams(profile, &spec, len, config.l1.block_bytes)
            }
            _ => (0..config.cores)
                .map(|core| self.adversarial_stream(config, core, seed, len))
                .collect(),
        }
    }

    fn adversarial_stream(
        self,
        config: &ShardConfig,
        core: usize,
        seed: u64,
        len: usize,
    ) -> Vec<Access> {
        let line = config.l3.block_bytes;
        let mut state = splitmix64(seed ^ (core as u64).wrapping_mul(0x9E37_79B9));
        let mut rng = move || {
            state = splitmix64(state);
            state
        };
        let mut out = Vec::with_capacity(len);
        match self {
            ShardWorkload::PingPong => {
                // 16 shared lines ping-ponged in bursts; private filler
                // keeps the L2 warm so invalidations hit real residents.
                let shared_base = 0x0010_0000u64;
                let private_base = 0x4000_0000 + core as u64 * 0x0100_0000;
                for i in 0..len {
                    let slot = (i as u64 / 8) % 16;
                    let addr = shared_base + slot * line;
                    if i % 4 == 3 {
                        out.push(Access::load(private_base + rng() % 0x8000));
                    } else if core.is_multiple_of(2) && i % 8 < 4 {
                        out.push(Access::store(addr));
                    } else {
                        out.push(Access::load(addr));
                    }
                }
            }
            ShardWorkload::FalseSharing => {
                // 64 lines, each core owning its own 8-byte offset.
                let base = 0x0020_0000u64;
                let offset = (core as u64 * 8) % line;
                for i in 0..len {
                    let l = rng() % 64;
                    let addr = base + l * line + offset;
                    if i % 3 == 0 {
                        out.push(Access::store(addr));
                    } else {
                        out.push(Access::load(addr));
                    }
                }
            }
            ShardWorkload::EvictionRace => {
                // A ring of lines all mapping to shared-L3 set 0: ring
                // length is 4x the associativity, so the set thrashes.
                let sets = config.l3.size_bytes / (u64::from(config.l3.assoc) * line);
                let stride = sets * line;
                let ring = u64::from(config.l3.assoc) * 4;
                for i in 0..len {
                    let k = (i as u64 + core as u64 * 3) % ring;
                    let addr = k * stride;
                    if rng() % 8 == 0 {
                        out.push(Access::store(addr));
                    } else {
                        out.push(Access::load(addr));
                    }
                }
            }
            ShardWorkload::Profile => unreachable!("handled in generate"),
        }
        out
    }
}

/// One multi-core checking scenario.
#[derive(Debug, Clone)]
pub struct MulticoreScenario {
    /// MNM configuration label.
    pub filter: String,
    /// Workload family.
    pub workload: ShardWorkload,
    /// Number of simulated cores.
    pub cores: usize,
    /// Sharing ratio (profile workload only).
    pub sharing_ratio: f64,
    /// Generator seed.
    pub seed: u64,
    /// Accesses per core.
    pub len: usize,
    /// Epoch length.
    pub epoch: usize,
}

impl MulticoreScenario {
    /// The `jsn shard` command line that replays exactly this scenario.
    pub fn reproducer_line(&self) -> String {
        format!(
            "jsn shard --check --config {} --workload {} --cores {} --sharing {} --seed {} -n {} --epoch {}",
            self.filter,
            self.workload.name(),
            self.cores,
            self.sharing_ratio,
            self.seed,
            self.len,
            self.epoch
        )
    }
}

/// Lockstep multi-core reference model: per-core private residency
/// ledgers plus a global shared-L3 ledger frozen between resolution
/// broadcasts.
pub struct MulticoreChecker {
    gran: u64,
    l3_line: u64,
    ul2_id: StructureId,
    ul3_id: StructureId,
    /// Per core, per private structure (il1/dl1/ul2): resident block
    /// bases.
    private: Vec<Vec<HashSet<u64>>>,
    /// Shared-L3 resident line bases, as of the last applied resolution
    /// broadcast — exactly what every core's shared-slot filter knows.
    l3: HashSet<u64>,
    /// Violations found, rendered for humans.
    pub violations: Vec<String>,
    /// Resolution outcome tallies `[hit, miss, bypassed, rescued, unsound]`.
    pub outcomes: [u64; 5],
    /// Coherence invalidation events observed per core.
    pub invalidations_seen: Vec<u64>,
}

impl MulticoreChecker {
    /// Build a checker for a simulation using `config`.
    pub fn new(config: &ShardConfig) -> Self {
        MulticoreChecker {
            gran: config.l2.block_bytes,
            l3_line: config.l3.block_bytes,
            ul2_id: StructureId::new(2),
            ul3_id: StructureId::new(3),
            private: (0..config.cores).map(|_| vec![HashSet::new(); 3]).collect(),
            l3: HashSet::new(),
            violations: Vec::new(),
            outcomes: [0; 5],
            invalidations_seen: vec![0; config.cores],
        }
    }

    fn apply_private(&mut self, core: usize, events: &[CacheEvent]) {
        for ev in events {
            let idx = ev.structure.index();
            let set = &mut self.private[core][idx];
            match ev.kind {
                EventKind::Placed => {
                    if !set.insert(ev.block_base) {
                        self.violations.push(format!(
                            "core {core} structure {idx}: placed already-resident block {:#x}",
                            ev.block_base
                        ));
                    }
                }
                EventKind::Replaced | EventKind::Invalidated => {
                    if !set.remove(&ev.block_base) {
                        self.violations.push(format!(
                            "core {core} structure {idx}: removed absent block {:#x} ({:?})",
                            ev.block_base, ev.kind
                        ));
                    }
                }
            }
        }
    }
}

impl ShardObserver for MulticoreChecker {
    fn verdict(&mut self, core: usize, access: Access, verdict: BypassSet) {
        if verdict.contains(self.ul2_id) {
            let block = access.addr & !(self.gran - 1);
            if self.private[core][2].contains(&block) {
                self.violations.push(format!(
                    "core {core}: unsound private-L2 verdict for {:#x} (block {block:#x} resident)",
                    access.addr
                ));
            }
        }
        if verdict.contains(self.ul3_id) {
            let l3line = access.addr & !(self.l3_line - 1);
            if self.l3.contains(&l3line) {
                self.violations.push(format!(
                    "core {core}: unsound shared-L3 verdict for {:#x} at issue time \
                     (line {l3line:#x} resident in the epoch-start image)",
                    access.addr
                ));
            }
        }
    }

    fn private_step(&mut self, core: usize, _access: Access, events: &[CacheEvent]) {
        self.apply_private(core, events);
    }

    fn coherence_invalidation(
        &mut self,
        core: usize,
        _line: u64,
        removed: u32,
        events: &[CacheEvent],
    ) {
        if events.len() != removed as usize {
            self.violations.push(format!(
                "core {core}: invalidation removed {removed} blocks but emitted {} events",
                events.len()
            ));
        }
        self.invalidations_seen[core] += u64::from(removed);
        self.apply_private(core, events);
    }

    fn l3_resolution(&mut self, core: usize, access: Access, outcome: L3Outcome) {
        let slot = match outcome {
            L3Outcome::Hit => 0,
            L3Outcome::Miss => 1,
            L3Outcome::Bypassed => 2,
            L3Outcome::Rescued => 3,
            L3Outcome::Unsound => 4,
        };
        self.outcomes[slot] += 1;
        if outcome == L3Outcome::Unsound {
            self.violations.push(format!(
                "core {core}: simulator classified shared-L3 verdict for {:#x} as unsound",
                access.addr
            ));
        }
    }

    fn l3_events(&mut self, events: &[CacheEvent]) {
        for ev in events {
            match ev.kind {
                EventKind::Placed => {
                    if !self.l3.insert(ev.block_base) {
                        self.violations.push(format!(
                            "shared L3 placed already-resident line {:#x}",
                            ev.block_base
                        ));
                    }
                }
                EventKind::Replaced | EventKind::Invalidated => {
                    if !self.l3.remove(&ev.block_base) {
                        self.violations.push(format!(
                            "shared L3 removed absent line {:#x} ({:?})",
                            ev.block_base, ev.kind
                        ));
                    }
                }
            }
        }
    }
}

/// Result of one checked multi-core scenario.
#[derive(Debug)]
pub struct MulticoreReport {
    /// The scenario that ran.
    pub scenario: MulticoreScenario,
    /// The simulation's own report.
    pub report: ShardReport,
    /// Checker violations (empty = passed).
    pub violations: Vec<String>,
}

impl MulticoreReport {
    /// Whether the scenario passed cleanly.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.report.total_unsound() == 0
    }
}

/// Run one scenario under the lockstep checker.
///
/// # Errors
///
/// Returns an error if the filter label does not parse.
pub fn run_multicore_scenario(scenario: &MulticoreScenario) -> Result<MulticoreReport, String> {
    let mnm = MnmConfig::parse(&scenario.filter)
        .map_err(|_| format!("unknown filter label '{}'", scenario.filter))?;
    let mut config = ShardConfig::new(scenario.cores, mnm);
    config.epoch = scenario.epoch;
    let streams =
        scenario.workload.generate(&config, scenario.seed, scenario.len, scenario.sharing_ratio);
    let mut checker = MulticoreChecker::new(&config);
    let mut sim = ShardedSim::new(config.clone(), streams.clone());
    let report = sim.run_single_threaded_observed(&mut checker);
    let mut violations = checker.violations;
    // The checker's event ledger and the simulator's counters must agree
    // on how much coherence traffic each core absorbed.
    for (core, c) in report.cores.iter().enumerate() {
        if checker.invalidations_seen[core] != c.invalidations_received {
            violations.push(format!(
                "core {core}: checker saw {} coherence removals, simulator counted {}",
                checker.invalidations_seen[core], c.invalidations_received
            ));
        }
    }
    // Engine identity: the pipelined driver must reproduce the observed
    // single-threaded run bit-for-bit.
    let pipelined = ShardedSim::new(config, streams).run();
    if pipelined != report {
        violations.push("pipelined engine report diverges from single-threaded".to_owned());
    }
    Ok(MulticoreReport { scenario: scenario.clone(), report, violations })
}

/// Sweep every filter over the adversarial workloads, and — unless
/// `quick` — over sharded versions of all 20 application profiles.
/// Returns the failing reports (empty = all sound).
///
/// # Errors
///
/// Propagates label-parse failures from
/// [`run_multicore_scenario`].
pub fn run_multicore_suite(quick: bool) -> Result<(Vec<MulticoreReport>, usize), String> {
    let adversarial =
        [ShardWorkload::PingPong, ShardWorkload::FalseSharing, ShardWorkload::EvictionRace];
    let mut failures = Vec::new();
    let mut total = 0usize;
    let filters: &[&str] =
        if quick { &["HMNM4", "RMNM_512_2", "CMNM_8_12"] } else { &MULTICORE_FILTERS };
    for filter in filters {
        for workload in adversarial {
            let scenario = MulticoreScenario {
                filter: (*filter).to_owned(),
                workload,
                cores: 4,
                sharing_ratio: 0.5,
                seed: 0xC0FFEE,
                len: if quick { 3_000 } else { 6_000 },
                epoch: 512,
            };
            total += 1;
            let report = run_multicore_scenario(&scenario)?;
            if !report.passed() {
                failures.push(report);
            }
        }
        let profile_seeds: u64 = if quick { 3 } else { 20 };
        for seed in 0..profile_seeds {
            let scenario = MulticoreScenario {
                filter: (*filter).to_owned(),
                workload: ShardWorkload::Profile,
                cores: 4,
                sharing_ratio: 0.4,
                seed,
                len: if quick { 3_000 } else { 5_000 },
                epoch: 512,
            };
            total += 1;
            let report = run_multicore_scenario(&scenario)?;
            if !report.passed() {
                failures.push(report);
            }
        }
    }
    Ok((failures, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick suite (3 filters x 3 adversarial workloads + 3
    /// profiles) must be entirely sound.
    #[test]
    fn quick_multicore_suite_is_sound() {
        let (failures, total) = run_multicore_suite(true).unwrap();
        assert!(total >= 18);
        assert!(
            failures.is_empty(),
            "multi-core soundness failures:\n{}",
            failures
                .iter()
                .flat_map(|f| f.violations.iter().take(3).cloned())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// The ping-pong workload must actually exercise the coherence
    /// machinery it was built to stress.
    #[test]
    fn ping_pong_generates_cross_core_invalidations() {
        let scenario = MulticoreScenario {
            filter: "HMNM4".to_owned(),
            workload: ShardWorkload::PingPong,
            cores: 4,
            sharing_ratio: 0.5,
            seed: 7,
            len: 4_000,
            epoch: 256,
        };
        let report = run_multicore_scenario(&scenario).unwrap();
        assert!(report.passed(), "{:?}", report.violations);
        let invals: u64 = report.report.cores.iter().map(|c| c.invalidations_received).sum();
        assert!(invals > 100, "ping-pong produced almost no invalidations ({invals})");
    }

    /// The eviction-race workload must thrash the shared L3.
    #[test]
    fn eviction_race_forces_shared_l3_victims() {
        let scenario = MulticoreScenario {
            filter: "RMNM_512_2".to_owned(),
            workload: ShardWorkload::EvictionRace,
            cores: 4,
            sharing_ratio: 0.0,
            seed: 3,
            len: 4_000,
            epoch: 256,
        };
        let report = run_multicore_scenario(&scenario).unwrap();
        assert!(report.passed(), "{:?}", report.violations);
        assert!(
            report.report.l3.structures[0].evictions > 100,
            "eviction race produced almost no shared-L3 victims"
        );
    }
}
