//! One replay session: a private cache hierarchy plus a filter preset.
//!
//! [`SessionCore`] is the piece shared between the server and the offline
//! verifier: both feed it the same records through [`SessionCore::feed`],
//! so the verdict histogram a client scrapes from a live server is
//! bit-identical to an offline replay of the same trace — the property
//! `jsn slam --verify` checks end-to-end.
//!
//! Records are converted exactly like the functional replay path of
//! `jsn run`: loads and stores become data-side cache accesses; ops and
//! branches advance the record count but touch no cache.

use cache_sim::{Access, BatchSummary, Hierarchy, HierarchyConfig, StructureStats};
use mnm_core::{FilterOccupancy, FilterPreset, ReplayFilter};
use trace_synth::{Instr, InstrKind};

use crate::protocol::{SessionStatsWire, StructureVerdictsWire};

/// A session's replay state: its own hierarchy, filter, and counters.
pub struct SessionCore {
    hierarchy: Hierarchy,
    filter: ReplayFilter,
    /// Scratch buffer of converted accesses, reused across frames.
    batch: Vec<Access>,
    /// Trace records seen (including non-memory records).
    records: u64,
    /// `Records` frames fed.
    frames: u64,
    /// Cache accesses replayed.
    accesses: u64,
    /// Total latency across all accesses, in cycles.
    total_latency: u64,
}

impl SessionCore {
    /// Build a session for `preset` on the paper's five-level hierarchy.
    pub fn new(preset: &str) -> Result<SessionCore, String> {
        SessionCore::with_config(preset, HierarchyConfig::paper_five_level())
    }

    /// Build a session on a specific hierarchy configuration. `preset` is
    /// any [`FilterPreset::parse`] label.
    pub fn with_config(preset: &str, config: HierarchyConfig) -> Result<SessionCore, String> {
        let hierarchy = Hierarchy::new(config);
        let filter = FilterPreset::parse(preset)?.build(&hierarchy);
        Ok(SessionCore {
            hierarchy,
            filter,
            batch: Vec::new(),
            records: 0,
            frames: 0,
            accesses: 0,
            total_latency: 0,
        })
    }

    /// Replay one frame of records. Loads/stores become data accesses;
    /// other record kinds only advance the record count.
    pub fn feed(&mut self, instrs: &[Instr]) -> BatchSummary {
        self.batch.clear();
        for instr in instrs {
            match instr.kind {
                InstrKind::Load { addr } => self.batch.push(Access::load(addr)),
                InstrKind::Store { addr } => self.batch.push(Access::store(addr)),
                InstrKind::Op { .. } | InstrKind::Branch { .. } => {}
            }
        }
        self.records += instrs.len() as u64;
        self.frames += 1;
        let summary = self.hierarchy.run(&mut self.filter, &self.batch);
        self.accesses += summary.accesses;
        self.total_latency += summary.total_latency;
        summary
    }

    /// Cumulative per-structure stats (the verdict histogram source).
    pub fn structure_stats(&self) -> &[StructureStats] {
        &self.hierarchy.stats().structures
    }

    /// A snapshot of per-structure verdict counts with names and levels.
    pub fn verdicts(&self) -> Vec<StructureVerdictsWire> {
        self.hierarchy
            .structures()
            .iter()
            .zip(&self.hierarchy.stats().structures)
            .map(|(info, stats)| StructureVerdictsWire {
                name: info.name.clone(),
                level: info.level,
                hits: stats.hits,
                maybe_misses: stats.misses,
                definite_misses: stats.bypasses,
            })
            .collect()
    }

    /// The filter's dynamic occupancy (zero for baseline/perfect, which
    /// track no state).
    pub fn occupancy(&self) -> FilterOccupancy {
        self.filter.occupancy()
    }

    /// Final session stats in wire form.
    pub fn stats_wire(&self) -> SessionStatsWire {
        let occ = self.occupancy();
        SessionStatsWire {
            accesses: self.accesses,
            records: self.records,
            frames: self.frames,
            total_latency: self.total_latency,
            occupancy_tracked: occ.tracked,
            occupancy_capacity: occ.capacity,
            structures: self.verdicts(),
        }
    }

    /// Cache accesses replayed so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Trace records seen so far.
    pub fn records(&self) -> u64 {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_synth::{profiles, Program};

    fn sample_instrs(n: usize) -> Vec<Instr> {
        let profile = profiles::by_name("181.mcf").unwrap();
        Program::new(profile).take(n).collect()
    }

    #[test]
    fn presets_parse_and_unknown_is_an_error() {
        assert!(SessionCore::new("baseline").is_ok());
        assert!(SessionCore::new("perfect").is_ok());
        assert!(SessionCore::new("HMNM4").is_ok());
        assert!(SessionCore::new("TMNM_12x1").is_ok());
        let err = SessionCore::new("no-such-filter").map(|_| ()).unwrap_err();
        assert!(err.contains("no-such-filter"), "error names the bad label: {err}");
    }

    #[test]
    fn feed_matches_monolithic_replay_regardless_of_chunking() {
        let instrs = sample_instrs(20_000);

        // One big frame.
        let mut whole = SessionCore::new("HMNM4").unwrap();
        whole.feed(&instrs);

        // Many uneven frames.
        let mut chunked = SessionCore::new("HMNM4").unwrap();
        let mut rest = &instrs[..];
        let mut step = 1usize;
        while !rest.is_empty() {
            let k = step.min(rest.len());
            chunked.feed(&rest[..k]);
            rest = &rest[k..];
            step = step * 2 + 1;
        }

        assert_eq!(whole.accesses(), chunked.accesses());
        assert_eq!(whole.verdicts(), chunked.verdicts());
        assert_eq!(whole.stats_wire().total_latency, chunked.stats_wire().total_latency);
    }

    #[test]
    fn verdict_counts_add_up_to_probe_totals() {
        let mut core = SessionCore::new("HMNM4").unwrap();
        core.feed(&sample_instrs(50_000));
        for v in core.verdicts() {
            // Every data-side probe lands in exactly one bucket; the
            // hierarchy's own accounting must agree.
            assert!(
                v.hits + v.maybe_misses > 0 || v.definite_misses > 0 || v.name.starts_with("il"),
                "{v:?}"
            );
        }
        let occ = core.occupancy();
        assert!(occ.capacity > 0);
        assert!(occ.tracked > 0, "a warm HMNM tracks state");
    }
}
