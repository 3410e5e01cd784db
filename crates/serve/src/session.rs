//! One replay session: a private cache hierarchy plus a filter preset.
//!
//! [`SessionCore`] is the piece shared between the server and the offline
//! verifier: both feed it the same records through [`SessionCore::feed`],
//! so the verdict histogram a client scrapes from a live server is
//! bit-identical to an offline replay of the same trace — the property
//! `jsn slam --verify` checks end-to-end.
//!
//! A client sends records, not a program, so records become accesses by
//! the [`FetchRule::DataOnly`] rule, unlike `jsn run` and the figures:
//! loads and stores become data-side accesses; ops and branches only
//! advance the record count. The server converts wire records with
//! [`decode_accesses`](crate::protocol::decode_accesses), that rule
//! applied to the bytes, and replays them through
//! [`SessionCore::feed_accesses`]; the offline verifier feeds decoded
//! records through [`SessionCore::feed`]. Both end in one replay call.

use cache_sim::{Access, BatchSummary, Hierarchy, HierarchyConfig, StructureStats};
use mnm_core::{FilterOccupancy, FilterPreset, ReplayFilter};
use mnm_experiments::runner::access;
use trace_synth::{FetchRule, Instr, RefStream};

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

    /// Replay one frame of records (data references only).
    pub fn feed(&mut self, instrs: &[Instr]) -> BatchSummary {
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        batch.extend(RefStream::new(instrs.iter().copied(), FetchRule::DataOnly).map(access));
        let summary = self.replay(instrs.len() as u64, &batch);
        self.batch = batch;
        summary
    }

    /// Replay one frame of `records` records already converted to their
    /// `accesses`, as [`decode_accesses`](crate::protocol::decode_accesses)
    /// converts a wire frame: the same replay as [`SessionCore::feed`] of
    /// those records.
    pub fn feed_accesses(&mut self, records: u64, accesses: &[Access]) -> BatchSummary {
        self.replay(records, accesses)
    }

    fn replay(&mut self, records: u64, accesses: &[Access]) -> BatchSummary {
        self.records += records;
        self.frames += 1;
        let summary = self.hierarchy.run(&mut self.filter, accesses);
        self.accesses += summary.accesses;
        self.total_latency += summary.total_latency;
        summary
    }

    /// The unsound bypasses the session's hierarchy has counted (a
    /// definite-miss verdict on a block the structure held, which release
    /// builds count instead of asserting), summed over its structures,
    /// with the name of the first structure that has any; `None` while
    /// every verdict has been sound.
    pub fn unsound(&self) -> Option<(u64, &str)> {
        let stats = &self.hierarchy.stats().structures;
        let total = stats.iter().map(|s| s.unsound_bypasses).sum();
        let first = stats.iter().position(|s| s.unsound_bypasses > 0)?;
        Some((total, &self.hierarchy.structures()[first].name))
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
        assert_eq!(core.unsound(), None, "a sound filter is never refused");
    }

    /// A soft error that makes the filter flag a resident block: the
    /// next load of that block is an unsound bypass, which release
    /// builds count (debug builds assert) and the session reports by
    /// the structure's name. Only the load path's structures above
    /// level 1 whose closer structures miss the block can be reached.
    #[cfg(not(debug_assertions))]
    #[test]
    fn an_unsound_bypass_is_reported_by_structure() {
        let mut core = SessionCore::new("HMNM4").unwrap();
        core.feed(&sample_instrs(20_000));
        assert_eq!(core.unsound(), None);
        let hier = &core.hierarchy;
        let path = hier.path(cache_sim::AccessKind::Load);
        let mnm = core.filter.mnm_mut().expect("HMNM4 is a real MNM");
        let slots = mnm.slot_structures();
        let lie = mnm.fault_surface().into_iter().find_map(|(slot, filter, _)| {
            let sid = slots[slot];
            let depth = path.iter().position(|&s| s == sid).filter(|&d| d > 0)?;
            let reachable =
                |&addr: &u64| !path[..depth].iter().any(|&s| hier.cache(s).contains(addr));
            hier.cache(sid).resident_blocks().filter(reachable).find_map(|addr| {
                let bit = mnm.state_bit_of(slot, filter, addr)?;
                mnm.flip_filter_bit(slot, filter, bit);
                if mnm.query(Access::load(addr)).contains(sid) {
                    return Some((sid, addr));
                }
                mnm.flip_filter_bit(slot, filter, bit);
                None
            })
        });
        let (sid, addr) = lie.expect("some flipped bit makes the filter flag a resident block");
        let name = core.hierarchy.structures()[sid.index()].name.clone();
        let load = Instr { pc: 0, kind: trace_synth::InstrKind::Load { addr }, src1: 0, src2: 0 };
        core.feed(&[load]);
        assert_eq!(core.unsound(), Some((1, name.as_str())));
    }
}
