//! Per-core and aggregate results of a sharded run.

use cache_sim::HierarchyStats;
use mnm_core::MnmStats;

/// Counters one core accumulates across the run. Everything here is
/// deterministic: the parallel and single-threaded drivers must produce
/// bit-identical reports (that identity is the race-freedom check CI
/// runs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreReport {
    /// Accesses this core executed.
    pub accesses: u64,
    /// Total access latency in cycles (private probes plus the shared-L3
    /// or memory latency of every request that left the private levels).
    pub cycles: u64,
    /// Requests that missed every private level and went to the shared L3.
    pub l3_requests: u64,
    /// L3 requests that probed and hit.
    pub l3_hits: u64,
    /// L3 requests that probed and missed (memory supplied).
    pub l3_misses: u64,
    /// L3 requests whose definite-miss verdict skipped the L3 probe —
    /// the block was indeed absent.
    pub l3_bypasses: u64,
    /// Bypass verdicts that found the block resident because a
    /// resolution round after the verdict's frozen L3 image placed it. Sound: demoted to a normal probe.
    pub stale_bypass_rescues: u64,
    /// Bypass verdicts that found the block resident although it was
    /// already resident at epoch start. These are genuine soundness
    /// violations; a correct filter never produces one.
    pub unsound_verdicts: u64,
    /// Blocks removed from this core's private caches by coherence
    /// (remote stores and shared-L3 replacements).
    pub invalidations_received: u64,
    /// Distinct L3 lines this core stored to (per-epoch deduplicated) —
    /// each is broadcast as an invalidation to every other core.
    pub store_lines_published: u64,
    /// Private-hierarchy statistics (il1/dl1/ul2).
    pub private: HierarchyStats,
    /// This core's MNM statistics (private L2 slot + shared L3 slot).
    pub mnm: MnmStats,
}

/// Wall-clock phase breakdown of one run. Purely diagnostic: timing is
/// host-dependent and therefore **excluded from report equality** — the
/// bit-identity contract between engines covers simulation results only.
#[derive(Debug, Clone)]
pub struct ShardTiming {
    /// Which engine produced the run (`pipelined` or `single`).
    pub engine: String,
    /// Wall-clock nanoseconds for the whole run.
    pub wall_nanos: u64,
    /// Nanoseconds spent computing epochs (summed across cores in the
    /// parallel engines — divide by the core count for per-core time).
    pub compute_nanos: u64,
    /// Nanoseconds the resolver spent draining shared-L3 queues.
    pub resolve_nanos: u64,
    /// Nanoseconds cores spent stalled waiting for handoff (summed
    /// across cores; zero in the single engine).
    pub stall_nanos: u64,
}

impl Default for ShardTiming {
    fn default() -> Self {
        ShardTiming {
            engine: "unrun".to_owned(),
            wall_nanos: 0,
            compute_nanos: 0,
            resolve_nanos: 0,
            stall_nanos: 0,
        }
    }
}

impl ShardTiming {
    /// Fraction of the run's wall clock the resolver was busy. Near 1.0
    /// means resolution is the bottleneck (epochs too short or too many
    /// shared requests); the `--epoch auto` tuner targets keeping this
    /// below its occupancy ceiling.
    pub fn resolver_occupancy(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.resolve_nanos as f64 / self.wall_nanos as f64
    }
}

/// The full result of a sharded run.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// One report per core, in core order.
    pub cores: Vec<CoreReport>,
    /// Shared-L3 statistics (a single-structure hierarchy).
    pub l3: HierarchyStats,
    /// Number of epochs executed (including the final drain epoch).
    pub epochs: u64,
    /// Host-dependent phase timing (not part of report equality).
    pub timing: ShardTiming,
}

// Manual equality: `timing` is host noise, everything else is the
// deterministic simulation result the engines must agree on bit-for-bit.
impl PartialEq for ShardReport {
    fn eq(&self, other: &Self) -> bool {
        self.cores == other.cores && self.l3 == other.l3 && self.epochs == other.epochs
    }
}

impl ShardReport {
    /// Total accesses across all cores.
    pub fn total_accesses(&self) -> u64 {
        self.cores.iter().map(|c| c.accesses).sum()
    }

    /// Total unsound verdicts across all cores: the shared L3's plus the
    /// private structures' unsound bypasses (must be zero for a sound
    /// filter configuration).
    pub fn total_unsound(&self) -> u64 {
        let private = self.cores.iter().flat_map(|c| &c.private.structures);
        self.cores
            .iter()
            .map(|c| c.unsound_verdicts)
            .chain(private.map(|s| s.unsound_bypasses))
            .sum()
    }

    /// Serialize as the `jsn-shard/v1` JSON document.
    pub fn to_json(&self, config_label: &str, cores: usize, epoch: usize, sharing: f64) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"jsn-shard/v1\",\n");
        s.push_str(&format!("  \"config\": \"{config_label}\",\n"));
        s.push_str(&format!("  \"cores\": {cores},\n"));
        s.push_str(&format!("  \"epoch\": {epoch},\n"));
        s.push_str(&format!("  \"sharing_ratio\": {sharing},\n"));
        // One line on purpose: timing is host noise, and CI strips it
        // with `grep -v '"timing"'` before diffing engine outputs.
        s.push_str(&format!(
            "  \"timing\": {{\"engine\": \"{}\", \"wall_nanos\": {}, \"compute_nanos\": {}, \
             \"resolve_nanos\": {}, \"stall_nanos\": {}, \"resolver_occupancy\": {:.6}}},\n",
            self.timing.engine,
            self.timing.wall_nanos,
            self.timing.compute_nanos,
            self.timing.resolve_nanos,
            self.timing.stall_nanos,
            self.timing.resolver_occupancy(),
        ));
        s.push_str(&format!("  \"epochs_run\": {},\n", self.epochs));
        s.push_str(&format!("  \"total_accesses\": {},\n", self.total_accesses()));
        s.push_str(&format!("  \"unsound_verdicts\": {},\n", self.total_unsound()));
        let l3s = &self.l3.structures[0];
        s.push_str(&format!(
            "  \"l3\": {{\"probes\": {}, \"hits\": {}, \"misses\": {}, \"bypasses\": {}, \
             \"fills\": {}, \"evictions\": {}, \"invalidations\": {}, \"writebacks\": {}}},\n",
            l3s.probes,
            l3s.hits,
            l3s.misses,
            l3s.bypasses,
            l3s.fills,
            l3s.evictions,
            l3s.invalidations,
            l3s.writebacks,
        ));
        s.push_str("  \"per_core\": [\n");
        for (i, c) in self.cores.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"core\": {i}, \"accesses\": {}, \"cycles\": {}, \"l3_requests\": {}, \
                 \"l3_hits\": {}, \"l3_misses\": {}, \"l3_bypasses\": {}, \
                 \"stale_bypass_rescues\": {}, \"unsound_verdicts\": {}, \
                 \"invalidations_received\": {}, \"store_lines_published\": {}, \
                 \"flagged_accesses\": {}, \"filter_coverage\": {:.6}}}{}\n",
                c.accesses,
                c.cycles,
                c.l3_requests,
                c.l3_hits,
                c.l3_misses,
                c.l3_bypasses,
                c.stale_bypass_rescues,
                c.unsound_verdicts,
                c.invalidations_received,
                c.store_lines_published,
                c.mnm.accesses_with_flags,
                c.mnm.coverage(),
                if i + 1 == self.cores.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::StructureStats;

    #[test]
    fn total_unsound_counts_private_unsound_bypasses() {
        let mut core = CoreReport { unsound_verdicts: 2, ..CoreReport::default() };
        let bad = StructureStats { unsound_bypasses: 1, ..StructureStats::default() };
        core.private.structures = vec![StructureStats::default(), bad];
        let report = ShardReport { cores: vec![CoreReport::default(), core], ..Default::default() };
        assert_eq!(report.total_unsound(), 3);
    }
}
