//! The reference machine: a frozen copy of the simulator, timed beside the
//! program under test on the same accesses.
//!
//! `reference/cache-sim` and `reference/core` are copies of the
//! workspace's `cache-sim` and `mnm-core` sources as they stood when this
//! benchmark was defined. After every replay slice and every shard run,
//! [`RefSim`] replays the same accesses through the copy on the vCPUs the
//! unit ran on, and the unit's host time is divided by how much slower
//! than nominal the copy ran. The copy is the same code over the same
//! simulated state, so a neighbour that slows the simulator — through
//! shared caches, memory bandwidth or a sibling hyperthread — slows the
//! copy alike, which no unrelated kernel does (see the README's Host
//! speed). A change to the program under test moves its own time and not
//! the copy's, because the copy never changes.

use std::hint::black_box;
use std::time::Instant;

use cache_sim::{Access, AccessKind};
use ref_cache_sim as frozen;
use ref_mnm_core::{Mnm, MnmConfig};

use crate::Workload;

/// The copy's throughput in M accesses per second on the accesses of
/// `workload`, roughly as a quiet reference host runs it: the speed
/// timings are scaled to. Shard's counts the accesses of both cores
/// over the time until both finished.
pub fn nominal_maccs(workload: Workload) -> f64 {
    match workload {
        Workload::ReplayResident => 7.0,
        Workload::ReplayMemory => 1.7,
        Workload::ShardCoherent => 9.5,
        Workload::ServeLoopback => unreachable!("serve is scaled by the reference kernel"),
    }
}

/// One simulated hierarchy and filter of the frozen copy, and a buffer
/// for accesses converted to its types.
pub struct RefSim {
    hier: frozen::Hierarchy,
    mnm: Mnm,
    buf: Vec<frozen::Access>,
}

impl RefSim {
    fn new(hier: frozen::HierarchyConfig, template: frozen::HierarchyConfig) -> RefSim {
        let filter = MnmConfig::parse(crate::FILTER).expect("HMNM4 is a valid filter label");
        let mnm = Mnm::new(&frozen::Hierarchy::new(template), filter);
        RefSim { hier: frozen::Hierarchy::new(hier), mnm, buf: Vec::new() }
    }

    /// The replay workloads' machine: the paper's five-level hierarchy.
    pub fn five_level() -> RefSim {
        let config = frozen::HierarchyConfig::paper_five_level();
        RefSim::new(config.clone(), config)
    }

    /// One core of the shard workload: a private split L1 and L2 under a
    /// filter built against the three-level template with the shared L3,
    /// in the geometry of `ShardConfig::new` when the copy was made.
    pub fn shard_core() -> RefSim {
        use frozen::{CacheConfig, HierarchyConfig, LevelConfig};
        let l1 = LevelConfig::split_symmetric(&CacheConfig::new("l1", 4 * 1024, 1, 32, 2));
        let l2 = LevelConfig::Unified(CacheConfig::new("ul2", 64 * 1024, 4, 32, 10));
        let l3 = LevelConfig::Unified(CacheConfig::new("ul3", 1024 * 1024, 8, 64, 24));
        let private = HierarchyConfig {
            levels: vec![l1.clone(), l2.clone()],
            memory_latency: 0,
            inclusive: false,
        };
        let template =
            HierarchyConfig { levels: vec![l1, l2, l3], memory_latency: 320, inclusive: false };
        RefSim::new(private, template)
    }

    /// Replay `accesses` through the copy in `batch`-access calls; returns
    /// the host nanoseconds the calls took, summed. Each batch is converted
    /// to the copy's types before its call, untimed.
    pub fn run(&mut self, accesses: &[Access], batch: usize) -> f64 {
        let mut ns = 0;
        for chunk in accesses.chunks(batch) {
            self.buf.clear();
            self.buf.extend(chunk.iter().map(|a| match a.kind {
                AccessKind::InstrFetch => frozen::Access::fetch(a.addr),
                AccessKind::Load => frozen::Access::load(a.addr),
                AccessKind::Store => frozen::Access::store(a.addr),
            }));
            let t = Instant::now();
            black_box(self.mnm.run_many(&mut self.hier, &self.buf));
            ns += t.elapsed().as_nanos();
        }
        ns as f64
    }
}

/// How much slower than `nominal_maccs` the copy ran when it took `ns`
/// host nanoseconds over `accesses` accesses: a host time divided by it is
/// the time at reference speed.
pub fn slowdown(ns: f64, accesses: usize, nominal_maccs: f64) -> f64 {
    ns * nominal_maccs / (accesses as f64 * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_copy_replays_every_access_kind() {
        let accesses: Vec<Access> = (0..20_000u64)
            .map(|i| match i % 3 {
                0 => Access::fetch(i * 32 % 65_536),
                1 => Access::load(i.wrapping_mul(0x9E37_79B9) % (1 << 22)),
                _ => Access::store(i * 64 % (1 << 20)),
            })
            .collect();
        for mut copy in [RefSim::five_level(), RefSim::shard_core()] {
            assert!(slowdown(copy.run(&accesses, 1024), accesses.len(), 1.0) > 0.0);
            assert_eq!(copy.hier.stats().accesses, accesses.len() as u64);
            assert!(copy.mnm.stats().accesses > 0);
        }
    }
}
