//! Multi-core simulation configuration.

use cache_sim::{CacheConfig, HierarchyConfig, LevelConfig};
use mnm_core::MnmConfig;

/// Geometry and policy of an N-core sharded simulation.
///
/// Every core owns a private split L1 and unified L2 plus its own MNM
/// filter state; all cores share one L3. The MNM is built against the
/// **template hierarchy** ([`ShardConfig::template_hierarchy`]) — the
/// three-level system one core observes — so its verdicts carry a bit for
/// the private L2 *and* the shared L3.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of simulated cores (= worker threads in the parallel run).
    pub cores: usize,
    /// Accesses each core executes per epoch.
    pub epoch: usize,
    /// MNM filter configuration instantiated once per core.
    pub mnm: MnmConfig,
    /// Private L1 geometry (instantiated split into il1/dl1).
    pub l1: CacheConfig,
    /// Private unified L2 geometry.
    pub l2: CacheConfig,
    /// Shared L3 geometry.
    pub l3: CacheConfig,
    /// Main-memory latency behind the shared L3, in cycles.
    pub memory_latency: u64,
}

impl ShardConfig {
    /// Default geometry: per-core 4 KB direct-mapped split L1 (32 B,
    /// 2 cycles) and 64 KB 4-way unified L2 (32 B, 10 cycles), shared
    /// 1 MB 8-way L3 (64 B, 24 cycles), 320-cycle memory.
    pub fn new(cores: usize, mnm: MnmConfig) -> Self {
        ShardConfig {
            cores,
            epoch: 2048,
            mnm,
            l1: CacheConfig::new("l1", 4 * 1024, 1, 32, 2),
            l2: CacheConfig::new("ul2", 64 * 1024, 4, 32, 10),
            l3: CacheConfig::new("ul3", 1024 * 1024, 8, 64, 24),
            memory_latency: 320,
        }
    }

    /// The three-level hierarchy one core observes: private L1 + L2 with
    /// the shared L3 behind them. Per-core [`Mnm`](mnm_core::Mnm)s are
    /// built against this, so structure ids are il1=0, dl1=1, ul2=2,
    /// ul3=3 everywhere — the private hierarchy uses the matching prefix
    /// and shared-L3 events are remapped onto id 3.
    pub fn template_hierarchy(&self) -> HierarchyConfig {
        HierarchyConfig {
            levels: vec![
                LevelConfig::split_symmetric(&self.l1),
                LevelConfig::Unified(self.l2.clone()),
                LevelConfig::Unified(self.l3.clone()),
            ],
            memory_latency: self.memory_latency,
            inclusive: false,
        }
    }

    /// One core's private two-level hierarchy. Its memory latency is
    /// zero: whatever spills past the private L2 is priced by the shared
    /// L3 when the epoch resolves, not here.
    pub fn private_hierarchy(&self) -> HierarchyConfig {
        HierarchyConfig {
            levels: vec![
                LevelConfig::split_symmetric(&self.l1),
                LevelConfig::Unified(self.l2.clone()),
            ],
            memory_latency: 0,
            inclusive: false,
        }
    }

    /// The shared L3 as a standalone single-level hierarchy (reusing the
    /// simulator's fill/eviction/stats machinery). Its `StructureId(0)`
    /// is remapped to the template's ul3 id before events reach any
    /// per-core filter.
    pub fn l3_hierarchy(&self) -> HierarchyConfig {
        HierarchyConfig {
            levels: vec![LevelConfig::Unified(self.l3.clone())],
            memory_latency: self.memory_latency,
            inclusive: false,
        }
    }

    /// Validate the geometry.
    ///
    /// # Panics
    ///
    /// Panics on zero cores, a zero-length epoch, or invalid cache
    /// configurations.
    pub fn validate(&self) {
        assert!(self.cores > 0, "sharded simulation needs at least one core");
        assert!(self.epoch > 0, "epoch length must be positive");
        self.template_hierarchy().validate().expect("invalid shard cache geometry");
        assert!(
            self.l3.block_bytes >= self.l1.block_bytes
                && self.l3.block_bytes >= self.l2.block_bytes,
            "the shared L3 line must be at least as large as private lines \
             (coherence is tracked at L3-line granularity)"
        );
    }
}
