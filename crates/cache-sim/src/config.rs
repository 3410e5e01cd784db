//! Static configuration of individual caches and whole hierarchies.

use std::fmt;

use crate::replacement::ReplacementPolicy;

/// A violated configuration constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Block size is zero or not a power of two.
    BlockSize {
        /// Offending cache name.
        cache: String,
        /// The rejected block size.
        bytes: u64,
    },
    /// Associativity is zero.
    Associativity {
        /// Offending cache name.
        cache: String,
    },
    /// Capacity is zero or not a multiple of `assoc * block_bytes`.
    Capacity {
        /// Offending cache name.
        cache: String,
        /// The rejected capacity.
        size_bytes: u64,
    },
    /// The derived set count is not a power of two.
    SetCount {
        /// Offending cache name.
        cache: String,
        /// The rejected set count.
        sets: u64,
    },
    /// A hierarchy was declared with no levels.
    NoLevels,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BlockSize { cache, bytes } => {
                write!(f, "{cache}: block size {bytes} is not a power of two")
            }
            ConfigError::Associativity { cache } => {
                write!(f, "{cache}: associativity must be at least 1")
            }
            ConfigError::Capacity { cache, size_bytes } => {
                write!(f, "{cache}: size {size_bytes} is not a multiple of assoc*block")
            }
            ConfigError::SetCount { cache, sets } => {
                write!(f, "{cache}: set count {sets} is not a power of two")
            }
            ConfigError::NoLevels => write!(f, "hierarchy must have at least one level"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// How writes interact with the next memory level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Dirty blocks are written back only on eviction (SimpleScalar's
    /// default and the assumption behind the paper's traffic).
    WriteBack,
    /// Every store is propagated immediately; evictions are always clean.
    WriteThrough,
}

/// Geometry and timing of a single cache structure.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Human-readable name ("dl1", "ul3", ...). Used in reports.
    pub name: String,
    /// Total capacity in bytes. Must be a multiple of `assoc * block_bytes`.
    pub size_bytes: u64,
    /// Associativity (1 = direct mapped).
    pub assoc: u32,
    /// Line size in bytes. Must be a power of two.
    pub block_bytes: u64,
    /// Cycles to return data on a hit.
    pub hit_latency: u64,
    /// Cycles to determine a miss. The paper's Equation 1 distinguishes
    /// `cache_hit_time` from `cache_miss_time`; with tag and data probed in
    /// parallel they coincide, which is the default ([`CacheConfig::new`]).
    pub miss_latency: u64,
    /// Replacement policy for the sets.
    pub replacement: ReplacementPolicy,
    /// Write handling (affects writeback traffic and energy only; block
    /// residency is identical under both policies with write-allocate).
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// Create a cache configuration with LRU replacement and
    /// `miss_latency == hit_latency`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::validate`]).
    pub fn new(name: &str, size_bytes: u64, assoc: u32, block_bytes: u64, latency: u64) -> Self {
        let cfg = CacheConfig {
            name: name.to_owned(),
            size_bytes,
            assoc,
            block_bytes,
            hit_latency: latency,
            miss_latency: latency,
            replacement: ReplacementPolicy::Lru,
            write_policy: WritePolicy::WriteBack,
        };
        cfg.validate().expect("invalid cache configuration");
        cfg
    }

    /// Override the miss-detect latency.
    pub fn with_miss_latency(mut self, miss_latency: u64) -> Self {
        self.miss_latency = miss_latency;
        self
    }

    /// Override the replacement policy.
    pub fn with_replacement(mut self, replacement: ReplacementPolicy) -> Self {
        self.replacement = replacement;
        self
    }

    /// Override the write policy.
    pub fn with_write_policy(mut self, write_policy: WritePolicy) -> Self {
        self.write_policy = write_policy;
        self
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.block_bytes * u64::from(self.assoc))
    }

    /// Number of blocks (lines).
    pub fn num_blocks(&self) -> u64 {
        self.size_bytes / self.block_bytes
    }

    /// Frame slots at MNM granularity `granularity`: one per sub-block of
    /// every frame, `sets × assoc × max(1, block_bytes / granularity)`.
    /// Every slot a [`CacheEvent::run`](crate::CacheEvent::run) of this
    /// structure covers lies below it. With lines smaller than
    /// the granularity this exceeds `size_bytes / granularity`, because
    /// two frames can then hold parts of one MNM block.
    pub fn frame_slots(&self, granularity: u64) -> u64 {
        self.num_blocks() * (self.block_bytes / granularity).max(1)
    }

    /// log2 of the block size: the shift that turns a byte address into a
    /// block address.
    pub fn block_shift(&self) -> u32 {
        self.block_bytes.trailing_zeros()
    }

    /// Check the geometry for consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: zero or non-power-of-two
    /// block size, zero associativity, capacity not a multiple of
    /// `assoc * block_bytes`, or a non-power-of-two set count.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.block_bytes == 0 || !self.block_bytes.is_power_of_two() {
            return Err(ConfigError::BlockSize {
                cache: self.name.clone(),
                bytes: self.block_bytes,
            });
        }
        if self.assoc == 0 {
            return Err(ConfigError::Associativity { cache: self.name.clone() });
        }
        let way_bytes = self.block_bytes * u64::from(self.assoc);
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(way_bytes) {
            return Err(ConfigError::Capacity {
                cache: self.name.clone(),
                size_bytes: self.size_bytes,
            });
        }
        if !self.num_sets().is_power_of_two() {
            return Err(ConfigError::SetCount { cache: self.name.clone(), sets: self.num_sets() });
        }
        Ok(())
    }
}

/// One level of the hierarchy: either split instruction/data structures or a
/// single unified structure.
#[derive(Debug, Clone, PartialEq)]
pub enum LevelConfig {
    /// Separate instruction and data caches (the paper's L1 and L2).
    Split {
        /// Instruction-side cache.
        instr: CacheConfig,
        /// Data-side cache.
        data: CacheConfig,
    },
    /// A single cache serving both paths (the paper's U3–U5).
    Unified(CacheConfig),
}

impl LevelConfig {
    /// Split level with identical instruction and data geometry.
    pub fn split_symmetric(base: &CacheConfig) -> Self {
        let mut instr = base.clone();
        instr.name = format!("i{}", base.name);
        let mut data = base.clone();
        data.name = format!("d{}", base.name);
        LevelConfig::Split { instr, data }
    }

    /// All cache configs in this level.
    pub fn configs(&self) -> Vec<&CacheConfig> {
        match self {
            LevelConfig::Split { instr, data } => vec![instr, data],
            LevelConfig::Unified(c) => vec![c],
        }
    }
}

/// Full hierarchy configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// Levels ordered from L1 outward.
    pub levels: Vec<LevelConfig>,
    /// Main-memory access latency in cycles.
    pub memory_latency: u64,
    /// When true, evicting a block from level *i* also invalidates it in all
    /// levels closer to the core (inclusive hierarchy). The paper assumes
    /// non-inclusive caches; this switch exists for the ablation study.
    pub inclusive: bool,
}

impl HierarchyConfig {
    /// Validate every level.
    ///
    /// # Errors
    ///
    /// Returns the first invalid cache configuration's [`ConfigError`], or
    /// [`ConfigError::NoLevels`] for an empty hierarchy.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.levels.is_empty() {
            return Err(ConfigError::NoLevels);
        }
        for level in &self.levels {
            for cfg in level.configs() {
                cfg.validate()?;
            }
        }
        Ok(())
    }

    /// Number of cache levels (memory not counted).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The L1-I line size: the fetch block of an instruction stream.
    pub fn fetch_block_bytes(&self) -> u64 {
        match &self.levels[0] {
            LevelConfig::Split { instr, .. } => instr.block_bytes,
            LevelConfig::Unified(cache) => cache.block_bytes,
        }
    }

    /// The paper's 5-level simulated processor (Section 4.1):
    /// 4 KB direct-mapped split L1 (32 B, 2 cycles), 16 KB 2-way split L2
    /// (32 B, 8 cycles), 128 KB 4-way U3 (64 B, 18 cycles), 512 KB 4-way U4
    /// (128 B, 34 cycles), 2 MB 8-way U5 (128 B, 70 cycles), 320-cycle
    /// memory.
    pub fn paper_five_level() -> Self {
        HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 4 * 1024, 1, 32, 2),
                    data: CacheConfig::new("dl1", 4 * 1024, 1, 32, 2),
                },
                LevelConfig::Split {
                    instr: CacheConfig::new("il2", 16 * 1024, 2, 32, 8),
                    data: CacheConfig::new("dl2", 16 * 1024, 2, 32, 8),
                },
                LevelConfig::Unified(CacheConfig::new("ul3", 128 * 1024, 4, 64, 18)),
                LevelConfig::Unified(CacheConfig::new("ul4", 512 * 1024, 4, 128, 34)),
                LevelConfig::Unified(CacheConfig::new("ul5", 2 * 1024 * 1024, 8, 128, 70)),
            ],
            memory_latency: 320,
            inclusive: false,
        }
    }

    /// A 2-level hierarchy for the motivation experiments (Figures 2–3):
    /// the paper's L1 backed directly by the paper's outermost cache.
    pub fn two_level() -> Self {
        HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 4 * 1024, 1, 32, 2),
                    data: CacheConfig::new("dl1", 4 * 1024, 1, 32, 2),
                },
                LevelConfig::Unified(CacheConfig::new("ul2", 2 * 1024 * 1024, 8, 128, 70)),
            ],
            memory_latency: 320,
            inclusive: false,
        }
    }

    /// A two-level TLB (paper §4.5's "other caching structures such as
    /// the TLBs") as a hierarchy whose blocks are 4 KiB pages: a 64-entry
    /// 16-way `tlb1` (1 cycle) backed by a 512-entry 4-way `tlb2` (4
    /// cycles), both LRU, with the 80-cycle page walk as memory. The MNM
    /// granularity is then the page, so a filter keys on page numbers.
    pub fn two_level_tlb() -> Self {
        const PAGE: u64 = 4096;
        HierarchyConfig {
            levels: vec![
                LevelConfig::Unified(CacheConfig::new("tlb1", 64 * PAGE, 16, PAGE, 1)),
                LevelConfig::Unified(CacheConfig::new("tlb2", 512 * PAGE, 4, PAGE, 4)),
            ],
            memory_latency: 80,
            inclusive: false,
        }
    }

    /// A 3-level hierarchy for the motivation experiments (Figures 2–3).
    pub fn three_level() -> Self {
        HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 4 * 1024, 1, 32, 2),
                    data: CacheConfig::new("dl1", 4 * 1024, 1, 32, 2),
                },
                LevelConfig::Split {
                    instr: CacheConfig::new("il2", 16 * 1024, 2, 32, 8),
                    data: CacheConfig::new("dl2", 16 * 1024, 2, 32, 8),
                },
                LevelConfig::Unified(CacheConfig::new("ul3", 2 * 1024 * 1024, 8, 128, 70)),
            ],
            memory_latency: 320,
            inclusive: false,
        }
    }

    /// A 7-level hierarchy for the motivation experiments (Figures 2–3):
    /// the 5-level configuration extended with an 8 MB L6 and a 32 MB L7.
    pub fn seven_level() -> Self {
        let mut cfg = Self::paper_five_level();
        cfg.levels.push(LevelConfig::Unified(CacheConfig::new(
            "ul6",
            8 * 1024 * 1024,
            8,
            128,
            110,
        )));
        cfg.levels.push(LevelConfig::Unified(CacheConfig::new(
            "ul7",
            32 * 1024 * 1024,
            16,
            128,
            160,
        )));
        cfg
    }

    /// The motivation-study hierarchy with `n` levels (2, 3, 5 or 7).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not one of 2, 3, 5, 7.
    pub fn motivation_levels(n: usize) -> Self {
        match n {
            2 => Self::two_level(),
            3 => Self::three_level(),
            5 => Self::paper_five_level(),
            7 => Self::seven_level(),
            other => panic!("motivation study only defines 2/3/5/7 levels, got {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        let cfg = HierarchyConfig::paper_five_level();
        cfg.validate().unwrap();
        assert_eq!(cfg.num_levels(), 5);
        assert_eq!(cfg.memory_latency, 320);
        assert!(!cfg.inclusive);
        assert_eq!(cfg.fetch_block_bytes(), 32);
    }

    #[test]
    fn motivation_configs_are_valid() {
        for n in [2, 3, 5, 7] {
            let cfg = HierarchyConfig::motivation_levels(n);
            cfg.validate().unwrap();
            assert_eq!(cfg.num_levels(), n);
        }
    }

    #[test]
    fn two_level_tlb_is_valid() {
        let cfg = HierarchyConfig::two_level_tlb();
        cfg.validate().unwrap();
        let entries: Vec<_> = cfg
            .levels
            .iter()
            .flat_map(|l| l.configs())
            .map(|c| (c.num_blocks(), c.assoc, c.block_bytes, c.replacement))
            .collect();
        let lru = ReplacementPolicy::Lru;
        assert_eq!(entries, [(64, 16, 4096, lru), (512, 4, 4096, lru)]);
        assert_eq!(cfg.memory_latency, 80);
    }

    #[test]
    #[should_panic(expected = "motivation study")]
    fn motivation_rejects_unknown_depth() {
        HierarchyConfig::motivation_levels(4);
    }

    #[test]
    fn cache_geometry_accessors() {
        let c = CacheConfig::new("dl1", 4096, 1, 32, 2);
        assert_eq!(c.num_sets(), 128);
        assert_eq!(c.num_blocks(), 128);
        assert_eq!(c.block_shift(), 5);
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut c = CacheConfig::new("x", 4096, 2, 32, 1);
        c.block_bytes = 48;
        assert!(c.validate().is_err());
        let mut c = CacheConfig::new("x", 4096, 2, 32, 1);
        c.assoc = 0;
        assert!(c.validate().is_err());
        let mut c = CacheConfig::new("x", 4096, 2, 32, 1);
        c.size_bytes = 5000;
        assert!(c.validate().is_err());
        // 3 sets: not a power of two.
        let mut c = CacheConfig::new("x", 4096, 2, 32, 1);
        c.size_bytes = 3 * 2 * 32;
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid cache configuration")]
    fn new_panics_on_invalid() {
        CacheConfig::new("bad", 100, 3, 24, 1);
    }

    #[test]
    fn config_errors_display_the_cache_name() {
        let mut c = CacheConfig::new("dl1", 4096, 2, 32, 1);
        c.block_bytes = 48;
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::BlockSize { cache: "dl1".into(), bytes: 48 });
        assert!(err.to_string().contains("dl1"));
        let empty = HierarchyConfig { levels: vec![], memory_latency: 1, inclusive: false };
        assert_eq!(empty.validate().unwrap_err(), ConfigError::NoLevels);
    }

    #[test]
    fn split_symmetric_names_sides() {
        let base = CacheConfig::new("l1", 4096, 1, 32, 2);
        let level = LevelConfig::split_symmetric(&base);
        let names: Vec<_> = level.configs().iter().map(|c| c.name.clone()).collect();
        assert_eq!(names, ["il1", "dl1"]);
    }
}
