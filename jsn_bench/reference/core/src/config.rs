//! MNM machine configuration: technique assignment per level group,
//! placement, delay, and the paper's configuration-string grammar.

use std::fmt;
use std::ops::RangeInclusive;

use crate::bloom::BloomConfig;
use crate::cmnm::CmnmConfig;
use crate::rmnm::RmnmConfig;
use crate::smnm::SmnmConfig;
use crate::tmnm::TmnmConfig;

/// Where the MNM sits relative to the L1 caches (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MnmPlacement {
    /// Accessed in parallel with the L1 caches; its verdict is ready before
    /// the L1 miss is detected, so bypassing adds no latency. Queried on
    /// *every* access (more MNM energy). Used for the execution-time
    /// results (paper §4.3).
    Parallel,
    /// Accessed only after an L1 miss; adds the MNM delay to every access
    /// beyond L1 but consumes far less energy. Used for the power results
    /// (paper §4.4).
    Serial,
    /// Distributed before each cache level (paper §2: "Such a
    /// configuration will have better power consumption, but will increase
    /// the access times"): each level's filter is consulted right before
    /// that level, so only levels actually reached pay query energy, and
    /// every consulted level adds the MNM delay.
    Distributed,
}

/// One per-structure filter technique (everything except the shared RMNM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TechniqueConfig {
    /// Sum-hash checkers (paper §3.2).
    Smnm(SmnmConfig),
    /// Counter tables (paper §3.3).
    Tmnm(TmnmConfig),
    /// Virtual-tag finder + counter table (paper §3.4).
    Cmnm(CmnmConfig),
    /// Counting Bloom filter (related work: Peir et al.; generalizes TMNM
    /// with real hash functions).
    Bloom(BloomConfig),
}

impl TechniqueConfig {
    /// The paper's label for this technique configuration.
    pub fn label(&self) -> String {
        match self {
            TechniqueConfig::Smnm(c) => c.label(),
            TechniqueConfig::Tmnm(c) => c.label(),
            TechniqueConfig::Cmnm(c) => c.label(),
            TechniqueConfig::Bloom(c) => c.label(),
        }
    }
}

/// Techniques applied to the structures of a group of cache levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Cache levels (1-based, inclusive) this assignment covers. Level 1 is
    /// never filtered even if included.
    pub levels: RangeInclusive<u8>,
    /// Filters instantiated per structure in the group; an access is a
    /// definite miss if *any* filter says so.
    pub techniques: Vec<TechniqueConfig>,
}

/// Full configuration of a [`Mnm`](crate::Mnm).
#[derive(Debug, Clone, PartialEq)]
pub struct MnmConfig {
    /// Display name, e.g. `"HMNM4"` or `"TMNM_12x3"`.
    pub name: String,
    /// Per-level-group technique assignments.
    pub assignments: Vec<Assignment>,
    /// Optional shared replacements cache covering every guarded structure.
    pub rmnm: Option<RmnmConfig>,
    /// MNM access delay in cycles (paper §4.1: 2 cycles).
    pub delay: u64,
    /// Parallel or serial placement.
    pub placement: MnmPlacement,
}

/// Default MNM delay in cycles (paper §4.1).
pub const DEFAULT_MNM_DELAY: u64 = 2;

impl MnmConfig {
    /// A single technique applied to every cache level beyond L1.
    pub fn single(technique: TechniqueConfig) -> Self {
        MnmConfig {
            name: technique.label(),
            assignments: vec![Assignment { levels: 2..=u8::MAX, techniques: vec![technique] }],
            rmnm: None,
            delay: DEFAULT_MNM_DELAY,
            placement: MnmPlacement::Parallel,
        }
    }

    /// An RMNM-only machine.
    pub fn rmnm_only(config: RmnmConfig) -> Self {
        MnmConfig {
            name: config.label(),
            assignments: Vec::new(),
            rmnm: Some(config),
            delay: DEFAULT_MNM_DELAY,
            placement: MnmPlacement::Parallel,
        }
    }

    /// The paper's hybrid configuration `HMNM<n>` (Table 3).
    ///
    /// # Panics
    ///
    /// Panics unless `n` is 1..=4.
    pub fn hmnm(n: u8) -> Self {
        crate::hybrid::hmnm_config(n)
    }

    /// Change the placement (builder style).
    pub fn with_placement(mut self, placement: MnmPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Change the MNM delay (builder style).
    pub fn with_delay(mut self, delay: u64) -> Self {
        self.delay = delay;
        self
    }

    /// Parse a paper-style configuration label.
    ///
    /// Grammar: `RMNM_<blocks>_<assoc>`, `SMNM_<width>x<repl>`,
    /// `TMNM_<bits>x<repl>`, `CMNM_<registers>_<table_bits>`, `HMNM<n>`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseConfigError`] when the label does not match the
    /// grammar or carries out-of-range parameters.
    pub fn parse(label: &str) -> Result<Self, ParseConfigError> {
        let err = || ParseConfigError { label: label.to_owned() };
        let parse_u32 = |s: &str| s.parse::<u32>().map_err(|_| err());

        if let Some(rest) = label.strip_prefix("RMNM_") {
            let (a, b) = rest.split_once('_').ok_or_else(err)?;
            let (blocks, assoc) = (parse_u32(a)?, parse_u32(b)?);
            if !blocks.is_power_of_two() || assoc == 0 || blocks % assoc != 0 {
                return Err(err());
            }
            return Ok(Self::rmnm_only(RmnmConfig::new(blocks, assoc)));
        }
        if let Some(rest) = label.strip_prefix("SMNM_") {
            let (a, b) = rest.split_once('x').ok_or_else(err)?;
            let (w, r) = (parse_u32(a)?, parse_u32(b)?);
            if w == 0 || w > 32 || !(1..=3).contains(&r) {
                return Err(err());
            }
            return Ok(Self::single(TechniqueConfig::Smnm(SmnmConfig::new(w, r))));
        }
        if let Some(rest) = label.strip_prefix("TMNM_") {
            let (a, b) = rest.split_once('x').ok_or_else(err)?;
            let (n, r) = (parse_u32(a)?, parse_u32(b)?);
            if !(1..=24).contains(&n) || !(1..=3).contains(&r) {
                return Err(err());
            }
            return Ok(Self::single(TechniqueConfig::Tmnm(TmnmConfig::new(n, r))));
        }
        if let Some(rest) = label.strip_prefix("CMNM_") {
            let (a, b) = rest.split_once('_').ok_or_else(err)?;
            let (k, m) = (parse_u32(a)?, parse_u32(b)?);
            if !k.is_power_of_two() || !(1..31).contains(&m) {
                return Err(err());
            }
            return Ok(Self::single(TechniqueConfig::Cmnm(CmnmConfig::new(k, m))));
        }
        if let Some(rest) = label.strip_prefix("BLOOM_") {
            let (a, b) = rest.split_once('x').ok_or_else(err)?;
            let (n, k) = (parse_u32(a)?, parse_u32(b)?);
            if !(1..=24).contains(&n) || !(1..=8).contains(&k) {
                return Err(err());
            }
            return Ok(Self::single(TechniqueConfig::Bloom(BloomConfig::new(n, k))));
        }
        if let Some(rest) = label.strip_prefix("HMNM") {
            let n: u8 = rest.parse().map_err(|_| err())?;
            if !(1..=4).contains(&n) {
                return Err(err());
            }
            return Ok(Self::hmnm(n));
        }
        Err(err())
    }

    /// Techniques assigned to cache level `level`.
    pub fn techniques_for_level(&self, level: u8) -> Vec<TechniqueConfig> {
        self.assignments
            .iter()
            .filter(|a| a.levels.contains(&level))
            .flat_map(|a| a.techniques.iter().copied())
            .collect()
    }
}

/// Error returned by [`MnmConfig::parse`] for an unrecognized label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    /// The offending label.
    pub label: String,
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unrecognized MNM configuration label `{}`", self.label)
    }
}

impl std::error::Error for ParseConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_paper_labels() {
        for label in [
            "RMNM_128_1",
            "RMNM_512_2",
            "RMNM_2048_4",
            "RMNM_4096_8",
            "SMNM_10x2",
            "SMNM_13x2",
            "SMNM_15x2",
            "SMNM_20x3",
            "TMNM_10x1",
            "TMNM_11x2",
            "TMNM_10x3",
            "TMNM_12x3",
            "CMNM_2_9",
            "CMNM_4_10",
            "CMNM_8_10",
            "CMNM_8_12",
        ] {
            let cfg = MnmConfig::parse(label).unwrap();
            assert_eq!(cfg.name, label);
        }
    }

    #[test]
    fn parse_hmnm_builds_hybrid() {
        let cfg = MnmConfig::parse("HMNM2").unwrap();
        assert_eq!(cfg.name, "HMNM2");
        assert!(cfg.rmnm.is_some());
        assert!(!cfg.assignments.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in
            ["", "XMNM_1", "TMNM_12", "TMNM_0x1", "SMNM_10x9", "RMNM_100_2", "HMNM9", "CMNM_3_10"]
        {
            assert!(MnmConfig::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn techniques_for_level_respects_ranges() {
        let cfg = MnmConfig::hmnm(4);
        let l2 = cfg.techniques_for_level(2);
        let l5 = cfg.techniques_for_level(5);
        assert!(!l2.is_empty() && !l5.is_empty());
        assert_ne!(l2, l5, "HMNM uses different mixes for levels 2-3 and 4-5");
    }

    #[test]
    fn single_covers_all_levels() {
        let cfg = MnmConfig::parse("TMNM_12x3").unwrap();
        assert_eq!(cfg.techniques_for_level(2), cfg.techniques_for_level(5));
        assert_eq!(cfg.delay, DEFAULT_MNM_DELAY);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = MnmConfig::parse("TMNM_10x1")
            .unwrap()
            .with_delay(4)
            .with_placement(MnmPlacement::Serial);
        assert_eq!(cfg.delay, 4);
        assert_eq!(cfg.placement, MnmPlacement::Serial);
    }

    #[test]
    fn parse_error_displays_label() {
        let e = MnmConfig::parse("BOGUS").unwrap_err();
        assert!(e.to_string().contains("BOGUS"));
    }
}
