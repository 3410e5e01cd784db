//! HMNM — hybrid configurations (paper §3.5, Table 3).
//!
//! A hybrid MNM combines the techniques: a different SMNM+TMNM mix guards
//! levels 2–3, a CMNM+TMNM mix guards levels 4–5, and a shared RMNM covers
//! every level. All components are sound, so OR-ing their verdicts is sound
//! and coverage can only grow.
//!
//! Paper Table 3 (parameters recovered by cross-referencing the
//! configuration lists of Figures 10–13):
//!
//! | | HMNM1 | HMNM2 | HMNM3 | HMNM4 |
//! |---|---|---|---|---|
//! | Levels 2–3 | SMNM_10x2 + TMNM_10x1 | SMNM_13x2 + TMNM_10x1 | SMNM_15x2 + TMNM_10x1 | SMNM_20x3 + TMNM_10x3 |
//! | Levels 4–5 | CMNM_2_9 + TMNM_10x1 | CMNM_4_10 + TMNM_11x2 | CMNM_8_10 + TMNM_10x3 | CMNM_8_12 + TMNM_12x3 |
//! | All | RMNM_128_1 | RMNM_512_2 | RMNM_2048_4 | RMNM_4096_8 |

use crate::cmnm::CmnmConfig;
use crate::config::{Assignment, MnmConfig, MnmPlacement, TechniqueConfig, DEFAULT_MNM_DELAY};
use crate::rmnm::RmnmConfig;
use crate::smnm::SmnmConfig;
use crate::tmnm::TmnmConfig;

/// The component parameters of one HMNM column of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmnmPreset {
    /// SMNM for levels 2–3: (sum_width, replication).
    pub low_smnm: (u32, u32),
    /// TMNM for levels 2–3: (bits, replication).
    pub low_tmnm: (u32, u32),
    /// CMNM for levels 4–5: (registers, table_bits).
    pub high_cmnm: (u32, u32),
    /// TMNM for levels 4–5: (bits, replication).
    pub high_tmnm: (u32, u32),
    /// Shared RMNM: (blocks, assoc).
    pub rmnm: (u32, u32),
}

/// Table 3, columns HMNM1..HMNM4.
pub const HMNM_PRESETS: [HmnmPreset; 4] = [
    HmnmPreset {
        low_smnm: (10, 2),
        low_tmnm: (10, 1),
        high_cmnm: (2, 9),
        high_tmnm: (10, 1),
        rmnm: (128, 1),
    },
    HmnmPreset {
        low_smnm: (13, 2),
        low_tmnm: (10, 1),
        high_cmnm: (4, 10),
        high_tmnm: (11, 2),
        rmnm: (512, 2),
    },
    HmnmPreset {
        low_smnm: (15, 2),
        low_tmnm: (10, 1),
        high_cmnm: (8, 10),
        high_tmnm: (10, 3),
        rmnm: (2048, 4),
    },
    HmnmPreset {
        low_smnm: (20, 3),
        low_tmnm: (10, 3),
        high_cmnm: (8, 12),
        high_tmnm: (12, 3),
        rmnm: (4096, 8),
    },
];

/// Build the full [`MnmConfig`] for `HMNM<n>`.
///
/// # Panics
///
/// Panics unless `n` is 1..=4.
pub fn hmnm_config(n: u8) -> MnmConfig {
    assert!((1..=4).contains(&n), "the paper defines HMNM1..HMNM4, got HMNM{n}");
    let p = HMNM_PRESETS[(n - 1) as usize];
    MnmConfig {
        name: format!("HMNM{n}"),
        assignments: vec![
            Assignment {
                levels: 2..=3,
                techniques: vec![
                    TechniqueConfig::Smnm(SmnmConfig::new(p.low_smnm.0, p.low_smnm.1)),
                    TechniqueConfig::Tmnm(TmnmConfig::new(p.low_tmnm.0, p.low_tmnm.1)),
                ],
            },
            Assignment {
                levels: 4..=u8::MAX,
                techniques: vec![
                    TechniqueConfig::Cmnm(CmnmConfig::new(p.high_cmnm.0, p.high_cmnm.1)),
                    TechniqueConfig::Tmnm(TmnmConfig::new(p.high_tmnm.0, p.high_tmnm.1)),
                ],
            },
        ],
        rmnm: Some(RmnmConfig::new(p.rmnm.0, p.rmnm.1)),
        delay: DEFAULT_MNM_DELAY,
        placement: MnmPlacement::Parallel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_grow_in_complexity() {
        for w in HMNM_PRESETS.windows(2) {
            assert!(w[1].rmnm.0 > w[0].rmnm.0);
            assert!(w[1].low_smnm.0 >= w[0].low_smnm.0);
        }
    }

    #[test]
    fn hmnm4_matches_table3() {
        let cfg = hmnm_config(4);
        let labels: Vec<String> =
            cfg.assignments.iter().flat_map(|a| a.techniques.iter().map(|t| t.label())).collect();
        assert_eq!(labels, ["SMNM_20x3", "TMNM_10x3", "CMNM_8_12", "TMNM_12x3"]);
        assert_eq!(cfg.rmnm.unwrap().label(), "RMNM_4096_8");
    }

    #[test]
    #[should_panic(expected = "HMNM1..HMNM4")]
    fn rejects_hmnm5() {
        hmnm_config(5);
    }
}
