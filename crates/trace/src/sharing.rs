//! Sharded (multi-core) trace generation.
//!
//! Produces one deterministic per-core instruction stream per simulated
//! core from a single [`AppProfile`], with a tunable **sharing ratio**: a
//! fraction of data cache lines is remapped into one arena common to all
//! cores, the rest into per-core private windows. Remapping is a pure
//! function of the line address, so each core's reuse structure (stack
//! locality, strides, pointer chains) survives the transformation — only
//! *where* the lines live changes. Cores run the same code image (shared
//! PCs, as a parallel workload would) but distinct per-core data seeds,
//! so their access interleavings differ.
//!
//! This feeds the `jsn shard` multi-core simulation: shared lines are
//! what cross-core stores and shared-L3 replacements fight over.

use crate::program::{AppProfile, Program};
use crate::record::{Instr, InstrKind};
use crate::rng::splitmix64;

/// How per-core streams are derived and how much of the data footprint
/// is shared.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingSpec {
    /// Number of cores (streams) to generate.
    pub cores: usize,
    /// Fraction of data cache lines remapped into the shared arena, in
    /// `[0, 1]`.
    pub sharing_ratio: f64,
    /// Size of the shared arena in bytes (power of two). Smaller arenas
    /// force more cross-core line collisions.
    pub shared_bytes: u64,
    /// Remap granularity in bytes (power of two); use the largest line
    /// size in the simulated hierarchy so a "shared line" is shared at
    /// every level.
    pub line_bytes: u64,
    /// Extra seed folded into both the remap hash and the per-core
    /// profile seeds.
    pub seed: u64,
}

impl SharingSpec {
    /// A reasonable default: 4 cores, 1/4 of lines shared in a 256 KiB
    /// arena at 64-byte granularity.
    pub fn new(cores: usize) -> Self {
        SharingSpec {
            cores,
            sharing_ratio: 0.25,
            shared_bytes: 256 * 1024,
            line_bytes: 64,
            seed: 0,
        }
    }

    fn validate(&self) {
        assert!(self.cores > 0, "sharing spec needs at least one core");
        assert!((0.0..=1.0).contains(&self.sharing_ratio), "sharing ratio must be within [0, 1]");
        assert!(
            self.shared_bytes.is_power_of_two() && self.line_bytes.is_power_of_two(),
            "shared arena and line size must be powers of two"
        );
        assert!(self.shared_bytes >= self.line_bytes);
    }
}

/// Byte base of the shared arena in the remapped address space.
pub const SHARED_BASE: u64 = 0x5000_0000_0000;
/// Byte base of core 0's private window; each core's window is
/// `PRIVATE_STRIDE` above the previous one.
pub const PRIVATE_BASE: u64 = 0x6000_0000_0000;
/// Distance between consecutive cores' private windows (larger than any
/// profile's data footprint).
pub const PRIVATE_STRIDE: u64 = 0x0100_0000_0000;

/// One core's remapped instruction stream.
#[derive(Debug)]
pub struct SharedProgram {
    program: Program,
    core: u64,
    line_shift: u32,
    shared_lines: u64,
    /// `sharing_ratio` scaled to u64 per-mille-of-2^16 fixed point.
    share_threshold: u64,
    hash_seed: u64,
}

impl SharedProgram {
    /// Whether `addr` (already remapped) falls in the shared arena.
    pub fn is_shared(addr: u64) -> bool {
        (SHARED_BASE..PRIVATE_BASE).contains(&addr)
    }

    fn remap(&self, addr: u64) -> u64 {
        let line = addr >> self.line_shift;
        let h = splitmix64(line ^ self.hash_seed);
        let offset = addr & ((1 << self.line_shift) - 1);
        if (h & 0xFFFF) < self.share_threshold {
            // Shared: the placement hash is core-independent, so every
            // core that visits this (profile-space) line lands on the
            // same shared line.
            let slot = splitmix64(h) % self.shared_lines;
            SHARED_BASE + (slot << self.line_shift) + offset
        } else {
            // Private: keep the core's own locality structure intact by
            // translating, not hashing. Profile address spaces are far
            // smaller than PRIVATE_STRIDE, so windows never overlap.
            PRIVATE_BASE + self.core * PRIVATE_STRIDE + addr
        }
    }
}

impl Iterator for SharedProgram {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        let mut instr = self.program.next()?;
        instr.kind = match instr.kind {
            InstrKind::Load { addr } => InstrKind::Load { addr: self.remap(addr) },
            InstrKind::Store { addr } => InstrKind::Store { addr: self.remap(addr) },
            other => other,
        };
        Some(instr)
    }
}

/// Build the per-core streams for `profile` under `spec`. Deterministic:
/// the same profile + spec reproduces the same streams.
///
/// # Panics
///
/// Panics if the spec is malformed (zero cores, ratio outside `[0, 1]`,
/// non-power-of-two sizes).
pub fn sharded_programs(profile: &AppProfile, spec: &SharingSpec) -> Vec<SharedProgram> {
    spec.validate();
    let line_shift = spec.line_bytes.trailing_zeros();
    let shared_lines = (spec.shared_bytes / spec.line_bytes).max(1);
    // Exact at the endpoints: ratio 0 never shares, ratio 1 always does.
    let share_threshold = (spec.sharing_ratio * 65536.0).round() as u64;
    (0..spec.cores)
        .map(|core| {
            let mut p = profile.clone();
            // Distinct data/control interleavings per core, same code image.
            p.seed ^= splitmix64(spec.seed ^ (core as u64 + 1));
            SharedProgram {
                program: Program::new(p),
                core: core as u64,
                line_shift,
                shared_lines,
                share_threshold,
                hash_seed: splitmix64(spec.seed ^ 0x5EA5_0A0D),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use std::collections::HashSet;

    fn spec(cores: usize, ratio: f64) -> SharingSpec {
        SharingSpec { sharing_ratio: ratio, seed: 7, ..SharingSpec::new(cores) }
    }

    fn data_addrs(p: &mut SharedProgram, n: usize) -> Vec<u64> {
        let mut out = Vec::new();
        while out.len() < n {
            let i = p.next().expect("programs are endless");
            if let Some(a) = i.data_addr() {
                out.push(a);
            }
        }
        out
    }

    #[test]
    fn streams_are_deterministic_and_distinct_per_core() {
        let prof = profiles::by_name("181.mcf").unwrap();
        let a = data_addrs(&mut sharded_programs(&prof, &spec(4, 0.3)).remove(1), 500);
        let b = data_addrs(&mut sharded_programs(&prof, &spec(4, 0.3)).remove(1), 500);
        assert_eq!(a, b, "same core of the same spec must replay identically");
        let c = data_addrs(&mut sharded_programs(&prof, &spec(4, 0.3)).remove(2), 500);
        assert_ne!(a, c, "different cores must produce different streams");
    }

    #[test]
    fn sharing_ratio_zero_keeps_cores_disjoint() {
        let prof = profiles::by_name("164.gzip").unwrap();
        let mut programs = sharded_programs(&prof, &spec(3, 0.0));
        let mut seen: Vec<HashSet<u64>> = Vec::new();
        for p in &mut programs {
            seen.push(data_addrs(p, 800).into_iter().map(|a| a >> 6).collect());
        }
        for i in 0..seen.len() {
            assert!(seen[i].iter().all(|&a| !SharedProgram::is_shared(a << 6)));
            for j in i + 1..seen.len() {
                assert!(seen[i].is_disjoint(&seen[j]), "cores {i} and {j} overlap at ratio 0");
            }
        }
    }

    #[test]
    fn sharing_ratio_one_puts_all_data_in_the_shared_arena() {
        let prof = profiles::by_name("164.gzip").unwrap();
        for p in &mut sharded_programs(&prof, &spec(2, 1.0)) {
            for a in data_addrs(p, 500) {
                assert!(SharedProgram::is_shared(a), "{a:#x} escaped the shared arena");
            }
        }
    }

    #[test]
    fn shared_lines_actually_collide_across_cores() {
        let prof = profiles::by_name("179.art").unwrap();
        let mut programs = sharded_programs(&prof, &spec(2, 0.5));
        let a: HashSet<u64> = data_addrs(&mut programs[0], 4000)
            .into_iter()
            .filter(|&a| SharedProgram::is_shared(a))
            .map(|a| a >> 6)
            .collect();
        let b: HashSet<u64> = data_addrs(&mut programs[1], 4000)
            .into_iter()
            .filter(|&a| SharedProgram::is_shared(a))
            .map(|a| a >> 6)
            .collect();
        assert!(!a.is_empty() && !b.is_empty());
        assert!(a.intersection(&b).count() > 0, "no cross-core line sharing at ratio 0.5");
    }
}
