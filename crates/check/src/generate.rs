//! Deterministic trace generation for the differential checker.
//!
//! Every scenario is reproducible from `(generator, seed, len)` alone: the
//! profile generator reuses the 20 synthetic SPEC2000-like programs from
//! `trace-synth`, and the adversarial generators target the specific
//! weaknesses each filter family could hide — aliasing (hash/tag
//! collisions), flushes (state clearing races between filters and caches),
//! and saturation (sticky counters pinned at their ceiling).

use cache_sim::Access;
use trace_synth::rng::{fnv1a, splitmix64};
use trace_synth::{profiles, Prng, Program};

/// One step of a checked replay: a memory access or a full system flush
/// (caches and filters cleared in the same step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Drive one access through hierarchy, filter, and reference model.
    Access(Access),
    /// Flush caches and filter state together (`Mnm::flush_system`).
    Flush,
}

/// The checker's trace generator families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceGen {
    /// An application profile from `trace-synth`, chosen by seed; exercises
    /// realistic locality plus the instruction-fetch path.
    Profile,
    /// Uniform random accesses in a tight arena: constant conflict
    /// evictions at every level, the worst case for tag/hash aliasing.
    Aliasing,
    /// Aliasing-heavy traffic interleaved with full-system flushes,
    /// probing filter/cache reset propagation.
    FlushHeavy,
    /// A small ring of set-conflicting blocks cycled far past the cache
    /// associativity: every block is placed and replaced over and over,
    /// pushing TMNM/Bloom counters into (and back out of) saturation.
    Saturation,
}

impl TraceGen {
    /// All generator families, in reporting order.
    pub const ALL: [TraceGen; 4] =
        [TraceGen::Profile, TraceGen::Aliasing, TraceGen::FlushHeavy, TraceGen::Saturation];

    /// The name used by `jsn check --gen`.
    pub fn name(self) -> &'static str {
        match self {
            TraceGen::Profile => "profile",
            TraceGen::Aliasing => "aliasing",
            TraceGen::FlushHeavy => "flush",
            TraceGen::Saturation => "saturation",
        }
    }

    /// Parse a `--gen` argument.
    pub fn parse(name: &str) -> Option<TraceGen> {
        TraceGen::ALL.into_iter().find(|g| g.name() == name)
    }

    /// Produce the deterministic op stream for `seed`, with exactly `len`
    /// ops (the last op is always an access, never a trailing flush).
    pub fn generate(self, seed: u64, len: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(len);
        match self {
            TraceGen::Profile => generate_profile(seed, len, &mut ops),
            TraceGen::Aliasing => generate_arena(seed, len, 0, &mut ops),
            TraceGen::FlushHeavy => generate_arena(seed, len, 48, &mut ops),
            TraceGen::Saturation => generate_saturation(seed, len, &mut ops),
        }
        while matches!(ops.last(), Some(Op::Flush)) {
            ops.pop();
        }
        ops
    }
}

fn generate_profile(seed: u64, len: usize, ops: &mut Vec<Op>) {
    let names = profiles::names();
    let profile = profiles::by_name(&names[(seed as usize) % names.len()])
        .expect("profile names are self-consistent");
    // Vary the window into the program by seed so different seeds of the
    // same profile see different phases.
    let skip = ((seed >> 8) % 4096) as usize;
    for instr in Program::new(profile).skip(skip) {
        if ops.len() >= len {
            break;
        }
        ops.push(Op::Access(Access::fetch(instr.pc)));
        if let Some(addr) = instr.data_addr() {
            if ops.len() >= len {
                break;
            }
            let access = match instr.kind {
                trace_synth::InstrKind::Store { .. } => Access::store(addr),
                _ => Access::load(addr),
            };
            ops.push(Op::Access(access));
        }
    }
}

/// Random accesses confined to a small arena. `flush_inv` > 0 inserts a
/// full-system flush with probability 1/`flush_inv` per op.
fn generate_arena(seed: u64, len: usize, flush_inv: u64, ops: &mut Vec<Op>) {
    let mut rng = Prng::seed_from_u64(seed);
    // Arena sizes bracket the adversarial hierarchy's outermost cache, so
    // some seeds thrash every level and others only the inner ones.
    let arena = [0x1000u64, 0x2000, 0x4000][(seed % 3) as usize];
    for _ in 0..len {
        if flush_inv > 0 && rng.next_u64().is_multiple_of(flush_inv) {
            ops.push(Op::Flush);
            continue;
        }
        let addr = (rng.next_u64() % arena) & !0x3;
        ops.push(Op::Access(pick_kind(&mut rng, addr)));
    }
}

fn generate_saturation(seed: u64, len: usize, ops: &mut Vec<Op>) {
    let mut rng = Prng::seed_from_u64(seed ^ 0xD1F7_5A7A_710B_u64);
    // A ring of `group` blocks spaced a power-of-two stride apart: they
    // share sets in every power-of-two-sized structure, so each re-visit
    // evicts a ring neighbour. Ring size exceeds any configured
    // associativity; nothing ever stays resident for a full revolution.
    let group = 5 + rng.next_u64() % 8;
    let stride = 0x400u64 << (rng.next_u64() % 3);
    let mut pos = 0u64;
    for _ in 0..len {
        let r = rng.next_u64();
        // Mostly march the ring; occasionally revisit or hop to a second
        // ring offset by one block so both halves of larger lines appear.
        if !r.is_multiple_of(4) {
            pos += 1;
        }
        let base = if r.is_multiple_of(16) { 0x20 } else { 0 };
        let addr = base + (pos % group) * stride;
        ops.push(Op::Access(pick_kind(&mut rng, addr)));
    }
}

fn pick_kind(rng: &mut Prng, addr: u64) -> Access {
    match rng.next_u64() % 4 {
        0 => Access::store(addr),
        1 => Access::fetch(addr),
        _ => Access::load(addr),
    }
}

/// Render an op stream in the reproducer format (one op per line:
/// `load 0x…`, `store 0x…`, `fetch 0x…`, or `flush`).
pub fn render_ops(ops: &[Op]) -> String {
    let mut out = String::new();
    for op in ops {
        match op {
            Op::Flush => out.push_str("flush\n"),
            Op::Access(a) => {
                let verb = match a.kind {
                    cache_sim::AccessKind::Load => "load",
                    cache_sim::AccessKind::Store => "store",
                    cache_sim::AccessKind::InstrFetch => "fetch",
                };
                out.push_str(&format!("{verb} {:#x}\n", a.addr));
            }
        }
    }
    out
}

/// Derive the deterministic seed of scenario `k` for `(filter, gen)`:
/// FNV-1a over the names, finalized with splitmix64 per index.
pub fn scenario_seed(filter: &str, gen: TraceGen, k: u64) -> u64 {
    let h = fnv1a(&format!("{filter}{}", gen.name()));
    splitmix64(h ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for gen in TraceGen::ALL {
            let a = gen.generate(42, 500);
            let b = gen.generate(42, 500);
            assert_eq!(a, b, "{}", gen.name());
            assert!(a.len() <= 500);
            assert!(!a.is_empty());
            let c = gen.generate(43, 500);
            assert_ne!(a, c, "{}: different seeds must differ", gen.name());
        }
    }

    #[test]
    fn flush_heavy_contains_flushes_and_others_do_not() {
        let flushes = |g: TraceGen| g.generate(7, 2000).iter().filter(|o| **o == Op::Flush).count();
        assert!(flushes(TraceGen::FlushHeavy) > 0);
        assert_eq!(flushes(TraceGen::Aliasing), 0);
        assert_eq!(flushes(TraceGen::Profile), 0);
        assert_eq!(flushes(TraceGen::Saturation), 0);
    }

    #[test]
    fn traces_never_end_in_a_flush() {
        for seed in 0..32 {
            let ops = TraceGen::FlushHeavy.generate(seed, 200);
            assert!(!matches!(ops.last(), Some(Op::Flush)));
        }
    }

    #[test]
    fn gen_names_round_trip() {
        for g in TraceGen::ALL {
            assert_eq!(TraceGen::parse(g.name()), Some(g));
        }
        assert_eq!(TraceGen::parse("bogus"), None);
    }

    #[test]
    fn scenario_seeds_are_spread() {
        let a = scenario_seed("TMNM_12x3", TraceGen::Aliasing, 0);
        let b = scenario_seed("TMNM_12x3", TraceGen::Aliasing, 1);
        let c = scenario_seed("SMNM_13x2", TraceGen::Aliasing, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable across runs: these are replayable identifiers.
        assert_eq!(a, scenario_seed("TMNM_12x3", TraceGen::Aliasing, 0));
    }

    #[test]
    fn render_ops_formats_every_kind() {
        let ops = [
            Op::Access(Access::load(0x40)),
            Op::Access(Access::store(0x80)),
            Op::Access(Access::fetch(0xc0)),
            Op::Flush,
        ];
        assert_eq!(render_ops(&ops), "load 0x40\nstore 0x80\nfetch 0xc0\nflush\n");
    }
}
