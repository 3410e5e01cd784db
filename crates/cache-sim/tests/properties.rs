//! Property-style tests of the cache simulator's core invariants.
//!
//! Formerly proptest-based; rewritten as deterministic seeded sweeps (the
//! shared `trace_synth::rng::splitmix64` drives the input generation) so
//! the workspace builds with no external crates. Each property runs over
//! many seeds, covering the same input distributions as before on every
//! run.

use cache_sim::{
    Access, AccessKind, BypassSet, Cache, CacheConfig, EventKind, Hierarchy, HierarchyConfig,
    LevelConfig, ProbeOutcome, ReplacementPolicy, ReplayScratch,
};
use std::collections::HashSet;
use trace_synth::rng::splitmix64;

/// Deterministic test inputs: the SplitMix64 stream seeded with `.0`.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn addrs(&mut self, bound: u64, max_len: u64) -> Vec<u64> {
        let n = 1 + self.below(max_len);
        (0..n).map(|_| self.below(bound)).collect()
    }
}

fn small_config(assoc: u32, policy: ReplacementPolicy) -> CacheConfig {
    CacheConfig::new("t", 8 * u64::from(assoc) * 32, assoc, 32, 1).with_replacement(policy)
}

/// A reference model over a set-associative cache: occupancy never
/// exceeds capacity, a just-filled block is always resident, and
/// evictions report blocks that were genuinely resident.
#[test]
fn cache_matches_reference_semantics() {
    let policies = [ReplacementPolicy::Lru, ReplacementPolicy::Fifo, ReplacementPolicy::Random];
    // `Gen` is the canonical SplitMix64 stream: the reference outputs for
    // seed 0.
    let mut g = Gen(0);
    assert_eq!([g.next(), g.next()], [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4]);
    let mut gen = Gen(0xCAC4E);
    for case in 0..64u64 {
        let assoc = 1 + (case % 4) as u32;
        let policy = policies[(case / 4) as usize % policies.len()];
        let addrs = gen.addrs(0x4000, 400);

        let cache = Cache::new(small_config(assoc, policy));
        let capacity = cache.config().num_blocks() as usize;
        let mut resident: HashSet<u64> = HashSet::new();
        let mut hier = Hierarchy::new(HierarchyConfig {
            levels: vec![LevelConfig::Unified(small_config(assoc, policy))],
            memory_latency: 10,
            inclusive: false,
        });
        let mut scratch = ReplayScratch::new();
        for &addr in &addrs {
            let base = cache.block_base(addr);
            hier.access_with_events(Access::load(addr), &BypassSet::none(), &mut scratch);
            for ev in scratch.events() {
                match ev.kind {
                    EventKind::Placed => {
                        assert_eq!(ev.block_base, base);
                        resident.insert(ev.block_base);
                    }
                    EventKind::Replaced | EventKind::Invalidated => {
                        assert!(
                            resident.remove(&ev.block_base),
                            "removed a block that was not resident: {:#x}",
                            ev.block_base
                        );
                    }
                }
            }
            assert!(resident.len() <= capacity);
            assert!(resident.contains(&base), "block must be resident after access");
            let sid = hier.structures()[0].id;
            assert!(hier.contains(sid, addr));
        }
        // The reference set and the cache agree exactly.
        let sid = hier.structures()[0].id;
        for &b in &resident {
            assert!(hier.contains(sid, b));
        }
        assert_eq!(hier.cache(sid).occupancy(), resident.len());
    }
}

/// Latency accounting: every access's latency equals the sum of its
/// probe latencies plus memory when it reached memory.
#[test]
fn latency_is_sum_of_probe_latencies() {
    let mut gen = Gen(0x1A7E);
    for _ in 0..64 {
        let addrs = gen.addrs(0x20000, 300);
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut scratch = ReplayScratch::new();
        for &addr in &addrs {
            let r = hier.access_with_events(Access::load(addr), &BypassSet::none(), &mut scratch);
            let probe_sum: u64 = scratch.probes().iter().map(|p| p.latency).sum();
            let mem = if r.supply_level == hier.memory_level() {
                hier.config().memory_latency
            } else {
                0
            };
            assert_eq!(r.latency, probe_sum + mem);
        }
        assert_eq!(hier.stats().accesses, addrs.len() as u64);
    }
}

/// Statistics are internally consistent after any access mix.
#[test]
fn stats_are_consistent() {
    let mut gen = Gen(0x57A75);
    for _ in 0..64 {
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let n = 1 + gen.below(400);
        let mut instr = 0u64;
        for _ in 0..n {
            let addr = gen.below(0x10000);
            let access = match gen.below(3) {
                0 => Access::load(addr),
                1 => Access::store(addr),
                _ => {
                    instr += 1;
                    Access::fetch(addr)
                }
            };
            hier.access(access, &BypassSet::none());
        }
        let s = hier.stats();
        assert_eq!(s.accesses, s.instr_accesses + s.data_accesses);
        assert_eq!(s.instr_accesses, instr);
        assert_eq!(s.accesses, s.supplies_by_level.iter().sum::<u64>());
        for st in &s.structures {
            assert_eq!(st.probes, st.hits + st.misses);
            assert!(st.evictions <= st.fills);
        }
        // L1 structures are probed exactly once per access on their path.
        let il1 = &s.structures[0];
        let dl1 = &s.structures[1];
        assert_eq!(il1.probes, s.instr_accesses);
        assert_eq!(dl1.probes, s.data_accesses);
    }
}

/// Event stream exactness: every Placed block is findable afterwards;
/// sub-block expansion covers the full line.
#[test]
fn events_expand_consistently() {
    let mut gen = Gen(0xE7E27);
    for _ in 0..64 {
        let addrs = gen.addrs(0x40000, 200);
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut scratch = ReplayScratch::new();
        for &addr in &addrs {
            hier.access_with_events(Access::load(addr), &BypassSet::none(), &mut scratch);
            for ev in scratch.events() {
                let grain = 32; // the MNM granularity of this config
                let subs: Vec<u64> = ev.sub_blocks(grain).map(|(block, _)| block).collect();
                assert_eq!(subs.len() as u64, (ev.block_bytes / grain).max(1));
                // Sub-blocks are contiguous and cover the line.
                for w in subs.windows(2) {
                    assert_eq!(w[1], w[0] + 1);
                }
                assert_eq!(subs[0] << 5, ev.block_base);
                if ev.kind == EventKind::Placed {
                    assert!(hier.contains(ev.structure, ev.block_base));
                }
            }
        }
    }
}

/// The frame contract of the event stream, on the paper's five-level
/// geometry and on a tiny inclusive one that back-invalidates constantly:
/// every frame is below `sets × assoc`, a live block's frame is its own,
/// a `Replaced` event and the `Placed` that follows it in the same
/// structure share a frame, and a removal (replacement, back-invalidation
/// or `invalidate_block`) reports the frame its placement did.
#[test]
fn events_report_frames_under_the_frame_contract() {
    let tiny_inclusive = HierarchyConfig {
        levels: vec![
            LevelConfig::Split {
                instr: CacheConfig::new("il1", 64, 2, 32, 1),
                data: CacheConfig::new("dl1", 64, 2, 32, 1),
            },
            LevelConfig::Unified(CacheConfig::new("ul2", 256, 2, 32, 4)),
            LevelConfig::Unified(CacheConfig::new("ul3", 512, 1, 64, 8)),
        ],
        memory_latency: 20,
        inclusive: true,
    };
    let mut gen = Gen(0xF4A3E);
    for (config, space) in
        [(HierarchyConfig::paper_five_level(), 0x10_0000), (tiny_inclusive, 0x2000)]
    {
        let mut hier = Hierarchy::new(config);
        // holder[structure][frame]: the block base living in that frame.
        let mut holder: Vec<Vec<Option<u64>>> = hier
            .structures()
            .iter()
            .map(|i| vec![None; hier.cache(i.id).config().num_blocks() as usize])
            .collect();
        let (mut replaced, mut invalidated) = (0, 0);
        let mut scratch = ReplayScratch::new();
        let mut events = Vec::new();
        for step in 0..6_000u64 {
            let addr = gen.below(space);
            events.clear();
            if step % 50 == 49 {
                hier.invalidate_block(addr, &mut events);
            } else {
                let access = match step % 3 {
                    0 => Access::store(addr),
                    1 => Access::load(addr),
                    _ => Access::fetch(addr),
                };
                hier.access_with_events(access, &BypassSet::none(), &mut scratch);
                events.extend_from_slice(scratch.events());
            }
            let mut vacated: Vec<Option<u32>> = vec![None; holder.len()];
            for ev in &events {
                let si = ev.structure.index();
                let frames = &mut holder[si];
                assert!((ev.frame as usize) < frames.len(), "{ev:?}: frame out of range");
                let slot = &mut frames[ev.frame as usize];
                match ev.kind {
                    EventKind::Placed => {
                        if let Some(f) = vacated[si].take() {
                            assert_eq!(f, ev.frame, "{ev:?}: placement left the victim's frame");
                        }
                        assert_eq!(slot.replace(ev.block_base), None, "{ev:?}: frame occupied");
                    }
                    EventKind::Replaced | EventKind::Invalidated => {
                        assert_eq!(*slot, Some(ev.block_base), "{ev:?}: not the frame it entered");
                        *slot = None;
                        if ev.kind == EventKind::Replaced {
                            vacated[si] = Some(ev.frame);
                            replaced += 1;
                        } else {
                            invalidated += 1;
                        }
                    }
                }
            }
            assert!(vacated.iter().all(Option::is_none), "a replacement without its placement");
        }
        assert!(replaced > 0 && invalidated > 0, "{replaced} replaced, {invalidated} invalidated");
        // The frames hold exactly what the caches hold.
        for info in hier.structures() {
            let mut expect: Vec<u64> = hier.cache(info.id).resident_blocks().collect();
            let mut got: Vec<u64> = holder[info.id.index()].iter().flatten().copied().collect();
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "{}", info.name);
        }
    }
}

/// The instruction path never touches data-only structures and vice versa.
#[test]
fn paths_are_disjoint_at_split_levels() {
    let mut gen = Gen(0xD15701);
    for _ in 0..64 {
        let addrs = gen.addrs(0x8000, 200);
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        for &addr in &addrs {
            hier.access(Access::fetch(addr), &BypassSet::none());
        }
        let s = hier.stats();
        // dl1 (index 1) and dl2 (index 3) untouched by pure fetch streams.
        assert_eq!(s.structures[1].probes, 0);
        assert_eq!(s.structures[3].probes, 0);
        assert_eq!(s.structures[1].fills, 0);
    }
}

/// dry_run_bypass agrees with what a subsequent access actually does,
/// and never mutates state.
#[test]
fn dry_run_predicts_the_walk() {
    let mut gen = Gen(0xD2112);
    for _ in 0..64 {
        let warm = gen.addrs(0x8000, 150);
        let probe = gen.below(0x8000);
        let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        for &addr in &warm {
            hier.access(Access::load(addr), &BypassSet::none());
        }
        let predicted = hier.dry_run_bypass(Access::load(probe));
        let again = hier.dry_run_bypass(Access::load(probe));
        assert_eq!(predicted, again, "dry run must be pure");
        let mut scratch = ReplayScratch::new();
        hier.access_with_events(Access::load(probe), &BypassSet::none(), &mut scratch);
        let actual: BypassSet = scratch
            .probes()
            .iter()
            .filter(|p| p.level > 1 && p.outcome == ProbeOutcome::Miss)
            .map(|p| p.structure)
            .collect();
        assert_eq!(predicted, actual);
    }
}

/// The reusable-scratch hot path and a fresh-scratch-per-access replay
/// produce byte-identical statistics and results: buffer reuse is purely
/// an allocation optimisation, never a semantic change.
#[test]
fn scratch_reuse_matches_fresh_allocation_exactly() {
    let mut gen = Gen(0x5C2A7C4);
    for _ in 0..32 {
        let mut reused = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut fresh = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut scratch = ReplayScratch::new();
        let n = 1 + gen.below(500);
        for _ in 0..n {
            let addr = gen.below(0x20000);
            let access = match gen.below(3) {
                0 => Access::load(addr),
                1 => Access::store(addr),
                _ => Access::fetch(addr),
            };
            let a = reused.access_with_events(access, &BypassSet::none(), &mut scratch);
            let mut one_shot = ReplayScratch::new();
            let b = fresh.access_with_events(access, &BypassSet::none(), &mut one_shot);
            assert_eq!(a, b);
            assert_eq!(scratch.probes(), one_shot.probes());
            assert_eq!(scratch.events(), one_shot.events());
        }
        assert_eq!(reused.stats(), fresh.stats());
    }
}

#[test]
fn access_kind_paths_share_unified_levels() {
    let hier = Hierarchy::new(HierarchyConfig::paper_five_level());
    let i_path = hier.path(AccessKind::InstrFetch);
    let d_path = hier.path(AccessKind::Load);
    assert_eq!(i_path.len(), 5);
    assert_eq!(d_path.len(), 5);
    assert_ne!(i_path[0], d_path[0]);
    assert_ne!(i_path[1], d_path[1]);
    assert_eq!(&i_path[2..], &d_path[2..]);
}
