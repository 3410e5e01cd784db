//! Lockstep equivalence between the fast query paths and the
//! reference dispatch model.
//!
//! The machine's hot loop dispatches statically over `FilterKind` and
//! consults the shared RMNM through a single `miss_mask` tag search per
//! access; the batched `run_many` entry point hoists scratch management
//! out of the per-access loop. None of that may change a single verdict or
//! statistic. This test rebuilds the pre-refactor machine shape — per-slot
//! stacks of boxed 1-lane `dyn LaneFilter`s, one per technique, one RMNM
//! set scan per guarded structure, and every event fed one MNM sub-block
//! at a time, each as a run of one — from public APIs, replays every
//! filter family over all 20 synthetic application profiles, and requires
//! bit-identical bypass sets on every access, then proves the batched path
//! produces the same summaries, machine statistics, and hierarchy
//! statistics as the stepped path. The same lockstep runs once more under seeded soft
//! errors and flushes, applied to both machines alike, because the
//! machine remembers verdicts and must forget them whenever its filter
//! state changes.
//!
//! The machine hands each filter a cache line's sub-blocks as one aligned
//! run, which the counter- and hash-shaped families apply in closed form;
//! because the reference here still feeds one sub-block at a time, this
//! test is also the lockstep oracle for line runs over all 20 profiles.

use cache_sim::{
    Access, AccessKind, BatchSummary, BlockRun, BypassSet, CacheEvent, EventKind, Hierarchy,
    HierarchyConfig, ReplayScratch, StructureId,
};
use mnm_check::{Op, TraceGen};
use mnm_core::{
    BloomFilter, Cmnm, Granularity, LaneFilter, Mnm, MnmConfig, Rmnm, SmnmFilter, TechniqueConfig,
    TmnmFilter,
};
use trace_synth::Prng;

/// One configuration per filter family, plus the paper's largest hybrid.
const LABELS: [&str; 6] =
    ["RMNM_512_2", "SMNM_13x2", "TMNM_12x3", "CMNM_8_12", "BLOOM_12x2", "HMNM4"];

/// How the seed machine dispatched: one boxed trait object per technique
/// and guarded structure, each a 1-lane filter.
fn boxed(t: TechniqueConfig) -> Box<dyn LaneFilter> {
    match t {
        TechniqueConfig::Smnm(c) => Box::new(SmnmFilter::new(c, 1)),
        TechniqueConfig::Tmnm(c) => Box::new(TmnmFilter::new(c, 1)),
        TechniqueConfig::Cmnm(c) => Box::new(Cmnm::new(c, 1)),
        TechniqueConfig::Bloom(c) => Box::new(BloomFilter::new(c, 1)),
    }
}

/// The pre-refactor machine shape, rebuilt from public APIs: per-slot
/// `Vec<Box<dyn LaneFilter>>` of 1-lane filters and a per-slot RMNM
/// membership test (one set scan per guarded structure instead of one
/// shared mask).
struct Shadow {
    gran: Granularity,
    structures: Vec<StructureId>,
    filters: Vec<Vec<Box<dyn LaneFilter>>>,
    slot_of_structure: Vec<Option<usize>>,
    instr_slots: Vec<usize>,
    data_slots: Vec<usize>,
    rmnm: Option<Rmnm>,
}

impl Shadow {
    fn build(hierarchy: &Hierarchy, config: &MnmConfig) -> Self {
        let gran = Granularity::from_bytes(hierarchy.mnm_granularity());
        let mut structures = Vec::new();
        let mut filters = Vec::new();
        let mut slot_of_structure = vec![None; hierarchy.structures().len()];
        for info in hierarchy.structures() {
            if info.level < 2 {
                continue;
            }
            let frame_slots = hierarchy.cache(info.id).config().frame_slots(gran.bytes()) as usize;
            let stack: Vec<Box<dyn LaneFilter>> = config
                .techniques_for_level(info.level)
                .into_iter()
                .map(|t| {
                    let mut f = boxed(t);
                    f.reserve_lane(0, frame_slots);
                    f
                })
                .collect();
            slot_of_structure[info.id.index()] = Some(structures.len());
            structures.push(info.id);
            filters.push(stack);
        }
        let slot_path = |kind| {
            hierarchy
                .path(kind)
                .iter()
                .filter_map(|sid| slot_of_structure[sid.index()])
                .collect::<Vec<_>>()
        };
        Shadow {
            gran,
            instr_slots: slot_path(AccessKind::InstrFetch),
            data_slots: slot_path(AccessKind::Load),
            rmnm: config.rmnm.map(|rc| Rmnm::new(rc, structures.len())),
            structures,
            filters,
            slot_of_structure,
        }
    }

    fn query(&self, access: Access) -> BypassSet {
        let block = self.gran.block_of(access.addr);
        let slots = if access.kind.is_instruction() { &self.instr_slots } else { &self.data_slots };
        let mut set = BypassSet::none();
        for &si in slots {
            let miss = self.rmnm.as_ref().is_some_and(|r| r.is_definite_miss(si, block))
                || self.filters[si].iter().any(|f| f.miss_lanes(block, 1) != 0);
            if miss {
                set.insert(self.structures[si]);
            }
        }
        set
    }

    fn flush(&mut self) {
        for f in self.filters.iter_mut().flatten() {
            f.flush_lanes();
        }
        if let Some(r) = &mut self.rmnm {
            r.flush();
        }
    }

    fn observe_events(&mut self, events: &[CacheEvent]) {
        for ev in events {
            let Some(si) = self.slot_of_structure[ev.structure.index()] else {
                continue;
            };
            for (block, frame_slot) in ev.sub_blocks(self.gran.bytes()) {
                match ev.kind {
                    EventKind::Placed => {
                        for f in &mut self.filters[si] {
                            f.place(0, BlockRun::one(block, frame_slot));
                        }
                        if let Some(r) = &mut self.rmnm {
                            r.on_place(si, block);
                        }
                    }
                    EventKind::Replaced => {
                        for f in &mut self.filters[si] {
                            f.replace(0, BlockRun::one(block, frame_slot));
                        }
                        if let Some(r) = &mut self.rmnm {
                            r.on_replace(si, block);
                        }
                    }
                    EventKind::Invalidated => {
                        for f in &mut self.filters[si] {
                            f.replace(0, BlockRun::one(block, frame_slot));
                        }
                        if let Some(r) = &mut self.rmnm {
                            r.on_invalidate(si, block);
                        }
                    }
                }
            }
        }
    }
}

/// The access stream of one profile seed (profile traces contain no
/// flush ops, so every op is an access).
fn profile_accesses(seed: u64, len: usize) -> Vec<Access> {
    TraceGen::Profile
        .generate(seed, len)
        .into_iter()
        .map(|op| match op {
            Op::Access(a) => a,
            Op::Flush => unreachable!("profile traces never flush"),
        })
        .collect()
}

#[test]
fn enum_dispatch_matches_the_trait_object_path_on_every_profile() {
    // Seeds 0..20 select all 20 synthetic programs (profile = seed % 20).
    for label in LABELS {
        let config = MnmConfig::parse(label).unwrap();
        for seed in 0..20u64 {
            let trace = profile_accesses(seed, 1_200);
            let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
            let mut mnm = Mnm::new(&hier, config.clone());
            let mut shadow = Shadow::build(&hier, &config);
            let mut scratch = ReplayScratch::new();
            for (i, &access) in trace.iter().enumerate() {
                let expect = shadow.query(access);
                let got = mnm.query(access);
                assert_eq!(
                    got, expect,
                    "{label} seed {seed}: verdicts diverged at access {i} ({access:?})"
                );
                hier.access_with_events(access, &got, &mut scratch);
                mnm.observe_events(scratch.events());
                mnm.note_probes(scratch.probes());
                shadow.observe_events(scratch.events());
            }
            assert!(mnm.stats().accesses > 0);
        }
    }
}

#[test]
fn batched_paths_match_the_stepped_path_exactly() {
    for label in LABELS {
        let config = MnmConfig::parse(label).unwrap();
        let trace = profile_accesses(7, 2_000);

        // Stepped reference: one run_access per element.
        let mut h1 = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut m1 = Mnm::new(&h1, config.clone());
        let mut stepped = BatchSummary::default();
        for &a in &trace {
            stepped.absorb(m1.run_access(&mut h1, a));
        }

        // Batched: run_many over deliberately odd-sized chunks.
        let mut h2 = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mut m2 = Mnm::new(&h2, config.clone());
        let mut batched = BatchSummary::default();
        for chunk in trace.chunks(97) {
            batched.merge(m2.run_many(&mut h2, chunk));
        }

        assert_eq!(stepped, batched, "{label}: batch summaries diverged");
        assert_eq!(m1.stats(), m2.stats(), "{label}: machine statistics diverged");
        assert_eq!(h1.stats(), h2.stats(), "{label}: hierarchy statistics diverged");
    }
}

/// The structures of `verdict` that really do not hold `addr`: a corrupted
/// filter may flag a resident block, and the hierarchy walks only sound
/// bypasses.
fn sound_part(hier: &Hierarchy, verdict: BypassSet, addr: u64) -> BypassSet {
    let mut sound = BypassSet::none();
    for info in hier.structures() {
        if verdict.contains(info.id) && !hier.contains(info.id, addr) {
            sound.insert(info.id);
        }
    }
    sound
}

#[test]
fn verdicts_stay_identical_under_bit_flips_and_flushes() {
    for label in LABELS {
        let config = MnmConfig::parse(label).unwrap();
        for seed in 0..20u64 {
            let trace = profile_accesses(seed, 1_200);
            let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
            let mut mnm = Mnm::new(&hier, config.clone());
            let mut shadow = Shadow::build(&hier, &config);
            let mut scratch = ReplayScratch::new();
            let surface = mnm.fault_surface();
            let mut rng = Prng::seed_from_u64(seed);
            let flip_every = rng.gen_range(5..40) as usize;
            let flush_every = rng.gen_range(200..500) as usize;
            let (mut flips, mut flushes) = (0, 0);
            for (i, &access) in trace.iter().enumerate() {
                if i % flush_every == flush_every - 1 {
                    mnm.flush_system(&mut hier);
                    shadow.flush();
                    flushes += 1;
                }
                if i % flip_every == flip_every - 1 && !surface.is_empty() {
                    // Mostly aim at the bit guarding the block about to be
                    // asked for, whose verdict the machine may remember.
                    let (slot, member, bits) =
                        surface[rng.gen_range(0..surface.len() as u64) as usize];
                    let member_filter = &mut shadow.filters[slot][member];
                    let aimed = mnm.state_bit_of(slot, member, access.addr);
                    assert_eq!(
                        aimed,
                        member_filter.lane_bit_of(0, shadow.gran.block_of(access.addr))
                    );
                    let bit = match aimed {
                        Some(b) if rng.gen_bool(0.75) => b,
                        _ => rng.gen_range(0..bits),
                    };
                    let flipped = mnm.flip_filter_bit(slot, member, bit);
                    assert_eq!(flipped, member_filter.flip_lane_bit(0, bit), "{label}: flip {bit}");
                    flips += u64::from(flipped);
                }
                let expect = shadow.query(access);
                let got = mnm.query(access);
                assert_eq!(
                    got, expect,
                    "{label} seed {seed}: verdicts diverged at access {i} ({access:?}) after \
                     {flips} flips and {flushes} flushes"
                );
                let sound = sound_part(&hier, got, access.addr);
                hier.access_with_events(access, &sound, &mut scratch);
                mnm.observe_events(scratch.events());
                mnm.note_probes(scratch.probes());
                shadow.observe_events(scratch.events());
            }
            assert!(flushes > 0);
            assert!(surface.is_empty() || flips > 0, "{label} seed {seed}: nothing flipped");
        }
    }
}
