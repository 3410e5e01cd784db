//! End-to-end properties of the sharded simulation.

use cache_sim::{
    Access, AccessKind, BypassSet, CacheEvent, EventKind, HierarchyStats, StructureId,
    StructureStats,
};
use mnm_core::{MnmConfig, MnmStats, SlotStats};
use mnm_shard::{
    sharded_streams, CoreReport, L3Outcome, ShardConfig, ShardObserver, ShardReport, ShardedSim,
};
use trace_synth::profiles;
use trace_synth::rng::splitmix64;
use trace_synth::sharing::SharingSpec;

fn spec(cores: usize, ratio: f64) -> SharingSpec {
    SharingSpec {
        sharing_ratio: ratio,
        // A small arena so shared lines genuinely collide across cores.
        shared_bytes: 64 * 1024,
        seed: 11,
        ..SharingSpec::new(cores)
    }
}

fn sim(label: &str, cores: usize, ratio: f64, n: usize, epoch: usize) -> ShardedSim {
    let mut config = ShardConfig::new(cores, MnmConfig::parse(label).unwrap());
    config.epoch = epoch;
    let profile = profiles::by_name("181.mcf").unwrap();
    let streams = sharded_streams(&profile, &spec(cores, ratio), n, config.l1.block_bytes);
    ShardedSim::new(config, streams)
}

/// The parallel driver must be a pure performance optimization: same
/// epochs, same per-core counters, same shared-L3 statistics,
/// bit-for-bit. This is the race-freedom proof CI leans on.
#[test]
fn parallel_and_single_threaded_reports_are_identical() {
    for label in ["HMNM4", "RMNM_512_2", "SMNM_13x2"] {
        let parallel = sim(label, 4, 0.4, 6_000, 512).run();
        let single = sim(label, 4, 0.4, 6_000, 512).run_single_threaded();
        assert_eq!(parallel, single, "{label}: parallel run diverged from single-threaded");
    }
}

/// No filter family may ever produce an unsound shared-L3 verdict, and
/// under a sharing workload coherence traffic must actually flow:
/// remote stores / L3 victims remove private blocks, and those removals
/// reach the filters as invalidations.
#[test]
fn sharing_workloads_are_sound_and_generate_coherence_traffic() {
    for label in ["HMNM4", "CMNM_8_12", "TMNM_12x3", "BLOOM_12x2"] {
        let report = sim(label, 4, 0.5, 8_000, 512).run_single_threaded();
        assert_eq!(report.total_unsound(), 0, "{label}: unsound shared-L3 verdicts");
        let invals: u64 = report.cores.iter().map(|c| c.invalidations_received).sum();
        assert!(invals > 0, "{label}: no coherence invalidations despite 50% sharing");
        let filter_invals: u64 = report
            .cores
            .iter()
            .map(|c| c.mnm.slots.iter().map(|s| s.invalidations).sum::<u64>())
            .sum();
        assert!(filter_invals > 0, "{label}: invalidations never reached the filters");
        let stores: u64 = report.cores.iter().map(|c| c.store_lines_published).sum();
        assert!(stores > 0, "{label}: no store lines published");
    }
}

/// Filters must earn their keep at the shared level: definite-miss
/// verdicts skip L3 probes, and the event-ledger identity
/// `fills == evictions + invalidations + resident` holds for the L3 and
/// every private structure.
#[test]
fn l3_bypasses_happen_and_conservation_holds() {
    let report = sim("HMNM4", 4, 0.3, 8_000, 512).run_single_threaded();
    let bypasses: u64 = report.cores.iter().map(|c| c.l3_bypasses).sum();
    assert!(bypasses > 0, "no shared-L3 probes were saved");
    let l3 = &report.l3.structures[0];
    assert_eq!(l3.probes, l3.hits + l3.misses);
    assert!(l3.fills >= l3.evictions + l3.invalidations);
    for (ci, core) in report.cores.iter().enumerate() {
        for st in &core.private.structures {
            assert_eq!(st.probes, st.hits + st.misses, "core {ci}");
            assert!(st.fills >= st.evictions + st.invalidations, "core {ci}");
        }
        // Every L3 request was classified exactly once.
        assert_eq!(
            core.l3_requests,
            core.l3_hits + core.l3_misses + core.l3_bypasses,
            "core {ci}: request classification does not add up"
        );
    }
}

/// All cores observe the same global shared-L3 event stream, so their
/// shared-slot filters track identical state: the ul3 slot's update
/// count must agree across cores.
#[test]
fn shared_slot_filter_state_is_identical_across_cores() {
    let report = sim("CMNM_8_12", 4, 0.5, 6_000, 512).run_single_threaded();
    let ul3_updates: Vec<u64> =
        report.cores.iter().map(|c| c.mnm.slots.last().unwrap().updates).collect();
    assert!(
        ul3_updates.windows(2).all(|w| w[0] == w[1]),
        "shared-slot update counts diverged across cores: {ul3_updates:?}"
    );
    assert!(ul3_updates[0] > 0, "shared slot never saw an event");
}

/// One core with zero sharing degenerates to a plain single-threaded
/// replay: nothing is published, nothing is invalidated, and nothing is
/// unsound.
#[test]
fn single_core_run_has_no_coherence_traffic() {
    let report = sim("HMNM4", 1, 0.0, 6_000, 512).run_single_threaded();
    assert_eq!(report.total_unsound(), 0);
    let core = &report.cores[0];
    assert_eq!(core.invalidations_received, 0, "no peers, so no store invalidations");
    assert_eq!(core.accesses, 6_000);
}

/// An order-sensitive fold of 64-bit words.
struct Digest(u64);

impl Digest {
    fn add(&mut self, word: u64) {
        self.0 = splitmix64(self.0 ^ word);
    }

    fn access(&mut self, a: Access) {
        let kind = match a.kind {
            AccessKind::InstrFetch => 1,
            AccessKind::Load => 2,
            AccessKind::Store => 3,
        };
        self.add(kind);
        self.add(a.addr);
    }

    fn events(&mut self, events: &[CacheEvent]) {
        self.add(events.len() as u64);
        for e in events {
            let kind = match e.kind {
                EventKind::Placed => 1,
                EventKind::Replaced => 2,
                EventKind::Invalidated => 3,
            };
            self.add(e.structure.index() as u64);
            self.add(kind);
            self.add(e.block_base);
            self.add(e.block_bytes);
            self.add(u64::from(e.frame));
        }
    }

    fn hierarchy(&mut self, s: &HierarchyStats) {
        let HierarchyStats {
            structures,
            accesses,
            instr_accesses,
            data_accesses,
            memory_supplies,
            total_latency,
            miss_latency,
            supplies_by_level,
        } = s;
        for st in structures {
            let StructureStats {
                probes,
                hits,
                misses,
                bypasses,
                unsound_bypasses,
                fills,
                evictions,
                invalidations,
                writebacks,
                mru_hits,
            } = *st;
            for w in [
                probes,
                hits,
                misses,
                bypasses,
                unsound_bypasses,
                fills,
                evictions,
                invalidations,
                writebacks,
                mru_hits,
            ] {
                self.add(w);
            }
        }
        for w in [
            *accesses,
            *instr_accesses,
            *data_accesses,
            *memory_supplies,
            *total_latency,
            *miss_latency,
        ] {
            self.add(w);
        }
        for &w in supplies_by_level {
            self.add(w);
        }
    }

    /// Every field of the report but its host-dependent timing.
    fn report(&mut self, r: &ShardReport) {
        let ShardReport { cores, l3, epochs, timing: _ } = r;
        for c in cores {
            let CoreReport {
                accesses,
                cycles,
                l3_requests,
                l3_hits,
                l3_misses,
                l3_bypasses,
                stale_bypass_rescues,
                unsound_verdicts,
                invalidations_received,
                store_lines_published,
                private,
                mnm,
            } = c;
            for &w in [
                accesses,
                cycles,
                l3_requests,
                l3_hits,
                l3_misses,
                l3_bypasses,
                stale_bypass_rescues,
                unsound_verdicts,
                invalidations_received,
                store_lines_published,
            ] {
                self.add(w);
            }
            self.hierarchy(private);
            let MnmStats { accesses, accesses_with_flags, slots } = mnm;
            self.add(*accesses);
            self.add(*accesses_with_flags);
            for s in slots {
                let SlotStats {
                    flagged,
                    bypassable_misses,
                    identified_misses,
                    updates,
                    invalidations,
                } = *s;
                for w in [flagged, bypassable_misses, identified_misses, updates, invalidations] {
                    self.add(w);
                }
            }
        }
        self.hierarchy(l3);
        self.add(*epochs);
    }
}

/// Folds each hook's call sequence into a digest of its own, one per core
/// where the hook names a core. This pins what every hook reports and in
/// what order, not how the hooks of different cores interleave.
struct HookDigests {
    verdict: Vec<Digest>,
    private_step: Vec<Digest>,
    coherence_invalidation: Vec<Digest>,
    l3_resolution: Vec<Digest>,
    l3_events: Digest,
}

impl HookDigests {
    fn new(cores: usize) -> Self {
        let per_core = |seed: u64| (0..cores as u64).map(|c| Digest(seed + c)).collect();
        HookDigests {
            verdict: per_core(0x100),
            private_step: per_core(0x200),
            coherence_invalidation: per_core(0x300),
            l3_resolution: per_core(0x400),
            l3_events: Digest(0x500),
        }
    }

    /// One word per hook: its per-core digests folded in core order.
    fn words(&self) -> [u64; 5] {
        let fold = |ds: &[Digest]| {
            let mut d = Digest(ds.len() as u64);
            ds.iter().for_each(|x| d.add(x.0));
            d.0
        };
        [
            fold(&self.verdict),
            fold(&self.private_step),
            fold(&self.coherence_invalidation),
            fold(&self.l3_resolution),
            self.l3_events.0,
        ]
    }
}

impl ShardObserver for HookDigests {
    fn verdict(&mut self, core: usize, access: Access, verdict: BypassSet) {
        let d = &mut self.verdict[core];
        d.access(access);
        let bits = (0..64).filter(|&i| verdict.contains(StructureId::new(i)));
        d.add(bits.fold(0, |m, i| m | 1 << i));
    }

    fn private_step(&mut self, core: usize, access: Access, events: &[CacheEvent]) {
        let d = &mut self.private_step[core];
        d.access(access);
        d.events(events);
    }

    fn coherence_invalidation(
        &mut self,
        core: usize,
        line: u64,
        removed: u32,
        events: &[CacheEvent],
    ) {
        let d = &mut self.coherence_invalidation[core];
        d.add(line);
        d.add(u64::from(removed));
        d.events(events);
    }

    fn l3_resolution(&mut self, core: usize, access: Access, outcome: L3Outcome) {
        let d = &mut self.l3_resolution[core];
        d.access(access);
        d.add(match outcome {
            L3Outcome::Hit => 1,
            L3Outcome::Miss => 2,
            L3Outcome::Bypassed => 3,
            L3Outcome::Rescued => 4,
            L3Outcome::Unsound => 5,
        });
    }

    fn l3_events(&mut self, events: &[CacheEvent]) {
        self.l3_events.events(events);
    }
}

/// A pinned run shape: filter, epoch, sharing ratio and each core's
/// stream length (cores whose streams end at different epochs, and
/// empty streams, exercise the schedule's stop rule).
struct Shape {
    name: &'static str,
    label: &'static str,
    epoch: usize,
    ratio: f64,
    lens: &'static [usize],
}

const SHAPES: &[Shape] = &[
    Shape { name: "1core-epoch1", label: "HMNM4", epoch: 1, ratio: 0.0, lens: &[600] },
    Shape { name: "2core-epoch97", label: "CMNM_8_12", epoch: 97, ratio: 0.5, lens: &[3000, 3000] },
    Shape {
        name: "3core-staggered",
        label: "RMNM_512_2",
        epoch: 512,
        ratio: 0.4,
        lens: &[5000, 2600, 700],
    },
    Shape { name: "4core-epoch2048", label: "HMNM4", epoch: 2048, ratio: 0.4, lens: &[6000; 4] },
    Shape {
        name: "4core-one-empty",
        label: "TMNM_12x3",
        epoch: 97,
        ratio: 0.5,
        lens: &[2500, 0, 1800, 970],
    },
    Shape { name: "2core-all-empty", label: "HMNM4", epoch: 512, ratio: 0.3, lens: &[0, 0] },
];

fn shape_sim(shape: &Shape) -> ShardedSim {
    let cores = shape.lens.len();
    let mut config = ShardConfig::new(cores, MnmConfig::parse(shape.label).unwrap());
    config.epoch = shape.epoch;
    let profile = profiles::by_name("181.mcf").unwrap();
    let longest = shape.lens.iter().copied().max().unwrap();
    let mut streams =
        sharded_streams(&profile, &spec(cores, shape.ratio), longest, config.l1.block_bytes);
    for (stream, &len) in streams.iter_mut().zip(shape.lens) {
        stream.truncate(len);
    }
    ShardedSim::new(config, streams)
}

/// Report and hook digests of every shape, recorded from an earlier
/// implementation of the engines. The pipelined engine must reproduce
/// the single-threaded report; the report digest pins both, and the hook
/// digests pin what the single-threaded engine tells an observer.
#[test]
fn reports_and_hooks_match_recorded_digests() {
    let mut got = Vec::new();
    for shape in SHAPES {
        let mut hooks = HookDigests::new(shape.lens.len());
        let single = shape_sim(shape).run_single_threaded_observed(&mut hooks);
        let pipelined = shape_sim(shape).run();
        assert_eq!(pipelined, single, "{}: pipelined run diverged from single", shape.name);
        let mut d = Digest(0x5AAD_0001);
        d.report(&single);
        let [v, p, c, r, e] = hooks.words();
        got.push((shape.name, [d.0, v, p, c, r, e]));
    }
    let table: String = got
        .iter()
        .map(|(name, ws)| {
            let ws: Vec<String> = ws.iter().map(|w| format!("{w:#018x}")).collect();
            format!("    (\"{name}\", [{}]),\n", ws.join(", "))
        })
        .collect();
    assert_eq!(got.len(), RECORDED.len(), "shape list changed; digests now:\n{table}");
    for ((name, ws), (want_name, want)) in got.iter().zip(RECORDED) {
        assert_eq!(name, want_name, "shape order changed; digests now:\n{table}");
        assert_eq!(ws, want, "{name}: [report, verdict, private_step, coherence_invalidation, l3_resolution, l3_events] changed; digests now:\n{table}");
    }
}

/// Per shape: the report, then the `verdict`, `private_step`,
/// `coherence_invalidation`, `l3_resolution` and `l3_events` hooks.
const RECORDED: &[(&str, [u64; 6])] = &[
    (
        "1core-epoch1",
        [
            0xfdd4664044df06f6,
            0x89bbe3b53a8dec1b,
            0x5fc39bd81331bd9d,
            0xe416ec934f6e4713,
            0x611ff57f1d88da20,
            0x01e26987e8e0cd3e,
        ],
    ),
    (
        "2core-epoch97",
        [
            0x0b02abade2fa9e10,
            0xe4dc842c684663ad,
            0xa58392df8e714e19,
            0x310418ce4fc5de8a,
            0x9492c4402a5a600d,
            0x712145d0bf7897c4,
        ],
    ),
    (
        "3core-staggered",
        [
            0x6194d86d0dca3df2,
            0x40adca3f1db37817,
            0x276041dc9499427e,
            0xb79ec6a0d4255895,
            0x236d4ce2c11b5f72,
            0x19c5fb48fa813263,
        ],
    ),
    (
        "4core-epoch2048",
        [
            0x17ba48f9f79900a9,
            0x278883b1360899bc,
            0xf6082af3bec47aaf,
            0xd94a0f64814f7f10,
            0x98651e61ebd9b35c,
            0xeb4612918813eeac,
        ],
    ),
    (
        "4core-one-empty",
        [
            0xb768df46c8693af2,
            0x4bf626b03aff47d5,
            0xf9556fdf09db73c8,
            0x97d54c9780f75ef5,
            0x23c2d6e7954d843e,
            0xa617b5800b316e46,
        ],
    ),
    (
        "2core-all-empty",
        [
            0xb730657acd4c9a4c,
            0xa8e56789948bfed0,
            0x2c6175ac745786e2,
            0xb7f2fc577b5e1995,
            0x16e8b3ba09d23691,
            0x0000000000000500,
        ],
    ),
];
