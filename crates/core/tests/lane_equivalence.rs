//! Lane equivalence: a k-lane filter is k independent 1-lane filters.
//!
//! The machine guards every structure of an assignment with one lane of
//! one filter per technique, the lanes' state interleaved in shared words
//! (SMNM, TMNM, Bloom) or kept side by side (CMNM). This test drives a
//! k-lane filter of each family, for k = 1..=5 (so lane counts that are
//! not a power of two, whose words carry padding lanes, are covered), and
//! k independent single-structure filters with one seeded stream of
//! per-lane placements, replacements, invalidations, state-bit flips and
//! flushes. After every operation it requires, lane by lane, identical
//! verdicts, `state_bits`, `state_bit_of`, occupancy and `storage_bits`.

use mnm_core::{
    BloomConfig, BloomFilter, Cmnm, CmnmConfig, FilterKind, LaneFilter, MissFilter, SmnmConfig,
    SmnmFilter, TechniqueConfig, TmnmConfig, TmnmFilter,
};
use trace_synth::rng::splitmix64;

/// Deterministic test inputs: the SplitMix64 stream seeded with `.0`.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Frame slots per lane: few enough that frames are reused constantly.
const FRAMES: usize = 24;

/// Small tables, so hashes collide, counters saturate and CMNM registers
/// widen, next to the paper's HMNM4 sizes.
fn configs() -> Vec<TechniqueConfig> {
    vec![
        TechniqueConfig::Smnm(SmnmConfig::new(5, 3)),
        TechniqueConfig::Smnm(SmnmConfig::new(20, 3)),
        TechniqueConfig::Tmnm(TmnmConfig::with_counter_bits(4, 2, 2)),
        TechniqueConfig::Tmnm(TmnmConfig::new(12, 3)),
        TechniqueConfig::Cmnm(CmnmConfig::new(2, 4)),
        TechniqueConfig::Cmnm(CmnmConfig::new(8, 12)),
        TechniqueConfig::Bloom(BloomConfig::new(5, 3)),
    ]
}

/// The family's own single-structure filter.
fn single(config: TechniqueConfig) -> Box<dyn MissFilter> {
    match config {
        TechniqueConfig::Smnm(c) => Box::new(SmnmFilter::new(c)),
        TechniqueConfig::Tmnm(c) => Box::new(TmnmFilter::new(c)),
        TechniqueConfig::Cmnm(c) => Box::new(Cmnm::new(c)),
        TechniqueConfig::Bloom(c) => Box::new(BloomFilter::new(c)),
    }
}

/// A block from a few far-apart regions, so CMNM registers must widen.
fn block(gen: &mut Gen) -> u64 {
    (gen.below(6) << 22) | gen.below(1 << 9)
}

/// Every per-lane observation of `multi` equals that of `singles[lane]`.
fn assert_lanes_match(
    multi: &FilterKind,
    singles: &[Box<dyn MissFilter>],
    probes: &[u64],
    what: &str,
) {
    let all = u64::MAX >> (64 - singles.len());
    for &b in probes {
        let lanes = multi.miss_lanes(b, all);
        for (lane, s) in singles.iter().enumerate() {
            let one = multi.miss_lanes(b, 1 << lane);
            assert_eq!(one, lanes & 1 << lane, "{what}: asking lane {lane} alone for {b:#x}");
            assert_eq!(one != 0, s.is_definite_miss(b), "{what}: lane {lane} verdict for {b:#x}");
            assert_eq!(
                multi.lane_bit_of(lane, b),
                s.state_bit_of(b),
                "{what}: lane {lane} bit of {b:#x}"
            );
        }
    }
    for (lane, s) in singles.iter().enumerate() {
        assert_eq!(multi.lane_state_bits(), s.state_bits(), "{what}: lane {lane} state bits");
        assert_eq!(multi.lane_storage_bits(), s.storage_bits(), "{what}: lane {lane} storage");
        assert_eq!(multi.lane_occupancy(lane), s.occupancy(), "{what}: lane {lane} occupancy");
        assert_eq!(multi.technique_label(), s.label(), "{what}: label");
    }
}

#[test]
fn k_lane_filters_equal_k_independent_filters() {
    for config in configs() {
        for k in 1..=5usize {
            for seed in 0..3u64 {
                let what = format!("{} k={k} seed {seed}", config.label());
                let mut gen = Gen(seed ^ (k as u64) << 8);
                let mut multi = FilterKind::build(config, k);
                assert_eq!(multi.lanes(), k, "{what}");
                let mut singles: Vec<Box<dyn MissFilter>> =
                    (0..k).map(|_| single(config)).collect();
                for (lane, s) in singles.iter_mut().enumerate() {
                    multi.reserve_lane(lane, FRAMES);
                    s.reserve(FRAMES);
                }
                // The block each lane's frames hold, as a cache would.
                let mut frames = vec![[None::<u64>; FRAMES]; k];
                let (mut flips, mut flushes, mut split_verdicts) = (0u32, 0u32, 0u32);
                for step in 0..1_500u32 {
                    let lane = gen.below(k as u64) as usize;
                    let frame = gen.below(FRAMES as u64) as usize;
                    let b = block(&mut gen);
                    let held = frames[lane][frame];
                    match gen.below(20) {
                        // A fill: the frame's block (if any) is replaced first.
                        0..=9 => {
                            if let Some(old) = held {
                                multi.replace(lane, old, frame);
                                singles[lane].on_replace(old, frame);
                            }
                            multi.place(lane, b, frame);
                            singles[lane].on_place(b, frame);
                            frames[lane][frame] = Some(b);
                        }
                        10..=13 => {
                            if let Some(old) = held {
                                multi.replace(lane, old, frame);
                                singles[lane].on_replace(old, frame);
                                frames[lane][frame] = None;
                            }
                        }
                        // An invalidation retires the block exactly as a
                        // replacement does, which is what the machine feeds.
                        14..=16 => {
                            if let Some(old) = held {
                                multi.replace(lane, old, frame);
                                singles[lane].on_invalidate(old, frame);
                                frames[lane][frame] = None;
                            }
                        }
                        // One soft error, sometimes aimed past the surface.
                        17 | 18 => {
                            let bit = gen.below(singles[lane].state_bits() + 2);
                            let flipped = multi.flip_lane_bit(lane, bit);
                            assert_eq!(flipped, singles[lane].flip_state_bit(bit), "{what}: flip");
                            flips += u32::from(flipped);
                        }
                        // A filter flush; the caches keep their blocks, so
                        // later removals meet untagged CMNM frames.
                        _ => {
                            if gen.below(8) == 0 {
                                multi.flush_lanes();
                                for s in &mut singles {
                                    s.flush();
                                }
                                flushes += 1;
                            }
                        }
                    }
                    let mut probes = vec![b, held.unwrap_or(b ^ 1), block(&mut gen)];
                    probes
                        .extend(frames.iter().filter_map(|f| f[gen.below(FRAMES as u64) as usize]));
                    let what = format!("{what} step {step}");
                    assert_lanes_match(&multi, &singles, &probes, &what);
                    let all = u64::MAX >> (64 - k);
                    let lanes = multi.miss_lanes(b, all);
                    split_verdicts += u32::from(lanes != 0 && lanes != all);
                }
                assert!(flips > 0 && flushes > 0, "{what}: {flips} flips, {flushes} flushes");
                assert!(k == 1 || split_verdicts > 0, "{what}: the lanes never disagreed");
            }
        }
    }
}

/// The generator is the shared SplitMix64 stream.
#[test]
fn generator_is_the_canonical_splitmix64_stream() {
    let mut gen = Gen(0);
    assert_eq!([gen.next(), gen.next()], [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4]);
}
