//! Lane equivalence: a k-lane filter is k independent 1-lane filters.
//!
//! The machine guards every structure of an assignment with one lane of
//! one filter per technique, the lanes' state interleaved in shared words
//! (SMNM, TMNM, Bloom) or kept side by side (CMNM). This test drives a
//! k-lane filter of each family, for k = 1..=5 (so lane counts that are
//! not a power of two, whose words carry padding lanes, are covered), and
//! k independent 1-lane filters with one seeded stream of per-lane
//! placements, replacements, invalidations, state-bit flips and flushes.
//! After every operation it requires, lane by lane, identical verdicts,
//! state bits, aimed state bit, occupancy and storage bits.
//!
//! Run exactness: a filter fed a cache line's MNM blocks as one aligned
//! run equals a twin fed the same blocks one at a time, in order. The
//! second test gives each lane its own line length (runs of 1, 2, 4, 8 and
//! 64 blocks) and requires the two filters' full state, and every lane's
//! verdicts, aimed state bit and occupancy, to match after every
//! operation.

use cache_sim::BlockRun;
use mnm_core::{
    BloomConfig, BloomFilter, Cmnm, CmnmConfig, FilterKind, LaneFilter, SmnmConfig, SmnmFilter,
    TechniqueConfig, TmnmConfig, TmnmFilter,
};
use trace_synth::rng::SplitMix64;

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

/// The family's own single-structure filter: a 1-lane instance.
fn single(config: TechniqueConfig) -> Box<dyn LaneFilter> {
    match config {
        TechniqueConfig::Smnm(c) => Box::new(SmnmFilter::new(c, 1)),
        TechniqueConfig::Tmnm(c) => Box::new(TmnmFilter::new(c, 1)),
        TechniqueConfig::Cmnm(c) => Box::new(Cmnm::new(c, 1)),
        TechniqueConfig::Bloom(c) => Box::new(BloomFilter::new(c, 1)),
    }
}

/// A block from a few far-apart regions, so CMNM registers must widen.
fn block(gen: &mut SplitMix64) -> u64 {
    (gen.below(6) << 22) | gen.below(1 << 9)
}

/// Every per-lane observation of `multi` equals that of `singles[lane]`.
fn assert_lanes_match(
    multi: &FilterKind,
    singles: &[Box<dyn LaneFilter>],
    probes: &[u64],
    what: &str,
) {
    let all = u64::MAX >> (64 - singles.len());
    for &b in probes {
        let lanes = multi.miss_lanes(b, all);
        for (lane, s) in singles.iter().enumerate() {
            let one = multi.miss_lanes(b, 1 << lane);
            assert_eq!(one, lanes & 1 << lane, "{what}: asking lane {lane} alone for {b:#x}");
            assert_eq!(one != 0, s.miss_lanes(b, 1) != 0, "{what}: lane {lane} verdict for {b:#x}");
            assert_eq!(
                multi.lane_bit_of(lane, b),
                s.lane_bit_of(0, b),
                "{what}: lane {lane} bit of {b:#x}"
            );
        }
    }
    for (lane, s) in singles.iter().enumerate() {
        assert_eq!(multi.lane_state_bits(), s.lane_state_bits(), "{what}: lane {lane} state bits");
        assert_eq!(multi.lane_storage_bits(), s.lane_storage_bits(), "{what}: lane {lane} storage");
        assert_eq!(
            multi.lane_occupancy(lane),
            s.lane_occupancy(0),
            "{what}: lane {lane} occupancy"
        );
        assert_eq!(multi.technique_label(), s.technique_label(), "{what}: label");
    }
}

#[test]
fn k_lane_filters_equal_k_independent_filters() {
    for config in configs() {
        for k in 1..=5usize {
            for seed in 0..3u64 {
                let what = format!("{} k={k} seed {seed}", config.label());
                let mut gen = SplitMix64::new(seed ^ (k as u64) << 8);
                let mut multi = FilterKind::build(config, k);
                assert_eq!(multi.lanes(), k, "{what}");
                let mut singles: Vec<Box<dyn LaneFilter>> =
                    (0..k).map(|_| single(config)).collect();
                for (lane, s) in singles.iter_mut().enumerate() {
                    multi.reserve_lane(lane, FRAMES);
                    s.reserve_lane(0, FRAMES);
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
                                multi.replace(lane, BlockRun::one(old, frame));
                                singles[lane].replace(0, BlockRun::one(old, frame));
                            }
                            multi.place(lane, BlockRun::one(b, frame));
                            singles[lane].place(0, BlockRun::one(b, frame));
                            frames[lane][frame] = Some(b);
                        }
                        10..=13 => {
                            if let Some(old) = held {
                                multi.replace(lane, BlockRun::one(old, frame));
                                singles[lane].replace(0, BlockRun::one(old, frame));
                                frames[lane][frame] = None;
                            }
                        }
                        // An invalidation retires the block exactly as a
                        // replacement does, which is what the machine feeds.
                        14..=16 => {
                            if let Some(old) = held {
                                multi.replace(lane, BlockRun::one(old, frame));
                                singles[lane].replace(0, BlockRun::one(old, frame));
                                frames[lane][frame] = None;
                            }
                        }
                        // One soft error, sometimes aimed past the surface.
                        17 | 18 => {
                            let bit = gen.below(singles[lane].lane_state_bits() + 2);
                            let flipped = multi.flip_lane_bit(lane, bit);
                            assert_eq!(
                                flipped,
                                singles[lane].flip_lane_bit(0, bit),
                                "{what}: flip"
                            );
                            flips += u32::from(flipped);
                        }
                        // A filter flush; the caches keep their blocks, so
                        // later removals meet untagged CMNM frames.
                        _ => {
                            if gen.below(8) == 0 {
                                multi.flush_lanes();
                                for s in &mut singles {
                                    s.flush_lanes();
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

/// Line lengths in MNM blocks, one per lane of the run-exactness test.
const RUNS: [u32; 5] = [1, 2, 4, 8, 64];

/// Lines per lane in the run-exactness test.
const LINES: usize = 16;

/// Filters whose run updates take each shortcut and each fallback:
/// `TMNM_4x2c2`'s 2-bit counters saturate inside one run and see
/// increments and decrements on one counter; `CMNM_2_1` has fewer table
/// bits than a 4-block run has varying bits, so it covers block by block;
/// `SMNM_5x3` and `BLOOM_5x3` collide constantly; the rest are HMNM4's
/// own filters.
fn run_configs() -> Vec<TechniqueConfig> {
    vec![
        TechniqueConfig::Smnm(SmnmConfig::new(5, 3)),
        TechniqueConfig::Smnm(SmnmConfig::new(20, 3)),
        TechniqueConfig::Tmnm(TmnmConfig::with_counter_bits(4, 2, 2)),
        TechniqueConfig::Tmnm(TmnmConfig::new(10, 3)),
        TechniqueConfig::Tmnm(TmnmConfig::new(12, 3)),
        TechniqueConfig::Cmnm(CmnmConfig::new(2, 1)),
        TechniqueConfig::Cmnm(CmnmConfig::new(2, 4)),
        TechniqueConfig::Cmnm(CmnmConfig::new(8, 12)),
        TechniqueConfig::Bloom(BloomConfig::new(5, 3)),
    ]
}

/// The first block of a line of `count` blocks, from a few far-apart
/// regions so CMNM registers must widen.
fn line(gen: &mut SplitMix64, count: u32) -> u64 {
    (gen.below(6) << 22) | (gen.below(1 << 7) * u64::from(count))
}

/// Apply `run` to `runs` in one update and to `blocks` block by block.
fn apply(
    runs: &mut FilterKind,
    blocks: &mut FilterKind,
    lane: usize,
    run: BlockRun,
    op: fn(&mut FilterKind, usize, BlockRun),
) {
    op(runs, lane, run);
    for (block, frame_slot) in run.blocks() {
        op(blocks, lane, BlockRun::one(block, frame_slot));
    }
}

#[test]
fn a_run_equals_its_blocks_fed_in_order() {
    for config in run_configs() {
        for seed in 0..3u64 {
            let what = format!("{} seed {seed}", config.label());
            let mut gen = SplitMix64::new(seed);
            let k = RUNS.len();
            let mut runs = FilterKind::build(config, k);
            let mut blocks = FilterKind::build(config, k);
            for (lane, &count) in RUNS.iter().enumerate() {
                runs.reserve_lane(lane, LINES * count as usize);
                blocks.reserve_lane(lane, LINES * count as usize);
            }
            // The first block of the line each lane's frames hold.
            let mut lines = vec![[None::<u64>; LINES]; k];
            let (mut removals, mut flips) = (0u32, 0u32);
            for step in 0..1_500u32 {
                let lane = gen.below(k as u64) as usize;
                let count = RUNS[lane];
                let frame = gen.below(LINES as u64) as usize;
                let at = |first| BlockRun::new(first, count, frame * count as usize);
                let first = line(&mut gen, count);
                let held = lines[lane][frame];
                match gen.below(20) {
                    // A fill: the frame's line (if any) is replaced first.
                    0..=9 => {
                        if let Some(old) = held {
                            apply(&mut runs, &mut blocks, lane, at(old), FilterKind::replace);
                            removals += 1;
                        }
                        apply(&mut runs, &mut blocks, lane, at(first), FilterKind::place);
                        lines[lane][frame] = Some(first);
                    }
                    // A replacement or an invalidation on its own.
                    10..=16 => {
                        if let Some(old) = held {
                            apply(&mut runs, &mut blocks, lane, at(old), FilterKind::replace);
                            lines[lane][frame] = None;
                            removals += 1;
                        }
                    }
                    // One soft error, sometimes aimed past the surface.
                    17 | 18 => {
                        let bit = gen.below(runs.lane_state_bits() + 2);
                        let flipped = runs.flip_lane_bit(lane, bit);
                        assert_eq!(flipped, blocks.flip_lane_bit(lane, bit), "{what}: flip");
                        flips += u32::from(flipped);
                    }
                    // A filter flush; the caches keep their lines.
                    _ => {
                        if gen.below(8) == 0 {
                            runs.flush_lanes();
                            blocks.flush_lanes();
                        }
                    }
                }
                let what = format!("{what} step {step}");
                // The whole state: counters, flags, registers and tags.
                assert!(runs == blocks, "{what}: state");
                let mut probes: Vec<u64> = at(first).blocks().map(|(b, _)| b).collect();
                probes.extend(held.map(|old| old + u64::from(count) - 1));
                probes.push(line(&mut gen, 1));
                for b in probes {
                    assert_eq!(
                        runs.miss_lanes(b, u64::MAX >> (64 - k)),
                        blocks.miss_lanes(b, u64::MAX >> (64 - k)),
                        "{what}: verdicts for {b:#x}"
                    );
                    for lane in 0..k {
                        assert_eq!(
                            runs.lane_bit_of(lane, b),
                            blocks.lane_bit_of(lane, b),
                            "{what}: lane {lane} bit of {b:#x}"
                        );
                    }
                }
                for lane in 0..k {
                    assert_eq!(
                        runs.lane_occupancy(lane),
                        blocks.lane_occupancy(lane),
                        "{what}: lane {lane} occupancy"
                    );
                }
            }
            assert!(removals > 100 && flips > 0, "{what}: {removals} removals, {flips} flips");
        }
    }
}

/// The generator is the shared SplitMix64 stream.
#[test]
fn generator_is_the_canonical_splitmix64_stream() {
    let mut gen = SplitMix64::new(0);
    assert_eq!([gen.next_u64(), gen.next_u64()], [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4]);
}
