//! Tests of each filter against an exact reference model of cache
//! contents: the one-sided soundness contract, flush semantics, and
//! technique-specific guarantees. Deterministic seeded sweeps (formerly
//! proptest).

use std::collections::HashMap;

use mnm_core::{
    Cmnm, CmnmConfig, LaneFilter, Rmnm, RmnmConfig, SmnmConfig, SmnmFilter, TmnmConfig, TmnmFilter,
};
use trace_synth::rng::SplitMix64;

/// An abstract cache trace: alternating place/replace operations that a
/// real cache could emit (a block is placed at most once before being
/// replaced, and only resident blocks are replaced), each with the frame
/// slot the block entered or left.
#[derive(Debug, Clone)]
struct CacheTrace {
    ops: Vec<(bool, u64, usize)>, // (is_place, block, frame slot)
}

fn cache_trace(gen: &mut SplitMix64, max_ops: u64, addr_space: u64) -> CacheTrace {
    let n = 1 + gen.next_u64() % max_ops;
    // Repair the raw stream into a legal place/replace alternation. Like a
    // cache, a placement takes a free frame slot (the most recently freed
    // first) and a replacement frees the block's own.
    let mut live: HashMap<u64, usize> = HashMap::new();
    let mut free: Vec<usize> = Vec::new();
    let mut ops = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let block = gen.next_u64() % addr_space;
        if let Some(frame) = live.remove(&block) {
            free.push(frame);
            ops.push((false, block, frame));
        } else {
            let frame = free.pop().unwrap_or(live.len());
            live.insert(block, frame);
            ops.push((true, block, frame));
        }
    }
    CacheTrace { ops }
}

fn check_filter_soundness(filter: &mut dyn LaneFilter, trace: &CacheTrace) {
    let mut live: HashMap<u64, bool> = HashMap::new();
    for &(is_place, block, frame) in &trace.ops {
        if is_place {
            filter.place(0, block, frame);
            live.insert(block, true);
        } else {
            filter.replace(0, block, frame);
            live.insert(block, false);
        }
        // Soundness: every *live* block must be a maybe.
        for (&b, &alive) in &live {
            assert!(
                !(alive && filter.miss_lanes(b, 1) != 0),
                "{} flagged live block {b:#x}",
                filter.technique_label()
            );
        }
    }
}

#[test]
fn smnm_never_flags_live_blocks() {
    // The generator is the canonical SplitMix64 stream: the reference
    // outputs for seed 0.
    let mut g = SplitMix64::new(0);
    assert_eq!([g.next_u64(), g.next_u64()], [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4]);
    let mut gen = SplitMix64::new(0x5111);
    for case in 0..40u64 {
        let w = 4 + (case % 12) as u32;
        let r = 1 + (case % 3) as u32;
        let trace = cache_trace(&mut gen, 200, 0x2000);
        let mut f = SmnmFilter::new(SmnmConfig::new(w, r), 1);
        check_filter_soundness(&mut f, &trace);
    }
}

#[test]
fn tmnm_never_flags_live_blocks() {
    let mut gen = SplitMix64::new(0x7111);
    for case in 0..40u64 {
        let bits = 2 + (case % 12) as u32;
        let r = 1 + (case % 3) as u32;
        let cw = 1 + (case % 4) as u32;
        let trace = cache_trace(&mut gen, 200, 0x2000);
        let mut f = TmnmFilter::new(TmnmConfig::with_counter_bits(bits, r, cw), 1);
        check_filter_soundness(&mut f, &trace);
    }
}

#[test]
fn cmnm_never_flags_live_blocks() {
    let mut gen = SplitMix64::new(0xC111);
    for case in 0..40u64 {
        let k = [1u32, 2, 4, 8][(case % 4) as usize];
        let m = 2 + (case % 12) as u32;
        let trace = cache_trace(&mut gen, 200, 0x80000);
        let mut f = Cmnm::new(CmnmConfig::new(k, m), 1);
        check_filter_soundness(&mut f, &trace);
    }
}

#[test]
fn rmnm_never_flags_live_blocks() {
    let mut gen = SplitMix64::new(0x2111);
    for case in 0..40u64 {
        let blocks = [16u32, 64, 256][(case % 3) as usize];
        let assoc = [1u32, 2, 4][(case / 3 % 3) as usize];
        let trace = cache_trace(&mut gen, 200, 0x2000);
        // The RMNM is shared; exercise one slot through the same trace.
        let mut r = Rmnm::new(RmnmConfig::new(blocks, assoc), 3);
        let mut live: HashMap<u64, bool> = HashMap::new();
        for &(is_place, block, _) in &trace.ops {
            if is_place {
                r.on_place(1, block);
                live.insert(block, true);
            } else {
                r.on_replace(1, block);
                live.insert(block, false);
            }
            for (&b, &alive) in &live {
                assert!(!(alive && r.is_definite_miss(1, b)), "RMNM flagged live block {b:#x}");
                // Other slots never saw events: they must stay silent.
                assert!(!r.is_definite_miss(0, b));
                assert!(!r.is_definite_miss(2, b));
            }
        }
    }
}

/// TMNM exactness: with wide-enough counters and a table large enough
/// to avoid aliasing, TMNM is a *perfect* filter (counter == live).
#[test]
fn tmnm_is_exact_without_aliasing() {
    let mut gen = SplitMix64::new(0xE8AC7);
    for _ in 0..40 {
        let trace = cache_trace(&mut gen, 120, 64);
        let mut f = TmnmFilter::new(TmnmConfig::with_counter_bits(6, 1, 8), 1);
        let mut live: HashMap<u64, bool> = HashMap::new();
        for &(is_place, block, frame) in &trace.ops {
            if is_place {
                f.place(0, block, frame);
                live.insert(block, true);
            } else {
                f.replace(0, block, frame);
                live.insert(block, false);
            }
        }
        // 64 possible blocks, 64 slots, counters up to 255: no aliasing,
        // no saturation => definite-miss iff dead.
        for (&b, &alive) in &live {
            assert_eq!(f.miss_lanes(b, 1) != 0, !alive, "block {b:#x}");
        }
    }
}

/// Flush must restore the all-cold verdict for every technique.
#[test]
fn flush_makes_everything_a_definite_miss_again() {
    let mut gen = SplitMix64::new(0xF1054);
    for _ in 0..40 {
        let trace = cache_trace(&mut gen, 100, 0x1000);
        let mut filters: Vec<Box<dyn LaneFilter>> = vec![
            Box::new(SmnmFilter::new(SmnmConfig::new(10, 2), 1)),
            Box::new(TmnmFilter::new(TmnmConfig::new(10, 1), 1)),
            Box::new(Cmnm::new(CmnmConfig::new(4, 10), 1)),
        ];
        for f in &mut filters {
            for &(is_place, block, frame) in &trace.ops {
                if is_place {
                    f.place(0, block, frame);
                } else {
                    f.replace(0, block, frame);
                }
            }
            f.flush_lanes();
            for &(_, block, _) in &trace.ops {
                assert!(
                    f.miss_lanes(block, 1) != 0,
                    "{} kept state across flush",
                    f.technique_label()
                );
            }
        }
    }
}

/// Storage accounting is stable: label and bit count do not depend on
/// the history of operations.
#[test]
fn storage_is_history_independent() {
    let mut gen = SplitMix64::new(0x570124);
    for _ in 0..40 {
        let trace = cache_trace(&mut gen, 100, 0x1000);
        let mut f = TmnmFilter::new(TmnmConfig::new(12, 3), 1);
        let before = (f.technique_label().to_owned(), f.lane_storage_bits());
        for &(is_place, block, frame) in &trace.ops {
            if is_place {
                f.place(0, block, frame)
            } else {
                f.replace(0, block, frame)
            }
        }
        assert_eq!(before, (f.technique_label().to_owned(), f.lane_storage_bits()));
    }
}
