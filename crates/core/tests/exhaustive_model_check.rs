//! Exhaustive model checking of filter soundness on a tiny universe.
//!
//! Property tests sample the trace space; this test *enumerates* it: every
//! legal place/replace trace of depth ≤ 8 over a 4-block universe
//! (~87 000 prefixes), for every technique, checking the filter against
//! the exact resident set at every prefix. Any one-sidedness violation in
//! the update/query logic that a random sampler could miss is caught here
//! by construction.

use cache_sim::BlockRun;
use mnm_core::{
    BloomConfig, BloomFilter, Cmnm, CmnmConfig, LaneFilter, SmnmConfig, SmnmFilter, TmnmConfig,
    TmnmFilter,
};

const BLOCKS: u64 = 4;
const DEPTH: usize = 8;

fn build(kind: &str, trace: &[(bool, u64)]) -> Box<dyn LaneFilter> {
    let mut f: Box<dyn LaneFilter> = match kind {
        "smnm" => Box::new(SmnmFilter::new(SmnmConfig::new(4, 1), 1)),
        "tmnm" => Box::new(TmnmFilter::new(TmnmConfig::with_counter_bits(2, 1, 2), 1)),
        "cmnm" => Box::new(Cmnm::new(CmnmConfig::new(2, 2), 1)),
        "bloom" => Box::new(BloomFilter::new(BloomConfig::new(2, 2), 1)),
        other => panic!("unknown filter kind {other}"),
    };
    // Frames as a 4-frame fully associative cache hands them out: a
    // placement takes the lowest free frame, a replacement frees the
    // block's own, so different blocks reuse one frame over a trace.
    let mut frame_of = [usize::MAX; BLOCKS as usize];
    for &(place, b) in trace {
        if place {
            let frame = (0..).find(|fr| !frame_of.contains(fr)).unwrap();
            frame_of[b as usize] = frame;
            f.place(0, BlockRun::one(b, frame));
        } else {
            f.replace(
                0,
                BlockRun::one(b, std::mem::replace(&mut frame_of[b as usize], usize::MAX)),
            );
        }
    }
    f
}

fn check_exhaustively(kind: &str) -> u64 {
    let mut checked = 0u64;
    // DFS over trace prefixes; the filter is rebuilt by replay (O(DEPTH)
    // per node — cheap, and avoids requiring Clone on trait objects).
    let mut stack: Vec<Vec<(bool, u64)>> = vec![Vec::new()];
    while let Some(trace) = stack.pop() {
        let mut resident = [false; BLOCKS as usize];
        for &(place, b) in &trace {
            resident[b as usize] = place;
        }
        let f = build(kind, &trace);
        for (b, &alive) in resident.iter().enumerate() {
            if alive {
                assert!(
                    f.miss_lanes(b as u64, 1) == 0,
                    "{kind} flagged live block {b} after {trace:?}"
                );
            }
        }
        checked += 1;
        if trace.len() < DEPTH {
            for b in 0..BLOCKS {
                let mut next = trace.clone();
                // The only legal next operation on block b: place if
                // absent, replace if resident.
                next.push((!resident[b as usize], b));
                stack.push(next);
            }
        }
    }
    checked
}

#[test]
fn smnm_is_sound_on_every_tiny_trace() {
    assert!(check_exhaustively("smnm") > 80_000);
}

#[test]
fn tmnm_is_sound_on_every_tiny_trace() {
    assert!(check_exhaustively("tmnm") > 80_000);
}

#[test]
fn cmnm_is_sound_on_every_tiny_trace() {
    assert!(check_exhaustively("cmnm") > 80_000);
}

#[test]
fn bloom_is_sound_on_every_tiny_trace() {
    assert!(check_exhaustively("bloom") > 80_000);
}
