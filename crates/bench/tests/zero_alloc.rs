//! The acceptance test for the zero-allocation replay hot path: after a
//! short warmup, driving accesses through every supported entry point
//! (explicit scratch, internal scratch, full MNM protocol for every filter
//! family, the perfect oracle, and the batched APIs) performs no heap
//! allocation at all. So does a CMNM's per-block tag table under long
//! place/replace churn once it has been reserved.
//!
//! The allocation counter is process-global, so a check that ran while a
//! sibling test allocated on another thread would count that thread's
//! allocations too. Every check therefore runs in sequence inside one
//! `#[test]`: nothing else in this binary allocates while a measured
//! region is open.

use cache_sim::{Access, BypassSet, Hierarchy, HierarchyConfig, ReplayScratch};
use mnm_bench::allocations;
use mnm_core::{Cmnm, CmnmConfig, MissFilter, Mnm, MnmConfig, ReplayFilter};

#[global_allocator]
static ALLOC: mnm_bench::CountingAlloc = mnm_bench::CountingAlloc;

/// Mixed re-referencing stream over a modest arena: hits, misses,
/// evictions and stores all occur, with no per-access allocation.
fn stream(i: u64) -> Access {
    let addr = (i.wrapping_mul(0x9E37_79B9) >> 8) % 0x10000;
    match i % 3 {
        0 => Access::load(addr),
        1 => Access::store(addr),
        _ => Access::fetch(addr),
    }
}

fn hierarchy() -> Hierarchy {
    Hierarchy::new(HierarchyConfig::paper_five_level())
}

/// Warm with accesses `0..2000`, then assert that `2000..10000` allocate
/// nothing.
fn assert_steady_state_free(what: &str, mut drive: impl FnMut(Access)) {
    for i in 0..2_000 {
        drive(stream(i));
    }
    let before = allocations();
    for i in 2_000..10_000 {
        drive(stream(i));
    }
    assert_eq!(allocations() - before, 0, "steady-state {what} allocated");
}

fn explicit_scratch_path() {
    let mut hier = hierarchy();
    let mut scratch = ReplayScratch::new();
    let none = BypassSet::none();
    assert_steady_state_free("access_with_events", |a| {
        hier.access_with_events(a, &none, &mut scratch);
    });
}

fn internal_scratch_wrapper() {
    let mut hier = hierarchy();
    let none = BypassSet::none();
    assert_steady_state_free("access()", |a| {
        hier.access(a, &none);
    });
}

fn baseline_step() {
    let mut hier = hierarchy();
    assert_steady_state_free("baseline Hierarchy::step", |a| {
        hier.step(&mut ReplayFilter::Baseline, a);
    });
}

fn mnm_protocol_for_every_family() {
    for label in ["RMNM_512_2", "SMNM_13x2", "TMNM_12x3", "CMNM_8_12", "BLOOM_12x2", "HMNM4"] {
        let mut hier = hierarchy();
        let mut mnm = Mnm::new(&hier, MnmConfig::parse(label).unwrap());
        assert_steady_state_free(&format!("{label} Mnm::run_access"), |a| {
            mnm.run_access(&mut hier, a);
        });
    }
}

fn perfect_oracle_step() {
    // `perfect_bypass` builds its verdict with `dry_run_bypass`, which
    // returns a stack `BypassSet` instead of collecting a Vec — the
    // regression this check pins down (the Vec cost ~50k allocs/1M).
    let mut hier = hierarchy();
    assert_steady_state_free("perfect-oracle Hierarchy::step", |a| {
        hier.step(&mut ReplayFilter::Perfect, a);
    });
}

fn batched_run_many() {
    let mut hier = hierarchy();
    let mut mnm = Mnm::new(&hier, MnmConfig::hmnm(4));
    // Chunks are materialized before the measured region, as a trace
    // reader would refill a fixed buffer.
    let warm: Vec<Access> = (0..2_000).map(stream).collect();
    let chunks: Vec<Vec<Access>> =
        (0..8).map(|c| (2_000 + c * 1_000..3_000 + c * 1_000).map(stream).collect()).collect();
    mnm.run_many(&mut hier, &warm);
    let before = allocations();
    let mut total = cache_sim::BatchSummary::default();
    for chunk in &chunks {
        total.merge(mnm.run_many(&mut hier, chunk));
    }
    assert_eq!(allocations() - before, 0, "steady-state Mnm::run_many allocated");
    assert_eq!(total.accesses, 8_000);
}

fn batched_query_many_once_warm() {
    let hier = hierarchy();
    let mut mnm = Mnm::new(&hier, MnmConfig::hmnm(4));
    let chunk: Vec<Access> = (0..1_000).map(stream).collect();
    let mut out = Vec::new();
    // First call sizes `out`; later calls reuse its capacity.
    mnm.query_many(&chunk, &mut out);
    let before = allocations();
    for _ in 0..8 {
        mnm.query_many(&chunk, &mut out);
    }
    assert_eq!(allocations() - before, 0, "steady-state Mnm::query_many allocated");
    assert_eq!(out.len(), chunk.len());
}

fn batched_hierarchy_run() {
    let mut hier = hierarchy();
    let warm: Vec<Access> = (0..2_000).map(stream).collect();
    let chunk: Vec<Access> = (2_000..10_000).map(stream).collect();
    hier.run(&mut ReplayFilter::Baseline, &warm);
    let before = allocations();
    let summary = hier.run(&mut ReplayFilter::Baseline, &chunk);
    assert_eq!(allocations() - before, 0, "steady-state Hierarchy::run allocated");
    assert_eq!(summary.accesses, 8_000);
}

fn cmnm_churn_after_reserve() {
    // A CMNM guarding a structure of `n` MNM blocks: fill it, then run
    // 100 × n replace/place pairs, so at most `n` blocks are ever live.
    let n: u64 = 4_096;
    let block = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 37;
    let mut f = Cmnm::new(CmnmConfig::new(8, 12));
    f.reserve(n as usize);
    let before = allocations();
    for i in 0..n {
        f.on_place(block(i));
    }
    for i in n..101 * n {
        f.on_replace(block(i - n));
        f.on_place(block(i));
    }
    assert_eq!(allocations() - before, 0, "CMNM place/replace churn allocated");
    let live = f.occupancy().tracked;
    assert!(live > 0 && live <= n, "{live} live blocks");
}

#[test]
fn every_replay_entry_point_is_allocation_free() {
    explicit_scratch_path();
    internal_scratch_wrapper();
    baseline_step();
    mnm_protocol_for_every_family();
    perfect_oracle_step();
    batched_run_many();
    batched_query_many_once_warm();
    batched_hierarchy_run();
    cmnm_churn_after_reserve();
}
