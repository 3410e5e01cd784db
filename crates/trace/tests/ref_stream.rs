//! The three fetch rules of `RefStream` on a hand-written trace, and its
//! per-phase instruction budget.

use trace_synth::{FetchRule, Instr, InstrKind, RefKind, RefStream};
use RefKind::{Fetch, Load, Store};

fn instr(pc: u64, kind: InstrKind) -> Instr {
    Instr { pc, kind, src1: 0, src2: 0 }
}

/// 0x100..0x10c share a 32-byte block; 0x120 opens the next one.
fn trace() -> Vec<Instr> {
    vec![
        instr(0x100, InstrKind::Load { addr: 0xa0 }),
        instr(0x104, InstrKind::Op { latency: 1 }),
        instr(0x108, InstrKind::Branch { mispredicted: true }),
        instr(0x10c, InstrKind::Store { addr: 0xb0 }),
        instr(0x120, InstrKind::Branch { mispredicted: false }),
        instr(0x124, InstrKind::Load { addr: 0xc0 }),
    ]
}

fn refs(rule: FetchRule) -> Vec<(RefKind, u64)> {
    RefStream::new(trace().into_iter(), rule).map(|r| (r.kind, r.addr)).collect()
}

#[test]
fn fetch_blocks_fetch_each_new_block_and_after_a_mispredict() {
    assert_eq!(
        refs(FetchRule::Blocks { block_bytes: 32 }),
        [(Fetch, 0x100), (Load, 0xa0), (Fetch, 0x10c), (Store, 0xb0), (Fetch, 0x120), (Load, 0xc0)]
    );
}

#[test]
fn every_instruction_fetches_and_data_only_never_does() {
    let every = refs(FetchRule::EveryInstr);
    assert_eq!(every.iter().filter(|r| r.0 == Fetch).count(), trace().len());
    assert_eq!(every[..3], [(Fetch, 0x100), (Load, 0xa0), (Fetch, 0x104)]);
    assert_eq!(refs(FetchRule::DataOnly), [(Load, 0xa0), (Store, 0xb0), (Load, 0xc0)]);
}

#[test]
fn a_phase_counts_instructions_and_restarts_the_fetch_block() {
    let mut s = RefStream::new(trace().into_iter(), FetchRule::Blocks { block_bytes: 32 });
    assert_eq!(s.phase(0).count(), 0, "a zero budget runs no instruction");
    let first: Vec<_> = s.phase(2).map(|r| (r.kind, r.addr)).collect();
    assert_eq!(first, [(Fetch, 0x100), (Load, 0xa0)]);
    // 0x108 shares 0x100's block, but a new phase fetches it again.
    let second: Vec<_> = s.phase(1).map(|r| r.kind).collect();
    assert_eq!(second, [Fetch]);
    assert_eq!(s.phase(u64::MAX).count(), 4);
}

#[test]
fn a_reference_budget_cut_between_fetch_and_data_keeps_the_prefix() {
    // `take(n)` counts references, as `sharded_streams` and the checker do.
    let rule = FetchRule::Blocks { block_bytes: 32 };
    for n in 0..=6 {
        let got: Vec<_> =
            RefStream::new(trace().into_iter(), rule).take(n).map(|r| (r.kind, r.addr)).collect();
        assert_eq!(got, refs(rule)[..n]);
    }
}
