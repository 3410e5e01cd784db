//! Building per-core access streams from synthetic workloads.

use cache_sim::Access;
use trace_synth::sharing::{sharded_programs, SharingSpec};
use trace_synth::{AppProfile, FetchRule, MemRef, RefKind, RefStream};

/// Materialize `accesses_per_core` cache accesses for each core from
/// `profile` under `spec`, by the single-core experiment runner's
/// [`FetchRule::Blocks`] rule: one instruction fetch per new fetch block
/// (`fetch_block_bytes`, normally the L1-I line size, refetched after a
/// misprediction), one data access per load/store.
pub fn sharded_streams(
    profile: &AppProfile,
    spec: &SharingSpec,
    accesses_per_core: usize,
    fetch_block_bytes: u64,
) -> Vec<Vec<Access>> {
    let rule = FetchRule::Blocks { block_bytes: fetch_block_bytes };
    sharded_programs(profile, spec)
        .into_iter()
        .map(|program| {
            let mut out = Vec::with_capacity(accesses_per_core);
            out.extend(RefStream::new(program, rule).take(accesses_per_core).map(access));
            out
        })
        .collect()
}

fn access(r: MemRef) -> Access {
    match r.kind {
        RefKind::Fetch => Access::fetch(r.addr),
        RefKind::Load => Access::load(r.addr),
        RefKind::Store => Access::store(r.addr),
    }
}
