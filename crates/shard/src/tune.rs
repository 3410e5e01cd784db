//! Epoch-length autotuning (`--epoch auto`).
//!
//! The epoch length trades synchronization overhead against resolver
//! pressure: short epochs hand off constantly (handoff and per-round
//! fixed costs dominate), long epochs queue so many shared-L3 requests
//! per round that the single resolver thread becomes the pipeline's
//! bottleneck — cores stall waiting for results no matter how many host
//! cores exist.
//!
//! The tuner calibrates **before** the real run: for each candidate
//! epoch it replays a short prefix of the actual streams through the
//! single-threaded engine (deterministic, thread-free, so calibration
//! itself is bit-stable) and reads the phase timing off the report. The
//! figure of merit is **resolver occupancy relative to per-core
//! compute**: `resolve_nanos / (compute_nanos / cores)` estimates what
//! fraction of one core's epoch the resolver needs to drain the round in
//! the pipelined engine. It picks the *smallest* candidate whose
//! occupancy stays below [`OCCUPANCY_TARGET`] — smallest because shorter
//! epochs keep filter state fresher (fewer stale-bypass rescues) and
//! bound queue memory; the occupancy ceiling is what guarantees the
//! resolver can hide behind compute.
//!
//! The tuner returns a **concrete** epoch, and the caller runs every
//! engine with it — so `--epoch auto` preserves the pipelined ==
//! single bit-identity contract (identity is a property of
//! the chosen epoch, not of the tuning procedure).

use crate::config::ShardConfig;
use crate::sim::ShardedSim;
use cache_sim::Access;

/// Candidate epoch lengths, ascending. Spans the regime where handoff
/// overhead dominates (64) to where resolver batching saturates (16384).
pub const EPOCH_CANDIDATES: [usize; 5] = [64, 256, 1024, 4096, 16384];

/// Per-core accesses replayed for each calibration point.
const CALIBRATION_ACCESSES: usize = 16_384;

/// Highest resolver occupancy (resolve time over per-core compute time)
/// a candidate may show and still be eligible. Below this the resolver
/// hides behind compute in the pipelined engine with margin for host
/// noise.
const OCCUPANCY_TARGET: f64 = 0.85;

/// One calibration measurement.
#[derive(Debug, Clone)]
pub struct TunePoint {
    /// The candidate epoch length.
    pub epoch: usize,
    /// Compute nanoseconds over the calibration prefix (all cores).
    pub compute_nanos: u64,
    /// Resolver nanoseconds over the calibration prefix.
    pub resolve_nanos: u64,
    /// `resolve_nanos / (compute_nanos / cores)`: the fraction of one
    /// core's epoch the resolver needs.
    pub occupancy: f64,
}

/// Pick an epoch length for `config` by calibrating over a prefix of
/// `streams`. Returns the chosen epoch and every measurement taken.
///
/// # Panics
///
/// Panics if `streams.len() != config.cores` (same contract as
/// [`ShardedSim::new`]).
pub fn autotune_epoch(config: &ShardConfig, streams: &[Vec<Access>]) -> (usize, Vec<TunePoint>) {
    assert_eq!(streams.len(), config.cores, "need exactly one access stream per core");
    let mut points = Vec::with_capacity(EPOCH_CANDIDATES.len());
    for &epoch in &EPOCH_CANDIDATES {
        let prefix: Vec<Vec<Access>> =
            streams.iter().map(|s| s[..s.len().min(CALIBRATION_ACCESSES)].to_vec()).collect();
        let mut cfg = config.clone();
        cfg.epoch = epoch;
        let mut sim = ShardedSim::new(cfg, prefix);
        let report = sim.run_single_threaded();
        let t = &report.timing;
        let per_core_compute = t.compute_nanos as f64 / config.cores as f64;
        let occupancy =
            if per_core_compute > 0.0 { t.resolve_nanos as f64 / per_core_compute } else { 0.0 };
        points.push(TunePoint {
            epoch,
            compute_nanos: t.compute_nanos,
            resolve_nanos: t.resolve_nanos,
            occupancy,
        });
    }
    let chosen = points
        .iter()
        .find(|p| p.occupancy <= OCCUPANCY_TARGET)
        .or_else(|| {
            // No candidate hides the resolver; take the least-saturated.
            points.iter().min_by(|a, b| a.occupancy.total_cmp(&b.occupancy))
        })
        .map(|p| p.epoch)
        .expect("EPOCH_CANDIDATES is non-empty");
    (chosen, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::sharded_streams;
    use mnm_core::MnmConfig;
    use trace_synth::profiles;
    use trace_synth::sharing::SharingSpec;

    /// The tuner returns one of its candidates, measures every
    /// candidate, and the chosen epoch drives a normal identical run.
    #[test]
    fn autotune_picks_a_candidate_and_preserves_identity() {
        let config = ShardConfig::new(2, MnmConfig::parse("HMNM4").unwrap());
        let mut spec = SharingSpec::new(2);
        spec.sharing_ratio = 0.25;
        let profile = profiles::by_name("181.mcf").unwrap();
        let streams = sharded_streams(&profile, &spec, 6_000, config.l1.block_bytes);
        let (epoch, points) = autotune_epoch(&config, &streams);
        assert!(EPOCH_CANDIDATES.contains(&epoch));
        assert_eq!(points.len(), EPOCH_CANDIDATES.len());
        assert!(points.iter().all(|p| p.occupancy.is_finite()));

        let mut cfg = config.clone();
        cfg.epoch = epoch;
        let mut a = ShardedSim::new(cfg.clone(), streams.clone());
        let mut b = ShardedSim::new(cfg, streams);
        assert_eq!(a.run(), b.run_single_threaded());
    }
}
