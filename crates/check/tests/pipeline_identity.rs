//! Engine-identity property sweep: the pipelined driver must reproduce
//! the single-threaded reference bit-for-bit across
//! epoch lengths (including degenerate epoch = 1 and the `auto` tuner),
//! core counts, and every adversarial sharing workload — and stay sound
//! while doing it.
//!
//! This is the race-freedom proof for the SPSC pipeline: any lost
//! message, reordered handoff, or mis-rotated rescue window shows up as
//! a report mismatch somewhere in this matrix.

use mnm_check::{MulticoreChecker, MulticoreScenario, ShardWorkload};
use mnm_core::MnmConfig;
use mnm_shard::{autotune_epoch, ShardConfig, ShardedSim};

const WORKLOADS: [ShardWorkload; 3] =
    [ShardWorkload::PingPong, ShardWorkload::FalseSharing, ShardWorkload::EvictionRace];

/// Epoch lengths under test. `None` means `--epoch auto`: the tuner
/// picks a concrete epoch first, then identity is asserted at that
/// epoch (the same contract `jsn shard --epoch auto` provides).
const EPOCHS: [Option<usize>; 5] = [Some(1), Some(7), Some(64), Some(4096), None];

const CORES: [usize; 4] = [1, 2, 4, 8];

fn identity_case(workload: ShardWorkload, cores: usize, epoch: Option<usize>) {
    let mnm = MnmConfig::parse("HMNM4").unwrap();
    let mut config = ShardConfig::new(cores, mnm);
    let len = if epoch == Some(1) { 600 } else { 1_500 };
    let streams = workload.generate(&config, 0xBEEF ^ cores as u64, len, 0.5);
    config.epoch = match epoch {
        Some(e) => e,
        None => autotune_epoch(&config, &streams).0,
    };
    let single = ShardedSim::new(config.clone(), streams.clone()).run_single_threaded();
    let pipelined = ShardedSim::new(config, streams).run();
    let label = format!("{} cores={cores} epoch={epoch:?}", workload.name());
    assert_eq!(pipelined, single, "pipelined diverged from single: {label}");
    assert_eq!(single.total_unsound(), 0, "unsound verdicts: {label}");
}

#[test]
fn identity_holds_across_epoch_lengths_cores_and_workloads() {
    for workload in WORKLOADS {
        for cores in CORES {
            for epoch in EPOCHS {
                identity_case(workload, cores, epoch);
            }
        }
    }
}

/// The lockstep checker accepts the pipelined schedule: verdicts stay
/// sound at issue time against the application-time frozen image, for
/// every adversarial workload.
#[test]
fn observed_runs_stay_sound_under_the_pipelined_schedule() {
    for workload in WORKLOADS {
        let scenario = MulticoreScenario {
            filter: "HMNM4".to_owned(),
            workload,
            cores: 4,
            sharing_ratio: 0.5,
            seed: 0xFEED,
            len: 3_000,
            epoch: 128,
        };
        let mnm = MnmConfig::parse(&scenario.filter).unwrap();
        let mut config = ShardConfig::new(scenario.cores, mnm);
        config.epoch = scenario.epoch;
        let streams = scenario.workload.generate(
            &config,
            scenario.seed,
            scenario.len,
            scenario.sharing_ratio,
        );
        let mut checker = MulticoreChecker::new(&config);
        let observed = ShardedSim::new(config.clone(), streams.clone())
            .run_single_threaded_observed(&mut checker);
        assert!(checker.violations.is_empty(), "{:?}", checker.violations);
        let pipelined = ShardedSim::new(config, streams).run();
        assert_eq!(pipelined, observed, "{}", scenario.reproducer_line());
    }
}

/// Thread-oversubscription stress for the SPSC handoff: many short
/// 8-core pipelined runs (9 live threads per run) on whatever host this
/// is — including single-core CI containers, where every handoff forces
/// a scheduler round-trip through the ring's yield path. Any dropped or
/// duplicated message diverges the report.
#[test]
fn spsc_handoff_survives_oversubscription() {
    let mnm = MnmConfig::parse("CMNM_8_12").unwrap();
    for round in 0..12u64 {
        let mut config = ShardConfig::new(8, mnm.clone());
        config.epoch = 32; // short epochs -> maximum handoff pressure
        let streams = ShardWorkload::PingPong.generate(&config, round, 400, 0.5);
        let single = ShardedSim::new(config.clone(), streams.clone()).run_single_threaded();
        let pipelined = ShardedSim::new(config, streams).run();
        assert_eq!(pipelined, single, "round {round} diverged");
    }
}
