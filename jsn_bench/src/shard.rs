//! The sharded workload: 181.mcf on two simulated cores, a quarter of its
//! lines shared, run by the pipelined engine. Cross-core stores
//! invalidate remote private copies through `Hierarchy::invalidate_block`
//! and the filters' `Invalidated` path — writes beside reads, which the
//! single-core workloads never exercise. Every run starts from empty
//! caches on a fresh `ShardedSim` over clones of the same streams.

use std::time::{Duration, Instant};

use cache_sim::{Access, Hierarchy};
use mnm_core::Mnm;
use mnm_shard::{sharded_streams, Engine, ShardConfig, ShardReport, ShardedSim};
use trace_synth::SharingSpec;

use crate::hostspeed::{Pinned, RefKernel, Times};
use crate::ledger::Ledger;
use crate::metrics::{median, percentile_of};
use crate::reference::{self, nominal_maccs, RefSim};
use crate::{filter_config, pin_check, seeded_profile, Check, Metric, Options, Outcome, SimCounts};

/// Simulated cores: one per host core of the reference host.
pub(crate) const CORES: usize = 2;
const SHARING: f64 = 0.25;
const EPOCH: usize = 2048;

fn config() -> ShardConfig {
    ShardConfig { epoch: EPOCH, ..ShardConfig::new(CORES, filter_config()) }
}

fn streams(opts: &Options, config: &ShardConfig) -> Vec<Vec<Access>> {
    let profile = seeded_profile(opts.workload.profile(), opts.seed);
    let spec = SharingSpec {
        sharing_ratio: SHARING,
        line_bytes: config.l3.block_bytes,
        seed: opts.seed,
        ..SharingSpec::new(CORES)
    };
    sharded_streams(&profile, &spec, opts.sizes.per_core, config.l1.block_bytes)
}

/// The per-core streams, a fresh simulator over them, and the host
/// nanoseconds the streams took to generate.
fn set_up(opts: &Options, config: &ShardConfig) -> (Vec<Vec<Access>>, ShardedSim, u64) {
    let t = Instant::now();
    let streams = streams(opts, config);
    let gen_ns = t.elapsed().as_nanos() as u64;
    let sim = ShardedSim::new(config.clone(), streams.clone());
    (streams, sim, gen_ns)
}

/// Simulated counts of one run: private hierarchies, shared L3, filters.
fn counts(report: &ShardReport) -> SimCounts {
    let mut c = SimCounts::default();
    for core in &report.cores {
        c.accesses += core.accesses;
        c.cycles += core.cycles;
        c.add_hierarchy(&core.private);
        c.add_mnm(&core.mnm);
    }
    c.add_hierarchy(&report.l3);
    c
}

/// The frozen copy over each core's stream, from empty caches as every run
/// starts: core `c`'s stream on a thread pinned to the `c`th vCPU, all at
/// once like the run's core threads. Returns how much slower than nominal
/// the host ran the copies, by the time until the last one finished.
fn reference_slowdown(streams: &[Vec<Access>], nominal: f64) -> f64 {
    let mut copies: Vec<RefSim> = streams.iter().map(|_| RefSim::shard_core()).collect();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for (c, (copy, stream)) in copies.iter_mut().zip(streams).enumerate() {
            scope.spawn(move || {
                let _pinned = Pinned::nth(c);
                copy.run(stream, EPOCH)
            });
        }
    });
    let ns = t.elapsed().as_nanos() as f64;
    reference::slowdown(ns, streams.iter().map(Vec::len).sum(), nominal)
}

/// Pipelined runs until the deadline (at least one), each followed by the
/// frozen copy over the same streams for the host's speed.
struct Runs {
    first: ShardReport,
    wall_ns: Times,
    diverged: u64,
    compute_ns: u64,
    stall_ns: u64,
    resolve_ns: u64,
    engine_wall_ns: u64,
}

fn runs(
    config: &ShardConfig,
    streams: &[Vec<Access>],
    mut sim: ShardedSim,
    deadline: Instant,
    ledger: &mut Ledger,
    nominal: f64,
) -> Runs {
    let mut runs: Option<Runs> = None;
    loop {
        let t0 = Instant::now();
        let report = sim.run_engine(Engine::Pipelined);
        let t1 = Instant::now();
        let r = runs.get_or_insert_with(|| Runs {
            first: report.clone(),
            wall_ns: Times::default(),
            diverged: 0,
            compute_ns: 0,
            stall_ns: 0,
            resolve_ns: 0,
            engine_wall_ns: 0,
        });
        ledger.push_span("shard.run", None, r.wall_ns.raw.len() as u64, (t0, t1));
        r.wall_ns.push((t1 - t0).as_nanos() as f64, reference_slowdown(streams, nominal));
        r.diverged += u64::from(report != r.first || report.total_unsound() > 0);
        r.compute_ns += report.timing.compute_nanos;
        r.stall_ns += report.timing.stall_nanos;
        r.resolve_ns += report.timing.resolve_nanos;
        r.engine_wall_ns += report.timing.wall_nanos;
        if Instant::now() >= deadline {
            return runs.expect("one run made");
        }
        sim = ShardedSim::new(config.clone(), streams.to_vec());
    }
}

pub(crate) fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::new(opts.workload, opts.trace);
    out.notes.push(format!(
        "{CORES} simulated cores x {} accesses, sharing {SHARING}, epoch {EPOCH}, pipelined \
         engine ({CORES} core threads + 1 resolver thread); caches start empty in every run",
        opts.sizes.per_core
    ));
    let config = config();

    let mut kernel = RefKernel::new();
    let t = Instant::now();
    let (streams, sim, gen_ns) = set_up(opts, &config);
    let mut setup_s = Times::default();
    setup_s.push(t.elapsed().as_secs_f64(), kernel.slowdown_all_cpus());
    let total: usize = streams.iter().map(Vec::len).sum();
    out.report(true, Metric::new("trace.gen_ns_per_access", gen_ns as f64 / total as f64, "ns"));

    let start = Instant::now();
    let share = if opts.trace { 0.5 } else { 1.0 };
    let mut ledger = Ledger::new(opts.sizes.batch);
    let r = runs(
        &config,
        &streams,
        sim,
        start + Duration::from_secs_f64(opts.seconds * share),
        &mut ledger,
        nominal_maccs(opts.workload),
    );
    let n = r.wall_ns.raw.len() as u64;
    out.attempted = n;
    out.failed = r.diverged;
    out.checks.push(Check::new(
        "runs_identical",
        r.diverged == 0,
        format!(
            "{} of {n} pipelined runs diverged from the first or issued unsound verdicts",
            r.diverged
        ),
    ));

    if !opts.trace {
        // Throughput over every run, not of the median run. On a two-core
        // host the engine's three threads run fast or slow by how the
        // scheduler places them, so run times are bimodal and the share of
        // slow runs changes from process to process: the median jumps
        // between the modes, while the total moves with the share. Gated
        // values are at reference speed; the measured ones are extras.
        let maccs = |wall_ns: &[f64]| (total as u64 * n) as f64 * 1e3 / wall_ns.iter().sum::<f64>();
        let p = |ns: &[f64], q: f64| percentile_of(ns, q) / 1e3;
        out.metrics.push(crate::metrics::peak_rss());
        // The further set-ups `setup_s` is the median of come after peak
        // memory is read, so that their allocator churn does not count.
        for _ in 1..opts.sizes.setups {
            let t = Instant::now();
            let again = set_up(opts, &config);
            setup_s.push(t.elapsed().as_secs_f64(), kernel.slowdown_all_cpus());
            drop(again);
        }
        let wall = &r.wall_ns;
        out.metrics.push(Metric::new("maccs", maccs(&wall.reference), "Macc/s"));
        out.metrics.push(Metric::new("batch_p50_us", p(&wall.reference, 0.50), "us"));
        out.extras.push(Metric::new("raw_maccs", maccs(&wall.raw), "Macc/s"));
        out.extras.push(Metric::new("raw_batch_p50_us", p(&wall.raw, 0.50), "us"));
        out.extras.push(Metric::new("batch_p90_us", p(&wall.reference, 0.90), "us"));
        out.extras.push(Metric::new("host_slowdown", wall.slowdown(), "ratio"));
        out.extras.push(Metric::new("runs", n as f64, "count"));
    } else {
        // The shard ledger: the engine's own phase timing, per run.
        let per_run = |ns: u64| ns as f64 / 1e9 / n as f64;
        let cores = CORES as f64;
        let compute = per_run(r.compute_ns) / cores;
        let stall = per_run(r.stall_ns) / cores;
        let wall = per_run(r.engine_wall_ns);
        let first = &r.first;
        let accesses = first.total_accesses() as f64;
        let sum =
            |f: fn(&mnm_shard::CoreReport) -> u64| first.cores.iter().map(f).sum::<u64>() as f64;
        for (name, value, unit) in [
            ("shard.compute_s_per_core", compute, "s"),
            ("shard.stall_s_per_core", stall, "s"),
            ("shard.resolve_s", per_run(r.resolve_ns), "s"),
            ("shard.wall_s", wall, "s"),
            ("shard.resolver_occupancy", r.resolve_ns as f64 / r.engine_wall_ns as f64, "ratio"),
            ("shard.l3_requests_per_kacc", sum(|c| c.l3_requests) * 1e3 / accesses, "count"),
            (
                "shard.invalidations_per_kacc",
                sum(|c| c.invalidations_received) * 1e3 / accesses,
                "count",
            ),
            ("shard.stale_rescues", sum(|c| c.stale_bypass_rescues), "count"),
            ("shard.unsound_verdicts", first.total_unsound() as f64, "count"),
            ("shard.epochs", first.epochs as f64, "count"),
        ] {
            out.extras.push(Metric::new(name, value, unit));
        }
        let gap = (compute + stall - wall).abs() / wall;
        out.checks.push(Check::new(
            "shard_ledger_reconciles",
            gap <= crate::ledger::RECONCILE_TOLERANCE,
            format!(
                "per core, compute {compute:.4} s + stall {stall:.4} s vs wall {wall:.4} s ({:.1}% apart)",
                gap * 100.0
            ),
        ));

        // The per-access stages each core runs: its filter (built against
        // the three-level template) over its private hierarchy.
        let template = Hierarchy::new(config.template_hierarchy());
        let deadline = start + Duration::from_secs_f64(opts.seconds);
        let mut pass = 0u64;
        while pass < 2 || Instant::now() < deadline {
            for stream in &streams {
                let mut hier = Hierarchy::new(config.private_hierarchy());
                let mut mnm = Mnm::new(&template, config.mnm.clone());
                if pass.is_multiple_of(2) {
                    ledger.untraced(&mut mnm, &mut hier, stream);
                } else {
                    ledger.traced(&mut mnm, &mut hier, stream);
                }
            }
            pass += 1;
        }
        if ledger.allocations() > 0 {
            out.failed += 1;
        }
        out.metrics.extend(ledger.metrics());
        out.extras.extend(ledger.extras());
        out.checks.extend(ledger.checks());
    }
    out.report(false, Metric::new("setup_s", median(&setup_s.reference), "s"));
    out.extras.push(Metric::new("raw_setup_s", median(&setup_s.raw), "s"));
    out.spans = ledger.take_spans();

    // The single-threaded engine is the reference the pipelined one must
    // reproduce bit for bit.
    let single = ShardedSim::new(config.clone(), streams).run_engine(Engine::Single);
    out.checks.push(Check::new(
        "pipelined_equals_single",
        single == r.first,
        "the first pipelined report equals the single-threaded engine's".to_owned(),
    ));
    let unsound = r.first.total_unsound();
    out.checks.push(Check::new(
        "sound_verdicts",
        unsound == 0,
        format!("{unsound} unsound verdicts"),
    ));
    let counts = counts(&r.first);
    out.checks.extend(pin_check(opts, &counts));
    for m in counts.metrics() {
        out.report(true, m);
    }
    out
}
