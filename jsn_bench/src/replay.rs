//! The offline replay workloads: one synthetic program streamed through
//! `Mnm::run_many` on the paper's five-level hierarchy.
//!
//! The stream is generated slice by slice into one reused buffer outside
//! the timed calls, so the measured phase is continuous (never a loop
//! over a stored trace) and its memory is bounded by one slice.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cache_sim::{Access, Hierarchy, HierarchyConfig, HierarchyStats, ReplayScratch};
use mnm_bench::allocations;
use mnm_core::{Mnm, MnmStats};

use crate::hostspeed::{Pinned, RefKernel, Times};
use crate::ledger::Ledger;
use crate::metrics::{median, percentile_of};
use crate::reference::{self, nominal_maccs, RefSim};
use crate::{
    filter_config, pin_check, seeded_profile, AccessSource, Check, Metric, Options, Outcome,
    SimCounts,
};

/// One replay's state after set-up: warm caches and filters.
struct Replay {
    source: AccessSource,
    hier: Hierarchy,
    mnm: Mnm,
    slice: Vec<Access>,
    gen_ns: u64,
    gen_accesses: u64,
}

impl Replay {
    /// Build the hierarchy and filter, then warm both with
    /// `opts.sizes.warmup` accesses.
    fn set_up(opts: &Options) -> Replay {
        let hier = Hierarchy::new(HierarchyConfig::paper_five_level());
        let mnm = Mnm::new(&hier, filter_config());
        let source = AccessSource::new(seeded_profile(opts.workload.profile(), opts.seed));
        let mut r = Replay {
            source,
            hier,
            mnm,
            slice: Vec::with_capacity(opts.sizes.slice),
            gen_ns: 0,
            gen_accesses: 0,
        };
        let mut left = opts.sizes.warmup;
        while left > 0 {
            let n = left.min(opts.sizes.slice);
            r.next_slice(n);
            for chunk in r.slice.chunks(opts.sizes.batch) {
                r.mnm.run_many(&mut r.hier, chunk);
            }
            left -= n;
        }
        r.mnm.reset_stats();
        r.hier.reset_stats();
        r
    }

    /// Generate the next `n` accesses into the slice buffer.
    fn next_slice(&mut self, n: usize) {
        let t = Instant::now();
        self.source.fill(&mut self.slice, n);
        self.gen_ns += t.elapsed().as_nanos() as u64;
        self.gen_accesses += n as u64;
    }

    fn stats(&self) -> (HierarchyStats, MnmStats) {
        (self.hier.stats().clone(), self.mnm.stats().clone())
    }
}

/// The frozen copy, warmed by the same accesses as [`Replay::set_up`]'s,
/// so that it enters the measured phase in the live simulator's state.
/// The accesses come a batch at a time, so the copy adds no slice buffer
/// to peak memory.
fn warm_reference(opts: &Options) -> RefSim {
    let mut reference = RefSim::five_level();
    let mut source = AccessSource::new(seeded_profile(opts.workload.profile(), opts.seed));
    let mut batch = Vec::with_capacity(opts.sizes.batch);
    let mut left = opts.sizes.warmup;
    while left > 0 {
        let n = left.min(opts.sizes.batch);
        source.fill(&mut batch, n);
        reference.run(&batch, n);
        left -= n;
    }
    reference
}

/// `Mnm::run_many` over one slice, one timed call per batch, then the
/// frozen copy over the same slice for the host's speed.
struct Timed {
    /// Per-batch host nanoseconds.
    batch_ns: Times,
    /// Per-slice host nanoseconds: the summed time of the slice's calls.
    slice_ns: Times,
    /// Batches whose call allocated.
    alloc_batches: u64,
    allocs: u64,
}

impl Timed {
    fn slice(&mut self, r: &mut Replay, batch: usize, reference: &mut RefSim, nominal: f64) {
        let mut raw = Vec::with_capacity(r.slice.len().div_ceil(batch));
        for chunk in r.slice.chunks(batch) {
            let a0 = allocations();
            let t0 = Instant::now();
            black_box(r.mnm.run_many(&mut r.hier, chunk));
            let ns = t0.elapsed().as_nanos() as f64;
            let allocated = allocations() - a0;
            raw.push(ns);
            if allocated > 0 {
                self.alloc_batches += 1;
                self.allocs += allocated;
            }
        }
        let ns = reference.run(&r.slice, batch);
        let slowdown = reference::slowdown(ns, r.slice.len(), nominal);
        for &ns in &raw {
            self.batch_ns.push(ns, slowdown);
        }
        self.slice_ns.push(raw.iter().sum(), slowdown);
    }
}

pub(crate) fn run(opts: &Options) -> Outcome {
    let sizes = &opts.sizes;
    let mut out = Outcome::new(opts.workload, opts.trace);
    out.notes.push(format!(
        "caches and filters warmed by {} accesses before measurement; {} filter on the paper's \
         five-level hierarchy",
        sizes.warmup,
        crate::FILTER
    ));

    // One thread does all the work: keep it, the frozen copy timed after
    // each slice and the kernel timed after each set-up on one vCPU.
    let _pinned = Pinned::here();
    let mut kernel = RefKernel::new();
    let t = Instant::now();
    let mut r = Replay::set_up(opts);
    let mut setup_s = Times::default();
    setup_s.push(t.elapsed().as_secs_f64(), kernel.slowdown());
    let mut reference = (!opts.trace).then(|| warm_reference(opts));
    let nominal = nominal_maccs(opts.workload);

    // Measure: slices until the deadline. The traced run alternates
    // untraced and traced slices over the same continuing state.
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut timed = Timed {
        batch_ns: Times::default(),
        slice_ns: Times::default(),
        alloc_batches: 0,
        allocs: 0,
    };
    let mut ledger = Ledger::new(sizes.batch);
    let mut snapshot = None;
    let mut slices = 0u64;
    loop {
        r.next_slice(sizes.slice);
        if let Some(reference) = &mut reference {
            timed.slice(&mut r, sizes.batch, reference, nominal);
        } else if slices.is_multiple_of(2) {
            ledger.untraced(&mut r.mnm, &mut r.hier, &r.slice);
        } else {
            ledger.traced(&mut r.mnm, &mut r.hier, &r.slice);
        }
        if snapshot.is_none() {
            snapshot = Some(r.stats());
        }
        slices += 1;
        if Instant::now() >= deadline && (!opts.trace || slices >= 2) {
            break;
        }
    }
    let gen_ns_per_access = r.gen_ns as f64 / r.gen_accesses as f64;
    drop(r);

    if !opts.trace {
        out.metrics.push(crate::metrics::peak_rss());
        // The further set-ups `setup_s` is the median of come after peak
        // memory is read, so that their allocator churn does not count.
        for _ in 1..sizes.setups {
            let t = Instant::now();
            let again = Replay::set_up(opts);
            setup_s.push(t.elapsed().as_secs_f64(), kernel.slowdown());
            drop(again);
        }
        // Throughput of the median slice: a burst of host interference
        // slows a few slices, not the median one, while every batch of a
        // slice — the slow phases of the stream too — counts towards it.
        // Gated values are at reference speed; the measured ones are extras.
        let maccs = |slice_ns: &[f64]| sizes.slice as f64 * 1e3 / median(slice_ns);
        let p = |ns: &[f64], q: f64| percentile_of(ns, q) / 1e3;
        let batch_ns = &timed.batch_ns;
        out.metrics.push(Metric::new("maccs", maccs(&timed.slice_ns.reference), "Macc/s"));
        out.metrics.push(Metric::new("batch_p50_us", p(&batch_ns.reference, 0.50), "us"));
        out.extras.push(Metric::new("raw_maccs", maccs(&timed.slice_ns.raw), "Macc/s"));
        out.extras.push(Metric::new("raw_batch_p50_us", p(&batch_ns.raw, 0.50), "us"));
        out.extras.push(Metric::new("batch_p90_us", p(&batch_ns.reference, 0.90), "us"));
        out.extras.push(Metric::new("batch_p99_us", p(&batch_ns.reference, 0.99), "us"));
        let total_ns: f64 = batch_ns.raw.iter().sum();
        let accesses = (batch_ns.raw.len() * sizes.batch) as f64;
        out.extras.push(Metric::new("raw_sustained_maccs", accesses * 1e3 / total_ns, "Macc/s"));
        out.extras.push(Metric::new("host_slowdown", timed.slice_ns.slowdown(), "ratio"));
        out.extras.push(Metric::new("batches", batch_ns.raw.len() as f64, "count"));
        out.extras.push(Metric::new("slices", slices as f64, "count"));
        out.attempted = batch_ns.raw.len() as u64;
        out.failed += timed.alloc_batches;
        out.checks.push(Check::new(
            "zero_alloc",
            timed.allocs == 0,
            format!("{} heap allocations in {} run_many calls", timed.allocs, batch_ns.raw.len()),
        ));
    } else {
        out.attempted = ledger.accesses().div_ceil(sizes.batch as u64);
        if ledger.allocations() > 0 {
            out.failed += 1;
        }
        out.metrics.extend(ledger.metrics());
        out.extras.extend(ledger.extras());
        out.checks.extend(ledger.checks());
        out.spans = ledger.take_spans();
    }
    out.report(false, Metric::new("setup_s", median(&setup_s.reference), "s"));
    out.extras.push(Metric::new("raw_setup_s", median(&setup_s.raw), "s"));
    out.report(true, Metric::new("trace.gen_ns_per_access", gen_ns_per_access, "ns"));

    // Correctness: re-run the first measured slice stepwise from a fresh
    // set-up, checking every verdict against the hierarchy's contents;
    // the stepped replay must reproduce the measured run's counters.
    let (counts, unsound, identical) = verify(opts, snapshot.expect("one slice measured"));
    out.failed += unsound;
    out.checks.push(Check::new(
        "sound_verdicts",
        unsound == 0,
        format!("{unsound} definite-miss verdicts named a level holding the block, in {} checked accesses", counts.accesses),
    ));
    out.checks.push(Check::new(
        "stepped_equals_batched",
        identical,
        "stepwise replay of the first slice reproduces run_many's hierarchy and filter counters"
            .to_owned(),
    ));
    out.checks.extend(pin_check(opts, &counts));
    for m in counts.metrics() {
        out.report(true, m);
    }
    out
}

/// Replay the first slice after warm-up stepwise, checking soundness.
/// Returns the slice's counts, the unsound verdicts found, and whether
/// the counters equal `measured`.
fn verify(opts: &Options, measured: (HierarchyStats, MnmStats)) -> (SimCounts, u64, bool) {
    let mut r = Replay::set_up(opts);
    r.next_slice(opts.sizes.slice);
    let structures: Vec<_> = r.hier.structures().iter().map(|s| s.id).collect();
    let mut scratch = ReplayScratch::new();
    let mut unsound = 0u64;
    for &access in &r.slice {
        let bypass = r.mnm.query(access);
        unsound += structures
            .iter()
            .filter(|&&id| bypass.contains(id) && r.hier.contains(id, access.addr))
            .count() as u64;
        r.hier.access_with_events(access, &bypass, &mut scratch);
        r.mnm.observe_events(scratch.events());
        r.mnm.note_probes(scratch.probes());
    }
    let stepped = r.stats();
    let counts = SimCounts::of_replay(&stepped.0, &stepped.1);
    (counts, unsound, stepped == measured)
}
