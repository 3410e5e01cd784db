//! The per-layer cost ledger: host time of the three replay stages every
//! entry point runs per access — filter query (`core`), hierarchy walk
//! (`cache_sim`) and event/probe feedback (`core`) — measured from
//! outside by stepping accesses through the layers' public functions.
//!
//! Every [`SAMPLE_EVERY`]-th access is timed stage by stage, and its
//! spans go to a [`SpanBuf`] allocated before measurement starts; the
//! other accesses run the same calls untimed. The cost of reading the
//! clock, measured from empty spans around each sampled access, is
//! subtracted from every stage. A sampled access longer than
//! [`PREEMPTED_NS`] was interrupted by the host and is left out of the
//! stage means (it stays in the traced total).
//! [`Ledger::untraced`] drives the same accesses through `Mnm::run_many`
//! instead, so alternating the two gives the tracing overhead.

use std::hint::black_box;
use std::time::Instant;

use cache_sim::{Access, Hierarchy, ReplayScratch};
use mnm_bench::allocations;
use mnm_core::Mnm;

use crate::{Check, Metric};

/// One access in this many is timed stage by stage.
pub const SAMPLE_EVERY: u64 = 256;

/// Spans kept for the span file; later spans are counted, not kept.
pub const SPAN_CAPACITY: usize = 1 << 14;

/// A sampled access slower than this was preempted, not simulated.
pub const PREEMPTED_NS: u128 = 50_000;

/// Largest share of the traced time per access the three stages may
/// leave unexplained before the ledger counts as not adding up.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer and operation, e.g. `core.query`.
    pub name: &'static str,
    /// The span this one is part of (`None` for a root span).
    pub parent: Option<&'static str>,
    /// Identifier shared by the spans of one access, frame or run.
    pub id: u64,
    /// Start, in nanoseconds since the ledger was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the ledger was created.
    pub end_ns: u64,
}

/// A span buffer allocated once: pushing never reallocates.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl SpanBuf {
    /// A buffer for `cap` spans.
    pub fn with_capacity(cap: usize) -> SpanBuf {
        SpanBuf { spans: Vec::with_capacity(cap), cap, dropped: 0 }
    }

    /// Keep `span` if there is room, otherwise count it as dropped.
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// The spans kept.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans the buffer's allocation holds.
    pub fn capacity(&self) -> usize {
        self.spans.capacity()
    }

    /// Spans recorded after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Accumulated stage times and the totals they must reconcile with.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    batch: usize,
    spans: SpanBuf,
    scratch: ReplayScratch,
    next_access: u64,
    sampled: u64,
    preempted: u64,
    clock_ns: u64,
    query_ns: u64,
    walk_ns: u64,
    feedback_ns: u64,
    traced_ns: u64,
    traced_accesses: u64,
    untraced_ns: u64,
    untraced_accesses: u64,
    allocs: u64,
}

impl Ledger {
    /// A ledger whose untraced passes call `Mnm::run_many` on `batch`
    /// accesses at a time.
    pub fn new(batch: usize) -> Ledger {
        Ledger {
            epoch: Instant::now(),
            batch: batch.max(1),
            spans: SpanBuf::with_capacity(SPAN_CAPACITY),
            scratch: ReplayScratch::new(),
            next_access: 0,
            sampled: 0,
            preempted: 0,
            clock_ns: 0,
            query_ns: 0,
            walk_ns: 0,
            feedback_ns: 0,
            traced_ns: 0,
            traced_accesses: 0,
            untraced_ns: 0,
            untraced_accesses: 0,
            allocs: 0,
        }
    }

    /// Nanoseconds since the ledger was created.
    fn now_ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// The span buffer.
    pub fn spans(&self) -> &SpanBuf {
        &self.spans
    }

    /// Record a span of another layer (serve frame stages, shard runs).
    pub fn push_span(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        id: u64,
        t: (Instant, Instant),
    ) {
        let span = Span { name, parent, id, start_ns: self.now_ns(t.0), end_ns: self.now_ns(t.1) };
        self.spans.push(span);
    }

    /// Drive `accesses` through `Mnm::run_many`, untimed per stage.
    ///
    /// Allocations are counted from the second batch on: the first batch
    /// of a pass may size the buffers of a freshly built machine.
    pub fn untraced(&mut self, mnm: &mut Mnm, hier: &mut Hierarchy, accesses: &[Access]) {
        let mut a0 = allocations();
        let t0 = Instant::now();
        for (i, chunk) in accesses.chunks(self.batch).enumerate() {
            if i == 1 {
                a0 = allocations();
            }
            black_box(mnm.run_many(hier, chunk));
        }
        self.untraced_ns += t0.elapsed().as_nanos() as u64;
        self.allocs += allocations() - a0;
        self.untraced_accesses += accesses.len() as u64;
    }

    /// Step `accesses` through query, walk and feedback, timing every
    /// [`SAMPLE_EVERY`]-th access stage by stage. Allocations are counted
    /// from the second batch on, as in [`Ledger::untraced`].
    pub fn traced(&mut self, mnm: &mut Mnm, hier: &mut Hierarchy, accesses: &[Access]) {
        let mut a0 = allocations();
        let start = Instant::now();
        let scratch = &mut self.scratch;
        for (i, &access) in accesses.iter().enumerate() {
            if i == self.batch {
                a0 = allocations();
            }
            let id = self.next_access;
            self.next_access += 1;
            if !id.is_multiple_of(SAMPLE_EVERY) {
                let bypass = mnm.query(access);
                hier.access_with_events(access, &bypass, scratch);
                mnm.observe_events(scratch.events());
                mnm.note_probes(scratch.probes());
                continue;
            }
            // Empty spans before and after the access measure the clock's
            // own cost. The one before also waits out the previous
            // access's work, which unsampled accesses overlap; the one
            // after does not. Their mean splits that overlap between
            // neighbours instead of charging it wholly to either.
            let te = Instant::now();
            let t0 = Instant::now();
            let bypass = black_box(mnm.query(access));
            let t1 = Instant::now();
            hier.access_with_events(access, &bypass, scratch);
            let t2 = Instant::now();
            mnm.observe_events(scratch.events());
            mnm.note_probes(scratch.probes());
            let t3 = Instant::now();
            let tf = Instant::now();
            if (t3 - te).as_nanos() > PREEMPTED_NS {
                self.preempted += 1;
                continue;
            }
            self.sampled += 1;
            self.clock_ns += ((t0 - te).as_nanos() + (tf - t3).as_nanos()) as u64 / 2;
            self.query_ns += (t1 - t0).as_nanos() as u64;
            self.walk_ns += (t2 - t1).as_nanos() as u64;
            self.feedback_ns += (t3 - t2).as_nanos() as u64;
            let at = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            let (s0, s1, s2, s3) = (at(t0), at(t1), at(t2), at(t3));
            let span = |name, parent, start_ns, end_ns| Span { name, parent, id, start_ns, end_ns };
            self.spans.push(span("replay.access", None, s0, s3));
            self.spans.push(span("core.query", Some("replay.access"), s0, s1));
            self.spans.push(span("cache_sim.walk", Some("replay.access"), s1, s2));
            self.spans.push(span("core.feedback", Some("replay.access"), s2, s3));
        }
        self.traced_ns += start.elapsed().as_nanos() as u64;
        self.allocs += allocations() - a0;
        self.traced_accesses += accesses.len() as u64;
    }

    fn stage_ns(&self, total: u64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        (total as f64 - self.clock_ns as f64) / self.sampled as f64
    }

    /// Traced host nanoseconds per access.
    pub fn traced_ns_per_access(&self) -> f64 {
        self.traced_ns as f64 / self.traced_accesses.max(1) as f64
    }

    /// Untraced host nanoseconds per access.
    pub fn untraced_ns_per_access(&self) -> f64 {
        self.untraced_ns as f64 / self.untraced_accesses.max(1) as f64
    }

    /// Query, walk and feedback nanoseconds per access.
    pub fn stages(&self) -> [f64; 3] {
        [self.stage_ns(self.query_ns), self.stage_ns(self.walk_ns), self.stage_ns(self.feedback_ns)]
    }

    /// Traced time per access that no stage accounts for.
    pub fn unattributed_ns(&self) -> f64 {
        self.traced_ns_per_access() - self.stages().iter().sum::<f64>()
    }

    /// Heap allocations inside the replay calls, all passes.
    pub fn allocations(&self) -> u64 {
        self.allocs
    }

    /// Accesses driven, traced and untraced.
    pub fn accesses(&self) -> u64 {
        self.traced_accesses + self.untraced_accesses
    }

    /// The ledger's per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let [query, walk, feedback] = self.stages();
        let overhead = (self.traced_ns_per_access() / self.untraced_ns_per_access() - 1.0) * 100.0;
        let allocs_per_m = self.allocs as f64 / (self.accesses().max(1) as f64 / 1e6);
        vec![
            Metric::new("core.query_ns_per_access", query, "ns"),
            Metric::new("cache_sim.walk_ns_per_access", walk, "ns"),
            Metric::new("core.feedback_ns_per_access", feedback, "ns"),
            Metric::new("ledger.unattributed_ns_per_access", self.unattributed_ns(), "ns"),
            Metric::new("ledger.trace_overhead_pct", overhead, "%"),
            Metric::new("ledger.allocs_per_maccess", allocs_per_m, "1/Macc"),
        ]
    }

    /// Extra numbers behind the metrics.
    pub fn extras(&self) -> Vec<Metric> {
        vec![
            Metric::new("ledger.traced_ns_per_access", self.traced_ns_per_access(), "ns"),
            Metric::new("ledger.untraced_ns_per_access", self.untraced_ns_per_access(), "ns"),
            Metric::new("ledger.clock_ns", self.clock_ns as f64 / self.sampled.max(1) as f64, "ns"),
            Metric::new("ledger.sampled_accesses", self.sampled as f64, "count"),
            Metric::new("ledger.preempted_samples", self.preempted as f64, "count"),
            Metric::new("ledger.spans_dropped", self.spans.dropped() as f64, "count"),
        ]
    }

    /// The ledger adds up: the stages explain the traced time per access
    /// to within [`RECONCILE_TOLERANCE`], and the hot path allocated
    /// nothing.
    pub fn checks(&self) -> Vec<Check> {
        let traced = self.traced_ns_per_access();
        let share = self.unattributed_ns().abs() / traced;
        vec![
            Check::new(
                "ledger_reconciles",
                self.sampled > 0 && share <= RECONCILE_TOLERANCE,
                format!(
                    "stages {:.1} ns + unattributed {:.1} ns = traced {traced:.1} ns per access \
                     ({:.1}% unattributed, {} sampled accesses)",
                    self.stages().iter().sum::<f64>(),
                    self.unattributed_ns(),
                    share * 100.0,
                    self.sampled
                ),
            ),
            Check::new(
                "zero_alloc",
                self.allocs == 0,
                format!(
                    "{} heap allocations in {} replayed accesses",
                    self.allocs,
                    self.accesses()
                ),
            ),
        ]
    }

    /// Hand the recorded spans over.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans.spans)
    }
}
