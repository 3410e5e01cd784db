//! The pipelined epoch-synchronized sharded simulator.
//!
//! ## Execution model
//!
//! Time is divided into **epochs** of `epoch` accesses per core. Within
//! an epoch every core runs entirely on private state — its own L1/L2
//! hierarchy and its own MNM — so the drivers need no synchronization
//! while an epoch computes. Accesses that miss every private level are
//! queued as shared-L3 requests instead of being resolved immediately:
//! the shared L3 is **frozen** from a core's point of view for the
//! duration of an epoch.
//!
//! ## The one-epoch-deep pipeline
//!
//! Resolution of the shared level is serial, so it is overlapped with
//! compute rather than alternated with it:
//!
//! * cores compute epoch **E+1** while the resolver drains epoch **E**'s
//!   queues;
//! * the results of resolving epoch E (coherence invalidations, the
//!   global L3 event list, probe records) are applied at the start of
//!   epoch **E+2**, the first epoch that begins after the resolution is
//!   guaranteed complete.
//!
//! Epoch E therefore runs against the L3 image left by resolution of
//! epoch E−2 — a *frozen view*. Requests resolve serially in core-major
//! program order (deterministic regardless of thread scheduling), every
//! core applies the identical global event list (so shared-slot filter
//! state is bit-identical everywhere), and verdicts are classified at
//! resolution time as sound bypass / stale rescue / unsound.
//!
//! ## Engines
//!
//! Both engines run one schedule, built from two turns, and must produce
//! bit-identical [`ShardReport`]s (asserted in tests, the `shard_scaling`
//! bench, and CI). A core turn applies the resolution round that arrived,
//! if any, then computes an epoch through [`Hierarchy::run`], the loop
//! every other driver runs. A resolver turn counts the round, then stops
//! the run or resolves the round's requests.
//!
//! * [`Engine::Pipelined`] (the default, [`ShardedSim::run`]) — one host
//!   thread per core plus a resolver thread, handing off over two bounded
//!   `std::sync::mpsc` channels per core: an outbox (epoch requests +
//!   store lines) and an inbox (resolution results). No shared lock.
//! * [`Engine::Single`] ([`ShardedSim::run_single_threaded`]) — every
//!   turn on the calling thread, each round's results queued one round as
//!   the channels queue them; the only driver that invokes a
//!   [`ShardObserver`].
//!
//! ### Why the handoff channels never fill
//!
//! A core computing epoch E+2 needs the results of round E, so it runs at
//! most ~1.5 epochs ahead of the resolver, which in turn waits on every
//! outbox. At most two messages are in flight per direction, so a
//! channel of `HANDOFF_DEPTH` slots never blocks a sender. The resolver
//! ends the run by dropping its inbox senders; a thread that panics drops
//! its channel ends too, so its peers stop instead of waiting forever
//! and the scope re-raises the panic.
//!
//! ## Verdict soundness across the pipeline
//!
//! A definite-miss verdict for the shared L3 issued during epoch E is
//! issued against the post-R(E−2) L3 image (R(x) = resolution of epoch
//! x). By the time R(E) examines the request, the line may have been
//! placed by R(E−1) or by an earlier request within R(E) — placements
//! the verdict could not have seen; such a verdict is demoted to a
//! normal probe and counted as a
//! [`stale bypass rescue`](crate::CoreReport::stale_bypass_rescues).
//! A bypass verdict that finds a line which was already resident in the
//! frozen image is a genuine soundness violation and counted in
//! [`unsound_verdicts`](crate::CoreReport::unsound_verdicts). The
//! resolver tracks the rescue window as the placement sets of the
//! current and previous resolution rounds — exactly the events the
//! issuing filter had not yet absorbed.

use crate::config::ShardConfig;
use crate::report::{CoreReport, ShardReport, ShardTiming};
use cache_sim::{
    Access, AccessFilter, AccessKind, BypassSet, CacheEvent, EventKind, Hierarchy, ProbeOutcome,
    ProbeRecord, ReplayScratch, StructureId,
};
use mnm_core::Mnm;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;
use trace_synth::rng::splitmix64;

/// Hashes a line address with one SplitMix64 step. The engines' sets
/// hold simulated line addresses and only answer membership (first-seen
/// order comes from the `Vec`s beside them), so SipHash's resistance to
/// chosen keys buys nothing there.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = splitmix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, line: u64) {
        self.0 = splitmix64(self.0 ^ line);
    }
}

/// A set of line addresses.
type LineSet = HashSet<u64, BuildHasherDefault<LineHasher>>;

/// Slots per handoff channel: at least the two messages a direction can
/// have in flight (see the module docs).
const HANDOFF_DEPTH: usize = 4;

/// How one shared-L3 request was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L3Outcome {
    /// Probed the L3 and hit.
    Hit,
    /// Probed the L3 and missed; memory supplied.
    Miss,
    /// Definite-miss verdict honored: probe skipped, block indeed absent.
    Bypassed,
    /// Definite-miss verdict found the block resident, but only because
    /// a resolution round after the verdict's frozen view placed it.
    /// Sound; demoted to a probe.
    Rescued,
    /// Definite-miss verdict found a block that was resident in the
    /// verdict's frozen view: a genuine soundness violation.
    Unsound,
}

/// The execution engine driving the epoch schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Cores compute epoch E+1 while a dedicated resolver thread drains
    /// epoch E; channel handoff, no shared locks. The default.
    Pipelined,
    /// Everything on the calling thread; the reference execution.
    Single,
}

impl Engine {
    /// Stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Pipelined => "pipelined",
            Engine::Single => "single",
        }
    }
}

/// Hooks for lockstep checking. Only the single-threaded driver
/// ([`ShardedSim::run_single_threaded_observed`]) invokes an observer;
/// the parallel drivers are proven equivalent to it by report identity.
///
/// Hook timing follows the *cores'* view of the pipeline: `l3_events`
/// fires when a resolution round's global event list is **applied** (the
/// moment every core's shared-slot filter state advances), not when the
/// resolver produced it — so an observer validating verdicts against its
/// own ledger sees exactly the frozen image the filters saw, one-epoch
/// pipelining included.
pub trait ShardObserver {
    /// A core issued a verdict for an access (before the access ran).
    fn verdict(&mut self, _core: usize, _access: Access, _verdict: BypassSet) {}
    /// A core drove an access through its private hierarchy; `events`
    /// are the resulting private placements/replacements.
    fn private_step(&mut self, _core: usize, _access: Access, _events: &[CacheEvent]) {}
    /// A coherence invalidation removed `removed` blocks covering `line`
    /// from a core's private caches; `events` are the `Invalidated`
    /// events fed to that core's filters.
    fn coherence_invalidation(
        &mut self,
        _core: usize,
        _line: u64,
        _removed: u32,
        _events: &[CacheEvent],
    ) {
    }
    /// The resolver resolved one of a core's shared-L3 requests.
    fn l3_resolution(&mut self, _core: usize, _access: Access, _outcome: L3Outcome) {}
    /// A resolution round's global shared-L3 event list is being applied
    /// by every core (the filters' frozen view advances past it now).
    fn l3_events(&mut self, _events: &[CacheEvent]) {}
}

/// The no-op observer used by the parallel drivers.
struct NoopObserver;

impl ShardObserver for NoopObserver {}

/// An access that left the private levels during an epoch, waiting for
/// resolution against the shared L3.
struct L3Request {
    access: Access,
    /// The epoch-start verdict claimed the shared L3 definitely misses.
    bypass_l3: bool,
}

/// One epoch's worth of core → resolver traffic.
struct OutMsg {
    /// Shared-L3 requests in program order.
    requests: Vec<L3Request>,
    /// L3 lines this core stored to this epoch, deduplicated, in store
    /// order (published as invalidations to every other core).
    stores: Vec<u64>,
    /// The core's stream is fully consumed.
    exhausted: bool,
}

/// One resolution round's results for one core (resolver → core). The
/// default is the empty round that primes the pipeline.
#[derive(Default)]
struct ResolvedMsg {
    /// Coherence invalidations: L3 victims (every core) then other
    /// cores' store lines, deduplicated, in deterministic order.
    invals: Vec<u64>,
    /// The global L3 event list — identical for every core, so per-core
    /// shared-slot filter state stays identical everywhere.
    events: Arc<Vec<CacheEvent>>,
    /// This core's L3 probe records for coverage accounting.
    probes: Vec<ProbeRecord>,
}

/// Everything one core owns. Exactly one thread touches a `CoreState`
/// at any time: its own thread in the parallel engines (no `Mutex`),
/// the calling thread in the single engine.
struct CoreState {
    id: usize,
    hier: Hierarchy,
    mnm: Mnm,
    stream: Vec<Access>,
    pos: usize,
    store_seen: LineSet,
    /// The counters the core keeps: accesses, private cycles and
    /// invalidations received.
    report: CoreReport,
    ev_buf: Vec<CacheEvent>,
    /// Nanoseconds this core spent in its turns (applying + computing).
    compute_nanos: u64,
    /// Nanoseconds this core spent stalled waiting for handoff.
    stall_nanos: u64,
}

/// State only the resolver touches (the dedicated resolver thread in the
/// pipelined engine, the calling thread in the single engine).
struct ResolverState {
    l3: Hierarchy,
    /// L3 lines placed during the current resolution round.
    placed_cur: LineSet,
    /// L3 lines placed during the previous round — still invisible to
    /// the filters that issued this round's verdicts (stale-bypass
    /// rescue window, see the module docs).
    placed_prev: LineSet,
    /// L3 victims of the current round already listed.
    victim_seen: LineSet,
    /// Lines already listed in the invalidation message being built.
    inval_seen: LineSet,
    scratch: ReplayScratch,
    /// Each core's shared-L3 counters, joined with the core's own in the
    /// report.
    tallies: Vec<CoreReport>,
    /// The previous round's outboxes were all empty.
    prev_empty: bool,
    /// Rounds executed — the number of epochs the schedule ran.
    rounds: u64,
    /// Nanoseconds spent inside [`resolve_round`].
    resolve_nanos: u64,
}

/// Immutable per-run facts threaded through the drivers.
#[derive(Clone, Copy)]
struct Ctx {
    l3_template_id: StructureId,
    l3_block_bytes: u64,
    min_private_block: u64,
    epoch: usize,
}

/// An N-core sharded simulation (see the module docs for the model).
pub struct ShardedSim {
    config: ShardConfig,
    cores: Vec<CoreState>,
    resolver: ResolverState,
    ctx: Ctx,
}

impl ShardedSim {
    /// Build the simulation over one pre-materialized access stream per
    /// core.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid or `streams.len()` does not match
    /// `config.cores`.
    pub fn new(config: ShardConfig, streams: Vec<Vec<Access>>) -> Self {
        config.validate();
        assert_eq!(streams.len(), config.cores, "need exactly one access stream per core");
        let template = Hierarchy::new(config.template_hierarchy());
        let l3_template_id = template
            .structures()
            .iter()
            .find(|s| s.level == 3)
            .expect("template hierarchy has a level-3 structure")
            .id;
        let private_cfg = config.private_hierarchy();
        let min_private_block = private_cfg
            .levels
            .iter()
            .flat_map(|l| l.configs())
            .map(|c| c.block_bytes)
            .min()
            .expect("private hierarchy has levels");
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(id, stream)| CoreState {
                id,
                hier: Hierarchy::new(private_cfg.clone()),
                mnm: Mnm::new(&template, config.mnm.clone()),
                stream,
                pos: 0,
                store_seen: LineSet::default(),
                report: CoreReport::default(),
                ev_buf: Vec::new(),
                compute_nanos: 0,
                stall_nanos: 0,
            })
            .collect();
        // base_level 3: the standalone L3 hierarchy represents the outer
        // level of the template system, so its structure is bypassable
        // (level-1 structures never are) and probes carry the true level.
        let resolver = ResolverState {
            l3: Hierarchy::with_base_level(config.l3_hierarchy(), 3),
            placed_cur: LineSet::default(),
            placed_prev: LineSet::default(),
            victim_seen: LineSet::default(),
            inval_seen: LineSet::default(),
            scratch: ReplayScratch::new(),
            tallies: vec![CoreReport::default(); config.cores],
            prev_empty: true,
            rounds: 0,
            resolve_nanos: 0,
        };
        let ctx = Ctx {
            l3_template_id,
            l3_block_bytes: config.l3.block_bytes,
            min_private_block,
            epoch: config.epoch,
        };
        ShardedSim { config, cores, resolver, ctx }
    }

    /// The configuration this simulation was built with.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Run the pipelined engine (one host thread per core plus a
    /// resolver thread). Produces a report bit-identical to
    /// [`ShardedSim::run_single_threaded`].
    pub fn run(&mut self) -> ShardReport {
        self.run_engine(Engine::Pipelined)
    }

    /// Run everything on the calling thread (the reference execution the
    /// parallel drivers must match).
    pub fn run_single_threaded(&mut self) -> ShardReport {
        self.run_engine(Engine::Single)
    }

    /// Run the selected engine.
    pub fn run_engine(&mut self, engine: Engine) -> ShardReport {
        match engine {
            Engine::Pipelined => self.run_pipelined(),
            Engine::Single => self.run_single_threaded_observed(&mut NoopObserver),
        }
    }

    /// Single-threaded run with lockstep checking hooks.
    pub fn run_single_threaded_observed(&mut self, obs: &mut dyn ShardObserver) -> ShardReport {
        let ctx = self.ctx;
        let wall = Instant::now();
        // Results wait a round before the cores apply them, as they wait
        // in the channels; the empty primer is the first to arrive.
        let mut queued: Vec<_> = self.cores.iter().map(|_| Some(ResolvedMsg::default())).collect();
        let mut arrived: Vec<Option<ResolvedMsg>> = self.cores.iter().map(|_| None).collect();
        loop {
            // The frozen view advances past the round being applied: tell
            // the observer first, so its ledger matches the filters.
            if let Some(msg) = arrived.iter().flatten().next() {
                obs.l3_events(&msg.events);
            }
            let outs = (self.cores.iter_mut().zip(&mut arrived))
                .map(|(core, msg)| core_turn(ctx, core, msg.take(), obs))
                .collect();
            let Some(msgs) = resolver_turn(ctx, &mut self.resolver, outs, obs) else { break };
            arrived = std::mem::replace(&mut queued, msgs.into_iter().map(Some).collect());
        }
        self.build_report(Engine::Single, wall)
    }

    /// The pipelined engine: compute overlaps resolution, handoff over
    /// per-core bounded channels, no shared locks anywhere on the hot path.
    fn run_pipelined(&mut self) -> ShardReport {
        let ctx = self.ctx;
        let wall = Instant::now();
        let n = self.config.cores;
        let (out_tx, out_rx): (Vec<SyncSender<OutMsg>>, Vec<Receiver<OutMsg>>) =
            (0..n).map(|_| sync_channel(HANDOFF_DEPTH)).unzip();
        let (in_tx, in_rx): (Vec<SyncSender<ResolvedMsg>>, Vec<Receiver<ResolvedMsg>>) =
            (0..n).map(|_| sync_channel(HANDOFF_DEPTH)).unzip();
        let resolver = &mut self.resolver;
        std::thread::scope(|scope| {
            for ((core, outbox), inbox) in self.cores.iter_mut().zip(out_tx).zip(in_rx) {
                scope.spawn(move || {
                    let mut arrived = None;
                    // A closed channel: the resolver finished the run (or
                    // panicked).
                    while outbox.send(core_turn(ctx, core, arrived, &mut NoopObserver)).is_ok() {
                        let t = Instant::now();
                        let msg = inbox.recv();
                        core.stall_nanos += elapsed_nanos(t);
                        let Ok(msg) = msg else { break };
                        arrived = Some(msg);
                    }
                });
            }
            scope.spawn(move || {
                // The primer lets epoch 1 start before epoch 0 is
                // resolved: that is the pipeline. A closed channel means a
                // core panicked; returning drops the inbox senders, which
                // ends every core loop, as it does when the run is over.
                let mut msgs: Vec<ResolvedMsg> = (0..n).map(|_| ResolvedMsg::default()).collect();
                while in_tx.iter().zip(msgs).all(|(inbox, m)| inbox.send(m).is_ok()) {
                    let Ok(outs) = out_rx.iter().map(Receiver::recv).collect() else { return };
                    let Some(next) = resolver_turn(ctx, resolver, outs, &mut NoopObserver) else {
                        return;
                    };
                    msgs = next;
                }
            });
        });
        self.build_report(Engine::Pipelined, wall)
    }

    /// The report of the run that started at `wall`: each core's own
    /// counters joined with the resolver's tally of its L3 requests.
    fn build_report(&self, engine: Engine, wall: Instant) -> ShardReport {
        let rs = &self.resolver;
        let cores = (self.cores.iter().zip(&rs.tallies))
            .map(|(core, tally)| CoreReport {
                accesses: core.report.accesses,
                cycles: core.report.cycles + tally.cycles,
                invalidations_received: core.report.invalidations_received,
                private: core.hier.stats().clone(),
                mnm: core.mnm.stats().clone(),
                ..tally.clone()
            })
            .collect();
        let timing = ShardTiming {
            engine: engine.label().to_owned(),
            wall_nanos: elapsed_nanos(wall),
            compute_nanos: self.cores.iter().map(|c| c.compute_nanos).sum(),
            resolve_nanos: rs.resolve_nanos,
            stall_nanos: self.cores.iter().map(|c| c.stall_nanos).sum(),
        };
        ShardReport { cores, l3: rs.l3.stats().clone(), epochs: rs.rounds, timing }
    }
}

fn elapsed_nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// A core's turn: apply the resolution round that arrived, if any, then
/// run up to `ctx.epoch` accesses on private state, queuing shared-L3
/// requests and published store lines into the epoch's outbox.
fn core_turn(
    ctx: Ctx,
    core: &mut CoreState,
    arrived: Option<ResolvedMsg>,
    obs: &mut dyn ShardObserver,
) -> OutMsg {
    let t = Instant::now();
    if let Some(msg) = arrived {
        apply_inbox(ctx, core, &msg, obs);
    }
    let end = core.stream.len().min(core.pos + ctx.epoch);
    let mut filter = CoreFilter {
        ctx,
        core: core.id,
        mnm: &mut core.mnm,
        obs,
        store_seen: &mut core.store_seen,
        out: OutMsg {
            requests: Vec::new(),
            stores: Vec::new(),
            exhausted: end == core.stream.len(),
        },
        access: Access::load(0),
        verdict: BypassSet::none(),
    };
    let summary = core.hier.run(&mut filter, &core.stream[core.pos..end]);
    let out = filter.out;
    core.pos = end;
    core.report.accesses += summary.accesses;
    core.report.cycles += summary.total_latency;
    core.store_seen.clear();
    core.compute_nanos += elapsed_nanos(t);
    out
}

/// The resolver's turn: count the round, then stop (`None`) or resolve
/// it. A round's results are empty exactly when its outboxes are, so the
/// run is over once the previous round's outboxes were empty and this
/// round's are empty and exhausted: nothing is left to apply or compute.
fn resolver_turn(
    ctx: Ctx,
    rs: &mut ResolverState,
    outs: Vec<OutMsg>,
    obs: &mut dyn ShardObserver,
) -> Option<Vec<ResolvedMsg>> {
    rs.rounds += 1;
    let empty = outs.iter().all(|o| o.requests.is_empty() && o.stores.is_empty());
    if rs.prev_empty && empty && outs.iter().all(|o| o.exhausted) {
        return None;
    }
    rs.prev_empty = empty;
    Some(resolve_round(ctx, outs, rs, obs))
}

/// Apply one resolution round's results to a core: coherence
/// invalidations first (they reflect resolution-time state and must land
/// before any new access queries the filters), then the global shared-L3
/// event list and this core's probe records in one batched filter
/// refresh.
fn apply_inbox(ctx: Ctx, core: &mut CoreState, msg: &ResolvedMsg, obs: &mut dyn ShardObserver) {
    for &line in &msg.invals {
        core.ev_buf.clear();
        let mut removed = 0u32;
        let mut off = 0;
        while off < ctx.l3_block_bytes {
            removed += core.hier.invalidate_block(line + off, &mut core.ev_buf);
            off += ctx.min_private_block;
        }
        core.mnm.observe_events(&core.ev_buf);
        core.report.invalidations_received += u64::from(removed);
        if removed > 0 {
            obs.coherence_invalidation(core.id, line, removed, &core.ev_buf);
        }
    }
    core.mnm.observe_events(&msg.events);
    core.mnm.note_probes(&msg.probes);
}

/// A core's `Mnm` as the filter [`Hierarchy::run`] drives through an
/// epoch, reporting to the observer and filling the epoch's outbox.
struct CoreFilter<'a> {
    ctx: Ctx,
    core: usize,
    mnm: &'a mut Mnm,
    obs: &'a mut dyn ShardObserver,
    store_seen: &'a mut LineSet,
    out: OutMsg,
    /// The access in flight and its verdict.
    access: Access,
    verdict: BypassSet,
}

impl AccessFilter for CoreFilter<'_> {
    fn query(&mut self, _: &Hierarchy, access: Access) -> BypassSet {
        self.access = access;
        self.verdict = self.mnm.query(access);
        self.obs.verdict(self.core, access, self.verdict);
        self.verdict
    }

    fn observe_events(&mut self, _: &Hierarchy, events: &[CacheEvent]) {
        self.mnm.observe_events(events);
        self.obs.private_step(self.core, self.access, events);
    }

    /// The walk stops at its first hit, so memory supplied the access
    /// exactly when its last probe is not a hit: then it goes to the L3.
    fn note_probes(&mut self, access: Access, probes: &[ProbeRecord]) {
        self.mnm.note_probes(probes);
        if access.kind == AccessKind::Store {
            let line = access.addr & !(self.ctx.l3_block_bytes - 1);
            if self.store_seen.insert(line) {
                self.out.stores.push(line);
            }
        }
        if probes.last().is_some_and(|p| p.outcome != ProbeOutcome::Hit) {
            let bypass_l3 = self.verdict.contains(self.ctx.l3_template_id);
            self.out.requests.push(L3Request { access, bypass_l3 });
        }
    }
}

/// The serial resolution phase: resolve every queued L3 request in
/// core-major program order — each request sees every earlier request's
/// fills — tally each core's outcomes, and package per-core results
/// (invalidations, the global event list, probe records) for application
/// two epochs after the requests were issued.
fn resolve_round(
    ctx: Ctx,
    outs: Vec<OutMsg>,
    rs: &mut ResolverState,
    obs: &mut dyn ShardObserver,
) -> Vec<ResolvedMsg> {
    let t0 = Instant::now();
    let n = outs.len();
    // Rotate the rescue window: this round's verdicts were issued
    // against the image two rounds back, so placements from the previous
    // round are still invisible to them.
    std::mem::swap(&mut rs.placed_prev, &mut rs.placed_cur);
    rs.placed_cur.clear();
    let l3_sid = StructureId::new(0);
    let mut global_events: Vec<CacheEvent> = Vec::new();
    let mut victims: Vec<u64> = Vec::new();
    let mut store_pub: Vec<Vec<u64>> = Vec::with_capacity(n);
    let mut probes_out: Vec<Vec<ProbeRecord>> = (0..n).map(|_| Vec::new()).collect();

    let ResolverState {
        l3,
        placed_cur,
        placed_prev,
        victim_seen,
        inval_seen,
        scratch,
        tallies,
        ..
    } = rs;
    victim_seen.clear();
    for (ci, out) in outs.into_iter().enumerate() {
        let tally = &mut tallies[ci];
        tally.l3_requests += out.requests.len() as u64;
        let probes = &mut probes_out[ci];
        for req in &out.requests {
            let access = req.access;
            let mut bypass = BypassSet::none();
            if req.bypass_l3 && !l3.contains(l3_sid, access.addr) {
                bypass.insert(l3_sid);
            }
            let res = l3.access_with_events(access, &bypass, scratch);
            let line = access.addr & !(ctx.l3_block_bytes - 1);
            // Classify before absorbing this request's own events: the
            // rescue window must not include the fill this very request
            // just caused.
            let outcome = if res.bypassed > 0 {
                L3Outcome::Bypassed
            } else if req.bypass_l3 {
                if placed_cur.contains(&line) || placed_prev.contains(&line) {
                    L3Outcome::Rescued
                } else {
                    L3Outcome::Unsound
                }
            } else if res.misses == 0 {
                L3Outcome::Hit
            } else {
                L3Outcome::Miss
            };
            tally.cycles += res.latency;
            match outcome {
                L3Outcome::Hit => tally.l3_hits += 1,
                L3Outcome::Miss => tally.l3_misses += 1,
                L3Outcome::Bypassed => tally.l3_bypasses += 1,
                L3Outcome::Rescued => {
                    tally.stale_bypass_rescues += 1;
                    tally.l3_hits += 1;
                }
                L3Outcome::Unsound => {
                    tally.unsound_verdicts += 1;
                    tally.l3_hits += 1;
                }
            }
            obs.l3_resolution(ci, access, outcome);
            for ev in scratch.events() {
                global_events.push(CacheEvent { structure: ctx.l3_template_id, ..*ev });
                match ev.kind {
                    EventKind::Placed => {
                        placed_cur.insert(ev.block_base);
                    }
                    EventKind::Replaced => {
                        if victim_seen.insert(ev.block_base) {
                            victims.push(ev.block_base);
                        }
                    }
                    EventKind::Invalidated => {}
                }
            }
            for p in scratch.probes() {
                probes.push(ProbeRecord { structure: ctx.l3_template_id, ..*p });
            }
        }
        tally.store_lines_published += out.stores.len() as u64;
        store_pub.push(out.stores);
    }

    // Package per-core results: L3 victims invalidate every core's
    // private copies; store lines invalidate every *other* core's.
    let events = Arc::new(global_events);
    let msgs = (0..n)
        .map(|ci| {
            inval_seen.clear();
            let mut invals: Vec<u64> = Vec::new();
            for &v in &victims {
                if inval_seen.insert(v) {
                    invals.push(v);
                }
            }
            for (cj, lines) in store_pub.iter().enumerate() {
                if cj == ci {
                    continue;
                }
                for &l in lines {
                    if inval_seen.insert(l) {
                        invals.push(l);
                    }
                }
            }
            ResolvedMsg {
                invals,
                events: events.clone(),
                probes: std::mem::take(&mut probes_out[ci]),
            }
        })
        .collect();
    rs.resolve_nanos += elapsed_nanos(t0);
    msgs
}
