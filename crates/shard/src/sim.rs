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
//!   global L3 event list, probe records, per-core counter deltas) are
//!   applied at the start of epoch **E+2**, the first epoch that begins
//!   after the resolution is guaranteed complete.
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
//! Two drivers execute the identical schedule and must produce
//! bit-identical [`ShardReport`]s (asserted in tests, the
//! `shard_scaling` bench, and CI):
//!
//! * [`Engine::Pipelined`] (the default, [`ShardedSim::run`]) — one host
//!   thread per core plus a dedicated resolver thread. Each core hands
//!   off over two bounded `std::sync::mpsc` channels: an outbox (epoch
//!   requests + published store lines) and an inbox (resolution
//!   results). Cores never touch a shared lock.
//! * [`Engine::Single`] ([`ShardedSim::run_single_threaded`]) — the
//!   whole schedule on the calling thread; the reference execution and
//!   the only driver that invokes a [`ShardObserver`].
//!
//! ### Why the handoff channels never fill
//!
//! A core entering epoch E+2 blocks until resolution of epoch E arrives
//! in its inbox, so a core can run at most ~1.5 epochs ahead of the
//! resolver; symmetrically the resolver blocks on each core's outbox.
//! Per direction at most two messages are ever in flight, so a channel
//! of `HANDOFF_DEPTH` slots never blocks a sender. The resolver ends
//! the run by dropping its inbox senders; a thread that panics drops
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
    Access, AccessKind, BypassSet, CacheEvent, EventKind, Hierarchy, ProbeRecord, ReplayScratch,
    StructureId,
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

impl OutMsg {
    fn empty() -> Self {
        OutMsg { requests: Vec::new(), stores: Vec::new(), exhausted: true }
    }

    fn is_empty(&self) -> bool {
        self.requests.is_empty() && self.stores.is_empty()
    }
}

/// Per-core counter deltas accumulated by the resolver; folded into the
/// core's own [`CoreReport`] when the core applies the resolution (the
/// resolver never touches core-owned state).
#[derive(Debug, Clone, Copy, Default)]
struct ResolveDelta {
    l3_requests: u64,
    l3_hits: u64,
    l3_misses: u64,
    l3_bypasses: u64,
    stale_bypass_rescues: u64,
    unsound_verdicts: u64,
    cycles: u64,
    store_lines_published: u64,
}

impl ResolveDelta {
    fn is_zero(&self) -> bool {
        self.l3_requests == 0
            && self.l3_hits == 0
            && self.l3_misses == 0
            && self.l3_bypasses == 0
            && self.stale_bypass_rescues == 0
            && self.unsound_verdicts == 0
            && self.cycles == 0
            && self.store_lines_published == 0
    }
}

/// One resolution round's results for one core (resolver → core).
struct ResolvedMsg {
    /// Coherence invalidations: L3 victims (every core) then other
    /// cores' store lines, deduplicated, in deterministic order.
    invals: Vec<u64>,
    /// The global L3 event list — identical for every core, so per-core
    /// shared-slot filter state stays identical everywhere.
    events: Arc<Vec<CacheEvent>>,
    /// This core's L3 probe records for coverage accounting.
    probes: Vec<ProbeRecord>,
    /// Counter deltas this core folds into its report.
    delta: ResolveDelta,
}

impl ResolvedMsg {
    fn prime() -> Self {
        ResolvedMsg {
            invals: Vec::new(),
            events: Arc::new(Vec::new()),
            probes: Vec::new(),
            delta: ResolveDelta::default(),
        }
    }

    fn is_empty(&self) -> bool {
        self.invals.is_empty()
            && self.events.is_empty()
            && self.probes.is_empty()
            && self.delta.is_zero()
    }
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
    pending: Vec<L3Request>,
    store_lines: Vec<u64>,
    store_seen: LineSet,
    report: CoreReport,
    scratch: ReplayScratch,
    ev_buf: Vec<CacheEvent>,
    /// Nanoseconds this core spent computing epochs + applying inboxes.
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
    /// Rounds executed — the number of epochs the schedule ran.
    rounds: u64,
    /// Nanoseconds spent inside [`resolve_round`].
    resolve_nanos: u64,
}

/// Immutable per-run facts threaded through the drivers.
#[derive(Clone, Copy)]
struct Ctx {
    l3_template_id: StructureId,
    private_memory_level: u8,
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
    timing: ShardTiming,
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
                pending: Vec::new(),
                store_lines: Vec::new(),
                store_seen: LineSet::default(),
                report: CoreReport::default(),
                scratch: ReplayScratch::new(),
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
            rounds: 0,
            resolve_nanos: 0,
        };
        let ctx = Ctx {
            l3_template_id,
            private_memory_level: Hierarchy::new(private_cfg).memory_level(),
            l3_block_bytes: config.l3.block_bytes,
            min_private_block,
            epoch: config.epoch,
        };
        ShardedSim { config, cores, resolver, ctx, timing: ShardTiming::default() }
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
        let n = self.cores.len();
        let mut inbox: Vec<Option<ResolvedMsg>> = (0..n).map(|_| None).collect();
        let mut prev_outs: Vec<OutMsg> = (0..n).map(|_| OutMsg::empty()).collect();
        let mut compute_nanos = 0u64;
        loop {
            self.resolver.rounds += 1;
            // Epoch start: the frozen view advances past the resolution
            // round being applied (if any) — tell the observer first so
            // its ledger matches the filters when verdicts are checked.
            if let Some(msg) = inbox.iter().flatten().next() {
                obs.l3_events(&msg.events);
            }
            let t0 = Instant::now();
            let mut cur_outs = Vec::with_capacity(n);
            for (ci, core) in self.cores.iter_mut().enumerate() {
                if let Some(msg) = inbox[ci].take() {
                    apply_inbox(ctx, core, &msg, obs);
                }
                cur_outs.push(run_epoch_compute(ctx, core, obs));
            }
            compute_nanos += elapsed_nanos(t0);
            let outs = std::mem::replace(&mut prev_outs, cur_outs);
            let msgs = resolve_round(ctx, outs, &mut self.resolver, obs);
            let done = prev_outs.iter().all(|o| o.exhausted && o.is_empty())
                && msgs.iter().all(ResolvedMsg::is_empty);
            for (ci, m) in msgs.into_iter().enumerate() {
                inbox[ci] = Some(m);
            }
            if done {
                break;
            }
        }
        self.timing = ShardTiming {
            engine: Engine::Single.label().to_owned(),
            wall_nanos: elapsed_nanos(wall),
            compute_nanos,
            resolve_nanos: self.resolver.resolve_nanos,
            stall_nanos: 0,
        };
        self.build_report()
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
        let cores = &mut self.cores;
        let resolver = &mut self.resolver;
        std::thread::scope(|scope| {
            for ((core, outbox), inbox) in cores.iter_mut().zip(out_tx).zip(in_rx) {
                scope.spawn(move || {
                    let mut noop = NoopObserver;
                    // Epoch 0 primes the pipeline: no results exist yet.
                    let t0 = Instant::now();
                    let out = run_epoch_compute(ctx, core, &mut noop);
                    core.compute_nanos += elapsed_nanos(t0);
                    if outbox.send(out).is_err() {
                        return;
                    }
                    loop {
                        let t1 = Instant::now();
                        let msg = inbox.recv();
                        core.stall_nanos += elapsed_nanos(t1);
                        // Disconnected: the resolver finished the run
                        // (or panicked).
                        let Ok(msg) = msg else { break };
                        let t2 = Instant::now();
                        apply_inbox(ctx, core, &msg, &mut noop);
                        let out = run_epoch_compute(ctx, core, &mut noop);
                        core.compute_nanos += elapsed_nanos(t2);
                        if outbox.send(out).is_err() {
                            break;
                        }
                    }
                });
            }
            scope.spawn(move || {
                let mut noop = NoopObserver;
                // Prime each core with an empty round-(-1) result so
                // epoch 1 starts without waiting on resolution of epoch 0
                // — that is the pipeline.
                for inbox in &in_tx {
                    if inbox.send(ResolvedMsg::prime()).is_err() {
                        return;
                    }
                }
                let mut prev_empty = true;
                loop {
                    // Disconnected: a core panicked; returning drops the
                    // inbox senders so the other cores stop too.
                    let Ok(outs) = out_rx.iter().map(Receiver::recv).collect::<Result<Vec<_>, _>>()
                    else {
                        return;
                    };
                    resolver.rounds += 1;
                    if prev_empty && outs.iter().all(|o| o.exhausted && o.is_empty()) {
                        // Dropping `in_tx` on return ends every core loop.
                        return;
                    }
                    let msgs = resolve_round(ctx, outs, resolver, &mut noop);
                    prev_empty = msgs.iter().all(ResolvedMsg::is_empty);
                    for (inbox, m) in in_tx.iter().zip(msgs) {
                        if inbox.send(m).is_err() {
                            return;
                        }
                    }
                }
            });
        });
        self.timing = ShardTiming {
            engine: Engine::Pipelined.label().to_owned(),
            wall_nanos: elapsed_nanos(wall),
            compute_nanos: self.cores.iter().map(|c| c.compute_nanos).sum(),
            resolve_nanos: self.resolver.resolve_nanos,
            stall_nanos: self.cores.iter().map(|c| c.stall_nanos).sum(),
        };
        self.build_report()
    }

    fn build_report(&self) -> ShardReport {
        let cores = self
            .cores
            .iter()
            .map(|core| {
                let mut r = core.report.clone();
                r.private = core.hier.stats().clone();
                r.mnm = core.mnm.stats().clone();
                r
            })
            .collect();
        ShardReport {
            cores,
            l3: self.resolver.l3.stats().clone(),
            epochs: self.resolver.rounds,
            timing: self.timing.clone(),
        }
    }
}

fn elapsed_nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Apply one resolution round's results to a core: coherence
/// invalidations first (they reflect resolution-time state and must land
/// before any new access queries the filters), then the global shared-L3
/// event list and this core's probe records in one batched filter
/// refresh, then the resolver's counter deltas.
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
    let d = &msg.delta;
    core.report.l3_requests += d.l3_requests;
    core.report.l3_hits += d.l3_hits;
    core.report.l3_misses += d.l3_misses;
    core.report.l3_bypasses += d.l3_bypasses;
    core.report.stale_bypass_rescues += d.stale_bypass_rescues;
    core.report.unsound_verdicts += d.unsound_verdicts;
    core.report.cycles += d.cycles;
    core.report.store_lines_published += d.store_lines_published;
}

/// One core's compute phase: run up to `ctx.epoch` accesses on private
/// state, queuing shared-L3 requests and published store lines into the
/// epoch's outbox.
fn run_epoch_compute(ctx: Ctx, core: &mut CoreState, obs: &mut dyn ShardObserver) -> OutMsg {
    for _ in 0..ctx.epoch {
        let Some(&access) = core.stream.get(core.pos) else {
            break;
        };
        core.pos += 1;
        let verdict = core.mnm.query(access);
        obs.verdict(core.id, access, verdict);
        let res = core.hier.access_with_events(access, &verdict, &mut core.scratch);
        core.mnm.observe_events(core.scratch.events());
        core.mnm.note_probes(core.scratch.probes());
        obs.private_step(core.id, access, core.scratch.events());
        core.report.accesses += 1;
        core.report.cycles += res.latency;
        if access.kind == AccessKind::Store {
            let line = access.addr & !(ctx.l3_block_bytes - 1);
            if core.store_seen.insert(line) {
                core.store_lines.push(line);
            }
        }
        if res.supply_level == ctx.private_memory_level {
            core.pending
                .push(L3Request { access, bypass_l3: verdict.contains(ctx.l3_template_id) });
        }
    }
    core.store_seen.clear();
    OutMsg {
        requests: std::mem::take(&mut core.pending),
        stores: std::mem::take(&mut core.store_lines),
        exhausted: core.pos >= core.stream.len(),
    }
}

/// The serial resolution phase: resolve every queued L3 request in
/// core-major program order — each request sees every earlier request's
/// fills — then package per-core results (invalidations, the global event list, probe records, counter
/// deltas) for application two epochs after the requests were issued.
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
    let mut deltas: Vec<ResolveDelta> = vec![ResolveDelta::default(); n];

    let ResolverState { l3, placed_cur, placed_prev, victim_seen, inval_seen, scratch, .. } = rs;
    victim_seen.clear();
    for (ci, out) in outs.into_iter().enumerate() {
        let delta = &mut deltas[ci];
        delta.l3_requests += out.requests.len() as u64;
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
            delta.cycles += res.latency;
            match outcome {
                L3Outcome::Hit => delta.l3_hits += 1,
                L3Outcome::Miss => delta.l3_misses += 1,
                L3Outcome::Bypassed => delta.l3_bypasses += 1,
                L3Outcome::Rescued => {
                    delta.stale_bypass_rescues += 1;
                    delta.l3_hits += 1;
                }
                L3Outcome::Unsound => {
                    delta.unsound_verdicts += 1;
                    delta.l3_hits += 1;
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
        deltas[ci].store_lines_published += out.stores.len() as u64;
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
                delta: deltas[ci],
            }
        })
        .collect();
    rs.resolve_nanos += elapsed_nanos(t0);
    msgs
}
