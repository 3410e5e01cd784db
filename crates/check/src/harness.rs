//! The differential replay harness.
//!
//! [`check_ops`] drives an op stream through three models in lockstep:
//!
//! 1. the real [`Hierarchy`] with the filter-under-test supplying bypass
//!    sets,
//! 2. the independent [`RefModel`](crate::reference::RefModel), which
//!    always probes everything, and
//! 3. a per-structure live-block ledger folded from the hierarchy's
//!    placement/replacement event stream.
//!
//! Per access it asserts the paper's one-sided contract (§3.6): every
//! structure the filter flags as a *definite miss* must actually not hold
//! the block — in the hierarchy **and** in the reference model — before
//! the access is driven. Per event it asserts block conservation (every
//! placement is new, every replacement was live). Periodically and at the
//! end it reconciles `HierarchyStats` and full residency against the
//! reference. The first violation stops the replay; the harness never
//! lets an unsound bypass reach the hierarchy (which would abort debug
//! builds via its own assertion before the violation could be reported).

use std::collections::HashSet;

use cache_sim::{AccessFilter, EventKind, Hierarchy, ReplayScratch};

use crate::generate::Op;
use crate::reference::RefModel;

/// Residency and stats are fully reconciled every this many accesses (and
/// once more at the end of the stream).
const FULL_AUDIT_PERIOD: u64 = 1024;

/// What kind of invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A "definite miss" flag on a structure that holds the block.
    UnsoundFlag,
    /// The event stream placed a live block or replaced a dead one.
    Conservation,
    /// Hierarchy and reference model disagree on resident blocks.
    ResidencyDivergence,
    /// `HierarchyStats` does not reconcile with the reference counters.
    StatsDivergence,
    /// Hierarchy and reference model disagree on the supplying level.
    SupplyDivergence,
}

/// One invariant violation, pinned to the op that exposed it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index into the op stream.
    pub index: usize,
    /// Invariant class.
    pub kind: ViolationKind,
    /// Human-readable description with structure names and addresses.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op {}: {:?}: {}", self.index, self.kind, self.detail)
    }
}

/// Work counters of one checked replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckCounters {
    /// Accesses driven.
    pub accesses: u64,
    /// Full-system flushes executed.
    pub flushes: u64,
    /// Structure flags validated against actual contents.
    pub flags: u64,
    /// Accesses with at least one flagged structure.
    pub flagged_accesses: u64,
    /// Full residency/stats reconciliations performed.
    pub audits: u64,
}

/// Replay `ops` through `hierarchy` with `filter`, checking every
/// invariant. Returns the work counters and the first violation, if any.
///
/// The hierarchy must be fresh (empty caches, zero stats) and must use
/// `Lru`/`Fifo` replacement and the non-inclusive fill policy — the
/// invariants are stated against that regime.
pub fn check_ops<F: AccessFilter + ?Sized>(
    ops: &[Op],
    hierarchy: &mut Hierarchy,
    filter: &mut F,
) -> (CheckCounters, Option<Violation>) {
    let mut refm = RefModel::new(hierarchy).expect("checker requires Lru/Fifo replacement");
    let mut scratch = ReplayScratch::new();
    let num_structs = hierarchy.structures().len();
    let mut live: Vec<HashSet<u64>> = vec![HashSet::new(); num_structs];
    let mut ev_fills = vec![0u64; num_structs];
    let mut ev_evictions = vec![0u64; num_structs];
    let mut ev_invalidations = vec![0u64; num_structs];
    let mut counters = CheckCounters::default();

    for (index, op) in ops.iter().enumerate() {
        let fail = |kind, detail| Some(Violation { index, kind, detail });
        match *op {
            Op::Flush => {
                // The combined step: caches and filter state clear
                // together (the satellite invariant of this checker).
                // Flushed blocks leave no Replaced events, so the event
                // ledger restarts alongside the (also reset) stats.
                filter.flush_system(hierarchy);
                refm.flush();
                for set in &mut live {
                    set.clear();
                }
                ev_fills.fill(0);
                ev_evictions.fill(0);
                ev_invalidations.fill(0);
                counters.flushes += 1;
            }
            Op::Access(access) => {
                counters.accesses += 1;
                let bypass = filter.query(hierarchy, access);

                // (a) One-sided soundness, checked before the access can
                // perturb anything. Only flags the hierarchy would act on
                // count: on-path structures beyond L1.
                let mut flags = 0u64;
                for &sid in hierarchy.path(access.kind) {
                    if hierarchy.structures()[sid.index()].level < 2 || !bypass.contains(sid) {
                        continue;
                    }
                    flags += 1;
                    let name = &hierarchy.structures()[sid.index()].name;
                    if hierarchy.contains(sid, access.addr) {
                        return (
                            counters,
                            fail(
                                ViolationKind::UnsoundFlag,
                                format!(
                                    "{name} holds {:#x} but was flagged a definite miss",
                                    access.addr
                                ),
                            ),
                        );
                    }
                    if refm.contains(sid, access.addr) {
                        return (
                            counters,
                            fail(
                                ViolationKind::UnsoundFlag,
                                format!(
                                    "reference model holds {:#x} in {name} (hierarchy does \
                                     not): residency already diverged",
                                    access.addr
                                ),
                            ),
                        );
                    }
                }
                counters.flags += flags;
                if flags > 0 {
                    counters.flagged_accesses += 1;
                }

                let result = hierarchy.access_with_events(access, &bypass, &mut scratch);

                // (b) Block conservation over the event stream.
                for ev in scratch.events() {
                    let idx = ev.structure.index();
                    let name = &hierarchy.structures()[idx].name;
                    match ev.kind {
                        EventKind::Placed => {
                            ev_fills[idx] += 1;
                            if !live[idx].insert(ev.block_base) {
                                return (
                                    counters,
                                    fail(
                                        ViolationKind::Conservation,
                                        format!(
                                            "{name}: block {:#x} placed while already live",
                                            ev.block_base
                                        ),
                                    ),
                                );
                            }
                        }
                        EventKind::Replaced | EventKind::Invalidated => {
                            if ev.kind == EventKind::Replaced {
                                ev_evictions[idx] += 1;
                            } else {
                                ev_invalidations[idx] += 1;
                            }
                            if !live[idx].remove(&ev.block_base) {
                                return (
                                    counters,
                                    fail(
                                        ViolationKind::Conservation,
                                        format!(
                                            "{name}: block {:#x} removed but never placed",
                                            ev.block_base
                                        ),
                                    ),
                                );
                            }
                        }
                    }
                }

                filter.observe_events(hierarchy, scratch.events());
                filter.note_probes(access, scratch.probes());

                // (c) Reference model lockstep.
                let ref_supply = refm.access(access);
                if ref_supply != result.supply_level {
                    return (
                        counters,
                        fail(
                            ViolationKind::SupplyDivergence,
                            format!(
                                "access {:#x}: hierarchy supplied from level {}, reference \
                                 from level {ref_supply}",
                                access.addr, result.supply_level
                            ),
                        ),
                    );
                }

                if counters.accesses % FULL_AUDIT_PERIOD == 0 {
                    counters.audits += 1;
                    if let Some(v) =
                        audit(hierarchy, &refm, &live, &ev_fills, &ev_evictions, &ev_invalidations)
                    {
                        return (counters, Some(Violation { index, ..v }));
                    }
                }
            }
        }
    }

    counters.audits += 1;
    let last = ops.len().saturating_sub(1);
    let end_violation = audit(hierarchy, &refm, &live, &ev_fills, &ev_evictions, &ev_invalidations)
        .map(|v| Violation { index: last, ..v });
    (counters, end_violation)
}

/// Full reconciliation: residency equality (hierarchy vs event ledger vs
/// reference) and counter identities per structure. Returns the first
/// discrepancy with a placeholder index of 0 (the caller pins it).
fn audit(
    hierarchy: &Hierarchy,
    refm: &RefModel,
    live: &[HashSet<u64>],
    ev_fills: &[u64],
    ev_evictions: &[u64],
    ev_invalidations: &[u64],
) -> Option<Violation> {
    let fail = |kind, detail| Some(Violation { index: 0, kind, detail });
    for info in hierarchy.structures() {
        let idx = info.id.index();
        let name = &info.name;
        let st = hierarchy.stats().structures[idx];
        let rc = refm.structure(idx);

        // Counter reconciliation: a sound bypass replaces exactly one
        // probe-and-miss, so probes shift between columns but their sum is
        // conserved, and fills/evictions are untouched.
        let checks: [(&str, u64, u64); 5] = [
            ("probes+bypasses", st.probes + st.bypasses, rc.probes),
            ("hits", st.hits, rc.hits),
            ("misses+bypasses", st.misses + st.bypasses, rc.misses),
            ("fills", st.fills, rc.fills),
            ("evictions", st.evictions, rc.evictions),
        ];
        for (what, got, want) in checks {
            if got != want {
                return fail(
                    ViolationKind::StatsDivergence,
                    format!("{name}: {what} = {got}, reference says {want}"),
                );
            }
        }

        // Event-ledger identities: fills = evictions + invalidations +
        // live set, and the ledger agrees with the stats counters.
        if ev_fills[idx] != st.fills
            || ev_evictions[idx] != st.evictions
            || ev_invalidations[idx] != st.invalidations
        {
            return fail(
                ViolationKind::Conservation,
                format!(
                    "{name}: event stream saw {}/{}/{} fills/evictions/invalidations, \
                     stats say {}/{}/{}",
                    ev_fills[idx],
                    ev_evictions[idx],
                    ev_invalidations[idx],
                    st.fills,
                    st.evictions,
                    st.invalidations
                ),
            );
        }
        if ev_fills[idx] != ev_evictions[idx] + ev_invalidations[idx] + live[idx].len() as u64 {
            return fail(
                ViolationKind::Conservation,
                format!(
                    "{name}: fills ({}) != evictions ({}) + invalidations ({}) + live blocks ({})",
                    ev_fills[idx],
                    ev_evictions[idx],
                    ev_invalidations[idx],
                    live[idx].len()
                ),
            );
        }

        // Residency: hierarchy, event ledger, and reference must hold
        // exactly the same blocks.
        let mut main: Vec<u64> = hierarchy.cache(info.id).resident_blocks().collect();
        main.sort_unstable();
        let mut ledger: Vec<u64> = live[idx].iter().copied().collect();
        ledger.sort_unstable();
        if main != ledger {
            return fail(
                ViolationKind::Conservation,
                format!(
                    "{name}: event ledger tracks {} blocks, cache holds {}",
                    ledger.len(),
                    main.len()
                ),
            );
        }
        let reference = rc.resident();
        if main != reference {
            return fail(
                ViolationKind::ResidencyDivergence,
                format!("{name}: cache holds {} blocks, reference {}", main.len(), reference.len()),
            );
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::TraceGen;
    use cache_sim::{
        Access, BypassSet, CacheConfig, CacheEvent, HierarchyConfig, LevelConfig, ProbeRecord,
        StructureId,
    };
    use mnm_core::{Mnm, MnmConfig, ReplayFilter};

    fn tiny() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 128, 1, 32, 1),
                    data: CacheConfig::new("dl1", 128, 1, 32, 1),
                },
                LevelConfig::Unified(CacheConfig::new("ul2", 512, 2, 32, 8)),
                LevelConfig::Unified(CacheConfig::new("ul3", 2048, 4, 64, 18)),
            ],
            memory_latency: 100,
            inclusive: false,
        })
    }

    #[test]
    fn sound_filters_pass_every_generator() {
        for gen in TraceGen::ALL {
            let ops = gen.generate(11, 1500);
            let mut hier = tiny();
            let mut mnm = Mnm::new(&hier, MnmConfig::hmnm(4));
            let (counters, violation) = check_ops(&ops, &mut hier, &mut mnm);
            assert!(violation.is_none(), "{}: {}", gen.name(), violation.unwrap());
            assert!(counters.accesses > 0);
            assert!(counters.audits > 0);
        }
    }

    #[test]
    fn perfect_filter_passes_and_flags_aggressively() {
        let ops = TraceGen::Aliasing.generate(3, 2000);
        let mut hier = tiny();
        let (counters, violation) = check_ops(&ops, &mut hier, &mut ReplayFilter::Perfect);
        assert!(violation.is_none(), "{}", violation.unwrap());
        assert!(counters.flags > 0, "the oracle must flag misses in a thrashing arena");
    }

    /// A deliberately unsound filter: every k-th time a data access
    /// targets a block resident in the target structure, it flags that
    /// structure anyway — the exact lie the contract forbids.
    struct Evil {
        inner: Mnm,
        target: StructureId,
        every: u64,
        n: u64,
    }

    impl AccessFilter for Evil {
        fn query(&mut self, hierarchy: &Hierarchy, access: Access) -> BypassSet {
            let mut set = AccessFilter::query(&mut self.inner, hierarchy, access);
            if !access.kind.is_instruction() && hierarchy.contains(self.target, access.addr) {
                self.n += 1;
                if self.n.is_multiple_of(self.every) {
                    set.insert(self.target);
                }
            }
            set
        }

        fn observe_events(&mut self, hierarchy: &Hierarchy, events: &[CacheEvent]) {
            AccessFilter::observe_events(&mut self.inner, hierarchy, events);
        }

        fn note_probes(&mut self, access: Access, probes: &[ProbeRecord]) {
            AccessFilter::note_probes(&mut self.inner, access, probes);
        }

        fn flush_system(&mut self, hierarchy: &mut Hierarchy) {
            AccessFilter::flush_system(&mut self.inner, hierarchy);
        }
    }

    #[test]
    fn unsound_flags_are_caught_before_reaching_the_hierarchy() {
        let ops = TraceGen::Aliasing.generate(5, 400);
        let mut hier = tiny();
        let ul2 = hier.structures().iter().find(|s| s.name == "ul2").unwrap().id;
        let mut evil =
            Evil { inner: Mnm::new(&hier, MnmConfig::hmnm(1)), target: ul2, every: 7, n: 0 };
        let (_, violation) = check_ops(&ops, &mut hier, &mut evil);
        let v = violation.expect("the evil filter must be caught");
        assert_eq!(v.kind, ViolationKind::UnsoundFlag);
        assert!(v.detail.contains("ul2"), "{}", v.detail);
    }
}
