//! The differential replay harness.
//!
//! [`check_ops`] replays an op stream through the production replay loop,
//! [`Hierarchy::step`], with the filter under test wrapped in a checking
//! adapter that is itself an [`AccessFilter`]. Three models run in
//! lockstep:
//!
//! 1. the real [`Hierarchy`], stepped exactly as every replay driver
//!    steps it,
//! 2. the independent [`RefModel`], which
//!    always probes everything, and
//! 3. a `Ledger` (`ledger.rs`) folded from the hierarchy's event stream.
//!
//! The adapter's `query` asserts the paper's one-sided contract (§3.6)
//! before the hierarchy acts on it: no on-path structure beyond L1 that
//! the filter flags as a *definite miss* may hold the block — in the
//! hierarchy, the reference model, or the ledger. It records the first
//! unsound flag and strips it, so an unsound bypass never reaches the
//! hierarchy (whose own debug assertion would abort before the violation
//! could be reported). Its `observe_events` applies the ledger — block
//! conservation and the frame contract — before forwarding the events.
//! After each step the supplying level is compared with the reference;
//! periodically and at the end `HierarchyStats`, the ledger and full
//! residency are reconciled against the reference. The first violation
//! stops the replay.

use cache_sim::{Access, AccessFilter, BypassSet, CacheEvent, Hierarchy, ProbeRecord, StructureId};

use crate::generate::Op;
use crate::ledger::Ledger;
use crate::reference::RefModel;

/// Residency and stats are fully reconciled every this many accesses (and
/// once more at the end of the stream).
const FULL_AUDIT_PERIOD: u64 = 1024;

/// What kind of invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A "definite miss" flag on a structure that holds the block.
    UnsoundFlag,
    /// The event stream placed a live block or replaced a dead one, or
    /// broke the frame contract.
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

/// The on-path structures beyond L1 that `bypass` flags for `access`:
/// exactly the flags a hierarchy shaped like `hierarchy` acts on.
pub(crate) fn flagged(
    hierarchy: &Hierarchy,
    access: Access,
    bypass: BypassSet,
) -> impl Iterator<Item = StructureId> + '_ {
    hierarchy
        .path(access.kind)
        .iter()
        .copied()
        .filter(move |&sid| hierarchy.structures()[sid.index()].level >= 2 && bypass.contains(sid))
}

/// A violation not yet pinned to an op.
type Found = (ViolationKind, String);

/// The checking adapter: `filter` plus the models it is checked against.
struct Checked<'f, F: ?Sized> {
    filter: &'f mut F,
    refm: RefModel,
    ledger: Ledger,
    counters: CheckCounters,
    violation: Option<Found>,
}

impl<F: AccessFilter + ?Sized> AccessFilter for Checked<'_, F> {
    fn query(&mut self, hierarchy: &Hierarchy, access: Access) -> BypassSet {
        let proposed = self.filter.query(hierarchy, access);
        let mut sound = BypassSet::none();
        let mut flags = 0u64;
        for sid in flagged(hierarchy, access, proposed) {
            flags += 1;
            let name = &hierarchy.structures()[sid.index()].name;
            let addr = access.addr;
            let holder = if hierarchy.contains(sid, addr) {
                format!("{name} holds {addr:#x} but was flagged a definite miss")
            } else if self.refm.contains(sid, addr) {
                format!(
                    "reference model holds {addr:#x} in {name} (hierarchy does not): \
                     residency already diverged"
                )
            } else if self.ledger.holds(sid, addr) {
                format!("event ledger holds {addr:#x} in {name} (hierarchy does not)")
            } else {
                sound.insert(sid);
                continue;
            };
            self.violation.get_or_insert((ViolationKind::UnsoundFlag, holder));
        }
        if self.violation.is_none() {
            self.counters.flags += flags;
            self.counters.flagged_accesses += u64::from(flags > 0);
        }
        sound
    }

    fn observe_events(&mut self, hierarchy: &Hierarchy, events: &[CacheEvent]) {
        if let Err(detail) = self.ledger.apply(events) {
            self.violation.get_or_insert((ViolationKind::Conservation, detail));
        }
        self.filter.observe_events(hierarchy, events);
    }

    fn note_probes(&mut self, access: Access, probes: &[ProbeRecord]) {
        self.filter.note_probes(access, probes);
    }

    /// Caches and filter state clear together (the satellite invariant of
    /// this checker). Flushed blocks leave no events, so the ledger and
    /// the reference restart alongside the (also reset) stats.
    fn flush_system(&mut self, hierarchy: &mut Hierarchy) {
        self.filter.flush_system(hierarchy);
        self.refm.flush();
        self.ledger.clear();
        self.counters.flushes += 1;
    }
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
    let mut checked = Checked {
        refm: RefModel::new(hierarchy).expect("checker requires Lru/Fifo replacement"),
        ledger: Ledger::new(hierarchy),
        filter,
        counters: CheckCounters::default(),
        violation: None,
    };
    for (index, op) in ops.iter().enumerate() {
        match *op {
            Op::Flush => checked.flush_system(hierarchy),
            Op::Access(access) => {
                checked.counters.accesses += 1;
                let supply = hierarchy.step(&mut checked, access).supply_level;
                let ref_supply = checked.refm.access(access);
                if supply != ref_supply {
                    checked.violation.get_or_insert((
                        ViolationKind::SupplyDivergence,
                        format!(
                            "access {:#x}: hierarchy supplied from level {supply}, reference \
                             from level {ref_supply}",
                            access.addr
                        ),
                    ));
                }
                if checked.violation.is_none()
                    && checked.counters.accesses.is_multiple_of(FULL_AUDIT_PERIOD)
                {
                    checked.counters.audits += 1;
                    checked.violation = audit(hierarchy, &checked.refm, &checked.ledger).err();
                }
            }
        }
        if let Some((kind, detail)) = checked.violation {
            return (checked.counters, Some(Violation { index, kind, detail }));
        }
    }

    checked.counters.audits += 1;
    let index = ops.len().saturating_sub(1);
    let end = audit(hierarchy, &checked.refm, &checked.ledger).err();
    (checked.counters, end.map(|(kind, detail)| Violation { index, kind, detail }))
}

/// Full reconciliation: the ledger against the stats, then per structure
/// the stats against the reference counters and residency across
/// hierarchy, ledger and reference.
fn audit(hierarchy: &Hierarchy, refm: &RefModel, ledger: &Ledger) -> Result<(), Found> {
    ledger.reconcile(hierarchy.stats()).map_err(|d| (ViolationKind::Conservation, d))?;
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
                return Err((
                    ViolationKind::StatsDivergence,
                    format!("{name}: {what} = {got}, reference says {want}"),
                ));
            }
        }

        // Residency: hierarchy, ledger, and reference must hold exactly
        // the same blocks.
        let mut main: Vec<u64> = hierarchy.cache(info.id).resident_blocks().collect();
        main.sort_unstable();
        let tracked = ledger.blocks(info.id);
        if main != tracked {
            return Err((
                ViolationKind::Conservation,
                format!(
                    "{name}: event ledger tracks {} blocks, cache holds {}",
                    tracked.len(),
                    main.len()
                ),
            ));
        }
        let reference = rc.resident();
        if main != reference {
            return Err((
                ViolationKind::ResidencyDivergence,
                format!("{name}: cache holds {} blocks, reference {}", main.len(), reference.len()),
            ));
        }
    }
    Ok(())
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
