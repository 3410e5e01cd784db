//! Integration sweep: the one-sided soundness invariant for every filter
//! preset across all 20 named application profiles, plus the checker's
//! own acceptance test — a deliberately unsound filter must be caught
//! and shrunk to a tiny reproducer.
//!
//! Quick mode: trace lengths are sized so the whole sweep stays in the
//! normal `cargo test` budget; `jsn check --seeds 64` is the deep sweep.

use cache_sim::{Access, AccessFilter, BypassSet, CacheEvent, Hierarchy, ProbeRecord, StructureId};
use mnm_check::{
    check_ops, render_ops, shrink_ops, Scenario, TraceGen, ViolationKind, DEFAULT_FILTERS,
};
use mnm_core::{Mnm, MnmConfig};
use trace_synth::profiles;

/// Every filter preset, on every named profile: no definite-miss flag may
/// ever land on a resident block, the event stream must conserve blocks,
/// and the stats must reconcile with the reference model.
///
/// The profile generator picks the profile by `seed % 20`, so seeds
/// `0..20` enumerate all of them exactly once per filter.
#[test]
fn every_preset_is_sound_on_every_profile() {
    let num_profiles = profiles::names().len();
    assert_eq!(num_profiles, 20, "the paper models 20 applications");
    for filter in DEFAULT_FILTERS {
        for profile_idx in 0..num_profiles as u64 {
            let scenario = Scenario {
                filter: filter.to_owned(),
                gen: TraceGen::Profile,
                seed: profile_idx,
                len: 1200,
            };
            let report = mnm_check::run_scenario(&scenario).expect("labels are valid");
            assert!(
                report.passed(),
                "{filter} on profile #{profile_idx}:\n{}",
                report.render_failure()
            );
            assert!(report.counters.accesses > 0);
        }
    }
}

/// A wrapper that lies: every `period`-th time a data access targets a
/// block resident in the victim structure, it flags that structure as a
/// definite miss anyway. This is the checker's acceptance gate — the
/// injected unsoundness must be detected and shrink to a minimal
/// reproducer well under 32 accesses.
struct InjectedUnsound {
    inner: Mnm,
    target: StructureId,
    period: u64,
    lies_told: u64,
}

impl AccessFilter for InjectedUnsound {
    fn query(&mut self, hierarchy: &Hierarchy, access: Access) -> BypassSet {
        let mut set = AccessFilter::query(&mut self.inner, hierarchy, access);
        if !access.kind.is_instruction() && hierarchy.contains(self.target, access.addr) {
            self.lies_told += 1;
            if self.lies_told.is_multiple_of(self.period) {
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
fn injected_unsound_filter_is_caught_and_shrinks_small() {
    let scenario =
        Scenario { filter: "HMNM2".to_owned(), gen: TraceGen::Aliasing, seed: 0x5EED, len: 2000 };
    let ops = scenario.gen.generate(scenario.seed, scenario.len);

    let build = |hier: &Hierarchy| {
        let target = hier.structures().iter().find(|s| s.name == "ul2").unwrap().id;
        InjectedUnsound {
            inner: Mnm::new(hier, MnmConfig::parse("HMNM2").unwrap()),
            target,
            period: 5,
            lies_told: 0,
        }
    };

    let mut hier = scenario.hierarchy();
    let mut evil = build(&hier);
    let (_, violation) = check_ops(&ops, &mut hier, &mut evil);
    let violation = violation.expect("the injected unsoundness must be detected");
    assert_eq!(violation.kind, ViolationKind::UnsoundFlag);
    assert!(violation.detail.contains("ul2"), "{}", violation.detail);

    let shrunk = shrink_ops(&ops, |candidate| {
        let mut h = scenario.hierarchy();
        let mut f = build(&h);
        check_ops(candidate, &mut h, &mut f).1.is_some()
    });
    assert!(
        shrunk.len() <= 32,
        "reproducer must be minimal, got {} ops:\n{}",
        shrunk.len(),
        render_ops(&shrunk)
    );
    // 1-minimality: the shrunk stream still fails, and replaying it
    // reproduces the same violation class.
    let mut h = scenario.hierarchy();
    let mut f = build(&h);
    let (_, v) = check_ops(&shrunk, &mut h, &mut f);
    assert_eq!(v.expect("shrunk trace still fails").kind, ViolationKind::UnsoundFlag);
}

/// The combined-flush invariant end to end: a checked flush-heavy replay
/// passes (caches and filter clear together), while flushing only the
/// hierarchy mid-trace — the bug class `Mnm::flush_system` exists to
/// prevent — is flagged as unsound by the checker.
#[test]
fn hierarchy_only_flush_is_caught_as_unsound() {
    /// Routes `flush_system` to the *filter only*, leaving the caches
    /// warm: the filter goes cold and starts flagging resident blocks.
    struct FilterOnlyFlush(Mnm);

    impl AccessFilter for FilterOnlyFlush {
        fn query(&mut self, hierarchy: &Hierarchy, access: Access) -> BypassSet {
            AccessFilter::query(&mut self.0, hierarchy, access)
        }

        fn observe_events(&mut self, hierarchy: &Hierarchy, events: &[CacheEvent]) {
            AccessFilter::observe_events(&mut self.0, hierarchy, events);
        }

        fn note_probes(&mut self, access: Access, probes: &[ProbeRecord]) {
            AccessFilter::note_probes(&mut self.0, access, probes);
        }

        fn flush_system(&mut self, _hierarchy: &mut Hierarchy) {
            self.0.flush();
        }
    }

    let scenario =
        Scenario { filter: "CMNM_8_12".to_owned(), gen: TraceGen::FlushHeavy, seed: 7, len: 3000 };
    let ops = scenario.gen.generate(scenario.seed, scenario.len);

    // Correctly combined flush: sound.
    let mut hier = scenario.hierarchy();
    let mut mnm = Mnm::new(&hier, MnmConfig::parse("CMNM_8_12").unwrap());
    let (counters, violation) = check_ops(&ops, &mut hier, &mut mnm);
    assert!(violation.is_none(), "{}", violation.unwrap());
    assert!(counters.flushes > 0, "the flush generator must actually flush");

    // Desynchronized flush: the checker convicts the filter within a few
    // ops of the first flush. The exact symptom depends on the trace —
    // a cold filter flagging a still-resident block, the warm caches
    // diverging from the flushed reference model, or a warm cache
    // evicting a block the restarted event ledger never saw placed.
    let mut hier = scenario.hierarchy();
    let mut broken = FilterOnlyFlush(Mnm::new(&hier, MnmConfig::parse("CMNM_8_12").unwrap()));
    let (counters, violation) = check_ops(&ops, &mut hier, &mut broken);
    let v = violation.expect("a filter-only flush must be caught");
    assert!(counters.flushes >= 1, "detection must follow a flush, not precede one: {v}");
}
