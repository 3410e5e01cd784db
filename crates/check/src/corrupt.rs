//! Filter-state corruption: proving the checker catches soft errors.
//!
//! The fault layer (`mnm_experiments::faults`, `JSN_FAULT` with a `flip`
//! clause) asks this module to flip one bit of MNM filter state mid-trace.
//! The point is *adversarial validation of the checker itself*: a flipped
//! counter or flip-flop makes the filter lie about a resident block, and
//! the harness must report that lie as an [`UnsoundFlag`] violation with a
//! shrunk reproducer — before the bypass can reach the hierarchy.
//!
//! The corrupting flip is found by *guided search*, not blind fuzzing:
//! replay the trace prefix, then — per filter component on the data path —
//! iterate resident blocks of the guarded structure and flip exactly the
//! state bit guarding each one (`Mnm::state_bit_of`). For the SMNM a
//! guarding flip-flop always lies immediately; for TMNM/CMNM/Bloom it lies
//! whenever the counter is 1, which a handful of candidate blocks makes
//! near-certain. A blind-flip fallback covers anything the guided pass
//! misses. The whole search is a pure function of the scenario and the
//! plan's seed, so a failing run replays exactly.
//!
//! [`UnsoundFlag`]: crate::harness::ViolationKind::UnsoundFlag

use cache_sim::{Access, AccessFilter, AccessKind, BypassSet, CacheEvent, Hierarchy, ProbeRecord};
use mnm_core::{FilterPreset, Mnm, ReplayFilter};

use trace_synth::rng::splitmix64;

use crate::generate::Op;
use crate::harness::check_ops;
use crate::shrink::shrink_ops;
use crate::{Scenario, ScenarioReport};

/// The fault-injection site of a scenario: `{filter}:{gen}:{seed}`.
pub fn scenario_site(s: &Scenario) -> String {
    format!("{}:{}:{:#x}", s.filter, s.gen.name(), s.seed)
}

/// One bit flip, scheduled by access count: after `after_accesses`
/// queries, flip `bit` of component `(slot, filter)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipSpec {
    /// Queries answered before the flip lands (the flip applies at the
    /// start of query number `after_accesses`, 0-based).
    pub after_accesses: u64,
    /// Slot index into the MNM's guarded structures.
    pub slot: usize,
    /// Component filter index within the slot.
    pub filter: usize,
    /// State bit to XOR.
    pub bit: u64,
}

/// An [`Mnm`] wrapper that applies a [`FlipSpec`] mid-replay — the
/// checker-side twin of a soft error in filter SRAM.
pub struct CorruptedMnm {
    inner: Box<Mnm>,
    spec: FlipSpec,
    seen: u64,
    applied: bool,
}

impl CorruptedMnm {
    /// Wrap `inner` with one scheduled flip.
    pub fn new(inner: Box<Mnm>, spec: FlipSpec) -> Self {
        CorruptedMnm { inner, spec, seen: 0, applied: false }
    }
}

impl AccessFilter for CorruptedMnm {
    fn query(&mut self, _hierarchy: &Hierarchy, access: Access) -> BypassSet {
        if !self.applied && self.seen == self.spec.after_accesses {
            self.applied = true;
            self.inner.flip_filter_bit(self.spec.slot, self.spec.filter, self.spec.bit);
        }
        self.seen += 1;
        self.inner.query(access)
    }

    fn observe_events(&mut self, _hierarchy: &Hierarchy, events: &[CacheEvent]) {
        self.inner.observe_events(events);
    }

    fn note_probes(&mut self, _access: Access, probes: &[ProbeRecord]) {
        self.inner.note_probes(probes);
    }

    fn flush_system(&mut self, hierarchy: &mut Hierarchy) {
        self.inner.flush_system(hierarchy);
    }
}

/// How many resident blocks each guided/fallback probe samples.
const GUIDED_BLOCKS_PER_COMPONENT: usize = 64;
const FALLBACK_TRIES: u64 = 512;
const FALLBACK_BLOCKS_PER_TRY: usize = 8;

/// Replay `prefix` and search for a bit flip that makes the filter lie
/// about a block then resident in a guarded data-path structure. Returns
/// the (reverted) flip plus the witness access that exposes it.
fn find_unsound_flip(
    scenario: &Scenario,
    prefix: &[Op],
    flip_seed: u64,
) -> Result<Option<(FlipSpec, Access)>, String> {
    let mut hier = scenario.hierarchy();
    let ReplayFilter::Mnm(mut mnm) = FilterPreset::parse(&scenario.filter)?.build(&hier) else {
        return Ok(None); // the baseline and the oracle have no corruptible state
    };
    // Drive the prefix through the same harness the corrupted replay will
    // use, so the machine state here is exactly the pre-flip state there.
    let (_, violation) = check_ops(prefix, &mut hier, mnm.as_mut());
    if violation.is_some() {
        return Ok(None); // the filter is broken without our help
    }

    let after_accesses = prefix.iter().filter(|op| matches!(op, Op::Access(_))).count() as u64;
    let slot_sids = mnm.slot_structures();
    let load_path = hier.path(AccessKind::Load).to_vec();
    let eligible: Vec<(usize, usize, u64)> = mnm
        .fault_surface()
        .into_iter()
        .filter(|&(si, _, _)| {
            let sid = slot_sids[si];
            hier.structures()[sid.index()].level >= 2 && load_path.contains(&sid)
        })
        .collect();

    let lies = |mnm: &mut Mnm, si: usize, fi: usize, bit: u64, addr: u64| -> bool {
        mnm.flip_filter_bit(si, fi, bit);
        let lied = mnm.query(Access::load(addr)).contains(slot_sids[si]);
        mnm.flip_filter_bit(si, fi, bit); // always revert; the corrupted replay re-applies
        lied
    };

    // Guided pass: flip exactly the bit guarding a resident block.
    for &(si, fi, _) in &eligible {
        let mut blocks: Vec<u64> = hier.cache(slot_sids[si]).resident_blocks().collect();
        if blocks.is_empty() {
            continue;
        }
        let rot = splitmix64(flip_seed ^ ((si as u64) << 8) ^ fi as u64) as usize % blocks.len();
        blocks.rotate_left(rot);
        for &addr in blocks.iter().take(GUIDED_BLOCKS_PER_COMPONENT) {
            let Some(bit) = mnm.state_bit_of(si, fi, addr) else { continue };
            if lies(&mut mnm, si, fi, bit, addr) {
                return Ok(Some((
                    FlipSpec { after_accesses, slot: si, filter: fi, bit },
                    Access::load(addr),
                )));
            }
        }
    }

    // Blind fallback: random bits, sampled resident blocks.
    if !eligible.is_empty() {
        for t in 0..FALLBACK_TRIES {
            let r = splitmix64(flip_seed ^ 0x5eed ^ t);
            let (si, fi, bits) = eligible[r as usize % eligible.len()];
            let bit = splitmix64(r) % bits;
            let blocks: Vec<u64> = hier.cache(slot_sids[si]).resident_blocks().collect();
            if blocks.is_empty() {
                continue;
            }
            let start = splitmix64(r ^ 1) as usize % blocks.len();
            for k in 0..FALLBACK_BLOCKS_PER_TRY.min(blocks.len()) {
                let addr = blocks[(start + k) % blocks.len()];
                if lies(&mut mnm, si, fi, bit, addr) {
                    return Ok(Some((
                        FlipSpec { after_accesses, slot: si, filter: fi, bit },
                        Access::load(addr),
                    )));
                }
            }
        }
    }
    Ok(None)
}

/// Run `scenario` with one injected bit flip. The corrupted filter must be
/// caught: the report carries the `UnsoundFlag` violation and its shrunk
/// reproducer. When no corrupting flip exists (e.g. a filter with no
/// exposed state), the scenario runs uncorrupted with a note.
pub fn run_corrupted_scenario(
    scenario: &Scenario,
    flip_seed: u64,
) -> Result<ScenarioReport, String> {
    let ops = scenario.gen.generate(scenario.seed, scenario.len);
    let prefix = &ops[..ops.len() / 2];

    let Some((spec, witness)) = find_unsound_flip(scenario, prefix, flip_seed)? else {
        eprintln!(
            "fault: no corrupting flip found for `{}`; running uncorrupted",
            scenario_site(scenario)
        );
        return crate::run_plain_scenario(scenario);
    };

    // The checked stream: clean prefix, then the witness access. The flip
    // lands at the witness's own query, so the violation is deterministic.
    let mut checked: Vec<Op> = prefix.to_vec();
    checked.push(Op::Access(witness));

    let build_corrupted = |spec: FlipSpec| -> Result<CorruptedMnm, String> {
        let hier = scenario.hierarchy();
        match FilterPreset::parse(&scenario.filter)?.build(&hier) {
            ReplayFilter::Mnm(mnm) => Ok(CorruptedMnm::new(mnm, spec)),
            _ => Err("a stateless filter cannot be corrupted".to_owned()),
        }
    };

    let mut hierarchy = scenario.hierarchy();
    let mut filter = build_corrupted(spec)?;
    let (counters, violation) = check_ops(&checked, &mut hierarchy, &mut filter);

    // When shrinking, the flip is re-scheduled at the candidate's final
    // access (where the witness sits) rather than at a fixed index: a
    // fixed `after_accesses` would never fire once ddmin deletes earlier
    // ops, making every deletion look like it cured the failure.
    let reproducer = violation.as_ref().map(|_| {
        shrink_ops(&checked, |candidate| {
            let n = candidate.iter().filter(|op| matches!(op, Op::Access(_))).count() as u64;
            if n == 0 {
                return false;
            }
            let respec = FlipSpec { after_accesses: n - 1, ..spec };
            let mut h = scenario.hierarchy();
            match build_corrupted(respec) {
                Ok(mut f) => check_ops(candidate, &mut h, &mut f).1.is_some(),
                Err(_) => false,
            }
        })
    });

    Ok(ScenarioReport { scenario: scenario.clone(), counters, violation, reproducer })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::TraceGen;
    use crate::harness::ViolationKind;

    fn scenario(filter: &str) -> Scenario {
        Scenario { filter: filter.to_owned(), gen: TraceGen::Aliasing, seed: 0x77, len: 1200 }
    }

    #[test]
    fn guided_search_finds_a_lie_for_every_stateful_family() {
        for filter in ["TMNM_12x1", "SMNM_13x2", "CMNM_8_12", "BLOOM_12x2", "HMNM4"] {
            let s = scenario(filter);
            let ops = s.gen.generate(s.seed, s.len);
            let found = find_unsound_flip(&s, &ops[..ops.len() / 2], 7).unwrap();
            assert!(found.is_some(), "{filter}: no corrupting flip found");
        }
    }

    #[test]
    fn corrupted_replay_is_caught_as_unsound_flag() {
        let report = run_corrupted_scenario(&scenario("TMNM_12x1"), 7).unwrap();
        let v = report.violation.expect("the lie must be caught");
        assert_eq!(v.kind, ViolationKind::UnsoundFlag);
        assert!(v.detail.contains("flagged a definite miss"), "{}", v.detail);
        let repro = report.reproducer.expect("shrunk reproducer");
        assert!(!repro.is_empty());
        assert!(repro.len() <= 1200 / 2 + 1);
    }

    #[test]
    fn search_is_deterministic_in_the_seed() {
        let s = scenario("CMNM_8_12");
        let ops = s.gen.generate(s.seed, s.len);
        let a = find_unsound_flip(&s, &ops[..ops.len() / 2], 42).unwrap();
        let b = find_unsound_flip(&s, &ops[..ops.len() / 2], 42).unwrap();
        assert_eq!(a.map(|(spec, w)| (spec, w.addr)), b.map(|(spec, w)| (spec, w.addr)));
    }
}
