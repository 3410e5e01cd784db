//! The three filter choices every experiment compares: no filter, a real
//! Mostly No Machine, and the perfect MNM of paper §4.3.
//!
//! [`FilterPreset`] is the parsed, hierarchy-independent choice (what a
//! `--config` flag, a served session's hello, or a checker scenario
//! names); [`ReplayFilter`] is that choice built against one hierarchy,
//! ready to drive [`Hierarchy::step`] / [`Hierarchy::run`].

use cache_sim::{
    Access, AccessFilter, AccessResult, BypassSet, CacheEvent, Hierarchy, ProbeRecord,
};

use crate::config::MnmConfig;
use crate::filter::FilterOccupancy;
use crate::machine::Mnm;

/// A filter choice, before it is built against a hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterPreset {
    /// No filter: every level is probed normally.
    Baseline,
    /// The perfect oracle (paper §4.3): bypasses exactly the true misses,
    /// at zero delay and zero energy.
    Perfect,
    /// A real MNM built from the configuration.
    Mnm(MnmConfig),
}

impl FilterPreset {
    /// Parse a preset label: `baseline` or `perfect` in any letter case,
    /// or any [`MnmConfig::parse`] label (`HMNM4`, `TMNM_12x3`, ...).
    ///
    /// # Errors
    ///
    /// Returns the one "unrecognized filter preset" message, naming the label.
    ///
    /// ```
    /// use mnm_core::FilterPreset;
    ///
    /// assert_eq!(FilterPreset::parse("PERFECT").unwrap(), FilterPreset::Perfect);
    /// assert_eq!(FilterPreset::parse("HMNM4").unwrap().label(), "HMNM4");
    /// assert!(FilterPreset::parse("HMNM9").is_err());
    /// ```
    pub fn parse(label: &str) -> Result<FilterPreset, String> {
        if label.eq_ignore_ascii_case("baseline") {
            return Ok(FilterPreset::Baseline);
        }
        if label.eq_ignore_ascii_case("perfect") {
            return Ok(FilterPreset::Perfect);
        }
        MnmConfig::parse(label).map(FilterPreset::Mnm).map_err(|_| {
            format!(
                "unrecognized filter preset `{label}` (expected `baseline`, `perfect`, or an MNM \
                 label like `HMNM4` or `TMNM_12x3`)"
            )
        })
    }

    /// Display label for tables and reports: `Baseline`, `Perfect`, or
    /// the MNM configuration's name.
    pub fn label(&self) -> String {
        match self {
            FilterPreset::Baseline => "Baseline".to_owned(),
            FilterPreset::Perfect => "Perfect".to_owned(),
            FilterPreset::Mnm(c) => c.name.clone(),
        }
    }

    /// Build the filter against `hierarchy` (an MNM sizes its filter
    /// slots from the hierarchy's structures).
    pub fn build(&self, hierarchy: &Hierarchy) -> ReplayFilter {
        match self {
            FilterPreset::Baseline => ReplayFilter::Baseline,
            FilterPreset::Perfect => ReplayFilter::Perfect,
            FilterPreset::Mnm(c) => ReplayFilter::from(Mnm::new(hierarchy, c.clone())),
        }
    }
}

/// A built filter: the one [`AccessFilter`] every replay driver uses.
#[derive(Debug)]
pub enum ReplayFilter {
    /// Never bypasses, observes nothing.
    Baseline,
    /// Bypasses exactly the structures that miss
    /// ([`Hierarchy::dry_run_bypass`]).
    Perfect,
    /// A real Mostly No Machine.
    Mnm(Box<Mnm>),
}

impl From<Mnm> for ReplayFilter {
    fn from(mnm: Mnm) -> Self {
        ReplayFilter::Mnm(Box::new(mnm))
    }
}

impl ReplayFilter {
    /// The machine, when this is a real MNM.
    pub fn mnm(&self) -> Option<&Mnm> {
        match self {
            ReplayFilter::Mnm(m) => Some(m),
            _ => None,
        }
    }

    /// The machine, mutably, when this is a real MNM.
    pub fn mnm_mut(&mut self) -> Option<&mut Mnm> {
        match self {
            ReplayFilter::Mnm(m) => Some(m),
            _ => None,
        }
    }

    /// Dynamic occupancy ([`Mnm::occupancy`]); empty for the stateless
    /// baseline and oracle.
    pub fn occupancy(&self) -> FilterOccupancy {
        self.mnm().map(Mnm::occupancy).unwrap_or_default()
    }

    /// Access latency including the filter's placement cost
    /// ([`Mnm::adjusted_latency`]); the baseline and the oracle add none.
    pub fn adjusted_latency(&self, result: &AccessResult) -> u64 {
        match self {
            ReplayFilter::Mnm(m) => m.adjusted_latency(result),
            _ => result.latency,
        }
    }
}

impl AccessFilter for ReplayFilter {
    fn query(&mut self, hierarchy: &Hierarchy, access: Access) -> BypassSet {
        match self {
            ReplayFilter::Baseline => BypassSet::none(),
            ReplayFilter::Perfect => hierarchy.dry_run_bypass(access),
            ReplayFilter::Mnm(m) => m.query(access),
        }
    }

    fn observe_events(&mut self, _hierarchy: &Hierarchy, events: &[CacheEvent]) {
        if let ReplayFilter::Mnm(m) = self {
            m.observe_events(events);
        }
    }

    fn note_probes(&mut self, _access: Access, probes: &[ProbeRecord]) {
        if let ReplayFilter::Mnm(m) = self {
            m.note_probes(probes);
        }
    }

    fn flush_system(&mut self, hierarchy: &mut Hierarchy) {
        match self {
            ReplayFilter::Mnm(m) => m.flush_system(hierarchy),
            _ => hierarchy.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::HierarchyConfig;

    #[test]
    fn built_filters_drive_the_hierarchy() {
        for label in ["baseline", "perfect", "HMNM4"] {
            let mut hier = Hierarchy::new(HierarchyConfig::paper_five_level());
            let mut filter = FilterPreset::parse(label).unwrap().build(&hier);
            let cold = hier.step(&mut filter, Access::load(0x4_0000));
            let bypassed = if label == "baseline" { 0 } else { 4 };
            assert_eq!(cold.bypassed, bypassed, "{label}: cold caches");
            assert_eq!(filter.adjusted_latency(&cold), cold.latency, "{label}: parallel MNM");
            assert_eq!(filter.mnm().is_some(), label == "HMNM4");
            assert_eq!(filter.occupancy().tracked > 0, label == "HMNM4");
        }
    }
}
