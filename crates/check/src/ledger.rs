//! The event ledger: what each structure holds according to its event
//! stream alone. One [`Ledger`] type serves every checker —
//! [`check_ops`](crate::check_ops) keeps one for the hierarchy under
//! test, the multi-core checker one per core's private hierarchy and one
//! for the shared L3. [`Ledger::apply`] enforces block conservation (a
//! placement is new, a removal was live) and the frame contract (a
//! placement takes a frame no live block holds, a removal names the
//! frame its placement took) that CMNM's per-frame tags rely on.

use std::collections::{HashMap, HashSet};

use cache_sim::{CacheEvent, EventKind, Hierarchy, HierarchyStats, StructureId, StructureStats};

/// One structure's slice of the ledger.
#[derive(Debug, Clone)]
struct Entry {
    name: String,
    block_bytes: u64,
    /// Each live block's frame.
    live: HashMap<u64, u32>,
    /// Frames a live block holds.
    held: HashSet<u32>,
    /// The fills, evictions and invalidations the events imply.
    tally: StructureStats,
}

/// Per-structure live blocks and tallies folded from an event stream.
#[derive(Debug, Clone)]
pub struct Ledger {
    entries: Vec<Entry>,
}

impl Ledger {
    /// An empty ledger with one entry per structure of `hierarchy`,
    /// indexed by [`StructureId::index`].
    pub fn new(hierarchy: &Hierarchy) -> Ledger {
        let entries = hierarchy
            .structures()
            .iter()
            .map(|info| Entry {
                name: info.name.clone(),
                block_bytes: hierarchy.cache(info.id).config().block_bytes,
                live: HashMap::new(),
                held: HashSet::new(),
                tally: StructureStats::default(),
            })
            .collect();
        Ledger { entries }
    }

    /// Fold `events` in order. Stops at the first event that breaks
    /// conservation or the frame contract and describes it.
    ///
    /// # Errors
    ///
    /// Returns the violation, prefixed with the structure's name.
    pub fn apply(&mut self, events: &[CacheEvent]) -> Result<(), String> {
        for ev in events {
            let e = &mut self.entries[ev.structure.index()];
            let (name, block, frame) = (&e.name, ev.block_base, ev.frame);
            match ev.kind {
                EventKind::Placed => {
                    e.tally.fills += 1;
                    if e.live.insert(block, frame).is_some() {
                        return Err(format!("{name}: block {block:#x} placed while already live"));
                    }
                    if !e.held.insert(frame) {
                        return Err(format!(
                            "{name}: block {block:#x} placed in frame {frame}, held by a live block"
                        ));
                    }
                }
                EventKind::Replaced | EventKind::Invalidated => {
                    if ev.kind == EventKind::Replaced {
                        e.tally.evictions += 1;
                    } else {
                        e.tally.invalidations += 1;
                    }
                    let Some(placed) = e.live.remove(&block) else {
                        return Err(format!("{name}: block {block:#x} removed but never placed"));
                    };
                    e.held.remove(&placed);
                    if placed != frame {
                        return Err(format!(
                            "{name}: block {block:#x} left frame {frame}, placed in {placed}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether structure `sid` holds the block containing `addr`.
    pub fn holds(&self, sid: StructureId, addr: u64) -> bool {
        let e = &self.entries[sid.index()];
        e.live.contains_key(&(addr & !(e.block_bytes - 1)))
    }

    /// Sorted base addresses of the blocks structure `sid` holds.
    pub fn blocks(&self, sid: StructureId) -> Vec<u64> {
        let mut out: Vec<u64> = self.entries[sid.index()].live.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Forget every block and tally (a flush leaves no events, and resets
    /// the stats the tallies reconcile against).
    pub fn clear(&mut self) {
        for e in &mut self.entries {
            e.live.clear();
            e.held.clear();
            e.tally = StructureStats::default();
        }
    }

    /// Reconcile the tallies with `stats`, structure by structure in
    /// index order (a ledger over a larger hierarchy checks the common
    /// prefix): fills, evictions and invalidations agree, and fills =
    /// evictions + invalidations + live blocks.
    ///
    /// # Errors
    ///
    /// Describes the first structure that does not reconcile.
    pub fn reconcile(&self, stats: &HierarchyStats) -> Result<(), String> {
        for (e, st) in self.entries.iter().zip(&stats.structures) {
            let (name, live, t) = (&e.name, e.live.len() as u64, &e.tally);
            let seen = (t.fills, t.evictions, t.invalidations);
            let said = (st.fills, st.evictions, st.invalidations);
            if seen != said {
                return Err(format!(
                    "{name}: event stream saw {seen:?} fills/evictions/invalidations, stats say \
                     {said:?}"
                ));
            }
            if t.fills != t.evictions + t.invalidations + live {
                return Err(format!("{name}: {seen:?} fills/evictions/invalidations, {live} live"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{CacheConfig, HierarchyConfig, LevelConfig};

    fn ledger() -> (Ledger, StructureId) {
        let hier = Hierarchy::new(HierarchyConfig {
            levels: vec![LevelConfig::Unified(CacheConfig::new("ul1", 256, 2, 32, 1))],
            memory_latency: 10,
            inclusive: false,
        });
        let sid = hier.structures()[0].id;
        (Ledger::new(&hier), sid)
    }

    fn ev(sid: StructureId, kind: EventKind, block_base: u64, frame: u32) -> CacheEvent {
        CacheEvent { structure: sid, kind, block_base, block_bytes: 32, frame }
    }

    #[test]
    fn a_sound_stream_folds_and_reconciles() {
        let (mut l, sid) = ledger();
        let events = [
            ev(sid, EventKind::Placed, 0x40, 0),
            ev(sid, EventKind::Placed, 0x80, 1),
            ev(sid, EventKind::Replaced, 0x40, 0),
            ev(sid, EventKind::Placed, 0xc0, 0),
            ev(sid, EventKind::Invalidated, 0x80, 1),
        ];
        l.apply(&events).unwrap();
        assert!(l.holds(sid, 0xc4) && !l.holds(sid, 0x40));
        assert_eq!(l.blocks(sid), vec![0xc0]);
        let mut stats = HierarchyStats::default();
        stats.structures.push(Default::default());
        stats.structures[0].fills = 3;
        stats.structures[0].evictions = 1;
        stats.structures[0].invalidations = 1;
        l.reconcile(&stats).unwrap();
        stats.structures[0].evictions = 2;
        assert!(l.reconcile(&stats).unwrap_err().contains("stats say"));
        l.clear();
        assert!(l.blocks(sid).is_empty());
    }

    #[test]
    fn placing_a_live_block_is_reported() {
        let (mut l, sid) = ledger();
        let err = l
            .apply(&[ev(sid, EventKind::Placed, 0x40, 0), ev(sid, EventKind::Placed, 0x40, 1)])
            .unwrap_err();
        assert_eq!(err, "ul1: block 0x40 placed while already live");
    }

    #[test]
    fn placing_into_a_held_frame_is_reported() {
        let (mut l, sid) = ledger();
        let err = l
            .apply(&[ev(sid, EventKind::Placed, 0x40, 3), ev(sid, EventKind::Placed, 0x80, 3)])
            .unwrap_err();
        assert_eq!(err, "ul1: block 0x80 placed in frame 3, held by a live block");
    }

    #[test]
    fn removing_an_absent_block_is_reported() {
        let (mut l, sid) = ledger();
        let err = l.apply(&[ev(sid, EventKind::Invalidated, 0x40, 0)]).unwrap_err();
        assert_eq!(err, "ul1: block 0x40 removed but never placed");
    }

    #[test]
    fn removing_from_the_wrong_frame_is_reported() {
        let (mut l, sid) = ledger();
        let err = l
            .apply(&[ev(sid, EventKind::Placed, 0x40, 2), ev(sid, EventKind::Replaced, 0x40, 1)])
            .unwrap_err();
        assert_eq!(err, "ul1: block 0x40 left frame 1, placed in 2");
    }
}
