//! An independent naive reference model of the cache hierarchy.
//!
//! This is a from-scratch re-implementation of the hierarchy's residency
//! semantics — probe the access path in order until a hit, fill every
//! structure below the supplier — sharing **no code** with
//! `cache_sim::Cache`. The differential harness replays every access
//! through both and cross-checks residency, per-structure counters, and
//! the supplying level, so a bookkeeping bug in either implementation
//! surfaces as a divergence instead of silently corrupting results.
//!
//! The reference never sees bypass sets: it always probes everything. A
//! *sound* filter only skips probes that would have missed, so the two
//! models must agree on every fill, eviction, and supply level; any
//! disagreement convicts the filter (or one of the models).
//!
//! Only `Lru` and `Fifo` replacement are supported. `Random` uses a
//! per-cache private xorshift stream whose reproduction here would defeat
//! the "independent implementation" purpose.

use cache_sim::{Access, AccessKind, Hierarchy, ReplacementPolicy, StructureId};

#[derive(Debug, Clone, Copy)]
struct RefLine {
    valid: bool,
    block: u64,
    stamp: u64,
}

/// One set-associative structure of the reference model.
#[derive(Debug)]
pub struct RefCache {
    level: u8,
    sets: u64,
    assoc: usize,
    block_shift: u32,
    /// Whether a hit refreshes the stamp (LRU) or not (FIFO).
    touch_on_hit: bool,
    lines: Vec<RefLine>,
    clock: u64,
    /// Cumulative counters, reconciled against `HierarchyStats`.
    pub probes: u64,
    /// Probe hits.
    pub hits: u64,
    /// Probe misses.
    pub misses: u64,
    /// Blocks installed (excluding refreshes of resident blocks).
    pub fills: u64,
    /// Blocks displaced by fills.
    pub evictions: u64,
}

impl RefCache {
    fn block_of(&self, addr: u64) -> u64 {
        addr >> self.block_shift
    }

    fn set_base(&self, block: u64) -> usize {
        ((block % self.sets) as usize) * self.assoc
    }

    fn lookup(&mut self, addr: u64) -> bool {
        let block = self.block_of(addr);
        let base = self.set_base(block);
        self.clock += 1;
        self.probes += 1;
        for way in 0..self.assoc {
            let line = &mut self.lines[base + way];
            if line.valid && line.block == block {
                if self.touch_on_hit {
                    line.stamp = self.clock;
                }
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    fn fill(&mut self, addr: u64) {
        let block = self.block_of(addr);
        let base = self.set_base(block);
        self.clock += 1;
        let mut victim = None;
        let mut victim_stamp = u64::MAX;
        let mut empty = None;
        for way in 0..self.assoc {
            let line = &self.lines[base + way];
            if line.valid && line.block == block {
                // Already resident (a refill racing a sibling fill):
                // refresh only, like the simulator.
                self.lines[base + way].stamp = self.clock;
                return;
            }
            if !line.valid {
                if empty.is_none() {
                    empty = Some(way);
                }
            } else if line.stamp < victim_stamp {
                victim_stamp = line.stamp;
                victim = Some(way);
            }
        }
        let way = match empty {
            Some(w) => w,
            None => {
                self.evictions += 1;
                victim.expect("full set has a victim")
            }
        };
        self.lines[base + way] = RefLine { valid: true, block, stamp: self.clock };
        self.fills += 1;
    }

    /// Whether the block containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        let block = self.block_of(addr);
        let base = self.set_base(block);
        self.lines[base..base + self.assoc].iter().any(|l| l.valid && l.block == block)
    }

    /// Sorted byte base addresses of all resident blocks.
    pub fn resident(&self) -> Vec<u64> {
        let mut out: Vec<u64> =
            self.lines.iter().filter(|l| l.valid).map(|l| l.block << self.block_shift).collect();
        out.sort_unstable();
        out
    }
}

/// The reference hierarchy: one [`RefCache`] per structure, indexed by
/// [`StructureId::index`], always probed without bypass.
#[derive(Debug)]
pub struct RefModel {
    structs: Vec<RefCache>,
    instr_path: Vec<usize>,
    data_path: Vec<usize>,
    memory_level: u8,
}

impl RefModel {
    /// Mirror the geometry of `hierarchy`.
    ///
    /// # Errors
    ///
    /// Returns a message if any structure uses `Random` replacement.
    pub fn new(hierarchy: &Hierarchy) -> Result<RefModel, String> {
        let mut structs = Vec::new();
        for info in hierarchy.structures() {
            let cfg = hierarchy.cache(info.id).config();
            let touch_on_hit = match cfg.replacement {
                ReplacementPolicy::Lru => true,
                ReplacementPolicy::Fifo => false,
                ReplacementPolicy::Random => {
                    return Err(format!(
                        "reference model cannot mirror Random replacement ({})",
                        info.name
                    ));
                }
            };
            let sets = cfg.size_bytes / (u64::from(cfg.assoc) * cfg.block_bytes);
            let assoc = cfg.assoc as usize;
            structs.push(RefCache {
                level: info.level,
                sets,
                assoc,
                block_shift: cfg.block_bytes.trailing_zeros(),
                touch_on_hit,
                lines: vec![RefLine { valid: false, block: 0, stamp: 0 }; sets as usize * assoc],
                clock: 0,
                probes: 0,
                hits: 0,
                misses: 0,
                fills: 0,
                evictions: 0,
            });
        }
        let to_idx = |ids: &[StructureId]| ids.iter().map(|s| s.index()).collect::<Vec<_>>();
        Ok(RefModel {
            instr_path: to_idx(hierarchy.path(AccessKind::InstrFetch)),
            data_path: to_idx(hierarchy.path(AccessKind::Load)),
            memory_level: hierarchy.memory_level(),
            structs,
        })
    }

    /// Drive one access (always probing every structure on the path) and
    /// return the supplying level.
    pub fn access(&mut self, access: Access) -> u8 {
        let instr = access.kind.is_instruction();
        let path_len = if instr { self.instr_path.len() } else { self.data_path.len() };
        let mut supply = self.memory_level;
        for i in 0..path_len {
            let si = if instr { self.instr_path[i] } else { self.data_path[i] };
            if self.structs[si].lookup(access.addr) {
                supply = self.structs[si].level;
                break;
            }
        }
        for i in 0..path_len {
            let si = if instr { self.instr_path[i] } else { self.data_path[i] };
            if self.structs[si].level >= supply {
                break;
            }
            self.structs[si].fill(access.addr);
        }
        supply
    }

    /// Whether structure `sid` holds the block containing `addr`.
    pub fn contains(&self, sid: StructureId, addr: u64) -> bool {
        self.structs[sid.index()].contains(addr)
    }

    /// The reference structure at raw index `idx`.
    pub fn structure(&self, idx: usize) -> &RefCache {
        &self.structs[idx]
    }

    /// Drop all blocks and counters (mirrors `Hierarchy::flush`, which
    /// also resets statistics).
    pub fn flush(&mut self) {
        for s in &mut self.structs {
            for l in &mut s.lines {
                *l = RefLine { valid: false, block: 0, stamp: 0 };
            }
            s.clock = 0;
            s.probes = 0;
            s.hits = 0;
            s.misses = 0;
            s.fills = 0;
            s.evictions = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{BypassSet, CacheConfig, HierarchyConfig, LevelConfig};

    fn tiny() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            levels: vec![
                LevelConfig::Split {
                    instr: CacheConfig::new("il1", 64, 1, 32, 2),
                    data: CacheConfig::new("dl1", 64, 1, 32, 2),
                },
                LevelConfig::Unified(CacheConfig::new("ul2", 256, 2, 32, 8)),
            ],
            memory_latency: 100,
            inclusive: false,
        })
    }

    #[test]
    fn mirrors_an_unfiltered_replay_exactly() {
        let mut hier = tiny();
        let mut refm = RefModel::new(&hier).unwrap();
        let mut x = 0x2463_5148_u64;
        for i in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x % 0x1000;
            let access = match i % 3 {
                0 => Access::load(addr),
                1 => Access::store(addr),
                _ => Access::fetch(addr),
            };
            let r = hier.access(access, &BypassSet::none());
            let ref_supply = refm.access(access);
            assert_eq!(r.supply_level, ref_supply, "step {i}");
        }
        for info in hier.structures() {
            let idx = info.id.index();
            let st = hier.stats().structures[idx];
            let rc = refm.structure(idx);
            assert_eq!(st.probes, rc.probes, "{} probes", info.name);
            assert_eq!(st.hits, rc.hits, "{} hits", info.name);
            assert_eq!(st.misses, rc.misses, "{} misses", info.name);
            assert_eq!(st.fills, rc.fills, "{} fills", info.name);
            assert_eq!(st.evictions, rc.evictions, "{} evictions", info.name);
            let mut main: Vec<u64> = hier.cache(info.id).resident_blocks().collect();
            main.sort_unstable();
            assert_eq!(main, rc.resident(), "{} residency", info.name);
        }
    }

    #[test]
    fn rejects_random_replacement() {
        let hier = Hierarchy::new(HierarchyConfig {
            levels: vec![LevelConfig::Unified(
                CacheConfig::new("l1", 256, 2, 32, 2).with_replacement(ReplacementPolicy::Random),
            )],
            memory_latency: 50,
            inclusive: false,
        });
        assert!(RefModel::new(&hier).is_err());
    }

    #[test]
    fn flush_empties_the_model() {
        let mut hier = tiny();
        let mut refm = RefModel::new(&hier).unwrap();
        hier.access(Access::load(0x40), &BypassSet::none());
        refm.access(Access::load(0x40));
        let dl1 = hier.structures().iter().find(|s| s.name == "dl1").unwrap().id;
        assert!(refm.contains(dl1, 0x40));
        refm.flush();
        assert!(!refm.contains(dl1, 0x40));
        assert_eq!(refm.structure(dl1.index()).probes, 0);
    }
}
