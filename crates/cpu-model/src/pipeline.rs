//! The dataflow pipeline scheduler.

use cache_sim::{Access, Hierarchy};
use mnm_core::ReplayFilter;
use trace_synth::{Instr, InstrKind};

use crate::config::{CpuConfig, LoadSpeculation};
use crate::stats::CpuStats;

/// What the memory system reported for one access.
struct MemOutcome {
    latency: u64,
    /// Level that supplied the data (1 = L1).
    supply_level: u8,
    /// Whether the scheduler had early knowledge that this access was a
    /// long-latency one: the MNM flagged at least one level (its verdict
    /// arrives before L1 miss detection, paper §2), or the oracle is in
    /// use.
    known_long: bool,
}

/// Drive one access under `filter` and report what the scheduler sees.
fn mem_access(hierarchy: &mut Hierarchy, filter: &mut ReplayFilter, access: Access) -> MemOutcome {
    let r = hierarchy.step(filter, access);
    let known_long = match filter {
        ReplayFilter::Baseline => false,
        ReplayFilter::Mnm(_) => r.bypassed > 0,
        ReplayFilter::Perfect => true,
    };
    MemOutcome { latency: filter.adjusted_latency(&r), supply_level: r.supply_level, known_long }
}

/// Index of the earliest-free resource port.
fn cheapest(ports: &[u64]) -> usize {
    ports.iter().enumerate().min_by_key(|(_, &t)| t).map(|(i, _)| i).expect("at least one port")
}

/// Run `max_instrs` instructions of `trace` through the core.
///
/// Returns when the trace ends or `max_instrs` instructions have been
/// scheduled. The hierarchy (and MNM, if any) are left warm, so callers can
/// split warmup and measurement phases.
///
/// # Panics
///
/// Panics if `config` fails [`CpuConfig::validate`].
pub fn simulate(
    config: &CpuConfig,
    hierarchy: &mut Hierarchy,
    filter: &mut ReplayFilter,
    trace: impl Iterator<Item = Instr>,
    max_instrs: u64,
) -> CpuStats {
    config.validate().expect("invalid CPU configuration");
    let window = config.window_size as usize;
    let lsq = config.lsq_size as usize;

    // The L1-I line size defines fetch blocks; its hit latency is hidden by
    // fetch pipelining, so only the excess stalls the front end.
    let (l1i_block_shift, l1i_latency) = {
        let info = hierarchy
            .structures()
            .iter()
            .find(|s| s.level == 1 && !s.data_only)
            .expect("hierarchy has an L1 instruction path");
        let lat = hierarchy.cache(info.id).config().hit_latency;
        (info.block_bytes.trailing_zeros(), lat)
    };

    let mut complete = vec![0u64; window];
    let mut replay_pen = vec![0u64; window];
    let mut commit = vec![0u64; window];
    let mut issue_ports = vec![0u64; config.issue_width as usize];
    let mut dcache_ports = vec![0u64; config.dcache_ports as usize];
    let mut mem_ring = vec![0u64; lsq];
    let mut mem_count: usize = 0;

    let mut fetch_cycle: u64 = 0;
    let mut fetched: u32 = 0;
    let mut cur_block: Option<u64> = None;
    let mut redirect_ready: u64 = 0;
    let mut commit_cycle: u64 = 0;
    let mut committed: u32 = 0;
    let mut last_commit: u64 = 0;

    let mut stats = CpuStats::default();
    let mut i: usize = 0;

    for instr in trace.take(max_instrs as usize) {
        // ---- fetch ----
        let mut earliest = redirect_ready;
        if i >= window {
            earliest = earliest.max(commit[(i - window) % window]);
        }
        if earliest > fetch_cycle {
            fetch_cycle = earliest;
            fetched = 0;
        }
        let block = instr.pc >> l1i_block_shift;
        if cur_block != Some(block) {
            let lat = mem_access(hierarchy, filter, Access::fetch(instr.pc)).latency;
            stats.fetch_accesses += 1;
            stats.fetch_latency_sum += lat;
            let bubble = lat.saturating_sub(l1i_latency);
            if bubble > 0 {
                fetch_cycle += bubble;
                fetched = 0;
            }
            cur_block = Some(block);
        }
        if fetched >= config.fetch_width {
            fetch_cycle += 1;
            fetched = 0;
        }
        fetched += 1;
        let fetch_time = fetch_cycle;

        // ---- dispatch + dataflow ready ----
        let dep_time = |d: u8| -> u64 {
            let d = d as usize;
            if d == 0 || d > i || d >= window {
                0
            } else {
                // A dependent of an unpredicted missing load is woken
                // speculatively and replayed: its effective readiness is
                // the producer's completion plus the replay penalty.
                complete[(i - d) % window] + replay_pen[(i - d) % window]
            }
        };
        let ready = (fetch_time + 1).max(dep_time(instr.src1)).max(dep_time(instr.src2));

        // ---- issue port ----
        let port = issue_ports
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(idx, _)| idx)
            .expect("at least one issue port");
        let issue = ready.max(issue_ports[port]);
        issue_ports[port] = issue + 1;

        // ---- execute ----
        let mut penalty = 0u64;
        let done = match instr.kind {
            InstrKind::Op { latency } => issue + u64::from(latency),
            InstrKind::Load { addr } => {
                let out = mem_access(hierarchy, filter, Access::load(addr));
                let lat = out.latency;
                stats.loads += 1;
                stats.load_latency_sum += lat;
                if let LoadSpeculation::Replay { penalty: p } = config.load_speculation {
                    if out.supply_level > 1 && !out.known_long {
                        penalty = p;
                        stats.replays += 1;
                    }
                }
                // MLP limit: the LSQ admits a new memory op only when the
                // lsq-oldest one has completed; a D-cache port must also
                // be free in the start cycle.
                let port = cheapest(&dcache_ports);
                let start = issue.max(mem_ring[mem_count % lsq]).max(dcache_ports[port]);
                dcache_ports[port] = start + 1;
                let done = start + lat;
                mem_ring[mem_count % lsq] = done;
                mem_count += 1;
                done
            }
            InstrKind::Store { addr } => {
                // Write-allocate for cache contents/energy; retirement does
                // not wait for the write to drain.
                mem_access(hierarchy, filter, Access::store(addr));
                stats.stores += 1;
                let port = cheapest(&dcache_ports);
                let start = issue.max(mem_ring[mem_count % lsq]).max(dcache_ports[port]);
                dcache_ports[port] = start + 1;
                let done = start + 1;
                mem_ring[mem_count % lsq] = done;
                mem_count += 1;
                done
            }
            InstrKind::Branch { mispredicted } => {
                stats.branches += 1;
                let done = issue + 1;
                if mispredicted {
                    stats.mispredicts += 1;
                    redirect_ready = redirect_ready.max(done + config.mispredict_penalty);
                    cur_block = None;
                }
                done
            }
        };
        complete[i % window] = done;
        replay_pen[i % window] = penalty;

        // ---- in-order commit ----
        let c = (done + 1).max(last_commit);
        if c > commit_cycle {
            commit_cycle = c;
            committed = 0;
        }
        if committed >= config.commit_width {
            commit_cycle += 1;
            committed = 0;
        }
        committed += 1;
        commit[i % window] = commit_cycle;
        last_commit = commit_cycle;

        i += 1;
    }

    stats.instructions = i as u64;
    stats.cycles = last_commit;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::HierarchyConfig;
    use mnm_core::{FilterPreset, MnmConfig};
    use trace_synth::{profiles, Program};

    fn hier() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::paper_five_level())
    }

    fn ops(n: usize, src1: u8) -> Vec<Instr> {
        // PCs loop over a small footprint so the I-side stays warm and the
        // back end is what gets measured.
        (0..n)
            .map(|k| Instr {
                pc: 0x40_0000 + 4 * (k % 64) as u64,
                kind: InstrKind::Op { latency: 1 },
                src1,
                src2: 0,
            })
            .collect()
    }

    #[test]
    fn independent_ops_reach_issue_width_ipc() {
        let cfg = CpuConfig::paper_eight_way();
        let mut h = hier();
        let trace = ops(100_000, 0);
        let s = simulate(&cfg, &mut h, &mut ReplayFilter::Baseline, trace.into_iter(), u64::MAX);
        assert_eq!(s.instructions, 100_000);
        assert!(s.ipc() > 6.0, "independent ops should sustain near-width IPC, got {}", s.ipc());
    }

    #[test]
    fn serial_dependence_chains_limit_ipc_to_one() {
        let cfg = CpuConfig::paper_eight_way();
        let mut h = hier();
        let trace = ops(10_000, 1); // each op depends on its predecessor
        let s = simulate(&cfg, &mut h, &mut ReplayFilter::Baseline, trace.into_iter(), u64::MAX);
        assert!(s.ipc() < 1.2, "a serial chain cannot exceed IPC 1, got {}", s.ipc());
    }

    #[test]
    fn mispredicts_slow_execution() {
        let cfg = CpuConfig::paper_eight_way();
        let mk = |mispredict: bool| -> Vec<Instr> {
            (0..5000)
                .map(|k| Instr {
                    pc: 0x40_0000 + 4 * (k % 64) as u64,
                    kind: if k % 5 == 0 {
                        InstrKind::Branch { mispredicted: mispredict && k % 25 == 0 }
                    } else {
                        InstrKind::Op { latency: 1 }
                    },
                    src1: 0,
                    src2: 0,
                })
                .collect()
        };
        let mut h1 = hier();
        let clean =
            simulate(&cfg, &mut h1, &mut ReplayFilter::Baseline, mk(false).into_iter(), u64::MAX);
        let mut h2 = hier();
        let dirty =
            simulate(&cfg, &mut h2, &mut ReplayFilter::Baseline, mk(true).into_iter(), u64::MAX);
        assert!(dirty.cycles > clean.cycles);
        assert_eq!(dirty.mispredicts, 5000 / 25);
    }

    #[test]
    fn cold_loads_cost_more_than_warm_loads() {
        let cfg = CpuConfig::paper_eight_way();
        let mk = |stride: u64| -> Vec<Instr> {
            (0..2000u64)
                .map(|k| Instr {
                    pc: 0x40_0000 + 4 * (k % 16),
                    kind: InstrKind::Load { addr: 0x1000_0000 + (k * stride) % 0x10_0000 },
                    src1: 1, // serialize loads so latency shows
                    src2: 0,
                })
                .collect()
        };
        let mut h1 = hier();
        let warm =
            simulate(&cfg, &mut h1, &mut ReplayFilter::Baseline, mk(0).into_iter(), u64::MAX);
        let mut h2 = hier();
        let cold =
            simulate(&cfg, &mut h2, &mut ReplayFilter::Baseline, mk(4096).into_iter(), u64::MAX);
        assert!(cold.cycles > 2 * warm.cycles, "cold {} vs warm {}", cold.cycles, warm.cycles);
        assert!(cold.mean_load_latency() > warm.mean_load_latency());
    }

    #[test]
    fn window_size_gates_mlp() {
        // Independent long-latency loads: a bigger window exposes more MLP.
        let mk = || -> Vec<Instr> {
            (0..4000u64)
                .map(|k| Instr {
                    pc: 0x40_0000 + 4 * (k % 8),
                    kind: InstrKind::Load { addr: 0x1000_0000 + k * 4096 },
                    src1: 0,
                    src2: 0,
                })
                .collect()
        };
        let mut small_cfg = CpuConfig::paper_eight_way();
        small_cfg.window_size = 16;
        small_cfg.lsq_size = 8;
        let mut h1 = hier();
        let small =
            simulate(&small_cfg, &mut h1, &mut ReplayFilter::Baseline, mk().into_iter(), u64::MAX);
        let big_cfg = CpuConfig::paper_eight_way();
        let mut h2 = hier();
        let big =
            simulate(&big_cfg, &mut h2, &mut ReplayFilter::Baseline, mk().into_iter(), u64::MAX);
        assert!(big.cycles < small.cycles, "big window {} vs small {}", big.cycles, small.cycles);
    }

    #[test]
    fn mnm_never_slows_down_and_perfect_is_fastest() {
        let cfg = CpuConfig::paper_eight_way();
        let profile = profiles::by_name("181.mcf").unwrap();
        let n = 60_000u64;

        let mut h_base = hier();
        let base = simulate(
            &cfg,
            &mut h_base,
            &mut ReplayFilter::Baseline,
            Program::new(profile.clone()),
            n,
        );

        let mut h_mnm = hier();
        let mut mnm = FilterPreset::Mnm(MnmConfig::hmnm(4)).build(&h_mnm);
        let with_mnm = simulate(&cfg, &mut h_mnm, &mut mnm, Program::new(profile.clone()), n);

        let mut h_perfect = hier();
        let perfect =
            simulate(&cfg, &mut h_perfect, &mut ReplayFilter::Perfect, Program::new(profile), n);

        assert!(with_mnm.cycles <= base.cycles, "MNM {} vs base {}", with_mnm.cycles, base.cycles);
        assert!(
            perfect.cycles <= with_mnm.cycles,
            "perfect {} vs MNM {}",
            perfect.cycles,
            with_mnm.cycles
        );
        assert!(
            mnm.mnm().unwrap().stats().coverage() > 0.0,
            "the MNM must identify some misses on mcf"
        );
        // Identical functional behaviour: same cache supply pattern.
        assert_eq!(base.loads, with_mnm.loads);
        assert_eq!(
            h_base.stats().memory_supplies,
            h_mnm.stats().memory_supplies,
            "bypassing must not change where data is found"
        );
    }

    #[test]
    fn replay_model_charges_unpredicted_misses_only() {
        use crate::config::LoadSpeculation;
        // One cold load followed by a dependent chain: under the replay
        // scheduler the dependent pays the penalty; with the perfect
        // policy (full knowledge) it does not.
        let mk = || {
            vec![
                Instr {
                    pc: 0x40_0000,
                    kind: InstrKind::Load { addr: 0x1000_0000 },
                    src1: 0,
                    src2: 0,
                },
                Instr { pc: 0x40_0004, kind: InstrKind::Op { latency: 1 }, src1: 1, src2: 0 },
                Instr { pc: 0x40_0008, kind: InstrKind::Op { latency: 1 }, src1: 1, src2: 0 },
            ]
        };
        let cfg = CpuConfig::paper_eight_way()
            .with_load_speculation(LoadSpeculation::Replay { penalty: 50 });
        let mut h1 = hier();
        let with_replay =
            simulate(&cfg, &mut h1, &mut ReplayFilter::Baseline, mk().into_iter(), u64::MAX);
        assert_eq!(with_replay.replays, 1, "the cold load replays its dependents");

        let mut h2 = hier();
        let oracle =
            simulate(&cfg, &mut h2, &mut ReplayFilter::Perfect, mk().into_iter(), u64::MAX);
        assert_eq!(oracle.replays, 0, "full knowledge avoids the replay");
        assert!(oracle.cycles + 50 <= with_replay.cycles, "the penalty is visible in cycles");

        // Without the replay model the baseline pays nothing either.
        let plain_cfg = CpuConfig::paper_eight_way();
        let mut h3 = hier();
        let plain =
            simulate(&plain_cfg, &mut h3, &mut ReplayFilter::Baseline, mk().into_iter(), u64::MAX);
        assert_eq!(plain.replays, 0);
        assert!(plain.cycles < with_replay.cycles);
    }

    #[test]
    fn dcache_ports_throttle_memory_bandwidth() {
        // Independent L1-hitting loads: with 1 port, at most 1 begins per
        // cycle; with 4 ports, 4 do.
        let mk = || -> Vec<Instr> {
            (0..4000u64)
                .map(|k| Instr {
                    pc: 0x40_0000 + 4 * (k % 8),
                    kind: InstrKind::Load { addr: 0x1000_0000 + (k % 8) * 32 },
                    src1: 0,
                    src2: 0,
                })
                .collect()
        };
        let mut narrow = CpuConfig::paper_eight_way();
        narrow.dcache_ports = 1;
        let mut h1 = hier();
        let one =
            simulate(&narrow, &mut h1, &mut ReplayFilter::Baseline, mk().into_iter(), u64::MAX);
        let wide = CpuConfig::paper_eight_way(); // 4 ports
        let mut h2 = hier();
        let four =
            simulate(&wide, &mut h2, &mut ReplayFilter::Baseline, mk().into_iter(), u64::MAX);
        assert!(one.cycles > four.cycles * 2, "1 port {} vs 4 ports {}", one.cycles, four.cycles);
    }

    #[test]
    fn trace_shorter_than_budget_ends_cleanly() {
        let cfg = CpuConfig::paper_eight_way();
        let mut h = hier();
        let s = simulate(&cfg, &mut h, &mut ReplayFilter::Baseline, ops(10, 0).into_iter(), 1000);
        assert_eq!(s.instructions, 10);
        assert!(s.cycles > 0);
    }
}
