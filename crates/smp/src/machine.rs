//! The SMP machine: lockstep execution of a co-scheduled multiprogrammed
//! mix over N cores with private translation state and one shared LLC.
//!
//! ## Scheduling
//!
//! Workloads are placed by affinity — part `i` of the
//! [`MultiWorkload`] runs on core `i % cores` — and each core
//! round-robins its own run queue every [`SmpConfig::quantum`] steps.
//! A switch on an untagged core full-flushes its TLB and walker (the
//! paper's no-PCID machine); a tagged core just retargets the current
//! ASID and keeps every warmed entry.
//!
//! ## Shootdowns
//!
//! Kernel churn (compaction slices, direct compaction, THP splits,
//! reclaim) mutates page tables and logs
//! [`ShootdownEvent`](colt_os_mem::shootdown::ShootdownEvent)s. The
//! machine drains the log immediately after every mutation and delivers
//! each event to every core that may hold the event's address space:
//! in tagged mode that is every core whose residency set contains the
//! ASID (entries survive switches, so residency is sticky until a
//! flush); in untagged mode only cores *currently running* the ASID can
//! hold its entries, because switches flush everything. Deliveries to
//! the initiating core are local `invlpg`s; deliveries to any other
//! core are IPIs and charge the [`IpiCostModel`](crate::IpiCostModel)
//! to both ends.
//!
//! The kernel thread doing the churn is modeled as rotating over the
//! cores, so the initiator — and therefore which deliveries are remote
//! — is deterministic.

use crate::{CoreCounters, CoreResult, SmpConfig, SmpResult};
use colt_memsim::hierarchy::{PrivateCaches, SharedLlc};
use colt_memsim::walker::{PageWalker, WalkedLeaf, WalkerStats};
use colt_os_mem::addr::{Asid, PhysAddr};
use colt_os_mem::kernel::Kernel;
use colt_tlb::hierarchy::{TlbHierarchy, TlbLevel, WalkFill};
use colt_tlb::stats::HierarchyStats;
use colt_workloads::pattern::PatternGen;
use colt_workloads::scenario::MultiWorkload;

/// One core's private machinery.
struct Core {
    tlb: TlbHierarchy,
    walker: PageWalker,
    caches: PrivateCaches,
    /// Indices into `multi.parts` this core co-schedules.
    runq: Vec<usize>,
    /// Position of the running part within `runq`.
    slot: usize,
    /// ASIDs whose entries may still be resident in this core's TLB or
    /// walk caches — a conservative superset, cleared on full flushes.
    resident: Vec<Asid>,
    counters: CoreCounters,
}

/// Snapshot of one core's counters at the measurement boundary.
#[derive(Clone, Copy)]
struct CoreMark {
    tlb: HierarchyStats,
    walker: WalkerStats,
    counters: CoreCounters,
}

/// The whole simulated machine. Single-threaded; determinism comes from
/// the lockstep step loop, not from any synchronization.
pub struct SmpMachine {
    config: SmpConfig,
    multi: MultiWorkload,
    patterns: Vec<PatternGen>,
    cores: Vec<Core>,
    llc: SharedLlc,
    step: u64,
    churns: u64,
    marks: Vec<CoreMark>,
}

impl SmpMachine {
    /// Builds the machine around a prepared mix. Part `i` gets affinity
    /// to core `i % cores`; patterns are seeded
    /// `pattern_seed + part_index`.
    ///
    /// # Panics
    /// Panics if `multi` has no parts.
    pub fn new(mut multi: MultiWorkload, config: SmpConfig, pattern_seed: u64) -> Self {
        assert!(!multi.parts.is_empty(), "an SMP mix needs at least one workload");
        let n_cores = config.cores.max(1);
        let patterns: Vec<PatternGen> = (0..multi.parts.len())
            .map(|i| multi.pattern(i, pattern_seed.wrapping_add(i as u64)))
            .collect();
        multi.kernel.enable_shootdown_log();
        // Preparation may already have compacted or reclaimed; nothing
        // is cached yet, so those events are moot.
        let _ = multi.kernel.take_shootdowns();

        let mut cores = Vec::with_capacity(n_cores);
        for c in 0..n_cores {
            let runq: Vec<usize> =
                (0..multi.parts.len()).filter(|i| i % n_cores == c).collect();
            let mut walker = if config.nested_paging {
                PageWalker::paper_default().nested()
            } else {
                PageWalker::paper_default()
            };
            if config.is_tagged() {
                walker = walker.with_asid_tagging();
            }
            let mut tlb = TlbHierarchy::new(config.tlb);
            if config.is_tagged() {
                if let Some(&first) = runq.first() {
                    let asid = multi.parts[first].1;
                    tlb.set_current_asid(asid);
                    walker.set_current_asid(asid);
                }
            }
            cores.push(Core {
                tlb,
                walker,
                caches: PrivateCaches::core_i7(),
                runq,
                slot: 0,
                resident: Vec::new(),
                counters: CoreCounters::default(),
            });
        }
        let marks = cores
            .iter()
            .map(|c| CoreMark {
                tlb: c.tlb.stats(),
                walker: c.walker.stats(),
                counters: c.counters,
            })
            .collect();
        Self {
            config,
            multi,
            patterns,
            cores,
            llc: SharedLlc::core_i7(),
            step: 0,
            churns: 0,
            marks,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Global steps executed so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Whether the machine runs in ASID-tagged mode.
    pub fn is_tagged(&self) -> bool {
        self.config.is_tagged()
    }

    /// The shared kernel (for oracle checks against live page tables).
    pub fn kernel(&self) -> &Kernel {
        &self.multi.kernel
    }

    /// Arms deterministic fault injection in the shared kernel. Called
    /// after construction so workload preparation (aging, memhog, the
    /// allocation phase) matches the fault-free machine bit for bit and
    /// only the simulated phase degrades.
    pub fn install_fault_plan(&mut self, config: colt_os_mem::faults::FaultConfig) {
        self.multi.kernel.set_fault_plan(config);
    }

    /// The shared kernel's counters (fault-injection and degradation
    /// totals included).
    pub fn kernel_stats(&self) -> colt_os_mem::kernel::KernelStats {
        self.multi.kernel.stats()
    }

    /// Core `c`'s TLB hierarchy (read-only inspection).
    pub fn core_tlb(&self, c: usize) -> &TlbHierarchy {
        &self.cores[c].tlb
    }

    /// The ASID core `c` is currently running (`None` for idle cores
    /// when there are more cores than workloads).
    pub fn running_asid(&self, c: usize) -> Option<Asid> {
        let core = &self.cores[c];
        core.runq.get(core.slot).map(|&i| self.multi.parts[i].1)
    }

    /// Advances every core by one memory reference (in core order),
    /// handling scheduling boundaries and kernel churn first.
    pub fn step(&mut self) {
        if self.step > 0 && self.step % self.config.quantum == 0 {
            self.switch_all();
        }
        if let Some(period) = self.config.churn_period {
            if self.step % period == period - 1 {
                self.churn();
            }
        }
        for c in 0..self.cores.len() {
            self.access(c);
        }
        self.step += 1;
    }

    /// Runs `steps` global steps.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Marks the measurement boundary: counters accumulated before this
    /// call are excluded from [`SmpMachine::result`] (warmup).
    pub fn mark(&mut self) {
        self.marks = self
            .cores
            .iter()
            .map(|c| CoreMark {
                tlb: c.tlb.stats(),
                walker: c.walker.stats(),
                counters: c.counters,
            })
            .collect();
    }

    /// Per-core results since the last [`SmpMachine::mark`] (or since
    /// construction), plus shared-LLC counters.
    pub fn result(&self) -> SmpResult {
        let cores = self
            .cores
            .iter()
            .zip(&self.marks)
            .map(|(c, m)| CoreResult {
                tlb: c.tlb.stats().since(&m.tlb),
                walker: c.walker.stats().since(&m.walker),
                counters: c.counters.since(&m.counters),
            })
            .collect();
        SmpResult { cores, llc: self.llc.stats() }
    }

    /// Rotates every multi-workload core to its next runnable part.
    fn switch_all(&mut self) {
        let tagged = self.config.is_tagged();
        for core in &mut self.cores {
            if core.runq.len() < 2 {
                continue;
            }
            core.slot = (core.slot + 1) % core.runq.len();
            let asid = self.multi.parts[core.runq[core.slot]].1;
            core.counters.context_switches += 1;
            if tagged {
                core.tlb.set_current_asid(asid);
                core.walker.set_current_asid(asid);
                core.counters.flushes_avoided += 1;
            } else {
                core.tlb.flush();
                core.walker.flush();
                core.resident.clear();
                core.counters.full_flushes += 1;
            }
        }
    }

    /// One kernel-churn slice: the kernel thread (rotating over cores)
    /// runs a background-compaction tick, a direct compaction pass, a
    /// THP pressure split, or page-cache reclaim, then broadcasts the
    /// resulting shootdowns.
    fn churn(&mut self) {
        match self.churns % 4 {
            0 => self.multi.kernel.tick(),
            1 => {
                self.multi.kernel.compact_now();
            }
            2 => {
                self.multi.kernel.split_superpages(1);
            }
            _ => {
                self.multi.kernel.reclaim_file_pages(32);
            }
        }
        let initiator = (self.churns as usize) % self.cores.len();
        self.churns += 1;
        self.deliver_shootdowns(initiator);
    }

    /// Drains the kernel's shootdown log and delivers every event to
    /// each core that may hold the event's address space. The
    /// `initiator` core performs its own invalidations locally; every
    /// other delivery is an IPI with its cost charged to both ends.
    fn deliver_shootdowns(&mut self, initiator: usize) {
        let tagged = self.config.is_tagged();
        let ipi = self.config.ipi;
        for ev in self.multi.kernel.take_shootdowns() {
            for c in 0..self.cores.len() {
                let holds = if tagged {
                    self.cores[c].resident.contains(&ev.asid)
                } else {
                    self.running_asid(c) == Some(ev.asid)
                        && !self.cores[c].resident.is_empty()
                };
                if !holds {
                    continue;
                }
                let core = &mut self.cores[c];
                if tagged {
                    core.tlb.invalidate_asid(ev.vpn, ev.asid);
                    core.walker.invalidate_addrs_asid(&ev.entry_addrs, ev.asid);
                } else {
                    core.tlb.invalidate(ev.vpn);
                    core.walker.invalidate_addrs(&ev.entry_addrs);
                }
                if c != initiator {
                    let invalidated = 1 + ev.entry_addrs.len() as u64;
                    let remote = &mut self.cores[c].counters;
                    remote.ipis_received += 1;
                    remote.remote_invalidations += invalidated;
                    remote.ipi_cycles += ipi.receive + ipi.per_invalidation * invalidated;
                    let sender = &mut self.cores[initiator].counters;
                    sender.ipis_sent += 1;
                    sender.ipi_cycles += ipi.send;
                }
            }
        }
    }

    /// One memory reference on core `c`.
    fn access(&mut self, c: usize) {
        let Some(&part_idx) = self.cores[c].runq.get(self.cores[c].slot) else {
            return; // idle core: more cores than workloads
        };
        let (ref spec, asid, _) = self.multi.parts[part_idx];
        let ipa = spec.instructions_per_access;
        let r = self.patterns[part_idx].next_ref();
        let latency = *self.cores[c].caches.latency_model();

        self.cores[c].counters.accesses += 1;
        self.cores[c].counters.instructions += ipa;

        let pfn = match self.cores[c].tlb.lookup(r.vpn) {
            Some(hit) => {
                if hit.level == TlbLevel::L2 {
                    self.cores[c].counters.l2_tlb_cycles += latency.l2_tlb;
                }
                hit.pfn
            }
            None => {
                self.cores[c].counters.l2_tlb_cycles += latency.l2_tlb;
                let mapped = self
                    .multi
                    .kernel
                    .process(asid)
                    .expect("mix process is live")
                    .translate(r.vpn)
                    .is_some();
                if !mapped {
                    // Reclaimed or punctured page: fault it back in. The
                    // refault may itself reclaim or compact, so deliver
                    // those shootdowns (initiated here) before walking.
                    if self.multi.kernel.touch(asid, r.vpn).is_err() {
                        return;
                    }
                    self.deliver_shootdowns(c);
                }
                let pt = self.multi.kernel.process(asid).expect("mix process is live").page_table();
                let core = &mut self.cores[c];
                let outcome = core
                    .walker
                    .walk(pt, r.vpn, &mut self.llc)
                    .expect("page is mapped after the refault");
                core.counters.walk_cycles += outcome.latency;
                let fill = match outcome.leaf {
                    WalkedLeaf::Base { line } => WalkFill::Base { line },
                    WalkedLeaf::Super { base_vpn, base_pfn, flags } => {
                        WalkFill::Super { base_vpn, base_pfn, flags }
                    }
                };
                core.tlb.fill(r.vpn, &fill);
                // The SMP model has no per-core prefetch engine; drop any
                // queued prefetch requests (none in the paper configs).
                let _ = core.tlb.take_prefetch_requests();
                if !core.resident.contains(&asid) {
                    core.resident.push(asid);
                }
                outcome.translation.pfn
            }
        };
        let phys = PhysAddr::new(pfn.raw() * 4096 + r.line as u64 * 64);
        let lat = self.cores[c].caches.access_data(phys, &mut self.llc);
        self.cores[c].counters.data_stall_cycles += lat.saturating_sub(latency.l1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_tlb::config::TlbConfig;
    use colt_workloads::scenario::Scenario;
    use colt_workloads::spec::benchmark;

    fn mix(names: &[&str]) -> MultiWorkload {
        let specs: Vec<_> =
            names.iter().map(|n| benchmark(n).expect("Table-1 benchmark")).collect();
        Scenario::default_linux().prepare_many(&specs).unwrap()
    }

    fn small_machine(cores: usize, tagged: bool) -> SmpMachine {
        let mut cfg = SmpConfig::new(cores, TlbConfig::colt_all())
            .with_quantum(500)
            .with_churn_period(Some(333));
        if tagged {
            cfg = cfg.tagged();
        }
        SmpMachine::new(mix(&["Gobmk", "Povray", "FastaProt", "Sjeng"]), cfg, 0x5EED)
    }

    #[test]
    fn lockstep_run_is_deterministic() {
        let run = || {
            let mut m = small_machine(2, true);
            m.run(4_000);
            m.result()
        };
        let (a, b) = (run(), run());
        for (x, y) in a.cores.iter().zip(&b.cores) {
            assert_eq!(x.tlb, y.tlb);
            assert_eq!(x.walker, y.walker);
            assert_eq!(x.counters, y.counters);
        }
        assert_eq!(a.llc, b.llc);
    }

    #[test]
    fn accounting_identities_hold_per_core() {
        let mut m = small_machine(2, false);
        m.run(1_000);
        m.mark();
        m.run(3_000);
        let r = m.result();
        for (i, core) in r.cores.iter().enumerate() {
            assert_eq!(core.counters.accesses, 3_000, "core {i}");
            assert_eq!(core.tlb.accesses, core.counters.accesses, "core {i}");
            assert_eq!(core.tlb.l1_hits + core.tlb.l1_misses, core.tlb.accesses);
            assert_eq!(core.tlb.l2_hits + core.tlb.l2_misses, core.tlb.l1_misses);
            assert_eq!(core.walker.walks, core.tlb.l2_misses, "core {i}");
        }
        let agg = r.aggregate();
        assert_eq!(agg.tlb.accesses, 6_000);
        assert!(agg.counters.instructions > agg.counters.accesses);
    }

    #[test]
    fn tagging_avoids_every_context_switch_flush() {
        let mut untagged = small_machine(2, false);
        let mut tagged = small_machine(2, true);
        untagged.run(4_000);
        tagged.run(4_000);
        let u = untagged.result().aggregate().counters;
        let t = tagged.result().aggregate().counters;
        assert!(u.context_switches > 0, "quantum 500 over 4000 steps must switch");
        assert_eq!(u.full_flushes, u.context_switches);
        assert_eq!(u.flushes_avoided, 0);
        assert_eq!(t.full_flushes, 0, "tagged cores never flush at switches");
        assert_eq!(t.flushes_avoided, t.context_switches);
        assert!(t.full_flushes < u.full_flushes);
    }

    #[test]
    fn churn_produces_remote_shootdown_ipis_when_tagged() {
        let mut m = small_machine(2, true);
        m.run(8_000);
        let agg = m.result().aggregate().counters;
        assert!(
            agg.ipis_sent > 0 && agg.ipis_received > 0,
            "compaction/split/reclaim churn must reach remote cores: {agg:?}"
        );
        assert_eq!(agg.ipis_sent, agg.ipis_received);
        assert!(agg.remote_invalidations > 0);
        assert!(agg.ipi_cycles > 0, "IPIs must cost cycles");
    }

    #[test]
    fn idle_cores_do_nothing_when_cores_exceed_workloads() {
        let cfg = SmpConfig::new(4, TlbConfig::baseline()).with_churn_period(None);
        let mut m = SmpMachine::new(mix(&["Gobmk", "Povray"]), cfg, 7);
        m.run(1_000);
        let r = m.result();
        assert_eq!(r.cores.len(), 4);
        assert_eq!(r.cores[0].counters.accesses, 1_000);
        assert_eq!(r.cores[1].counters.accesses, 1_000);
        assert_eq!(r.cores[2].counters.accesses, 0, "no affinity, no work");
        assert_eq!(r.cores[3].counters.accesses, 0);
        assert!(m.running_asid(2).is_none());
    }
}
