//! The simulation engine: drives a prepared workload's reference stream
//! through a TLB hierarchy, the page-table walker, and the cache
//! hierarchy, collecting the counters every experiment consumes.
//!
//! This is the counterpart of the paper's "highly-detailed custom memory
//! simulator" (§5.2.1): trace-driven, with 32/128-entry L1/L2 TLBs by
//! default, a 16-entry superpage TLB, 22-entry MMU caches, and a
//! three-level cache hierarchy.

use colt_memsim::hierarchy::CacheHierarchy;
use colt_memsim::walker::{PageWalker, WalkedLeaf, WalkerStats};
use colt_os_mem::addr::PhysAddr;
use colt_tlb::config::TlbConfig;
use colt_tlb::hierarchy::{TlbHierarchy, TlbLevel, WalkFill};
use colt_tlb::stats::HierarchyStats;
use colt_workloads::scenario::PreparedWorkload;

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// TLB hierarchy configuration (mode, sizes, shift, policies).
    pub tlb: TlbConfig,
    /// Memory references to simulate.
    pub accesses: u64,
    /// References used to warm structures before counters reset.
    pub warmup: u64,
    /// Seed for the benchmark's access-pattern generator.
    pub pattern_seed: u64,
    /// Every N accesses, invalidate a recently used translation —
    /// TLB-shootdown churn from unrelated OS activity (migration, COW,
    /// unmap). Exercises the §4.1.5 invalidation policies.
    pub invalidate_period: Option<u64>,
    /// Run walks under nested paging (virtualization) — the environment
    /// the paper's introduction motivates, where walk penalties triple
    /// and coalescing pays the most.
    pub nested_paging: bool,
    /// Every N accesses, flush the whole hierarchy and the walker's MMU
    /// caches — a context switch on a machine without ASID/PCID tagging.
    pub flush_period: Option<u64>,
    /// Differential checking: verify every TLB hit's PFN against the live
    /// page table and count mismatches in
    /// [`SimResult::oracle_mismatches`]. Default off — the perf path pays
    /// exactly one predictable branch per hit.
    pub check: bool,
    /// References translated per batched hot-path call: the reference
    /// stream is generated and looked up in slices of this size (clamped
    /// to warmup/invalidate/flush boundaries), with runs of TLB hits
    /// translated ahead of their data accesses. Results are
    /// byte-identical for every batch size — `1` degenerates to the
    /// per-reference loop.
    pub batch: usize,
}

impl SimConfig {
    /// A config for `tlb` with the default reference budget.
    pub fn new(tlb: TlbConfig) -> Self {
        Self {
            tlb,
            accesses: 400_000,
            warmup: 40_000,
            pattern_seed: 0x5EED,
            invalidate_period: None,
            nested_paging: false,
            flush_period: None,
            check: false,
            batch: 256,
        }
    }

    /// Enables the differential translation oracle on every hit.
    #[must_use]
    pub fn with_check(mut self) -> Self {
        self.check = true;
        self
    }

    /// Flushes all translation state every `period` accesses (context
    /// switches without PCID).
    #[must_use]
    pub fn with_context_switches(mut self, period: u64) -> Self {
        self.flush_period = Some(period);
        self
    }

    /// Switches walks to two-dimensional nested paging.
    #[must_use]
    pub fn virtualized(mut self) -> Self {
        self.nested_paging = true;
        self
    }

    /// Enables shootdown churn every `period` accesses.
    #[must_use]
    pub fn with_invalidations(mut self, period: u64) -> Self {
        self.invalidate_period = Some(period);
        self
    }

    /// Overrides the access budget (warmup scales to 10%).
    #[must_use]
    pub fn with_accesses(mut self, accesses: u64) -> Self {
        self.accesses = accesses;
        self.warmup = accesses / 10;
        self
    }

    /// Overrides the hot-path batch size (clamped to at least 1).
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }
}

/// Everything one simulation run measured.
#[derive(Clone, Copy, Debug)]
pub struct SimResult {
    /// TLB hierarchy counters (post-warmup).
    pub tlb: HierarchyStats,
    /// Page-walker counters (post-warmup).
    pub walker: WalkerStats,
    /// Instructions represented by the measured references.
    pub instructions: u64,
    /// Cycles spent in page walks (serialized, on the critical path —
    /// the paper's interpolation assumption, §5.2.1).
    pub walk_cycles: u64,
    /// Data-access stall cycles beyond an L1 hit.
    pub data_stall_cycles: u64,
    /// Cycles spent on L2-TLB lookups after L1 misses.
    pub l2_tlb_cycles: u64,
    /// TLB hits whose PFN disagreed with the live page table — only
    /// counted when [`SimConfig::check`] is on; any nonzero value is a
    /// coalescing-consistency bug.
    pub oracle_mismatches: u64,
}

impl SimResult {
    /// L1 TLB misses per million instructions (Table 1's metric; the
    /// set-associative L1 and superpage TLB count together, §7.1.1).
    pub fn l1_mpmi(&self) -> f64 {
        mpmi(self.tlb.l1_misses, self.instructions)
    }

    /// L2 TLB misses (page walks) per million instructions.
    pub fn l2_mpmi(&self) -> f64 {
        mpmi(self.tlb.l2_misses, self.instructions)
    }
}

fn mpmi(misses: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        return 0.0;
    }
    misses as f64 * 1.0e6 / instructions as f64
}

/// Runs one simulation of `workload` under `config`.
///
/// The workload's kernel state (page tables, memory layout) is treated
/// as read-only: all four TLB modes can be compared against the *same*
/// allocation, exactly as the paper replays one trace through each
/// configuration.
pub fn run(workload: &PreparedWorkload, config: &SimConfig) -> SimResult {
    let mut pattern = workload.pattern(config.pattern_seed);
    run_stream(workload, config, || pattern.next_ref())
}

/// Replays an explicit reference trace (e.g. loaded with
/// [`colt_workloads::trace::read_trace`]) instead of the benchmark's
/// generated pattern; the trace wraps around if shorter than the access
/// budget.
///
/// # Panics
/// Panics if `refs` is empty or touches pages outside the workload's
/// mapped footprint.
pub fn run_trace(
    workload: &PreparedWorkload,
    config: &SimConfig,
    refs: &[colt_workloads::MemRef],
) -> SimResult {
    assert!(!refs.is_empty(), "trace must contain at least one reference");
    let mut i = 0usize;
    run_stream(workload, config, move || {
        let r = refs[i % refs.len()];
        i += 1;
        r
    })
}

fn run_stream(
    workload: &PreparedWorkload,
    config: &SimConfig,
    mut next_ref: impl FnMut() -> colt_workloads::MemRef,
) -> SimResult {
    let mut tlb = TlbHierarchy::new(config.tlb);
    let mut walker = if config.nested_paging {
        PageWalker::paper_default().nested()
    } else {
        PageWalker::paper_default()
    };
    // Background walker for prefetch requests (off the critical path but
    // still polluting the caches); kept separate so the demand walker's
    // accounting stays exactly walks == TLB misses.
    let mut prefetch_walker = if config.nested_paging {
        PageWalker::paper_default().nested()
    } else {
        PageWalker::paper_default()
    };
    let mut caches = CacheHierarchy::core_i7();
    let page_table = workload
        .kernel
        .process(workload.asid)
        .expect("workload process is live")
        .page_table();
    let latency = *caches.latency_model();

    let mut walk_cycles = 0u64;
    let mut data_stall_cycles = 0u64;
    let mut l2_tlb_cycles = 0u64;
    let mut measured = 0u64;
    let mut oracle_mismatches = 0u64;
    let mut warmup_walker_snapshot = walker.stats();
    let mut warmup_tlb_snapshot = tlb.stats();
    // Ring of recent vpns for shootdown churn.
    let mut recent = [colt_os_mem::addr::Vpn::new(0); 64];
    let mut recent_len = 0usize;

    // Batched hot path. The stream is consumed in chunks whose ends are
    // clamped to every event boundary (warmup snapshot, shootdown churn,
    // context-switch flush), so each event still fires after exactly the
    // reference it followed in the per-reference loop. Within a chunk the
    // hierarchy translates the leading run of hits in one call; since
    // lookups never touch the data caches, those translations can run
    // ahead of their data accesses without changing any state the miss
    // path (page walks through the caches) observes. Results are
    // byte-identical for every batch size.
    let batch = config.batch.max(1) as u64;
    let mut chunk: Vec<colt_workloads::MemRef> = Vec::with_capacity(batch as usize);
    let mut vpns: Vec<colt_os_mem::addr::Vpn> = Vec::with_capacity(batch as usize);
    let mut hits: Vec<colt_tlb::hierarchy::TlbHit> = Vec::with_capacity(batch as usize);

    let total = config.warmup + config.accesses;
    let mut i = 0u64;
    while i < total {
        if i == config.warmup {
            // Reset measurement at the warmup boundary by snapshotting.
            warmup_walker_snapshot = walker.stats();
            warmup_tlb_snapshot = tlb.stats();
            walk_cycles = 0;
            data_stall_cycles = 0;
            l2_tlb_cycles = 0;
            measured = 0;
            oracle_mismatches = 0;
        }
        let mut end = (i + batch).min(total);
        if i < config.warmup {
            end = end.min(config.warmup);
        }
        if let Some(p) = config.invalidate_period {
            end = end.min(i - i % p + p);
        }
        if let Some(p) = config.flush_period {
            end = end.min(i - i % p + p);
        }
        let n = (end - i) as usize;
        chunk.clear();
        vpns.clear();
        for _ in 0..n {
            let r = next_ref();
            vpns.push(r.vpn);
            chunk.push(r);
        }

        let mut k = 0usize;
        while k < n {
            hits.clear();
            let hit_run = tlb.lookup_batch(&vpns[k..], &mut hits);
            for (j, hit) in hits.iter().enumerate() {
                let r = chunk[k + j];
                if hit.level == TlbLevel::L2 {
                    l2_tlb_cycles += latency.l2_tlb;
                }
                if config.check
                    && page_table.translate(r.vpn).map(|t| t.pfn) != Some(hit.pfn)
                {
                    oracle_mismatches += 1;
                }
                let phys = PhysAddr::new(hit.pfn.raw() * 4096 + r.line as u64 * 64);
                let lat = caches.access_data(phys);
                data_stall_cycles += lat.saturating_sub(latency.l1);
                let gi = i + (k + j) as u64;
                recent[(gi % 64) as usize] = r.vpn;
                recent_len = recent_len.max((gi + 1).min(64) as usize);
            }
            k += hit_run;
            if k < n {
                // chunk[k]'s lookup was performed inside the batch and
                // missed: walk, fill, and serve prefetches exactly as the
                // per-reference loop's miss arm.
                let r = chunk[k];
                l2_tlb_cycles += latency.l2_tlb;
                let outcome = walker
                    .walk(page_table, r.vpn, &mut caches)
                    .expect("footprint pages are always mapped");
                walk_cycles += outcome.latency;
                let fill = match outcome.leaf {
                    WalkedLeaf::Base { line } => WalkFill::Base { line },
                    WalkedLeaf::Super { base_vpn, base_pfn, flags } => {
                        WalkFill::Super { base_vpn, base_pfn, flags }
                    }
                };
                tlb.fill(r.vpn, &fill);
                // Serve any queued prefetches in the background.
                for target in tlb.take_prefetch_requests() {
                    if let Some(po) = prefetch_walker.walk(page_table, target, &mut caches) {
                        tlb.fill_prefetch(target, po.translation.pfn, po.translation.flags);
                    }
                }
                let phys =
                    PhysAddr::new(outcome.translation.pfn.raw() * 4096 + r.line as u64 * 64);
                let lat = caches.access_data(phys);
                data_stall_cycles += lat.saturating_sub(latency.l1);
                let gi = i + k as u64;
                recent[(gi % 64) as usize] = r.vpn;
                recent_len = recent_len.max((gi + 1).min(64) as usize);
                k += 1;
            }
        }
        measured += n as u64;

        // Events fire after the reference that triggered them — chunk
        // ends are clamped so that reference is always the chunk's last.
        let last = end - 1;
        if let Some(period) = config.invalidate_period {
            if last % period == period - 1 && recent_len > 32 {
                // Shoot down the translation used ~32 accesses ago — and
                // reach the walker's MMU cache too: a real shootdown is
                // an `invlpg`, which drops paging-structure entries for
                // the page, not just the TLB entry.
                let victim = recent[((last + 64 - 32) % 64) as usize];
                tlb.invalidate(victim);
                walker.invalidate(page_table, victim);
            }
        }
        if let Some(period) = config.flush_period {
            if last % period == period - 1 {
                tlb.flush();
                walker.flush();
            }
        }
        i = end;
    }

    let tlb_stats = diff_tlb(tlb.stats(), warmup_tlb_snapshot);
    let walker_stats = diff_walker(walker.stats(), warmup_walker_snapshot);
    SimResult {
        tlb: tlb_stats,
        walker: walker_stats,
        instructions: workload.instructions(measured),
        walk_cycles,
        data_stall_cycles,
        l2_tlb_cycles,
        oracle_mismatches,
    }
}

fn diff_tlb(after: HierarchyStats, before: HierarchyStats) -> HierarchyStats {
    after.since(&before)
}

fn diff_walker(after: WalkerStats, before: WalkerStats) -> WalkerStats {
    after.since(&before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_workloads::scenario::Scenario;
    use colt_workloads::spec::benchmark;

    fn small_sim(tlb: TlbConfig) -> SimResult {
        let spec = benchmark("Gobmk").unwrap();
        let workload = Scenario::default_linux().prepare(&spec).unwrap();
        run(&workload, &SimConfig::new(tlb).with_accesses(30_000))
    }

    #[test]
    fn accounting_identities_hold() {
        let r = small_sim(TlbConfig::baseline());
        assert_eq!(r.tlb.accesses, 30_000);
        assert_eq!(r.tlb.l1_hits + r.tlb.l1_misses, r.tlb.accesses);
        assert_eq!(r.tlb.l2_hits + r.tlb.l2_misses, r.tlb.l1_misses);
        assert_eq!(r.walker.walks, r.tlb.l2_misses);
        assert_eq!(r.walker.faults, 0, "footprint is fully mapped");
        assert!(r.instructions >= r.tlb.accesses);
    }

    #[test]
    fn walk_cycles_match_walker_latency() {
        let r = small_sim(TlbConfig::baseline());
        assert_eq!(r.walk_cycles, r.walker.total_latency);
        assert!(r.walk_cycles > 0, "some walks must happen");
    }

    #[test]
    fn colt_reduces_misses_on_a_contiguous_workload() {
        // CactusADM has high contiguity under the default scenario; every
        // CoLT design must cut its walks. (Low-contiguity workloads can
        // legitimately see small CoLT-SA regressions from the shifted
        // indexing — Figure 19 shows the same.)
        let spec = benchmark("CactusADM").unwrap();
        let workload = Scenario::default_linux().prepare(&spec).unwrap();
        let run_one = |tlb: TlbConfig| {
            run(&workload, &SimConfig::new(tlb).with_accesses(30_000))
        };
        let base = run_one(TlbConfig::baseline());
        for config in [TlbConfig::colt_sa(), TlbConfig::colt_fa(), TlbConfig::colt_all()] {
            let r = run_one(config);
            assert!(
                r.tlb.l2_misses < base.tlb.l2_misses,
                "{:?} ({}) must beat baseline ({}) walks",
                config.mode,
                r.tlb.l2_misses,
                base.tlb.l2_misses
            );
        }
    }

    #[test]
    fn mpmi_reflects_instruction_scaling() {
        let spec = benchmark("Gobmk").unwrap();
        let r = small_sim(TlbConfig::baseline());
        let per_access_misses = r.tlb.l1_misses as f64 / r.tlb.accesses as f64;
        let expected = per_access_misses * 1e6 / spec.instructions_per_access as f64;
        assert!((r.l1_mpmi() - expected).abs() < 1e-6);
    }

    #[test]
    fn run_trace_wraps_short_traces() {
        let spec = benchmark("FastaProt").unwrap();
        let w = Scenario::default_linux().prepare(&spec).unwrap();
        let refs = w.pattern(5).take_refs(100);
        let cfg = SimConfig {
            warmup: 0,
            ..SimConfig::new(TlbConfig::baseline()).with_accesses(1_000)
        };
        let r = run_trace(&w, &cfg, &refs);
        assert_eq!(r.tlb.accesses, 1_000, "trace wraps to fill the budget");
        assert_eq!(r.walker.faults, 0);
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let spec = benchmark("FastaProt").unwrap();
        let w = Scenario::default_linux().prepare(&spec).unwrap();
        let cfg = SimConfig::new(TlbConfig::colt_all()).with_accesses(20_000);
        let a = run(&w, &cfg);
        let b = run(&w, &cfg);
        assert_eq!(a.tlb, b.tlb);
        assert_eq!(a.walk_cycles, b.walk_cycles);
    }

    #[test]
    fn batch_size_never_changes_results() {
        // The batched hot path must be byte-identical to the
        // per-reference loop (batch 1) for every batch size, including
        // sizes that straddle warmup/invalidate/flush boundaries and
        // with the oracle checking every hit.
        let spec = benchmark("Gobmk").unwrap();
        let w = Scenario::default_linux().prepare(&spec).unwrap();
        let configs = [
            SimConfig::new(TlbConfig::colt_all()).with_accesses(20_000).with_check(),
            SimConfig::new(TlbConfig::colt_sa())
                .with_accesses(20_000)
                .with_invalidations(37)
                .with_context_switches(4_999),
            SimConfig::new(TlbConfig::baseline()).with_accesses(10_000).with_invalidations(64),
        ];
        for cfg in configs {
            let per_ref = run(&w, &cfg.with_batch(1));
            for batch in [7, 256, 100_000] {
                let batched = run(&w, &cfg.with_batch(batch));
                assert_eq!(batched.tlb, per_ref.tlb, "batch {batch}");
                assert_eq!(batched.walker, per_ref.walker, "batch {batch}");
                assert_eq!(batched.walk_cycles, per_ref.walk_cycles, "batch {batch}");
                assert_eq!(
                    batched.data_stall_cycles, per_ref.data_stall_cycles,
                    "batch {batch}"
                );
                assert_eq!(batched.l2_tlb_cycles, per_ref.l2_tlb_cycles, "batch {batch}");
                assert_eq!(batched.instructions, per_ref.instructions, "batch {batch}");
                assert_eq!(
                    batched.oracle_mismatches, per_ref.oracle_mismatches,
                    "batch {batch}"
                );
            }
        }
    }

    #[test]
    fn shootdown_churn_raises_misses() {
        // The §4.1.5 invalidation path: shooting down a recently used
        // translation every few accesses must force re-walks. Gobmk
        // revisits a small hot set, so each victim is translated again
        // soon after the shootdown.
        let spec = benchmark("Gobmk").unwrap();
        let w = Scenario::default_linux().prepare(&spec).unwrap();
        let quiet = run(&w, &SimConfig::new(TlbConfig::colt_all()).with_accesses(30_000));
        let churny = run(
            &w,
            &SimConfig::new(TlbConfig::colt_all())
                .with_accesses(30_000)
                .with_invalidations(64),
        );
        assert_eq!(quiet.tlb.accesses, churny.tlb.accesses);
        assert!(
            churny.tlb.l2_misses > quiet.tlb.l2_misses,
            "shootdowns every 64 accesses must add L2 misses ({} vs quiet {})",
            churny.tlb.l2_misses,
            quiet.tlb.l2_misses
        );
        assert_eq!(churny.walker.walks, churny.tlb.l2_misses);
    }
}
