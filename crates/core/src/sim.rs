//! The simulation engine: drives a prepared workload's reference stream
//! one reference at a time through the shared MMU step
//! ([`colt_memsim::mmu::Mmu`]: TLB lookup, and on a miss the page walk,
//! fill and prefetch walks) and the data-cache hierarchy, collecting the
//! counters every experiment consumes.
//!
//! This is the counterpart of the paper's "highly-detailed custom memory
//! simulator" (§5.2.1): trace-driven, with 32/128-entry L1/L2 TLBs by
//! default, a 16-entry superpage TLB, 22-entry MMU caches, and a
//! three-level cache hierarchy.
//!
//! A run splits into two halves. The reference stream and where each
//! data access hits in the private L1/L2 caches are the same under every
//! TLB configuration: PTE fetches stop at the LLC (§4.1.1), flushes and
//! shootdowns reach only the TLBs and MMU caches, and translation is
//! exact, so the L1/L2 see the same data lines whatever translates
//! them. The TLB lookup, the walk through the MMU caches and the LLC
//! (shared by PTE fetches and L2 misses) are not. [`run_from`] can
//! record the first half ([`Source::Record`], one `u64` per reference)
//! and replay it under another configuration ([`Source::Replay`]); the
//! sweep runner does so for cells with the same workload, pattern seed
//! and length, and every result stays bit-identical to [`run`].

use colt_memsim::hierarchy::{PrivateCaches, SharedLlc};
use colt_memsim::mmu::Mmu;
use colt_memsim::walker::WalkerStats;
use colt_os_mem::addr::{PhysAddr, Vpn};
use colt_tlb::config::TlbConfig;
use colt_tlb::hierarchy::TlbLevel;
use colt_tlb::stats::HierarchyStats;
use colt_workloads::scenario::PreparedWorkload;
use colt_workloads::MemRef;

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
    /// Unused: the simulator translates one reference at a time. Only
    /// `benchmark/`'s traced replay, a chunked copy of an older loop,
    /// still reads it; the field goes with that copy (ROADMAP J).
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
    run_from(workload, config, Source::Generate)
}

/// The half of a run every TLB configuration shares: the reference
/// stream and where each data access hit in the private L1/L2 caches,
/// one `u64` per reference (8 bytes). Made by [`Source::Record`],
/// replayed by [`Source::Replay`].
#[derive(Clone, Debug, Default)]
pub struct Recording {
    pattern_seed: u64,
    /// Per reference: the page above bit 9, the store flag at bit 8,
    /// the line at bits 2–7, and the private level that hit at bits 0–1
    /// (0 when the access went on to the LLC).
    words: Vec<u64>,
}

/// Where a run's reference stream, and each reference's outcome in the
/// private L1/L2 data caches, come from.
pub enum Source<'a> {
    /// Generate the benchmark's pattern and simulate the private caches.
    Generate,
    /// As `Generate`, and record the shared half into the recording
    /// (replacing what it held).
    Record(&'a mut Recording),
    /// Replay a recording of the same workload, pattern seed and
    /// `warmup + accesses`, made under any configuration: only the TLBs,
    /// the walk and the LLC are simulated.
    ///
    /// A recording of another workload gives wrong results; the seed
    /// and length are checked.
    Replay(&'a Recording),
}

/// Runs one simulation of `workload` under `config`, taking the
/// reference stream and its L1/L2 outcomes from `source`. Every source
/// gives the same [`SimResult`].
///
/// # Panics
/// Panics if a replayed recording's pattern seed or length differs from
/// `config`'s.
pub fn run_from(workload: &PreparedWorkload, config: &SimConfig, source: Source<'_>) -> SimResult {
    let generated = || {
        let mut pattern = workload.pattern(config.pattern_seed);
        Generated::new(move || pattern.next_ref())
    };
    match source {
        Source::Generate => run_stream(workload, config, generated()),
        Source::Record(recording) => {
            recording.pattern_seed = config.pattern_seed;
            recording.words.clear();
            recording.words.reserve_exact((config.warmup + config.accesses) as usize);
            let recorder = Recorder { inner: generated(), words: &mut recording.words };
            run_stream(workload, config, recorder)
        }
        Source::Replay(recording) => {
            assert_eq!(
                recording.pattern_seed, config.pattern_seed,
                "a recording of another pattern seed"
            );
            assert_eq!(
                recording.words.len() as u64,
                config.warmup + config.accesses,
                "a recording of another length"
            );
            run_stream(workload, config, Replayed { words: recording.words.iter(), hit: None })
        }
    }
}

/// Replays an explicit reference trace (e.g. loaded with
/// [`colt_workloads::trace::read_trace`]) instead of the benchmark's
/// generated pattern; the trace wraps around if shorter than the access
/// budget.
///
/// # Panics
/// Panics if `refs` is empty or touches pages outside the workload's
/// mapped footprint.
pub fn run_trace(workload: &PreparedWorkload, config: &SimConfig, refs: &[MemRef]) -> SimResult {
    assert!(!refs.is_empty(), "trace must contain at least one reference");
    let mut i = 0usize;
    run_stream(
        workload,
        config,
        Generated::new(move || {
            let r = refs[i % refs.len()];
            i += 1;
            r
        }),
    )
}

/// A reference stream, with where each reference's data access hits in
/// the private L1/L2 caches.
trait Stream {
    /// The next reference.
    fn next_ref(&mut self) -> MemRef;
    /// The private level (1 or 2) that `r`'s data access to `phys` hit,
    /// or `None` when it goes on to the LLC. `r` is the reference
    /// [`next_ref`](Stream::next_ref) just returned.
    fn private_hit(&mut self, r: MemRef, phys: PhysAddr) -> Option<u8>;
}

/// A generated stream through simulated private caches.
struct Generated<F> {
    next: F,
    caches: PrivateCaches,
}

impl<F> Generated<F> {
    fn new(next: F) -> Self {
        Self { next, caches: PrivateCaches::core_i7() }
    }
}

impl<F: FnMut() -> MemRef> Stream for Generated<F> {
    #[inline]
    fn next_ref(&mut self) -> MemRef {
        (self.next)()
    }

    #[inline]
    fn private_hit(&mut self, _: MemRef, phys: PhysAddr) -> Option<u8> {
        self.caches.access_private(phys)
    }
}

/// A stream that records another as it runs.
struct Recorder<'a, S> {
    inner: S,
    words: &'a mut Vec<u64>,
}

impl<S: Stream> Stream for Recorder<'_, S> {
    #[inline]
    fn next_ref(&mut self) -> MemRef {
        self.inner.next_ref()
    }

    #[inline]
    fn private_hit(&mut self, r: MemRef, phys: PhysAddr) -> Option<u8> {
        let hit = self.inner.private_hit(r, phys);
        assert!(r.vpn.raw() < 1 << 55, "a page number wider than a recording word");
        self.words.push(
            r.vpn.raw() << 9
                | u64::from(r.write) << 8
                | u64::from(r.line) << 2
                | u64::from(hit.unwrap_or(0)),
        );
        hit
    }
}

/// A recorded stream.
struct Replayed<'a> {
    words: std::slice::Iter<'a, u64>,
    /// The private outcome of the reference last returned.
    hit: Option<u8>,
}

impl Stream for Replayed<'_> {
    #[inline]
    fn next_ref(&mut self) -> MemRef {
        let word = *self.words.next().expect("the recording covers the run");
        self.hit = match word & 3 {
            0 => None,
            level => Some(level as u8),
        };
        MemRef { vpn: Vpn::new(word >> 9), line: (word >> 2 & 63) as u8, write: word >> 8 & 1 == 1 }
    }

    #[inline]
    fn private_hit(&mut self, _: MemRef, _: PhysAddr) -> Option<u8> {
        self.hit
    }
}

fn run_stream(
    workload: &PreparedWorkload,
    config: &SimConfig,
    mut stream: impl Stream,
) -> SimResult {
    let mut mmu = Mmu::new(config.tlb, config.nested_paging);
    let mut llc = SharedLlc::core_i7();
    let page_table = workload
        .kernel
        .process(workload.asid)
        .expect("workload process is live")
        .page_table();
    let latency = *llc.latency_model();

    let mut walk_cycles = 0u64;
    let mut data_stall_cycles = 0u64;
    let mut l2_tlb_cycles = 0u64;
    let mut measured = 0u64;
    let mut oracle_mismatches = 0u64;
    let mut warmup_tlb = mmu.tlb().stats();
    let mut warmup_walker = mmu.walker().stats();
    // Ring of recent vpns for shootdown churn.
    let mut recent = [Vpn::new(0); 64];

    for i in 0..config.warmup + config.accesses {
        if i == config.warmup {
            // Reset measurement at the warmup boundary by snapshotting.
            warmup_tlb = mmu.tlb().stats();
            warmup_walker = mmu.walker().stats();
            walk_cycles = 0;
            data_stall_cycles = 0;
            l2_tlb_cycles = 0;
            measured = 0;
            oracle_mismatches = 0;
        }
        let r = stream.next_ref();
        let pfn = match mmu.lookup(r.vpn) {
            Some(hit) => {
                if hit.level == TlbLevel::L2 {
                    l2_tlb_cycles += latency.l2_tlb;
                }
                if config.check
                    && page_table.translate(r.vpn).map(|t| t.pfn) != Some(hit.pfn)
                {
                    oracle_mismatches += 1;
                }
                hit.pfn
            }
            None => {
                l2_tlb_cycles += latency.l2_tlb;
                let walk = mmu
                    .walk_fill(page_table, r.vpn, &mut llc)
                    .expect("footprint pages are always mapped");
                walk_cycles += walk.latency;
                walk.translation.pfn
            }
        };
        let phys = PhysAddr::new(pfn.raw() * 4096 + r.line as u64 * 64);
        let data_cycles = match stream.private_hit(r, phys) {
            Some(level) => latency.data_hit_at(level),
            None => llc.access_data(phys),
        };
        data_stall_cycles += data_cycles.saturating_sub(latency.l1);
        recent[(i % 64) as usize] = r.vpn;
        measured += 1;

        // Events fire after the reference that triggered them.
        if let Some(period) = config.invalidate_period {
            if i % period == period - 1 && i >= 32 {
                // Shoot down the translation used 32 accesses ago, in
                // the walker's MMU cache too: a real shootdown is an
                // `invlpg`, which drops paging-structure entries for the
                // page, not just the TLB entry.
                mmu.invalidate(page_table, recent[((i + 64 - 32) % 64) as usize]);
            }
        }
        if let Some(period) = config.flush_period {
            if i % period == period - 1 {
                mmu.flush();
            }
        }
    }

    SimResult {
        tlb: mmu.tlb().stats().since(&warmup_tlb),
        walker: mmu.walker().stats().since(&warmup_walker),
        instructions: workload.instructions(measured),
        walk_cycles,
        data_stall_cycles,
        l2_tlb_cycles,
        oracle_mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_tlb::prefetch::PrefetchConfig;
    use colt_tlb::replacement::ReplacementPolicy;
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

    /// Every `SimResult` counter, in a fixed order. The destructuring
    /// names each field without `..`, so a field added to any of the
    /// three structs fails to compile here until it is pinned too.
    fn every_field(r: &SimResult) -> [u64; 27] {
        let SimResult {
            tlb,
            walker,
            instructions,
            walk_cycles,
            data_stall_cycles,
            l2_tlb_cycles,
            oracle_mismatches,
        } = *r;
        let HierarchyStats {
            accesses,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            fills,
            superpage_fills,
            pb_hits,
            coalesce_hist: h,
            coalesce_overflow,
            asid_flushes,
            asid_entries_flushed,
        } = tlb;
        let WalkerStats { walks, total_latency, faults } = walker;
        [
            accesses, l1_hits, l1_misses, l2_hits, l2_misses, fills, superpage_fills, pb_hits,
            h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7],
            coalesce_overflow, asid_flushes, asid_entries_flushed,
            walks, total_latency, faults, instructions,
            walk_cycles, data_stall_cycles, l2_tlb_cycles, oracle_mismatches,
        ]
    }

    #[test]
    fn pinned_results_hold_for_every_step_variant() {
        // Recorded with the chunked hot path that the per-reference step
        // replaced; the step must reproduce them exactly. The cases cover
        // the oracle on every hit, shootdown churn with context-switch
        // flushes (SA), churn alone (baseline), nested walks under churn
        // (All), and the prefetch buffer's background walks across flushes.
        // The last three reach the TLBs' other victim and merge paths:
        // coalescing-aware replacement (All), graceful uncoalescing under
        // churn with every future-work refinement (All), and CoLT-FA
        // without resident merging.
        let spec = benchmark("Gobmk").unwrap();
        let w = Scenario::default_linux().prepare(&spec).unwrap();
        let prefetching =
            TlbConfig::baseline().with_prefetch(PrefetchConfig { buffer_entries: 16, degree: 2 });
        let smallest_first = TlbConfig {
            replacement: ReplacementPolicy::SmallestCoalescedFirst,
            ..TlbConfig::colt_all()
        };
        let no_merge = TlbConfig { fa_resident_merge: false, ..TlbConfig::colt_fa() };
        let cases: [(SimConfig, [u64; 27]); 8] = [
            (
                SimConfig::new(TlbConfig::colt_all()).with_accesses(20_000).with_check(),
                [
                    20_000, 19_924, 76, 7, 69, 69, 0, 0,
                    2, 3, 2, 7, 8, 11, 7, 29, 0, 0, 0,
                    69, 11_856, 0, 180_000, 11_856, 304_156, 532, 0,
                ],
            ),
            (
                SimConfig::new(TlbConfig::colt_sa())
                    .with_accesses(20_000)
                    .with_invalidations(37)
                    .with_context_switches(4_999),
                [
                    20_000, 19_333, 667, 1, 666, 666, 0, 0,
                    27, 52, 76, 511, 0, 0, 0, 0, 0, 0, 0,
                    666, 94_886, 0, 180_000, 94_886, 304_156, 4669, 0,
                ],
            ),
            (
                SimConfig::new(TlbConfig::baseline()).with_accesses(10_000).with_invalidations(64),
                [
                    10_000, 9519, 481, 229, 252, 252, 0, 0,
                    252, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    252, 31_472, 0, 90_000, 31_472, 308_432, 3367, 0,
                ],
            ),
            (
                SimConfig::new(TlbConfig::colt_all())
                    .with_accesses(20_000)
                    .virtualized()
                    .with_invalidations(101),
                [
                    20_000, 19_665, 335, 69, 266, 266, 0, 0,
                    2, 17, 17, 35, 41, 11, 7, 136, 0, 0, 0,
                    266, 93_260, 0, 180_000, 93_260, 304_156, 2345, 0,
                ],
            ),
            (
                SimConfig::new(prefetching).with_accesses(20_000).with_context_switches(4_999),
                [
                    20_000, 19_486, 514, 285, 229, 229, 0, 195,
                    229, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    229, 16_942, 0, 180_000, 16_942, 304_156, 3598, 0,
                ],
            ),
            (
                SimConfig::new(smallest_first).with_accesses(20_000),
                [
                    20_000, 19_911, 89, 16, 73, 73, 0, 0,
                    2, 3, 3, 7, 7, 12, 8, 31, 0, 0, 0,
                    73, 12_008, 0, 180_000, 12_008, 304_156, 623, 0,
                ],
            ),
            (
                SimConfig::new(TlbConfig::colt_all().with_future_work())
                    .with_accesses(20_000)
                    .with_invalidations(37),
                [
                    20_000, 19_346, 654, 79, 575, 575, 0, 0,
                    2, 42, 64, 79, 87, 12, 9, 280, 0, 0, 0,
                    575, 81_548, 0, 180_000, 81_548, 304_156, 4578, 0,
                ],
            ),
            (
                SimConfig::new(no_merge).with_accesses(20_000),
                [
                    20_000, 19_910, 90, 6, 84, 84, 0, 0,
                    2, 3, 4, 8, 8, 14, 8, 37, 0, 0, 0,
                    84, 12_426, 0, 180_000, 12_426, 304_156, 630, 0,
                ],
            ),
        ];
        for (i, (cfg, pinned)) in cases.iter().enumerate() {
            assert_eq!(every_field(&run(&w, cfg)), *pinned, "case {i}");
            // Again from a recording made under the next case's config
            // with this case's seed and budget: flushes, churn, nested
            // walks and prefetches there must not leak into the replay.
            let (next, next_pinned) = &cases[(i + 1) % cases.len()];
            let recorder = SimConfig {
                pattern_seed: cfg.pattern_seed,
                warmup: cfg.warmup,
                accesses: cfg.accesses,
                ..*next
            };
            let mut recording = Recording::default();
            let recorded = run_from(&w, &recorder, Source::Record(&mut recording));
            if next.accesses == cfg.accesses {
                assert_eq!(every_field(&recorded), *next_pinned, "case {} recording", i + 1);
            }
            let replayed = run_from(&w, cfg, Source::Replay(&recording));
            assert_eq!(every_field(&replayed), *pinned, "case {i} replayed");
        }
    }

    #[test]
    fn a_replay_checks_the_recordings_seed_and_length() {
        let spec = benchmark("Gobmk").unwrap();
        let w = Scenario::default_linux().prepare(&spec).unwrap();
        let cfg = SimConfig::new(TlbConfig::baseline()).with_accesses(2_000);
        let mut recording = Recording::default();
        run_from(&w, &cfg, Source::Record(&mut recording));
        assert_eq!(recording.words.len(), 2_200);
        for other in [SimConfig { pattern_seed: 7, ..cfg }, cfg.with_accesses(3_000)] {
            let replay = || run_from(&w, &other, Source::Replay(&recording));
            assert!(std::panic::catch_unwind(replay).is_err(), "{other:?}");
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
