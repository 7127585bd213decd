//! Differential translation oracle + coalescing invariant checker.
//!
//! Coalesced TLBs fail in ways miss-ratio curves never show: a stale
//! entry that survives a page migration still *hits*, it just returns
//! the old frame. This module makes such bugs loud. It has three layers:
//!
//! 1. **Translation oracle** — every entry resident in any TLB structure
//!    is compared, translation by translation, against the live page
//!    table ([`check_hierarchy`]); the per-hit variant lives on the hot
//!    path behind [`crate::sim::SimConfig::check`].
//! 2. **Structural invariants** — coalesced runs must respect the
//!    hardware encodings of Figures 4/5: set-associative runs confined
//!    to one `2^shift` index group (the valid bitmap has `2^shift`
//!    bits), fully-associative ranges within the 5-bit
//!    [`MAX_RANGE_LEN`] length field, superpage entries exactly 512
//!    aligned pages, no two entries of one structure answering the same
//!    VPN with different frames, and base-PFN arithmetic consistent.
//! 3. **A fuzz driver** ([`replay`]/[`run_check`]) — interleaves kernel
//!    events (compaction, THP split + puncture, munmap, reclaim,
//!    context switches) with translation streams across every TLB
//!    configuration, delivering each recorded
//!    [`colt_os_mem::shootdown::ShootdownEvent`] as a per-VPN TLB +
//!    walker invalidation and cross-checking the walker's MMU cache
//!    afterwards. Failing event lists are minimised with
//!    [`colt_quickprop::shrink_list`] before being reported.
//!
//! Everything here is diagnostic-only: nothing in this module runs
//! unless the checker is explicitly invoked (`repro --check`), and the
//! simulation loop's oracle costs one predictable branch per hit when
//! disabled.

use crate::experiments::smp::MIX_LIGHT;
use crate::runner::{self, SweepCell};
use colt_memsim::hierarchy::CacheHierarchy;
use colt_memsim::mmu::Mmu;
use colt_os_mem::addr::{Asid, Pfn, PhysAddr, Vpn, SUPERPAGE_PAGES};
use colt_os_mem::faults::{DeliveryFault, FaultConfig, FaultPlan};
use colt_os_mem::kernel::{Kernel, KernelConfig};
use colt_os_mem::page_table::{PageTable, PteFlags};
use colt_os_mem::policy::PolicyKind;
use colt_prng::rngs::SmallRng;
use colt_prng::{Rng, SeedableRng};
use colt_quickprop::{fnv1a, shrink_list};
use colt_smp::{SmpConfig, SmpMachine};
use colt_tlb::config::TlbConfig;
use colt_tlb::entry::{CoalescedRun, RangeKind, MAX_RANGE_LEN};
use colt_tlb::hierarchy::TlbHierarchy;
use colt_workloads::scenario::Scenario;
use colt_workloads::spec::benchmark;
use std::fmt;

/// One detected inconsistency between TLB state and ground truth, or a
/// broken structural invariant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// A translation request hit in the TLB but the live page table
    /// disagrees with the returned frame (or no longer maps the page).
    StaleHit {
        /// Requested virtual page.
        vpn: Vpn,
        /// Frame the TLB returned.
        cached: Pfn,
        /// What the page table says (`None` = unmapped).
        live: Option<Pfn>,
    },
    /// A resident entry's cached translation disagrees with the page
    /// table (found by the full oracle scan, not a lookup).
    OracleMismatch {
        /// Structure holding the entry ("L1", "L2", "SP").
        structure: &'static str,
        /// Covered virtual page that disagrees.
        vpn: Vpn,
        /// Frame the entry would return.
        cached: Pfn,
        /// What the page table says (`None` = unmapped).
        live: Option<Pfn>,
    },
    /// Cached attribute bits disagree with the page table beyond the
    /// DIRTY/ACCESSED tolerance (hardware sets those through the TLB).
    FlagMismatch {
        /// Structure holding the entry.
        structure: &'static str,
        /// Covered virtual page.
        vpn: Vpn,
        /// Attributes the entry carries.
        cached: PteFlags,
        /// Attributes the page table holds.
        live: PteFlags,
    },
    /// Two entries of one structure cover the same VPN with conflicting
    /// translations (ambiguous lookup), or are exact duplicates.
    ConflictingOverlap {
        /// Structure with the overlap.
        structure: &'static str,
        /// First virtual page both entries cover.
        vpn: Vpn,
    },
    /// A run longer than its structure's length field can encode.
    RunTooLong {
        /// Structure holding the entry.
        structure: &'static str,
        /// First covered virtual page.
        start: Vpn,
        /// Offending length.
        len: u64,
        /// The encodable maximum.
        bound: u64,
    },
    /// A set-associative run crossing its `2^shift` index group — the
    /// valid bitmap of Figure 4 cannot represent it.
    GroupCrossing {
        /// Structure holding the entry.
        structure: &'static str,
        /// First covered virtual page.
        start: Vpn,
        /// Run length.
        len: u64,
        /// The index left-shift in force.
        shift: u32,
    },
    /// A superpage entry that is not exactly 512 aligned pages.
    SuperpageShape {
        /// First covered virtual page.
        start: Vpn,
        /// Recorded length.
        len: u64,
    },
    /// A page-walk-cache entry survived the per-VPN shootdown that
    /// should have removed it.
    StaleWalkEntry {
        /// Physical address of the surviving paging-structure entry.
        addr: PhysAddr,
    },
    /// Fills outside the possible 1..=8 PTE-line lengths were recorded
    /// ([`colt_tlb::stats::HierarchyStats::coalesce_overflow`]).
    OverflowedFills {
        /// Number of impossible-length fills.
        count: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::StaleHit { vpn, cached, live } => {
                write!(f, "stale hit at {vpn}: TLB returned {cached}, page table has {live:?}")
            }
            Violation::OracleMismatch { structure, vpn, cached, live } => write!(
                f,
                "{structure} entry covers {vpn} as {cached} but page table has {live:?}"
            ),
            Violation::FlagMismatch { structure, vpn, cached, live } => write!(
                f,
                "{structure} entry at {vpn} carries flags {cached:?}, page table has {live:?}"
            ),
            Violation::ConflictingOverlap { structure, vpn } => {
                write!(f, "{structure} holds conflicting entries covering {vpn}")
            }
            Violation::RunTooLong { structure, start, len, bound } => write!(
                f,
                "{structure} run at {start} has length {len} > encodable bound {bound}"
            ),
            Violation::GroupCrossing { structure, start, len, shift } => write!(
                f,
                "{structure} run at {start} (len {len}) crosses its 2^{shift} index group"
            ),
            Violation::SuperpageShape { start, len } => {
                write!(f, "superpage entry at {start} has impossible shape (len {len})")
            }
            Violation::StaleWalkEntry { addr } => {
                write!(f, "MMU cache still holds {addr} after its per-VPN shootdown")
            }
            Violation::OverflowedFills { count } => {
                write!(f, "{count} fill(s) outside the 1..=8 PTE-line length range")
            }
        }
    }
}

/// Attribute agreement modulo the bits hardware mutates through the TLB
/// (DIRTY/ACCESSED) and the bits the configuration deliberately ignores
/// when coalescing.
fn flags_agree(cached: PteFlags, live: PteFlags, ignore: PteFlags) -> bool {
    let mask = PteFlags::DIRTY.with(PteFlags::ACCESSED).with(ignore);
    cached.without(mask).bits() == live.without(mask).bits()
}

/// Scans one resident run against the live page table, reporting at
/// most one violation per run (one is enough to fail a case, and a
/// fully stale 512-page superpage entry would otherwise report 512).
fn oracle_scan(
    structure: &'static str,
    run: &CoalescedRun,
    pt: &PageTable,
    ignore: PteFlags,
    out: &mut Vec<Violation>,
) {
    for i in 0..run.len {
        let vpn = run.start_vpn.offset(i);
        let cached = run.base_pfn.offset(i);
        match pt.translate(vpn) {
            None => {
                out.push(Violation::OracleMismatch { structure, vpn, cached, live: None });
                return;
            }
            Some(t) if t.pfn != cached => {
                out.push(Violation::OracleMismatch {
                    structure,
                    vpn,
                    cached,
                    live: Some(t.pfn),
                });
                return;
            }
            Some(t) if !flags_agree(run.flags, t.flags, ignore) => {
                out.push(Violation::FlagMismatch {
                    structure,
                    vpn,
                    cached: run.flags,
                    live: t.flags,
                });
                return;
            }
            Some(_) => {}
        }
    }
}

/// The Figure 4/5 PPN-generation identity: every covered page must
/// translate to `base_pfn + (vpn - start_vpn)`. Checking the endpoints
/// covers the whole run since the encoding is a base plus an offset.
fn check_arithmetic(structure: &'static str, run: &CoalescedRun, out: &mut Vec<Violation>) {
    let last_vpn = Vpn::new(run.end_vpn().raw() - 1);
    let ok = run.translate(run.start_vpn) == Some(run.base_pfn)
        && run.translate(last_vpn) == Some(run.base_pfn.offset(run.len - 1));
    if !ok {
        out.push(Violation::RunTooLong { structure, start: run.start_vpn, len: run.len, bound: 0 });
    }
}

/// Set-associative encoding limits: length within the `2^shift`-bit
/// valid bitmap and no index-group crossing.
fn check_sa_shape(structure: &'static str, run: &CoalescedRun, shift: u32, out: &mut Vec<Violation>) {
    let bound = 1u64 << shift;
    if run.len > bound {
        out.push(Violation::RunTooLong { structure, start: run.start_vpn, len: run.len, bound });
    }
    if !run.fits_group(shift) {
        out.push(Violation::GroupCrossing { structure, start: run.start_vpn, len: run.len, shift });
    }
}

/// Fully-associative encoding limits: superpage entries are exactly 512
/// aligned pages; coalesced ranges fit the 5-bit length field — and,
/// without resident merging, never exceed the 8-PTE line a single fill
/// can coalesce.
fn check_fa_shape(run: &CoalescedRun, kind: RangeKind, config: &TlbConfig, out: &mut Vec<Violation>) {
    match kind {
        RangeKind::Superpage => {
            if run.len != SUPERPAGE_PAGES
                || !run.start_vpn.is_aligned(9)
                || !run.base_pfn.is_aligned(9)
            {
                out.push(Violation::SuperpageShape { start: run.start_vpn, len: run.len });
            }
        }
        RangeKind::Coalesced => {
            let bound = if config.fa_resident_merge { MAX_RANGE_LEN } else { 8 };
            if run.len > bound {
                out.push(Violation::RunTooLong {
                    structure: "SP",
                    start: run.start_vpn,
                    len: run.len,
                    bound,
                });
            }
        }
    }
}

/// Flags pairs of runs in one structure that cover a common VPN with
/// conflicting translations (ambiguous lookup) or are exact duplicates.
/// Overlapping runs that agree on every shared translation are benign
/// shadows (e.g. an L2-refill racing a partial invalidation) and pass.
fn coverage_conflicts(structure: &'static str, runs: &[CoalescedRun], out: &mut Vec<Violation>) {
    let mut sorted: Vec<&CoalescedRun> = runs.iter().collect();
    sorted.sort_by_key(|r| (r.start_vpn.raw(), r.end_vpn().raw()));
    let mut active: Vec<&CoalescedRun> = Vec::new();
    for r in sorted {
        active.retain(|p| p.end_vpn() > r.start_vpn);
        for p in &active {
            // Same anchor ⇒ every shared vpn translates identically.
            let anchor_p = p.base_pfn.raw() as i128 - p.start_vpn.raw() as i128;
            let anchor_r = r.base_pfn.raw() as i128 - r.start_vpn.raw() as i128;
            if anchor_p != anchor_r || **p == *r {
                out.push(Violation::ConflictingOverlap {
                    structure,
                    vpn: Vpn::new(p.start_vpn.raw().max(r.start_vpn.raw())),
                });
            }
        }
        active.push(r);
    }
}

/// Runs the full oracle + structural sweep of `tlb` against `pt`: every
/// entry is checked against `pt`, and coverage conflicts are sought
/// among the entries of one tag, which in an untagged TLB are all of
/// them.
pub fn check_hierarchy(tlb: &TlbHierarchy, pt: &PageTable) -> Vec<Violation> {
    let mut out = Vec::new();
    check_entries(tlb, |_| Some(Some(pt)), &mut out);
    out
}

/// Cross-core oracle: validates every entry resident in one core's TLB
/// hierarchy against the page table of the process that *owns* the
/// entry. In tagged mode the owner is the entry's own ASID tag (one
/// hierarchy legitimately mixes several address spaces); untagged cores
/// flush everything at context switches, so all entries belong to the
/// currently running process. Structural invariants (run shapes, group
/// crossings, arithmetic) are checked either way; coverage conflicts
/// are checked per owner, since entries of different address spaces may
/// legally cover one VPN with different frames — tagged lookups filter
/// by ASID.
pub fn check_core_hierarchy(
    tlb: &TlbHierarchy,
    kernel: &Kernel,
    running: Option<Asid>,
    out: &mut Vec<Violation>,
) {
    let tagged = tlb.config().asid_tagged;
    let owner_table = |tag| {
        let owner = if tagged { Some(tag) } else { running };
        Some(kernel.process(owner?).ok().map(|p| p.page_table()))
    };
    check_entries(tlb, owner_table, out);
}

/// The resident-entry sweep of both oracles: each entry's shape and
/// arithmetic, its translations against its owner's page table,
/// coverage conflicts among one structure's entries of one tag, and
/// overflowed fills. `owner_table(tag)` answers for an entry tagged
/// `tag`: `None` when its owner is unknown (its translations go
/// unchecked), `Some(None)` when the owner is gone, else the owner's
/// page table.
fn check_entries<'a>(
    tlb: &TlbHierarchy,
    owner_table: impl Fn(Asid) -> Option<Option<&'a PageTable>>,
    out: &mut Vec<Violation>,
) {
    let ignore = tlb.config().coalesce_ignore_flags;
    let shift = tlb.l1().shift();
    let mut runs: Vec<(&'static str, Asid, CoalescedRun, Option<RangeKind>)> = Vec::new();
    for e in tlb.l1().iter() {
        runs.push(("L1", e.asid(), e.run(), None));
    }
    for e in tlb.l2().iter() {
        runs.push(("L2", e.asid(), e.run(), None));
    }
    for e in tlb.sp().iter() {
        runs.push(("SP", e.asid(), e.run(), Some(e.kind())));
    }
    for (structure, tag, run, kind) in &runs {
        match kind {
            None => check_sa_shape(structure, run, shift, out),
            Some(k) => check_fa_shape(run, *k, tlb.config(), out),
        }
        check_arithmetic(structure, run, out);
        match owner_table(*tag) {
            None => {}
            Some(Some(pt)) => oracle_scan(structure, run, pt, ignore, out),
            Some(None) => out.push(Violation::OracleMismatch {
                structure,
                vpn: run.start_vpn,
                cached: run.base_pfn,
                live: None,
            }),
        }
    }
    for structure in ["L1", "L2", "SP"] {
        let mut owners: Vec<Asid> = runs
            .iter()
            .filter(|(s, ..)| *s == structure)
            .map(|(_, tag, ..)| *tag)
            .collect();
        owners.sort_unstable();
        owners.dedup();
        for owner in owners {
            let subset: Vec<CoalescedRun> = runs
                .iter()
                .filter(|(s, tag, ..)| *s == structure && *tag == owner)
                .map(|(.., run, _)| *run)
                .collect();
            coverage_conflicts(structure, &subset, out);
        }
    }
    let overflow = tlb.stats().coalesce_overflow;
    if overflow != 0 {
        out.push(Violation::OverflowedFills { count: overflow });
    }
}

/// Cross-core differential check: an eight-benchmark mix co-scheduled
/// over `cores` cores runs under periodic kernel churn with shootdown
/// broadcast; after every chunk of lockstep steps, every core's
/// resident entries are validated against the owning process's live
/// page table via [`check_core_hierarchy`]. Covers untagged CoLT-All
/// (flush-at-switch), tagged CoLT-All, and a tagged baseline TLB.
///
/// With `faults`, the shared kernel runs under an injected fault plan,
/// installed after workload preparation so the aged system state
/// matches the fault-free run and only the checked phase degrades.
/// Shootdown *delivery* stays exact on SMP — the machine models the IPI
/// mesh itself — so this validates that kernel-side degradation
/// (fallbacks, OOM kills, deferred collapses) never leaks a stale
/// translation to any core. `policy` boots the shared kernel under a
/// memory-management policy; the default policy's case labels (and so
/// its case seeds and event lists) carry no policy segment, and every
/// other policy fuzzes its own.
pub fn run_smp_check(
    cores: usize,
    seeds: u64,
    jobs: usize,
    faults: Option<FaultConfig>,
    policy: PolicyKind,
) -> CheckReport {
    let cores = cores.max(2);
    let pseg = policy_label_segment(policy);
    let mut cells = Vec::new();
    for seed in 0..seeds {
        for (cname, tlb_cfg) in [
            ("untagged-all", TlbConfig::colt_all()),
            ("tagged-all", TlbConfig::colt_all().with_asid_tagging()),
            ("tagged-base", TlbConfig::baseline().with_asid_tagging()),
        ] {
            let label = format!("smpcheck/{cname}/{cores}c{pseg}/seed{seed}");
            let case_seed = fnv1a(&label) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Each case's seed ages a machine of its own.
            let scenario = Scenario::default_linux().with_policy(policy).with_seed(case_seed);
            let on = scenario.clone();
            cells.push(SweepCell::on_machine(label.clone(), &scenario, 0, move |aged| {
                let specs: Vec<_> = MIX_LIGHT
                    .iter()
                    .map(|n| benchmark(n).expect("Table-1 benchmark"))
                    .collect();
                let multi = aged
                    .into_prepared_many(&on, &specs)
                    .unwrap_or_else(|e| panic!("into_prepared_many(smpcheck): {e}"));
                let cfg = SmpConfig::new(cores, tlb_cfg)
                    .with_quantum(400)
                    .with_churn_period(Some(271));
                let mut machine = SmpMachine::new(multi, cfg, case_seed);
                if let Some(fc) = faults {
                    machine.install_fault_plan(fc);
                }
                let mut violations = Vec::new();
                for _ in 0..24 {
                    machine.run(300);
                    for c in 0..machine.cores() {
                        check_core_hierarchy(
                            machine.core_tlb(c),
                            machine.kernel(),
                            machine.running_asid(c),
                            &mut violations,
                        );
                    }
                    if !violations.is_empty() {
                        break;
                    }
                }
                let translations =
                    machine.result().aggregate().counters.accesses;
                CaseReport {
                    label,
                    seed: case_seed,
                    violations,
                    minimized: Vec::new(),
                    translations,
                }
            }));
        }
    }
    let cases = runner::expect_all(runner::run_cells_outcomes(cells, jobs));
    let translations = cases.iter().map(|c| c.translations).sum();
    CheckReport { cases, translations }
}

/// One step of the fuzzed interleaving. Every variant carries its own
/// payload (salts, counts, slots) so a shrunk sub-list replays exactly
/// the same operations — the precondition for ddmin minimisation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FuzzEvent {
    /// A burst of `count` translations over the current process's
    /// regions, picked by a generator seeded with `salt`.
    Translate {
        /// Seed for the per-burst VPN picker.
        salt: u64,
        /// Number of translations.
        count: u32,
    },
    /// Anonymous allocation in the current process (superpage-sized
    /// requests exercise THS promotion when enabled).
    Malloc {
        /// Pages to allocate.
        pages: u64,
    },
    /// `munmap` of one of the current process's regions.
    Free {
        /// Region index, taken modulo the live region count.
        slot: usize,
    },
    /// Dirties one page (attribute-only page-table mutation — must NOT
    /// require a shootdown; the oracle tolerates D/A divergence).
    MarkDirty {
        /// Seed for the VPN picker.
        salt: u64,
    },
    /// Direct compaction pass (page migrations).
    Compact,
    /// Kernel background tick (watermark-driven compaction slices).
    Tick,
    /// THP pressure splits (+ puncture reclaim when configured).
    SplitSupers {
        /// Superpages to split.
        n: usize,
    },
    /// Page-cache reclaim of clean file pages.
    Reclaim {
        /// Eviction target in pages.
        target: u64,
    },
    /// Switch to the other process: full TLB + walker flush (no ASID
    /// tagging), like the paper's multiprogrammed runs.
    ContextSwitch,
}

/// Everything one replayed case observed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CaseOutcome {
    /// Violations, in detection order (the case stops at the first
    /// failing event).
    pub violations: Vec<Violation>,
    /// Translations performed.
    pub translations: u64,
    /// Events applied before stopping.
    pub events_applied: usize,
}

/// Generates a deterministic event list for `seed`.
pub fn gen_events(seed: u64, len: usize) -> Vec<FuzzEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0u32..100) {
            0..=39 => FuzzEvent::Translate {
                salt: rng.next_u64(),
                count: rng.gen_range(8u32..=64),
            },
            40..=49 => FuzzEvent::Malloc { pages: rng.gen_range(1u64..=700) },
            50..=57 => FuzzEvent::Free { slot: rng.gen_range(0usize..8) },
            58..=64 => FuzzEvent::MarkDirty { salt: rng.next_u64() },
            65..=74 => FuzzEvent::Compact,
            75..=80 => FuzzEvent::Tick,
            81..=88 => FuzzEvent::SplitSupers { n: rng.gen_range(1usize..=2) },
            89..=93 => FuzzEvent::Reclaim { target: rng.gen_range(8u64..=64) },
            _ => FuzzEvent::ContextSwitch,
        })
        .collect()
}

/// The small physical memory the fuzz kernel runs in: big enough for
/// two processes with superpages, small enough that reclaim, puncture,
/// and compaction all actually trigger.
fn fuzz_kernel(ths: bool) -> KernelConfig {
    let base = if ths { KernelConfig::ths_on() } else { KernelConfig::ths_off() };
    KernelConfig { nr_frames: 1 << 14, ..base }
}

/// Uniformly picks a mapped-region page of the current process.
fn pick_vpn(regions: &[(Vpn, u64)], rng: &mut SmallRng) -> Option<Vpn> {
    let total: u64 = regions.iter().map(|(_, pages)| *pages).sum();
    if total == 0 {
        return None;
    }
    let mut idx = rng.gen_range(0..total);
    for (start, pages) in regions {
        if idx < *pages {
            return Some(start.offset(idx));
        }
        idx -= pages;
    }
    None
}

/// Delivers every pending shootdown for the running address space as a
/// per-VPN TLB invalidation plus a per-entry walker (MMU cache)
/// invalidation, then cross-checks that no shot paging-structure entry
/// survived. Events for the other address space need no delivery: that
/// process's TLB state is rebuilt from scratch after the context-switch
/// flush (and page-table node addresses alias across processes, so its
/// entry addresses must not be applied to this walker).
///
/// With a `delivery` fault plan, each IPI may be duplicated (delivered
/// twice — invalidation must be idempotent) or dropped. A dropped IPI
/// is recovered the way a real kernel recovers a lost shootdown ack: a
/// conservative full TLB + walker flush, which keeps the oracle sound
/// while still exercising the flush path at adversarial moments.
fn apply_shootdowns(
    kernel: &mut Kernel,
    running: Asid,
    mmu: &mut Mmu,
    delivery: &mut Option<FaultPlan<DeliveryFault>>,
    out: &mut Vec<Violation>,
) {
    for ev in kernel.take_shootdowns() {
        if ev.asid != running {
            continue;
        }
        let rounds = match delivery.as_mut().and_then(FaultPlan::delivery_fault) {
            Some(DeliveryFault::Drop) => {
                mmu.flush();
                continue;
            }
            None => 1,
            Some(DeliveryFault::Duplicate) => 2,
        };
        for _ in 0..rounds {
            mmu.shootdown(&ev);
        }
        for &addr in &ev.entry_addrs {
            if mmu.walker().mmu_contains(addr) {
                out.push(Violation::StaleWalkEntry { addr });
            }
        }
    }
}

/// Replays one event list against a fresh kernel and MMU, running the
/// full oracle and invariant sweep after every event. With `faults`,
/// the kernel runs with an allocation/compaction/reclaim fault plan
/// seeded from it, and shootdown IPIs pass through a decorrelated
/// delivery plan that drops or duplicates them. Deterministic:
/// identical inputs produce identical outcomes.
pub fn replay(
    tlb_config: TlbConfig,
    kernel_config: KernelConfig,
    events: &[FuzzEvent],
    faults: Option<FaultConfig>,
) -> CaseOutcome {
    let kernel_config = KernelConfig { faults, ..kernel_config };
    let mut delivery = faults.map(FaultPlan::<DeliveryFault>::new);
    let mut kernel = Kernel::new(kernel_config);
    kernel.enable_shootdown_log();
    let asids = [kernel.spawn(), kernel.spawn()];
    let mut regions: [Vec<(Vpn, u64)>; 2] = [Vec::new(), Vec::new()];
    for (p, asid) in asids.iter().enumerate() {
        // Per process: an anonymous heap spanning a superpage (THS
        // candidate), a small buffer, and a file mapping (reclaim prey).
        for pages in [600u64, 64] {
            if let Ok(start) = kernel.malloc(*asid, pages) {
                regions[p].push((start, pages));
            }
        }
        if let Ok(start) = kernel.mmap_file(*asid, 128) {
            regions[p].push((start, 128));
        }
    }
    // Setup allocations may already compact or reclaim; nothing is
    // cached yet, so the pending events are moot.
    let _ = kernel.take_shootdowns();

    let mut mmu = Mmu::new(tlb_config, false);
    let mut caches = CacheHierarchy::core_i7();
    let mut current = 0usize;
    let mut violations = Vec::new();
    let mut translations = 0u64;
    let mut events_applied = 0usize;

    for event in events {
        events_applied += 1;
        let asid = asids[current];
        match event {
            FuzzEvent::Translate { salt, count } => {
                let mut rng = SmallRng::seed_from_u64(*salt);
                for _ in 0..*count {
                    let Some(vpn) = pick_vpn(&regions[current], &mut rng) else {
                        break;
                    };
                    translations += 1;
                    if let Some(hit) = mmu.lookup(vpn) {
                        let live = kernel.process(asid).expect("fuzz process").translate(vpn);
                        if live.map(|t| t.pfn) != Some(hit.pfn) {
                            violations.push(Violation::StaleHit {
                                vpn,
                                cached: hit.pfn,
                                live: live.map(|t| t.pfn),
                            });
                        }
                        continue;
                    }
                    if kernel.process(asid).expect("fuzz process").translate(vpn).is_none() {
                        // Reclaimed/punctured page: fault it back in.
                        // Refault may itself reclaim or compact, so
                        // deliver those shootdowns before walking.
                        if kernel.touch(asid, vpn).is_err() {
                            continue;
                        }
                        apply_shootdowns(&mut kernel, asid, &mut mmu, &mut delivery, &mut violations);
                    }
                    let pt = kernel.process(asid).expect("fuzz process").page_table();
                    mmu.walk_fill(pt, vpn, &mut caches);
                }
            }
            FuzzEvent::Malloc { pages } => {
                if let Ok(start) = kernel.malloc(asid, *pages) {
                    regions[current].push((start, *pages));
                }
                apply_shootdowns(&mut kernel, asid, &mut mmu, &mut delivery, &mut violations);
            }
            FuzzEvent::Free { slot } => {
                if !regions[current].is_empty() {
                    let idx = slot % regions[current].len();
                    let (start, _) = regions[current].remove(idx);
                    let _ = kernel.free(asid, start);
                    apply_shootdowns(&mut kernel, asid, &mut mmu, &mut delivery, &mut violations);
                }
            }
            FuzzEvent::MarkDirty { salt } => {
                let mut rng = SmallRng::seed_from_u64(*salt);
                if let Some(vpn) = pick_vpn(&regions[current], &mut rng) {
                    let _ = kernel.mark_dirty(asid, vpn);
                }
            }
            FuzzEvent::Compact => {
                kernel.compact_now();
                apply_shootdowns(&mut kernel, asid, &mut mmu, &mut delivery, &mut violations);
            }
            FuzzEvent::Tick => {
                kernel.tick();
                apply_shootdowns(&mut kernel, asid, &mut mmu, &mut delivery, &mut violations);
            }
            FuzzEvent::SplitSupers { n } => {
                kernel.split_superpages(*n);
                apply_shootdowns(&mut kernel, asid, &mut mmu, &mut delivery, &mut violations);
            }
            FuzzEvent::Reclaim { target } => {
                kernel.reclaim_file_pages(*target);
                apply_shootdowns(&mut kernel, asid, &mut mmu, &mut delivery, &mut violations);
            }
            FuzzEvent::ContextSwitch => {
                current = 1 - current;
                mmu.flush();
            }
        }
        let pt = kernel
            .process(asids[current])
            .expect("fuzz processes stay live")
            .page_table();
        check_entries(mmu.tlb(), |_| Some(Some(pt)), &mut violations);
        if !violations.is_empty() {
            break;
        }
    }
    CaseOutcome { violations, translations, events_applied }
}

/// Result of one fuzz case after optional minimisation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CaseReport {
    /// "check/<config>/<ths>/seed<N>".
    pub label: String,
    /// The derived event-generation seed.
    pub seed: u64,
    /// Violations found (empty = clean case).
    pub violations: Vec<Violation>,
    /// ddmin-minimised failing event list (empty when clean).
    pub minimized: Vec<FuzzEvent>,
    /// Translations the full case performed.
    pub translations: u64,
}

/// Aggregate over every (config × THS × seed) fuzz case.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CheckReport {
    /// Per-case results, in submission order.
    pub cases: Vec<CaseReport>,
    /// Total translations checked.
    pub translations: u64,
}

impl CheckReport {
    /// Total violations across all cases.
    pub fn total_violations(&self) -> usize {
        self.cases.iter().map(|c| c.violations.len()).sum()
    }

    /// True when no case found anything.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }
}

/// The checked configurations: the four paper designs plus their
/// §4.1.5/§4.2.3 future-work variants (graceful invalidation,
/// coalescing-aware replacement, D/A-tolerant coalescing) — the latter
/// is where partial-invalidation bugs live.
pub fn check_configs() -> Vec<(String, TlbConfig)> {
    let base = [
        TlbConfig::baseline(),
        TlbConfig::colt_sa(),
        TlbConfig::colt_fa(),
        TlbConfig::colt_all(),
    ];
    let mut out = Vec::new();
    for cfg in base {
        out.push((cfg.mode.label().to_string(), cfg));
    }
    for cfg in base {
        out.push((format!("{}+fw", cfg.mode.label()), cfg.with_future_work()));
    }
    out
}

/// The label segment a policy contributes to fuzz-case labels: empty
/// for the default policy (so default case labels, seeds, and event
/// lists stay byte-identical to the pre-policy checker) and
/// "/<name>" otherwise (so each policy fuzzes its own event lists).
fn policy_label_segment(policy: PolicyKind) -> String {
    if policy == PolicyKind::Default {
        String::new()
    } else {
        format!("/{}", policy.name())
    }
}

/// Fuzzes every configuration with `seeds` independent event lists of
/// `events_per_case` events, fanned out over `jobs` workers through the
/// deterministic sweep runner (results are identical at any width).
/// Failing cases are ddmin-minimised before reporting.
///
/// With `faults`, every case replays against a kernel that suffers
/// injected allocation failures, compaction aborts, and reclaim spikes,
/// while shootdown IPIs are dropped or duplicated by a decorrelated
/// delivery plan (see [`replay`]). The oracle must stay clean —
/// degradation may change *which* frames back a page, never the
/// coherence of cached translations. `policy` boots every fuzz kernel
/// under a memory-management policy: the oracle must stay clean however
/// the policy skews THP grants, compaction, reclaim order, or placement.
pub fn run_check(
    seeds: u64,
    events_per_case: usize,
    jobs: usize,
    faults: Option<FaultConfig>,
    policy: PolicyKind,
) -> CheckReport {

    let pseg = policy_label_segment(policy);
    let mut cells = Vec::new();
    for seed in 0..seeds {
        for (label, tlb_cfg) in check_configs() {
            for (kname, base_cfg) in [("ths-on", fuzz_kernel(true)), ("ths-off", fuzz_kernel(false))] {
                let kernel_cfg = KernelConfig { policy, ..base_cfg };
                let case_label = format!("check/{label}/{kname}{pseg}/seed{seed}");
                let case_seed = fnv1a(&case_label) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let events = gen_events(case_seed, events_per_case);
                cells.push(SweepCell::task(case_label.clone(), 0, move || {
                    let outcome = replay(tlb_cfg, kernel_cfg, &events, faults);
                    let minimized = if outcome.violations.is_empty() {
                        Vec::new()
                    } else {
                        shrink_list(&events, |sub| {
                            !replay(tlb_cfg, kernel_cfg, sub, faults)
                                .violations
                                .is_empty()
                        })
                    };
                    CaseReport {
                        label: case_label,
                        seed: case_seed,
                        violations: outcome.violations,
                        minimized,
                        translations: outcome.translations,
                    }
                }));
            }
        }
    }
    let cases = runner::expect_all(runner::run_cells_outcomes(cells, jobs));
    let translations = cases.iter().map(|c| c.translations).sum();
    CheckReport { cases, translations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_os_mem::page_table::Pte;
    use colt_tlb::hierarchy::WalkFill;

    fn flags() -> PteFlags {
        PteFlags::user_data()
    }

    fn run(v: u64, p: u64, len: u64) -> CoalescedRun {
        CoalescedRun::new(Vpn::new(v), Pfn::new(p), len, flags())
    }

    fn contiguous_pt(n: u64) -> PageTable {
        let mut pt = PageTable::new();
        for i in 0..n {
            pt.map_base(Vpn::new(8 + i), Pte::new(Pfn::new(100 + i), flags()));
        }
        pt
    }

    fn filled(config: TlbConfig, pt: &PageTable, vpn: Vpn) -> TlbHierarchy {
        let mut tlb = TlbHierarchy::new(config);
        assert!(tlb.lookup(vpn).is_none(), "expected cold miss");
        tlb.fill(vpn, &WalkFill::Base { line: pt.pte_line(vpn) });
        tlb
    }

    #[test]
    fn clean_hierarchies_pass_in_every_mode() {
        let pt = contiguous_pt(8);
        for config in [
            TlbConfig::baseline(),
            TlbConfig::colt_sa(),
            TlbConfig::colt_fa(),
            TlbConfig::colt_all(),
        ] {
            let tlb = filled(config, &pt, Vpn::new(8));
            assert_eq!(check_hierarchy(&tlb, &pt), vec![], "{:?}", config.mode);
        }
    }

    #[test]
    fn oracle_catches_a_silent_remap() {
        let mut pt = contiguous_pt(8);
        let tlb = filled(TlbConfig::colt_fa(), &pt, Vpn::new(8));
        assert!(check_hierarchy(&tlb, &pt).is_empty());
        // Migrate page 10 behind the TLB's back (no shootdown).
        pt.remap_base(Vpn::new(10), Pfn::new(999));
        let v = check_hierarchy(&tlb, &pt);
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::OracleMismatch { vpn, cached, live: Some(l), .. }
                    if *vpn == Vpn::new(10) && *cached == Pfn::new(102) && *l == Pfn::new(999)
            )),
            "silent remap must surface as an oracle mismatch: {v:?}"
        );
    }

    #[test]
    fn oracle_catches_a_silent_unmap() {
        let mut pt = contiguous_pt(8);
        let tlb = filled(TlbConfig::colt_sa(), &pt, Vpn::new(8));
        pt.unmap_base(Vpn::new(9));
        let v = check_hierarchy(&tlb, &pt);
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::OracleMismatch { vpn, live: None, .. } if *vpn == Vpn::new(9)
            )),
            "silent unmap must surface: {v:?}"
        );
    }

    #[test]
    fn oracle_tolerates_dirty_and_accessed_divergence() {
        let mut pt = contiguous_pt(8);
        let tlb = filled(TlbConfig::colt_sa(), &pt, Vpn::new(8));
        // Hardware would set these through the TLB; no shootdown occurs.
        pt.add_flags_base(Vpn::new(9), PteFlags::DIRTY.with(PteFlags::ACCESSED));
        assert_eq!(check_hierarchy(&tlb, &pt), vec![]);
    }

    #[test]
    fn oracle_flags_non_ad_attribute_divergence() {
        let mut pt = contiguous_pt(8);
        let tlb = filled(TlbConfig::colt_sa(), &pt, Vpn::new(8));
        pt.add_flags_base(Vpn::new(9), PteFlags::GLOBAL);
        let v = check_hierarchy(&tlb, &pt);
        assert!(
            v.iter().any(|x| matches!(x, Violation::FlagMismatch { vpn, .. } if *vpn == Vpn::new(9))),
            "a GLOBAL-bit divergence is a real inconsistency: {v:?}"
        );
    }

    #[test]
    fn overlap_detector_separates_conflicts_from_shadows() {
        let mut out = Vec::new();
        // Conflicting anchors over vpns 10..12: ambiguous lookup.
        coverage_conflicts("SP", &[run(8, 100, 4), run(10, 300, 4)], &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Violation::ConflictingOverlap { vpn, .. } if vpn == Vpn::new(10)));

        // Exact duplicate: a double-insert bug even though consistent.
        out.clear();
        coverage_conflicts("L2", &[run(8, 100, 4), run(8, 100, 4)], &mut out);
        assert_eq!(out.len(), 1);

        // Same-anchor partial overlap: a benign shadow copy.
        out.clear();
        coverage_conflicts("SP", &[run(8, 100, 4), run(9, 101, 2)], &mut out);
        assert_eq!(out, vec![]);

        // Disjoint: nothing.
        out.clear();
        coverage_conflicts("SP", &[run(8, 100, 4), run(12, 104, 2)], &mut out);
        assert_eq!(out, vec![]);

        // Nested overlap far from the sort-adjacent pair is still found.
        out.clear();
        coverage_conflicts("SP", &[run(8, 100, 20), run(9, 101, 1), run(20, 900, 2)], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn sa_shape_limits_are_enforced() {
        let mut out = Vec::new();
        check_sa_shape("L1", &run(8, 100, 4), 2, &mut out);
        assert_eq!(out, vec![], "a full group is legal");
        check_sa_shape("L1", &run(9, 100, 4), 2, &mut out);
        assert!(
            out.iter().any(|v| matches!(v, Violation::GroupCrossing { .. })),
            "9..13 crosses the 8..12 group: {out:?}"
        );
        out.clear();
        check_sa_shape("L1", &run(8, 100, 5), 2, &mut out);
        assert!(out.iter().any(|v| matches!(v, Violation::RunTooLong { bound: 4, .. })));
    }

    #[test]
    fn fa_shape_limits_are_enforced() {
        let mut out = Vec::new();
        let cfg = TlbConfig::colt_fa();
        check_fa_shape(&run(8, 100, 8), RangeKind::Coalesced, &cfg, &mut out);
        assert_eq!(out, vec![]);
        check_fa_shape(&run(0, 0, MAX_RANGE_LEN + 1), RangeKind::Coalesced, &cfg, &mut out);
        assert!(out.iter().any(|v| matches!(v, Violation::RunTooLong { .. })));
        out.clear();
        check_fa_shape(&run(512, 1024, 511), RangeKind::Superpage, &cfg, &mut out);
        assert!(out.iter().any(|v| matches!(v, Violation::SuperpageShape { .. })));
    }

    #[test]
    fn fuzz_replay_is_deterministic() {
        let events = gen_events(42, 24);
        let a = replay(TlbConfig::colt_all().with_future_work(), fuzz_kernel(true), &events, None);
        let b = replay(TlbConfig::colt_all().with_future_work(), fuzz_kernel(true), &events, None);
        assert_eq!(a, b);
        assert!(a.translations > 0, "the case must actually translate");
    }

    #[test]
    fn faulted_fuzz_replay_is_deterministic() {
        let events = gen_events(1337, 24);
        let fc = FaultConfig { rate: 0.2, window: 4, seed: 99 };
        let a = replay(TlbConfig::colt_all(), fuzz_kernel(true), &events, Some(fc));
        let b = replay(TlbConfig::colt_all(), fuzz_kernel(true), &events, Some(fc));
        assert_eq!(a, b);
        assert!(a.translations > 0);
        // The faulted run must actually diverge from the clean one
        // somewhere (degradation changed frame placement), else the
        // injection never reached the kernel.
        let clean = replay(TlbConfig::colt_all(), fuzz_kernel(true), &events, None);
        assert!(clean.violations.is_empty() && a.violations.is_empty());
    }

    #[test]
    fn fuzz_smoke_is_clean_under_fault_injection() {
        let report = run_check(1, 24, 2, Some(FaultConfig::default()), PolicyKind::Default);
        for case in &report.cases {
            assert!(
                case.violations.is_empty(),
                "faulted case {} found: {:?}\nminimised to: {:?}",
                case.label,
                case.violations,
                case.minimized
            );
        }
        assert!(report.translations > 0);
    }

    #[test]
    fn fuzz_smoke_is_clean_across_configs() {
        let report = run_check(1, 24, 2, None, PolicyKind::Default);
        for case in &report.cases {
            assert!(
                case.violations.is_empty(),
                "case {} found: {:?}\nminimised to: {:?}",
                case.label,
                case.violations,
                case.minimized
            );
        }
        assert!(report.translations > 0);
    }

    #[test]
    fn fuzz_smoke_is_clean_under_hostile_policies() {
        // The invariants must hold no matter how the MM policy places
        // or denies pages: Adversarial maximizes fragmentation,
        // GreedyContig maximizes coalescing-candidate runs.
        for policy in [PolicyKind::Adversarial, PolicyKind::GreedyContig] {
            let report = run_check(1, 24, 2, None, policy);
            for case in &report.cases {
                assert!(
                    case.violations.is_empty(),
                    "case {} under {policy} found: {:?}\nminimised to: {:?}",
                    case.label,
                    case.violations,
                    case.minimized
                );
                assert!(
                    case.label.contains(&format!("/{}/", policy.name())),
                    "non-default policy must be visible in the label: {}",
                    case.label
                );
            }
            assert!(report.translations > 0);
        }
    }
}
