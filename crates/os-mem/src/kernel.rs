//! The kernel facade: ties the buddy allocator, frame database, page
//! tables, compaction daemon, and THS together behind the memory-management
//! API the workloads drive (`malloc`/`mmap`/`free`/`touch`).
//!
//! The twelve system configurations of paper §5.1.1 are expressed through
//! [`KernelConfig`]: THS on/off, compaction normal/low, and memhog load
//! (driven externally through [`Kernel::allocate_pinned`]).

use crate::addr::{Asid, Pfn, Vpn, SUPERPAGE_PAGES};
use crate::buddy::{covering_order, BuddyAllocator, PfnRange};
use crate::compaction::{self, CompactionControl, CompactionStats};
use crate::contiguity::ContiguityReport;
use crate::error::{MemError, MemResult};
use crate::faults::{FaultConfig, FaultPlan, KernelFault};
use crate::frames::{FrameDb, FrameState};
use crate::page_table::{PageKind, Pte, PteFlags, Translation};
use crate::policy::{interleave, MmPolicy, Placement, PolicyKind, ReclaimOrder, ThpDecision};
use crate::process::Process;
use crate::shootdown::{ShootdownEvent, ShootdownKind, ShootdownLog};
use crate::snapshot::{Dec, Enc, SnapResult, Snapshot, SnapshotError};
use crate::thp;
use crate::vma::{Vma, VmaKind};
use std::collections::{BTreeMap, VecDeque};

/// How aggressively the memory-compaction daemon runs (the Linux
/// `defrag` flag, paper §5.1.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CompactionMode {
    /// Compaction on allocation failure and as background activity.
    #[default]
    Normal,
    /// Compaction almost never runs (defrag disabled).
    Low,
}

/// Whether allocations are backed by frames immediately or on first touch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PopulateMode {
    /// Frames are allocated at `malloc` time, in one multi-page request —
    /// the main buddy-contiguity source (paper §3.2.1: applications
    /// "simultaneously request a number of physical pages together").
    #[default]
    Eager,
    /// Frames are allocated one page per fault (worst case for
    /// contiguity; used for ablation).
    Demand,
}

/// Kernel construction parameters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct KernelConfig {
    /// Physical memory size in 4KB frames.
    pub nr_frames: u64,
    /// Transparent hugepage support enabled.
    pub ths_enabled: bool,
    /// Compaction aggressiveness.
    pub compaction: CompactionMode,
    /// Frame population policy.
    pub populate: PopulateMode,
    /// Background compaction triggers when the buddy fragmentation index
    /// exceeds this threshold (checked in [`Kernel::tick`]).
    pub compaction_frag_threshold: f64,
    /// The THS pressure daemon splits superpages when the free fraction
    /// of memory falls below this watermark.
    pub thp_split_watermark: f64,
    /// Largest block order used for ordinary (non-THP) user allocations.
    /// Real kernels do not hand order-10 blocks to user mallocs; runs
    /// longer than `2^max_alloc_order` still arise when successive blocks
    /// happen to be carved adjacently from one large free region.
    pub max_alloc_order: u32,
    /// When the pressure daemon splits a superpage, also reclaim a
    /// scattered subset of its base pages (puncturing the 512-page run
    /// into segments of tens of pages — the residual contiguity of
    /// paper §3.2.3). Reclaimed pages fault back in on next touch.
    pub thp_split_puncture: bool,
    /// Per-process virtual address-space span in pages.
    pub va_limit_pages: u64,
    /// The memory-management policy steering THP decisions, compaction,
    /// reclaim, and allocation contiguity (see [`crate::policy`]).
    /// [`PolicyKind::Default`] reproduces the historical behavior
    /// byte-identically.
    pub policy: PolicyKind,
    /// Deterministic fault injection: when set, the kernel consults a
    /// seeded [`FaultPlan`] at its failure-prone choice points and the
    /// degradation machinery (deferred THP collapse, compaction backoff,
    /// the OOM killer) engages. `None` (the default) keeps every
    /// baseline table bit-identical to the fault-free kernel.
    pub faults: Option<FaultConfig>,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            nr_frames: 1 << 16, // 256MB of 4KB frames
            ths_enabled: true,
            compaction: CompactionMode::Normal,
            populate: PopulateMode::Eager,
            compaction_frag_threshold: 0.45,
            thp_split_watermark: 0.08,
            max_alloc_order: 6,
            thp_split_puncture: true,
            va_limit_pages: 1 << 26,
            policy: PolicyKind::Default,
            faults: None,
        }
    }
}

impl KernelConfig {
    /// Convenience: the paper's default Linux setting (configuration 1 in
    /// §5.1.1): THS on, normal compaction.
    pub fn ths_on() -> Self {
        Self::default()
    }

    /// Configuration 2: THS off, normal compaction.
    pub fn ths_off() -> Self {
        Self { ths_enabled: false, ..Self::default() }
    }
}

/// Counters for everything the kernel did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KernelStats {
    /// `malloc`/`mmap_file` calls served.
    pub allocations: u64,
    /// Pages requested across all allocations.
    pub pages_requested: u64,
    /// Pages actually populated with frames.
    pub pages_populated: u64,
    /// Distinct physically contiguous runs created (lower is better for
    /// contiguity).
    pub physical_runs: u64,
    /// Superpages successfully allocated by THS.
    pub thp_allocs: u64,
    /// THS attempts that fell back to base pages.
    pub thp_fallbacks: u64,
    /// Superpages split by the pressure daemon.
    pub thp_splits: u64,
    /// Compaction passes run.
    pub compaction_runs: u64,
    /// Pages migrated by compaction.
    pub pages_migrated: u64,
    /// Demand-population faults served.
    pub demand_faults: u64,
    /// Clean file-backed pages evicted by the reclaim path.
    pub pages_reclaimed: u64,
    /// Processes torn down by the OOM killer.
    pub oom_kills: u64,
    /// Direct-compaction attempts skipped by the defer backoff.
    pub compact_deferred: u64,
    /// khugepaged collapse attempts on deferred THP regions.
    pub thp_deferred_retries: u64,
    /// Faults injected by the active [`FaultPlan`].
    pub faults_injected: u64,
    /// Policy hook consultations that could alter behavior (THP verdicts,
    /// collapse eligibility, compaction permission checks).
    pub policy_decisions: u64,
    /// THP requests the policy granted.
    pub policy_huge_grants: u64,
    /// THP requests the policy denied or deferred.
    pub policy_huge_denies: u64,
    /// khugepaged collapses that proceeded past the policy gate.
    pub policy_collapses_triggered: u64,
    /// Compaction passes (direct or background) the policy approved.
    pub policy_compactions_requested: u64,
}

/// The simulated kernel.
///
/// ```
/// use colt_os_mem::kernel::{Kernel, KernelConfig};
/// let mut kernel = Kernel::new(KernelConfig::default());
/// let asid = kernel.spawn();
/// let base = kernel.malloc(asid, 64)?;
/// let t = kernel.touch(asid, base)?;
/// assert!(t.flags.contains(colt_os_mem::page_table::PteFlags::USER));
/// # Ok::<(), colt_os_mem::error::MemError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Kernel {
    config: KernelConfig,
    buddy: BuddyAllocator,
    frames: FrameDb,
    processes: BTreeMap<Asid, Process>,
    next_asid: u32,
    /// Live superpages in allocation order (oldest first), the pressure
    /// daemon's split queue.
    live_superpages: VecDeque<(Asid, Vpn)>,
    /// Per-CPU page list: order-0 demand faults are served from batched
    /// buddy refills, so consecutive faults receive adjacent frames —
    /// the mechanism behind faulted-page contiguity on real systems.
    pcp: VecDeque<Pfn>,
    /// Per-VPN shootdown events for every page-table mutation, recorded
    /// only when enabled (the differential checker's hook).
    shootdowns: ShootdownLog,
    /// The active fault-injection plan, if any.
    faults: Option<FaultPlan<KernelFault>>,
    /// khugepaged's queue: regions that fell back to base pages, waiting
    /// for a deferred collapse, with per-region retry counts.
    thp_deferred: VecDeque<(Asid, Vpn, u32)>,
    /// Compaction defer backoff (Linux `compact_defer_shift`): after a
    /// failed direct compaction the next `1 << shift` attempts are
    /// skipped instead of stalling the allocator again.
    compact_defer_shift: u32,
    /// Remaining direct-compaction attempts to skip.
    compact_backoff: u64,
    stats: KernelStats,
}

/// Pages per PCP refill batch (Linux's per-cpu batch is the same order
/// of magnitude).
const PCP_BATCH: u64 = 32;

/// Cap on the compaction defer backoff: at most `1 << 6` skipped
/// attempts per deferral round (Linux `COMPACT_MAX_DEFER_SHIFT`).
const COMPACT_MAX_DEFER_SHIFT: u32 = 6;

/// khugepaged collapse attempts per deferred region before it is dropped
/// from the queue.
const THP_RETRY_BUDGET: u32 = 3;

/// Bound on the deferred-collapse queue.
const THP_DEFER_QUEUE_MAX: usize = 64;

/// Deferred regions khugepaged rescans per [`Kernel::tick`].
const COLLAPSES_PER_TICK: usize = 2;

/// Outcome of one khugepaged collapse attempt.
enum CollapseOutcome {
    /// The region now maps one superpage.
    Collapsed,
    /// Transient failure (holes, no order-9 block): rescan later.
    Retry,
    /// The region can never collapse (freed, exited, already huge).
    Gone,
}

impl Kernel {
    /// Boots a kernel over `config.nr_frames` of physical memory.
    pub fn new(config: KernelConfig) -> Self {
        Self {
            buddy: BuddyAllocator::new(config.nr_frames),
            frames: FrameDb::new(config.nr_frames),
            processes: BTreeMap::new(),
            next_asid: 1,
            live_superpages: VecDeque::new(),
            pcp: VecDeque::new(),
            shootdowns: ShootdownLog::new(),
            faults: config.faults.map(FaultPlan::new),
            thp_deferred: VecDeque::new(),
            compact_defer_shift: 0,
            compact_backoff: 0,
            stats: KernelStats::default(),
            config,
        }
    }

    /// Installs (or replaces) a fault-injection plan on a running kernel
    /// — the SMP harness puts an already prepared machine under
    /// injection this way.
    pub fn set_fault_plan(&mut self, config: FaultConfig) {
        self.config.faults = Some(config);
        self.faults = Some(FaultPlan::new(config));
    }

    /// Frames parked in the per-CPU page list: owned by the allocator,
    /// mapped nowhere. Free-memory conservation checks must count
    /// `free_frames() + pcp_parked()`.
    pub fn pcp_parked(&self) -> u64 {
        self.pcp.len() as u64
    }

    /// Starts recording per-VPN [`ShootdownEvent`]s for every page-table
    /// mutation. Off by default; the perf path pays one branch per
    /// mutation site.
    pub fn enable_shootdown_log(&mut self) {
        self.shootdowns.enable();
    }

    /// Drains every shootdown recorded since the last drain, oldest
    /// first. Empty unless [`Kernel::enable_shootdown_log`] was called.
    pub fn take_shootdowns(&mut self) -> Vec<ShootdownEvent> {
        self.shootdowns.take()
    }

    /// The construction-time configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// The active memory-management policy.
    pub fn policy(&self) -> &'static dyn MmPolicy {
        self.config.policy.policy()
    }

    /// One per-VMA THP verdict from the policy, with counter accounting.
    /// Consulted only for regions that are already THP-eligible.
    fn policy_thp_decision(&mut self, kind: VmaKind) -> ThpDecision {
        self.stats.policy_decisions += 1;
        let decision = self.policy().thp_decision(kind);
        match decision {
            ThpDecision::Grant => self.stats.policy_huge_grants += 1,
            ThpDecision::Defer | ThpDecision::Deny => self.stats.policy_huge_denies += 1,
        }
        decision
    }

    /// Queues a region for deferred collapse on the policy's behalf —
    /// unlike [`Kernel::note_thp_deferral`], not gated on fault injection
    /// (a [`ThpDecision::Defer`] policy wants the collapse machinery even
    /// on a fault-free kernel).
    fn policy_note_deferral(&mut self, asid: Asid, base_vpn: Vpn) {
        if self.thp_deferred.len() >= THP_DEFER_QUEUE_MAX
            || self.thp_deferred.iter().any(|&(a, v, _)| a == asid && v == base_vpn)
        {
            return;
        }
        self.thp_deferred.push_back((asid, base_vpn, 0));
    }

    /// Activity counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The physical allocator (read-only).
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// The frame database (read-only).
    pub fn frames(&self) -> &FrameDb {
        &self.frames
    }

    /// Looks up a live process.
    ///
    /// # Errors
    /// [`MemError::NoSuchProcess`] when `asid` is unknown.
    pub fn process(&self, asid: Asid) -> MemResult<&Process> {
        self.processes.get(&asid).ok_or(MemError::NoSuchProcess { asid })
    }

    /// Free physical frames right now.
    pub fn free_frames(&self) -> u64 {
        self.buddy.free_frames()
    }

    /// Mapped clean file-backed pages — what the reclaim path could
    /// evict under pressure.
    pub fn reclaimable_file_pages(&self) -> u64 {
        self.frames
            .iter()
            .filter(|(_, state)| {
                let FrameState::Movable { owner, vpn } = *state else {
                    return false;
                };
                self.processes.get(&owner).is_some_and(|p| {
                    p.page_table
                        .translate(vpn)
                        .is_some_and(|t| t.flags.contains(PteFlags::FILE_BACKED))
                })
            })
            .count() as u64
    }

    /// Creates a new process and returns its identifier.
    pub fn spawn(&mut self) -> Asid {
        let asid = Asid(self.next_asid);
        self.next_asid += 1;
        self.processes
            .insert(asid, Process::new(asid, self.config.va_limit_pages));
        asid
    }

    /// Terminates a process, releasing all its memory.
    ///
    /// # Errors
    /// [`MemError::NoSuchProcess`] when `asid` is unknown.
    pub fn exit(&mut self, asid: Asid) -> MemResult<()> {
        let starts: Vec<Vpn> = self
            .process(asid)?
            .address_space()
            .iter()
            .map(|v| v.start)
            .collect();
        for s in starts {
            self.free(asid, s)?;
        }
        self.processes.remove(&asid);
        self.live_superpages.retain(|&(a, _)| a != asid);
        Ok(())
    }

    /// Allocates `pages` of anonymous memory (heap `malloc`). Eligible
    /// for THS superpages when enabled.
    ///
    /// # Errors
    /// Propagates address-space or physical-memory exhaustion.
    pub fn malloc(&mut self, asid: Asid, pages: u64) -> MemResult<Vpn> {
        self.allocate(asid, pages, VmaKind::Anonymous, PteFlags::user_data())
    }

    /// Maps `pages` of file-backed memory — never superpage candidates
    /// (paper §6.1).
    ///
    /// # Errors
    /// Propagates address-space or physical-memory exhaustion.
    pub fn mmap_file(&mut self, asid: Asid, pages: u64) -> MemResult<Vpn> {
        self.allocate(
            asid,
            pages,
            VmaKind::FileBacked,
            PteFlags::user_data().with(PteFlags::FILE_BACKED),
        )
    }

    /// Reserves `pages` of address space *without* populating frames,
    /// regardless of the kernel's populate mode. Pages are then backed
    /// one at a time by [`Kernel::touch`] — the behavior of programs that
    /// grow structures incrementally rather than in bulk mallocs.
    ///
    /// # Errors
    /// Propagates address-space exhaustion.
    pub fn reserve(&mut self, asid: Asid, pages: u64, kind: VmaKind) -> MemResult<Vpn> {
        let flags = match kind {
            VmaKind::Anonymous => PteFlags::user_data(),
            VmaKind::FileBacked => PteFlags::user_data().with(PteFlags::FILE_BACKED),
        };
        let huge_align = self.policy().huge_align(kind);
        let process = self
            .processes
            .get_mut(&asid)
            .ok_or(MemError::NoSuchProcess { asid })?;
        let vma = process.address_space.reserve_hinted(pages, kind, flags, huge_align)?;
        self.stats.allocations += 1;
        self.stats.pages_requested += pages;
        Ok(vma.start)
    }

    fn allocate(
        &mut self,
        asid: Asid,
        pages: u64,
        kind: VmaKind,
        flags: PteFlags,
    ) -> MemResult<Vpn> {
        match self.try_allocate(asid, pages, kind, flags) {
            Err(e @ MemError::OutOfMemory { .. }) if self.faults.is_some() => {
                // Emergency path: reclaim inside the allocator already
                // failed. Kill the largest-RSS process (never the
                // requester) and retry once before surfacing the error.
                if self.oom_kill(Some(asid)).is_none() {
                    return Err(e);
                }
                // The retry re-reserves; undo the failed attempt's
                // counters so one malloc stays one allocation.
                self.stats.allocations -= 1;
                self.stats.pages_requested -= pages;
                self.try_allocate(asid, pages, kind, flags)
            }
            other => other,
        }
    }

    fn try_allocate(
        &mut self,
        asid: Asid,
        pages: u64,
        kind: VmaKind,
        flags: PteFlags,
    ) -> MemResult<Vpn> {
        let huge_align = self.policy().huge_align(kind);
        let process = self
            .processes
            .get_mut(&asid)
            .ok_or(MemError::NoSuchProcess { asid })?;
        let vma = process.address_space.reserve_hinted(pages, kind, flags, huge_align)?;
        self.stats.allocations += 1;
        self.stats.pages_requested += pages;
        if self.config.populate == PopulateMode::Eager {
            if let Err(e) = self.populate_range(asid, vma) {
                // Roll back the reservation (already-populated pages are
                // released) so the caller sees a clean failure.
                let _ = self.free(asid, vma.start);
                return Err(e);
            }
        }
        Ok(vma.start)
    }

    /// Resident set size of `asid` in pages (0 for unknown processes).
    pub fn rss_pages(&self, asid: Asid) -> u64 {
        self.processes.get(&asid).map_or(0, |p| {
            let s = p.page_table().stats();
            s.base_pages + s.superpages * SUPERPAGE_PAGES
        })
    }

    /// The OOM killer: tears down the live process with the largest RSS
    /// (ties broken toward the lowest ASID, so the choice is
    /// deterministic), excluding `exclude`. The victim's pages are
    /// released through the ordinary exit path, emitting an `Unmap`
    /// [`ShootdownEvent`] per mapping.
    ///
    /// Returns the victim, or `None` when no process had pages to give.
    pub fn oom_kill(&mut self, exclude: Option<Asid>) -> Option<Asid> {
        let (victim, rss) = self
            .processes
            .keys()
            .copied()
            .filter(|a| Some(*a) != exclude)
            .map(|a| (a, self.rss_pages(a)))
            .max_by(|(a1, r1), (a2, r2)| r1.cmp(r2).then(a2.cmp(a1)))?;
        if rss == 0 {
            return None;
        }
        self.exit(victim).expect("victim is live");
        self.stats.oom_kills += 1;
        Some(victim)
    }

    /// One fault-plan decision for a buddy allocation attempt.
    fn inject_alloc_failure(&mut self) -> bool {
        let fired = self.faults.as_mut().is_some_and(FaultPlan::fail_alloc);
        if fired {
            self.stats.faults_injected += 1;
        }
        fired
    }

    /// One fault-plan decision for a direct-compaction attempt.
    fn inject_compaction_abort(&mut self) -> bool {
        let fired = self.faults.as_mut().is_some_and(FaultPlan::abort_compaction);
        if fired {
            self.stats.faults_injected += 1;
        }
        fired
    }

    /// One fault-plan decision for background reclaim pressure.
    fn take_reclaim_spike(&mut self) -> Option<u64> {
        let spike = self.faults.as_mut().and_then(FaultPlan::reclaim_spike);
        if spike.is_some() {
            self.stats.faults_injected += 1;
        }
        spike
    }

    /// A buddy multi-page allocation under injection: a fired fault makes
    /// the attempt fail spuriously, exercising the degradation path at
    /// the call site.
    fn buddy_alloc_pages(&mut self, pages: u64) -> Option<PfnRange> {
        if self.inject_alloc_failure() {
            return None;
        }
        self.buddy.alloc_pages(pages)
    }

    /// Whether a direct-compaction attempt may run now, consuming one
    /// backoff credit when it may not.
    fn direct_compaction_allowed(&mut self) -> bool {
        if self.compact_backoff > 0 {
            self.compact_backoff -= 1;
            self.stats.compact_deferred += 1;
            return false;
        }
        true
    }

    /// Whether the policy permits direct compaction at all (counted).
    fn policy_direct_compaction(&mut self) -> bool {
        self.stats.policy_decisions += 1;
        self.policy().direct_compaction()
    }

    /// Records a failed (or aborted) direct compaction: the next
    /// `1 << shift` attempts are skipped, with the shift growing
    /// exponentially up to a cap — Linux's `defer_compaction`. Engaged
    /// only under fault injection so the fault-free kernel's compaction
    /// behavior, and every baseline table, is unchanged.
    fn defer_compaction(&mut self) {
        if self.faults.is_none() {
            return;
        }
        self.compact_backoff = 1 << self.compact_defer_shift;
        self.compact_defer_shift = (self.compact_defer_shift + 1).min(COMPACT_MAX_DEFER_SHIFT);
    }

    /// A direct compaction satisfied its allocation: stop deferring.
    fn reset_compaction_backoff(&mut self) {
        self.compact_defer_shift = 0;
        self.compact_backoff = 0;
    }

    /// Populates `vma` with physical frames in as few contiguous runs as
    /// the buddy allocator permits, using THS for aligned 512-page chunks
    /// of anonymous areas.
    fn populate_range(&mut self, asid: Asid, vma: Vma) -> MemResult<()> {
        let thp_eligible = self.config.ths_enabled && vma.kind == VmaKind::Anonymous;
        // One per-VMA policy verdict covers the whole range.
        let decision = if thp_eligible {
            self.policy_thp_decision(vma.kind)
        } else {
            ThpDecision::Deny
        };
        let thp_now = thp_eligible && decision == ThpDecision::Grant;
        // A deferred region keeps the superpage-boundary clamp below so
        // its aligned blocks are cleanly base-filled for the collapse.
        let thp_path = thp_eligible && decision != ThpDecision::Deny;
        let chunk_cap = 1u64 << self.policy().alloc_chunk_order(self.config.max_alloc_order);
        let mut vpn = vma.start;
        let end = vma.end();
        while vpn < end {
            let remaining = end.distance_from(vpn).expect("vpn < end");
            if vpn.is_aligned(9) && remaining >= SUPERPAGE_PAGES {
                if thp_now {
                    if let Some(base_pfn) = self.alloc_superpage_with_defrag() {
                        self.install_super(asid, vpn, base_pfn, vma.flags);
                        vpn = vpn.offset(SUPERPAGE_PAGES);
                        continue;
                    }
                    self.stats.thp_fallbacks += 1;
                    self.note_thp_deferral(asid, vpn);
                } else if thp_path {
                    self.policy_note_deferral(asid, vpn);
                }
            }
            // Base-page chunk: stop at the next superpage boundary when a
            // later THS attempt (or collapse) is still possible, and at
            // the policy's block-order cap.
            let mut chunk = remaining;
            if thp_path && remaining >= SUPERPAGE_PAGES && !vpn.is_aligned(9) {
                let to_boundary = SUPERPAGE_PAGES - (vpn.raw() & (SUPERPAGE_PAGES - 1));
                chunk = chunk.min(to_boundary);
            }
            chunk = chunk.min(chunk_cap);
            let run = self.alloc_run_with_reclaim(chunk)?;
            self.install_base_run(asid, vpn, run, vma.flags);
            vpn = vpn.offset(run.pages);
        }
        self.maybe_split_under_pressure();
        Ok(())
    }

    /// Attempts an aligned 512-frame THP block, running direct compaction
    /// (targeted at order 9) on failure when the defrag flag is on — the
    /// Linux behavior the paper leans on: "THS relies on the memory
    /// compaction daemon, triggering it more often" (§3.2.3).
    fn alloc_superpage_with_defrag(&mut self) -> Option<Pfn> {
        if self.inject_alloc_failure() {
            return None;
        }
        if let Some(p) = thp::try_alloc_superpage(&mut self.buddy) {
            return Some(p);
        }
        if self.config.compaction == CompactionMode::Normal
            && self.policy_direct_compaction()
            && self.buddy.free_frames() >= SUPERPAGE_PAGES
        {
            if !self.direct_compaction_allowed() {
                return None;
            }
            if self.inject_compaction_abort() {
                self.defer_compaction();
                return None;
            }
            let stats = self.compact_bounded(9, 8 * SUPERPAGE_PAGES);
            let got = thp::try_alloc_superpage(&mut self.buddy);
            if got.is_none() || stats.aborted {
                self.defer_compaction();
            } else {
                self.reset_compaction_backoff();
            }
            return got;
        }
        None
    }

    /// Allocates up to `chunk` contiguous frames, compacting on failure
    /// (in [`CompactionMode::Normal`]) and degrading to smaller runs as
    /// fragmentation forces it.
    fn alloc_run_with_reclaim(&mut self, mut chunk: u64) -> MemResult<PfnRange> {
        // Order-0 requests go through the per-CPU page list like every
        // other single-page allocation.
        if chunk == 1 {
            let pfn = self.alloc_single_via_pcp()?;
            return Ok(PfnRange::new(pfn, 1));
        }
        let mut compacted = false;
        loop {
            if let Some(run) = self.buddy_alloc_pages(chunk) {
                return Ok(run);
            }
            // Direct compaction: the Linux defrag flag triggers the
            // daemon on allocation failure (paper §5.1.1). It stops as
            // soon as a block of the needed order is free. Under the
            // defer backoff (or an injected abort) the attempt is
            // skipped and the request degrades to smaller runs instead.
            if !compacted
                && self.config.compaction == CompactionMode::Normal
                && self.policy_direct_compaction()
                && self.buddy.free_frames() >= chunk
            {
                compacted = true;
                if self.direct_compaction_allowed() {
                    if self.inject_compaction_abort() {
                        self.defer_compaction();
                    } else {
                        self.compact_bounded(covering_order(chunk), 4 * chunk.max(64));
                    }
                    continue;
                }
            }
            if chunk > 1 {
                chunk /= 2;
                continue;
            }
            // Last resort before OOM: evict clean page cache.
            if self.reclaim_file_pages(PCP_BATCH * 4) > 0 {
                continue;
            }
            // Terminal attempt, injection bypassed (GFP_MEMALLOC-style):
            // a fired fault plan alone must never manufacture an OOM out
            // of genuinely free memory.
            if let Some(run) = self.buddy.alloc_pages(chunk) {
                return Ok(run);
            }
            return Err(MemError::OutOfMemory { requested_pages: chunk });
        }
    }

    /// Serves one order-0 frame from the per-CPU page list, refilling it
    /// with a contiguous batch from the buddy allocator when empty.
    fn alloc_single_via_pcp(&mut self) -> MemResult<Pfn> {
        if let Some(p) = self.pcp.pop_front() {
            return Ok(p);
        }
        let batch = self.policy().pcp_batch(PCP_BATCH);
        let placement = self.policy().placement();
        let mut want = batch;
        let mut reclaimed = false;
        loop {
            if let Some(run) = self.buddy_alloc_pages(want) {
                for i in 0..run.pages {
                    // Parked in the PCP: owned by the allocator, not yet
                    // mapped anywhere. An interleaving policy perturbs
                    // the serve order so consecutive faults never see
                    // adjacent frames.
                    let p = match placement {
                        Placement::Linear => run.start.offset(i),
                        Placement::Interleaved => run.start.offset(interleave(i, run.pages)),
                    };
                    self.frames.set(p, FrameState::Pinned);
                    self.pcp.push_back(p);
                }
                return Ok(self.pcp.pop_front().expect("batch non-empty"));
            }
            if want > 1 {
                want /= 2;
                continue;
            }
            // Last resort: evict clean page cache (kswapd's job).
            if !reclaimed && self.reclaim_file_pages(PCP_BATCH * 4) > 0 {
                reclaimed = true;
                want = batch;
                continue;
            }
            // Terminal attempt, injection bypassed (GFP_MEMALLOC-style):
            // see alloc_run_with_reclaim.
            if let Some(run) = self.buddy.alloc_pages(1) {
                let p = run.start;
                self.frames.set(p, FrameState::Pinned);
                self.pcp.push_back(p);
                return Ok(self.pcp.pop_front().expect("just pushed"));
            }
            return Err(MemError::OutOfMemory { requested_pages: 1 });
        }
    }

    /// Evicts up to `target` clean file-backed pages (lowest frames
    /// first), unmapping them from their owners and freeing the frames —
    /// the reclaim path that lets allocation succeed under memory
    /// pressure instead of failing. Evicted pages fault back in on the
    /// next touch, as page cache does after a re-read.
    ///
    /// Returns the number of pages evicted.
    pub fn reclaim_file_pages(&mut self, target: u64) -> u64 {
        // The policy picks the scan direction: the default clears the low
        // frames first (where compaction migrates into); the adversarial
        // direction evicts from the top, leaving low holes.
        let order = self.policy().reclaim_order();
        let mut victims: Vec<(Asid, Vpn)> = Vec::new();
        for (pfn, state) in self.frames.iter() {
            if order == ReclaimOrder::LowestPfnFirst && victims.len() as u64 >= target {
                break;
            }
            let FrameState::Movable { owner, vpn } = state else {
                continue;
            };
            let Some(process) = self.processes.get(&owner) else {
                continue;
            };
            let file_backed = process
                .page_table
                .translate(vpn)
                .is_some_and(|t| t.flags.contains(PteFlags::FILE_BACKED));
            if file_backed {
                debug_assert_eq!(
                    process.page_table.translate(vpn).map(|t| t.pfn),
                    Some(pfn)
                );
                victims.push((owner, vpn));
            }
        }
        if order == ReclaimOrder::HighestPfnFirst {
            victims.reverse();
            victims.truncate(target as usize);
        }
        let mut evicted = 0u64;
        for (owner, vpn) in victims {
            let Some(process) = self.processes.get_mut(&owner) else {
                continue;
            };
            let entry_addrs = if self.shootdowns.is_enabled() {
                process.page_table.walk(vpn).map(|p| p.entry_addrs).unwrap_or_default()
            } else {
                Vec::new()
            };
            if let Some(pte) = process.page_table.unmap_base(vpn) {
                self.shootdowns.record(ShootdownEvent {
                    asid: owner,
                    vpn,
                    kind: ShootdownKind::Reclaim,
                    entry_addrs,
                    old_pfn: Some(pte.pfn),
                    new_pfn: None,
                });
                self.frames.set(pte.pfn, FrameState::Free);
                self.buddy.free_block(pte.pfn, 0);
                evicted += 1;
            }
        }
        self.stats.pages_reclaimed += evicted;
        evicted
    }

    fn install_base_run(&mut self, asid: Asid, start_vpn: Vpn, run: PfnRange, flags: PteFlags) {
        let placement = self.policy().placement();
        let process = self.processes.get_mut(&asid).expect("caller validated asid");
        for i in 0..run.pages {
            let vpn = start_vpn.offset(i);
            // An interleaving policy maps consecutive VPNs to a
            // non-adjacent permutation of the run's frames, severing
            // VPN→PFN contiguity without wasting physical memory.
            let pfn = match placement {
                Placement::Linear => run.start.offset(i),
                Placement::Interleaved => run.start.offset(interleave(i, run.pages)),
            };
            process.page_table.map_base(vpn, Pte::new(pfn, flags));
            self.frames.set(pfn, FrameState::Movable { owner: asid, vpn });
        }
        self.stats.pages_populated += run.pages;
        self.stats.physical_runs += 1;
    }

    fn install_super(&mut self, asid: Asid, base_vpn: Vpn, base_pfn: Pfn, flags: PteFlags) {
        let process = self.processes.get_mut(&asid).expect("caller validated asid");
        process.page_table.map_super(base_vpn, Pte::new(base_pfn, flags));
        thp::record_superpage_frames(&mut self.frames, asid, base_vpn, base_pfn);
        self.live_superpages.push_back((asid, base_vpn));
        self.stats.thp_allocs += 1;
        self.stats.pages_populated += SUPERPAGE_PAGES;
        self.stats.physical_runs += 1;
    }

    /// Accesses a virtual page: translates it, demand-populating on a
    /// fault when the kernel is in [`PopulateMode::Demand`].
    ///
    /// # Errors
    /// [`MemError::NotMapped`] when `vpn` lies in no allocation, plus
    /// population failures in demand mode.
    pub fn touch(&mut self, asid: Asid, vpn: Vpn) -> MemResult<Translation> {
        let process = self
            .processes
            .get_mut(&asid)
            .ok_or(MemError::NoSuchProcess { asid })?;
        if let Some(t) = process.page_table.translate(vpn) {
            return Ok(t);
        }
        let vma = *process
            .address_space
            .find(vpn)
            .ok_or(MemError::NotMapped { vpn })?;
        self.stats.demand_faults += 1;
        self.demand_fault(asid, vpn, vma)?;
        let process = self.processes.get(&asid).expect("still live");
        process.page_table.translate(vpn).ok_or(MemError::NotMapped { vpn })
    }

    /// Serves one demand fault: THS first-touch gets a whole aligned
    /// superpage when possible; otherwise a single frame.
    fn demand_fault(&mut self, asid: Asid, vpn: Vpn, vma: Vma) -> MemResult<()> {
        let thp_eligible = self.config.ths_enabled && vma.kind == VmaKind::Anonymous;
        if thp_eligible {
            let decision = self.policy_thp_decision(vma.kind);
            let huge_base = vpn.align_down(9);
            let huge_fits = huge_base >= vma.start
                && huge_base.offset(SUPERPAGE_PAGES) <= vma.end();
            let range_untouched = || {
                let process = self.processes.get(&asid).expect("live");
                (0..SUPERPAGE_PAGES)
                    .all(|i| process.page_table.translate(huge_base.offset(i)).is_none())
            };
            if decision == ThpDecision::Grant && huge_fits && range_untouched() {
                if let Some(base_pfn) = self.alloc_superpage_with_defrag() {
                    self.install_super(asid, huge_base, base_pfn, vma.flags);
                    self.maybe_split_under_pressure();
                    return Ok(());
                }
                self.stats.thp_fallbacks += 1;
                self.note_thp_deferral(asid, huge_base);
            } else if decision == ThpDecision::Defer && huge_fits {
                // Base-fill now; khugepaged collapses the region once all
                // its pages have faulted in.
                self.policy_note_deferral(asid, huge_base);
            }
        }
        let pfn = self.alloc_single_via_pcp()?;
        let process = self.processes.get_mut(&asid).expect("caller validated asid");
        process.page_table.map_base(vpn, Pte::new(pfn, vma.flags));
        self.frames.set(pfn, FrameState::Movable { owner: asid, vpn });
        self.stats.pages_populated += 1;
        self.stats.physical_runs += 1;
        Ok(())
    }

    /// Marks a page dirty (sets the DIRTY attribute on its PTE). Note
    /// that diverging attributes end contiguity runs (paper §5.1.1).
    ///
    /// # Errors
    /// [`MemError::NotMapped`] if `vpn` has no base-page mapping.
    pub fn mark_dirty(&mut self, asid: Asid, vpn: Vpn) -> MemResult<()> {
        let process = self
            .processes
            .get_mut(&asid)
            .ok_or(MemError::NoSuchProcess { asid })?;
        process
            .page_table
            .add_flags_base(vpn, PteFlags::DIRTY)
            .map(|_| ())
            .ok_or(MemError::NotMapped { vpn })
    }

    /// Frees the allocation starting at `start`, returning every frame to
    /// the buddy allocator.
    ///
    /// # Errors
    /// [`MemError::NotAllocationStart`] when `start` does not begin an
    /// allocation.
    pub fn free(&mut self, asid: Asid, start: Vpn) -> MemResult<()> {
        let process = self
            .processes
            .get_mut(&asid)
            .ok_or(MemError::NoSuchProcess { asid })?;
        let vma = process.address_space.remove(start)?;
        let mut vpn = vma.start;
        let end = vma.end();
        while vpn < end {
            match process.page_table.translate(vpn) {
                Some(Translation { kind: PageKind::Super { base_vpn }, .. }) => {
                    let entry_addrs = if self.shootdowns.is_enabled() {
                        process
                            .page_table
                            .walk(base_vpn)
                            .map(|p| p.entry_addrs)
                            .unwrap_or_default()
                    } else {
                        Vec::new()
                    };
                    let pte = process
                        .page_table
                        .unmap_super(base_vpn)
                        .expect("translation said superpage");
                    self.shootdowns.record(ShootdownEvent {
                        asid,
                        vpn: base_vpn,
                        kind: ShootdownKind::Unmap,
                        entry_addrs,
                        old_pfn: Some(pte.pfn),
                        new_pfn: None,
                    });
                    for i in 0..SUPERPAGE_PAGES {
                        self.frames.set(pte.pfn.offset(i), FrameState::Free);
                    }
                    self.buddy.free_block(pte.pfn, 9);
                    self.live_superpages
                        .retain(|&(a, v)| !(a == asid && v == base_vpn));
                    vpn = base_vpn.offset(SUPERPAGE_PAGES);
                }
                Some(Translation { kind: PageKind::Base, .. }) => {
                    let entry_addrs = if self.shootdowns.is_enabled() {
                        process.page_table.walk(vpn).map(|p| p.entry_addrs).unwrap_or_default()
                    } else {
                        Vec::new()
                    };
                    let pte = process.page_table.unmap_base(vpn).expect("mapped");
                    self.shootdowns.record(ShootdownEvent {
                        asid,
                        vpn,
                        kind: ShootdownKind::Unmap,
                        entry_addrs,
                        old_pfn: Some(pte.pfn),
                        new_pfn: None,
                    });
                    self.frames.set(pte.pfn, FrameState::Free);
                    self.buddy.free_block(pte.pfn, 0);
                    vpn = vpn.next();
                }
                None => vpn = vpn.next(),
            }
        }
        Ok(())
    }

    /// Runs one full compaction pass immediately.
    pub fn compact_now(&mut self) -> CompactionStats {
        let stats = compaction::compact_logged(
            &mut self.buddy,
            &mut self.frames,
            &mut self.processes,
            CompactionControl::default(),
            &mut self.shootdowns,
        );
        self.stats.compaction_runs += 1;
        self.stats.pages_migrated += stats.migrated;
        stats
    }

    /// Direct compaction targeted at making one block of `order` free,
    /// bounded at `max_migrations` of work (real direct compaction gives
    /// up rather than stalling the faulting process indefinitely).
    fn compact_bounded(&mut self, order: u32, max_migrations: u64) -> CompactionStats {
        self.stats.policy_compactions_requested += 1;
        let control =
            CompactionControl { target_order: Some(order), max_migrations: Some(max_migrations) }
                .scaled(self.policy().compaction_budget_factor());
        let stats = compaction::compact_logged(
            &mut self.buddy,
            &mut self.frames,
            &mut self.processes,
            control,
            &mut self.shootdowns,
        );
        self.stats.compaction_runs += 1;
        self.stats.pages_migrated += stats.migrated;
        stats
    }

    /// Background activity hook: call periodically (the paper's daemon is
    /// "system background activity"). In [`CompactionMode::Normal`] this
    /// runs a bounded compaction slice when fragmentation exceeds the
    /// configured threshold (kcompactd-style), and lets the THS pressure
    /// daemon split superpages when memory is low.
    pub fn tick(&mut self) {
        // Injected pressure spike: kswapd wakes and evicts page cache.
        if let Some(spike) = self.take_reclaim_spike() {
            self.reclaim_file_pages(spike);
        }
        // Background compaction exists to serve high-order (THP) demand:
        // with THS off the default policy almost never wakes it up (paper
        // §6.2, "disabling THS drastically reduces memory compaction
        // daemon invocations"). The policy decides the trigger; the
        // scenario's compaction mode still gates the daemon entirely.
        let scattered = self.buddy.small_free_fraction(6) > 0.30;
        self.stats.policy_decisions += 1;
        if self.config.compaction == CompactionMode::Normal
            && self.policy().background_compaction(
                self.config.ths_enabled,
                scattered,
                self.buddy.fragmentation_index(),
                self.config.compaction_frag_threshold,
            )
        {
            self.stats.policy_compactions_requested += 1;
            if self.inject_compaction_abort() {
                // The daemon's slice is skipped this round.
                self.stats.compact_deferred += 1;
            } else {
                let slice = self.policy().background_slice(self.buddy.nr_frames());
                let stats = compaction::compact_logged(
                    &mut self.buddy,
                    &mut self.frames,
                    &mut self.processes,
                    CompactionControl::slice(slice),
                    &mut self.shootdowns,
                );
                self.stats.compaction_runs += 1;
                self.stats.pages_migrated += stats.migrated;
            }
        }
        self.maybe_split_under_pressure();
        self.khugepaged_scan();
    }

    /// Queues a THP-fallback region for a deferred khugepaged collapse.
    /// Part of the degradation model: inert unless a fault plan is
    /// installed, keeping the fault-free kernel's behavior untouched.
    fn note_thp_deferral(&mut self, asid: Asid, base_vpn: Vpn) {
        if self.faults.is_none()
            || self.thp_deferred.len() >= THP_DEFER_QUEUE_MAX
            || self.thp_deferred.iter().any(|&(a, v, _)| a == asid && v == base_vpn)
        {
            return;
        }
        self.thp_deferred.push_back((asid, base_vpn, 0));
    }

    /// khugepaged: rescans a few deferred regions, collapsing those whose
    /// 512 pages are all base-mapped into a freshly allocated superpage.
    /// Transient failures are retried up to [`THP_RETRY_BUDGET`] times.
    fn khugepaged_scan(&mut self) {
        for _ in 0..COLLAPSES_PER_TICK {
            let Some((asid, base_vpn, retries)) = self.thp_deferred.pop_front() else {
                return;
            };
            self.stats.thp_deferred_retries += 1;
            match self.try_collapse(asid, base_vpn) {
                CollapseOutcome::Collapsed | CollapseOutcome::Gone => {}
                CollapseOutcome::Retry => {
                    if retries + 1 < THP_RETRY_BUDGET {
                        self.thp_deferred.push_back((asid, base_vpn, retries + 1));
                    }
                }
            }
        }
    }

    /// One collapse attempt: migrate the 512 base pages at `base_vpn`
    /// into a fresh naturally aligned block and remap them as one
    /// superpage — khugepaged's copy+remap, costing one `Migrate`
    /// shootdown per page.
    fn try_collapse(&mut self, asid: Asid, base_vpn: Vpn) -> CollapseOutcome {
        let Some(process) = self.processes.get(&asid) else {
            return CollapseOutcome::Gone;
        };
        // The whole range must still sit inside one anonymous VMA.
        let eligible = process.address_space.find(base_vpn).is_some_and(|vma| {
            vma.kind == VmaKind::Anonymous
                && base_vpn >= vma.start
                && base_vpn.offset(SUPERPAGE_PAGES) <= vma.end()
        });
        if !eligible {
            return CollapseOutcome::Gone;
        }
        self.stats.policy_decisions += 1;
        match thp::collapse_scan_policy(self.policy(), process, base_vpn) {
            thp::CollapseScan::Ineligible => return CollapseOutcome::Gone,
            thp::CollapseScan::Holes => return CollapseOutcome::Retry,
            thp::CollapseScan::Ready => {}
        }
        self.stats.policy_collapses_triggered += 1;
        // The target block is an allocation like any other: subject to
        // injection, and to there simply being no order-9 block yet.
        if self.inject_alloc_failure() {
            return CollapseOutcome::Retry;
        }
        let Some(new_base) = thp::try_alloc_superpage(&mut self.buddy) else {
            return CollapseOutcome::Retry;
        };
        let process = self.processes.get_mut(&asid).expect("checked above");
        let mut flags: Option<PteFlags> = None;
        for i in 0..SUPERPAGE_PAGES {
            let vpn = base_vpn.offset(i);
            let entry_addrs = if self.shootdowns.is_enabled() {
                process.page_table.walk(vpn).map(|p| p.entry_addrs).unwrap_or_default()
            } else {
                Vec::new()
            };
            let old = process.page_table.unmap_base(vpn).expect("scan said base-mapped");
            // The superpage PTE carries the union of the base flags (a
            // dirty page keeps the collapsed region dirty).
            flags = Some(flags.map_or(old.flags, |f| f.with(old.flags)));
            self.shootdowns.record(ShootdownEvent {
                asid,
                vpn,
                kind: ShootdownKind::Migrate,
                entry_addrs,
                old_pfn: Some(old.pfn),
                new_pfn: Some(new_base.offset(i)),
            });
            self.frames.set(old.pfn, FrameState::Free);
            self.buddy.free_block(old.pfn, 0);
        }
        let flags = flags.expect("512 pages merged");
        process.page_table.map_super(base_vpn, Pte::new(new_base, flags));
        thp::record_superpage_frames(&mut self.frames, asid, base_vpn, new_base);
        self.live_superpages.push_back((asid, base_vpn));
        self.stats.thp_allocs += 1;
        CollapseOutcome::Collapsed
    }

    /// Splits oldest-first superpages while the free-memory watermark is
    /// violated (at most a few per invocation, as a daemon would).
    fn maybe_split_under_pressure(&mut self) {
        const SPLITS_PER_ROUND: usize = 8;
        for _ in 0..SPLITS_PER_ROUND {
            if !thp::pressure_should_split_policy(
                self.policy(),
                self.buddy.free_frames(),
                self.buddy.nr_frames(),
                self.config.thp_split_watermark,
            ) {
                return;
            }
            let Some((asid, base_vpn)) = self.live_superpages.pop_front() else {
                return;
            };
            self.split_one(asid, base_vpn);
        }
    }

    /// Forcibly splits up to `n` live superpages (oldest first),
    /// regardless of pressure. Returns how many were split.
    pub fn split_superpages(&mut self, n: usize) -> usize {
        let mut done = 0;
        while done < n {
            let Some((asid, base_vpn)) = self.live_superpages.pop_front() else {
                break;
            };
            if self.split_one(asid, base_vpn) {
                done += 1;
            }
        }
        done
    }

    /// Splits one superpage and, when configured, punctures the residual
    /// 512-page run by reclaiming a strided subset of its pages — the
    /// long-run outcome of pressure splitting plus reclaim, leaving
    /// "tens of pages" of contiguity (paper §3.2.3). Reclaimed pages
    /// fault back in on the next [`Kernel::touch`].
    fn split_one(&mut self, asid: Asid, base_vpn: Vpn) -> bool {
        let Some(process) = self.processes.get_mut(&asid) else {
            return false;
        };
        let pre_split = if self.shootdowns.is_enabled() {
            process.page_table.walk(base_vpn).map(|p| (p.entry_addrs, p.translation.pfn))
        } else {
            None
        };
        if !thp::split_superpage(process, &mut self.frames, base_vpn) {
            return false;
        }
        if let Some((entry_addrs, old_pfn)) = pre_split {
            // The superpage leaf is gone; any TLB entry caching it (and
            // the walker's cached path to it) must go too, even though
            // the split itself leaves every translation intact.
            self.shootdowns.record(ShootdownEvent {
                asid,
                vpn: base_vpn,
                kind: ShootdownKind::SuperSplit,
                entry_addrs,
                old_pfn: Some(old_pfn),
                new_pfn: Some(old_pfn),
            });
        }
        self.stats.thp_splits += 1;
        // Only some split superpages see reclaim before their pages are
        // touched again; the rest keep their full 512-page run.
        let hash = base_vpn.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let punctured = (hash >> 29) % 10 < 6;
        if self.policy().split_puncture(self.config.thp_split_puncture) && punctured {
            // Deterministic per-superpage stride in 32..=127.
            let stride = 32 + (hash >> 33) % 96;
            let mut i = stride;
            while i < SUPERPAGE_PAGES {
                let vpn = base_vpn.offset(i);
                // Reclaim + refault: the page comes back on a different
                // frame, severing the run at this point.
                if let Some(run) = self.buddy.alloc_pages(1) {
                    let process = self.processes.get_mut(&asid).expect("checked above");
                    let entry_addrs = if self.shootdowns.is_enabled() {
                        process.page_table.walk(vpn).map(|p| p.entry_addrs).unwrap_or_default()
                    } else {
                        Vec::new()
                    };
                    if let Some(old) = process.page_table.remap_base(vpn, run.start) {
                        self.shootdowns.record(ShootdownEvent {
                            asid,
                            vpn,
                            kind: ShootdownKind::Puncture,
                            entry_addrs,
                            old_pfn: Some(old.pfn),
                            new_pfn: Some(run.start),
                        });
                        self.frames
                            .set(run.start, FrameState::Movable { owner: asid, vpn });
                        self.frames.set(old.pfn, FrameState::Free);
                        self.buddy.free_block(old.pfn, 0);
                    } else {
                        self.buddy.free_pages(run);
                    }
                }
                i += stride;
            }
        }
        true
    }

    /// Number of currently live (unsplit) superpages.
    pub fn live_superpage_count(&self) -> usize {
        self.live_superpages.len()
    }

    /// Allocates `pages` of pinned, unmovable memory with no virtual
    /// mapping (kernel allocations; `memhog`'s tool of choice). The
    /// frames come back scattered across as many runs as fragmentation
    /// dictates.
    ///
    /// # Errors
    /// [`MemError::OutOfMemory`] when physical memory is exhausted.
    pub fn allocate_pinned(&mut self, pages: u64) -> MemResult<Vec<PfnRange>> {
        let chunk_cap = 1u64 << self.policy().alloc_chunk_order(self.config.max_alloc_order);
        let mut out = Vec::new();
        let mut remaining = pages;
        while remaining > 0 {
            let chunk = remaining.min(chunk_cap);
            let run = match self.buddy.alloc_pages(chunk) {
                Some(r) => r,
                None => {
                    // No compaction here: pinned memory is exactly what
                    // compaction cannot help with. Page cache can still
                    // be evicted to make room.
                    let shrunk = self.shrink_until_alloc(chunk).or_else(|| {
                        if self.reclaim_file_pages(chunk.max(64)) > 0 {
                            self.shrink_until_alloc(chunk.max(2))
                        } else {
                            None
                        }
                    });
                    match shrunk {
                        Some(r) => r,
                        None => {
                            for r in out {
                                self.free_pinned(r);
                            }
                            return Err(MemError::OutOfMemory { requested_pages: remaining });
                        }
                    }
                }
            };
            for p in run.iter() {
                self.frames.set(p, FrameState::Pinned);
            }
            remaining -= run.pages;
            out.push(run);
        }
        Ok(out)
    }

    fn shrink_until_alloc(&mut self, mut chunk: u64) -> Option<PfnRange> {
        while chunk > 1 {
            chunk /= 2;
            if let Some(r) = self.buddy.alloc_pages(chunk) {
                return Some(r);
            }
        }
        None
    }

    /// Frees one pinned range returned by [`Kernel::allocate_pinned`].
    pub fn free_pinned(&mut self, range: PfnRange) {
        for p in range.iter() {
            debug_assert_eq!(self.frames.state(p), FrameState::Pinned);
            self.frames.set(p, FrameState::Free);
        }
        self.buddy.free_pages(range);
    }

    /// Scans a process's page table and reports its page-allocation
    /// contiguity (paper §3.1 definition).
    ///
    /// # Errors
    /// [`MemError::NoSuchProcess`] when `asid` is unknown.
    pub fn scan_contiguity(&self, asid: Asid) -> MemResult<ContiguityReport> {
        Ok(ContiguityReport::scan(self.process(asid)?.page_table()))
    }
}

impl Snapshot for CompactionMode {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            CompactionMode::Normal => 0,
            CompactionMode::Low => 1,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        match dec.u8()? {
            0 => Ok(CompactionMode::Normal),
            1 => Ok(CompactionMode::Low),
            b => Err(SnapshotError(format!("invalid CompactionMode tag {b:#x}"))),
        }
    }
}

impl Snapshot for PopulateMode {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            PopulateMode::Eager => 0,
            PopulateMode::Demand => 1,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        match dec.u8()? {
            0 => Ok(PopulateMode::Eager),
            1 => Ok(PopulateMode::Demand),
            b => Err(SnapshotError(format!("invalid PopulateMode tag {b:#x}"))),
        }
    }
}

impl Snapshot for KernelConfig {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.nr_frames);
        enc.bool(self.ths_enabled);
        self.compaction.encode(enc);
        self.populate.encode(enc);
        enc.f64(self.compaction_frag_threshold);
        enc.f64(self.thp_split_watermark);
        enc.u32(self.max_alloc_order);
        enc.bool(self.thp_split_puncture);
        enc.u64(self.va_limit_pages);
        self.policy.encode(enc);
        self.faults.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok(Self {
            nr_frames: dec.u64()?,
            ths_enabled: dec.bool()?,
            compaction: CompactionMode::decode(dec)?,
            populate: PopulateMode::decode(dec)?,
            compaction_frag_threshold: dec.f64()?,
            thp_split_watermark: dec.f64()?,
            max_alloc_order: dec.u32()?,
            thp_split_puncture: dec.bool()?,
            va_limit_pages: dec.u64()?,
            policy: PolicyKind::decode(dec)?,
            faults: Option::decode(dec)?,
        })
    }
}

impl Snapshot for KernelStats {
    fn encode(&self, enc: &mut Enc) {
        for v in [
            self.allocations,
            self.pages_requested,
            self.pages_populated,
            self.physical_runs,
            self.thp_allocs,
            self.thp_fallbacks,
            self.thp_splits,
            self.compaction_runs,
            self.pages_migrated,
            self.demand_faults,
            self.pages_reclaimed,
            self.oom_kills,
            self.compact_deferred,
            self.thp_deferred_retries,
            self.faults_injected,
            self.policy_decisions,
            self.policy_huge_grants,
            self.policy_huge_denies,
            self.policy_collapses_triggered,
            self.policy_compactions_requested,
        ] {
            enc.u64(v);
        }
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok(Self {
            allocations: dec.u64()?,
            pages_requested: dec.u64()?,
            pages_populated: dec.u64()?,
            physical_runs: dec.u64()?,
            thp_allocs: dec.u64()?,
            thp_fallbacks: dec.u64()?,
            thp_splits: dec.u64()?,
            compaction_runs: dec.u64()?,
            pages_migrated: dec.u64()?,
            demand_faults: dec.u64()?,
            pages_reclaimed: dec.u64()?,
            oom_kills: dec.u64()?,
            compact_deferred: dec.u64()?,
            thp_deferred_retries: dec.u64()?,
            faults_injected: dec.u64()?,
            policy_decisions: dec.u64()?,
            policy_huge_grants: dec.u64()?,
            policy_huge_denies: dec.u64()?,
            policy_collapses_triggered: dec.u64()?,
            policy_compactions_requested: dec.u64()?,
        })
    }
}

impl Snapshot for Kernel {
    fn encode(&self, enc: &mut Enc) {
        self.config.encode(enc);
        self.buddy.encode(enc);
        self.frames.encode(enc);
        self.processes.encode(enc);
        enc.u32(self.next_asid);
        self.live_superpages.encode(enc);
        self.pcp.encode(enc);
        self.shootdowns.encode(enc);
        self.faults.encode(enc);
        self.thp_deferred.encode(enc);
        enc.u32(self.compact_defer_shift);
        enc.u64(self.compact_backoff);
        self.stats.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok(Self {
            config: KernelConfig::decode(dec)?,
            buddy: BuddyAllocator::decode(dec)?,
            frames: FrameDb::decode(dec)?,
            processes: BTreeMap::decode(dec)?,
            next_asid: dec.u32()?,
            live_superpages: VecDeque::decode(dec)?,
            pcp: VecDeque::decode(dec)?,
            shootdowns: ShootdownLog::decode(dec)?,
            faults: Option::decode(dec)?,
            thp_deferred: VecDeque::decode(dec)?,
            compact_defer_shift: dec.u32()?,
            compact_backoff: dec.u64()?,
            stats: KernelStats::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_kernel(ths: bool) -> Kernel {
        Kernel::new(KernelConfig {
            nr_frames: 4096,
            ths_enabled: ths,
            ..KernelConfig::default()
        })
    }

    #[test]
    fn malloc_populates_contiguous_frames_when_memory_is_fresh() {
        let mut k = small_kernel(false);
        let asid = k.spawn();
        let base = k.malloc(asid, 64).unwrap();
        let proc = k.process(asid).unwrap();
        let first = proc.translate(base).unwrap().pfn;
        for i in 0..64 {
            let t = proc.translate(base.offset(i)).unwrap();
            assert_eq!(t.pfn, first.offset(i), "fresh memory yields one run");
        }
        assert_eq!(k.stats().physical_runs, 1);
    }

    #[test]
    fn ths_backs_large_anonymous_allocations_with_superpages() {
        let mut k = small_kernel(true);
        let asid = k.spawn();
        let base = k.malloc(asid, 1024).unwrap();
        assert_eq!(k.stats().thp_allocs, 2);
        assert_eq!(k.live_superpage_count(), 2);
        let proc = k.process(asid).unwrap();
        let t = proc.translate(base.offset(600)).unwrap();
        assert!(matches!(t.kind, PageKind::Super { .. }));
    }

    #[test]
    fn file_backed_mappings_never_use_superpages() {
        let mut k = small_kernel(true);
        let asid = k.spawn();
        let base = k.mmap_file(asid, 1024).unwrap();
        assert_eq!(k.stats().thp_allocs, 0);
        let proc = k.process(asid).unwrap();
        let t = proc.translate(base).unwrap();
        assert_eq!(t.kind, PageKind::Base);
        assert!(t.flags.contains(PteFlags::FILE_BACKED));
    }

    #[test]
    fn free_returns_all_frames() {
        let mut k = small_kernel(true);
        let asid = k.spawn();
        let before = k.free_frames();
        let a = k.malloc(asid, 700).unwrap();
        let b = k.mmap_file(asid, 100).unwrap();
        assert_eq!(k.free_frames(), before - 800);
        k.free(asid, a).unwrap();
        k.free(asid, b).unwrap();
        assert_eq!(k.free_frames(), before);
        k.buddy().check_invariants();
    }

    #[test]
    fn exit_releases_everything() {
        let mut k = small_kernel(true);
        let asid = k.spawn();
        k.malloc(asid, 600).unwrap();
        k.malloc(asid, 37).unwrap();
        k.exit(asid).unwrap();
        assert_eq!(k.free_frames(), 4096);
        assert!(k.process(asid).is_err());
        assert_eq!(k.live_superpage_count(), 0);
    }

    #[test]
    fn touch_unmapped_address_errors() {
        let mut k = small_kernel(false);
        let asid = k.spawn();
        let err = k.touch(asid, Vpn::new(0x5000)).unwrap_err();
        assert!(matches!(err, MemError::NotMapped { .. }));
    }

    #[test]
    fn demand_mode_populates_on_first_touch_only() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 4096,
            ths_enabled: false,
            populate: PopulateMode::Demand,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        let before = k.free_frames();
        let base = k.malloc(asid, 100).unwrap();
        assert_eq!(k.free_frames(), before, "demand mode allocates nothing up front");
        let t1 = k.touch(asid, base.offset(5)).unwrap();
        let t2 = k.touch(asid, base.offset(5)).unwrap();
        assert_eq!(t1.pfn, t2.pfn);
        assert_eq!(k.stats().demand_faults, 1);
        // The per-CPU page list grabbed a whole batch; one page is mapped
        // and the rest are parked for the next faults.
        assert!(before - k.free_frames() <= 32);
        assert!(k.free_frames() < before);
    }

    #[test]
    fn demand_mode_with_ths_faults_whole_superpages() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 4096,
            ths_enabled: true,
            populate: PopulateMode::Demand,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        let base = k.malloc(asid, 1024).unwrap();
        k.touch(asid, base.offset(100)).unwrap();
        assert_eq!(k.stats().thp_allocs, 1);
        let proc = k.process(asid).unwrap();
        assert!(matches!(
            proc.translate(base.offset(511)).unwrap().kind,
            PageKind::Super { .. }
        ));
        assert!(proc.translate(base.offset(512)).is_none(), "next superpage untouched");
    }

    #[test]
    fn pressure_splits_superpages_oldest_first() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 2048,
            ths_enabled: true,
            thp_split_watermark: 0.30,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        // Two superpages = 1024 pages; free fraction 50%, above watermark.
        k.malloc(asid, 1024).unwrap();
        assert_eq!(k.live_superpage_count(), 2);
        // Another 600 pages drops free fraction below 30% → splits begin.
        k.malloc(asid, 600).unwrap();
        assert!(k.stats().thp_splits > 0, "pressure daemon must split");
    }

    #[test]
    fn fragmentation_triggers_direct_compaction() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 1024,
            ths_enabled: false,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        // Fill memory completely, then free every other allocation so the
        // 512 free frames are shattered into 32-page chunks.
        let mut allocs = Vec::new();
        for _ in 0..32 {
            allocs.push(k.malloc(asid, 32).unwrap());
        }
        for (i, a) in allocs.iter().enumerate() {
            if i % 2 == 0 {
                k.free(asid, *a).unwrap();
            }
        }
        // A 256-page request (order-6 chunks under the cap) cannot be
        // satisfied without compaction: only 32-page holes are free.
        k.malloc(asid, 256).unwrap();
        assert!(k.stats().compaction_runs > 0, "direct compaction must run");
        // And compaction must have produced at least one full-order run.
        let report = k.scan_contiguity(asid).unwrap();
        assert!(report.max_contiguity() >= 64, "got {}", report.max_contiguity());
    }

    #[test]
    fn low_compaction_mode_never_compacts() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 1024,
            ths_enabled: false,
            compaction: CompactionMode::Low,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        let mut allocs = Vec::new();
        for _ in 0..16 {
            allocs.push(k.malloc(asid, 32).unwrap());
        }
        for (i, a) in allocs.iter().enumerate() {
            if i % 2 == 0 {
                k.free(asid, *a).unwrap();
            }
        }
        k.malloc(asid, 256).unwrap();
        k.tick();
        assert_eq!(k.stats().compaction_runs, 0);
    }

    #[test]
    fn allocation_degrades_to_scattered_runs_under_fragmentation() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 512,
            ths_enabled: false,
            compaction: CompactionMode::Low,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        // Fill memory completely, then free every other allocation.
        let mut allocs = Vec::new();
        for _ in 0..16 {
            allocs.push(k.malloc(asid, 32).unwrap());
        }
        for (i, a) in allocs.iter().enumerate() {
            if i % 2 == 0 {
                k.free(asid, *a).unwrap();
            }
        }
        // 256 pages exist free but shattered into 32-page chunks; with
        // compaction off the allocation must degrade to multiple runs.
        let runs_before = k.stats().physical_runs;
        k.malloc(asid, 120).unwrap();
        assert!(
            k.stats().physical_runs > runs_before + 1,
            "fragmented allocation requires multiple runs"
        );
    }

    #[test]
    fn pinned_allocations_are_unmovable_and_freeable() {
        let mut k = small_kernel(false);
        let ranges = k.allocate_pinned(100).unwrap();
        let total: u64 = ranges.iter().map(|r| r.pages).sum();
        assert_eq!(total, 100);
        assert_eq!(k.frames().counts().pinned, 100);
        for r in ranges {
            k.free_pinned(r);
        }
        assert_eq!(k.frames().counts().pinned, 0);
        assert_eq!(k.free_frames(), 4096);
    }

    #[test]
    fn oom_rolls_back_cleanly() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 256,
            ths_enabled: false,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        k.malloc(asid, 200).unwrap();
        let err = k.malloc(asid, 100).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
        // The failed allocation must not leak frames.
        assert_eq!(k.free_frames(), 56);
    }

    mod no_leak_properties {
        use super::*;
        use colt_quickprop::prelude::*;

        proptest! {
            /// Extends `oom_rolls_back_cleanly`: under any injected fault
            /// sequence, a failed multi-frame/THP allocation leaves buddy
            /// free-frame accounting and page-table state exactly as
            /// before the attempt, and total memory stays conserved.
            #[test]
            fn failed_allocations_never_leak_under_injection(
                seed in 0u64..1_000_000,
                rate in 0.05f64..0.9,
                window in 0u64..16,
                sizes in prop::collection::vec(1u64..700, 1..12),
            ) {
                let mut k = Kernel::new(KernelConfig {
                    nr_frames: 1024,
                    faults: Some(FaultConfig { rate, window, seed }),
                    ..KernelConfig::default()
                });
                let asid = k.spawn();
                let mapped = |k: &Kernel| {
                    let s = k.process(asid).unwrap().page_table().stats();
                    s.base_pages + s.superpages * SUPERPAGE_PAGES
                };
                let mut live: Vec<Vpn> = Vec::new();
                for (i, pages) in sizes.into_iter().enumerate() {
                    let avail_before = k.free_frames() + k.pcp_parked();
                    let mapped_before = mapped(&k);
                    match k.malloc(asid, pages) {
                        Ok(base) => live.push(base),
                        Err(_) => {
                            // Exact rollback: with one process there is no
                            // reclaim prey and no OOM victim, so failure
                            // must restore the books precisely.
                            prop_assert_eq!(k.free_frames() + k.pcp_parked(), avail_before);
                            prop_assert_eq!(mapped(&k), mapped_before);
                        }
                    }
                    k.tick();
                    if i % 3 == 2 && !live.is_empty() {
                        k.free(asid, live.remove(0)).unwrap();
                    }
                    // Every frame is free, parked in the PCP, or mapped.
                    prop_assert_eq!(k.free_frames() + k.pcp_parked() + mapped(&k), 1024);
                    k.buddy().check_invariants();
                }
            }
        }
    }

    fn faulty_config(rate: f64, window: u64, seed: u64) -> KernelConfig {
        KernelConfig {
            faults: Some(FaultConfig { rate, window, seed }),
            ..KernelConfig::default()
        }
    }

    #[test]
    fn injected_failures_degrade_allocations_but_they_still_succeed() {
        let mut k = Kernel::new(KernelConfig { nr_frames: 4096, ..faulty_config(0.3, 0, 11) });
        let asid = k.spawn();
        // Many sub-superpage mallocs: each takes several buddy-allocation
        // decisions, so the plan fires with near-certainty — and every
        // allocation must still come back fully mapped.
        for _ in 0..16 {
            let base = k.malloc(asid, 128).expect("free memory absorbs injected failures");
            for i in 0..128 {
                assert!(k.process(asid).unwrap().translate(base.offset(i)).is_some());
            }
        }
        assert!(k.stats().faults_injected > 0, "the plan must have fired");
        k.buddy().check_invariants();
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let script = |k: &mut Kernel| {
            let asid = k.spawn();
            let mut regions = Vec::new();
            for pages in [600u64, 64, 300, 128, 512] {
                if let Ok(base) = k.malloc(asid, pages) {
                    regions.push(base);
                }
                k.tick();
            }
            if let Some(first) = regions.first() {
                let _ = k.free(asid, *first);
            }
            k.tick();
        };
        let cfg = KernelConfig { nr_frames: 2048, ..faulty_config(0.25, 8, 99) };
        let mut a = Kernel::new(cfg);
        let mut b = Kernel::new(cfg);
        script(&mut a);
        script(&mut b);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.free_frames(), b.free_frames());
        assert!(a.stats().faults_injected > 0);
    }

    #[test]
    fn oom_killer_tears_down_the_largest_rss_process() {
        // Rate 0 arms the degradation machinery without injecting any
        // faults: the OOM here is real memory exhaustion.
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 512,
            ths_enabled: false,
            ..faulty_config(0.0, 0, 1)
        });
        let a = k.spawn();
        let b = k.spawn();
        k.malloc(a, 300).unwrap();
        let first = k.malloc(b, 150).unwrap();
        // 512 - 450 leaves too little: without the killer this fails.
        let second = k.malloc(b, 150).expect("the OOM killer must rescue this");
        assert_eq!(k.stats().oom_kills, 1);
        assert!(k.process(a).is_err(), "largest-RSS process was killed");
        for i in 0..150 {
            assert!(k.process(b).unwrap().translate(first.offset(i)).is_some());
            assert!(k.process(b).unwrap().translate(second.offset(i)).is_some());
        }
        k.buddy().check_invariants();
    }

    #[test]
    fn oom_killer_never_kills_the_requester() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 256,
            ths_enabled: false,
            ..faulty_config(0.0, 0, 1)
        });
        let only = k.spawn();
        k.malloc(only, 200).unwrap();
        // The requester is the only (and largest) process; with no other
        // victim the allocation must fail cleanly, exactly as before.
        let err = k.malloc(only, 100).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
        assert_eq!(k.stats().oom_kills, 0);
        assert!(k.process(only).is_ok());
    }

    #[test]
    fn compaction_backoff_grows_exponentially_and_resets() {
        let mut k = Kernel::new(faulty_config(0.0, 0, 1));
        assert!(k.direct_compaction_allowed());
        k.defer_compaction(); // backoff = 1, shift -> 1
        assert!(!k.direct_compaction_allowed());
        assert!(k.direct_compaction_allowed());
        k.defer_compaction(); // backoff = 2, shift -> 2
        assert!(!k.direct_compaction_allowed());
        assert!(!k.direct_compaction_allowed());
        assert!(k.direct_compaction_allowed());
        assert_eq!(k.stats().compact_deferred, 3);
        k.reset_compaction_backoff();
        k.defer_compaction();
        assert_eq!(k.compact_backoff, 1, "shift restarts after a success");
    }

    #[test]
    fn backoff_is_inert_without_a_fault_plan() {
        let mut k = small_kernel(true);
        k.defer_compaction();
        assert!(k.direct_compaction_allowed());
        assert_eq!(k.stats().compact_deferred, 0);
    }

    #[test]
    fn khugepaged_collapses_a_deferred_region_once_memory_frees_up() {
        // THS on but compaction Low: a fragmented order-9 request cannot
        // be rescued at malloc time, so it falls back and is queued.
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 2048,
            compaction: CompactionMode::Low,
            ..faulty_config(0.0, 0, 1)
        });
        let asid = k.spawn();
        // Fill all of memory with 64-page file mappings, then free every
        // other one: 1024 frames free, no order-9 block anywhere.
        let files: Vec<Vpn> = (0..32).map(|_| k.mmap_file(asid, 64).unwrap()).collect();
        for (i, f) in files.iter().enumerate() {
            if i % 2 == 0 {
                k.free(asid, *f).unwrap();
            }
        }
        let base = k.malloc(asid, 512).unwrap();
        assert_eq!(k.stats().thp_fallbacks, 1);
        assert_eq!(k.live_superpage_count(), 0);
        // Free the remaining file mappings: order-9 blocks exist again.
        for (i, f) in files.iter().enumerate() {
            if i % 2 == 1 {
                k.free(asid, *f).unwrap();
            }
        }
        k.tick();
        assert!(k.stats().thp_deferred_retries >= 1);
        assert_eq!(k.stats().thp_allocs, 1, "the region collapsed");
        assert_eq!(k.live_superpage_count(), 1);
        let t = k.process(asid).unwrap().translate(base.offset(100)).unwrap();
        assert!(matches!(t.kind, PageKind::Super { .. }));
        // Conservation: 512 mapped pages, everything else free.
        assert_eq!(k.free_frames() + k.pcp_parked(), 2048 - 512);
        k.buddy().check_invariants();
    }

    #[test]
    fn collapse_of_a_freed_region_is_dropped() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 2048,
            compaction: CompactionMode::Low,
            ..faulty_config(0.0, 0, 1)
        });
        let asid = k.spawn();
        let files: Vec<Vpn> = (0..32).map(|_| k.mmap_file(asid, 64).unwrap()).collect();
        for (i, f) in files.iter().enumerate() {
            if i % 2 == 0 {
                k.free(asid, *f).unwrap();
            }
        }
        let base = k.malloc(asid, 512).unwrap();
        k.free(asid, base).unwrap();
        k.tick();
        assert_eq!(k.stats().thp_allocs, 0, "freed region must not collapse");
        assert_eq!(k.thp_deferred.len(), 0);
    }

    #[test]
    fn user_allocations_respect_the_block_order_cap() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 4096,
            ths_enabled: false,
            max_alloc_order: 4,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        k.malloc(asid, 256).unwrap();
        // 256 pages at order-4 cap = at least 16 separate runs...
        assert!(k.stats().physical_runs >= 16);
        // ...but carved adjacently from fresh memory, so contiguity still
        // spans the whole allocation (the emergent-run effect).
        let report = k.scan_contiguity(asid).unwrap();
        assert_eq!(report.max_contiguity(), 256);
    }

    #[test]
    fn reclaim_evicts_only_file_pages_and_they_fault_back() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 1024,
            ths_enabled: false,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        let anon = k.malloc(asid, 64).unwrap();
        let file = k.mmap_file(asid, 64).unwrap();
        let evicted = k.reclaim_file_pages(32);
        assert_eq!(evicted, 32);
        assert_eq!(k.stats().pages_reclaimed, 32);
        // Anonymous pages untouched.
        for i in 0..64 {
            assert!(k.process(asid).unwrap().translate(anon.offset(i)).is_some());
        }
        // Some file pages unmapped, but they fault back on touch.
        let unmapped = (0..64)
            .filter(|&i| k.process(asid).unwrap().translate(file.offset(i)).is_none())
            .count();
        assert_eq!(unmapped, 32);
        for i in 0..64 {
            let t = k.touch(asid, file.offset(i)).unwrap();
            assert!(t.flags.contains(PteFlags::FILE_BACKED));
        }
    }

    #[test]
    fn allocation_under_pressure_reclaims_instead_of_oom() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 512,
            ths_enabled: false,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        k.mmap_file(asid, 300).unwrap(); // page cache fills memory
        k.malloc(asid, 120).unwrap();
        // 512 - 300 - 120 = 92 free minus PCP slack: the next allocation
        // cannot fit without evicting page cache.
        let base = k.malloc(asid, 150).expect("reclaim must rescue this");
        assert!(k.stats().pages_reclaimed > 0);
        for i in 0..150 {
            assert!(k.process(asid).unwrap().translate(base.offset(i)).is_some());
        }
    }

    #[test]
    fn pcp_gives_sequential_faults_adjacent_frames() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 4096,
            ths_enabled: false,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        let base = k.reserve(asid, 16, crate::vma::VmaKind::Anonymous).unwrap();
        let mut pfns = Vec::new();
        for i in 0..16 {
            pfns.push(k.touch(asid, base.offset(i)).unwrap().pfn);
        }
        // All 16 frames come from one PCP batch: perfectly ascending.
        for w in pfns.windows(2) {
            assert!(w[0].is_followed_by(w[1]), "PCP batch must be adjacent: {w:?}");
        }
    }

    #[test]
    fn pcp_is_shared_between_processes() {
        // Interleaved faults from two processes split one batch between
        // them — exactly how interference breaks faulted contiguity.
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 4096,
            ths_enabled: false,
            ..KernelConfig::default()
        });
        let a = k.spawn();
        let b = k.spawn();
        let base_a = k.reserve(a, 8, crate::vma::VmaKind::Anonymous).unwrap();
        let base_b = k.reserve(b, 8, crate::vma::VmaKind::Anonymous).unwrap();
        let mut a_pfns = Vec::new();
        for i in 0..8 {
            a_pfns.push(k.touch(a, base_a.offset(i)).unwrap().pfn);
            k.touch(b, base_b.offset(i)).unwrap();
        }
        // Process A's frames are strided by 2 (B took every other one):
        // adjacency in A's address space is broken.
        assert!(
            a_pfns.windows(2).any(|w| !w[0].is_followed_by(w[1])),
            "interleaved faulting must break adjacency: {a_pfns:?}"
        );
    }

    #[test]
    fn punctured_split_breaks_the_residual_run() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 8192,
            ths_enabled: true,
            thp_split_puncture: true,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        // Allocate until a superpage whose vpn hashes to "punctured".
        let mut punctured_seen = false;
        for _ in 0..8 {
            let base = k.malloc(asid, 512).unwrap();
            if k.live_superpage_count() == 0 {
                continue; // THP failed (unlikely on fresh memory)
            }
            k.split_superpages(1);
            let report = k.scan_contiguity(asid).unwrap();
            if report.runs().len() > 1 {
                punctured_seen = true;
                // The punctured pages are still mapped (remapped to new
                // frames), so the footprint is intact.
                for i in 0..512 {
                    assert!(
                        k.process(asid).unwrap().translate(base.offset(i)).is_some(),
                        "punctured page {i} must stay mapped"
                    );
                }
                break;
            }
            k.free(asid, base).unwrap();
        }
        assert!(punctured_seen, "some split must be punctured (60% rate)");
    }

    #[test]
    fn unpunctured_splits_keep_full_512_runs() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 8192,
            ths_enabled: true,
            thp_split_puncture: false,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        k.malloc(asid, 512).unwrap();
        assert_eq!(k.live_superpage_count(), 1);
        k.split_superpages(1);
        let report = k.scan_contiguity(asid).unwrap();
        assert_eq!(report.max_contiguity(), 512, "puncturing disabled");
    }

    #[test]
    fn freeing_a_punctured_split_returns_every_frame() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 8192,
            ths_enabled: true,
            thp_split_puncture: true,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        let before = k.free_frames();
        // Find a punctured split (60% hash rate) and free it.
        for _ in 0..8 {
            let base = k.malloc(asid, 512).unwrap();
            k.split_superpages(k.live_superpage_count());
            k.free(asid, base).unwrap();
        }
        // Everything came back (modulo frames parked in the PCP).
        let parked = before - k.free_frames();
        assert!(parked <= 32, "at most one PCP batch may stay parked, got {parked}");
        assert_eq!(k.live_superpage_count(), 0);
    }

    #[test]
    fn exit_after_thp_splits_balances_memory() {
        let mut k = Kernel::new(KernelConfig { nr_frames: 8192, ..KernelConfig::default() });
        let before = k.free_frames();
        let asid = k.spawn();
        k.malloc(asid, 1024).unwrap();
        k.malloc(asid, 100).unwrap();
        k.split_superpages(1);
        k.exit(asid).unwrap();
        let parked = before - k.free_frames();
        assert!(parked <= 32, "only PCP slack may remain, got {parked}");
    }

    #[test]
    fn reclaim_with_no_file_pages_is_a_noop() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 1024,
            ths_enabled: false,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        k.malloc(asid, 64).unwrap();
        assert_eq!(k.reclaim_file_pages(100), 0);
        assert_eq!(k.stats().pages_reclaimed, 0);
    }

    #[test]
    fn reclaimable_file_pages_counts_exactly() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 2048,
            ths_enabled: false,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        k.malloc(asid, 64).unwrap();
        k.mmap_file(asid, 37).unwrap();
        assert_eq!(k.reclaimable_file_pages(), 37);
    }

    #[test]
    fn mark_dirty_sets_pte_flag() {
        let mut k = small_kernel(false);
        let asid = k.spawn();
        let base = k.malloc(asid, 4).unwrap();
        k.mark_dirty(asid, base.offset(1)).unwrap();
        let t = k.process(asid).unwrap().translate(base.offset(1)).unwrap();
        assert!(t.flags.contains(PteFlags::DIRTY));
        let t0 = k.process(asid).unwrap().translate(base).unwrap();
        assert!(!t0.flags.contains(PteFlags::DIRTY));
    }

    /// Drives a kernel through an aging-style workout and asserts that a
    /// snapshot round trip reproduces every observable: stats, free
    /// frames, translations, walk addresses, and — critically — *future*
    /// behavior (the decoded kernel must allocate and fault-inject
    /// exactly like the original from here on).
    #[test]
    fn kernel_snapshot_round_trip_is_bit_equivalent() {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 8192,
            faults: Some(FaultConfig { rate: 0.1, window: 16, seed: 5 }),
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        let big = k.malloc(asid, 1024).unwrap();
        let small = k.malloc(asid, 37).unwrap();
        k.mmap_file(asid, 64).unwrap();
        k.split_superpages(1);
        k.tick();
        k.free(asid, small).unwrap();

        let mut enc = Enc::new();
        k.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        let mut back = Kernel::decode(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(back.stats(), k.stats());
        assert_eq!(back.free_frames(), k.free_frames());
        for i in [0u64, 100, 511, 1023] {
            assert_eq!(
                back.process(asid).unwrap().translate(big.offset(i)),
                k.process(asid).unwrap().translate(big.offset(i))
            );
            assert_eq!(
                back.process(asid).unwrap().page_table().walk(big.offset(i)),
                k.process(asid).unwrap().page_table().walk(big.offset(i))
            );
        }

        // Divergence test: both kernels must do the same things next.
        for _ in 0..8 {
            let a = k.malloc(asid, 96);
            let b = back.malloc(asid, 96);
            assert_eq!(a, b);
            k.tick();
            back.tick();
        }
        assert_eq!(back.stats(), k.stats());
        assert_eq!(back.free_frames(), k.free_frames());
        assert_eq!(back.stats().faults_injected, k.stats().faults_injected);
    }
}
