//! The hardware page-table walker.
//!
//! On a TLB miss the walker traverses the 4-level page table. The MMU
//! page-walk cache lets it skip upper levels; every remaining level is a
//! PTE fetch through the cache hierarchy (LLC at best, §4.1.1). The final
//! fetch brings in a 64-byte cache line holding eight PTEs — handed back
//! so CoLT's coalescing logic can inspect it without further memory
//! references (§4.1.4).

use crate::hierarchy::PteFetch;
use crate::mmu_cache::{MmuCache, MmuCacheStats};
use colt_os_mem::addr::{Asid, Pfn, PhysAddr, Vpn};
use colt_os_mem::page_table::{PageKind, PageTable, Translation};
use colt_tlb::hierarchy::WalkFill;

/// Former name of [`WalkFill`], the leaf a walk resolved to. Nothing in
/// the workspace uses it; `benchmark/`'s traced replay still does, and
/// goes with that replay.
pub use colt_tlb::hierarchy::WalkFill as WalkedLeaf;

/// The outcome of one page walk.
#[derive(Clone, Copy, Debug)]
pub struct WalkOutcome {
    /// The translation found.
    pub translation: Translation,
    /// The leaf, as [`colt_tlb::hierarchy::TlbHierarchy::fill`] takes it.
    pub leaf: WalkFill,
    /// Walk latency in cycles (PTE fetches for all non-skipped levels).
    pub latency: u64,
    /// Number of memory (LLC/DRAM) accesses the walk performed.
    pub memory_accesses: u64,
}

/// Per-walker counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WalkerStats {
    /// Walks performed.
    pub walks: u64,
    /// Total cycles spent walking.
    pub total_latency: u64,
    /// Walks that faulted (unmapped page).
    pub faults: u64,
}

impl WalkerStats {
    /// Counter-wise difference `self - before` (measurement windows).
    #[must_use]
    pub fn since(&self, before: &Self) -> Self {
        Self {
            walks: self.walks - before.walks,
            total_latency: self.total_latency - before.total_latency,
            faults: self.faults - before.faults,
        }
    }

    /// Counter-wise sum (aggregating per-core walkers).
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            walks: self.walks + other.walks,
            total_latency: self.total_latency + other.total_latency,
            faults: self.faults + other.faults,
        }
    }
}

/// Whether walks run natively or under nested paging (virtualization).
///
/// Under nested paging every guest page-table access itself requires a
/// host (EPT/NPT) translation, turning the 4-access walk into the
/// two-dimensional walk of up to 24 accesses — the environment where TLB
/// misses cost the most and where the paper anticipates CoLT's benefits
/// growing ("this number worsens to 50% in virtualized environments",
/// §1; "as ... virtualization is considered, these performance
/// improvements will be even higher", §7.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WalkMode {
    /// Ordinary native walk (the paper's evaluation).
    #[default]
    Native,
    /// Two-dimensional guest-over-host walk: each guest level costs a
    /// host walk plus the guest entry fetch, and the final guest physical
    /// address needs one more host walk.
    Nested,
}

/// Simulated physical region where the host (EPT/NPT) page tables live.
const HOST_PT_REGION_BASE: u64 = 1 << 44;
/// Host page-table radix levels.
const HOST_PT_LEVELS: u64 = 4;

/// The page-table walker with its MMU page-walk cache.
///
/// ```
/// use colt_memsim::walker::PageWalker;
/// use colt_memsim::hierarchy::CacheHierarchy;
/// use colt_os_mem::page_table::{PageTable, Pte, PteFlags};
/// use colt_os_mem::addr::{Pfn, PhysAddr, Vpn};
///
/// let mut pt = PageTable::new();
/// pt.map_base(Vpn::new(42), Pte::new(Pfn::new(7), PteFlags::user_data()));
/// let mut walker = PageWalker::paper_default();
/// let mut caches = CacheHierarchy::core_i7();
/// let outcome = walker.walk(&pt, Vpn::new(42), &mut caches).expect("mapped");
/// assert_eq!(outcome.translation.pfn, Pfn::new(7));
/// ```
#[derive(Clone, Debug)]
pub struct PageWalker {
    mmu_cache: MmuCache,
    mode: WalkMode,
    /// Nested-mode only: caches host page-table entries so repeat host
    /// walks skip levels (a nested-TLB/paging-structure cache).
    host_mmu_cache: MmuCache,
    stats: WalkerStats,
    /// SMP tagged mode: MMU-cache entries carry the ASID they were
    /// walked under, so a context switch retargets instead of flushing.
    asid_tagged: bool,
    current_asid: Asid,
}

impl PageWalker {
    /// Creates a walker with an `mmu_entries`-entry page-walk cache.
    pub fn new(mmu_entries: usize) -> Self {
        Self {
            mmu_cache: MmuCache::new(mmu_entries),
            mode: WalkMode::Native,
            host_mmu_cache: MmuCache::new(mmu_entries),
            stats: WalkerStats::default(),
            asid_tagged: false,
            current_asid: Asid(0),
        }
    }

    /// The paper's configuration (22-entry MMU cache, §5.2.1).
    pub fn paper_default() -> Self {
        Self::new(22)
    }

    /// Switches the walker to two-dimensional nested walks.
    #[must_use]
    pub fn nested(mut self) -> Self {
        self.mode = WalkMode::Nested;
        self
    }

    /// Enables ASID tagging of the MMU page-walk cache (SMP extension):
    /// entries are keyed `(asid, addr)` and a context switch becomes a
    /// tag change instead of a flush. Entry addresses alias across
    /// processes (each page table numbers nodes independently), so the
    /// tag is part of the key, not just a filter.
    #[must_use]
    pub fn with_asid_tagging(mut self) -> Self {
        self.asid_tagged = true;
        self
    }

    /// Retargets MMU-cache lookups to `asid` (tagged mode; a no-op tag in
    /// untagged mode where everything is keyed ASID 0).
    pub fn set_current_asid(&mut self, asid: Asid) {
        self.current_asid = asid;
    }

    /// The ASID walks currently run under.
    pub fn current_asid(&self) -> Asid {
        self.current_asid
    }

    /// The MMU-cache key tag in effect.
    fn tag(&self) -> Asid {
        if self.asid_tagged { self.current_asid } else { Asid(0) }
    }

    /// The walk mode in effect.
    pub fn mode(&self) -> WalkMode {
        self.mode
    }

    /// Charges the host-side translation of one guest-physical access
    /// during a nested walk: a host radix walk over the guest-physical
    /// address, with the host paging-structure cache skipping upper
    /// levels. Returns (cycles, memory accesses).
    fn charge_host_walk(
        &mut self,
        guest_phys: PhysAddr,
        caches: &mut impl PteFetch,
    ) -> (u64, u64) {
        // Host PT entry address for each level: a radix over the
        // guest-physical page number, so nearby guest addresses share
        // upper-level host entries (and cache lines).
        let gpn = guest_phys.raw() >> 12;
        let mut addrs = [PhysAddr::new(0); HOST_PT_LEVELS as usize];
        for (i, slot) in addrs.iter_mut().enumerate() {
            let level = HOST_PT_LEVELS as usize - 1 - i; // root first
            let index = gpn >> (9 * level);
            *slot = PhysAddr::new(
                HOST_PT_REGION_BASE | ((level as u64) << 41) | (index * 8),
            );
        }
        // Skip levels whose entries the host structure cache holds.
        let mut start = 0usize;
        for i in (0..addrs.len() - 1).rev() {
            if self.host_mmu_cache.lookup(addrs[i]) {
                start = i + 1;
                break;
            }
        }
        let mut latency = 0u64;
        let mut accesses = 0u64;
        for (i, &a) in addrs.iter().enumerate().skip(start) {
            latency += caches.access_pte(a);
            accesses += 1;
            if i < addrs.len() - 1 {
                self.host_mmu_cache.insert(a);
            }
        }
        (latency, accesses)
    }

    /// Walker counters.
    pub fn stats(&self) -> WalkerStats {
        self.stats
    }

    /// MMU-cache counters.
    pub fn mmu_stats(&self) -> MmuCacheStats {
        self.mmu_cache.stats()
    }

    /// Walks `vpn` through `page_table`, charging PTE fetches to
    /// `caches` — a private [`crate::hierarchy::CacheHierarchy`] on a
    /// single core, the machine-wide [`crate::hierarchy::SharedLlc`]
    /// under SMP. Returns `None` on a page fault (unmapped address).
    pub fn walk(
        &mut self,
        page_table: &PageTable,
        vpn: Vpn,
        caches: &mut impl PteFetch,
    ) -> Option<WalkOutcome> {
        let tag = self.tag();
        self.stats.walks += 1;
        let Some((path, line)) = page_table.walk_with_line(vpn) else {
            self.stats.faults += 1;
            return None;
        };
        let entry_addrs = path.entry_addrs();
        let levels = entry_addrs.len();
        debug_assert!(levels >= 2, "walks touch at least two levels");

        // Find the deepest non-leaf level whose entry the MMU cache
        // holds; the walk resumes just below it. (Leaf is index
        // levels-1; non-leaf candidates are indices 0..levels-1, where
        // deeper = closer to the leaf.)
        let mut start = 0usize;
        for i in (0..levels - 1).rev() {
            if self.mmu_cache.lookup_tagged(entry_addrs[i], tag) {
                start = i + 1;
                break;
            }
        }

        let mut latency = 0u64;
        let mut memory_accesses = 0u64;
        for (i, &addr) in entry_addrs.iter().enumerate().skip(start) {
            if self.mode == WalkMode::Nested {
                // Each guest page-table access is itself host-translated.
                let (l, a) = self.charge_host_walk(addr, caches);
                latency += l;
                memory_accesses += a;
            }
            latency += caches.access_pte(addr);
            memory_accesses += 1;
            if i < levels - 1 {
                self.mmu_cache.insert_tagged(addr, tag);
            }
        }
        if self.mode == WalkMode::Nested {
            // The final guest-physical data address needs one more host
            // translation before the access can issue.
            let (l, a) =
                self.charge_host_walk(path.translation.pfn.addr(), caches);
            latency += l;
            memory_accesses += a;
        }

        let leaf = match path.translation.kind {
            PageKind::Base => {
                WalkFill::Base { line: line.expect("a base-page walk reads its PTE line") }
            }
            PageKind::Super { base_vpn } => {
                let within = vpn.distance_from(base_vpn).expect("vpn within superpage");
                WalkFill::Super {
                    base_vpn,
                    base_pfn: Pfn::new(path.translation.pfn.raw() - within),
                    flags: path.translation.flags,
                }
            }
        };

        self.stats.total_latency += latency;
        Some(WalkOutcome {
            translation: path.translation,
            leaf,
            latency,
            memory_accesses,
        })
    }

    /// Removes the given page-table entry addresses from the guest MMU
    /// page-walk cache — the per-VPN shootdown a kernel page-table
    /// mutation must deliver, so the next walk of the affected page
    /// re-fetches its (changed) path instead of relying on a whole-cache
    /// [`PageWalker::flush`]. The host (EPT) cache is untouched: guest
    /// `invlpg` does not reach host paging structures.
    ///
    /// Returns how many addresses were actually resident.
    pub fn invalidate_addrs(&mut self, addrs: &[PhysAddr]) -> usize {
        let tag = self.tag();
        self.invalidate_addrs_asid(addrs, tag)
    }

    /// ASID-directed shootdown (SMP tagged mode): drops the given entry
    /// addresses from `asid`'s slice of the MMU cache only — an aliasing
    /// entry another process walked must survive. Returns how many
    /// addresses were resident.
    pub fn invalidate_addrs_asid(&mut self, addrs: &[PhysAddr], asid: Asid) -> usize {
        addrs
            .iter()
            .filter(|&&a| self.mmu_cache.invalidate_addr_tagged(a, asid))
            .count()
    }

    /// Per-VPN shootdown convenience: drops every MMU-cache entry on the
    /// current walk path of `vpn` in `page_table`. Free of latency and
    /// stat charges — this models invalidation hardware, not a walk.
    /// Returns how many cached levels were dropped.
    pub fn invalidate(&mut self, page_table: &PageTable, vpn: Vpn) -> usize {
        match page_table.walk(vpn) {
            Some(path) => self.invalidate_addrs(path.entry_addrs()),
            None => 0,
        }
    }

    /// Whether the guest MMU cache holds `addr` under the ASID-0 tag
    /// (checker visibility, untagged mode).
    pub fn mmu_contains(&self, addr: PhysAddr) -> bool {
        self.mmu_cache.contains(addr)
    }

    /// Flushes the MMU caches (e.g. context switch).
    pub fn flush(&mut self) {
        self.mmu_cache.flush();
        self.host_mmu_cache.flush();
    }

    /// Drops every guest MMU-cache entry tagged `asid` (process exit /
    /// ASID recycling). Returns the number removed.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        self.mmu_cache.flush_asid(asid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::CacheHierarchy;
    use colt_os_mem::page_table::{Pte, PteFlags};

    fn mapped_pt(n: u64) -> PageTable {
        let mut pt = PageTable::new();
        for i in 0..n {
            pt.map_base(Vpn::new(0x1000 + i), Pte::new(Pfn::new(0x500 + i), PteFlags::user_data()));
        }
        pt
    }

    #[test]
    fn cold_walk_touches_four_levels() {
        let pt = mapped_pt(1);
        let mut w = PageWalker::paper_default();
        let mut caches = CacheHierarchy::core_i7();
        let o = w.walk(&pt, Vpn::new(0x1000), &mut caches).unwrap();
        assert_eq!(o.memory_accesses, 4);
        assert_eq!(o.latency, 4 * caches.latency_model().dram);
        assert_eq!(o.translation.pfn, Pfn::new(0x500));
    }

    #[test]
    fn mmu_cache_skips_upper_levels_on_repeat_walks() {
        let pt = mapped_pt(16);
        let mut w = PageWalker::paper_default();
        let mut caches = CacheHierarchy::core_i7();
        let first = w.walk(&pt, Vpn::new(0x1000), &mut caches).unwrap();
        // A neighboring page shares all non-leaf entries: only the leaf
        // PTE fetch remains, and it hits the LLC line just fetched.
        let second = w.walk(&pt, Vpn::new(0x1001), &mut caches).unwrap();
        assert_eq!(second.memory_accesses, 1, "MMU cache skipped 3 levels");
        assert!(second.latency < first.latency);
        assert_eq!(second.latency, caches.latency_model().llc);
    }

    #[test]
    fn unmapped_walk_is_a_fault() {
        let pt = PageTable::new();
        let mut w = PageWalker::paper_default();
        let mut caches = CacheHierarchy::core_i7();
        assert!(w.walk(&pt, Vpn::new(9), &mut caches).is_none());
        assert_eq!(w.stats().faults, 1);
    }

    #[test]
    fn base_walk_returns_the_pte_line() {
        let pt = mapped_pt(8);
        let mut w = PageWalker::paper_default();
        let mut caches = CacheHierarchy::core_i7();
        let o = w.walk(&pt, Vpn::new(0x1002), &mut caches).unwrap();
        match o.leaf {
            WalkFill::Base { line } => {
                assert_eq!(line.base_vpn, Vpn::new(0x1000));
                assert!(line.ptes.iter().all(Option::is_some));
            }
            WalkFill::Super { .. } => panic!("expected base leaf"),
        }
    }

    #[test]
    fn superpage_walk_returns_super_leaf_with_three_levels() {
        let mut pt = PageTable::new();
        pt.map_super(Vpn::new(512), Pte::new(Pfn::new(2048), PteFlags::user_data()));
        let mut w = PageWalker::paper_default();
        let mut caches = CacheHierarchy::core_i7();
        let o = w.walk(&pt, Vpn::new(512 + 33), &mut caches).unwrap();
        assert_eq!(o.memory_accesses, 3);
        match o.leaf {
            WalkFill::Super { base_vpn, base_pfn, .. } => {
                assert_eq!(base_vpn, Vpn::new(512));
                assert_eq!(base_pfn, Pfn::new(2048));
            }
            WalkFill::Base { .. } => panic!("expected superpage leaf"),
        }
        assert_eq!(o.translation.pfn, Pfn::new(2048 + 33));
    }

    #[test]
    fn cold_nested_walk_is_far_costlier_than_native() {
        // The textbook two-dimensional walk is 24 accesses; the host
        // paging-structure cache (shared across the five host walks of
        // one guest walk) brings the cold cost to 15 here — still ~4x
        // the native walk's 4.
        let pt = mapped_pt(1);
        let mut w = PageWalker::paper_default().nested();
        let mut caches = CacheHierarchy::core_i7();
        let o = w.walk(&pt, Vpn::new(0x1000), &mut caches).unwrap();
        assert!(
            (15..=24).contains(&o.memory_accesses),
            "got {} accesses",
            o.memory_accesses
        );
        assert_eq!(w.mode(), WalkMode::Nested);
    }

    #[test]
    fn nested_walks_amortize_through_both_mmu_caches() {
        let pt = mapped_pt(16);
        let mut w = PageWalker::paper_default().nested();
        let mut caches = CacheHierarchy::core_i7();
        let first = w.walk(&pt, Vpn::new(0x1000), &mut caches).unwrap();
        let second = w.walk(&pt, Vpn::new(0x1001), &mut caches).unwrap();
        assert!(second.memory_accesses < first.memory_accesses / 3);
        assert!(second.latency < first.latency);
    }

    #[test]
    fn nested_walks_cost_more_than_native() {
        let pt = mapped_pt(64);
        let run = |nested: bool| {
            let mut w = if nested {
                PageWalker::paper_default().nested()
            } else {
                PageWalker::paper_default()
            };
            let mut caches = CacheHierarchy::core_i7();
            let mut total = 0u64;
            for i in 0..64 {
                total += w.walk(&pt, Vpn::new(0x1000 + i), &mut caches).unwrap().latency;
            }
            total
        };
        let native = run(false);
        let nested = run(true);
        assert!(
            nested > native * 3 / 2,
            "nested ({nested}) must cost well beyond native ({native})"
        );
    }

    #[test]
    fn walker_stats_accumulate() {
        let pt = mapped_pt(4);
        let mut w = PageWalker::paper_default();
        let mut caches = CacheHierarchy::core_i7();
        w.walk(&pt, Vpn::new(0x1000), &mut caches);
        w.walk(&pt, Vpn::new(0x1001), &mut caches);
        let s = w.stats();
        assert_eq!(s.walks, 2);
        assert!(s.total_latency > 0);
    }

    #[test]
    fn per_vpn_invalidation_refetches_only_the_shot_path() {
        let pt = mapped_pt(16);
        let mut w = PageWalker::paper_default();
        let mut caches = CacheHierarchy::core_i7();
        w.walk(&pt, Vpn::new(0x1000), &mut caches);
        // Shoot down vpn 0x1000's path: all three non-leaf levels drop.
        let dropped = w.invalidate(&pt, Vpn::new(0x1000));
        assert_eq!(dropped, 3, "three non-leaf levels were cached");
        caches.flush();
        let o = w.walk(&pt, Vpn::new(0x1001), &mut caches).unwrap();
        assert_eq!(o.memory_accesses, 4, "full path re-fetched after shootdown");
        // A second shootdown finds nothing left to drop.
        assert_eq!(w.invalidate_addrs(pt.walk(Vpn::new(0x1000)).unwrap().entry_addrs()), 3);
        assert_eq!(w.invalidate(&pt, Vpn::new(0x1000)), 0);
    }

    #[test]
    fn invalidate_of_unmapped_vpn_is_harmless() {
        let pt = mapped_pt(1);
        let mut w = PageWalker::paper_default();
        let mut caches = CacheHierarchy::core_i7();
        w.walk(&pt, Vpn::new(0x1000), &mut caches);
        assert_eq!(w.invalidate(&pt, Vpn::new(0x9999)), 0);
        assert_eq!(w.stats().walks, 1, "invalidation charges no walk");
    }

    #[test]
    fn flush_forgets_cached_levels() {
        let pt = mapped_pt(2);
        let mut w = PageWalker::paper_default();
        let mut caches = CacheHierarchy::core_i7();
        w.walk(&pt, Vpn::new(0x1000), &mut caches);
        w.flush();
        caches.flush();
        let o = w.walk(&pt, Vpn::new(0x1001), &mut caches).unwrap();
        assert_eq!(o.memory_accesses, 4, "everything re-fetched after flush");
    }
}
