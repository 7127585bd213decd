//! The per-reference MMU step every machine model runs (§4.1.4,
//! §5.2.1): probe the TLB hierarchy and, on a miss, walk the page table
//! through the MMU and data caches, fetch the eight-PTE line the
//! coalescing logic inspects, fill, and serve any queued prefetches.
//!
//! The single-core simulator, each SMP core and the differential
//! oracle all translate through an [`Mmu`]. The step is split where the
//! machines differ: between [`Mmu::lookup`] and [`Mmu::walk_fill`] a
//! machine with a live kernel may fault a reclaimed page back in (and
//! deliver the shootdowns that refault caused) before the walk.

use crate::hierarchy::PteFetch;
use crate::walker::{PageWalker, WalkOutcome};
use colt_os_mem::addr::{Asid, Vpn};
use colt_os_mem::page_table::PageTable;
use colt_os_mem::shootdown::ShootdownEvent;
use colt_tlb::config::TlbConfig;
use colt_tlb::hierarchy::{TlbHierarchy, TlbHit};

/// One core's translation machinery: the TLB hierarchy, the demand
/// walker and the prefetch walker, built together from one
/// [`TlbConfig`] and the nested-paging flag.
///
/// Both walkers are ASID-tagged when the TLB is. The prefetch walker
/// serves the prefetch buffer's background walks (off the critical path
/// but through the same caches); keeping it apart leaves the demand
/// walker's count at exactly one walk per L2 TLB miss. Flushes and
/// shootdowns reach the TLB and the demand walker only.
///
/// ```
/// use colt_memsim::{hierarchy::CacheHierarchy, mmu::Mmu};
/// use colt_os_mem::addr::{Pfn, Vpn};
/// use colt_os_mem::page_table::{PageTable, Pte, PteFlags};
/// use colt_tlb::config::TlbConfig;
///
/// let mut pt = PageTable::new();
/// for i in 0..4 {
///     pt.map_base(Vpn::new(8 + i), Pte::new(Pfn::new(100 + i), PteFlags::user_data()));
/// }
/// let mut mmu = Mmu::new(TlbConfig::colt_sa(), false);
/// let mut caches = CacheHierarchy::core_i7();
/// assert!(mmu.lookup(Vpn::new(8)).is_none());
/// let walk = mmu.walk_fill(&pt, Vpn::new(8), &mut caches).expect("mapped");
/// assert_eq!(walk.translation.pfn, Pfn::new(100));
/// // The fill coalesced the whole four-page run:
/// assert_eq!(mmu.lookup(Vpn::new(11)).map(|hit| hit.pfn), Some(Pfn::new(103)));
/// ```
#[derive(Clone, Debug)]
pub struct Mmu {
    tlb: TlbHierarchy,
    walker: PageWalker,
    prefetch_walker: PageWalker,
}

impl Mmu {
    /// Builds the hierarchy for `config` and the paper's walkers
    /// (22-entry MMU caches), two-dimensional when `nested_paging`.
    pub fn new(config: TlbConfig, nested_paging: bool) -> Self {
        let walker = || {
            let mut w = PageWalker::paper_default();
            if nested_paging {
                w = w.nested();
            }
            if config.asid_tagged {
                w = w.with_asid_tagging();
            }
            w
        };
        Self { tlb: TlbHierarchy::new(config), walker: walker(), prefetch_walker: walker() }
    }

    /// Probes the hierarchy for `vpn`. `None` is a full miss: the caller
    /// makes sure the page is mapped, then calls [`Mmu::walk_fill`].
    #[inline]
    pub fn lookup(&mut self, vpn: Vpn) -> Option<TlbHit> {
        self.tlb.lookup(vpn)
    }

    /// The miss path for `vpn`: walks `page_table` with PTE fetches
    /// charged to `mem`, fills the hierarchy from the walked leaf, then
    /// walks and installs every prefetch the miss queued. Returns the
    /// demand walk, or `None` (nothing filled) if `vpn` is unmapped.
    pub fn walk_fill(
        &mut self,
        page_table: &PageTable,
        vpn: Vpn,
        mem: &mut impl PteFetch,
    ) -> Option<WalkOutcome> {
        let outcome = self.walker.walk(page_table, vpn, mem)?;
        self.tlb.fill(vpn, &outcome.leaf);
        for target in self.tlb.take_prefetch_requests() {
            if let Some(p) = self.prefetch_walker.walk(page_table, target, mem) {
                self.tlb.fill_prefetch(target, p.translation.pfn, p.translation.flags);
            }
        }
        Some(outcome)
    }

    /// Invalidates `vpn` in the hierarchy and drops its current walk
    /// path in `page_table` from the demand walker's MMU cache: an
    /// `invlpg`.
    pub fn invalidate(&mut self, page_table: &PageTable, vpn: Vpn) {
        self.tlb.invalidate(vpn);
        self.walker.invalidate(page_table, vpn);
    }

    /// Delivers one kernel shootdown: the event's page leaves the
    /// hierarchy and the paging-structure entries walked before the
    /// mutation leave the demand walker's MMU cache. A tagged MMU drops
    /// only `ev.asid`'s entries.
    pub fn shootdown(&mut self, ev: &ShootdownEvent) {
        if self.tlb.config().asid_tagged {
            self.tlb.invalidate_asid(ev.vpn, ev.asid);
            self.walker.invalidate_addrs_asid(&ev.entry_addrs, ev.asid);
        } else {
            self.tlb.invalidate(ev.vpn);
            self.walker.invalidate_addrs(&ev.entry_addrs);
        }
    }

    /// Flushes the hierarchy and the demand walker's MMU caches: a
    /// context switch without ASID tagging.
    pub fn flush(&mut self) {
        self.tlb.flush();
        self.walker.flush();
    }

    /// Retargets the hierarchy and both walkers to `asid` (a context
    /// switch in tagged mode).
    pub fn set_current_asid(&mut self, asid: Asid) {
        self.tlb.set_current_asid(asid);
        self.walker.set_current_asid(asid);
        self.prefetch_walker.set_current_asid(asid);
    }

    /// The TLB hierarchy (counters and resident entries).
    pub fn tlb(&self) -> &TlbHierarchy {
        &self.tlb
    }

    /// The demand walker (counters and MMU-cache residency).
    pub fn walker(&self) -> &PageWalker {
        &self.walker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::CacheHierarchy;
    use colt_os_mem::addr::Pfn;
    use colt_os_mem::page_table::{Pte, PteFlags};
    use colt_os_mem::shootdown::ShootdownKind;

    fn mapped_pt(n: u64) -> PageTable {
        let mut pt = PageTable::new();
        for i in 0..n {
            pt.map_base(Vpn::new(0x1000 + i), Pte::new(Pfn::new(0x500 + i), PteFlags::user_data()));
        }
        pt
    }

    #[test]
    fn an_unmapped_walk_fills_nothing() {
        let pt = mapped_pt(1);
        let mut mmu = Mmu::new(TlbConfig::baseline(), false);
        let mut caches = CacheHierarchy::core_i7();
        assert!(mmu.walk_fill(&pt, Vpn::new(0x9999), &mut caches).is_none());
        assert_eq!(mmu.walker().stats().faults, 1);
        assert_eq!(mmu.tlb().stats().fills, 0);
    }

    #[test]
    fn a_tagged_shootdown_spares_other_address_spaces() {
        let pt = mapped_pt(1);
        let mut mmu = Mmu::new(TlbConfig::baseline().with_asid_tagging(), false);
        let mut caches = CacheHierarchy::core_i7();
        let vpn = Vpn::new(0x1000);
        for asid in [Asid(1), Asid(2)] {
            mmu.set_current_asid(asid);
            mmu.walk_fill(&pt, vpn, &mut caches).unwrap();
        }
        let entry_addrs = pt.walk(vpn).unwrap().entry_addrs().to_vec();
        mmu.shootdown(&ShootdownEvent {
            asid: Asid(1),
            vpn,
            kind: ShootdownKind::Migrate,
            entry_addrs,
            old_pfn: None,
            new_pfn: None,
        });
        assert!(mmu.lookup(vpn).is_some(), "ASID 2's entry survives");
        mmu.set_current_asid(Asid(1));
        assert!(mmu.lookup(vpn).is_none(), "ASID 1's entry was shot down");
    }
}
