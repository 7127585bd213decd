//! The two-level TLB hierarchy in its four flavors (paper §4, Figures
//! 4–6): a set-associative L1 probed in parallel with the fully-
//! associative superpage TLB, backed by a set-associative L2 that is
//! inclusive of the L1-SA only.
//!
//! The hierarchy is deliberately decoupled from the page-table walker:
//! [`TlbHierarchy::lookup`] reports where (if anywhere) a translation
//! hit, and after a miss the caller performs the walk and passes the
//! fetched PTE cache line (or superpage leaf) to [`TlbHierarchy::fill`],
//! where the mode-specific coalescing and placement policies live.
//! `colt_memsim::mmu::Mmu` is that caller for every machine model.

use crate::coalesce::coalesce_line_masked;
use crate::config::{ColtMode, TlbConfig};
use crate::entry::{CoalescedRun, RangeEntry};
use crate::fully_assoc::{FaStats, FullyAssocTlb};
use crate::prefetch::PrefetchBuffer;
use crate::set_assoc::{SaStats, SetAssocTlb};
use crate::stats::HierarchyStats;
use colt_os_mem::addr::{Asid, Pfn, Vpn};
use colt_os_mem::page_table::{PteFlags, PteLine};

/// Where a lookup hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TlbLevel {
    /// Set-associative L1 or superpage TLB (same hit time, probed in
    /// parallel — both count as L1, §7.1.1).
    L1,
    /// The L2 TLB.
    L2,
}

/// A successful translation from the hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlbHit {
    /// Level that provided the translation.
    pub level: TlbLevel,
    /// Translated frame.
    pub pfn: Pfn,
}

/// What the page walk found, as handed to [`TlbHierarchy::fill`].
#[derive(Clone, Copy, Debug)]
pub enum WalkFill {
    /// A base-page translation plus the 64-byte cache line of PTEs it was
    /// fetched with — the coalescing window (§4.1.4).
    Base {
        /// The PTE line covering the requested page.
        line: PteLine,
    },
    /// A 2MB superpage leaf.
    Super {
        /// First virtual page of the superpage.
        base_vpn: Vpn,
        /// First frame of the superpage.
        base_pfn: Pfn,
        /// Attribute bits.
        flags: PteFlags,
    },
}

/// The two-level TLB hierarchy.
///
/// ```
/// use colt_tlb::hierarchy::{TlbHierarchy, WalkFill};
/// use colt_tlb::config::TlbConfig;
/// use colt_os_mem::page_table::{PageTable, Pte, PteFlags};
/// use colt_os_mem::addr::{Pfn, Vpn};
///
/// let mut pt = PageTable::new();
/// for i in 0..4 {
///     pt.map_base(Vpn::new(8 + i), Pte::new(Pfn::new(100 + i), PteFlags::user_data()));
/// }
/// let mut tlb = TlbHierarchy::new(TlbConfig::colt_sa());
/// assert!(tlb.lookup(Vpn::new(8)).is_none()); // cold miss → walk
/// tlb.fill(Vpn::new(8), &WalkFill::Base { line: pt.pte_line(Vpn::new(8)) });
/// // The whole 4-page run was coalesced into the filled entry:
/// assert!(tlb.lookup(Vpn::new(11)).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct TlbHierarchy {
    config: TlbConfig,
    l1: SetAssocTlb,
    l2: SetAssocTlb,
    sp: FullyAssocTlb,
    pb: Option<PrefetchBuffer>,
    stats: HierarchyStats,
    current_asid: Asid,
}

impl TlbHierarchy {
    /// Builds the hierarchy described by `config`.
    pub fn new(config: TlbConfig) -> Self {
        let shift = config.effective_sa_shift();
        Self {
            l1: SetAssocTlb::new(config.l1_entries, config.l1_ways, shift)
                .with_policy(config.replacement),
            l2: SetAssocTlb::new(config.l2_entries, config.l2_ways, shift)
                .with_policy(config.replacement),
            sp: FullyAssocTlb::new(config.sp_entries).with_policy(config.replacement),
            pb: config.prefetch.map(PrefetchBuffer::new),
            stats: HierarchyStats::default(),
            current_asid: Asid(0),
            config,
        }
    }

    /// The tag applied to lookups and fills: the running ASID in tagged
    /// mode, the shared global tag (ASID 0) otherwise.
    fn tag(&self) -> Asid {
        if self.config.asid_tagged { self.current_asid } else { Asid(0) }
    }

    /// Retargets the hierarchy to `asid` on a context switch (tagged
    /// mode). Untagged hierarchies ignore the tag on lookup, so the
    /// caller must keep flushing there; in tagged mode this replaces the
    /// flush. The prefetch buffer is untagged and is drained on a switch.
    pub fn set_current_asid(&mut self, asid: Asid) {
        if self.config.asid_tagged && asid != self.current_asid {
            if let Some(pb) = self.pb.as_mut() {
                pb.flush();
            }
        }
        self.current_asid = asid;
    }

    /// The ASID lookups currently translate for.
    pub fn current_asid(&self) -> Asid {
        self.current_asid
    }

    /// Drains queued prefetch requests (the caller performs background
    /// walks and calls [`TlbHierarchy::fill_prefetch`]).
    pub fn take_prefetch_requests(&mut self) -> Vec<Vpn> {
        self.pb.as_mut().map(PrefetchBuffer::take_requests).unwrap_or_default()
    }

    /// Installs a background-prefetched translation into the prefetch
    /// buffer.
    pub fn fill_prefetch(&mut self, vpn: Vpn, pfn: Pfn, flags: PteFlags) {
        if let Some(pb) = self.pb.as_mut() {
            pb.fill(vpn, pfn, flags);
        }
    }

    /// The construction-time configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Hierarchy-level counters.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// L1 structure counters.
    pub fn l1_stats(&self) -> SaStats {
        self.l1.stats()
    }

    /// L2 structure counters.
    pub fn l2_stats(&self) -> SaStats {
        self.l2.stats()
    }

    /// Superpage-TLB counters.
    pub fn sp_stats(&self) -> FaStats {
        self.sp.stats()
    }

    /// The set-associative L1 (read access for tests/analysis).
    pub fn l1(&self) -> &SetAssocTlb {
        &self.l1
    }

    /// The set-associative L2.
    pub fn l2(&self) -> &SetAssocTlb {
        &self.l2
    }

    /// The fully-associative superpage TLB.
    pub fn sp(&self) -> &FullyAssocTlb {
        &self.sp
    }

    /// Translates `vpn` through the hierarchy. `None` means a full miss:
    /// the caller must walk the page table and then call
    /// [`TlbHierarchy::fill`].
    pub fn lookup(&mut self, vpn: Vpn) -> Option<TlbHit> {
        let tag = self.tag();
        self.stats.accesses += 1;
        // L1 SA and superpage TLB are probed in parallel (§7.1.1).
        let l1_hit = self.l1.lookup_tagged(vpn, tag);
        let sp_hit = self.sp.lookup_tagged(vpn, tag);
        if let Some(h) = l1_hit {
            self.stats.l1_hits += 1;
            return Some(TlbHit { level: TlbLevel::L1, pfn: h.pfn });
        }
        if let Some(h) = sp_hit {
            self.stats.l1_hits += 1;
            return Some(TlbHit { level: TlbLevel::L1, pfn: h.pfn });
        }
        // Prefetch buffer: probed alongside the L1 (separate structure,
        // §2 related work); a hit promotes into the L1 proper. The buffer
        // itself is untagged — it is flushed on ASID switches, so every
        // resident translation belongs to the running address space.
        if let Some(pb) = self.pb.as_mut() {
            if let Some((pfn, flags)) = pb.lookup(vpn) {
                self.stats.l1_hits += 1;
                self.stats.pb_hits += 1;
                self.l1.insert_tagged(CoalescedRun::single(vpn, pfn, flags), tag);
                return Some(TlbHit { level: TlbLevel::L1, pfn });
            }
        }
        self.stats.l1_misses += 1;
        if let Some(h) = self.l2.lookup_tagged(vpn, tag) {
            self.stats.l2_hits += 1;
            // Refill L1 with the L1-group restriction of the hit entry.
            if let Some(restricted) = h.run.restrict_to_group(vpn, self.l1.shift()) {
                self.l1.insert_tagged(restricted, tag);
            }
            return Some(TlbHit { level: TlbLevel::L2, pfn: h.pfn });
        }
        self.stats.l2_misses += 1;
        if let Some(pb) = self.pb.as_mut() {
            pb.note_miss(vpn);
        }
        None
    }

    /// Batched lookup: translates the leading run of *hits* in `vpns`,
    /// appending one [`TlbHit`] per hit to `hits`, and returns the length
    /// `n` of that run. The simulator translates one reference at a time
    /// and no longer calls this; `benchmark/`'s traced replay, a chunked
    /// copy of an older simulator loop, still does, and this goes with
    /// that copy (ROADMAP J).
    ///
    /// When `n < vpns.len()`, the lookup for `vpns[n]` was **also
    /// performed and missed** — its miss counters and prefetch-buffer
    /// miss notification are already applied, exactly as after a
    /// `None`-returning [`TlbHierarchy::lookup`] — and the caller must
    /// walk the page table and [`TlbHierarchy::fill`] for it before
    /// resuming with `vpns[n + 1..]`.
    ///
    /// Stopping at the first miss is what keeps batching byte-identical
    /// to the per-reference loop: lookups never touch the data caches,
    /// so a run of hits can be translated ahead of its data accesses,
    /// but a miss's page walk *does* go through the caches and must not
    /// be reordered past them.
    pub fn lookup_batch(&mut self, vpns: &[Vpn], hits: &mut Vec<TlbHit>) -> usize {
        for (i, &vpn) in vpns.iter().enumerate() {
            match self.lookup(vpn) {
                Some(hit) => hits.push(hit),
                None => return i,
            }
        }
        vpns.len()
    }

    /// Installs the result of a page walk, applying the mode's coalescing
    /// and placement policy. Must be called with the same `vpn` that
    /// missed.
    pub fn fill(&mut self, vpn: Vpn, fill: &WalkFill) {
        let tag = self.tag();
        match fill {
            WalkFill::Super { base_vpn, base_pfn, flags } => {
                // Superpages go to the fully-associative TLB in every mode.
                self.sp.insert(RangeEntry::superpage_tagged(*base_vpn, *base_pfn, *flags, tag));
                self.stats.superpage_fills += 1;
                self.stats.record_fill(1);
            }
            WalkFill::Base { line } => {
                let Some(run) =
                    coalesce_line_masked(line, vpn, self.config.coalesce_ignore_flags)
                else {
                    return;
                };
                match self.config.mode {
                    ColtMode::Baseline => {
                        let single = run
                            .restrict_to_group(vpn, 0)
                            .expect("run contains the requested vpn");
                        self.stats.record_fill(1);
                        self.l2.insert_tagged(single, tag);
                        self.l1.insert_tagged(single, tag);
                    }
                    ColtMode::ColtSa => {
                        self.stats.record_fill(
                            run.restrict_to_group(vpn, self.l2.shift())
                                .expect("run contains vpn")
                                .len,
                        );
                        let l2_run = run
                            .restrict_to_group(vpn, self.l2.shift())
                            .expect("run contains vpn");
                        self.l2.insert_tagged(l2_run, tag);
                        let l1_run = run
                            .restrict_to_group(vpn, self.l1.shift())
                            .expect("run contains vpn");
                        self.l1.insert_tagged(l1_run, tag);
                    }
                    ColtMode::ColtFa => {
                        self.stats.record_fill(run.len);
                        if run.len > 1 {
                            // Coalescible: place the range in the superpage
                            // TLB; L1 is left unaffected (§4.2.1), but the
                            // requested translation also goes to the L2 so
                            // evictions from the tiny FA structure do not
                            // lose it (§7.1.3).
                            if self.config.fa_resident_merge {
                                self.sp.insert_coalesced_with_merge_tagged(run, tag);
                            } else {
                                self.sp.insert(RangeEntry::coalesced_tagged(run, tag));
                            }
                            if self.config.fill_l2_on_fa {
                                let single = run
                                    .restrict_to_group(vpn, 0)
                                    .expect("run contains vpn");
                                self.l2.insert_tagged(single, tag);
                            }
                        } else {
                            self.l2.insert_tagged(run, tag);
                            self.l1.insert_tagged(run, tag);
                        }
                    }
                    ColtMode::ColtAll => {
                        self.stats.record_fill(run.len);
                        if run.len <= self.config.all_threshold {
                            // Below threshold: the set-associative indexing
                            // can accommodate it (§4.3.1).
                            let l2_run = run
                                .restrict_to_group(vpn, self.l2.shift())
                                .expect("run contains vpn");
                            self.l2.insert_tagged(l2_run, tag);
                            let l1_run = run
                                .restrict_to_group(vpn, self.l1.shift())
                                .expect("run contains vpn");
                            self.l1.insert_tagged(l1_run, tag);
                        } else {
                            if self.config.fa_resident_merge {
                                self.sp.insert_coalesced_with_merge_tagged(run, tag);
                            } else {
                                self.sp.insert(RangeEntry::coalesced_tagged(run, tag));
                            }
                            if self.config.fill_l2_on_fa {
                                // Unlike CoLT-FA, bring as much of the run
                                // into the L2 as its indexing permits
                                // (§4.3.1).
                                let l2_run = run
                                    .restrict_to_group(vpn, self.l2.shift())
                                    .expect("run contains vpn");
                                self.l2.insert_tagged(l2_run, tag);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Invalidates every entry covering `vpn` in all structures (whole
    /// coalesced entries flush, §4.1.5).
    pub fn invalidate(&mut self, vpn: Vpn) {
        if self.config.graceful_invalidation {
            self.l1.invalidate_graceful(vpn);
            self.l2.invalidate_graceful(vpn);
            self.sp.invalidate_graceful(vpn);
        } else {
            self.l1.invalidate(vpn);
            self.l2.invalidate(vpn);
            self.sp.invalidate(vpn);
        }
        if let Some(pb) = self.pb.as_mut() {
            pb.invalidate(vpn);
        }
    }

    /// Invalidates entries covering `vpn` that are tagged `asid` — a
    /// remote shootdown delivered to a core running a *different*
    /// address space (SMP tagged mode). Graceful uncoalescing applies
    /// per the configuration, exactly as for local invalidations.
    pub fn invalidate_asid(&mut self, vpn: Vpn, asid: Asid) {
        if self.config.graceful_invalidation {
            self.l1.invalidate_graceful_asid(vpn, asid);
            self.l2.invalidate_graceful_asid(vpn, asid);
            self.sp.invalidate_graceful_asid(vpn, asid);
        } else {
            self.l1.invalidate_asid(vpn, asid);
            self.l2.invalidate_asid(vpn, asid);
            self.sp.invalidate_asid(vpn, asid);
        }
        if self.tag() == asid {
            if let Some(pb) = self.pb.as_mut() {
                pb.invalidate(vpn);
            }
        }
    }

    /// Flushes every entry tagged `asid` across all structures (process
    /// exit / ASID recycling). Returns the number of entries removed.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        let mut removed = self.l1.flush_asid(asid);
        removed += self.l2.flush_asid(asid);
        removed += self.sp.flush_asid(asid);
        if self.tag() == asid {
            if let Some(pb) = self.pb.as_mut() {
                pb.flush();
            }
        }
        self.stats.asid_flushes += 1;
        self.stats.asid_entries_flushed += removed as u64;
        removed
    }

    /// Flushes the entire hierarchy (e.g. context switch).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.sp.flush();
        if let Some(pb) = self.pb.as_mut() {
            pb.flush();
        }
    }

    /// Total pages covered by live entries across all structures.
    pub fn reach_pages(&self) -> u64 {
        self.l1.covered_pages() + self.l2.covered_pages() + self.sp.covered_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_os_mem::page_table::{PageTable, Pte};

    fn flags() -> PteFlags {
        PteFlags::user_data()
    }

    /// Page table with `n` contiguously backed pages starting at vpn 8.
    fn contiguous_pt(n: u64) -> PageTable {
        let mut pt = PageTable::new();
        for i in 0..n {
            pt.map_base(Vpn::new(8 + i), Pte::new(Pfn::new(100 + i), flags()));
        }
        pt
    }

    fn miss_walk_fill(tlb: &mut TlbHierarchy, pt: &PageTable, vpn: Vpn) {
        assert!(tlb.lookup(vpn).is_none(), "expected miss at {vpn}");
        tlb.fill(vpn, &WalkFill::Base { line: pt.pte_line(vpn) });
    }

    #[test]
    fn baseline_caches_one_translation_per_fill() {
        let pt = contiguous_pt(8);
        let mut tlb = TlbHierarchy::new(TlbConfig::baseline());
        miss_walk_fill(&mut tlb, &pt, Vpn::new(8));
        assert_eq!(
            tlb.lookup(Vpn::new(8)).unwrap(),
            TlbHit { level: TlbLevel::L1, pfn: Pfn::new(100) }
        );
        // The neighbor was NOT cached despite contiguity.
        assert!(tlb.lookup(Vpn::new(9)).is_none());
    }

    #[test]
    fn colt_sa_coalesces_up_to_the_index_group() {
        let pt = contiguous_pt(8);
        let mut tlb = TlbHierarchy::new(TlbConfig::colt_sa());
        miss_walk_fill(&mut tlb, &pt, Vpn::new(8));
        // Group 8..12 now present from one fill.
        for i in 8..12 {
            assert_eq!(tlb.lookup(Vpn::new(i)).unwrap().pfn, Pfn::new(92 + i));
        }
        // 12..16 is a different group: still a miss.
        assert!(tlb.lookup(Vpn::new(12)).is_none());
        assert_eq!(tlb.stats().l2_misses, 2);
    }

    #[test]
    fn colt_fa_coalesces_the_full_cache_line() {
        let pt = contiguous_pt(8);
        let mut tlb = TlbHierarchy::new(TlbConfig::colt_fa());
        miss_walk_fill(&mut tlb, &pt, Vpn::new(10));
        // All 8 translations of the line hit in the superpage TLB now.
        for i in 8..16 {
            let hit = tlb.lookup(Vpn::new(i)).unwrap();
            assert_eq!(hit.level, TlbLevel::L1, "SP TLB hits count as L1");
            assert_eq!(hit.pfn, Pfn::new(92 + i));
        }
        assert_eq!(tlb.sp().occupancy(), 1);
    }

    #[test]
    fn colt_fa_also_fills_requested_translation_into_l2() {
        let pt = contiguous_pt(8);
        let mut tlb = TlbHierarchy::new(TlbConfig::colt_fa());
        miss_walk_fill(&mut tlb, &pt, Vpn::new(10));
        // L2 has exactly the requested single translation (§7.1.3).
        assert_eq!(tlb.l2().occupancy(), 1);
        assert_eq!(tlb.l2().probe(Vpn::new(10)), Some(Pfn::new(102)));
        assert_eq!(tlb.l2().probe(Vpn::new(11)), None);
        // And L1-SA was left unaffected (§4.2.1).
        assert_eq!(tlb.l1().occupancy(), 0);
    }

    #[test]
    fn colt_fa_uncoalescible_fill_goes_to_l1_and_l2() {
        let mut pt = PageTable::new();
        pt.map_base(Vpn::new(8), Pte::new(Pfn::new(100), flags()));
        pt.map_base(Vpn::new(9), Pte::new(Pfn::new(500), flags()));
        let mut tlb = TlbHierarchy::new(TlbConfig::colt_fa());
        miss_walk_fill(&mut tlb, &pt, Vpn::new(8));
        assert_eq!(tlb.sp().occupancy(), 0, "singletons skip the FA TLB");
        assert_eq!(tlb.l1().probe(Vpn::new(8)), Some(Pfn::new(100)));
        assert_eq!(tlb.l2().probe(Vpn::new(8)), Some(Pfn::new(100)));
    }

    #[test]
    fn colt_all_routes_by_threshold() {
        // Short run (3 pages): goes to the set-associative TLBs.
        let mut pt = PageTable::new();
        for i in 0..3 {
            pt.map_base(Vpn::new(8 + i), Pte::new(Pfn::new(100 + i), flags()));
        }
        let mut tlb = TlbHierarchy::new(TlbConfig::colt_all());
        miss_walk_fill(&mut tlb, &pt, Vpn::new(8));
        assert_eq!(tlb.sp().occupancy(), 0, "short runs avoid the SP TLB");
        assert!(tlb.l1().probe(Vpn::new(10)).is_some());

        // Long run (8 pages): goes to the SP TLB, with the L2 receiving
        // the indexing-restricted sub-run.
        let pt8 = contiguous_pt(8);
        let mut tlb = TlbHierarchy::new(TlbConfig::colt_all());
        miss_walk_fill(&mut tlb, &pt8, Vpn::new(9));
        assert_eq!(tlb.sp().occupancy(), 1);
        assert_eq!(tlb.sp().covered_pages(), 8);
        // L2 got the 4-page group 8..12 around the request.
        assert_eq!(tlb.l2().probe(Vpn::new(11)), Some(Pfn::new(103)));
        assert_eq!(tlb.l2().probe(Vpn::new(12)), None);
    }

    #[test]
    fn superpage_fills_reach_sp_tlb_in_every_mode() {
        for config in [
            TlbConfig::baseline(),
            TlbConfig::colt_sa(),
            TlbConfig::colt_fa(),
            TlbConfig::colt_all(),
        ] {
            let mut tlb = TlbHierarchy::new(config);
            assert!(tlb.lookup(Vpn::new(512 + 9)).is_none());
            tlb.fill(
                Vpn::new(512 + 9),
                &WalkFill::Super {
                    base_vpn: Vpn::new(512),
                    base_pfn: Pfn::new(2048),
                    flags: flags(),
                },
            );
            let hit = tlb.lookup(Vpn::new(512 + 100)).unwrap();
            assert_eq!(hit.pfn, Pfn::new(2148));
            assert_eq!(hit.level, TlbLevel::L1);
        }
    }

    #[test]
    fn l2_hit_refills_l1() {
        let pt = contiguous_pt(4);
        let mut tlb = TlbHierarchy::new(TlbConfig::colt_sa());
        miss_walk_fill(&mut tlb, &pt, Vpn::new(8));
        // Evict the L1 entry by flooding its set with conflicting groups:
        // L1 has 8 sets of 4 ways at shift 2 → groups spaced 8 apart
        // (vpns spaced 32) collide with group 2 (vpns 8..12).
        let mut conflict_pt = PageTable::new();
        for g in 1..=4u64 {
            let v = 8 + g * 32;
            conflict_pt.map_base(Vpn::new(v), Pte::new(Pfn::new(1000 + v), flags()));
        }
        for g in 1..=4u64 {
            let v = Vpn::new(8 + g * 32);
            assert!(tlb.lookup(v).is_none());
            tlb.fill(v, &WalkFill::Base { line: conflict_pt.pte_line(v) });
        }
        assert_eq!(tlb.l1().probe(Vpn::new(8)), None, "L1 entry evicted");
        // L2 still holds the coalesced run → L2 hit, and L1 is refilled.
        let hit = tlb.lookup(Vpn::new(9)).unwrap();
        assert_eq!(hit.level, TlbLevel::L2);
        assert_eq!(hit.pfn, Pfn::new(101));
        assert_eq!(tlb.l1().probe(Vpn::new(9)), Some(Pfn::new(101)), "refilled");
        // The refill restored the whole coalesced group to L1.
        assert_eq!(tlb.l1().probe(Vpn::new(10)), Some(Pfn::new(102)));
    }

    #[test]
    fn stats_track_levels_and_coalescing() {
        let pt = contiguous_pt(8);
        let mut tlb = TlbHierarchy::new(TlbConfig::colt_fa());
        miss_walk_fill(&mut tlb, &pt, Vpn::new(8));
        tlb.lookup(Vpn::new(9));
        tlb.lookup(Vpn::new(15));
        let s = tlb.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.l2_misses, 1);
        assert_eq!(s.l1_hits, 2);
        assert_eq!(s.coalesce_hist[7], 1, "8-page run recorded");
        assert!((s.avg_coalescing() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn invalidate_flushes_all_structures() {
        let pt = contiguous_pt(8);
        let mut tlb = TlbHierarchy::new(TlbConfig::colt_all());
        miss_walk_fill(&mut tlb, &pt, Vpn::new(8));
        tlb.invalidate(Vpn::new(9));
        assert!(tlb.l1().probe(Vpn::new(8)).is_none());
        assert!(tlb.l2().probe(Vpn::new(8)).is_none());
        assert!(tlb.sp().probe(Vpn::new(8)).is_none());
    }

    #[test]
    fn reach_grows_with_coalescing() {
        let pt = contiguous_pt(8);
        let mut base = TlbHierarchy::new(TlbConfig::baseline());
        let mut fa = TlbHierarchy::new(TlbConfig::colt_fa());
        miss_walk_fill(&mut base, &pt, Vpn::new(8));
        miss_walk_fill(&mut fa, &pt, Vpn::new(8));
        assert!(fa.reach_pages() > base.reach_pages());
    }

    #[test]
    fn prefetch_buffer_serves_sequential_neighbors() {
        use crate::prefetch::PrefetchConfig;
        let pt = contiguous_pt(8);
        let mut tlb = TlbHierarchy::new(
            TlbConfig::baseline().with_prefetch(PrefetchConfig { buffer_entries: 16, degree: 1 }),
        );
        // Miss on vpn 8 → prefetch request for vpn 9 queued.
        assert!(tlb.lookup(Vpn::new(8)).is_none());
        tlb.fill(Vpn::new(8), &WalkFill::Base { line: pt.pte_line(Vpn::new(8)) });
        let reqs = tlb.take_prefetch_requests();
        assert_eq!(reqs, vec![Vpn::new(9)]);
        tlb.fill_prefetch(Vpn::new(9), Pfn::new(101), flags());
        // The next access to vpn 9 hits the prefetch buffer at L1 level.
        let hit = tlb.lookup(Vpn::new(9)).expect("PB hit");
        assert_eq!(hit.level, TlbLevel::L1);
        assert_eq!(hit.pfn, Pfn::new(101));
        assert_eq!(tlb.stats().pb_hits, 1);
        // Promotion installed it in the L1 proper.
        assert_eq!(tlb.l1().probe(Vpn::new(9)), Some(Pfn::new(101)));
    }

    #[test]
    fn without_prefetcher_no_requests_are_queued() {
        let pt = contiguous_pt(8);
        let mut tlb = TlbHierarchy::new(TlbConfig::baseline());
        assert!(tlb.lookup(Vpn::new(8)).is_none());
        tlb.fill(Vpn::new(8), &WalkFill::Base { line: pt.pte_line(Vpn::new(8)) });
        assert!(tlb.take_prefetch_requests().is_empty());
        assert_eq!(tlb.stats().pb_hits, 0);
    }

    #[test]
    fn future_work_config_changes_invalidation_semantics() {
        let pt = contiguous_pt(8);
        let mut flushy = TlbHierarchy::new(TlbConfig::colt_sa());
        let mut graceful = TlbHierarchy::new(TlbConfig::colt_sa().with_future_work());
        for tlb in [&mut flushy, &mut graceful] {
            assert!(tlb.lookup(Vpn::new(8)).is_none());
            tlb.fill(Vpn::new(8), &WalkFill::Base { line: pt.pte_line(Vpn::new(8)) });
        }
        flushy.invalidate(Vpn::new(9));
        graceful.invalidate(Vpn::new(9));
        // Whole-entry flush loses the siblings; graceful keeps them.
        assert_eq!(flushy.l1().probe(Vpn::new(10)), None);
        assert_eq!(graceful.l1().probe(Vpn::new(10)), Some(Pfn::new(102)));
        assert_eq!(graceful.l1().probe(Vpn::new(9)), None, "victim gone");
    }

    #[test]
    fn lookup_batch_stops_at_the_first_miss_with_it_counted() {
        let pt = contiguous_pt(8);
        let mut tlb = TlbHierarchy::new(TlbConfig::colt_sa());
        miss_walk_fill(&mut tlb, &pt, Vpn::new(8)); // group 8..12 resident
        let vpns: Vec<Vpn> = [8, 11, 9, 12, 10].map(Vpn::new).to_vec();
        let mut hits = Vec::new();
        let n = tlb.lookup_batch(&vpns, &mut hits);
        assert_eq!(n, 3, "8, 11, 9 hit; 12 is outside the coalesced group");
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|h| h.level == TlbLevel::L1));
        // The miss at vpns[3] was performed and counted, exactly like a
        // None-returning lookup; vpns[4] was NOT touched.
        let s = tlb.stats();
        assert_eq!(s.accesses, 1 + 3 + 1, "initial miss + 3 hits + 1 miss");
        assert_eq!(s.l2_misses, 2);
        // After the caller fills, the batch resumes on the tail.
        tlb.fill(Vpn::new(12), &WalkFill::Base { line: pt.pte_line(Vpn::new(12)) });
        let mut tail = Vec::new();
        assert_eq!(tlb.lookup_batch(&vpns[4..], &mut tail), 1);
        assert_eq!(tail[0].pfn, Pfn::new(102));
    }

    #[test]
    fn lookup_batch_matches_sequential_lookups() {
        let pt = contiguous_pt(8);
        let mut seq = TlbHierarchy::new(TlbConfig::colt_all());
        let mut batched = seq.clone();
        let vpns: Vec<Vpn> = [8, 9, 15, 10, 13, 8, 14].map(Vpn::new).to_vec();
        // Drive the sequential reference loop.
        let mut expected = Vec::new();
        for &v in &vpns {
            match seq.lookup(v) {
                Some(h) => expected.push(h),
                None => seq.fill(v, &WalkFill::Base { line: pt.pte_line(v) }),
            }
        }
        // Drive the batched loop over the same stream.
        let mut got = Vec::new();
        let mut rest: &[Vpn] = &vpns;
        while !rest.is_empty() {
            let n = batched.lookup_batch(rest, &mut got);
            if n < rest.len() {
                let v = rest[n];
                batched.fill(v, &WalkFill::Base { line: pt.pte_line(v) });
                rest = &rest[n + 1..];
            } else {
                rest = &[];
            }
        }
        assert_eq!(got, expected);
        assert_eq!(batched.stats(), seq.stats());
        assert_eq!(batched.l1_stats(), seq.l1_stats());
        assert_eq!(batched.l2_stats(), seq.l2_stats());
        assert_eq!(batched.sp_stats(), seq.sp_stats());
    }

    #[test]
    fn fill_with_unmapped_slot_is_harmless() {
        let pt = PageTable::new();
        let mut tlb = TlbHierarchy::new(TlbConfig::colt_sa());
        tlb.fill(Vpn::new(8), &WalkFill::Base { line: pt.pte_line(Vpn::new(8)) });
        assert_eq!(tlb.stats().fills, 0);
    }
}
