//! Fully-associative range TLB (CoLT-FA, paper §4.2 / Figure 5), and the
//! one entry list every TLB structure is built from.
//!
//! The small fully-associative structure processors dedicate to
//! superpages, extended with range-check lookup so each entry can cover
//! an arbitrary-length coalesced run (up to 1024 pages). On fill, a newly
//! coalesced entry may merge with resident entries that continue its run
//! (§4.2.1 step 5), growing reach without extra entries.
//!
//! The entries are one list in recency order, MRU first, allocated at
//! full capacity up front. A hit moves the entries ahead of it down one
//! slot; a victim is chosen from the resident lengths in place. Each set
//! of a [`SetAssocTlb`](crate::set_assoc::SetAssocTlb) is one such list,
//! `ways` entries long, so every list operation lives here.

use crate::entry::{CoalescedRun, RangeKind, TlbEntry};
use crate::replacement::{promote, ReplacementPolicy};
use crate::stats::StructureStats;
use colt_os_mem::addr::{Asid, Pfn, Vpn};

/// The fully-associative range TLB with LRU replacement.
///
/// ```
/// use colt_tlb::fully_assoc::FullyAssocTlb;
/// use colt_tlb::entry::{CoalescedRun, TlbEntry};
/// use colt_os_mem::addr::{Pfn, Vpn};
/// use colt_os_mem::page_table::PteFlags;
/// let mut tlb = FullyAssocTlb::new(8);
/// let run = CoalescedRun::new(Vpn::new(100), Pfn::new(700), 20, PteFlags::user_data());
/// tlb.insert(TlbEntry::coalesced(run));
/// assert_eq!(tlb.lookup(Vpn::new(119)).unwrap().0, Pfn::new(719));
/// ```
#[derive(Clone, Debug)]
pub struct FullyAssocTlb {
    entries: Vec<TlbEntry>, // MRU-first
    capacity: usize,
    policy: ReplacementPolicy,
    stats: StructureStats,
}

impl FullyAssocTlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB must hold at least one entry");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            policy: ReplacementPolicy::Lru,
            stats: StructureStats::default(),
        }
    }

    /// Sets the victim-selection policy (§4.1.5/§4.2.3 future work).
    #[must_use]
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StructureStats {
        self.stats
    }

    /// Looks up `vpn` by range check against every entry, updating LRU
    /// order and counters, and returns the frame with the hit entry.
    /// Frequently accessed superpage entries thus stay at the head of
    /// the LRU list, which is what keeps them from being evicted by
    /// coalesced traffic (§4.2.1). Untagged entry point: matches only
    /// ASID-0 entries, which in full-flush mode is every entry.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<(Pfn, TlbEntry)> {
        self.lookup_tagged(vpn, Asid(0))
    }

    /// ASID-selective lookup (SMP tagged mode): only entries tagged
    /// `asid` can hit, so stale translations of a descheduled address
    /// space are invisible without a flush.
    pub fn lookup_tagged(&mut self, vpn: Vpn, asid: Asid) -> Option<(Pfn, TlbEntry)> {
        for (pos, &entry) in self.entries.iter().enumerate() {
            if entry.asid() != asid {
                continue;
            }
            if let Some(pfn) = entry.lookup(vpn) {
                promote(&mut self.entries, pos);
                self.stats.hits += 1;
                return Some((pfn, entry));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Checks for a hit without touching LRU or counters (any ASID).
    pub fn probe(&self, vpn: Vpn) -> Option<Pfn> {
        self.entries.iter().find_map(|e| e.lookup(vpn))
    }

    /// Inserts an entry, evicting a victim per the policy (the LRU
    /// entry by default) when full. Returns the evicted entry, if any.
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        self.stats.insertions += 1;
        if self.entries.len() < self.capacity {
            self.entries.insert(0, entry);
            return None;
        }
        self.stats.evictions += 1;
        let victim = self.policy.choose_victim(self.entries.iter().map(|e| e.run().len), 0..0);
        let evicted = self.entries[victim];
        self.entries[victim] = entry;
        promote(&mut self.entries, victim);
        Some(evicted)
    }

    /// Inserts `entry`, or merges it into the first resident of its tag
    /// (MRU order) that it continues, if `fits` accepts their union: the
    /// merged entry keeps the resident's slot and is promoted, and the
    /// fill counts as an insertion and a merge. The set-associative
    /// insertion rule, with `fits` the index-group check (§4.1.2).
    /// Returns the evicted entry, if any.
    pub(crate) fn insert_or_merge(
        &mut self,
        entry: TlbEntry,
        fits: impl Fn(&CoalescedRun) -> bool,
    ) -> Option<TlbEntry> {
        let merge = self.entries.iter().enumerate().find_map(|(pos, resident)| {
            let merged = resident.try_merge(&entry).filter(|m| fits(&m.run()))?;
            Some((pos, merged))
        });
        let Some((pos, merged)) = merge else {
            return self.insert(entry);
        };
        self.entries[pos] = merged;
        promote(&mut self.entries, pos);
        self.stats.insertions += 1;
        self.stats.merges += 1;
        None
    }

    /// Gracefully uncoalesces on invalidation (§4.1.5 future work):
    /// coalesced entries covering `vpn` lose only the victim translation,
    /// splitting into remnants that stay resident; superpage entries are
    /// still flushed whole (a 2MB invalidation is a 2MB invalidation).
    /// Returns the number of entries affected.
    pub fn invalidate_graceful(&mut self, vpn: Vpn) -> usize {
        self.invalidate_graceful_filtered(vpn, None)
    }

    /// Graceful invalidation restricted to entries tagged `asid`.
    pub fn invalidate_graceful_asid(&mut self, vpn: Vpn, asid: Asid) -> usize {
        self.invalidate_graceful_filtered(vpn, Some(asid))
    }

    fn invalidate_graceful_filtered(&mut self, vpn: Vpn, filter: Option<Asid>) -> usize {
        let mut affected = 0;
        let mut pos = 0;
        while pos < self.entries.len() {
            if filter.is_some_and(|a| self.entries[pos].asid() != a)
                || self.entries[pos].lookup(vpn).is_none()
            {
                pos += 1;
                continue;
            }
            affected += 1;
            let entry = self.entries.remove(pos);
            if entry.kind() == RangeKind::Superpage {
                continue;
            }
            // Remnants re-enter at the same recency position.
            let (left, right) = entry.run().split_at(vpn).expect("lookup hit");
            let mut insert_at = pos;
            for remnant in [left, right].into_iter().flatten() {
                if self.entries.len() >= self.capacity {
                    // Splitting can overflow a full structure: evict per
                    // policy rather than silently dropping a still-valid
                    // remnant, but never victimise a remnant just
                    // re-inserted (ranks `pos..insert_at`).
                    if self.entries.len() == insert_at - pos {
                        continue; // capacity-1 structure already holds a remnant
                    }
                    let victim = self
                        .policy
                        .choose_victim(self.entries.iter().map(|e| e.run().len), pos..insert_at);
                    self.stats.evictions += 1;
                    self.entries.remove(victim);
                    if victim < insert_at {
                        insert_at -= 1;
                        if victim < pos {
                            pos -= 1;
                        }
                    }
                }
                self.entries.insert(
                    insert_at.min(self.entries.len()),
                    TlbEntry::coalesced_tagged(remnant, entry.asid()),
                );
                insert_at += 1;
            }
        }
        self.stats.invalidations += affected as u64;
        affected
    }

    /// Inserts a coalesced run, first merging it with any resident
    /// coalesced entries it extends (§4.2.1: the scan happens while the
    /// requested entry returns to the pipeline, so it is off the critical
    /// path). Chained merges are applied until a fixpoint, since the new
    /// run can bridge two residents.
    ///
    /// Returns the evicted entry if insertion displaced one.
    pub fn insert_coalesced_with_merge(&mut self, run: CoalescedRun) -> Option<TlbEntry> {
        self.insert_coalesced_with_merge_tagged(run, Asid(0))
    }

    /// Tagged variant of [`FullyAssocTlb::insert_coalesced_with_merge`]:
    /// only same-ASID residents are merge candidates, and the final entry
    /// carries the tag.
    pub fn insert_coalesced_with_merge_tagged(
        &mut self,
        run: CoalescedRun,
        asid: Asid,
    ) -> Option<TlbEntry> {
        let mut acc = TlbEntry::coalesced_tagged(run, asid);
        loop {
            let before = self.entries.len();
            self.entries.retain(|resident| match resident.try_merge(&acc) {
                Some(merged) => {
                    acc = merged;
                    false
                }
                None => true,
            });
            let merged = before - self.entries.len();
            if merged == 0 {
                break;
            }
            self.stats.merges += merged as u64;
        }
        self.insert(acc)
    }

    /// Invalidates every entry covering `vpn`. Whole entries are
    /// flushed, losing their sibling translations (§4.1.5, §4.2.3).
    /// Returns the number removed.
    pub fn invalidate(&mut self, vpn: Vpn) -> usize {
        self.remove_where(|e| e.lookup(vpn).is_some())
    }

    /// Invalidates entries covering `vpn` that are tagged `asid` (remote
    /// shootdown in SMP tagged mode). Returns the number removed.
    pub fn invalidate_asid(&mut self, vpn: Vpn, asid: Asid) -> usize {
        self.remove_where(|e| e.asid() == asid && e.lookup(vpn).is_some())
    }

    /// Flushes the whole TLB.
    pub fn flush(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
    }

    /// Flushes only entries tagged `asid` (process exit or ASID
    /// recycling). Returns the number removed.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        self.remove_where(|e| e.asid() == asid)
    }

    /// Removes the entries `gone` selects, counting them as
    /// invalidations. Returns the number removed.
    fn remove_where(&mut self, gone: impl Fn(&TlbEntry) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !gone(e));
        let removed = before - self.entries.len();
        self.stats.invalidations += removed as u64;
        removed
    }

    /// Live entry count.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Total pages covered by live entries.
    pub fn covered_pages(&self) -> u64 {
        self.entries.iter().map(|e| e.run().len).sum()
    }

    /// Iterates live entries, MRU first.
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::reference_victim;
    use colt_os_mem::page_table::PteFlags;
    use colt_prng::rngs::SmallRng;
    use colt_prng::{Rng, SeedableRng};

    fn flags() -> PteFlags {
        PteFlags::user_data()
    }

    fn run(v: u64, p: u64, len: u64) -> CoalescedRun {
        CoalescedRun::new(Vpn::new(v), Pfn::new(p), len, flags())
    }

    #[test]
    fn range_lookup_hits_anywhere_in_run() {
        let mut tlb = FullyAssocTlb::new(4);
        tlb.insert(TlbEntry::coalesced(run(100, 700, 20)));
        assert_eq!(tlb.lookup(Vpn::new(100)).unwrap().0, Pfn::new(700));
        assert_eq!(tlb.lookup(Vpn::new(119)).unwrap().0, Pfn::new(719));
        assert!(tlb.lookup(Vpn::new(120)).is_none());
        assert_eq!(tlb.stats().hits, 2);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut tlb = FullyAssocTlb::new(2);
        tlb.insert(TlbEntry::coalesced(run(0, 0, 4)));
        tlb.insert(TlbEntry::coalesced(run(100, 100, 4)));
        tlb.lookup(Vpn::new(1)); // 0-run is MRU
        let evicted = tlb.insert(TlbEntry::coalesced(run(200, 200, 4))).unwrap();
        assert_eq!(evicted.run().start_vpn, Vpn::new(100));
    }

    #[test]
    fn frequently_used_superpages_resist_eviction() {
        // §4.2.1: hot superpages stay at the LRU head even when coalesced
        // entries stream through a tiny structure.
        let mut tlb = FullyAssocTlb::new(2);
        tlb.insert(TlbEntry::superpage(Vpn::new(512), Pfn::new(1024), flags()));
        for i in 0..10 {
            tlb.lookup(Vpn::new(512 + i)); // keep the superpage hot
            tlb.insert_coalesced_with_merge(run(10_000 + 100 * i, 5_000 + 100 * i, 8));
        }
        assert!(
            tlb.probe(Vpn::new(512)).is_some(),
            "hot superpage survived the coalesced stream"
        );
    }

    #[test]
    fn resident_merge_extends_runs() {
        let mut tlb = FullyAssocTlb::new(4);
        tlb.insert_coalesced_with_merge(run(100, 700, 8));
        tlb.insert_coalesced_with_merge(run(108, 708, 8));
        assert_eq!(tlb.occupancy(), 1, "adjacent runs merged");
        assert_eq!(tlb.covered_pages(), 16);
        assert_eq!(tlb.probe(Vpn::new(115)), Some(Pfn::new(715)));
        assert_eq!(tlb.stats().merges, 1);
    }

    #[test]
    fn merge_bridges_two_residents() {
        let mut tlb = FullyAssocTlb::new(4);
        tlb.insert_coalesced_with_merge(run(100, 700, 8)); // 100..108
        tlb.insert_coalesced_with_merge(run(116, 716, 8)); // 116..124
        assert_eq!(tlb.occupancy(), 2);
        // The middle run bridges both.
        tlb.insert_coalesced_with_merge(run(108, 708, 8)); // 108..116
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.covered_pages(), 24);
        assert_eq!(tlb.probe(Vpn::new(123)), Some(Pfn::new(723)));
    }

    #[test]
    fn merge_skips_inconsistent_neighbors() {
        let mut tlb = FullyAssocTlb::new(4);
        tlb.insert_coalesced_with_merge(run(100, 700, 8));
        tlb.insert_coalesced_with_merge(run(108, 900, 8)); // anchor mismatch
        assert_eq!(tlb.occupancy(), 2);
    }

    #[test]
    fn superpages_are_not_merge_targets() {
        let mut tlb = FullyAssocTlb::new(4);
        tlb.insert(TlbEntry::superpage(Vpn::new(512), Pfn::new(512), flags()));
        // Run physically continuing the superpage still does not merge.
        tlb.insert_coalesced_with_merge(run(1024, 1024, 4));
        assert_eq!(tlb.occupancy(), 2);
    }

    #[test]
    fn invalidate_removes_covering_ranges() {
        let mut tlb = FullyAssocTlb::new(4);
        tlb.insert(TlbEntry::coalesced(run(100, 700, 20)));
        tlb.insert(TlbEntry::coalesced(run(300, 900, 4)));
        assert_eq!(tlb.invalidate(Vpn::new(110)), 1);
        assert!(tlb.probe(Vpn::new(100)).is_none(), "whole range flushed");
        assert!(tlb.probe(Vpn::new(301)).is_some());
    }

    #[test]
    fn flush_and_occupancy() {
        let mut tlb = FullyAssocTlb::new(4);
        tlb.insert(TlbEntry::coalesced(run(0, 0, 4)));
        tlb.insert(TlbEntry::coalesced(run(10, 10, 4)));
        assert_eq!(tlb.occupancy(), 2);
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
        assert!(tlb.probe(Vpn::new(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_panics() {
        let _ = FullyAssocTlb::new(0);
    }

    #[test]
    fn graceful_invalidation_splits_ranges() {
        let mut tlb = FullyAssocTlb::new(4);
        tlb.insert(TlbEntry::coalesced(run(100, 700, 20)));
        assert_eq!(tlb.invalidate_graceful(Vpn::new(110)), 1);
        assert_eq!(tlb.probe(Vpn::new(109)), Some(Pfn::new(709)));
        assert_eq!(tlb.probe(Vpn::new(110)), None);
        assert_eq!(tlb.probe(Vpn::new(111)), Some(Pfn::new(711)));
        assert_eq!(tlb.occupancy(), 2);
    }

    #[test]
    fn graceful_mid_split_when_full_keeps_both_remnants() {
        // Regression: a full structure used to drop the second remnant of
        // a mid-run split silently instead of evicting per policy.
        let mut tlb = FullyAssocTlb::new(2);
        tlb.insert(TlbEntry::coalesced(run(100, 700, 3)));
        tlb.insert(TlbEntry::coalesced(run(200, 900, 1)));
        assert_eq!(tlb.invalidate_graceful(Vpn::new(101)), 1);
        assert_eq!(tlb.probe(Vpn::new(100)), Some(Pfn::new(700)));
        assert_eq!(tlb.probe(Vpn::new(101)), None, "victim gone");
        assert_eq!(
            tlb.probe(Vpn::new(102)),
            Some(Pfn::new(702)),
            "second remnant must survive a full structure"
        );
        assert_eq!(tlb.probe(Vpn::new(200)), None, "LRU entry evicted to make room");
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn graceful_mid_split_in_capacity_one_keeps_first_remnant_only() {
        let mut tlb = FullyAssocTlb::new(1);
        tlb.insert(TlbEntry::coalesced(run(100, 700, 3)));
        tlb.invalidate_graceful(Vpn::new(101));
        assert_eq!(tlb.probe(Vpn::new(100)), Some(Pfn::new(700)));
        assert_eq!(tlb.probe(Vpn::new(101)), None);
        assert_eq!(tlb.probe(Vpn::new(102)), None, "no slot for the sibling");
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.stats().evictions, 0);
    }

    #[test]
    fn graceful_invalidation_flushes_whole_superpages() {
        let mut tlb = FullyAssocTlb::new(4);
        tlb.insert(TlbEntry::superpage(Vpn::new(512), Pfn::new(512), flags()));
        assert_eq!(tlb.invalidate_graceful(Vpn::new(600)), 1);
        assert_eq!(tlb.occupancy(), 0, "superpages cannot uncoalesce");
    }

    #[test]
    fn coalesced_first_replacement_in_fa() {
        use crate::replacement::ReplacementPolicy;
        let mut tlb =
            FullyAssocTlb::new(2).with_policy(ReplacementPolicy::SmallestCoalescedFirst);
        tlb.insert(TlbEntry::coalesced(run(0, 0, 64)));
        tlb.insert(TlbEntry::coalesced(run(200, 200, 2)));
        tlb.insert(TlbEntry::coalesced(run(400, 400, 8)));
        assert!(tlb.probe(Vpn::new(10)).is_some(), "64-page range survives");
        assert!(tlb.probe(Vpn::new(200)).is_none(), "2-page range evicted");
    }

    /// The fully-associative TLB as it was before its LRU bookkeeping
    /// ran in place: `remove` + `insert` on every hit and a candidate
    /// list per victim. Kept as the reference model.
    struct ReferenceFullyAssocTlb {
        entries: Vec<TlbEntry>,
        capacity: usize,
        policy: ReplacementPolicy,
        stats: StructureStats,
    }

    impl ReferenceFullyAssocTlb {
        fn new(capacity: usize, policy: ReplacementPolicy) -> Self {
            let entries = Vec::with_capacity(capacity);
            Self { entries, capacity, policy, stats: StructureStats::default() }
        }

        fn lookup_tagged(&mut self, vpn: Vpn, asid: Asid) -> Option<(Pfn, TlbEntry)> {
            if let Some(pos) =
                self.entries.iter().position(|e| e.asid() == asid && e.lookup(vpn).is_some())
            {
                let entry = self.entries.remove(pos);
                let hit = (entry.lookup(vpn).expect("position found by lookup"), entry);
                self.entries.insert(0, entry);
                self.stats.hits += 1;
                return Some(hit);
            }
            self.stats.misses += 1;
            None
        }

        fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
            self.stats.insertions += 1;
            let evicted = if self.entries.len() == self.capacity {
                self.stats.evictions += 1;
                let candidates: Vec<(usize, u64)> = self
                    .entries
                    .iter()
                    .enumerate()
                    .map(|(rank, e)| (rank, e.run().len))
                    .collect();
                Some(self.entries.remove(reference_victim(self.policy, &candidates)))
            } else {
                None
            };
            self.entries.insert(0, entry);
            evicted
        }

        fn invalidate_graceful_filtered(&mut self, vpn: Vpn, filter: Option<Asid>) -> usize {
            let mut affected = 0;
            let mut pos = 0;
            while pos < self.entries.len() {
                if filter.is_some_and(|a| self.entries[pos].asid() != a)
                    || self.entries[pos].lookup(vpn).is_none()
                {
                    pos += 1;
                    continue;
                }
                affected += 1;
                let entry = self.entries.remove(pos);
                if entry.kind() == RangeKind::Superpage {
                    continue;
                }
                let (left, right) = entry.run().split_at(vpn).expect("lookup hit");
                let mut insert_at = pos;
                for remnant in [left, right].into_iter().flatten() {
                    if self.entries.len() >= self.capacity {
                        let candidates: Vec<(usize, u64)> = self
                            .entries
                            .iter()
                            .enumerate()
                            .filter(|(rank, _)| !(pos..insert_at).contains(rank))
                            .map(|(rank, e)| (rank, e.run().len))
                            .collect();
                        if candidates.is_empty() {
                            continue;
                        }
                        let victim = candidates[reference_victim(self.policy, &candidates)].0;
                        self.stats.evictions += 1;
                        self.entries.remove(victim);
                        if victim < insert_at {
                            insert_at -= 1;
                            if victim < pos {
                                pos -= 1;
                            }
                        }
                    }
                    self.entries.insert(
                        insert_at.min(self.entries.len()),
                        TlbEntry::coalesced_tagged(remnant, entry.asid()),
                    );
                    insert_at += 1;
                }
            }
            self.stats.invalidations += affected as u64;
            affected
        }

        fn insert_coalesced_with_merge_tagged(
            &mut self,
            run: CoalescedRun,
            asid: Asid,
        ) -> Option<TlbEntry> {
            let mut acc = run;
            loop {
                let mut merged_any = false;
                let mut pos = 0;
                while pos < self.entries.len() {
                    if self.entries[pos].asid() == asid {
                        let acc_entry = TlbEntry::coalesced_tagged(acc, asid);
                        if let Some(merged) = self.entries[pos].try_merge(&acc_entry) {
                            self.entries.remove(pos);
                            acc = merged.run();
                            self.stats.merges += 1;
                            merged_any = true;
                            continue;
                        }
                    }
                    pos += 1;
                }
                if !merged_any {
                    break;
                }
            }
            self.insert(TlbEntry::coalesced_tagged(acc, asid))
        }

        fn retain(&mut self, keep: impl Fn(&TlbEntry) -> bool) -> usize {
            let before = self.entries.len();
            self.entries.retain(keep);
            let removed = before - self.entries.len();
            self.stats.invalidations += removed as u64;
            removed
        }
    }

    /// A coalesced run of up to 16 pages in the first 256, translated
    /// under one of two anchors so that neighbours often merge.
    fn random_run(rng: &mut SmallRng) -> CoalescedRun {
        let start = rng.gen_range(0..256u64);
        let anchor = if rng.gen_bool(0.8) { 4_096 } else { 8_192 };
        run(start, anchor + start, rng.gen_range(1..=16u64))
    }

    #[test]
    fn in_place_lru_matches_the_reference_model() {
        let policies = [ReplacementPolicy::Lru, ReplacementPolicy::SmallestCoalescedFirst];
        for policy in policies {
            for capacity in [1, 2, 4, 8] {
                let mut rng = SmallRng::seed_from_u64(0xFA ^ capacity as u64);
                let mut tlb = FullyAssocTlb::new(capacity).with_policy(policy);
                let mut reference = ReferenceFullyAssocTlb::new(capacity, policy);
                let mut recent = [Vpn::new(0); 8];
                for step in 0..4_000usize {
                    // Look mostly at pages an earlier insert covered.
                    let vpn = if rng.gen_bool(0.7) {
                        recent[rng.gen_range(0..8usize)]
                    } else {
                        Vpn::new(rng.gen_range(0..1_024u64))
                    };
                    let asid = Asid(rng.gen_range(0..2u32));
                    match rng.gen_range(0..100u32) {
                        0..=9 => assert_eq!(tlb.lookup(vpn), reference.lookup_tagged(vpn, Asid(0))),
                        10..=39 => assert_eq!(
                            tlb.lookup_tagged(vpn, asid),
                            reference.lookup_tagged(vpn, asid)
                        ),
                        40..=49 => {
                            let entry = if rng.gen_bool(0.2) {
                                let base = Vpn::new(rng.gen_range(0..2u64) * 512);
                                TlbEntry::superpage(base, Pfn::new(base.raw() + 4_096), flags())
                            } else {
                                TlbEntry::coalesced(random_run(&mut rng))
                            };
                            recent[step % 8] = entry.run().start_vpn;
                            assert_eq!(tlb.insert(entry), reference.insert(entry));
                        }
                        50..=59 => {
                            let run = random_run(&mut rng);
                            recent[step % 8] = run.start_vpn;
                            assert_eq!(
                                tlb.insert_coalesced_with_merge(run),
                                reference.insert_coalesced_with_merge_tagged(run, Asid(0))
                            );
                        }
                        60..=74 => {
                            let run = random_run(&mut rng);
                            recent[step % 8] = run.start_vpn;
                            assert_eq!(
                                tlb.insert_coalesced_with_merge_tagged(run, asid),
                                reference.insert_coalesced_with_merge_tagged(run, asid)
                            );
                        }
                        75..=78 => assert_eq!(
                            tlb.invalidate(vpn),
                            reference.retain(|e| e.lookup(vpn).is_none())
                        ),
                        79..=82 => assert_eq!(
                            tlb.invalidate_asid(vpn, asid),
                            reference.retain(|e| e.asid() != asid || e.lookup(vpn).is_none())
                        ),
                        83..=88 => assert_eq!(
                            tlb.invalidate_graceful(vpn),
                            reference.invalidate_graceful_filtered(vpn, None)
                        ),
                        89..=94 => assert_eq!(
                            tlb.invalidate_graceful_asid(vpn, asid),
                            reference.invalidate_graceful_filtered(vpn, Some(asid))
                        ),
                        95 => assert_eq!(
                            tlb.flush_asid(asid),
                            reference.retain(|e| e.asid() != asid)
                        ),
                        96 => {
                            tlb.flush();
                            reference.retain(|_| false);
                        }
                        _ => assert_eq!(
                            tlb.probe(vpn),
                            reference.entries.iter().find_map(|e| e.lookup(vpn))
                        ),
                    }
                    let context = format!("{policy:?} capacity {capacity} step {step}");
                    assert_eq!(tlb.stats(), reference.stats, "{context}");
                    assert_eq!(tlb.occupancy(), reference.entries.len(), "{context}");
                    assert!(
                        tlb.iter().eq(reference.entries.iter()),
                        "{context}: entries or their order differ"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut tlb = FullyAssocTlb::new(2);
        tlb.insert(TlbEntry::coalesced(run(0, 0, 4)));
        tlb.insert(TlbEntry::coalesced(run(100, 100, 4)));
        tlb.probe(Vpn::new(0));
        let evicted = tlb.insert(TlbEntry::coalesced(run(200, 200, 4))).unwrap();
        assert_eq!(evicted.run().start_vpn, Vpn::new(0), "probe must not promote");
    }
}
