//! Set-associative TLB with CoLT-SA's modified set indexing (paper §4.1).
//!
//! A conventional set-associative TLB indexes with the low VPN bits,
//! mapping consecutive translations to consecutive sets and precluding
//! coalescing. CoLT-SA left-shifts the index bits by `shift` so that the
//! `2^shift` consecutive translations of one aligned group map to the
//! same set and can live in one entry (§4.1.2). `shift = 0` yields the
//! baseline non-coalescing TLB; the paper's default is `shift = 2`
//! (VPN[4-2] for the 8-set L1, VPN[6-2] for the 32-set L2).
//!
//! Each set is a small [`FullyAssocTlb`] of `ways` entries, so lookup,
//! replacement and invalidation are the fully-associative list's; this
//! module adds the set index and the rule that an entry stays within one
//! index group.

use crate::entry::{CoalescedRun, TlbEntry};
use crate::fully_assoc::FullyAssocTlb;
use crate::replacement::ReplacementPolicy;
use crate::stats::StructureStats;
use colt_os_mem::addr::{Asid, Pfn, Vpn};

/// The set-associative TLB.
///
/// ```
/// use colt_tlb::set_assoc::SetAssocTlb;
/// use colt_tlb::entry::CoalescedRun;
/// use colt_os_mem::addr::{Pfn, Vpn};
/// use colt_os_mem::page_table::PteFlags;
/// // 32 entries, 4-way, coalescing up to 4 translations (shift 2).
/// let mut tlb = SetAssocTlb::new(32, 4, 2);
/// tlb.insert(CoalescedRun::new(Vpn::new(8), Pfn::new(100), 4, PteFlags::user_data()));
/// assert_eq!(tlb.lookup(Vpn::new(11)).unwrap().0, Pfn::new(103));
/// assert!(tlb.lookup(Vpn::new(12)).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocTlb {
    sets: Vec<FullyAssocTlb>,
    shift: u32,
}

impl SetAssocTlb {
    /// Creates a TLB with `entries` total entries, `ways` ways, and index
    /// bits left-shifted by `shift` (max coalescing `2^shift`).
    ///
    /// # Panics
    /// Panics unless `entries` is a power-of-two multiple of `ways` and
    /// `shift <= 3` (coalescing is bounded by the eight PTEs of one cache
    /// line, §4.1.4).
    pub fn new(entries: usize, ways: usize, shift: u32) -> Self {
        assert!(ways > 0 && entries.is_multiple_of(ways), "entries must divide into ways");
        let num_sets = entries / ways;
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        assert!(shift <= 3, "coalescing beyond one cache line is not possible");
        Self { sets: (0..num_sets).map(|_| FullyAssocTlb::new(ways)).collect(), shift }
    }

    /// Sets the victim-selection policy (§4.1.5 future work).
    #[must_use]
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.sets = self.sets.into_iter().map(|set| set.with_policy(policy)).collect();
        self
    }

    /// The configured index left-shift (log2 of maximum coalescing).
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Counter snapshot, summed over the sets.
    pub fn stats(&self) -> StructureStats {
        self.sets.iter().map(FullyAssocTlb::stats).sum()
    }

    /// The set `vpn` maps to: the index bits sit `shift` bits up.
    fn set_index(&self, vpn: Vpn) -> usize {
        ((vpn.raw() >> self.shift) as usize) & (self.sets.len() - 1)
    }

    fn set(&mut self, vpn: Vpn) -> &mut FullyAssocTlb {
        let idx = self.set_index(vpn);
        &mut self.sets[idx]
    }

    /// Looks up `vpn`, updating LRU state and hit/miss counters. Untagged
    /// entry point: matches only ASID-0 entries, which in full-flush mode
    /// is every entry — byte-identical to the pre-SMP behavior.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<(Pfn, TlbEntry)> {
        self.lookup_tagged(vpn, Asid(0))
    }

    /// ASID-selective lookup (SMP tagged mode): only entries tagged
    /// `asid` can hit.
    pub fn lookup_tagged(&mut self, vpn: Vpn, asid: Asid) -> Option<(Pfn, TlbEntry)> {
        self.set(vpn).lookup_tagged(vpn, asid)
    }

    /// Checks for a hit without touching LRU or counters (any ASID).
    pub fn probe(&self, vpn: Vpn) -> Option<Pfn> {
        self.sets[self.set_index(vpn)].probe(vpn)
    }

    /// Inserts a coalesced run, which must fit the TLB's index group.
    /// If a resident entry of the same set can absorb the run (same
    /// group, contiguous union, consistent frames/attributes) the two
    /// merge; otherwise the LRU way is evicted when the set is full.
    ///
    /// Returns the evicted entry, if any.
    ///
    /// # Panics
    /// Panics if `run` spans more than one `2^shift` group (the caller
    /// must restrict it first, see
    /// [`CoalescedRun::restrict_to_group`]).
    pub fn insert(&mut self, run: CoalescedRun) -> Option<TlbEntry> {
        self.insert_tagged(run, Asid(0))
    }

    /// Inserts a run tagged with `asid` (SMP tagged mode). Merging only
    /// considers resident entries with the same tag: two address spaces
    /// may map the same VPNs to different frames.
    ///
    /// # Panics
    /// Panics if `run` spans more than one `2^shift` group.
    pub fn insert_tagged(&mut self, run: CoalescedRun, asid: Asid) -> Option<TlbEntry> {
        let shift = self.shift;
        assert!(run.fits_group(shift), "run {run:?} does not fit one 2^{shift} group");
        // A union that fits the group is a merge with a resident of the
        // same group.
        let entry = TlbEntry::coalesced_tagged(run, asid);
        self.set(run.start_vpn).insert_or_merge(entry, |union| union.fits_group(shift))
    }

    /// Gracefully uncoalesces on invalidation (§4.1.5 future work):
    /// instead of flushing whole coalesced entries covering `vpn`, only
    /// the victim translation is dropped — the remnant runs stay
    /// resident. Returns the number of entries affected.
    pub fn invalidate_graceful(&mut self, vpn: Vpn) -> usize {
        self.set(vpn).invalidate_graceful(vpn)
    }

    /// Graceful invalidation restricted to entries tagged `asid`.
    pub fn invalidate_graceful_asid(&mut self, vpn: Vpn, asid: Asid) -> usize {
        self.set(vpn).invalidate_graceful_asid(vpn, asid)
    }

    /// Invalidates every entry whose range covers `vpn`. Whole coalesced
    /// entries are flushed, losing their sibling translations (§4.1.5).
    /// Returns the number of entries removed.
    pub fn invalidate(&mut self, vpn: Vpn) -> usize {
        self.set(vpn).invalidate(vpn)
    }

    /// Invalidates entries covering `vpn` that are tagged `asid` (remote
    /// shootdown in SMP tagged mode). Returns the number removed.
    pub fn invalidate_asid(&mut self, vpn: Vpn, asid: Asid) -> usize {
        self.set(vpn).invalidate_asid(vpn, asid)
    }

    /// Flushes the whole TLB.
    pub fn flush(&mut self) {
        self.sets.iter_mut().for_each(FullyAssocTlb::flush);
    }

    /// Flushes only entries tagged `asid` (process exit or ASID
    /// recycling). Returns the number removed.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        self.sets.iter_mut().map(|set| set.flush_asid(asid)).sum()
    }

    /// Number of live entries.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(FullyAssocTlb::occupancy).sum()
    }

    /// Total translations covered by live entries (reach in pages).
    pub fn covered_pages(&self) -> u64 {
        self.sets.iter().map(FullyAssocTlb::covered_pages).sum()
    }

    /// Iterates live entries (MRU-first within each set).
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
        self.sets.iter().flat_map(FullyAssocTlb::iter)
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
    fn baseline_shift0_maps_consecutive_vpns_to_consecutive_sets() {
        let mut tlb = SetAssocTlb::new(32, 4, 0);
        assert_eq!(tlb.num_sets(), 8);
        tlb.insert(run(0, 100, 1));
        tlb.insert(run(1, 101, 1));
        assert_eq!(tlb.lookup(Vpn::new(0)).unwrap().0, Pfn::new(100));
        assert_eq!(tlb.lookup(Vpn::new(1)).unwrap().0, Pfn::new(101));
        // Different sets: both live despite 4-way sets.
        assert_eq!(tlb.occupancy(), 2);
    }

    #[test]
    fn shift2_groups_of_four_share_a_set() {
        let tlb = SetAssocTlb::new(32, 4, 2);
        assert_eq!(tlb.num_sets(), 8);
        // vpns 8..12 are one group → same set; 12 starts the next set.
        let mut t = tlb.clone();
        t.insert(run(8, 100, 4));
        assert!(t.probe(Vpn::new(8)).is_some());
        assert!(t.probe(Vpn::new(11)).is_some());
        assert!(t.probe(Vpn::new(12)).is_none());
        assert_eq!(t.occupancy(), 1, "four translations in one entry");
    }

    #[test]
    fn lru_evicts_least_recent_way() {
        let mut tlb = SetAssocTlb::new(8, 2, 0); // 4 sets, 2 ways
        // vpns 0, 4, 8 all map to set 0.
        tlb.insert(run(0, 100, 1));
        tlb.insert(run(4, 104, 1));
        tlb.lookup(Vpn::new(0)); // make vpn 0 MRU
        let evicted = tlb.insert(run(8, 108, 1)).expect("set full, must evict");
        assert_eq!(evicted.run().start_vpn, Vpn::new(4), "LRU way evicted");
        assert!(tlb.probe(Vpn::new(0)).is_some());
        assert!(tlb.probe(Vpn::new(8)).is_some());
    }

    #[test]
    fn conflict_misses_rise_with_aggressive_shift() {
        // The fundamental CoLT-SA tradeoff (§4.1.2): with shift 3, eight
        // consecutive *uncoalescible* translations fight over one set.
        let scattered: Vec<CoalescedRun> =
            (0..8).map(|i| run(i, 500 + 2 * i, 1)).collect(); // non-contiguous pfns
        let mut shift0 = SetAssocTlb::new(8, 2, 0); // 4 sets
        let mut shift3 = SetAssocTlb::new(8, 2, 3); // 1 set... 4 sets of groups of 8
        for r in &scattered {
            shift0.insert(*r);
            shift3.insert(*r);
        }
        let live0 = (0..8).filter(|&i| shift0.probe(Vpn::new(i)).is_some()).count();
        let live3 = (0..8).filter(|&i| shift3.probe(Vpn::new(i)).is_some()).count();
        assert_eq!(live0, 8, "baseline spreads them over all sets");
        assert_eq!(live3, 2, "shift-3 crams all eight into one set of two ways");
    }

    #[test]
    fn insert_merges_into_resident_same_group_entry() {
        let mut tlb = SetAssocTlb::new(32, 4, 2);
        tlb.insert(run(8, 100, 2)); // slots 0,1
        tlb.insert(run(10, 102, 2)); // slots 2,3 — contiguous continuation
        assert_eq!(tlb.occupancy(), 1, "merged into one entry");
        assert_eq!(tlb.stats().merges, 1);
        assert_eq!(tlb.probe(Vpn::new(11)), Some(Pfn::new(103)));
    }

    #[test]
    fn insert_does_not_merge_inconsistent_runs() {
        let mut tlb = SetAssocTlb::new(32, 4, 2);
        tlb.insert(run(8, 100, 2));
        tlb.insert(run(10, 900, 2)); // same group, different anchor
        assert_eq!(tlb.occupancy(), 2);
        assert_eq!(tlb.probe(Vpn::new(9)), Some(Pfn::new(101)));
        assert_eq!(tlb.probe(Vpn::new(10)), Some(Pfn::new(900)));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn inserting_group_crossing_run_panics() {
        let mut tlb = SetAssocTlb::new(32, 4, 2);
        tlb.insert(run(10, 100, 4)); // 10..14 crosses the 8..12 boundary
    }

    #[test]
    fn invalidation_flushes_whole_coalesced_entry() {
        let mut tlb = SetAssocTlb::new(32, 4, 2);
        tlb.insert(run(8, 100, 4));
        assert_eq!(tlb.invalidate(Vpn::new(9)), 1);
        // Sibling translations are lost too (§4.1.5).
        for i in 8..12 {
            assert!(tlb.probe(Vpn::new(i)).is_none());
        }
    }

    #[test]
    fn flush_empties_everything() {
        let mut tlb = SetAssocTlb::new(32, 4, 2);
        tlb.insert(run(8, 100, 4));
        tlb.insert(run(16, 200, 2));
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
        assert_eq!(tlb.stats().invalidations, 2);
    }

    #[test]
    fn covered_pages_reports_reach() {
        let mut tlb = SetAssocTlb::new(32, 4, 2);
        tlb.insert(run(8, 100, 4));
        tlb.insert(run(16, 200, 2));
        tlb.insert(run(33, 301, 1));
        assert_eq!(tlb.covered_pages(), 7);
        assert_eq!(tlb.occupancy(), 3);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut tlb = SetAssocTlb::new(32, 4, 2);
        tlb.insert(run(8, 100, 4));
        tlb.lookup(Vpn::new(8));
        tlb.lookup(Vpn::new(9));
        tlb.lookup(Vpn::new(100));
        let s = tlb.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.insertions, 1);
    }

    #[test]
    fn graceful_invalidation_keeps_sibling_translations() {
        let mut tlb = SetAssocTlb::new(32, 4, 2);
        tlb.insert(run(8, 100, 4));
        assert_eq!(tlb.invalidate_graceful(Vpn::new(9)), 1);
        // Only the victim is gone (§4.1.5 future work).
        assert_eq!(tlb.probe(Vpn::new(8)), Some(Pfn::new(100)));
        assert_eq!(tlb.probe(Vpn::new(9)), None);
        assert_eq!(tlb.probe(Vpn::new(10)), Some(Pfn::new(102)));
        assert_eq!(tlb.probe(Vpn::new(11)), Some(Pfn::new(103)));
        assert_eq!(tlb.occupancy(), 2, "split into two remnants");
    }

    #[test]
    fn graceful_invalidation_of_edge_and_single() {
        let mut tlb = SetAssocTlb::new(32, 4, 2);
        tlb.insert(run(8, 100, 4));
        tlb.invalidate_graceful(Vpn::new(8)); // leading edge
        assert_eq!(tlb.probe(Vpn::new(8)), None);
        assert_eq!(tlb.probe(Vpn::new(9)), Some(Pfn::new(101)));
        assert_eq!(tlb.occupancy(), 1);
        tlb.insert(run(16, 200, 1));
        tlb.invalidate_graceful(Vpn::new(16)); // singleton: nothing remains
        assert_eq!(tlb.probe(Vpn::new(16)), None);
    }

    #[test]
    fn graceful_mid_split_in_full_set_keeps_both_remnants() {
        // Regression: splitting a mid-run hit produces TWO remnants, but
        // a full set used to have room for only one — the second (still
        // valid) remnant was silently dropped instead of evicting per
        // policy.
        let mut tlb = SetAssocTlb::new(8, 2, 2); // 4 sets, 2 ways
        tlb.insert(run(0, 100, 3)); // set 0, covers vpns 0..3
        tlb.insert(run(16, 116, 1)); // group 4 → also set 0: set now full
        assert_eq!(tlb.invalidate_graceful(Vpn::new(1)), 1);
        assert_eq!(tlb.probe(Vpn::new(0)), Some(Pfn::new(100)));
        assert_eq!(tlb.probe(Vpn::new(1)), None, "victim gone");
        assert_eq!(
            tlb.probe(Vpn::new(2)),
            Some(Pfn::new(102)),
            "second remnant must survive a full set"
        );
        assert_eq!(tlb.probe(Vpn::new(16)), None, "LRU way evicted to make room");
        assert_eq!(tlb.stats().evictions, 1, "the displacement is a counted eviction");
    }

    #[test]
    fn graceful_split_in_one_way_set_keeps_first_remnant_only() {
        let mut tlb = SetAssocTlb::new(4, 1, 2); // 4 sets, 1 way
        tlb.insert(run(0, 100, 3));
        tlb.invalidate_graceful(Vpn::new(1));
        // Only one slot exists: the left remnant takes it, the right one
        // is dropped (never evict a remnant to hold its sibling).
        assert_eq!(tlb.probe(Vpn::new(0)), Some(Pfn::new(100)));
        assert_eq!(tlb.probe(Vpn::new(1)), None);
        assert_eq!(tlb.probe(Vpn::new(2)), None);
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.stats().evictions, 0);
    }

    #[test]
    fn coalesced_first_replacement_protects_big_entries() {
        use crate::replacement::ReplacementPolicy;
        let mut tlb =
            SetAssocTlb::new(8, 2, 2).with_policy(ReplacementPolicy::SmallestCoalescedFirst);
        // 4 sets at shift 2: groups ≡ 0 mod 4 share set 0 → vpns 0, 16, 32.
        tlb.insert(run(0, 100, 4)); // big entry
        tlb.insert(run(16, 116, 1)); // singleton, more recent
        // Insert a third conflicting entry: the singleton goes, not the
        // older 4-page entry (plain LRU would evict the 4-pager).
        tlb.insert(run(32, 132, 2));
        assert!(tlb.probe(Vpn::new(0)).is_some(), "high-reach entry survives");
        assert!(tlb.probe(Vpn::new(16)).is_none(), "singleton evicted first");
        assert!(tlb.probe(Vpn::new(32)).is_some());
    }

    /// The set-associative TLB as it was before its LRU bookkeeping ran
    /// in place: a `Vec` per set, `remove` + `insert` on every hit, and
    /// a candidate list per victim. Kept as the reference model.
    struct ReferenceSetAssocTlb {
        sets: Vec<Vec<TlbEntry>>,
        ways: usize,
        shift: u32,
        policy: ReplacementPolicy,
        stats: StructureStats,
    }

    impl ReferenceSetAssocTlb {
        fn new(entries: usize, ways: usize, shift: u32, policy: ReplacementPolicy) -> Self {
            let sets = vec![Vec::with_capacity(ways); entries / ways];
            Self { sets, ways, shift, policy, stats: StructureStats::default() }
        }

        fn set_index(&self, vpn: Vpn) -> usize {
            ((vpn.raw() >> self.shift) as usize) & (self.sets.len() - 1)
        }

        fn lookup_tagged(&mut self, vpn: Vpn, asid: Asid) -> Option<(Pfn, TlbEntry)> {
            let idx = self.set_index(vpn);
            let set = &mut self.sets[idx];
            if let Some(pos) =
                set.iter().position(|e| e.asid() == asid && e.lookup(vpn).is_some())
            {
                let entry = set.remove(pos);
                let hit = (entry.lookup(vpn).expect("position found by lookup"), entry);
                set.insert(0, entry);
                self.stats.hits += 1;
                return Some(hit);
            }
            self.stats.misses += 1;
            None
        }

        fn insert_tagged(&mut self, run: CoalescedRun, asid: Asid) -> Option<TlbEntry> {
            let entry = TlbEntry::coalesced_tagged(run, asid);
            let idx = self.set_index(run.start_vpn);
            let shift = self.shift;
            let set = &mut self.sets[idx];
            self.stats.insertions += 1;
            for pos in 0..set.len() {
                if set[pos].asid() == asid && set[pos].run().group(shift) == run.group(shift) {
                    if let Some(union) = set[pos].run().try_union(&run) {
                        set.remove(pos);
                        set.insert(0, TlbEntry::coalesced_tagged(union, asid));
                        self.stats.merges += 1;
                        return None;
                    }
                }
            }
            let evicted = if set.len() == self.ways {
                self.stats.evictions += 1;
                let candidates: Vec<(usize, u64)> =
                    set.iter().enumerate().map(|(rank, e)| (rank, e.run().len)).collect();
                Some(set.remove(reference_victim(self.policy, &candidates)))
            } else {
                None
            };
            set.insert(0, entry);
            evicted
        }

        fn invalidate_graceful_filtered(&mut self, vpn: Vpn, filter: Option<Asid>) -> usize {
            let idx = self.set_index(vpn);
            let ways = self.ways;
            let set = &mut self.sets[idx];
            let mut affected = 0;
            let mut pos = 0;
            while pos < set.len() {
                if filter.is_some_and(|a| set[pos].asid() != a) {
                    pos += 1;
                    continue;
                }
                let entry_asid = set[pos].asid();
                if let Some((left, right)) = set[pos].run().split_at(vpn) {
                    affected += 1;
                    set.remove(pos);
                    let mut insert_at = pos;
                    for remnant in [left, right].into_iter().flatten() {
                        if set.len() >= ways {
                            let candidates: Vec<(usize, u64)> = set
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
                            set.remove(victim);
                            if victim < insert_at {
                                insert_at -= 1;
                                if victim < pos {
                                    pos -= 1;
                                }
                            }
                        }
                        let remnant = TlbEntry::coalesced_tagged(remnant, entry_asid);
                        set.insert(insert_at.min(set.len()), remnant);
                        insert_at += 1;
                    }
                } else {
                    pos += 1;
                }
            }
            self.stats.invalidations += affected as u64;
            affected
        }

        fn invalidate_filtered(&mut self, vpn: Vpn, filter: Option<Asid>) -> usize {
            let idx = self.set_index(vpn);
            let set = &mut self.sets[idx];
            let before = set.len();
            set.retain(|e| filter.is_some_and(|a| e.asid() != a) || e.lookup(vpn).is_none());
            let removed = before - set.len();
            self.stats.invalidations += removed as u64;
            removed
        }

        fn flush(&mut self) {
            for set in &mut self.sets {
                self.stats.invalidations += set.len() as u64;
                set.clear();
            }
        }

        fn flush_asid(&mut self, asid: Asid) -> usize {
            let mut removed = 0;
            for set in &mut self.sets {
                let before = set.len();
                set.retain(|e| e.asid() != asid);
                removed += before - set.len();
            }
            self.stats.invalidations += removed as u64;
            removed
        }

        fn occupancy(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    /// A run confined to one `2^shift` group of the first 32 pages,
    /// translated under one of two anchors so that neighbours often
    /// merge and sometimes conflict.
    fn random_run(rng: &mut SmallRng, shift: u32) -> CoalescedRun {
        let group = 1u64 << shift;
        let first = rng.gen_range(0..32u64) & !(group - 1);
        let offset = rng.gen_range(0..group);
        let len = rng.gen_range(1..=group - offset);
        let start = first + offset;
        let anchor = if rng.gen_bool(0.8) { 1_000 } else { 5_000 };
        CoalescedRun::new(Vpn::new(start), Pfn::new(anchor + start), len, flags())
    }

    #[test]
    fn in_place_lru_matches_the_reference_model() {
        let policies = [ReplacementPolicy::Lru, ReplacementPolicy::SmallestCoalescedFirst];
        let geometries = [(8, 2, 2), (4, 1, 2), (16, 4, 0), (8, 8, 3), (16, 4, 1), (4, 4, 2)];
        for policy in policies {
            for (seed, &(entries, ways, shift)) in geometries.iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(0x5A ^ seed as u64);
                let mut tlb = SetAssocTlb::new(entries, ways, shift).with_policy(policy);
                let mut reference = ReferenceSetAssocTlb::new(entries, ways, shift, policy);
                for step in 0..4_000 {
                    let vpn = Vpn::new(rng.gen_range(0..32u64));
                    let asid = Asid(rng.gen_range(0..2u32));
                    match rng.gen_range(0..100u32) {
                        0..=9 => assert_eq!(tlb.lookup(vpn), reference.lookup_tagged(vpn, Asid(0))),
                        10..=39 => assert_eq!(
                            tlb.lookup_tagged(vpn, asid),
                            reference.lookup_tagged(vpn, asid)
                        ),
                        40..=49 => {
                            let run = random_run(&mut rng, shift);
                            assert_eq!(tlb.insert(run), reference.insert_tagged(run, Asid(0)));
                        }
                        50..=74 => {
                            let run = random_run(&mut rng, shift);
                            assert_eq!(
                                tlb.insert_tagged(run, asid),
                                reference.insert_tagged(run, asid)
                            );
                        }
                        75..=78 => assert_eq!(
                            tlb.invalidate(vpn),
                            reference.invalidate_filtered(vpn, None)
                        ),
                        79..=82 => assert_eq!(
                            tlb.invalidate_asid(vpn, asid),
                            reference.invalidate_filtered(vpn, Some(asid))
                        ),
                        83..=88 => assert_eq!(
                            tlb.invalidate_graceful(vpn),
                            reference.invalidate_graceful_filtered(vpn, None)
                        ),
                        89..=94 => assert_eq!(
                            tlb.invalidate_graceful_asid(vpn, asid),
                            reference.invalidate_graceful_filtered(vpn, Some(asid))
                        ),
                        95 => assert_eq!(tlb.flush_asid(asid), reference.flush_asid(asid)),
                        96 => {
                            tlb.flush();
                            reference.flush();
                        }
                        _ => {
                            let set = &reference.sets[reference.set_index(vpn)];
                            assert_eq!(tlb.probe(vpn), set.iter().find_map(|e| e.lookup(vpn)));
                        }
                    }
                    let context = format!("{policy:?} {entries}/{ways}/{shift} step {step}");
                    assert_eq!(tlb.stats(), reference.stats, "{context}");
                    assert_eq!(tlb.occupancy(), reference.occupancy(), "{context}");
                    assert!(
                        tlb.iter().eq(reference.sets.iter().flatten()),
                        "{context}: entries or their order differ"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut tlb = SetAssocTlb::new(8, 2, 0);
        tlb.insert(run(0, 100, 1));
        tlb.insert(run(4, 104, 1)); // MRU now 4
        tlb.probe(Vpn::new(0)); // must NOT promote 0
        let evicted = tlb.insert(run(8, 108, 1)).unwrap();
        assert_eq!(evicted.run().start_vpn, Vpn::new(0));
    }
}
