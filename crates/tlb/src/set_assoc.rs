//! Set-associative TLB with CoLT-SA's modified set indexing (paper §4.1).
//!
//! A conventional set-associative TLB indexes with the low VPN bits,
//! mapping consecutive translations to consecutive sets and precluding
//! coalescing. CoLT-SA left-shifts the index bits by `shift` so that the
//! `2^shift` consecutive translations of one aligned group map to the
//! same set and can live in one entry (§4.1.2). `shift = 0` yields the
//! baseline non-coalescing TLB; the paper's default is `shift = 2`
//! (VPN[4-2] for the 8-set L1, VPN[6-2] for the 32-set L2).

use crate::entry::{CoalescedRun, SaEntry};
use crate::replacement::ReplacementPolicy;
use colt_os_mem::addr::{Asid, Pfn, Vpn};
use colt_os_mem::page_table::PteFlags;

/// A hit in a set-associative TLB.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SaHit {
    /// The translated frame.
    pub pfn: Pfn,
    /// Attribute bits of the coalesced entry.
    pub flags: PteFlags,
    /// Coalesced length of the hit entry (1 for uncoalesced).
    pub entry_len: u64,
    /// The full run held by the hit entry (for refilling upper levels).
    pub run: CoalescedRun,
}

/// Per-structure counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SaStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Inserts absorbed by merging into a resident entry.
    pub merges: u64,
    /// Entries evicted by replacement.
    pub evictions: u64,
    /// Entries removed by invalidation.
    pub invalidations: u64,
}

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
/// assert_eq!(tlb.lookup(Vpn::new(11)).unwrap().pfn, Pfn::new(103));
/// assert!(tlb.lookup(Vpn::new(12)).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocTlb {
    sets: Vec<Vec<SaEntry>>, // each set ordered MRU-first
    ways: usize,
    shift: u32,
    policy: ReplacementPolicy,
    stats: SaStats,
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
        Self {
            sets: vec![Vec::with_capacity(ways); num_sets],
            ways,
            shift,
            policy: ReplacementPolicy::Lru,
            stats: SaStats::default(),
        }
    }

    /// Sets the victim-selection policy (§4.1.5 future work).
    #[must_use]
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
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

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SaStats {
        self.stats
    }

    fn set_index(&self, vpn: Vpn) -> usize {
        ((vpn.raw() >> self.shift) as usize) & (self.sets.len() - 1)
    }

    /// Looks up `vpn`, updating LRU state and hit/miss counters. Untagged
    /// entry point: matches only ASID-0 entries, which in full-flush mode
    /// is every entry — byte-identical to the pre-SMP behavior.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<SaHit> {
        self.lookup_tagged(vpn, Asid(0))
    }

    /// ASID-selective lookup (SMP tagged mode): only entries tagged
    /// `asid` can hit, so stale translations of a descheduled address
    /// space are invisible without a flush.
    pub fn lookup_tagged(&mut self, vpn: Vpn, asid: Asid) -> Option<SaHit> {
        let idx = self.set_index(vpn);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|e| e.asid() == asid && e.lookup(vpn).is_some()) {
            let entry = set.remove(pos);
            let hit = SaHit {
                pfn: entry.lookup(vpn).expect("position found by lookup"),
                flags: entry.flags(),
                entry_len: entry.coalesced_len(),
                run: entry.run(),
            };
            set.insert(0, entry);
            self.stats.hits += 1;
            return Some(hit);
        }
        self.stats.misses += 1;
        None
    }

    /// Batched lookup: translates every VPN of `vpns` in order,
    /// appending one result per VPN to `out`. State transitions (LRU
    /// promotion, hit/miss counters) are byte-identical to the same
    /// sequence of [`SetAssocTlb::lookup`] calls — batching only
    /// amortizes the per-call overhead of the sweep hot path.
    pub fn lookup_batch(&mut self, vpns: &[Vpn], out: &mut Vec<Option<SaHit>>) {
        self.lookup_batch_tagged(vpns, Asid(0), out);
    }

    /// Tagged variant of [`SetAssocTlb::lookup_batch`].
    pub fn lookup_batch_tagged(&mut self, vpns: &[Vpn], asid: Asid, out: &mut Vec<Option<SaHit>>) {
        out.reserve(vpns.len());
        for &vpn in vpns {
            out.push(self.lookup_tagged(vpn, asid));
        }
    }

    /// Checks for a hit without touching LRU or counters (any ASID).
    pub fn probe(&self, vpn: Vpn) -> Option<Pfn> {
        let idx = self.set_index(vpn);
        self.sets[idx].iter().find_map(|e| e.lookup(vpn))
    }

    /// ASID-selective probe: no LRU or counter side effects.
    pub fn probe_tagged(&self, vpn: Vpn, asid: Asid) -> Option<Pfn> {
        let idx = self.set_index(vpn);
        self.sets[idx].iter().filter(|e| e.asid() == asid).find_map(|e| e.lookup(vpn))
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
    pub fn insert(&mut self, run: CoalescedRun) -> Option<SaEntry> {
        self.insert_tagged(run, Asid(0))
    }

    /// Inserts a run tagged with `asid` (SMP tagged mode). Merging only
    /// considers resident entries with the same tag: two address spaces
    /// may map the same VPNs to different frames.
    pub fn insert_tagged(&mut self, run: CoalescedRun, asid: Asid) -> Option<SaEntry> {
        let entry = SaEntry::new_tagged(run, self.shift, asid);
        let idx = self.set_index(run.start_vpn);
        let shift = self.shift;
        let set = &mut self.sets[idx];
        self.stats.insertions += 1;

        // Try merging with a resident entry of the same group.
        for pos in 0..set.len() {
            if set[pos].asid() == asid && set[pos].group(shift) == entry.group(shift) {
                if let Some(union) = set[pos].run().try_union(&run) {
                    set.remove(pos);
                    set.insert(0, SaEntry::new_tagged(union, shift, asid));
                    self.stats.merges += 1;
                    return None;
                }
            }
        }

        let evicted = if set.len() == self.ways {
            self.stats.evictions += 1;
            let candidates: Vec<(usize, u64)> = set
                .iter()
                .enumerate()
                .map(|(rank, e)| (rank, e.coalesced_len()))
                .collect();
            let victim = self.policy.choose_victim(&candidates);
            Some(set.remove(victim))
        } else {
            None
        };
        set.insert(0, entry);
        evicted
    }

    /// Gracefully uncoalesces on invalidation (§4.1.5 future work):
    /// instead of flushing whole coalesced entries covering `vpn`, only
    /// the victim translation is dropped — the remnant runs stay
    /// resident. Returns the number of entries affected.
    pub fn invalidate_graceful(&mut self, vpn: Vpn) -> usize {
        self.invalidate_graceful_filtered(vpn, None)
    }

    /// Graceful invalidation restricted to entries tagged `asid`.
    pub fn invalidate_graceful_asid(&mut self, vpn: Vpn, asid: Asid) -> usize {
        self.invalidate_graceful_filtered(vpn, Some(asid))
    }

    fn invalidate_graceful_filtered(&mut self, vpn: Vpn, filter: Option<Asid>) -> usize {
        let idx = self.set_index(vpn);
        let shift = self.shift;
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
                // Remnants re-enter at the same recency position; both
                // stay within the original entry's index group.
                let mut insert_at = pos;
                for remnant in [left, right].into_iter().flatten() {
                    if set.len() >= ways {
                        // Splitting one entry into two can overflow the
                        // set: make room through the replacement policy
                        // instead of silently dropping a still-valid
                        // remnant — but never victimise a remnant just
                        // re-inserted (ranks `pos..insert_at`).
                        let candidates: Vec<(usize, u64)> = set
                            .iter()
                            .enumerate()
                            .filter(|(rank, _)| !(pos..insert_at).contains(rank))
                            .map(|(rank, e)| (rank, e.coalesced_len()))
                            .collect();
                        if candidates.is_empty() {
                            continue; // one-way set already holds a remnant
                        }
                        let victim = candidates[self.policy.choose_victim(&candidates)].0;
                        self.stats.evictions += 1;
                        set.remove(victim);
                        if victim < insert_at {
                            insert_at -= 1;
                            if victim < pos {
                                pos -= 1;
                            }
                        }
                    }
                    set.insert(insert_at.min(set.len()), SaEntry::new_tagged(remnant, shift, entry_asid));
                    insert_at += 1;
                }
            } else {
                pos += 1;
            }
        }
        self.stats.invalidations += affected as u64;
        affected
    }

    /// Invalidates every entry whose range covers `vpn`. Whole coalesced
    /// entries are flushed, losing their sibling translations (§4.1.5).
    /// Returns the number of entries removed.
    pub fn invalidate(&mut self, vpn: Vpn) -> usize {
        let idx = self.set_index(vpn);
        let set = &mut self.sets[idx];
        let before = set.len();
        set.retain(|e| e.lookup(vpn).is_none());
        let removed = before - set.len();
        self.stats.invalidations += removed as u64;
        removed
    }

    /// Invalidates entries covering `vpn` that are tagged `asid` (remote
    /// shootdown in SMP tagged mode). Returns the number removed.
    pub fn invalidate_asid(&mut self, vpn: Vpn, asid: Asid) -> usize {
        let idx = self.set_index(vpn);
        let set = &mut self.sets[idx];
        let before = set.len();
        set.retain(|e| e.asid() != asid || e.lookup(vpn).is_none());
        let removed = before - set.len();
        self.stats.invalidations += removed as u64;
        removed
    }

    /// Flushes the whole TLB.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            self.stats.invalidations += set.len() as u64;
            set.clear();
        }
    }

    /// Flushes only entries tagged `asid` (process exit or ASID
    /// recycling). Returns the number removed.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        let mut removed = 0;
        for set in &mut self.sets {
            let before = set.len();
            set.retain(|e| e.asid() != asid);
            removed += before - set.len();
        }
        self.stats.invalidations += removed as u64;
        removed
    }

    /// Number of live entries.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Total translations covered by live entries (reach in pages).
    pub fn covered_pages(&self) -> u64 {
        self.sets
            .iter()
            .flat_map(|s| s.iter())
            .map(SaEntry::coalesced_len)
            .sum()
    }

    /// Iterates live entries (MRU-first within each set).
    pub fn iter(&self) -> impl Iterator<Item = &SaEntry> {
        self.sets.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(tlb.lookup(Vpn::new(0)).unwrap().pfn, Pfn::new(100));
        assert_eq!(tlb.lookup(Vpn::new(1)).unwrap().pfn, Pfn::new(101));
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

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut tlb = SetAssocTlb::new(8, 2, 0);
        tlb.insert(run(0, 100, 1));
        tlb.insert(run(4, 104, 1)); // MRU now 4
        tlb.probe(Vpn::new(0)); // must NOT promote 0
        let evicted = tlb.insert(run(8, 108, 1)).unwrap();
        assert_eq!(evicted.run().start_vpn, Vpn::new(0));
    }

    #[test]
    fn lookup_batch_matches_sequential_lookups() {
        let vpns: Vec<Vpn> = [8, 9, 100, 11, 8, 50, 10].map(Vpn::new).to_vec();
        let mut seq = SetAssocTlb::new(32, 4, 2);
        seq.insert(run(8, 100, 4));
        let mut batched = seq.clone();
        let expected: Vec<Option<SaHit>> = vpns.iter().map(|&v| seq.lookup(v)).collect();
        let mut got = Vec::new();
        batched.lookup_batch(&vpns, &mut got);
        assert_eq!(got, expected);
        assert_eq!(batched.stats(), seq.stats(), "counters and LRU evolve identically");
    }
}
