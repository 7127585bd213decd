//! TLB entries: coalesced runs, and the one entry type every TLB
//! structure holds — a run with its kind and address-space tag, which
//! is both CoLT-SA's valid-bitmap entry (paper §4.1.3 / Figure 4) and
//! CoLT-FA's range entry (§4.2.2 / Figure 5).

use colt_os_mem::addr::{Asid, Pfn, Vpn, SUPERPAGE_PAGES};
use colt_os_mem::page_table::PteFlags;

/// The maximum coalescing length a CoLT-FA range entry can record. The
/// paper uses a 5-bit coalescing-length field "as this captures a
/// contiguity of 1024 pages" (§4.2.2).
pub const MAX_RANGE_LEN: u64 = 1024;

/// A contiguous run of translations: virtual pages
/// `start_vpn .. start_vpn + len` map to physical frames
/// `base_pfn .. base_pfn + len` with identical attributes.
///
/// This is both what the coalescing logic produces from a PTE cache line
/// and the payload of every coalesced TLB entry.
///
/// ```
/// use colt_tlb::entry::CoalescedRun;
/// use colt_os_mem::addr::{Pfn, Vpn};
/// use colt_os_mem::page_table::PteFlags;
/// let run = CoalescedRun::new(Vpn::new(8), Pfn::new(100), 4, PteFlags::user_data());
/// assert_eq!(run.translate(Vpn::new(10)), Some(Pfn::new(102)));
/// assert_eq!(run.translate(Vpn::new(12)), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CoalescedRun {
    /// First virtual page covered.
    pub start_vpn: Vpn,
    /// Physical frame of `start_vpn`.
    pub base_pfn: Pfn,
    /// Number of coalesced translations (≥ 1).
    pub len: u64,
    /// Shared attribute bits (one set per coalesced entry, §4.1.5).
    pub flags: PteFlags,
}

impl CoalescedRun {
    /// Creates a run.
    ///
    /// # Panics
    /// Panics if `len` is zero.
    pub fn new(start_vpn: Vpn, base_pfn: Pfn, len: u64, flags: PteFlags) -> Self {
        assert!(len > 0, "a run covers at least one translation");
        Self { start_vpn, base_pfn, len, flags }
    }

    /// A single (uncoalesced) translation.
    pub fn single(vpn: Vpn, pfn: Pfn, flags: PteFlags) -> Self {
        Self::new(vpn, pfn, 1, flags)
    }

    /// One-past-the-end virtual page.
    pub fn end_vpn(&self) -> Vpn {
        self.start_vpn.offset(self.len)
    }

    /// True when `vpn` is covered (the CoLT-FA range check:
    /// `base VPN <= request VPN <= base VPN + coal. length`, Figure 5).
    /// One wrapping subtract and compare: a `vpn` below the run wraps
    /// to a distance no run length reaches.
    #[inline]
    pub fn contains(&self, vpn: Vpn) -> bool {
        vpn.raw().wrapping_sub(self.start_vpn.raw()) < self.len
    }

    /// Translates `vpn` if covered: the PPN-generation logic subtracts the
    /// base virtual page and adds the stored base physical page (§4.2.2).
    #[inline]
    pub fn translate(&self, vpn: Vpn) -> Option<Pfn> {
        let delta = vpn.raw().wrapping_sub(self.start_vpn.raw());
        (delta < self.len).then(|| self.base_pfn.offset(delta))
    }

    /// True when the run lies entirely within one aligned group of
    /// `2^shift` virtual pages — the constraint CoLT-SA's modified set
    /// indexing imposes (§4.1.2).
    pub fn fits_group(&self, shift: u32) -> bool {
        let last = Vpn::new(self.end_vpn().raw() - 1);
        self.start_vpn.align_down(shift) == last.align_down(shift)
    }

    /// The aligned group number (`vpn >> shift`) the run belongs to.
    ///
    /// # Panics
    /// Panics if the run spans multiple groups.
    pub fn group(&self, shift: u32) -> u64 {
        assert!(self.fits_group(shift), "run spans multiple groups for shift {shift}");
        self.start_vpn.raw() >> shift
    }

    /// Restricts the run to the aligned `2^shift` group containing `vpn`,
    /// returning the sub-run (which always still contains `vpn` when the
    /// original did).
    pub fn restrict_to_group(&self, vpn: Vpn, shift: u32) -> Option<CoalescedRun> {
        if !self.contains(vpn) {
            return None;
        }
        let group_start = vpn.align_down(shift);
        let group_end = group_start.offset(1 << shift);
        let start = self.start_vpn.max(group_start);
        let end = self.end_vpn().min(group_end);
        let len = end.distance_from(start).expect("non-empty intersection");
        let delta = start.distance_from(self.start_vpn).expect("start within run");
        Some(CoalescedRun::new(start, self.base_pfn.offset(delta), len, self.flags))
    }

    /// Splits the run around `vpn`, returning the (possibly empty) left
    /// and right remnants — the *graceful uncoalescing* of §4.1.5's
    /// future work: instead of flushing a whole coalesced entry on an
    /// invalidation, only the victim translation is lost.
    ///
    /// Returns `None` when `vpn` is not covered (nothing to split).
    pub fn split_at(&self, vpn: Vpn) -> Option<(Option<CoalescedRun>, Option<CoalescedRun>)> {
        if !self.contains(vpn) {
            return None;
        }
        let left_len = vpn.distance_from(self.start_vpn).expect("contains checked");
        let right_len = self.len - left_len - 1;
        let left = (left_len > 0)
            .then(|| CoalescedRun::new(self.start_vpn, self.base_pfn, left_len, self.flags));
        let right = (right_len > 0).then(|| {
            CoalescedRun::new(
                vpn.next(),
                self.base_pfn.offset(left_len + 1),
                right_len,
                self.flags,
            )
        });
        Some((left, right))
    }

    /// Merges two runs when their union is itself one contiguous,
    /// attribute-consistent run (overlapping or exactly adjacent, with
    /// agreeing translations). Used by CoLT-FA's resident-entry merging
    /// (§4.2.1 step 5) and by set-associative insertion.
    pub fn try_union(&self, other: &CoalescedRun) -> Option<CoalescedRun> {
        if self.flags != other.flags {
            return None;
        }
        // Translation anchors must agree: pfn(v) = anchor + v for both.
        let anchor_a = self.base_pfn.raw() as i128 - self.start_vpn.raw() as i128;
        let anchor_b = other.base_pfn.raw() as i128 - other.start_vpn.raw() as i128;
        if anchor_a != anchor_b {
            return None;
        }
        // Union must be contiguous: ranges touch or overlap.
        if self.end_vpn() < other.start_vpn || other.end_vpn() < self.start_vpn {
            return None;
        }
        let start = self.start_vpn.min(other.start_vpn);
        let end = self.end_vpn().max(other.end_vpn());
        let len = end.distance_from(start).expect("end >= start");
        if len > MAX_RANGE_LEN {
            return None;
        }
        let base = if start == self.start_vpn { self.base_pfn } else { other.base_pfn };
        Some(CoalescedRun::new(start, base, len, self.flags))
    }
}

/// What an entry holds: a coalesced run of base pages or a superpage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RangeKind {
    /// A CoLT coalesced run of base pages (one page when uncoalesced).
    Coalesced,
    /// A 2MB superpage entry (the fully-associative TLB's original
    /// occupant).
    Superpage,
}

/// An entry of any TLB structure: a run of translations, its kind and
/// its address-space tag. Both hardware forms store a run. CoLT-SA's
/// entry (Figure 4) is tag bits, one valid bit per slot of its index
/// group, a base PPN and shared attributes: a coalesced run confined to
/// one group, which the set-associative TLB checks on insertion.
/// CoLT-FA's (Figure 5) is a base VPN tag, a coalescing length, a base
/// PPN and shared attributes: a coalesced run or a superpage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlbEntry {
    run: CoalescedRun,
    kind: RangeKind,
    asid: Asid,
}

impl TlbEntry {
    /// A coalesced entry, untagged (ASID 0 — the shared global tag used
    /// when the hierarchy runs in full-flush mode).
    ///
    /// # Panics
    /// Panics if the run exceeds [`MAX_RANGE_LEN`].
    pub fn coalesced(run: CoalescedRun) -> Self {
        Self::coalesced_tagged(run, Asid(0))
    }

    /// A coalesced entry with an explicit ASID tag (SMP tagged mode).
    ///
    /// # Panics
    /// Panics if the run exceeds [`MAX_RANGE_LEN`].
    pub fn coalesced_tagged(run: CoalescedRun, asid: Asid) -> Self {
        assert!(run.len <= MAX_RANGE_LEN, "range length field overflow");
        Self { run, kind: RangeKind::Coalesced, asid }
    }

    /// A superpage entry covering 512 aligned pages, untagged (ASID 0).
    ///
    /// # Panics
    /// Panics if `base_vpn` or `base_pfn` is not 512-page aligned.
    pub fn superpage(base_vpn: Vpn, base_pfn: Pfn, flags: PteFlags) -> Self {
        Self::superpage_tagged(base_vpn, base_pfn, flags, Asid(0))
    }

    /// A superpage entry with an explicit ASID tag.
    ///
    /// # Panics
    /// Panics if `base_vpn` or `base_pfn` is not 512-page aligned.
    pub fn superpage_tagged(base_vpn: Vpn, base_pfn: Pfn, flags: PteFlags, asid: Asid) -> Self {
        assert!(base_vpn.is_aligned(9) && base_pfn.is_aligned(9), "superpage misaligned");
        Self {
            run: CoalescedRun::new(base_vpn, base_pfn, SUPERPAGE_PAGES, flags),
            kind: RangeKind::Superpage,
            asid,
        }
    }

    /// The address-space tag (ASID 0 in untagged mode).
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// The covered run.
    pub fn run(&self) -> CoalescedRun {
        self.run
    }

    /// Coalesced run or superpage.
    pub fn kind(&self) -> RangeKind {
        self.kind
    }

    /// Looks up `vpn`: the range check (Figure 5 step a; a tag match
    /// and valid-bit select in Figure 4) plus PPN generation, the base
    /// PPN plus the distance from the base VPN (§4.1.3, §4.2.2).
    pub fn lookup(&self, vpn: Vpn) -> Option<Pfn> {
        self.run.translate(vpn)
    }

    /// The valid bitmap over the slots of a `2^shift`-page index group
    /// (bit `i` = slot `i` holds a translation), as CoLT-SA's hardware
    /// stores it. Meaningful for an entry that fits one group.
    pub fn valid_bits(&self, shift: u32) -> u8 {
        let first = (self.run.start_vpn.raw() & ((1 << shift) - 1)) as u32;
        let mut bits = 0u8;
        for i in 0..self.run.len as u32 {
            bits |= 1 << (first + i);
        }
        bits
    }

    /// Merges two coalesced entries of one tag whose runs form one
    /// contiguous, consistent run (superpage entries never merge).
    pub fn try_merge(&self, other: &TlbEntry) -> Option<TlbEntry> {
        if self.kind != RangeKind::Coalesced
            || other.kind != RangeKind::Coalesced
            || self.asid != other.asid
        {
            return None;
        }
        self.run.try_union(&other.run).map(|u| TlbEntry::coalesced_tagged(u, self.asid))
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
    fn run_translate_offsets() {
        let r = run(100, 500, 4);
        assert_eq!(r.translate(Vpn::new(100)), Some(Pfn::new(500)));
        assert_eq!(r.translate(Vpn::new(103)), Some(Pfn::new(503)));
        assert_eq!(r.translate(Vpn::new(104)), None);
        assert_eq!(r.translate(Vpn::new(99)), None);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_length_run_panics() {
        let _ = run(0, 0, 0);
    }

    #[test]
    fn fits_group_checks_alignment_span() {
        assert!(run(8, 0, 4).fits_group(2)); // pages 8..12 = group 2..3
        assert!(run(9, 0, 3).fits_group(2)); // 9..12 within group
        assert!(!run(9, 0, 4).fits_group(2)); // 9..13 crosses
        assert!(run(9, 0, 4).fits_group(3)); // 9..13 within 8..16
        assert!(run(5, 0, 1).fits_group(0)); // single always fits
    }

    #[test]
    fn restrict_to_group_clips_and_keeps_vpn() {
        // Run 6..14, restrict to group of vpn 9 with 4-page groups (8..12).
        let r = run(6, 106, 8);
        let s = r.restrict_to_group(Vpn::new(9), 2).unwrap();
        assert_eq!(s.start_vpn, Vpn::new(8));
        assert_eq!(s.len, 4);
        assert_eq!(s.base_pfn, Pfn::new(108));
        assert!(s.contains(Vpn::new(9)));
        assert_eq!(s.translate(Vpn::new(9)), r.translate(Vpn::new(9)));
    }

    #[test]
    fn restrict_outside_run_is_none() {
        assert!(run(6, 106, 2).restrict_to_group(Vpn::new(20), 2).is_none());
    }

    #[test]
    fn split_at_produces_correct_remnants() {
        let r = run(8, 100, 6); // 8..14 → 100..106
        let (l, rt) = r.split_at(Vpn::new(10)).unwrap();
        assert_eq!(l, Some(run(8, 100, 2)));
        assert_eq!(rt, Some(run(11, 103, 3)));
        // Remnants still translate exactly like the original.
        assert_eq!(l.unwrap().translate(Vpn::new(9)), r.translate(Vpn::new(9)));
        assert_eq!(rt.unwrap().translate(Vpn::new(13)), r.translate(Vpn::new(13)));
    }

    #[test]
    fn split_at_edges_drops_empty_sides() {
        let r = run(8, 100, 3);
        let (l, rt) = r.split_at(Vpn::new(8)).unwrap();
        assert_eq!(l, None);
        assert_eq!(rt, Some(run(9, 101, 2)));
        let (l, rt) = r.split_at(Vpn::new(10)).unwrap();
        assert_eq!(l, Some(run(8, 100, 2)));
        assert_eq!(rt, None);
        let single = run(5, 50, 1);
        assert_eq!(single.split_at(Vpn::new(5)).unwrap(), (None, None));
    }

    #[test]
    fn split_at_outside_is_none() {
        assert!(run(8, 100, 3).split_at(Vpn::new(20)).is_none());
    }

    #[test]
    fn union_of_adjacent_consistent_runs() {
        let a = run(8, 100, 4);
        let b = run(12, 104, 4);
        let u = a.try_union(&b).unwrap();
        assert_eq!(u, run(8, 100, 8));
        // Symmetric.
        assert_eq!(b.try_union(&a).unwrap(), run(8, 100, 8));
    }

    #[test]
    fn union_of_overlapping_runs() {
        let a = run(8, 100, 4);
        let b = run(10, 102, 6);
        assert_eq!(a.try_union(&b).unwrap(), run(8, 100, 8));
    }

    #[test]
    fn union_rejects_gap_inconsistent_anchor_and_flags() {
        let a = run(8, 100, 2);
        assert!(a.try_union(&run(11, 103, 2)).is_none(), "gap at vpn 10");
        assert!(a.try_union(&run(10, 200, 2)).is_none(), "anchor mismatch");
        let mut c = run(10, 102, 2);
        c.flags = PteFlags::user_data().with(PteFlags::DIRTY);
        assert!(a.try_union(&c).is_none(), "flag mismatch");
    }

    #[test]
    fn union_respects_max_range_len() {
        let a = run(0, 0, MAX_RANGE_LEN);
        let b = run(MAX_RANGE_LEN, MAX_RANGE_LEN, 1);
        assert!(a.try_union(&b).is_none());
    }

    #[test]
    fn sa_entry_valid_bits_match_slots() {
        // Run covering slots 1..3 of a 4-slot group (vpns 9,10 of group 8..12).
        let e = TlbEntry::coalesced(run(9, 109, 2));
        assert_eq!(e.valid_bits(2), 0b0110);
        assert_eq!(e.run().group(2), 2);
        assert_eq!(e.lookup(Vpn::new(10)), Some(Pfn::new(110)));
        assert_eq!(e.lookup(Vpn::new(8)), None);
        assert_eq!(e.run().len, 2);
    }

    #[test]
    fn sa_entry_full_group() {
        let e = TlbEntry::coalesced(run(8, 200, 4));
        assert_eq!(e.valid_bits(2), 0b1111);
        for i in 0..4 {
            assert_eq!(e.lookup(Vpn::new(8 + i)), Some(Pfn::new(200 + i)));
        }
    }

    #[test]
    fn range_entry_superpage_requires_alignment() {
        let e = TlbEntry::superpage(Vpn::new(512), Pfn::new(1024), flags());
        assert_eq!(e.kind(), RangeKind::Superpage);
        assert_eq!(e.lookup(Vpn::new(512 + 100)), Some(Pfn::new(1124)));
        assert_eq!(e.run().len, 512);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_superpage_entry_panics() {
        let _ = TlbEntry::superpage(Vpn::new(5), Pfn::new(1024), flags());
    }

    #[test]
    fn superpage_entries_never_merge() {
        let sp = TlbEntry::superpage(Vpn::new(512), Pfn::new(1024), flags());
        let adjacent = CoalescedRun::new(Vpn::new(1024), Pfn::new(1536), 4, flags());
        assert!(sp.try_merge(&TlbEntry::coalesced(adjacent)).is_none());
    }

    #[test]
    fn coalesced_entries_merge_with_adjacent_runs() {
        let e = TlbEntry::coalesced(run(16, 300, 8));
        let merged = e.try_merge(&TlbEntry::coalesced(run(24, 308, 8))).unwrap();
        assert_eq!(merged.run(), run(16, 300, 16));
        assert_eq!(merged.kind(), RangeKind::Coalesced);
        let other_tag = TlbEntry::coalesced_tagged(run(24, 308, 8), Asid(1));
        assert!(e.try_merge(&other_tag).is_none(), "entries of two tags never merge");
    }
}
