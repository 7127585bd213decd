//! Virtual memory areas and per-process address-space layout.
//!
//! The address space hands out virtual ranges with a bump allocator.
//! Anonymous regions of at least 2MB are aligned to 2MB boundaries when
//! requested, mirroring the alignment Linux gives THP-eligible regions
//! (a superpage must be naturally aligned in both virtual and physical
//! memory, paper §2.2).

use crate::addr::{Vpn, SUPERPAGE_PAGES};
use crate::error::{MemError, MemResult};
use crate::page_table::PteFlags;
use crate::snapshot::{bad_tag, cold_err, Dec, Enc, SnapResult, Snapshot};
use std::collections::BTreeMap;

/// What backs a virtual memory area.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmaKind {
    /// Anonymous memory (malloc/heap); THS-eligible (paper §6.1).
    Anonymous,
    /// File-backed memory; never a THS superpage candidate (paper §6.1).
    FileBacked,
}

/// One contiguous virtual memory area.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Vma {
    /// First virtual page.
    pub start: Vpn,
    /// Length in pages.
    pub pages: u64,
    /// Backing kind.
    pub kind: VmaKind,
    /// Page attribute bits applied to every mapping in the area.
    pub flags: PteFlags,
}

impl Vma {
    /// One-past-the-end virtual page.
    pub fn end(&self) -> Vpn {
        self.start.offset(self.pages)
    }

    /// True when `vpn` falls inside the area.
    pub fn contains(&self, vpn: Vpn) -> bool {
        vpn >= self.start && vpn < self.end()
    }
}

/// First virtual page handed out to user mappings (skip the null region).
const USER_BASE_VPN: u64 = 0x1000;

/// The per-process virtual address-space layout.
///
/// ```
/// use colt_os_mem::vma::{AddressSpace, VmaKind};
/// use colt_os_mem::page_table::PteFlags;
/// let mut space = AddressSpace::new(1 << 27);
/// let vma = space.reserve(100, VmaKind::Anonymous, PteFlags::user_data())?;
/// assert_eq!(vma.pages, 100);
/// assert!(space.find(vma.start).is_some());
/// # Ok::<(), colt_os_mem::error::MemError>(())
/// ```
#[derive(Clone, Debug)]
pub struct AddressSpace {
    vmas: BTreeMap<u64, Vma>,
    next_vpn: u64,
    limit_vpn: u64,
}

impl AddressSpace {
    /// Creates an address space able to hold `limit_pages` mapped pages
    /// of layout (the virtual span, not a physical budget).
    pub fn new(limit_pages: u64) -> Self {
        Self {
            vmas: BTreeMap::new(),
            next_vpn: USER_BASE_VPN,
            limit_vpn: USER_BASE_VPN + limit_pages,
        }
    }

    /// Reserves a fresh area of `pages` virtual pages.
    ///
    /// Anonymous areas of at least one superpage are aligned to 512 pages
    /// so THS has a chance to back them with aligned 2MB frames.
    ///
    /// # Errors
    /// [`MemError::ZeroSizedRequest`] for empty requests and
    /// [`MemError::OutOfVirtualSpace`] when the layout region is full.
    pub fn reserve(&mut self, pages: u64, kind: VmaKind, flags: PteFlags) -> MemResult<Vma> {
        self.reserve_hinted(pages, kind, flags, kind == VmaKind::Anonymous)
    }

    /// [`AddressSpace::reserve`] with an explicit alignment hint: the
    /// memory-management policy decides whether a large area gets a
    /// superpage-aligned start (a THP-hostile policy withholds it, so the
    /// region can never be backed — or collapsed — hugely).
    ///
    /// # Errors
    /// As [`AddressSpace::reserve`].
    pub fn reserve_hinted(
        &mut self,
        pages: u64,
        kind: VmaKind,
        flags: PteFlags,
        huge_align: bool,
    ) -> MemResult<Vma> {
        if pages == 0 {
            return Err(MemError::ZeroSizedRequest);
        }
        let mut start = self.next_vpn;
        if huge_align && pages >= SUPERPAGE_PAGES {
            start = (start + SUPERPAGE_PAGES - 1) & !(SUPERPAGE_PAGES - 1);
        }
        let end = start
            .checked_add(pages)
            .ok_or(MemError::OutOfVirtualSpace { requested_pages: pages })?;
        if end > self.limit_vpn {
            return Err(MemError::OutOfVirtualSpace { requested_pages: pages });
        }
        let vma = Vma { start: Vpn::new(start), pages, kind, flags };
        self.vmas.insert(start, vma);
        // Leave a one-page guard gap between areas: distinct mappings are
        // not virtually adjacent in practice, so contiguity runs cannot
        // span separate allocations.
        self.next_vpn = end + 1;
        Ok(vma)
    }

    /// Removes the area starting exactly at `start`.
    ///
    /// # Errors
    /// [`MemError::NotAllocationStart`] when no area starts there.
    pub fn remove(&mut self, start: Vpn) -> MemResult<Vma> {
        self.vmas
            .remove(&start.raw())
            .ok_or(MemError::NotAllocationStart { vpn: start })
    }

    /// The area containing `vpn`, if any.
    pub fn find(&self, vpn: Vpn) -> Option<&Vma> {
        self.vmas
            .range(..=vpn.raw())
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(vpn))
    }

    /// Iterates areas in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Number of areas.
    pub fn len(&self) -> usize {
        self.vmas.len()
    }

    /// True when no areas exist.
    pub fn is_empty(&self) -> bool {
        self.vmas.is_empty()
    }

    /// Total mapped layout size in pages.
    pub fn total_pages(&self) -> u64 {
        self.vmas.values().map(|v| v.pages).sum()
    }
}

impl Snapshot for VmaKind {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            VmaKind::Anonymous => 0,
            VmaKind::FileBacked => 1,
        });
    }

    #[inline]
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        match dec.u8()? {
            0 => Ok(VmaKind::Anonymous),
            1 => Ok(VmaKind::FileBacked),
            b => Err(bad_tag("VmaKind", b)),
        }
    }
}

impl Snapshot for Vma {
    fn encode(&self, enc: &mut Enc) {
        self.start.encode(enc);
        enc.u64(self.pages);
        self.kind.encode(enc);
        self.flags.encode(enc);
    }

    #[inline]
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok(Self {
            start: Vpn::decode(dec)?,
            pages: dec.u64()?,
            kind: VmaKind::decode(dec)?,
            flags: PteFlags::decode(dec)?,
        })
    }
}

/// Encoded bytes of one VMA map entry: the key, then the area's start,
/// pages, kind and flags.
const VMA_ENTRY_BYTES: usize = 8 + 8 + 8 + 1 + 2;

impl Snapshot for AddressSpace {
    fn encode(&self, enc: &mut Enc) {
        self.vmas.encode(enc);
        enc.u64(self.next_vpn);
        enc.u64(self.limit_vpn);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        // One insert per area, so the decoder allocates nothing but the
        // map. Entries are fixed-size and stored in ascending order;
        // inserting them from the last one back puts each below the
        // map's smallest key, where a `BTreeMap` search stops at the
        // first key of every node instead of scanning the whole right
        // spine (half the time of ascending inserts).
        let n = dec.len("VMA map")?;
        let entries = dec.records(n, VMA_ENTRY_BYTES, "VMA map")?;
        let mut vmas = BTreeMap::new();
        let mut next = None;
        for entry in entries.rchunks_exact(VMA_ENTRY_BYTES) {
            let mut d = Dec::new(entry);
            let start = d.u64()?;
            let vma = Vma::decode(&mut d)?;
            if vma.start.raw() != start || next.is_some_and(|later| start >= later) {
                return Err(cold_err(format_args!(
                    "VMA map key {start:#x} out of order or not its area's start"
                )));
            }
            next = Some(start);
            vmas.insert(start, vma);
        }
        Ok(Self { vmas, next_vpn: dec.u64()?, limit_vpn: dec.u64()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(1 << 24)
    }

    #[test]
    fn snapshot_round_trips_and_rejects_unordered_areas() {
        let encode = |s: &AddressSpace| {
            let mut enc = Enc::new();
            s.encode(&mut enc);
            enc.finish()
        };
        let mut s = space();
        for pages in [1u64, 600, 3, 2048, 17] {
            s.reserve(pages, VmaKind::Anonymous, PteFlags::user_data()).unwrap();
        }
        let third = s.iter().nth(2).unwrap().start;
        s.remove(third).unwrap();
        s.reserve(5, VmaKind::FileBacked, PteFlags::user_data()).unwrap();
        let bytes = encode(&s);
        let mut dec = Dec::new(&bytes);
        let back = AddressSpace::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        assert!(back.iter().eq(s.iter()));
        assert_eq!(encode(&back), bytes);

        // The first two entries, after the length prefix, swapped.
        let mut swapped = bytes.clone();
        swapped[8..8 + 2 * VMA_ENTRY_BYTES].rotate_left(VMA_ENTRY_BYTES);
        assert!(AddressSpace::decode(&mut Dec::new(&swapped)).is_err());
        // A key that is not its area's start.
        let mut rekeyed = bytes;
        rekeyed[8] ^= 1;
        assert!(AddressSpace::decode(&mut Dec::new(&rekeyed)).is_err());
    }

    #[test]
    fn reserve_bumps_and_finds() {
        let mut s = space();
        let a = s.reserve(10, VmaKind::Anonymous, PteFlags::user_data()).unwrap();
        let b = s.reserve(5, VmaKind::FileBacked, PteFlags::user_data()).unwrap();
        assert_eq!(b.start, a.end().next(), "one-page guard gap between areas");
        assert_eq!(s.find(a.start.offset(9)).unwrap().start, a.start);
        assert_eq!(s.find(b.start).unwrap().kind, VmaKind::FileBacked);
        assert_eq!(s.total_pages(), 15);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn large_anonymous_areas_are_superpage_aligned() {
        let mut s = space();
        s.reserve(3, VmaKind::Anonymous, PteFlags::user_data()).unwrap();
        let big = s.reserve(1024, VmaKind::Anonymous, PteFlags::user_data()).unwrap();
        assert!(big.start.is_aligned(9), "THS-eligible area must be 2MB aligned");
    }

    #[test]
    fn large_file_backed_areas_are_not_aligned() {
        let mut s = space();
        s.reserve(3, VmaKind::FileBacked, PteFlags::user_data()).unwrap();
        let big = s.reserve(1024, VmaKind::FileBacked, PteFlags::user_data()).unwrap();
        assert!(!big.start.is_aligned(9));
    }

    #[test]
    fn zero_request_is_rejected() {
        let mut s = space();
        assert_eq!(
            s.reserve(0, VmaKind::Anonymous, PteFlags::empty()),
            Err(MemError::ZeroSizedRequest)
        );
    }

    #[test]
    fn exhausting_virtual_space_errors() {
        let mut s = AddressSpace::new(100);
        s.reserve(60, VmaKind::FileBacked, PteFlags::empty()).unwrap();
        let err = s.reserve(60, VmaKind::FileBacked, PteFlags::empty()).unwrap_err();
        assert!(matches!(err, MemError::OutOfVirtualSpace { requested_pages: 60 }));
    }

    #[test]
    fn remove_requires_exact_start() {
        let mut s = space();
        let a = s.reserve(10, VmaKind::Anonymous, PteFlags::empty()).unwrap();
        assert!(s.remove(a.start.offset(1)).is_err());
        assert_eq!(s.remove(a.start).unwrap(), a);
        assert!(s.find(a.start).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn find_outside_any_area_is_none() {
        let mut s = space();
        let a = s.reserve(4, VmaKind::Anonymous, PteFlags::empty()).unwrap();
        assert!(s.find(a.end()).is_none());
        assert!(s.find(Vpn::new(0)).is_none());
    }
}
