//! Physical page-frame database with reverse mapping.
//!
//! Tracks, for every physical frame, whether it is free, a movable
//! user page (with its owner and virtual page — the reverse map the
//! compaction daemon needs to fix page tables after migration), part of
//! a mapped 2MB superpage, or pinned (kernel/unmovable; paper Figure 3:
//! "while most user-level pages are movable, pinned and kernel pages
//! usually are not").

use crate::addr::{Asid, Pfn, Vpn};
use crate::snapshot::{bad_tag, Dec, Enc, SnapResult, Snapshot};

/// The state of one physical page frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FrameState {
    /// The frame is on the buddy allocator's free lists.
    #[default]
    Free,
    /// A movable user page; `owner`/`vpn` form the reverse map entry.
    Movable {
        /// Owning address space.
        owner: Asid,
        /// Virtual page mapping this frame.
        vpn: Vpn,
    },
    /// Part of a mapped 2MB superpage; `base_vpn` is the first virtual
    /// page of the superpage. The compaction daemon does not migrate
    /// these (they are relocated only by splitting first).
    Huge {
        /// Owning address space.
        owner: Asid,
        /// First virtual page of the enclosing superpage.
        base_vpn: Vpn,
    },
    /// Pinned or kernel memory the compaction daemon must skip.
    Pinned,
}

impl FrameState {
    /// True for [`FrameState::Movable`].
    pub fn is_movable(&self) -> bool {
        matches!(self, FrameState::Movable { .. })
    }

    /// True for [`FrameState::Free`].
    pub fn is_free(&self) -> bool {
        matches!(self, FrameState::Free)
    }
}

/// Aggregate frame-state counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FrameCounts {
    /// Frames on the free lists.
    pub free: u64,
    /// Movable user frames.
    pub movable: u64,
    /// Frames inside mapped superpages.
    pub huge: u64,
    /// Pinned frames.
    pub pinned: u64,
}

/// The frame database over frames `0..nr_frames`.
///
/// ```
/// use colt_os_mem::frames::{FrameDb, FrameState};
/// use colt_os_mem::addr::{Asid, Pfn, Vpn};
/// let mut db = FrameDb::new(64);
/// db.set(Pfn::new(3), FrameState::Movable { owner: Asid(1), vpn: Vpn::new(100) });
/// assert!(db.state(Pfn::new(3)).is_movable());
/// assert_eq!(db.counts().movable, 1);
/// ```
#[derive(Clone, Debug)]
pub struct FrameDb {
    states: Vec<FrameState>,
    /// Non-free frames per 512-frame pageblock (kept in sync by
    /// [`FrameDb::set`]) — O(1) density checks for the compaction
    /// daemon's pageblock heuristic.
    block_occupancy: Vec<u32>,
}

/// Pageblock granularity of the occupancy cache.
const BLOCK_PAGES: u64 = 512;

impl FrameDb {
    /// Creates a database with all frames free.
    pub fn new(nr_frames: u64) -> Self {
        Self {
            states: vec![FrameState::Free; nr_frames as usize],
            block_occupancy: vec![0; nr_frames.div_ceil(BLOCK_PAGES) as usize],
        }
    }

    /// Number of frames tracked.
    pub fn nr_frames(&self) -> u64 {
        self.states.len() as u64
    }

    /// The state of `pfn`.
    ///
    /// # Panics
    /// Panics if `pfn` is out of range.
    pub fn state(&self, pfn: Pfn) -> FrameState {
        self.states[pfn.raw() as usize]
    }

    /// Sets the state of `pfn`.
    ///
    /// # Panics
    /// Panics if `pfn` is out of range.
    pub fn set(&mut self, pfn: Pfn, state: FrameState) {
        let old = &mut self.states[pfn.raw() as usize];
        let block = (pfn.raw() / BLOCK_PAGES) as usize;
        match (old.is_free(), state.is_free()) {
            (true, false) => self.block_occupancy[block] += 1,
            (false, true) => self.block_occupancy[block] -= 1,
            _ => {}
        }
        *old = state;
    }

    /// Fraction of the 512-frame pageblock containing `pfn` that is
    /// occupied (non-free). O(1) via the occupancy cache.
    pub fn pageblock_density(&self, pfn: Pfn) -> f64 {
        let block = (pfn.raw() / BLOCK_PAGES) as usize;
        let span = BLOCK_PAGES.min(self.nr_frames() - pfn.raw() / BLOCK_PAGES * BLOCK_PAGES);
        f64::from(self.block_occupancy[block]) / span as f64
    }

    /// Marks a whole contiguous run starting at `start`.
    pub fn set_range(&mut self, start: Pfn, pages: u64, mut state_for: impl FnMut(u64) -> FrameState) {
        for i in 0..pages {
            self.set(start.offset(i), state_for(i));
        }
    }

    /// Reverse-map lookup: the `(owner, vpn)` mapping a movable frame.
    pub fn rmap(&self, pfn: Pfn) -> Option<(Asid, Vpn)> {
        match self.state(pfn) {
            FrameState::Movable { owner, vpn } => Some((owner, vpn)),
            _ => None,
        }
    }

    /// Lowest movable frame at or above `from` (the compaction daemon's
    /// migrate scanner walks up from the bottom of memory).
    pub fn first_movable_at_or_above(&self, from: Pfn) -> Option<Pfn> {
        self.states[from.raw() as usize..]
            .iter()
            .position(FrameState::is_movable)
            .map(|off| from.offset(off as u64))
    }

    /// Aggregate counts over all frames.
    pub fn counts(&self) -> FrameCounts {
        let mut c = FrameCounts::default();
        for s in &self.states {
            match s {
                FrameState::Free => c.free += 1,
                FrameState::Movable { .. } => c.movable += 1,
                FrameState::Huge { .. } => c.huge += 1,
                FrameState::Pinned => c.pinned += 1,
            }
        }
        c
    }

    /// Iterates `(pfn, state)` over all frames.
    pub fn iter(&self) -> impl Iterator<Item = (Pfn, FrameState)> + '_ {
        self.states
            .iter()
            .enumerate()
            .map(|(i, &s)| (Pfn::new(i as u64), s))
    }
}

impl Snapshot for FrameState {
    fn encode(&self, enc: &mut Enc) {
        match self {
            FrameState::Free => enc.u8(0),
            FrameState::Movable { owner, vpn } => {
                enc.u8(1);
                owner.encode(enc);
                vpn.encode(enc);
            }
            FrameState::Huge { owner, base_vpn } => {
                enc.u8(2);
                owner.encode(enc);
                base_vpn.encode(enc);
            }
            FrameState::Pinned => enc.u8(3),
        }
    }

    #[inline]
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        match dec.u8()? {
            0 => Ok(FrameState::Free),
            1 => Ok(FrameState::Movable { owner: Asid::decode(dec)?, vpn: Vpn::decode(dec)? }),
            2 => Ok(FrameState::Huge { owner: Asid::decode(dec)?, base_vpn: Vpn::decode(dec)? }),
            3 => Ok(FrameState::Pinned),
            b => Err(bad_tag("FrameState", b)),
        }
    }
}

impl Snapshot for FrameDb {
    fn encode(&self, enc: &mut Enc) {
        self.states.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        // The occupancy cache is derived state; rebuild it in the same
        // pass instead of trusting (and having to cross-check) a stored
        // copy.
        let n = dec.len("FrameDb states")?;
        let mut states = Vec::with_capacity(n);
        let mut block_occupancy = vec![0u32; n.div_ceil(BLOCK_PAGES as usize)];
        for i in 0..n {
            let s = FrameState::decode(dec)?;
            if !s.is_free() {
                block_occupancy[i / BLOCK_PAGES as usize] += 1;
            }
            states.push(s);
        }
        Ok(Self { states, block_occupancy })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_db_is_all_free() {
        let db = FrameDb::new(16);
        assert_eq!(db.counts(), FrameCounts { free: 16, ..Default::default() });
        assert!(db.state(Pfn::new(0)).is_free());
    }

    #[test]
    fn rmap_returns_owner_and_vpn_for_movable_only() {
        let mut db = FrameDb::new(8);
        db.set(Pfn::new(2), FrameState::Movable { owner: Asid(7), vpn: Vpn::new(99) });
        db.set(Pfn::new(3), FrameState::Pinned);
        db.set(
            Pfn::new(4),
            FrameState::Huge { owner: Asid(7), base_vpn: Vpn::new(512) },
        );
        assert_eq!(db.rmap(Pfn::new(2)), Some((Asid(7), Vpn::new(99))));
        assert_eq!(db.rmap(Pfn::new(3)), None);
        assert_eq!(db.rmap(Pfn::new(4)), None);
    }

    #[test]
    fn first_movable_scans_upward() {
        let mut db = FrameDb::new(32);
        db.set(Pfn::new(5), FrameState::Movable { owner: Asid(1), vpn: Vpn::new(0) });
        db.set(Pfn::new(20), FrameState::Movable { owner: Asid(1), vpn: Vpn::new(1) });
        assert_eq!(db.first_movable_at_or_above(Pfn::new(0)), Some(Pfn::new(5)));
        assert_eq!(db.first_movable_at_or_above(Pfn::new(5)), Some(Pfn::new(5)));
        assert_eq!(db.first_movable_at_or_above(Pfn::new(6)), Some(Pfn::new(20)));
        assert_eq!(db.first_movable_at_or_above(Pfn::new(21)), None);
    }

    #[test]
    fn set_range_applies_closure_per_offset() {
        let mut db = FrameDb::new(16);
        db.set_range(Pfn::new(4), 3, |i| FrameState::Movable {
            owner: Asid(2),
            vpn: Vpn::new(100 + i),
        });
        assert_eq!(db.rmap(Pfn::new(5)), Some((Asid(2), Vpn::new(101))));
        assert_eq!(db.counts().movable, 3);
    }

    #[test]
    fn iter_covers_all_frames_in_order() {
        let db = FrameDb::new(4);
        let pfns: Vec<_> = db.iter().map(|(p, _)| p.raw()).collect();
        assert_eq!(pfns, vec![0, 1, 2, 3]);
    }
}
