//! Linux-style buddy allocator (paper §3.2.1, Figures 1 and 2).
//!
//! All free physical page frames are grouped into `MAX_ORDER + 1` free
//! lists; entry `x` tracks naturally aligned blocks of `2^x` contiguous
//! frames. Allocation searches the smallest sufficient order upward,
//! iteratively halving the found block; freeing iteratively merges buddy
//! pairs. By construction, a request for N pages receives N *contiguous*
//! frames — the intermediate contiguity CoLT exploits.

use crate::addr::Pfn;
use crate::snapshot::{cold_err, Dec, Enc, SnapResult, Snapshot};

/// Highest buddy order (blocks of `2^MAX_ORDER` = 1024 pages = 4MB),
/// matching Linux's eleven free lists (orders 0..=10).
pub const MAX_ORDER: u32 = 10;

/// A contiguous range of physical page frames returned by an allocation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PfnRange {
    /// First frame of the range.
    pub start: Pfn,
    /// Number of frames in the range.
    pub pages: u64,
}

impl PfnRange {
    /// Creates a range covering `pages` frames starting at `start`.
    pub fn new(start: Pfn, pages: u64) -> Self {
        Self { start, pages }
    }

    /// One-past-the-end frame number.
    pub fn end(&self) -> Pfn {
        self.start.offset(self.pages)
    }

    /// Iterates over the frames in the range.
    pub fn iter(&self) -> impl Iterator<Item = Pfn> + '_ {
        (self.start.raw()..self.end().raw()).map(Pfn::new)
    }

    /// True when `pfn` lies inside the range.
    pub fn contains(&self, pfn: Pfn) -> bool {
        pfn >= self.start && pfn < self.end()
    }
}

/// Per-order occupancy snapshot of the free lists.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FreeListHistogram {
    /// `counts[order]` = number of free blocks of that order.
    pub counts: Vec<usize>,
}

impl FreeListHistogram {
    /// Total number of free frames implied by the histogram.
    pub fn free_frames(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .map(|(order, &n)| (n as u64) << order)
            .sum()
    }
}

/// The buddy allocator over a flat physical frame space `0..nr_frames`.
///
/// ```
/// use colt_os_mem::buddy::BuddyAllocator;
/// let mut buddy = BuddyAllocator::new(1024);
/// let range = buddy.alloc_pages(3).expect("memory available");
/// assert_eq!(range.pages, 3);
/// buddy.free_pages(range);
/// assert_eq!(buddy.free_frames(), 1024);
/// ```
#[derive(Clone, Debug)]
pub struct BuddyAllocator {
    nr_frames: u64,
    /// `free_lists[order]` holds the start PFNs of free aligned blocks.
    free_lists: Vec<FreeSet>,
    free_frames: u64,
}

impl BuddyAllocator {
    /// Creates an allocator with `nr_frames` initially free frames.
    ///
    /// # Panics
    /// Panics if `nr_frames` is zero.
    pub fn new(nr_frames: u64) -> Self {
        assert!(nr_frames > 0, "physical memory must be non-empty");
        let mut buddy = Self {
            nr_frames,
            free_lists: (0..=MAX_ORDER).map(|order| FreeSet::new(order, nr_frames)).collect(),
            free_frames: 0,
        };
        buddy.free_range_raw(0, nr_frames);
        buddy
    }

    /// Total number of frames managed (free + allocated).
    pub fn nr_frames(&self) -> u64 {
        self.nr_frames
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Per-order counts of free blocks.
    pub fn histogram(&self) -> FreeListHistogram {
        FreeListHistogram {
            counts: self.free_lists.iter().map(FreeSet::len).collect(),
        }
    }

    /// The largest order with at least one free block, if any memory is free.
    pub fn largest_free_order(&self) -> Option<u32> {
        (0..=MAX_ORDER).rev().find(|&o| !self.free_lists[o as usize].is_empty())
    }

    /// An unusability/fragmentation score in `[0, 1]`: 0 when the largest
    /// free block is as big as the buddy system can represent (or covers
    /// all free memory), approaching 1 as free memory shatters into single
    /// frames. Defined as `1 - largest_free_block / min(free, 2^MAX_ORDER)`.
    pub fn fragmentation_index(&self) -> f64 {
        if self.free_frames == 0 {
            return 1.0;
        }
        let largest = self.largest_free_order().map(|o| 1u64 << o).unwrap_or(0);
        let representable = self.free_frames.min(1u64 << MAX_ORDER);
        1.0 - (largest.min(representable)) as f64 / representable as f64
    }

    /// Fraction of free memory sitting in blocks smaller than
    /// `2^order` — the scatter metric background compaction watches:
    /// lots of small free blocks means demand faults will be served from
    /// scattered singles rather than contiguous space.
    pub fn small_free_fraction(&self, order: u32) -> f64 {
        if self.free_frames == 0 {
            return 0.0;
        }
        let small: u64 = self.free_lists[..(order.min(MAX_ORDER + 1)) as usize]
            .iter()
            .enumerate()
            .map(|(o, l)| (l.len() as u64) << o)
            .sum();
        small as f64 / self.free_frames as f64
    }

    /// Allocates one naturally aligned block of `2^order` frames, searching
    /// the free lists upward and splitting larger blocks as needed
    /// (paper Figure 2). Returns the block's first frame.
    pub fn alloc_block(&mut self, order: u32) -> Option<Pfn> {
        if order > MAX_ORDER {
            return None;
        }
        let found = (order..=MAX_ORDER).find(|&o| !self.free_lists[o as usize].is_empty())?;
        let start = self.free_lists[found as usize].first().expect("non-empty list");
        self.free_lists[found as usize].remove(start);
        // Iteratively halve: keep the lower half, return the upper half to
        // its free list, until the block is the requested size.
        let mut cur = found;
        while cur > order {
            cur -= 1;
            let upper = start + (1u64 << cur);
            self.free_lists[cur as usize].insert(upper);
        }
        self.free_frames -= 1u64 << order;
        Some(Pfn::new(start))
    }

    /// Allocates exactly `pages` contiguous frames (not necessarily
    /// aligned): rounds the request up to the covering order, then frees
    /// the unused tail back so it can merge with its buddies. This mirrors
    /// how a multi-page request reaching the buddy allocator yields a
    /// contiguous run (paper §3.2.1).
    ///
    /// Returns `None` when `pages` is zero, exceeds `2^MAX_ORDER`, or no
    /// sufficiently large block exists.
    pub fn alloc_pages(&mut self, pages: u64) -> Option<PfnRange> {
        if pages == 0 || pages > (1u64 << MAX_ORDER) {
            return None;
        }
        let order = covering_order(pages);
        let start = self.alloc_block(order)?;
        let tail = (1u64 << order) - pages;
        if tail > 0 {
            self.free_range_raw(start.raw() + pages, tail);
        }
        Some(PfnRange::new(start, pages))
    }

    /// Frees one aligned block of `2^order` frames starting at `start`,
    /// iteratively merging with its buddy while the buddy is also free
    /// (paper §3.2.1: "merge process is iterative, leading to large
    /// amounts of contiguity").
    ///
    /// # Panics
    /// Panics if the block is misaligned, out of range, or any part of it
    /// is already free (double free).
    pub fn free_block(&mut self, start: Pfn, order: u32) {
        let mut start = start.raw();
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        assert_eq!(start & ((1u64 << order) - 1), 0, "misaligned free at {start:#x}");
        assert!(
            start + (1u64 << order) <= self.nr_frames,
            "free beyond end of memory"
        );
        debug_assert!(
            self.containing_free_block(start).is_none(),
            "double free of frame in block at {start:#x}"
        );
        let freed_pages = 1u64 << order;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = start ^ (1u64 << order);
            if buddy + (1u64 << order) > self.nr_frames {
                break;
            }
            if !self.free_lists[order as usize].remove(buddy) {
                break;
            }
            start = start.min(buddy);
            order += 1;
        }
        self.free_lists[order as usize].insert(start);
        self.free_frames += freed_pages;
    }

    /// Frees an arbitrary (possibly unaligned) contiguous range, breaking
    /// it into maximal aligned blocks so buddy merging applies.
    pub fn free_pages(&mut self, range: PfnRange) {
        self.free_range_raw(range.start.raw(), range.pages);
    }

    fn free_range_raw(&mut self, mut start: u64, mut pages: u64) {
        while pages > 0 {
            let align_order = if start == 0 { MAX_ORDER } else { start.trailing_zeros() };
            let size_order = 63 - pages.leading_zeros();
            let order = align_order.min(size_order).min(MAX_ORDER);
            self.free_block(Pfn::new(start), order);
            start += 1u64 << order;
            pages -= 1u64 << order;
        }
    }

    /// True when the single frame `pfn` is currently free.
    pub fn is_free(&self, pfn: Pfn) -> bool {
        self.frame_is_free(pfn.raw())
    }

    fn frame_is_free(&self, pfn: u64) -> bool {
        self.containing_free_block(pfn).is_some()
    }

    /// Finds the free block `(start, order)` containing `pfn`, if any.
    fn containing_free_block(&self, pfn: u64) -> Option<(u64, u32)> {
        for order in 0..=MAX_ORDER {
            let aligned = pfn & !((1u64 << order) - 1);
            if self.free_lists[order as usize].contains(aligned) {
                return Some((aligned, order));
            }
        }
        None
    }

    /// Removes one specific free frame from the free lists (used by the
    /// compaction daemon's free-page scanner to claim a migration target).
    /// The rest of the containing block is returned to the free lists.
    ///
    /// Returns `false` when the frame is not free.
    pub fn take_free_page(&mut self, pfn: Pfn) -> bool {
        let Some((start, order)) = self.containing_free_block(pfn.raw()) else {
            return false;
        };
        self.free_lists[order as usize].remove(start);
        self.free_frames -= 1u64 << order;
        let before = pfn.raw() - start;
        let after = start + (1u64 << order) - pfn.raw() - 1;
        if before > 0 {
            self.free_range_raw(start, before);
        }
        if after > 0 {
            self.free_range_raw(pfn.raw() + 1, after);
        }
        true
    }

    /// Highest-numbered free frame, if any (compaction's free scanner
    /// starts at the top of physical memory, paper Figure 3).
    pub fn highest_free_page(&self) -> Option<Pfn> {
        (0..=MAX_ORDER)
            .filter_map(|o| {
                self.free_lists[o as usize]
                    .last_below(u64::MAX)
                    .map(|s| s + (1u64 << o) - 1)
            })
            .max()
            .map(Pfn::new)
    }

    /// Highest-numbered free frame strictly below `limit`, if any.
    pub fn highest_free_page_below(&self, limit: Pfn) -> Option<Pfn> {
        let limit = limit.raw();
        (0..=MAX_ORDER)
            .filter_map(|o| {
                let size = 1u64 << o;
                // The candidate block must start below `limit`.
                self.free_lists[o as usize]
                    .last_below(limit)
                    .map(|s| (s + size - 1).min(limit - 1))
            })
            .max()
            .map(Pfn::new)
    }

    /// Exhaustively checks internal invariants; used by tests.
    pub fn check_invariants(&self) {
        let mut seen = vec![false; self.nr_frames as usize];
        let mut counted = 0u64;
        for order in 0..=MAX_ORDER {
            self.free_lists[order as usize].check();
            for start in self.free_lists[order as usize].iter() {
                let size = 1u64 << order;
                assert_eq!(start % size, 0, "block {start:#x} misaligned for order {order}");
                assert!(start + size <= self.nr_frames, "block beyond memory end");
                for p in start..start + size {
                    assert!(!seen[p as usize], "frame {p:#x} in two free blocks");
                    seen[p as usize] = true;
                }
                counted += size;
            }
        }
        assert_eq!(counted, self.free_frames, "free frame count drifted");
    }
}

/// The most frames a decoded allocator may claim (4 TiB of 4 KiB frames,
/// far beyond any simulated machine).
const MAX_DECODED_FRAMES: u64 = 1 << 30;

/// The free blocks of one order, as a bitmap over block starts.
///
/// Bit `i` of `words` is set while the block starting at frame
/// `i << order` is free. Bit `j` of `summary` is set while `words[j]` is
/// non-zero, so one summary word covers 64 bitmap words (4096 blocks).
/// `contains`, `insert` and `remove` are single bit operations; `first`
/// and `last_below` scan summary words and then read one bitmap word.
#[derive(Clone, Debug)]
struct FreeSet {
    order: u32,
    words: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
}

impl FreeSet {
    /// An empty set over the order-`order` blocks that fit in `nr_frames`.
    fn new(order: u32, nr_frames: u64) -> Self {
        let words = (nr_frames >> order).div_ceil(64) as usize;
        Self { order, words: vec![0; words], summary: vec![0; words.div_ceil(64)], len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first frame of block `i`.
    fn start(&self, i: usize) -> u64 {
        (i as u64) << self.order
    }

    fn contains(&self, start: u64) -> bool {
        let i = start >> self.order;
        self.words.get((i / 64) as usize).is_some_and(|w| w >> (i % 64) & 1 != 0)
    }

    /// Adds the block at `start`; false when it was already present.
    fn insert(&mut self, start: u64) -> bool {
        debug_assert_eq!(start & ((1u64 << self.order) - 1), 0, "misaligned block {start:#x}");
        let i = (start >> self.order) as usize;
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if *word & bit != 0 {
            return false;
        }
        if *word == 0 {
            self.summary[i / 4096] |= 1u64 << (i / 64 % 64);
        }
        *word |= bit;
        self.len += 1;
        true
    }

    /// Drops the block at `start`; false when it was not present.
    fn remove(&mut self, start: u64) -> bool {
        let i = (start >> self.order) as usize;
        let Some(word) = self.words.get_mut(i / 64) else {
            return false;
        };
        let bit = 1u64 << (i % 64);
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        if *word == 0 {
            self.summary[i / 4096] &= !(1u64 << (i / 64 % 64));
        }
        self.len -= 1;
        true
    }

    /// The lowest start in the set.
    fn first(&self) -> Option<u64> {
        let s = self.summary.iter().position(|&w| w != 0)?;
        let w = s * 64 + self.summary[s].trailing_zeros() as usize;
        Some(self.start(w * 64 + self.words[w].trailing_zeros() as usize))
    }

    /// The highest start strictly below `limit`.
    fn last_below(&self, limit: u64) -> Option<u64> {
        // Block `i` starts below `limit` exactly when
        // `i <= (limit - 1) >> order`.
        let top = usize::try_from(limit.checked_sub(1)? >> self.order).unwrap_or(usize::MAX);
        let top = top.min((self.words.len() * 64).checked_sub(1)?);
        let (w, b) = (top / 64, top % 64);
        let here = self.words[w] & (u64::MAX >> (63 - b));
        if here != 0 {
            return Some(self.start(w * 64 + high_bit(here)));
        }
        // Otherwise the highest non-empty word below `w`.
        let mut s = w / 64;
        let mut lower = self.summary[s] & ((1u64 << (w % 64)) - 1);
        while lower == 0 {
            s = s.checked_sub(1)?;
            lower = self.summary[s];
        }
        let w = s * 64 + high_bit(lower);
        Some(self.start(w * 64 + high_bit(self.words[w])))
    }

    /// The starts in ascending order.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let i = w * 64 + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    self.start(i)
                })
            })
        })
    }

    /// Checks the summary words and the count against the bitmap.
    fn check(&self) {
        assert_eq!(self.summary.len(), self.words.len().div_ceil(64), "summary size");
        for (s, &summary) in self.summary.iter().enumerate() {
            let nonempty = self.words[s * 64..]
                .iter()
                .take(64)
                .enumerate()
                .fold(0u64, |acc, (j, &w)| acc | u64::from(w != 0) << j);
            assert_eq!(summary, nonempty, "order {} summary word {s} disagrees", self.order);
        }
        let bits: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(self.len, bits, "order {} count disagrees with its bitmap", self.order);
    }
}

/// The index of the highest set bit of a non-zero word.
fn high_bit(word: u64) -> usize {
    63 - word.leading_zeros() as usize
}

impl Snapshot for BuddyAllocator {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.nr_frames);
        // Per order, a count and then the block starts ascending.
        enc.usize(self.free_lists.len());
        for list in &self.free_lists {
            enc.usize(list.len());
            for start in list.iter() {
                enc.u64(start);
            }
        }
        enc.u64(self.free_frames);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        let nr_frames = dec.u64()?;
        let lists = dec.len("buddy free lists")?;
        // The bitmaps are sized from `nr_frames` before any block is
        // read, so a corrupt count must not ask for gigabytes.
        if nr_frames == 0 || nr_frames > MAX_DECODED_FRAMES || lists != (MAX_ORDER + 1) as usize {
            return Err(cold_err(format_args!(
                "buddy allocator shape invalid: {nr_frames} frames, {lists} free lists"
            )));
        }
        let mut free_lists = Vec::with_capacity(lists);
        for order in 0..=MAX_ORDER {
            let mut list = FreeSet::new(order, nr_frames);
            let size = 1u64 << order;
            let n = dec.len("buddy free list")?;
            let starts = dec.records(n, 8, "buddy free list")?;
            // Strictly ascending, aligned and inside memory: a bitmap
            // indexes a block by `start >> order`, so a misaligned start
            // or one past the end would alias another block.
            let mut prev = None;
            for start in starts.chunks_exact(8) {
                let start = u64::from_le_bytes(start.try_into().expect("8-byte chunk"));
                if prev.is_some_and(|prev| start <= prev) {
                    return Err(cold_err(format_args!(
                        "buddy free list block {start:#x} out of order"
                    )));
                }
                let inside = start.checked_add(size).is_some_and(|end| end <= nr_frames);
                if start % size != 0 || !inside {
                    return Err(cold_err(format_args!(
                        "buddy order-{order} block {start:#x} misaligned or past {nr_frames} frames"
                    )));
                }
                prev = Some(start);
                list.insert(start);
            }
            free_lists.push(list);
        }
        Ok(Self { nr_frames, free_lists, free_frames: dec.u64()? })
    }
}

impl Snapshot for PfnRange {
    fn encode(&self, enc: &mut Enc) {
        self.start.encode(enc);
        enc.u64(self.pages);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok(Self { start: Pfn::decode(dec)?, pages: dec.u64()? })
    }
}

/// Smallest order whose block covers `pages` frames.
///
/// # Panics
/// Panics if `pages` is zero.
pub fn covering_order(pages: u64) -> u32 {
    assert!(pages > 0, "covering_order of zero pages");
    pages.next_power_of_two().trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_prng::rngs::SmallRng;
    use colt_prng::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    #[test]
    fn covering_order_matches_definition() {
        assert_eq!(covering_order(1), 0);
        assert_eq!(covering_order(2), 1);
        assert_eq!(covering_order(3), 2);
        assert_eq!(covering_order(4), 2);
        assert_eq!(covering_order(5), 3);
        assert_eq!(covering_order(512), 9);
        assert_eq!(covering_order(513), 10);
    }

    fn encode(buddy: &BuddyAllocator) -> Vec<u8> {
        let mut enc = Enc::new();
        buddy.encode(&mut enc);
        enc.finish()
    }

    #[test]
    fn snapshot_round_trips_and_rejects_unordered_free_lists() {
        let mut buddy = BuddyAllocator::new(4096);
        let a = buddy.alloc_block(0).unwrap();
        buddy.alloc_block(3).unwrap();
        buddy.alloc_block(1).unwrap();
        buddy.free_block(a, 0);
        let bytes = encode(&buddy);
        let mut dec = Dec::new(&bytes);
        let back = BuddyAllocator::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        back.check_invariants();
        assert_eq!(encode(&back), bytes);

        // A fresh allocator's top-order list holds four blocks, starting
        // after nr_frames, the list count, ten empty lists and the top
        // list's length.
        let fresh = encode(&BuddyAllocator::new(4096));
        let first = 8 + 8 + 10 * 8 + 8;
        let with_top_block = |start: u64| {
            let mut bytes = fresh.clone();
            bytes[first + 24..first + 32].copy_from_slice(&start.to_le_bytes());
            bytes
        };
        assert!(BuddyAllocator::decode(&mut Dec::new(&with_top_block(3072))).is_ok());
        let rejects = |bytes: &[u8], why: &str| {
            assert!(BuddyAllocator::decode(&mut Dec::new(bytes)).is_err(), "{why}");
        };
        let mut swapped = fresh.clone();
        swapped[first..first + 16].rotate_left(8);
        rejects(&swapped, "first two blocks swapped");
        rejects(&with_top_block(2560), "block misaligned for its order");
        rejects(&with_top_block(4096), "block starting at the end of memory");
        rejects(&with_top_block(!1023), "block whose end overflows");
        // 1500 frames hold one order-10 block; 1024 would end past them.
        let mut short = fresh.clone();
        short[..8].copy_from_slice(&1500u64.to_le_bytes());
        rejects(&short, "blocks ending past nr_frames");
        let mut huge = fresh;
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        rejects(&huge, "implausible nr_frames");
    }

    #[test]
    fn fresh_allocator_is_fully_free_in_maximal_blocks() {
        let buddy = BuddyAllocator::new(4096);
        assert_eq!(buddy.free_frames(), 4096);
        let h = buddy.histogram();
        assert_eq!(h.counts[MAX_ORDER as usize], 4);
        assert!(h.counts[..MAX_ORDER as usize].iter().all(|&c| c == 0));
        buddy.check_invariants();
    }

    #[test]
    fn odd_sized_memory_decomposes_into_aligned_blocks() {
        // 1027 = 1024 + 2 + 1.
        let buddy = BuddyAllocator::new(1027);
        assert_eq!(buddy.free_frames(), 1027);
        let h = buddy.histogram();
        assert_eq!(h.counts[10], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[0], 1);
        buddy.check_invariants();
    }

    #[test]
    fn paper_figure_2_walkthrough() {
        // Figure 2: pages 0..8, pages 1,2,3 allocated; request for 2 pages
        // finds no order-1 block and splits the order-2 block {4,5,6,7},
        // returning pages 4,5 and leaving 6,7 on list 1.
        let mut buddy = BuddyAllocator::new(8);
        // Carve out pages 0..4 so that only {4..8} remains free as an
        // order-2 block, plus single page 0 free (mimic figure: 0 free,
        // 1-3 allocated).
        assert!(buddy.take_free_page(Pfn::new(1)));
        assert!(buddy.take_free_page(Pfn::new(2)));
        assert!(buddy.take_free_page(Pfn::new(3)));
        let h = buddy.histogram();
        assert_eq!(h.counts[0], 1, "page 0 alone on list 0");
        assert_eq!(h.counts[2], 1, "pages 4-7 on list 2");

        let r = buddy.alloc_pages(2).expect("2 pages available");
        assert_eq!(r.start, Pfn::new(4));
        assert_eq!(r.pages, 2);
        let h = buddy.histogram();
        assert_eq!(h.counts[1], 1, "pages 6,7 moved to list 1");
        buddy.check_invariants();
    }

    #[test]
    fn alloc_block_splits_and_free_block_merges_back() {
        let mut buddy = BuddyAllocator::new(1024);
        let p = buddy.alloc_block(0).unwrap();
        assert_eq!(buddy.free_frames(), 1023);
        buddy.free_block(p, 0);
        assert_eq!(buddy.free_frames(), 1024);
        let h = buddy.histogram();
        assert_eq!(h.counts[10], 1, "merged back to a single maximal block");
        buddy.check_invariants();
    }

    #[test]
    fn alloc_pages_returns_contiguous_run_and_frees_tail() {
        let mut buddy = BuddyAllocator::new(1024);
        let r = buddy.alloc_pages(5).unwrap();
        assert_eq!(r.pages, 5);
        assert_eq!(buddy.free_frames(), 1019);
        // The 3-page tail of the order-3 block must be free again.
        for p in r.end().raw()..r.start.raw() + 8 {
            assert!(buddy.is_free(Pfn::new(p)));
        }
        buddy.check_invariants();
    }

    #[test]
    fn alloc_pages_rejects_zero_and_oversized() {
        let mut buddy = BuddyAllocator::new(4096);
        assert!(buddy.alloc_pages(0).is_none());
        assert!(buddy.alloc_pages((1 << MAX_ORDER) + 1).is_none());
        assert!(buddy.alloc_pages(1 << MAX_ORDER).is_some());
    }

    #[test]
    fn allocation_fails_when_memory_exhausted() {
        let mut buddy = BuddyAllocator::new(16);
        let r = buddy.alloc_pages(16).unwrap();
        assert!(buddy.alloc_pages(1).is_none());
        assert_eq!(buddy.free_frames(), 0);
        assert!((buddy.fragmentation_index() - 1.0).abs() < 1e-12);
        buddy.free_pages(r);
        assert!(buddy.alloc_pages(1).is_some());
    }

    #[test]
    fn take_free_page_claims_exactly_one_frame() {
        let mut buddy = BuddyAllocator::new(64);
        assert!(buddy.take_free_page(Pfn::new(37)));
        assert_eq!(buddy.free_frames(), 63);
        assert!(!buddy.is_free(Pfn::new(37)));
        assert!(buddy.is_free(Pfn::new(36)));
        assert!(buddy.is_free(Pfn::new(38)));
        assert!(!buddy.take_free_page(Pfn::new(37)), "already taken");
        buddy.free_block(Pfn::new(37), 0);
        assert_eq!(buddy.free_frames(), 64);
        assert_eq!(buddy.histogram().counts[6.min(MAX_ORDER as usize)], 1);
        buddy.check_invariants();
    }

    #[test]
    fn highest_free_page_tracks_top_of_memory() {
        let mut buddy = BuddyAllocator::new(128);
        assert_eq!(buddy.highest_free_page(), Some(Pfn::new(127)));
        assert!(buddy.take_free_page(Pfn::new(127)));
        assert_eq!(buddy.highest_free_page(), Some(Pfn::new(126)));
        assert_eq!(
            buddy.highest_free_page_below(Pfn::new(50)),
            Some(Pfn::new(49))
        );
    }

    #[test]
    fn fragmentation_index_rises_as_memory_shatters() {
        let mut buddy = BuddyAllocator::new(1024);
        let fresh = buddy.fragmentation_index();
        assert!(fresh.abs() < 1e-12);
        // Take every other page: free memory is all single frames.
        for p in (0..1024).step_by(2) {
            buddy.take_free_page(Pfn::new(p));
        }
        assert!(buddy.fragmentation_index() > 0.99);
        buddy.check_invariants();
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_free_panics() {
        let mut buddy = BuddyAllocator::new(64);
        buddy.alloc_block(2).unwrap();
        buddy.free_block(Pfn::new(1), 2);
    }

    #[test]
    fn interleaved_alloc_free_preserves_invariants() {
        let mut buddy = BuddyAllocator::new(2048);
        let mut live = Vec::new();
        for i in 1..=40u64 {
            if let Some(r) = buddy.alloc_pages((i * 7) % 30 + 1) {
                live.push(r);
            }
            if i % 3 == 0 {
                if let Some(r) = live.pop() {
                    buddy.free_pages(r);
                }
            }
            buddy.check_invariants();
        }
        for r in live {
            buddy.free_pages(r);
        }
        assert_eq!(buddy.free_frames(), 2048);
        assert_eq!(buddy.histogram().counts[10], 2);
        buddy.check_invariants();
    }

    /// The allocator as it was over `BTreeSet` free lists, kept as the
    /// reference the bitmap lists are checked against: the same
    /// algorithms over the same free blocks.
    struct BTreeBuddy {
        nr_frames: u64,
        free_lists: Vec<BTreeSet<u64>>,
        free_frames: u64,
    }

    impl BTreeBuddy {
        fn new(nr_frames: u64) -> Self {
            let mut buddy = Self {
                nr_frames,
                free_lists: vec![BTreeSet::new(); (MAX_ORDER + 1) as usize],
                free_frames: 0,
            };
            buddy.free_range_raw(0, nr_frames);
            buddy
        }

        fn histogram(&self) -> FreeListHistogram {
            FreeListHistogram { counts: self.free_lists.iter().map(BTreeSet::len).collect() }
        }

        fn largest_free_order(&self) -> Option<u32> {
            (0..=MAX_ORDER).rev().find(|&o| !self.free_lists[o as usize].is_empty())
        }

        fn small_free_fraction(&self, order: u32) -> f64 {
            if self.free_frames == 0 {
                return 0.0;
            }
            let small: u64 = self.free_lists[..(order.min(MAX_ORDER + 1)) as usize]
                .iter()
                .enumerate()
                .map(|(o, l)| (l.len() as u64) << o)
                .sum();
            small as f64 / self.free_frames as f64
        }

        fn alloc_block(&mut self, order: u32) -> Option<Pfn> {
            if order > MAX_ORDER {
                return None;
            }
            let found = (order..=MAX_ORDER).find(|&o| !self.free_lists[o as usize].is_empty())?;
            let start = *self.free_lists[found as usize].iter().next().expect("non-empty list");
            self.free_lists[found as usize].remove(&start);
            let mut cur = found;
            while cur > order {
                cur -= 1;
                self.free_lists[cur as usize].insert(start + (1u64 << cur));
            }
            self.free_frames -= 1u64 << order;
            Some(Pfn::new(start))
        }

        fn alloc_pages(&mut self, pages: u64) -> Option<PfnRange> {
            if pages == 0 || pages > (1u64 << MAX_ORDER) {
                return None;
            }
            let order = covering_order(pages);
            let start = self.alloc_block(order)?;
            let tail = (1u64 << order) - pages;
            if tail > 0 {
                self.free_range_raw(start.raw() + pages, tail);
            }
            Some(PfnRange::new(start, pages))
        }

        fn free_block(&mut self, start: Pfn, order: u32) {
            let mut start = start.raw();
            let freed_pages = 1u64 << order;
            let mut order = order;
            while order < MAX_ORDER {
                let buddy = start ^ (1u64 << order);
                if buddy + (1u64 << order) > self.nr_frames {
                    break;
                }
                if !self.free_lists[order as usize].remove(&buddy) {
                    break;
                }
                start = start.min(buddy);
                order += 1;
            }
            self.free_lists[order as usize].insert(start);
            self.free_frames += freed_pages;
        }

        fn free_pages(&mut self, range: PfnRange) {
            self.free_range_raw(range.start.raw(), range.pages);
        }

        fn free_range_raw(&mut self, mut start: u64, mut pages: u64) {
            while pages > 0 {
                let align_order = if start == 0 { MAX_ORDER } else { start.trailing_zeros() };
                let size_order = 63 - pages.leading_zeros();
                let order = align_order.min(size_order).min(MAX_ORDER);
                self.free_block(Pfn::new(start), order);
                start += 1u64 << order;
                pages -= 1u64 << order;
            }
        }

        fn containing_free_block(&self, pfn: u64) -> Option<(u64, u32)> {
            (0..=MAX_ORDER).find_map(|order| {
                let aligned = pfn & !((1u64 << order) - 1);
                self.free_lists[order as usize].contains(&aligned).then_some((aligned, order))
            })
        }

        fn take_free_page(&mut self, pfn: Pfn) -> bool {
            let Some((start, order)) = self.containing_free_block(pfn.raw()) else {
                return false;
            };
            self.free_lists[order as usize].remove(&start);
            self.free_frames -= 1u64 << order;
            let before = pfn.raw() - start;
            let after = start + (1u64 << order) - pfn.raw() - 1;
            if before > 0 {
                self.free_range_raw(start, before);
            }
            if after > 0 {
                self.free_range_raw(pfn.raw() + 1, after);
            }
            true
        }

        fn highest_free_page(&self) -> Option<Pfn> {
            (0..=MAX_ORDER)
                .filter_map(|o| {
                    self.free_lists[o as usize].iter().next_back().map(|&s| s + (1u64 << o) - 1)
                })
                .max()
                .map(Pfn::new)
        }

        fn highest_free_page_below(&self, limit: Pfn) -> Option<Pfn> {
            let limit = limit.raw();
            (0..=MAX_ORDER)
                .filter_map(|o| {
                    self.free_lists[o as usize]
                        .range(..limit)
                        .next_back()
                        .map(|&s| (s + (1u64 << o) - 1).min(limit - 1))
                })
                .max()
                .map(Pfn::new)
        }

        fn encode(&self) -> Vec<u8> {
            let mut enc = Enc::new();
            enc.u64(self.nr_frames);
            self.free_lists.encode(&mut enc);
            enc.u64(self.free_frames);
            enc.finish()
        }
    }

    /// A limit for the "below" queries: the ends of memory, the 64-block
    /// word and 4096-block summary edges at `order`, or any frame.
    fn pick_limit(rng: &mut SmallRng, nr_frames: u64, order: u32) -> u64 {
        let edge = |rng: &mut SmallRng, blocks: u64| {
            let at = (rng.gen_range(0..=(nr_frames >> order) / blocks) * blocks) << order;
            (at + rng.gen_range(0..3u64)).saturating_sub(1)
        };
        match rng.gen_range(0..6u32) {
            0 => [0, 1, nr_frames, u64::MAX][rng.gen_range(0..4usize)],
            1 => edge(rng, 64),
            2 => edge(rng, 4096),
            _ => rng.gen_range(0..=nr_frames + 1),
        }
    }

    #[test]
    fn free_set_matches_a_btree_model() {
        let mut rng = SmallRng::seed_from_u64(0xF5E7);
        for nr_frames in [1000u64, 1023, 1 << 17] {
            for order in 0..=MAX_ORDER {
                let blocks = nr_frames >> order;
                let at = format!("order {order}, {nr_frames} frames");
                let mut set = FreeSet::new(order, nr_frames);
                let mut model = BTreeSet::new();
                // Half the picks land on a word or summary edge.
                let edges: Vec<u64> = [0, 1, 62, 63, 64, 65, 127, 128]
                    .into_iter()
                    .chain([4031, 4032, 4095, 4096, 4097, 8191, 8192])
                    .chain(blocks.checked_sub(1))
                    .filter(|&i| i < blocks)
                    .collect();
                for step in 0..3000 {
                    let what = rng.gen_range(0..6u32);
                    if blocks == 0 || what == 5 {
                        let limit = pick_limit(&mut rng, nr_frames, order);
                        let want = model.range(..limit).next_back().copied();
                        assert_eq!(set.last_below(limit), want, "below {limit}, {at}");
                        continue;
                    }
                    let i = if rng.gen_bool(0.5) {
                        edges[rng.gen_range(0..edges.len())]
                    } else {
                        rng.gen_range(0..blocks)
                    };
                    let start = i << order;
                    let ctx = format!("step {step}, op {what} at {start:#x}, {at}");
                    match what {
                        0 | 1 => assert_eq!(set.insert(start), model.insert(start), "{ctx}"),
                        2 => assert_eq!(set.remove(start), model.remove(&start), "{ctx}"),
                        3 => assert_eq!(set.contains(start), model.contains(&start), "{ctx}"),
                        _ => assert_eq!(set.first(), model.first().copied(), "{ctx}"),
                    }
                    assert_eq!(set.len(), model.len(), "len, {ctx}");
                }
                // Starts past the last whole block are never members.
                let past = blocks << order;
                assert!(!set.contains(past) && !set.remove(past), "{at}");
                assert_eq!(set.last_below(u64::MAX), model.last().copied(), "{at}");
                assert!(set.iter().eq(model.iter().copied()), "{at}");
                set.check();
            }
        }
    }

    #[test]
    fn bitmap_allocator_matches_the_btree_reference() {
        enum Held {
            Block(Pfn, u32),
            Range(PfnRange),
        }
        for (nr_frames, seed) in [(1000u64, 1u64), (1023, 2), (1 << 17, 3)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut buddy = BuddyAllocator::new(nr_frames);
            let mut model = BTreeBuddy::new(nr_frames);
            let mut held = Vec::new();
            for step in 0..4000 {
                let op = rng.gen_range(0..10u32);
                let ctx = format!("step {step}, op {op}, {nr_frames} frames");
                match op {
                    0 => {
                        let order = rng.gen_range(0..=MAX_ORDER + 1);
                        let got = buddy.alloc_block(order);
                        assert_eq!(got, model.alloc_block(order), "alloc_block({order}), {ctx}");
                        held.extend(got.map(|start| Held::Block(start, order)));
                    }
                    1 => {
                        let pages = rng.gen_range(0..=(1u64 << MAX_ORDER) + 1);
                        let got = buddy.alloc_pages(pages);
                        assert_eq!(got, model.alloc_pages(pages), "alloc_pages({pages}), {ctx}");
                        held.extend(got.map(Held::Range));
                    }
                    2 | 3 if !held.is_empty() => {
                        match held.swap_remove(rng.gen_range(0..held.len())) {
                            Held::Block(start, order) if op == 2 => {
                                buddy.free_block(start, order);
                                model.free_block(start, order);
                            }
                            Held::Block(start, order) => {
                                let range = PfnRange::new(start, 1 << order);
                                buddy.free_pages(range);
                                model.free_pages(range);
                            }
                            Held::Range(range) => {
                                buddy.free_pages(range);
                                model.free_pages(range);
                            }
                        }
                    }
                    4 | 5 => {
                        // The compaction free scanner's step: find the
                        // highest free frame below a limit, then claim it.
                        let order = rng.gen_range(0..=MAX_ORDER);
                        let limit = Pfn::new(pick_limit(&mut rng, nr_frames, order));
                        let found = buddy.highest_free_page_below(limit);
                        let want = model.highest_free_page_below(limit);
                        assert_eq!(found, want, "below {limit:?}, {ctx}");
                        let pfn = match found {
                            Some(pfn) if op == 4 => pfn,
                            _ => Pfn::new(rng.gen_range(0..nr_frames + 2)),
                        };
                        let took = buddy.take_free_page(pfn);
                        let want = model.take_free_page(pfn);
                        assert_eq!(took, want, "take_free_page({pfn:?}), {ctx}");
                        if took {
                            held.push(Held::Block(pfn, 0));
                        }
                    }
                    6 => {
                        let want = model.largest_free_order();
                        assert_eq!(buddy.largest_free_order(), want, "{ctx}");
                    }
                    7 => {
                        let order = rng.gen_range(0..=MAX_ORDER + 2);
                        let got = buddy.small_free_fraction(order).to_bits();
                        let want = model.small_free_fraction(order).to_bits();
                        assert_eq!(got, want, "small_free_fraction({order}), {ctx}");
                    }
                    8 => assert_eq!(buddy.histogram(), model.histogram(), "{ctx}"),
                    _ => {
                        assert_eq!(buddy.highest_free_page(), model.highest_free_page(), "{ctx}");
                        let pfn = rng.gen_range(0..nr_frames + 2);
                        let want = model.containing_free_block(pfn).is_some();
                        assert_eq!(buddy.is_free(Pfn::new(pfn)), want, "is_free({pfn}), {ctx}");
                    }
                }
                assert_eq!(buddy.free_frames(), model.free_frames, "{ctx}");
                assert_eq!(encode(&buddy), model.encode(), "encoded bytes, {ctx}");
                if step % 256 == 0 {
                    buddy.check_invariants();
                }
            }
            buddy.check_invariants();
        }
    }
}
