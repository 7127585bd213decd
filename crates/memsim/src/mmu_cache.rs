//! MMU page-walk cache (paper §5.2.1: "unlike past work, we model a more
//! realistic TLB hierarchy with 22-entry MMU caches, accessed on TLB
//! misses to accelerate page table walks").
//!
//! The cache holds upper-level (non-leaf) page-table entries, keyed by the
//! physical address of the entry. On a walk, the deepest cached entry
//! lets the walker skip every level above it; the leaf PTE must always be
//! fetched from the memory hierarchy.
//!
//! The entries are one list in recency order, MRU first, allocated at
//! full capacity up front. A lookup hit moves the entries ahead of it
//! down one slot; an insert shifts every entry down while it scans, so
//! a resident key stops the shift where it was and a new one pushes
//! the LRU entry off a full cache.

use colt_os_mem::addr::{Asid, PhysAddr};
use colt_tlb::replacement::promote;

/// Hit/miss counters for the MMU cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MmuCacheStats {
    /// Walk levels skipped thanks to cached entries.
    pub level_hits: u64,
    /// Non-leaf levels that had to be fetched.
    pub level_misses: u64,
}

/// A small fully-associative page-walk cache with LRU replacement.
///
/// ```
/// use colt_memsim::mmu_cache::MmuCache;
/// use colt_os_mem::addr::PhysAddr;
/// let mut c = MmuCache::new(22);
/// assert!(!c.contains(PhysAddr::new(0x100)));
/// c.insert(PhysAddr::new(0x100));
/// assert!(c.contains(PhysAddr::new(0x100)));
/// ```
#[derive(Clone, Debug)]
pub struct MmuCache {
    entries: Vec<(Asid, u64)>, // (tag, entry address), MRU first
    capacity: usize,
    stats: MmuCacheStats,
}

impl MmuCache {
    /// Creates a cache of `capacity` entries (the paper uses 22).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MMU cache must hold at least one entry");
        Self { entries: Vec::with_capacity(capacity), capacity, stats: MmuCacheStats::default() }
    }

    /// The paper's 22-entry configuration.
    pub fn paper_default() -> Self {
        Self::new(22)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MmuCacheStats {
        self.stats
    }

    /// Checks membership without LRU update. Untagged entry point:
    /// checks the shared ASID-0 tag all entries carry outside SMP tagged
    /// mode.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        self.contains_tagged(addr, Asid(0))
    }

    /// Checks membership of `(asid, addr)` without LRU update. Entry
    /// addresses alias across processes (each page table numbers its
    /// nodes independently), so the tag is part of the key.
    pub fn contains_tagged(&self, addr: PhysAddr, asid: Asid) -> bool {
        self.entries.contains(&(asid, addr.raw()))
    }

    /// Looks up an entry address, promoting it on hit and counting the
    /// outcome.
    pub fn lookup(&mut self, addr: PhysAddr) -> bool {
        self.lookup_tagged(addr, Asid(0))
    }

    /// Tagged lookup: only `(asid, addr)` can hit.
    pub fn lookup_tagged(&mut self, addr: PhysAddr, asid: Asid) -> bool {
        if let Some(pos) = self.entries.iter().position(|&e| e == (asid, addr.raw())) {
            promote(&mut self.entries, pos);
            self.stats.level_hits += 1;
            true
        } else {
            self.stats.level_misses += 1;
            false
        }
    }

    /// Inserts an entry address (no-op if already resident; promotes it).
    pub fn insert(&mut self, addr: PhysAddr) {
        self.insert_tagged(addr, Asid(0));
    }

    /// Tagged insert: the entry is keyed `(asid, addr)`.
    pub fn insert_tagged(&mut self, addr: PhysAddr, asid: Asid) {
        let key = (asid, addr.raw());
        let mut carry = key;
        for slot in &mut self.entries {
            let held = std::mem::replace(slot, carry);
            if held == key {
                return;
            }
            carry = held;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(carry);
        }
    }

    /// Removes one entry address if resident (the per-entry half of an
    /// `invlpg`-style shootdown: dropping exactly the page-table entries
    /// a mutated walk path used, instead of flushing the whole cache).
    /// Returns whether the address was present.
    pub fn invalidate_addr(&mut self, addr: PhysAddr) -> bool {
        self.invalidate_addr_tagged(addr, Asid(0))
    }

    /// Tagged invalidation: removes `(asid, addr)` if resident. A
    /// shootdown for one address space must not clip another space's
    /// aliasing entry.
    pub fn invalidate_addr_tagged(&mut self, addr: PhysAddr, asid: Asid) -> bool {
        if let Some(pos) = self.entries.iter().position(|&e| e == (asid, addr.raw())) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Removes every entry tagged `asid` (process exit / ASID
    /// recycling). Returns the number removed.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        let before = self.entries.len();
        self.entries.retain(|&(a, _)| a != asid);
        before - self.entries.len()
    }

    /// Empties the cache.
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Live entry count.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_prng::rngs::SmallRng;
    use colt_prng::{Rng, SeedableRng};

    /// The page-walk cache as it was before its LRU bookkeeping ran in
    /// place: `remove` + `insert` on every hit, `pop` + `insert` on every
    /// fill of a full cache. Kept as the reference model.
    struct ReferenceMmuCache {
        entries: Vec<(Asid, u64)>,
        capacity: usize,
        stats: MmuCacheStats,
    }

    impl ReferenceMmuCache {
        fn lookup_tagged(&mut self, addr: PhysAddr, asid: Asid) -> bool {
            if let Some(pos) = self.entries.iter().position(|&e| e == (asid, addr.raw())) {
                let e = self.entries.remove(pos);
                self.entries.insert(0, e);
                self.stats.level_hits += 1;
                true
            } else {
                self.stats.level_misses += 1;
                false
            }
        }

        fn insert_tagged(&mut self, addr: PhysAddr, asid: Asid) {
            if let Some(pos) = self.entries.iter().position(|&e| e == (asid, addr.raw())) {
                let e = self.entries.remove(pos);
                self.entries.insert(0, e);
                return;
            }
            if self.entries.len() == self.capacity {
                self.entries.pop();
            }
            self.entries.insert(0, (asid, addr.raw()));
        }

        fn invalidate_addr_tagged(&mut self, addr: PhysAddr, asid: Asid) -> bool {
            if let Some(pos) = self.entries.iter().position(|&e| e == (asid, addr.raw())) {
                self.entries.remove(pos);
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn in_place_lru_matches_the_reference_model() {
        for capacity in [1, 3, 8, 22] {
            let mut rng = SmallRng::seed_from_u64(0x33 ^ capacity as u64);
            let mut cache = MmuCache::new(capacity);
            let mut reference = ReferenceMmuCache {
                entries: Vec::new(),
                capacity,
                stats: MmuCacheStats::default(),
            };
            for step in 0..5_000 {
                let addr = PhysAddr::new(rng.gen_range(0..2 * capacity as u64 + 2) * 8);
                let asid = Asid(rng.gen_range(0..2u32));
                match rng.gen_range(0..100u32) {
                    0..=14 => {
                        assert_eq!(cache.lookup(addr), reference.lookup_tagged(addr, Asid(0)));
                    }
                    15..=44 => assert_eq!(
                        cache.lookup_tagged(addr, asid),
                        reference.lookup_tagged(addr, asid)
                    ),
                    45..=54 => {
                        cache.insert(addr);
                        reference.insert_tagged(addr, Asid(0));
                    }
                    55..=84 => {
                        cache.insert_tagged(addr, asid);
                        reference.insert_tagged(addr, asid);
                    }
                    85..=89 => assert_eq!(
                        cache.invalidate_addr(addr),
                        reference.invalidate_addr_tagged(addr, Asid(0))
                    ),
                    90..=94 => assert_eq!(
                        cache.invalidate_addr_tagged(addr, asid),
                        reference.invalidate_addr_tagged(addr, asid)
                    ),
                    95..=97 => {
                        let before = reference.entries.len();
                        reference.entries.retain(|&(a, _)| a != asid);
                        assert_eq!(cache.flush_asid(asid), before - reference.entries.len());
                    }
                    _ => {
                        cache.flush();
                        reference.entries.clear();
                    }
                }
                let context = format!("capacity {capacity}, step {step}");
                assert_eq!(cache.stats(), reference.stats, "{context}");
                assert_eq!(cache.occupancy(), reference.entries.len(), "{context}");
                assert_eq!(cache.entries, reference.entries, "{context}: entries or order differ");
            }
        }
    }

    #[test]
    fn lookup_counts_and_promotes() {
        let mut c = MmuCache::new(2);
        c.insert(PhysAddr::new(1));
        c.insert(PhysAddr::new(2));
        assert!(c.lookup(PhysAddr::new(1))); // promotes 1
        c.insert(PhysAddr::new(3)); // evicts 2 (LRU)
        assert!(c.contains(PhysAddr::new(1)));
        assert!(!c.contains(PhysAddr::new(2)));
        let s = c.stats();
        assert_eq!(s.level_hits, 1);
    }

    #[test]
    fn reinsert_promotes_without_duplicating() {
        let mut c = MmuCache::new(3);
        c.insert(PhysAddr::new(1));
        c.insert(PhysAddr::new(2));
        c.insert(PhysAddr::new(1));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn paper_default_is_22_entries() {
        let mut c = MmuCache::paper_default();
        for i in 0..30 {
            c.insert(PhysAddr::new(i));
        }
        assert_eq!(c.occupancy(), 22);
    }

    #[test]
    fn invalidate_addr_removes_exactly_one_entry() {
        let mut c = MmuCache::new(4);
        c.insert(PhysAddr::new(1));
        c.insert(PhysAddr::new(2));
        assert!(c.invalidate_addr(PhysAddr::new(1)));
        assert!(!c.contains(PhysAddr::new(1)));
        assert!(c.contains(PhysAddr::new(2)), "other entries untouched");
        assert!(!c.invalidate_addr(PhysAddr::new(1)), "already gone");
    }

    #[test]
    fn flush_empties() {
        let mut c = MmuCache::new(4);
        c.insert(PhysAddr::new(7));
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.lookup(PhysAddr::new(7)));
    }
}
