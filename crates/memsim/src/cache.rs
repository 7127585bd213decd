//! Generic set-associative cache with LRU replacement, used for the L1,
//! L2, and last-level data caches of the simulated memory hierarchy
//! (paper §5.2.1: 32KB L1 / 256KB L2 / 4MB LLC, Core-i7-like).
//!
//! The lines live in one flat `sets × ways` array, each set MRU first
//! and padded with [`EMPTY`] behind its resident lines. An access
//! inserts its line at the MRU end while it scans: each way takes its
//! predecessor's line, a hit stops the shift where the line was, and on
//! a miss the LRU way falls off.

use colt_os_mem::addr::{PhysAddr, CACHE_LINE_SIZE};

/// The line number of a way that holds no line. Line numbers are
/// physical addresses divided by the line size, so none reaches it.
const EMPTY: u64 = u64::MAX;

/// Hit/miss counters for one cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines evicted.
    pub evictions: u64,
}

impl CacheStats {
    /// Miss ratio over all accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.misses as f64 / total as f64
    }
}

/// A physically indexed set-associative cache of 64-byte lines.
///
/// ```
/// use colt_memsim::cache::Cache;
/// use colt_os_mem::addr::PhysAddr;
/// let mut c = Cache::new(32 * 1024, 8); // 32KB, 8-way
/// assert!(!c.access(PhysAddr::new(0x1000)));  // cold miss
/// assert!(c.access(PhysAddr::new(0x1008)));   // same line: hit
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    /// `sets × ways` line numbers, each set MRU first, `EMPTY`-padded.
    lines: Vec<u64>,
    ways: usize,
    /// `sets - 1`: the set-index bits of a line number.
    set_mask: usize,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways` associativity.
    ///
    /// # Panics
    /// Panics unless the resulting set count is a positive power of two.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let lines = size_bytes / CACHE_LINE_SIZE as usize;
        assert!(lines.is_multiple_of(ways), "size must divide into ways");
        let num_sets = lines / ways;
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        Self {
            lines: vec![EMPTY; lines],
            ways,
            set_mask: num_sets - 1,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.set_mask + 1
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The ways of the set `line` maps to.
    fn set_of(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line as usize) & self.set_mask;
        set * self.ways..(set + 1) * self.ways
    }

    /// Accesses `addr`, returning `true` on a hit. Misses allocate the
    /// line (evicting LRU if needed).
    pub fn access(&mut self, addr: PhysAddr) -> bool {
        let line = addr.cache_line();
        let ways = self.set_of(line);
        let mut carry = line;
        for way in &mut self.lines[ways] {
            carry = std::mem::replace(way, carry);
            if carry == line {
                self.stats.hits += 1;
                return true;
            }
        }
        // A miss: `carry` is what fell off the LRU way.
        self.stats.misses += 1;
        if carry != EMPTY {
            self.stats.evictions += 1;
        }
        false
    }

    /// Checks residency without updating LRU or counters.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let line = addr.cache_line();
        self.lines[self.set_of(line)].contains(&line)
    }

    /// Invalidates the line containing `addr`, if present.
    pub fn invalidate(&mut self, addr: PhysAddr) -> bool {
        let line = addr.cache_line();
        let ways = self.set_of(line);
        let set = &mut self.lines[ways];
        let Some(pos) = set.iter().position(|&l| l == line) else {
            return false;
        };
        set.copy_within(pos + 1.., pos);
        set[set.len() - 1] = EMPTY;
        true
    }

    /// Empties the cache.
    pub fn flush(&mut self) {
        self.lines.fill(EMPTY);
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|&&l| l != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_prng::rngs::SmallRng;
    use colt_prng::{Rng, SeedableRng};

    /// The cache as it was before its sets became one flat array: a
    /// `Vec` per set, `remove` + `insert` on every hit. Kept as the
    /// reference model.
    struct ReferenceCache {
        sets: Vec<Vec<u64>>,
        ways: usize,
        stats: CacheStats,
    }

    impl ReferenceCache {
        fn new(size_bytes: usize, ways: usize) -> Self {
            let num_sets = size_bytes / CACHE_LINE_SIZE as usize / ways;
            let sets = vec![Vec::with_capacity(ways); num_sets];
            Self { sets, ways, stats: CacheStats::default() }
        }

        fn set_index(&self, line: u64) -> usize {
            (line as usize) & (self.sets.len() - 1)
        }

        fn access(&mut self, addr: PhysAddr) -> bool {
            let line = addr.cache_line();
            let idx = self.set_index(line);
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|&l| l == line) {
                let l = set.remove(pos);
                set.insert(0, l);
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            if set.len() == self.ways {
                set.pop();
                self.stats.evictions += 1;
            }
            set.insert(0, line);
            false
        }

        fn invalidate(&mut self, addr: PhysAddr) -> bool {
            let line = addr.cache_line();
            let idx = self.set_index(line);
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|&l| l == line) {
                set.remove(pos);
                return true;
            }
            false
        }
    }

    #[test]
    fn one_pass_shift_matches_the_reference_model() {
        for (seed, (size, ways)) in [(256, 2), (512, 4), (1024, 1), (2048, 8), (1024, 16)]
            .into_iter()
            .enumerate()
        {
            let mut rng = SmallRng::seed_from_u64(0xCA ^ seed as u64);
            let mut cache = Cache::new(size, ways);
            let mut reference = ReferenceCache::new(size, ways);
            // Twice as many distinct lines as the cache holds.
            let span = 2 * (size as u64 / CACHE_LINE_SIZE);
            for step in 0..5_000 {
                let addr = PhysAddr::new(rng.gen_range(0..span * CACHE_LINE_SIZE));
                match rng.gen_range(0..100u32) {
                    0..=79 => assert_eq!(cache.access(addr), reference.access(addr)),
                    80..=89 => {
                        let set = &reference.sets[reference.set_index(addr.cache_line())];
                        assert_eq!(cache.probe(addr), set.contains(&addr.cache_line()));
                    }
                    90..=98 => assert_eq!(cache.invalidate(addr), reference.invalidate(addr)),
                    _ => {
                        cache.flush();
                        reference.sets.iter_mut().for_each(Vec::clear);
                    }
                }
                let context = format!("{size} B / {ways} ways, step {step}");
                assert_eq!(cache.stats(), reference.stats, "{context}");
                let resident: usize = reference.sets.iter().map(Vec::len).sum();
                assert_eq!(cache.occupancy(), resident, "{context}");
                for (ways_of_set, set) in cache.lines.chunks(ways).zip(&reference.sets) {
                    let (held, empty) = ways_of_set.split_at(set.len());
                    assert_eq!(held, set.as_slice(), "{context}: lines or their order differ");
                    assert!(empty.iter().all(|&l| l == EMPTY), "{context}: padding holds a line");
                }
            }
        }
    }

    #[test]
    fn geometry_is_derived_from_size_and_ways() {
        let c = Cache::new(32 * 1024, 8);
        assert_eq!(c.num_sets(), 64);
        let c = Cache::new(4 * 1024 * 1024, 16);
        assert_eq!(c.num_sets(), 4096);
    }

    #[test]
    fn same_line_hits_after_miss() {
        let mut c = Cache::new(1024, 2);
        assert!(!c.access(PhysAddr::new(100)));
        assert!(c.access(PhysAddr::new(100)));
        assert!(c.access(PhysAddr::new(127)), "same 64B line");
        assert!(!c.access(PhysAddr::new(128)), "next line misses");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = Cache::new(256, 2); // 2 sets, 2 ways
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        c.access(PhysAddr::new(0));
        c.access(PhysAddr::new(2 * 64));
        c.access(PhysAddr::new(0)); // line 0 MRU
        c.access(PhysAddr::new(4 * 64)); // evicts line 2
        assert!(c.probe(PhysAddr::new(0)));
        assert!(!c.probe(PhysAddr::new(2 * 64)));
        assert!(c.probe(PhysAddr::new(4 * 64)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = Cache::new(1024, 2);
        c.access(PhysAddr::new(0));
        c.access(PhysAddr::new(64));
        assert!(c.invalidate(PhysAddr::new(0)));
        assert!(!c.invalidate(PhysAddr::new(0)));
        assert_eq!(c.occupancy(), 1);
        c.flush();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn miss_ratio_computation() {
        let mut c = Cache::new(1024, 2);
        c.access(PhysAddr::new(0));
        c.access(PhysAddr::new(0));
        c.access(PhysAddr::new(0));
        c.access(PhysAddr::new(4096));
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        let _ = Cache::new(192, 1);
    }
}
