//! The three-level data-cache hierarchy (paper §5.2.1: 32KB L1, 256KB
//! L2, 4MB LLC). Page-table entries are cached no higher than the LLC
//! (§4.1.1), matching x86 systems with dedicated MMU caches.

use crate::cache::{Cache, CacheStats};
use crate::latency::LatencyModel;
use colt_os_mem::addr::PhysAddr;

/// Where page-table-entry fetches land during a walk. The walker is
/// generic over this so the same walk logic runs against a single-core
/// [`CacheHierarchy`] (PTEs go to its private LLC) or, in the SMP model,
/// against the one [`SharedLlc`] all cores' walkers contend on.
pub trait PteFetch {
    /// Fetches one page-table entry, returning the latency in cycles.
    fn access_pte(&mut self, addr: PhysAddr) -> u64;
}

/// The simulated cache hierarchy: one core's [`PrivateCaches`] over a
/// last-level cache of its own.
///
/// ```
/// use colt_memsim::hierarchy::CacheHierarchy;
/// use colt_os_mem::addr::PhysAddr;
/// let mut caches = CacheHierarchy::core_i7();
/// let cold = caches.access_data(PhysAddr::new(0x10_000));
/// let warm = caches.access_data(PhysAddr::new(0x10_000));
/// assert!(warm < cold);
/// ```
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    private: PrivateCaches,
    llc: SharedLlc,
}

impl CacheHierarchy {
    /// Builds a hierarchy with explicit geometries:
    /// `(size_bytes, ways)` per level.
    pub fn new(l1: (usize, usize), l2: (usize, usize), llc: (usize, usize), latency: LatencyModel) -> Self {
        Self { private: PrivateCaches::new(l1, l2, latency), llc: SharedLlc::new(llc, latency) }
    }

    /// The paper's Core-i7-like configuration: 32KB/8-way L1,
    /// 256KB/8-way L2, 4MB/16-way LLC.
    pub fn core_i7() -> Self {
        Self { private: PrivateCaches::core_i7(), llc: SharedLlc::core_i7() }
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> &LatencyModel {
        self.private.latency_model()
    }

    /// A data access: probes L1 → L2 → LLC, fills all levels on the way
    /// back. Returns the access latency in cycles.
    pub fn access_data(&mut self, addr: PhysAddr) -> u64 {
        self.private.access_data(addr, &mut self.llc)
    }

    /// A page-table-entry fetch during a walk: the LLC is the highest
    /// cache level for PTEs (§4.1.1). Returns the fetch latency.
    pub fn access_pte(&mut self, addr: PhysAddr) -> u64 {
        self.llc.access_pte(addr)
    }

    /// L1 data-cache counters.
    pub fn l1_stats(&self) -> CacheStats {
        self.private.l1_stats()
    }

    /// L2 cache counters.
    pub fn l2_stats(&self) -> CacheStats {
        self.private.l2_stats()
    }

    /// LLC counters (data + PTE traffic).
    pub fn llc_stats(&self) -> CacheStats {
        self.llc.stats()
    }

    /// Flushes all levels.
    pub fn flush(&mut self) {
        self.private.flush();
        self.llc.flush();
    }
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        Self::core_i7()
    }
}

impl PteFetch for CacheHierarchy {
    fn access_pte(&mut self, addr: PhysAddr) -> u64 {
        CacheHierarchy::access_pte(self, addr)
    }
}

/// The last-level cache all cores of an SMP machine share. PTE fetches
/// (from every core's walker) and private-cache misses both land here,
/// so one core's walk traffic warms — or thrashes — the LLC the others
/// see, which is exactly the contention the multiprogrammed experiments
/// measure. The SMP simulator is single-threaded, so plain `&mut`
/// sharing suffices.
#[derive(Clone, Debug)]
pub struct SharedLlc {
    llc: Cache,
    latency: LatencyModel,
}

impl SharedLlc {
    /// Builds a shared LLC with an explicit `(size_bytes, ways)`
    /// geometry.
    pub fn new(llc: (usize, usize), latency: LatencyModel) -> Self {
        Self { llc: Cache::new(llc.0, llc.1), latency }
    }

    /// The paper's 4MB/16-way LLC, shared instead of private.
    pub fn core_i7() -> Self {
        Self::new((4 * 1024 * 1024, 16), LatencyModel::default())
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// A data access that missed the private levels: probes the LLC,
    /// filling it on a miss. Returns the access latency in cycles.
    pub fn access_data(&mut self, addr: PhysAddr) -> u64 {
        self.latency.data_hit_at(if self.llc.access(addr) { 3 } else { 4 })
    }

    /// LLC counters (data + PTE traffic from all cores).
    pub fn stats(&self) -> CacheStats {
        self.llc.stats()
    }

    /// Flushes the LLC.
    pub fn flush(&mut self) {
        self.llc.flush();
    }
}

impl PteFetch for SharedLlc {
    fn access_pte(&mut self, addr: PhysAddr) -> u64 {
        let hit = self.llc.access(addr);
        self.latency.pte_fetch(hit)
    }
}

/// One core's private L1/L2 data caches, backed by a [`SharedLlc`].
#[derive(Clone, Debug)]
pub struct PrivateCaches {
    l1: Cache,
    l2: Cache,
    latency: LatencyModel,
}

impl PrivateCaches {
    /// Builds private caches with explicit `(size_bytes, ways)`
    /// geometries per level.
    pub fn new(l1: (usize, usize), l2: (usize, usize), latency: LatencyModel) -> Self {
        Self { l1: Cache::new(l1.0, l1.1), l2: Cache::new(l2.0, l2.1), latency }
    }

    /// The paper's per-core levels: 32KB/8-way L1, 256KB/8-way L2.
    pub fn core_i7() -> Self {
        Self::new((32 * 1024, 8), (256 * 1024, 8), LatencyModel::default())
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// A data access: probes the private L1 → L2, then the shared LLC,
    /// filling all levels on the way back. Returns the latency in
    /// cycles.
    pub fn access_data(&mut self, addr: PhysAddr, llc: &mut SharedLlc) -> u64 {
        match self.access_private(addr) {
            Some(level) => self.latency.data_hit_at(level),
            None => llc.access_data(addr),
        }
    }

    /// The private half of a data access: probes L1 → L2, filling both
    /// on the way back. Returns the level that hit (1 or 2), or `None`
    /// when the access goes on to the LLC ([`SharedLlc::access_data`]).
    /// Nothing else reaches these levels, so their outcomes depend only
    /// on the sequence of data addresses.
    #[inline]
    pub fn access_private(&mut self, addr: PhysAddr) -> Option<u8> {
        if self.l1.access(addr) {
            return Some(1);
        }
        if self.l2.access(addr) {
            return Some(2);
        }
        None
    }

    /// Private L1 counters.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// Private L2 counters.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Flushes both private levels.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_access_fills_all_levels() {
        let mut h = CacheHierarchy::core_i7();
        let a = PhysAddr::new(0x4_0000);
        assert_eq!(h.access_data(a), h.latency_model().dram);
        assert_eq!(h.access_data(a), h.latency_model().l1);
        assert_eq!(h.l1_stats().hits, 1);
        assert_eq!(h.llc_stats().misses, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        let mut h = CacheHierarchy::new((128, 2), (1024, 2), (8192, 2), LatencyModel::default());
        let victim = PhysAddr::new(0);
        h.access_data(victim);
        // Evict the victim line from tiny L1 set 0 (64B lines, 1 set).
        h.access_data(PhysAddr::new(2 * 64));
        h.access_data(PhysAddr::new(4 * 64));
        let lat = h.access_data(victim);
        assert_eq!(lat, h.latency_model().l2, "victim still in L2");
    }

    #[test]
    fn pte_fetches_bypass_l1_and_l2() {
        let mut h = CacheHierarchy::core_i7();
        let pte_addr = PhysAddr::new(1 << 40);
        assert_eq!(h.access_pte(pte_addr), h.latency_model().dram);
        assert_eq!(h.access_pte(pte_addr), h.latency_model().llc);
        assert_eq!(h.l1_stats().hits + h.l1_stats().misses, 0, "PTEs never touch L1");
        assert_eq!(h.l2_stats().hits + h.l2_stats().misses, 0);
    }

    #[test]
    fn one_pte_line_serves_eight_neighbors() {
        // The fill property CoLT relies on: one LLC line = 8 PTEs.
        let mut h = CacheHierarchy::core_i7();
        let base = 1u64 << 40;
        h.access_pte(PhysAddr::new(base));
        for i in 1..8 {
            assert_eq!(
                h.access_pte(PhysAddr::new(base + i * 8)),
                h.latency_model().llc,
                "PTE {i} shares the fetched line"
            );
        }
        assert_eq!(
            h.access_pte(PhysAddr::new(base + 64)),
            h.latency_model().dram,
            "ninth PTE is the next line"
        );
    }

    #[test]
    fn flush_empties_everything() {
        let mut h = CacheHierarchy::core_i7();
        let a = PhysAddr::new(0x8000);
        h.access_data(a);
        h.flush();
        assert_eq!(h.access_data(a), h.latency_model().dram);
    }
}
