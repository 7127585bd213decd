//! TLB statistics: the counters of one structure, and the hierarchy's.
//!
//! Miss accounting follows the paper (§7.1.1): the set-associative L1 and
//! the superpage TLB are probed in parallel and share one hit time, so a
//! *L1 miss* means both missed; a *L2 miss* means every structure missed
//! and a page walk is required.

/// Counters of one TLB structure. A set-associative TLB's are the sum
/// over its sets.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StructureStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted (a fill merged into a resident entry counts).
    pub insertions: u64,
    /// Fills absorbed by merging with a resident entry.
    pub merges: u64,
    /// Entries evicted by replacement.
    pub evictions: u64,
    /// Entries removed by invalidation.
    pub invalidations: u64,
}

impl std::iter::Sum for StructureStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |s, x| Self {
            hits: s.hits + x.hits,
            misses: s.misses + x.misses,
            insertions: s.insertions + x.insertions,
            merges: s.merges + x.merges,
            evictions: s.evictions + x.evictions,
            invalidations: s.invalidations + x.invalidations,
        })
    }
}

/// Counters for one run of a TLB hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HierarchyStats {
    /// Total translation requests.
    pub accesses: u64,
    /// Hits at L1 level (set-associative L1 *or* superpage TLB).
    pub l1_hits: u64,
    /// Misses at L1 level.
    pub l1_misses: u64,
    /// Hits in the L2 TLB (after an L1-level miss).
    pub l2_hits: u64,
    /// Misses everywhere: page walks.
    pub l2_misses: u64,
    /// Fills performed after walks.
    pub fills: u64,
    /// Fills that installed a superpage entry.
    pub superpage_fills: u64,
    /// Lookups served by the prefetch buffer (related-work baseline).
    pub pb_hits: u64,
    /// Histogram of coalesced run lengths at fill time;
    /// `coalesce_hist[k]` counts fills whose run coalesced `k+1`
    /// translations (index 7 = the 8-translation cache-line maximum).
    pub coalesce_hist: [u64; 8],
    /// Fills whose run length fell outside the possible 1..=8 range of
    /// one PTE cache line — always zero unless a coalescing bug
    /// manufactured an impossible run. Kept out of the histogram so the
    /// invariant checker can see such lengths instead of having them
    /// clamped into the edge buckets.
    pub coalesce_overflow: u64,
    /// ASID-selective flushes performed (SMP tagged mode; zero in the
    /// paper's single-core untagged configurations).
    pub asid_flushes: u64,
    /// Entries removed by ASID-selective flushes.
    pub asid_entries_flushed: u64,
}

impl HierarchyStats {
    /// L1-level miss ratio.
    pub fn l1_miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.l1_misses as f64 / self.accesses as f64
    }

    /// Walk (L2 miss) ratio over all accesses.
    pub fn l2_miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.l2_misses as f64 / self.accesses as f64
    }

    /// Misses per million *accesses* scaled by an instructions-per-access
    /// factor: MPMI as the paper reports it, given how many instructions
    /// each memory access represents.
    pub fn mpmi(&self, misses: u64, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        misses as f64 * 1.0e6 / instructions as f64
    }

    /// Average translations per fill (coalescing effectiveness).
    pub fn avg_coalescing(&self) -> f64 {
        let fills: u64 = self.coalesce_hist.iter().sum();
        if fills == 0 {
            return 0.0;
        }
        let translations: u64 = self
            .coalesce_hist
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n)
            .sum();
        translations as f64 / fills as f64
    }

    /// Counter-wise difference `self - before`: measurement windows
    /// (snapshot at the warmup boundary, subtract at the end).
    #[must_use]
    pub fn since(&self, before: &Self) -> Self {
        let mut d = *self;
        d.accesses -= before.accesses;
        d.l1_hits -= before.l1_hits;
        d.l1_misses -= before.l1_misses;
        d.l2_hits -= before.l2_hits;
        d.l2_misses -= before.l2_misses;
        d.fills -= before.fills;
        d.superpage_fills -= before.superpage_fills;
        d.pb_hits -= before.pb_hits;
        d.coalesce_overflow -= before.coalesce_overflow;
        for i in 0..d.coalesce_hist.len() {
            d.coalesce_hist[i] -= before.coalesce_hist[i];
        }
        d.asid_flushes -= before.asid_flushes;
        d.asid_entries_flushed -= before.asid_entries_flushed;
        d
    }

    /// Counter-wise sum: aggregating per-core hierarchies into one
    /// machine-wide view.
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        let mut s = *self;
        s.accesses += other.accesses;
        s.l1_hits += other.l1_hits;
        s.l1_misses += other.l1_misses;
        s.l2_hits += other.l2_hits;
        s.l2_misses += other.l2_misses;
        s.fills += other.fills;
        s.superpage_fills += other.superpage_fills;
        s.pb_hits += other.pb_hits;
        s.coalesce_overflow += other.coalesce_overflow;
        for i in 0..s.coalesce_hist.len() {
            s.coalesce_hist[i] += other.coalesce_hist[i];
        }
        s.asid_flushes += other.asid_flushes;
        s.asid_entries_flushed += other.asid_entries_flushed;
        s
    }

    /// Records one fill of a run with `len` coalesced translations. A
    /// cache line holds eight PTEs, so lengths outside 1..=8 cannot come
    /// from a correct coalescing pass: they trip a debug assertion and
    /// land in [`HierarchyStats::coalesce_overflow`] rather than being
    /// laundered into the edge histogram buckets.
    pub(crate) fn record_fill(&mut self, len: u64) {
        self.fills += 1;
        debug_assert!(
            (1..=8).contains(&len),
            "fill length {len} exceeds the 8-PTE cache-line bound"
        );
        if (1..=8).contains(&len) {
            self.coalesce_hist[(len - 1) as usize] += 1;
        } else {
            self.coalesce_overflow += 1;
        }
    }
}

/// Percentage of baseline misses eliminated: the paper's Figure 18/19/20
/// metric. Negative values mean the design *added* misses (as Figure 19
/// shows for over-aggressive index shifts).
pub fn pct_misses_eliminated(baseline_misses: u64, colt_misses: u64) -> f64 {
    if baseline_misses == 0 {
        return 0.0;
    }
    (baseline_misses as f64 - colt_misses as f64) * 100.0 / baseline_misses as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_and_empty_safety() {
        let mut s = HierarchyStats::default();
        assert_eq!(s.l1_miss_ratio(), 0.0);
        assert_eq!(s.l2_miss_ratio(), 0.0);
        assert_eq!(s.avg_coalescing(), 0.0);
        s.accesses = 100;
        s.l1_misses = 25;
        s.l2_misses = 10;
        assert!((s.l1_miss_ratio() - 0.25).abs() < 1e-12);
        assert!((s.l2_miss_ratio() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn fill_histogram_records_lengths() {
        let mut s = HierarchyStats::default();
        s.record_fill(1);
        s.record_fill(4);
        s.record_fill(4);
        s.record_fill(8);
        assert_eq!(s.fills, 4);
        assert_eq!(s.coalesce_hist[0], 1);
        assert_eq!(s.coalesce_hist[3], 2);
        assert_eq!(s.coalesce_hist[7], 1);
        assert!((s.avg_coalescing() - 17.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "cache-line bound"))]
    fn oversized_fill_lengths_are_flagged_not_laundered() {
        let mut s = HierarchyStats::default();
        s.record_fill(100); // panics in debug builds
        // Release builds: counted as overflow, never folded into the
        // histogram where it would inflate avg_coalescing.
        assert_eq!(s.coalesce_overflow, 1);
        assert_eq!(s.coalesce_hist[7], 0);
        assert_eq!(s.avg_coalescing(), 0.0);
    }

    #[test]
    fn miss_elimination_percentages() {
        assert_eq!(pct_misses_eliminated(100, 60), 40.0);
        assert_eq!(pct_misses_eliminated(100, 125), -25.0);
        assert_eq!(pct_misses_eliminated(0, 10), 0.0);
    }

    #[test]
    fn mpmi_scales_to_million_instructions() {
        let s = HierarchyStats::default();
        assert!((s.mpmi(500, 1_000_000) - 500.0).abs() < 1e-9);
        assert!((s.mpmi(500, 10_000_000) - 50.0).abs() < 1e-9);
        assert_eq!(s.mpmi(500, 0), 0.0);
    }
}
