//! Property-based tests of the TLB structures' core invariants.

use colt_os_mem::addr::{Pfn, Vpn};
use colt_os_mem::page_table::{PageTable, Pte, PteFlags};
use colt_tlb::coalesce::coalesce_line;
use colt_tlb::config::TlbConfig;
use colt_tlb::entry::{CoalescedRun, TlbEntry};
use colt_tlb::fully_assoc::FullyAssocTlb;
use colt_tlb::hierarchy::{TlbHierarchy, WalkFill};
use colt_tlb::set_assoc::SetAssocTlb;
use colt_quickprop::prelude::*;

/// A random page table over a window of vpns, with runs of contiguity.
fn arbitrary_page_table() -> impl Strategy<Value = PageTable> {
    // Pairs of (run start offset gap, run length); built left to right.
    prop::collection::vec((0u64..6, 1u64..12, prop::bool::ANY), 1..40).prop_map(|segments| {
        let mut pt = PageTable::new();
        let mut vpn = 0x100u64;
        let mut pfn = 0x9000u64;
        for (gap, len, dirty) in segments {
            vpn += gap;
            pfn += gap * 7 + 13; // decorrelate frames between runs
            let flags = if dirty {
                PteFlags::user_data().with(PteFlags::DIRTY)
            } else {
                PteFlags::user_data()
            };
            for i in 0..len {
                pt.map_base(Vpn::new(vpn + i), Pte::new(Pfn::new(pfn + i), flags));
            }
            vpn += len;
            pfn += len;
        }
        pt
    })
}

proptest! {
    /// Whatever the page-table contents, the coalescing logic's run always
    /// contains the requested translation, translates every covered page
    /// exactly as the page table does, and never leaves the cache line.
    #[test]
    fn coalesced_runs_agree_with_the_page_table(pt in arbitrary_page_table()) {
        for (vpn, _pte) in pt.iter_base() {
            let line = pt.pte_line(vpn);
            let run = coalesce_line(&line, vpn).expect("mapped slot must coalesce");
            prop_assert!(run.contains(vpn));
            prop_assert!(run.len <= 8);
            prop_assert!(run.start_vpn >= line.base_vpn);
            prop_assert!(run.end_vpn() <= line.base_vpn.offset(8));
            for v in run.start_vpn.raw()..run.end_vpn().raw() {
                let v = Vpn::new(v);
                let expected = pt.translate(v).expect("covered page must be mapped");
                prop_assert_eq!(run.translate(v), Some(expected.pfn));
                prop_assert_eq!(run.flags, expected.flags);
            }
        }
    }

    /// The coalesced run is *maximal* within the line: the slots
    /// immediately before and after cannot extend it.
    #[test]
    fn coalesced_runs_are_maximal(pt in arbitrary_page_table()) {
        for (vpn, _pte) in pt.iter_base() {
            let line = pt.pte_line(vpn);
            let run = coalesce_line(&line, vpn).unwrap();
            if run.start_vpn > line.base_vpn {
                let before = Vpn::new(run.start_vpn.raw() - 1);
                let extends = pt.translate(before).is_some_and(|t| {
                    t.pfn.is_followed_by(run.base_pfn) && t.flags == run.flags
                        && matches!(t.kind, colt_os_mem::page_table::PageKind::Base)
                });
                prop_assert!(!extends, "run not maximal on the left at {before}");
            }
            let after = run.end_vpn();
            if after < line.base_vpn.offset(8) {
                let last_pfn = run.base_pfn.offset(run.len - 1);
                let extends = pt.translate(after).is_some_and(|t| {
                    last_pfn.is_followed_by(t.pfn) && t.flags == run.flags
                        && matches!(t.kind, colt_os_mem::page_table::PageKind::Base)
                });
                prop_assert!(!extends, "run not maximal on the right at {after}");
            }
        }
    }

    /// A set-associative TLB never returns a wrong translation: whatever
    /// sequence of inserts happens, a hit always reproduces what was
    /// inserted for that vpn.
    #[test]
    fn set_assoc_hits_are_always_correct(
        runs in prop::collection::vec((0u64..512, 1u64..=4), 1..60),
        shift in 0u32..=3,
        probes in prop::collection::vec(0u64..520, 1..60),
    ) {
        let mut tlb = SetAssocTlb::new(32, 4, shift);
        // Ground truth: pfn = vpn + 10_000 for every inserted translation.
        let mut inserted = std::collections::HashSet::new();
        for (start, len) in runs {
            let run = CoalescedRun::new(
                Vpn::new(start),
                Pfn::new(start + 10_000),
                len,
                PteFlags::user_data(),
            );
            if let Some(r) = run.restrict_to_group(Vpn::new(start), shift) {
                tlb.insert(r);
                for v in r.start_vpn.raw()..r.end_vpn().raw() {
                    inserted.insert(v);
                }
            }
        }
        for p in probes {
            if let Some(pfn) = tlb.probe(Vpn::new(p)) {
                prop_assert!(inserted.contains(&p), "hit on never-inserted vpn {p}");
                prop_assert_eq!(pfn.raw(), p + 10_000, "wrong translation for vpn {}", p);
            }
        }
    }

    /// Set-associative occupancy never exceeds ways per set, across any
    /// insert sequence.
    #[test]
    fn set_assoc_capacity_is_respected(
        vpns in prop::collection::vec(0u64..4096, 1..200),
        shift in 0u32..=3,
    ) {
        let mut tlb = SetAssocTlb::new(32, 4, shift);
        for v in vpns {
            tlb.insert(CoalescedRun::single(
                Vpn::new(v),
                Pfn::new(v + 1),
                PteFlags::user_data(),
            ));
            prop_assert!(tlb.occupancy() <= 32);
        }
    }

    /// Fully-associative merging never changes what any vpn translates
    /// to, and occupancy never exceeds capacity.
    #[test]
    fn fa_merging_preserves_translations(
        segments in prop::collection::vec((0u64..2, 1u64..10), 1..30),
    ) {
        let mut tlb = FullyAssocTlb::new(8);
        let mut vpn = 1000u64;
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for (gap, len) in segments {
            vpn += gap;
            let run = CoalescedRun::new(
                Vpn::new(vpn),
                Pfn::new(vpn + 5_000), // single global anchor → merges legal
                len,
                PteFlags::user_data(),
            );
            tlb.insert_coalesced_with_merge(run);
            for v in vpn..vpn + len {
                expected.push((v, v + 5_000));
            }
            vpn += len;
            prop_assert!(tlb.occupancy() <= 8);
        }
        // Every vpn that still hits translates correctly.
        for (v, p) in expected {
            if let Some(pfn) = tlb.probe(Vpn::new(v)) {
                prop_assert_eq!(pfn.raw(), p);
            }
        }
        // Entries never overlap.
        let entries: Vec<_> = tlb.iter().map(TlbEntry::run).collect();
        for (i, a) in entries.iter().enumerate() {
            for b in &entries[i + 1..] {
                prop_assert!(
                    a.end_vpn() <= b.start_vpn || b.end_vpn() <= a.start_vpn,
                    "overlapping FA entries {:?} and {:?}", a, b
                );
            }
        }
    }

    /// End-to-end invariant: for any page table and any access sequence,
    /// every hierarchy mode returns exactly the page table's translation
    /// (TLBs must be transparent), and fills make the missed vpn present.
    #[test]
    fn hierarchies_are_transparent_caches(
        pt in arbitrary_page_table(),
        seed in 0u64..1000,
    ) {
        let mapped: Vec<Vpn> = pt.iter_base().map(|(v, _)| v).collect();
        prop_assume!(!mapped.is_empty());
        for config in [
            TlbConfig::baseline(),
            TlbConfig::colt_sa(),
            TlbConfig::colt_fa(),
            TlbConfig::colt_all(),
        ] {
            let mut tlb = TlbHierarchy::new(config);
            // Deterministic pseudo-random access pattern over mapped vpns.
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            for _ in 0..200 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let vpn = mapped[(state >> 33) as usize % mapped.len()];
                let expected = pt.translate(vpn).expect("accessing mapped page");
                match tlb.lookup(vpn) {
                    Some(hit) => prop_assert_eq!(
                        hit.pfn, expected.pfn,
                        "mode {:?} returned a wrong translation for {}",
                        config.mode, vpn
                    ),
                    None => {
                        tlb.fill(vpn, &WalkFill::Base { line: pt.pte_line(vpn) });
                        prop_assert_eq!(
                            tlb.lookup(vpn).map(|h| h.pfn),
                            Some(expected.pfn),
                            "fill must make {} present", vpn
                        );
                    }
                }
            }
            let s = tlb.stats();
            prop_assert_eq!(s.l1_hits + s.l1_misses, s.accesses);
            prop_assert_eq!(s.l2_hits + s.l2_misses, s.l1_misses);
        }
    }

    /// Coalescing modes never have *more* L2 misses than baseline on
    /// sequential sweeps over contiguous memory (the paper's core claim
    /// in its most favorable setting).
    #[test]
    fn coalescing_wins_on_contiguous_sweeps(pages in 32u64..256) {
        let mut pt = PageTable::new();
        for i in 0..pages {
            pt.map_base(Vpn::new(0x100 + i), Pte::new(Pfn::new(0x5000 + i), PteFlags::user_data()));
        }
        let run = |config: TlbConfig| {
            let mut tlb = TlbHierarchy::new(config);
            for sweep in 0..3 {
                for i in 0..pages {
                    let vpn = Vpn::new(0x100 + i);
                    if tlb.lookup(vpn).is_none() {
                        tlb.fill(vpn, &WalkFill::Base { line: pt.pte_line(vpn) });
                    }
                    let _ = sweep;
                }
            }
            tlb.stats().l2_misses
        };
        let base = run(TlbConfig::baseline());
        prop_assert!(run(TlbConfig::colt_sa()) <= base);
        prop_assert!(run(TlbConfig::colt_fa()) <= base);
        prop_assert!(run(TlbConfig::colt_all()) <= base);
    }
}

proptest! {
    /// Graceful invalidation removes exactly the victim translation:
    /// every other translation the entry held keeps translating exactly
    /// as before, in both set-associative and fully-associative TLBs.
    #[test]
    fn graceful_invalidation_is_surgical(
        start in 0u64..1000,
        len in 1u64..=8,
        victim_off in 0u64..8,
    ) {
        let victim_off = victim_off % len;
        let run = CoalescedRun::new(
            Vpn::new(start * 8), // group-aligned for shift 3
            Pfn::new(5000 + start * 8),
            len,
            PteFlags::user_data(),
        );
        let victim = run.start_vpn.offset(victim_off);

        let mut sa = SetAssocTlb::new(32, 4, 3);
        sa.insert(run);
        sa.invalidate_graceful(victim);
        let mut fa = FullyAssocTlb::new(8);
        fa.insert(TlbEntry::coalesced(run));
        fa.invalidate_graceful(victim);

        for v in run.start_vpn.raw()..run.end_vpn().raw() {
            let v = Vpn::new(v);
            let expected = if v == victim { None } else { run.translate(v) };
            prop_assert_eq!(sa.probe(v), expected, "SA at {}", v);
            prop_assert_eq!(fa.probe(v), expected, "FA at {}", v);
        }
    }

    /// The coalescing-aware replacement policy never violates capacity
    /// and never produces wrong translations.
    #[test]
    fn coalesced_first_policy_is_safe(
        runs in prop::collection::vec((0u64..256, 1u64..=4), 1..80),
    ) {
        use colt_tlb::replacement::ReplacementPolicy;
        let mut tlb = SetAssocTlb::new(16, 2, 2)
            .with_policy(ReplacementPolicy::SmallestCoalescedFirst);
        for (start, len) in runs {
            let run = CoalescedRun::new(
                Vpn::new(start),
                Pfn::new(start + 7000),
                len,
                PteFlags::user_data(),
            );
            if let Some(r) = run.restrict_to_group(Vpn::new(start), 2) {
                tlb.insert(r);
            }
            prop_assert!(tlb.occupancy() <= 16);
        }
        for v in 0..260u64 {
            if let Some(pfn) = tlb.probe(Vpn::new(v)) {
                prop_assert_eq!(pfn.raw(), v + 7000);
            }
        }
    }

    /// Masked coalescing with DIRTY ignored yields runs at least as long
    /// as strict coalescing, never longer than the line, and always
    /// correct.
    #[test]
    fn masked_coalescing_dominates_strict(dirty_mask in 0u8..=255) {
        use colt_tlb::coalesce::coalesce_line_masked;
        let mut pt = PageTable::new();
        for i in 0..8u64 {
            let flags = if dirty_mask & (1 << i) != 0 {
                PteFlags::user_data().with(PteFlags::DIRTY)
            } else {
                PteFlags::user_data()
            };
            pt.map_base(Vpn::new(64 + i), Pte::new(Pfn::new(900 + i), flags));
        }
        let line = pt.pte_line(Vpn::new(64));
        for i in 0..8u64 {
            let vpn = Vpn::new(64 + i);
            let strict = coalesce_line(&line, vpn).unwrap();
            let masked = coalesce_line_masked(&line, vpn, PteFlags::DIRTY).unwrap();
            prop_assert!(masked.len >= strict.len);
            prop_assert_eq!(masked.len, 8, "all frames contiguous, DIRTY tolerated");
            for v in masked.start_vpn.raw()..masked.end_vpn().raw() {
                let v = Vpn::new(v);
                prop_assert_eq!(masked.translate(v), Some(pt.translate(v).unwrap().pfn));
            }
        }
    }
}
