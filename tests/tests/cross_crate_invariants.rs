//! Invariants that only hold (or break) across crate boundaries:
//! kernel memory management interacting with TLB state and walkers.

use colt_memsim::hierarchy::CacheHierarchy;
use colt_memsim::mmu::Mmu;
use colt_os_mem::addr::{Asid, Vpn};
use colt_os_mem::kernel::{Kernel, KernelConfig};
use colt_tests::prepare;
use colt_tlb::config::TlbConfig;

/// Walk `vpn` in a kernel page table and fill the MMU from it.
fn walk_and_fill(kernel: &Kernel, asid: Asid, mmu: &mut Mmu, vpn: Vpn) {
    let pt = kernel.process(asid).unwrap().page_table();
    mmu.walk_fill(pt, vpn, &mut CacheHierarchy::core_i7()).expect("mapped");
}

#[test]
fn compaction_invalidation_protocol_keeps_tlb_coherent() {
    // Migrate pages under a live TLB: after invalidating the moved
    // translations (as an OS must), lookups re-walk and see new frames.
    let mut kernel = Kernel::new(KernelConfig {
        nr_frames: 4096,
        ths_enabled: false,
        compaction: colt_os_mem::kernel::CompactionMode::Low,
        ..KernelConfig::default()
    });
    let asid = kernel.spawn();
    // Scatter allocations so compaction has work.
    let mut keep = Vec::new();
    for i in 0..32 {
        let base = kernel.malloc(asid, 8).unwrap();
        if i % 2 == 0 {
            kernel.free(asid, base).unwrap();
        } else {
            keep.push(base);
        }
    }
    let mut mmu = Mmu::new(TlbConfig::colt_all(), false);
    for &base in &keep {
        for i in 0..8 {
            let vpn = base.offset(i);
            if mmu.lookup(vpn).is_none() {
                walk_and_fill(&kernel, asid, &mut mmu, vpn);
            }
        }
    }
    let before = kernel.process(asid).unwrap().translate(keep[0]).unwrap().pfn;
    kernel.compact_now();
    let after = kernel.process(asid).unwrap().translate(keep[0]).unwrap().pfn;

    // OS invalidates every (possibly stale) translation it moved.
    let pt = kernel.process(asid).unwrap().page_table();
    for &base in &keep {
        for i in 0..8 {
            mmu.invalidate(pt, base.offset(i));
        }
    }
    // Every lookup now misses (checked before any refill, since one
    // refill coalesces neighbors back in)...
    for &base in &keep {
        for i in 0..8 {
            assert!(
                mmu.lookup(base.offset(i)).is_none(),
                "stale entry survived invalidation"
            );
        }
    }
    // ...and re-filling yields the migrated frames.
    for &base in &keep {
        for i in 0..8 {
            let vpn = base.offset(i);
            if mmu.lookup(vpn).is_none() {
                walk_and_fill(&kernel, asid, &mut mmu, vpn);
            }
            let hit = mmu.lookup(vpn).expect("refilled");
            let truth = kernel.process(asid).unwrap().translate(vpn).unwrap().pfn;
            assert_eq!(hit.pfn, truth);
        }
    }
    // The compaction itself must have moved something for this test to
    // mean anything.
    assert_ne!(before, after, "compaction should have migrated keep[0]");
}

#[test]
fn superpage_split_then_walk_produces_base_fills() {
    let mut kernel = Kernel::new(KernelConfig { nr_frames: 8192, ..KernelConfig::default() });
    let asid = kernel.spawn();
    let base = kernel.malloc(asid, 512).unwrap();
    assert_eq!(kernel.live_superpage_count(), 1);

    // While the superpage is live, a walk fills the superpage TLB.
    let mut mmu = Mmu::new(TlbConfig::baseline(), false);
    walk_and_fill(&kernel, asid, &mut mmu, base.offset(7));
    assert_eq!(mmu.tlb().stats().superpage_fills, 1);
    assert_eq!(mmu.tlb().sp().occupancy(), 1);

    // Split it (with puncturing); invalidate; re-walk: base fills now.
    kernel.split_superpages(1);
    mmu.invalidate(kernel.process(asid).unwrap().page_table(), base.offset(7));
    assert!(mmu.lookup(base.offset(7)).is_none());
    walk_and_fill(&kernel, asid, &mut mmu, base.offset(7));
    assert_eq!(mmu.tlb().stats().superpage_fills, 1, "no new superpage fill after split");
    let hit = mmu.lookup(base.offset(7)).expect("refilled as base page");
    let truth = kernel.process(asid).unwrap().translate(base.offset(7)).unwrap();
    assert_eq!(hit.pfn, truth.pfn);
    assert!(matches!(truth.kind, colt_os_mem::page_table::PageKind::Base));
}

#[test]
fn coalesced_entries_survive_unrelated_kernel_activity() {
    // TLB entries reference frames; unrelated allocation elsewhere in the
    // kernel must not perturb what a resident coalesced entry translates.
    let w = prepare("Gobmk");
    let proc = w.kernel.process(w.asid).unwrap();
    let mut mmu = Mmu::new(TlbConfig::colt_fa(), false);
    let probe: Vec<Vpn> = w.footprint.iter().copied().take(64).collect();
    for &vpn in &probe {
        if mmu.lookup(vpn).is_none() {
            walk_and_fill(&w.kernel, w.asid, &mut mmu, vpn);
        }
    }
    for &vpn in &probe {
        if let Some(hit) = mmu.lookup(vpn) {
            assert_eq!(hit.pfn, proc.translate(vpn).unwrap().pfn);
        }
    }
}

#[test]
fn memhog_load_raises_tlb_pressure_benchmarks_walk_more_or_equal() {
    // More fragmentation → shorter runs → less coalescing benefit. The
    // *baseline* miss counts stay comparable (same pattern), but the
    // CoLT-FA advantage shrinks.
    use colt_core::sim::{self, SimConfig};
    use colt_workloads::scenario::Scenario;
    use colt_workloads::spec::benchmark;
    let spec = benchmark("CactusADM").unwrap();
    let light = Scenario::default_linux().prepare(&spec).unwrap();
    let heavy = Scenario::default_with_memhog(0.5).prepare(&spec).unwrap();
    let run = |w| sim::run(w, &SimConfig::new(TlbConfig::colt_fa()).with_accesses(30_000));
    let light_r = run(&light);
    let heavy_r = run(&heavy);
    assert!(
        heavy_r.tlb.avg_coalescing() <= light_r.tlb.avg_coalescing() + 0.5,
        "heavy fragmentation should not coalesce better: {:.2} vs {:.2}",
        heavy_r.tlb.avg_coalescing(),
        light_r.tlb.avg_coalescing()
    );
}
