//! Oracle-driven interleaving tests: the differential checker
//! ([`colt_core::check`]) replaying adversarial orderings of kernel
//! events against live TLB + page-walk-cache state, across every TLB
//! configuration and THS setting.

use colt_core::check::{self, FuzzEvent};
use colt_memsim::hierarchy::CacheHierarchy;
use colt_memsim::mmu::Mmu;
use colt_os_mem::kernel::{CompactionMode, Kernel, KernelConfig};
use colt_os_mem::policy::PolicyKind;
use colt_tlb::config::TlbConfig;

/// Regression for the compaction-migration stale-TLB path: before the
/// per-VPN shootdown protocol, migrated pages kept answering lookups
/// with their pre-move frames, and the walker's MMU cache kept serving
/// the pre-move paging structures. The oracle must see the staleness,
/// and the recorded [`colt_os_mem::shootdown::ShootdownEvent`]s must be
/// sufficient to clear it entry by entry — no full flush.
#[test]
fn compaction_migration_shootdown_restores_coherence() {
    let mut kernel = Kernel::new(KernelConfig {
        nr_frames: 4096,
        ths_enabled: false,
        compaction: CompactionMode::Low,
        ..KernelConfig::default()
    });
    let asid = kernel.spawn();
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
    let mut caches = CacheHierarchy::core_i7();
    for &base in &keep {
        for i in 0..8 {
            let vpn = base.offset(i);
            if mmu.lookup(vpn).is_none() {
                let pt = kernel.process(asid).unwrap().page_table();
                mmu.walk_fill(pt, vpn, &mut caches).expect("mapped");
            }
        }
    }

    kernel.enable_shootdown_log();
    kernel.compact_now();
    let events = kernel.take_shootdowns();
    assert!(!events.is_empty(), "fragmented heap must migrate pages");
    let resident_moved = events
        .iter()
        .any(|ev| mmu.lookup(ev.vpn).is_some_and(|hit| Some(hit.pfn) == ev.old_pfn));
    assert!(resident_moved, "a resident translation must have moved");

    // The oracle sees the staleness the miss counters never would.
    let pt = kernel.process(asid).unwrap().page_table();
    assert!(
        !check::check_hierarchy(mmu.tlb(), pt).is_empty(),
        "stale post-migration entries must fail the oracle"
    );

    // Deliver each shootdown per-VPN: TLB entry plus the cached
    // paging-structure entries that led to it.
    for ev in &events {
        mmu.shootdown(ev);
        for &addr in &ev.entry_addrs {
            assert!(
                !mmu.walker().mmu_contains(addr),
                "MMU cache must drop shot entry {addr:?}"
            );
        }
    }
    let pt = kernel.process(asid).unwrap().page_table();
    assert_eq!(check::check_hierarchy(mmu.tlb(), pt), vec![]);

    // Re-walks land on the migrated frames.
    for ev in &events {
        let walk = mmu.walk_fill(pt, ev.vpn, &mut caches).expect("still mapped");
        assert_eq!(Some(walk.translation.pfn), ev.new_pfn, "walk must see the new frame");
    }
}

/// Hand-picked adversarial orderings of kernel events around
/// translation bursts. Each list replays clean — zero violations —
/// under every TLB configuration (plus its future-work variant) and
/// with THS on and off.
#[test]
fn fixed_interleavings_are_clean_across_configs_and_ths() {
    let orderings: [&[FuzzEvent]; 3] = [
        // Compaction racing translation, then THP split + puncture.
        &[
            FuzzEvent::Translate { salt: 11, count: 48 },
            FuzzEvent::Compact,
            FuzzEvent::Translate { salt: 12, count: 48 },
            FuzzEvent::SplitSupers { n: 1 },
            FuzzEvent::Translate { salt: 13, count: 48 },
        ],
        // Reclaim (unmap) and refault around a context switch.
        &[
            FuzzEvent::Translate { salt: 21, count: 32 },
            FuzzEvent::Reclaim { target: 48 },
            FuzzEvent::Translate { salt: 22, count: 48 },
            FuzzEvent::ContextSwitch,
            FuzzEvent::Translate { salt: 23, count: 32 },
            FuzzEvent::Reclaim { target: 32 },
            FuzzEvent::ContextSwitch,
            FuzzEvent::Translate { salt: 24, count: 32 },
        ],
        // munmap + fresh allocation + background ticks + dirtying.
        &[
            FuzzEvent::Translate { salt: 31, count: 48 },
            FuzzEvent::Free { slot: 1 },
            FuzzEvent::Malloc { pages: 600 },
            FuzzEvent::Translate { salt: 32, count: 48 },
            FuzzEvent::Tick,
            FuzzEvent::MarkDirty { salt: 33 },
            FuzzEvent::Translate { salt: 34, count: 48 },
        ],
    ];
    let configs = [
        TlbConfig::baseline(),
        TlbConfig::colt_sa(),
        TlbConfig::colt_fa(),
        TlbConfig::colt_all(),
    ];
    for config in configs {
        for cfg in [config, config.with_future_work()] {
            for ths in [true, false] {
                let kcfg = if ths {
                    KernelConfig { nr_frames: 1 << 14, ..KernelConfig::ths_on() }
                } else {
                    KernelConfig { nr_frames: 1 << 14, ..KernelConfig::ths_off() }
                };
                for (i, events) in orderings.iter().enumerate() {
                    let outcome = check::replay(cfg, kcfg, events, None);
                    assert_eq!(
                        outcome.violations,
                        vec![],
                        "ordering {i} under {:?} ths={ths}",
                        cfg.mode
                    );
                    assert!(outcome.translations > 0);
                }
            }
        }
    }
}

/// The fuzz sweep fans out through the PR-1 parallel runner; its report
/// (labels, seeds, violations, minimised reproducers, translation
/// counts) must be byte-identical at any worker count.
#[test]
fn fuzz_report_is_identical_at_jobs_1_and_8() {
    let serial = check::run_check(2, 48, 1, None, PolicyKind::Default);
    let wide = check::run_check(2, 48, 8, None, PolicyKind::Default);
    assert_eq!(serial, wide);
    assert!(serial.is_clean(), "fuzz cases must be clean: {:?}", serial.cases);
}
