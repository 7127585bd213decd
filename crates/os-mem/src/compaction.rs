//! The memory-compaction daemon (paper §3.2.2, Figure 3).
//!
//! Two-finger algorithm: a *migrate scanner* walks up from the bottom of
//! physical memory collecting movable allocated pages, while a *free
//! scanner* walks down from the top collecting free pages. Movable pages
//! are migrated into the free slots until the scanners meet, consolidating
//! free memory into contiguous low regions that the buddy allocator then
//! merges into large blocks — a major source of the intermediate
//! contiguity CoLT exploits.

use crate::addr::{Asid, Pfn};
use crate::buddy::BuddyAllocator;
use crate::frames::{FrameDb, FrameState};
use crate::process::Process;
use crate::shootdown::{ShootdownEvent, ShootdownKind, ShootdownLog};
use std::collections::BTreeMap;

/// Outcome of one compaction pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CompactionStats {
    /// Pages migrated from low to high frames.
    pub migrated: u64,
    /// Movable pages examined by the migrate scanner.
    pub scanned: u64,
    /// The pass stopped because its migration budget ran out while
    /// movable work remained (Linux's `COMPACT_PARTIAL`): the caller's
    /// allocation may still fail and should back off before retrying.
    pub aborted: bool,
}

/// How far a compaction pass runs before giving up.
///
/// Real kernels compact *incrementally*: direct compaction stops as soon
/// as a block of the requested order becomes available, and background
/// compaction works in bounded slices. A full unconditional pass (the
/// default control) is the upper bound.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CompactionControl {
    /// Stop once a free block of this order exists (direct compaction for
    /// a specific allocation).
    pub target_order: Option<u32>,
    /// Stop after migrating this many pages (background slice).
    pub max_migrations: Option<u64>,
}

impl CompactionControl {
    /// Direct compaction on behalf of an order-`order` allocation.
    pub fn until_order(order: u32) -> Self {
        Self { target_order: Some(order), max_migrations: None }
    }

    /// A bounded background slice.
    pub fn slice(max_migrations: u64) -> Self {
        Self { target_order: None, max_migrations: Some(max_migrations) }
    }

    /// Scales the migration budget by `factor` — how an [`MmPolicy`]
    /// widens (or keeps) the work a direct-compaction pass may do.
    /// `factor == 1` is the identity, preserving the control bit-for-bit.
    ///
    /// [`MmPolicy`]: crate::policy::MmPolicy
    pub fn scaled(self, factor: u64) -> Self {
        Self {
            target_order: self.target_order,
            max_migrations: self.max_migrations.map(|m| m.saturating_mul(factor)),
        }
    }
}

/// Runs one full compaction pass over physical memory.
///
/// Pinned and superpage-backing frames are skipped (they are not movable,
/// paper Figure 3). Page tables of affected processes are fixed through
/// the frame database's reverse map, so translations stay correct.
pub fn compact(
    buddy: &mut BuddyAllocator,
    frames: &mut FrameDb,
    processes: &mut BTreeMap<Asid, Process>,
) -> CompactionStats {
    compact_with(buddy, frames, processes, CompactionControl::default())
}

/// Pageblock granularity for the migrate scanner's density heuristic
/// (Linux pageblocks are 512 pages: one 2MB superpage).
const PAGEBLOCK_PAGES: u64 = 512;

/// The migrate scanner skips pageblocks denser than this: evacuating a
/// nearly full block costs many migrations and yields little free space,
/// so real compaction concentrates on sparsely used blocks. This is also
/// what keeps compaction from shredding the long contiguity runs of
/// densely backed allocations.
const MIGRATE_DENSITY_LIMIT: f64 = 0.8;

/// Free pages isolated per free-scanner batch. Targets are consumed in
/// ascending frame order within a batch, so a migrated run of pages stays
/// a run (Linux's `isolate_freepages` behaves the same way).
const FREE_BATCH: usize = 512;

/// Runs a compaction pass under the given [`CompactionControl`].
pub fn compact_with(
    buddy: &mut BuddyAllocator,
    frames: &mut FrameDb,
    processes: &mut BTreeMap<Asid, Process>,
    control: CompactionControl,
) -> CompactionStats {
    let mut log = ShootdownLog::new();
    compact_logged(buddy, frames, processes, control, &mut log)
}

/// Runs a compaction pass, recording a [`ShootdownKind::Migrate`] event
/// per migrated page into `log` (when enabled) — the shootdown traffic a
/// real kernel would issue to every CPU caching the moved translation.
pub fn compact_logged(
    buddy: &mut BuddyAllocator,
    frames: &mut FrameDb,
    processes: &mut BTreeMap<Asid, Process>,
    control: CompactionControl,
    log: &mut ShootdownLog,
) -> CompactionStats {
    let mut stats = CompactionStats::default();
    let mut migrate_cursor = Pfn::new(0);
    // The free scanner's upper bound moves down as batches are isolated.
    let mut free_limit = Pfn::new(buddy.nr_frames());
    // The current batch of isolated target frames, ascending.
    let mut batch: Vec<Pfn> = Vec::new();
    let mut batch_next = 0usize;

    'outer: loop {
        if let Some(order) = control.target_order {
            if buddy.largest_free_order().is_some_and(|o| o >= order) {
                break;
            }
        }
        if let Some(max) = control.max_migrations {
            if stats.migrated >= max {
                stats.aborted = true;
                break;
            }
        }
        // Migrate scanner: next movable page from the bottom, skipping
        // densely occupied pageblocks.
        let src = loop {
            let Some(candidate) = frames.first_movable_at_or_above(migrate_cursor) else {
                break 'outer;
            };
            let block_start = candidate.align_down(9);
            let block_end = block_start.raw() + PAGEBLOCK_PAGES;
            if frames.pageblock_density(candidate) > MIGRATE_DENSITY_LIMIT {
                // Too dense: skip the whole pageblock.
                migrate_cursor = Pfn::new(block_end);
                if migrate_cursor.raw() >= frames.nr_frames() {
                    break 'outer;
                }
                continue;
            }
            break candidate;
        };
        // Scanners met: the migrate scanner reached the free scanner's
        // lowest isolated frame.
        if src >= free_limit {
            break;
        }

        // Free scanner: refill the target batch from the top when empty.
        if batch_next >= batch.len() {
            batch.clear();
            batch_next = 0;
            while batch.len() < FREE_BATCH {
                let Some(f) = buddy.highest_free_page_below(free_limit) else {
                    break;
                };
                // The free scanner never isolates targets at/below the
                // migrate scanner, nor inside its pageblock (the two
                // scanners work distinct pageblocks, as in Linux).
                if f <= src || f.align_down(9) == src.align_down(9) {
                    break;
                }
                let claimed = buddy.take_free_page(f);
                debug_assert!(claimed, "free scanner returned a non-free frame");
                batch.push(f);
                free_limit = f;
            }
            if batch.is_empty() {
                break;
            }
            batch.reverse(); // consume in ascending frame order
        }

        let dst = batch[batch_next];
        debug_assert!(dst > src, "targets stay above the migrate scanner");
        batch_next += 1;
        stats.scanned += 1;

        let (owner, vpn) = frames
            .rmap(src)
            .expect("migrate scanner found a movable frame without rmap");

        // Migrate: retarget the owner's PTE, update frame states, and
        // release the source frame back to the buddy allocator.
        let process = processes
            .get_mut(&owner)
            .expect("rmap names a process that no longer exists");
        if log.is_enabled() {
            let entry_addrs = process
                .page_table
                .walk(vpn)
                .map(|p| p.entry_addrs().to_vec())
                .unwrap_or_default();
            log.record(ShootdownEvent {
                asid: owner,
                vpn,
                kind: ShootdownKind::Migrate,
                entry_addrs,
                old_pfn: Some(src),
                new_pfn: Some(dst),
            });
        }
        let old = process.page_table.remap_base(vpn, dst);
        debug_assert!(old.is_some(), "rmap and page table out of sync");
        frames.set(dst, FrameState::Movable { owner, vpn });
        frames.set(src, FrameState::Free);
        buddy.free_block(src, 0);
        stats.migrated += 1;

        migrate_cursor = src.next();
    }
    // Return any unconsumed isolated targets.
    for &p in &batch[batch_next..] {
        buddy.free_block(p, 0);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Vpn;
    use crate::page_table::{Pte, PteFlags};

    /// Builds a toy system: `nr` frames, one process, with `layout`
    /// describing which frames are allocated to consecutive vpns.
    fn build(
        nr: u64,
        allocated: &[u64],
        pinned: &[u64],
    ) -> (BuddyAllocator, FrameDb, BTreeMap<Asid, Process>) {
        let mut buddy = BuddyAllocator::new(nr);
        let mut frames = FrameDb::new(nr);
        let asid = Asid(1);
        let mut proc = Process::new(asid, 1 << 20);
        for (i, &pfn) in allocated.iter().enumerate() {
            assert!(buddy.take_free_page(Pfn::new(pfn)));
            let vpn = Vpn::new(0x1000 + i as u64);
            proc.page_table
                .map_base(vpn, Pte::new(Pfn::new(pfn), PteFlags::user_data()));
            frames.set(Pfn::new(pfn), FrameState::Movable { owner: asid, vpn });
        }
        for &pfn in pinned {
            assert!(buddy.take_free_page(Pfn::new(pfn)));
            frames.set(Pfn::new(pfn), FrameState::Pinned);
        }
        let mut procs = BTreeMap::new();
        procs.insert(asid, proc);
        (buddy, frames, procs)
    }

    #[test]
    fn compaction_defragments_scattered_pages() {
        // 16 pages scattered over the bottom pageblock of a two-block
        // memory; compaction must evacuate them to the top block.
        let movable: Vec<u64> = (0..32).step_by(2).collect();
        let (mut buddy, mut frames, mut procs) = build(1024, &movable, &[]);
        let stats = compact(&mut buddy, &mut frames, &mut procs);
        assert_eq!(stats.migrated, 16);
        assert!(!stats.aborted, "an unbounded pass runs to completion");
        buddy.check_invariants();
        let counts = frames.counts();
        assert_eq!(counts.movable, 16);
        assert_eq!(counts.free, 1008);
        for p in 0..512u64 {
            assert!(buddy.is_free(Pfn::new(p)), "bottom frame {p} should be free");
        }
        // And the bottom block merged back into a maximal free block.
        assert_eq!(buddy.largest_free_order(), Some(crate::buddy::MAX_ORDER.min(9)));
    }

    #[test]
    fn page_tables_stay_correct_after_migration() {
        let (mut buddy, mut frames, mut procs) = build(32, &[1, 3, 5, 7, 9], &[]);
        compact(&mut buddy, &mut frames, &mut procs);
        let proc = procs.get(&Asid(1)).unwrap();
        for i in 0..5u64 {
            let vpn = Vpn::new(0x1000 + i);
            let t = proc.translate(vpn).expect("still mapped");
            // The frame the PTE points to must be recorded as owned by us.
            assert_eq!(frames.rmap(t.pfn), Some((Asid(1), vpn)));
            assert!(!buddy.is_free(t.pfn));
        }
    }

    #[test]
    fn pinned_frames_are_never_moved() {
        let (mut buddy, mut frames, mut procs) = build(16, &[2, 4], &[0, 6]);
        compact(&mut buddy, &mut frames, &mut procs);
        assert_eq!(frames.state(Pfn::new(0)), FrameState::Pinned);
        assert_eq!(frames.state(Pfn::new(6)), FrameState::Pinned);
        assert!(!buddy.is_free(Pfn::new(0)));
        assert!(!buddy.is_free(Pfn::new(6)));
    }

    #[test]
    fn direct_compaction_stops_at_the_target_order() {
        // 1024 frames: movable pages at every 8th frame of the bottom
        // 256, pins at every 32nd frame of the top 768 — so no free
        // order-5 (32-page) block exists anywhere until the bottom gets
        // evacuated a little.
        let movable: Vec<u64> = (4..256).step_by(8).collect();
        let pinned: Vec<u64> = (256..1024).step_by(32).collect();
        let (mut buddy, mut frames, mut procs) = build(1024, &movable, &pinned);
        assert!(buddy.largest_free_order().unwrap() < 5);

        let partial = compact_with(
            &mut buddy,
            &mut frames,
            &mut procs,
            CompactionControl::until_order(5),
        );
        assert!(buddy.largest_free_order().unwrap() >= 5, "target reached");
        assert!(
            partial.migrated < movable.len() as u64 / 2,
            "must stop early ({} migrations), not evacuate everything",
            partial.migrated
        );
        buddy.check_invariants();
    }

    #[test]
    fn migration_preserves_run_order() {
        // A 16-page movable run in a sparse pageblock must still be a
        // contiguous ascending run after compaction moves it (the
        // ascending-batch free scanner).
        let movable: Vec<u64> = (8..24).collect();
        let (mut buddy, mut frames, mut procs) = build(1024, &movable, &[]);
        // Occupy the run's own frames' neighborhood lightly; density is
        // 16/512 so the block is a migration source.
        compact_with(&mut buddy, &mut frames, &mut procs, CompactionControl::default());
        let proc = procs.get(&Asid(1)).unwrap();
        let first = proc.translate(Vpn::new(0x1000)).unwrap().pfn;
        for i in 0..16u64 {
            let t = proc.translate(Vpn::new(0x1000 + i)).unwrap();
            assert_eq!(
                t.pfn,
                first.offset(i),
                "page {i} broke the run after migration"
            );
        }
        buddy.check_invariants();
    }

    #[test]
    fn dense_pageblocks_are_not_evacuated() {
        // Fill most of the first pageblock with a movable run: density
        // 0.875 > limit, so compaction must leave it alone even though
        // the pages are movable.
        let movable: Vec<u64> = (0..448).collect();
        let (mut buddy, mut frames, mut procs) = build(1024, &movable, &[]);
        let stats = compact_with(&mut buddy, &mut frames, &mut procs, CompactionControl::default());
        assert_eq!(stats.migrated, 0, "dense block must be skipped");
        let proc = procs.get(&Asid(1)).unwrap();
        assert_eq!(proc.translate(Vpn::new(0x1000)).unwrap().pfn, Pfn::new(0));
    }

    #[test]
    fn sliced_compaction_respects_migration_budget() {
        let allocated: Vec<u64> = (0..32).step_by(2).collect();
        let (mut buddy, mut frames, mut procs) = build(1024, &allocated, &[]);
        let stats = compact_with(&mut buddy, &mut frames, &mut procs, CompactionControl::slice(3));
        assert_eq!(stats.migrated, 3);
        assert!(stats.aborted, "the budget cut the pass short");
        buddy.check_invariants();
    }

    #[test]
    fn compaction_of_already_compact_memory_is_a_noop() {
        // Pages at the very top already: nothing below them is worth moving.
        let (mut buddy, mut frames, mut procs) = build(16, &[14, 15], &[]);
        let stats = compact(&mut buddy, &mut frames, &mut procs);
        assert_eq!(stats.migrated, 0);
        let proc = procs.get(&Asid(1)).unwrap();
        assert_eq!(proc.translate(Vpn::new(0x1000)).unwrap().pfn, Pfn::new(14));
    }

    #[test]
    fn compaction_with_no_free_memory_is_a_noop() {
        let allocated: Vec<u64> = (0..16).collect();
        let (mut buddy, mut frames, mut procs) = build(16, &allocated, &[]);
        assert_eq!(buddy.free_frames(), 0);
        let stats = compact(&mut buddy, &mut frames, &mut procs);
        assert_eq!(stats.migrated, 0);
    }

    #[test]
    fn repeated_compaction_is_idempotent() {
        let (mut buddy, mut frames, mut procs) = build(1024, &[0, 5, 10, 15, 20], &[]);
        compact(&mut buddy, &mut frames, &mut procs);
        let frag = buddy.fragmentation_index();
        let stats = compact(&mut buddy, &mut frames, &mut procs);
        assert_eq!(stats.migrated, 0, "second pass has nothing to do");
        assert_eq!(buddy.fragmentation_index(), frag);
        buddy.check_invariants();
    }
}
