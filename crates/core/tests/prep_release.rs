//! A sweep lets go of each preparation after its last cell, and of each
//! recorded reference stream after its last replay. With the snapshot
//! cache off nothing else holds a prepared workload, so an earlier
//! pair's preparation is freed before a later pair's cell runs, and an
//! earlier stream's recording before a later stream records. This
//! binary counts live heap bytes with its own global allocator, so the
//! file holds a single test and runs in a process of its own.

use colt_core::runner::{run_cells_outcomes, CellOutcome, SweepCell};
use colt_core::sim::SimConfig;
use colt_core::snapshot_cache;
use colt_tlb::config::TlbConfig;
use colt_workloads::scenario::Scenario;
use colt_workloads::spec::benchmark;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts the bytes currently allocated through it.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to the system allocator unchanged and
// only counts bytes on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged to the system allocator.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn an_earlier_preparation_is_dropped_before_a_later_pair_runs() {
    snapshot_cache::set_enabled(false);
    let scenario = Scenario::default_linux();
    let (first, second) = (benchmark("Mcf").unwrap(), benchmark("Gobmk").unwrap());
    let heap_of = |spec| {
        let before = live();
        let held = scenario.prepare(spec).expect("the scenario prepares");
        let bytes = live() - before;
        drop(held);
        bytes
    };
    let (first_bytes, second_bytes) = (heap_of(&first), heap_of(&second));

    // One worker runs the queue in order: both cells of the first pair,
    // then the cell of the second. Each reports the heap it ran beside.
    let base = live();
    let cell = |label: &str, spec| {
        SweepCell::new(label, &scenario, spec, 0, move |_| live().saturating_sub(base))
    };
    let cells = vec![cell("first/0", &first), cell("first/1", &first), cell("second/0", &second)];
    let seen = live_seen(run_cells_outcomes(cells, 1));
    assert!(
        seen[1] >= first_bytes,
        "the first pair's last cell runs beside its preparation ({} of {first_bytes} bytes)",
        seen[1]
    );
    assert!(
        seen[2] < second_bytes + first_bytes / 2,
        "the second pair's cell must run beside its own preparation only \
         ({} bytes live; {second_bytes} per second, {first_bytes} per first preparation)",
        seen[2]
    );

    // Two stream groups of one pair, one after the other: each group's
    // first cell records 220k references (8 B each), its second
    // replays them. Each reports the heap beside it once its simulation
    // has ended, the recording included.
    let recording_bytes = 8 * 220_000;
    let base = live();
    let sim_cell = |label: &str, seed: u64, tlb: TlbConfig| {
        let cfg = SimConfig { pattern_seed: seed, ..SimConfig::new(tlb).with_accesses(200_000) };
        SweepCell::sim_then(label, &scenario, &first, cfg, move |_, _| live().saturating_sub(base))
    };
    let cells = vec![
        sim_cell("stream1/record", 1, TlbConfig::baseline()),
        sim_cell("stream1/replay", 1, TlbConfig::colt_all()),
        sim_cell("stream2/record", 2, TlbConfig::baseline()),
        sim_cell("stream2/replay", 2, TlbConfig::colt_all()),
    ];
    let seen = live_seen(run_cells_outcomes(cells, 1));
    assert!(
        seen[2] < seen[0] + recording_bytes / 2,
        "the second group's recorder must not run beside the first group's \
         recording ({} bytes live; {} beside the first recorder, {recording_bytes} \
         per recording)",
        seen[2],
        seen[0]
    );
}

/// Each cell's reported live bytes, in submission order.
fn live_seen(outcomes: Vec<CellOutcome<usize>>) -> Vec<usize> {
    outcomes
        .into_iter()
        .map(|o| match o {
            CellOutcome::Ok(bytes) => bytes,
            other => panic!("a cell failed: {other:?}"),
        })
        .collect()
}
