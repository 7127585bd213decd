//! # colt-core — the CoLT reproduction's simulation engine
//!
//! Ties the substrates together into the paper's experiments:
//! [`colt_os_mem`] (buddy allocator, compaction, THS, page tables)
//! generates the contiguity; [`colt_tlb`] implements the Baseline /
//! CoLT-SA / CoLT-FA / CoLT-All hierarchies; [`colt_memsim`] walks page
//! tables through the cache hierarchy; [`colt_workloads`] models the 14
//! Table-1 benchmarks. This crate adds:
//!
//! * [`sim`] — the trace-driven simulation loop (§5.2.1),
//! * [`perf`] — the paper's performance-interpolation model,
//! * [`experiments`] — one driver per table/figure (Table 1, Figures
//!   7–21, plus the §7.1.3 ablation and extras),
//! * [`runner`] — the parallel sweep runner the drivers fan out on
//!   (deterministic results, shared workload preparation, per-cell
//!   panic isolation),
//! * [`journal`] — the durable, checksummed cell journal behind
//!   `repro --resume` crash recovery,
//! * [`snapshot_cache`] — the process-global preparation cache whose
//!   durable snapshots let a warm `repro` invocation skip workload
//!   preparation entirely,
//! * [`artifact`] — atomic, verified result-file writes and the
//!   `BENCH_*.json` builders,
//! * [`serve`] / [`serve_bench`] — the resident `repro serve`
//!   translation/sweep server (persistent translate workers over the
//!   snapshot cache, single-flight preparations and sweeps, an LRU
//!   result cache, a bounded queue, a connection cap and priority
//!   shedding) and its load
//!   generator, [`lru`] the bounded map it and the snapshot cache
//!   share,
//! * [`report`] / [`metrics`] — output formatting and comparisons.
//!
//! The `repro` binary regenerates any experiment:
//! `cargo run --release -p colt-core --bin repro -- fig18`.
//!
//! ## Quick example
//!
//! ```
//! use colt_core::sim::{self, SimConfig};
//! use colt_tlb::config::TlbConfig;
//! use colt_workloads::{scenario::Scenario, spec::benchmark};
//!
//! # fn main() -> colt_os_mem::error::MemResult<()> {
//! let spec = benchmark("Gobmk").expect("a Table-1 benchmark");
//! let workload = Scenario::default_linux().prepare(&spec)?;
//! let baseline = sim::run(&workload, &SimConfig::new(TlbConfig::baseline()).with_accesses(20_000));
//! let colt = sim::run(&workload, &SimConfig::new(TlbConfig::colt_all()).with_accesses(20_000));
//! assert!(colt.tlb.l2_misses <= baseline.tlb.l2_misses);
//! # Ok(())
//! # }
//! ```

pub mod artifact;
pub mod chaos_serve;
pub mod check;
pub mod experiments;
pub mod io_faults;
pub mod journal;
pub mod lru;
pub mod metrics;
pub mod perf;
pub mod report;
pub mod runner;
pub mod serve;
pub mod serve_bench;
pub mod sim;
pub mod snapshot_cache;
pub mod vfs;

pub use experiments::{ExperimentOptions, ExperimentOutput};
pub use perf::PerfModel;
pub use report::Table;
pub use sim::{SimConfig, SimResult};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering the data if a previous holder panicked.
/// Every mutex locked this way guards state that stays consistent
/// across a mid-critical-section panic (append-only registries, queues
/// whose items are consumed whole, slots whose state changes in one
/// assignment, caches of finished values), so poisoning carries no
/// information.
pub(crate) fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a `catch_unwind` payload as the human-readable panic message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "panic with non-string payload".to_string()
    }
}
