//! # colt-memsim — memory-hierarchy substrate for the CoLT reproduction
//!
//! Models the memory system beneath the TLBs (paper §5.2.1): a
//! three-level cache hierarchy ([`hierarchy`]), a 22-entry MMU page-walk
//! cache ([`mmu_cache`]), and the page-table walker ([`walker`]) that
//! fetches 64-byte cache lines of eight PTEs — the window CoLT's
//! coalescing logic inspects after every miss. [`mmu`] joins the walkers
//! to a `colt-tlb` hierarchy in the one per-reference translate step the
//! simulator, the SMP cores and the differential oracle share.
//!
//! ## Quick example
//!
//! ```
//! use colt_memsim::{hierarchy::CacheHierarchy, mmu::Mmu};
//! use colt_os_mem::page_table::{PageTable, Pte, PteFlags};
//! use colt_os_mem::addr::{Pfn, Vpn};
//! use colt_tlb::config::TlbConfig;
//!
//! let mut pt = PageTable::new();
//! pt.map_base(Vpn::new(8), Pte::new(Pfn::new(100), PteFlags::user_data()));
//! let mut caches = CacheHierarchy::core_i7();
//! let mut mmu = Mmu::new(TlbConfig::baseline(), false);
//! assert!(mmu.lookup(Vpn::new(8)).is_none()); // miss: walk and fill
//! let outcome = mmu.walk_fill(&pt, Vpn::new(8), &mut caches).expect("mapped");
//! assert!(outcome.latency > 0);
//! assert_eq!(mmu.lookup(Vpn::new(8)).map(|hit| hit.pfn), Some(Pfn::new(100)));
//! ```

pub mod cache;
pub mod hierarchy;
pub mod latency;
pub mod mmu;
pub mod mmu_cache;
pub mod walker;

pub use cache::Cache;
pub use hierarchy::{CacheHierarchy, PrivateCaches, PteFetch, SharedLlc};
pub use latency::LatencyModel;
pub use mmu::Mmu;
pub use mmu_cache::MmuCache;
pub use walker::{PageWalker, WalkOutcome};
