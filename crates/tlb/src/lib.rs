//! # colt-tlb — TLB structures and CoLT coalescing logic
//!
//! The paper's primary contribution ("CoLT: Coalesced Large-Reach TLBs",
//! MICRO 2012): hardware that coalesces multiple contiguous
//! virtual-to-physical translations into single TLB entries, exploiting
//! the intermediate page-allocation contiguity that OS buddy allocation,
//! memory compaction, and THS naturally generate.
//!
//! * [`entry`] — coalesced runs and the one entry type every structure
//!   holds (a run, its kind and its ASID tag; Figures 4–5),
//! * [`coalesce`] — the per-cache-line coalescing logic (§4.1.4),
//! * [`fully_assoc`] — the fully-associative range TLB of CoLT-FA (§4.2),
//!   which is also the one MRU-first entry list,
//! * [`set_assoc`] — set-associative TLBs with CoLT-SA's shifted
//!   indexing (§4.1.2), one small fully-associative list per set,
//! * [`config`] / [`hierarchy`] — the four hierarchy flavors: Baseline,
//!   CoLT-SA, CoLT-FA, CoLT-All (§4, Figures 4–6),
//! * [`stats`] — per-structure counters and miss accounting as the
//!   paper reports it (§7.1.1).
//!
//! ## Quick example
//!
//! ```
//! use colt_tlb::{config::TlbConfig, hierarchy::{TlbHierarchy, WalkFill}};
//! use colt_os_mem::page_table::{PageTable, Pte, PteFlags};
//! use colt_os_mem::addr::{Pfn, Vpn};
//!
//! // Four contiguous translations (vpn 8..12 → pfn 100..104).
//! let mut pt = PageTable::new();
//! for i in 0..4 {
//!     pt.map_base(Vpn::new(8 + i), Pte::new(Pfn::new(100 + i), PteFlags::user_data()));
//! }
//!
//! let mut tlb = TlbHierarchy::new(TlbConfig::colt_sa());
//! assert!(tlb.lookup(Vpn::new(8)).is_none());                  // cold miss
//! tlb.fill(Vpn::new(8), &WalkFill::Base { line: pt.pte_line(Vpn::new(8)) });
//! assert!(tlb.lookup(Vpn::new(11)).is_some());                 // coalesced hit
//! ```

pub mod coalesce;
pub mod config;
pub mod entry;
pub mod fully_assoc;
pub mod hierarchy;
pub mod prefetch;
pub mod replacement;
pub mod set_assoc;
pub mod stats;

pub use config::{ColtMode, TlbConfig};
pub use entry::CoalescedRun;
pub use hierarchy::{TlbHierarchy, TlbHit, TlbLevel, WalkFill};
pub use stats::{pct_misses_eliminated, HierarchyStats};
