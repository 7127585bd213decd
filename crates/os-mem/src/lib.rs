//! # colt-os-mem — OS memory-management substrate for the CoLT reproduction
//!
//! This crate models the Linux-era (2.6.38) memory-management machinery
//! whose *side effect* — intermediate page-allocation contiguity — is what
//! CoLT ("Coalesced Large-Reach TLBs", MICRO 2012) exploits:
//!
//! * [`buddy`] — the buddy allocator (paper §3.2.1, Figures 1–2),
//! * [`compaction`] — the memory-compaction daemon (§3.2.2, Figure 3),
//! * [`thp`] — transparent hugepage support (§3.2.3),
//! * [`memhog`] — fragmentation load (§5.1.1),
//! * [`page_table`] — 4-level page tables with walk simulation support,
//! * [`kernel`] — the facade tying it all together,
//! * [`contiguity`] — the paper's contiguity metric and CDFs (§3.1, §6).
//!
//! ## Quick example
//!
//! ```
//! use colt_os_mem::kernel::{Kernel, KernelConfig};
//!
//! # fn main() -> Result<(), colt_os_mem::error::MemError> {
//! let mut kernel = Kernel::new(KernelConfig::ths_on());
//! let asid = kernel.spawn();
//! // A multi-page malloc: the buddy allocator hands back contiguous
//! // frames, which the contiguity scanner then observes.
//! let base = kernel.malloc(asid, 64)?;
//! let report = kernel.scan_contiguity(asid)?;
//! assert!(report.average_contiguity() >= 1.0);
//! let _ = base;
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod buddy;
pub mod compaction;
pub mod contiguity;
pub mod error;
pub mod faults;
pub mod frames;
pub mod kernel;
pub mod memhog;
pub mod page_table;
pub mod policy;
pub mod process;
pub mod shootdown;
pub mod snapshot;
pub mod thp;
pub mod vma;

pub use addr::{Asid, Pfn, PhysAddr, VirtAddr, Vpn};
pub use contiguity::ContiguityReport;
pub use error::{MemError, MemResult};
pub use faults::{DeliveryFault, FaultConfig, FaultPlan, KernelFault};
pub use kernel::{Kernel, KernelConfig};
pub use policy::{MmPolicy, PolicyKind};
pub use snapshot::{Dec, Enc, SnapResult, Snapshot, SnapshotError};
