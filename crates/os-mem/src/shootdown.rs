//! TLB-shootdown event plumbing.
//!
//! Real kernels follow every page-table mutation with an IPI-driven TLB
//! shootdown (`invlpg` on each CPU whose TLB may cache the old
//! translation). The simulator's kernel mutates page tables in four
//! places — compaction migration, `munmap`/reclaim unmapping, THP
//! splitting, and post-split puncturing — and each must reach the TLB
//! hierarchy *and* the walker's MMU page-walk caches, or coalesced
//! entries keep translating to freed or re-owned frames (paper §4.1.5
//! discusses exactly this invalidation traffic).
//!
//! The [`ShootdownLog`] is disabled by default and costs one branch per
//! mutation site; enabling it (the differential checker does) records a
//! [`ShootdownEvent`] per affected virtual page, including the physical
//! addresses of the page-table entries a walk of that page would have
//! read *before* the mutation — the material a consumer needs to
//! invalidate per-VPN walker cache state instead of flushing wholesale.

use crate::addr::{Asid, Pfn, PhysAddr, Vpn};
use crate::snapshot::{bad_tag, Dec, Enc, SnapResult, Snapshot};

/// Which kernel mutation triggered the shootdown.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShootdownKind {
    /// Compaction migrated the page to a new frame.
    Migrate,
    /// The page was unmapped (`munmap`, process exit).
    Unmap,
    /// A 2MB superpage was split into base pages (translation unchanged,
    /// but the superpage leaf — and the TLB entries caching it — is gone).
    SuperSplit,
    /// Post-split puncturing reclaimed and refaulted the page onto a
    /// different frame (paper §3.2.3).
    Puncture,
    /// Page-cache reclaim evicted the (clean, file-backed) page.
    Reclaim,
}

/// One per-VPN shootdown: the virtual page whose cached translation died,
/// plus enough context for a consumer to fix per-VPN hardware state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShootdownEvent {
    /// Address space the mutation happened in.
    pub asid: Asid,
    /// The virtual page whose translation changed.
    pub vpn: Vpn,
    /// What happened.
    pub kind: ShootdownKind,
    /// Physical addresses of the page-table entries a walk of `vpn`
    /// read *before* the mutation, root first (empty if the page was
    /// unmapped already, or when capturing was skipped).
    pub entry_addrs: Vec<PhysAddr>,
    /// Frame the page mapped to before the mutation, if any.
    pub old_pfn: Option<Pfn>,
    /// Frame the page maps to after the mutation, if still mapped.
    pub new_pfn: Option<Pfn>,
}

/// Accumulates [`ShootdownEvent`]s between drains. Disabled by default:
/// the perf-path kernel pays one `is_enabled` branch per mutation site
/// and never allocates.
#[derive(Clone, Debug, Default)]
pub struct ShootdownLog {
    enabled: bool,
    events: Vec<ShootdownEvent>,
}

impl ShootdownLog {
    /// A disabled (zero-cost) log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether events are being recorded. Mutation sites guard their
    /// pre-mutation walks with this so the disabled path stays free.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event (no-op while disabled).
    pub fn record(&mut self, event: ShootdownEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Drains every recorded event, oldest first.
    pub fn take(&mut self) -> Vec<ShootdownEvent> {
        std::mem::take(&mut self.events)
    }

    /// Events currently pending.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Snapshot for ShootdownKind {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            ShootdownKind::Migrate => 0,
            ShootdownKind::Unmap => 1,
            ShootdownKind::SuperSplit => 2,
            ShootdownKind::Puncture => 3,
            ShootdownKind::Reclaim => 4,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        match dec.u8()? {
            0 => Ok(ShootdownKind::Migrate),
            1 => Ok(ShootdownKind::Unmap),
            2 => Ok(ShootdownKind::SuperSplit),
            3 => Ok(ShootdownKind::Puncture),
            4 => Ok(ShootdownKind::Reclaim),
            b => Err(bad_tag("ShootdownKind", b)),
        }
    }
}

impl Snapshot for ShootdownEvent {
    fn encode(&self, enc: &mut Enc) {
        self.asid.encode(enc);
        self.vpn.encode(enc);
        self.kind.encode(enc);
        self.entry_addrs.encode(enc);
        self.old_pfn.encode(enc);
        self.new_pfn.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok(Self {
            asid: Asid::decode(dec)?,
            vpn: Vpn::decode(dec)?,
            kind: ShootdownKind::decode(dec)?,
            entry_addrs: Vec::decode(dec)?,
            old_pfn: Option::decode(dec)?,
            new_pfn: Option::decode(dec)?,
        })
    }
}

impl Snapshot for ShootdownLog {
    fn encode(&self, enc: &mut Enc) {
        enc.bool(self.enabled);
        self.events.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok(Self { enabled: dec.bool()?, events: Vec::decode(dec)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(vpn: u64) -> ShootdownEvent {
        ShootdownEvent {
            asid: Asid(1),
            vpn: Vpn::new(vpn),
            kind: ShootdownKind::Migrate,
            entry_addrs: vec![PhysAddr::new(0x1000)],
            old_pfn: Some(Pfn::new(5)),
            new_pfn: Some(Pfn::new(9)),
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = ShootdownLog::new();
        assert!(!log.is_enabled());
        log.record(event(1));
        assert!(log.is_empty());
        assert!(log.take().is_empty());
    }

    #[test]
    fn enabled_log_accumulates_and_drains_in_order() {
        let mut log = ShootdownLog::new();
        log.enable();
        log.record(event(1));
        log.record(event(2));
        assert_eq!(log.len(), 2);
        let events: Vec<u64> = log.take().iter().map(|e| e.vpn.raw()).collect();
        assert_eq!(events, vec![1, 2]);
        assert!(log.is_empty(), "take drains");
        log.record(event(3));
        assert_eq!(log.len(), 1, "stays enabled after take");
    }
}
