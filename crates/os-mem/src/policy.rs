//! Pluggable memory-management policies.
//!
//! CoLT's headline win depends entirely on how much page-level contiguity
//! the OS produces, yet the substrate historically hard-coded one
//! Linux-2.6.38-era policy. Following eBPF-mm (arXiv 2409.11220), every
//! policy-relevant decision the kernel makes — THP allocation, khugepaged
//! collapse eligibility, compaction triggering and budgets, reclaim victim
//! selection, allocation contiguity hints, and VPN→PFN placement — now
//! flows through the [`MmPolicy`] trait, making OS policy a first-class
//! simulated axis.
//!
//! Policies are a closed set named by [`PolicyKind`] so configurations
//! stay `Copy`, comparable, and snapshot-codable. [`DefaultPolicy`]
//! reproduces the historical behavior *byte-identically*: every hook
//! returns exactly the value the kernel previously hard-coded, so all
//! headline tables are unchanged.

use crate::snapshot::{bad_tag, Dec, Enc, SnapResult, Snapshot};
use crate::vma::VmaKind;
use std::fmt;
use std::str::FromStr;

/// Verdict for a THP-eligible region at allocation/fault time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThpDecision {
    /// Back the region with a superpage now (the historical behavior).
    Grant,
    /// Use base pages now, but queue the region for a deferred
    /// khugepaged-style collapse (Linux's `madvise`/`defer` THP modes).
    Defer,
    /// Base pages only; the region is never queued for collapse.
    Deny,
}

/// Scan direction for reclaim victim selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReclaimOrder {
    /// Evict clean file pages lowest-PFN-first (the historical behavior,
    /// which clears the low frames compaction wants to migrate into).
    LowestPfnFirst,
    /// Evict highest-PFN-first, sparing the low frames and leaving holes
    /// where the buddy allocator carves its next runs.
    HighestPfnFirst,
}

/// VPN→PFN placement for multi-frame base-page runs and PCP refills.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Consecutive VPNs receive consecutive frames of the run — what the
    /// buddy allocator's contiguous blocks naturally produce.
    Linear,
    /// Consecutive VPNs receive an interleaved permutation of the run's
    /// frames (see [`interleave`]), deterministically severing VPN→PFN
    /// adjacency even though physical memory itself stays contiguous.
    Interleaved,
}

/// Maps run-local index `i` (of `n`) to the frame offset used under
/// [`Placement::Interleaved`]: the first half of the VPNs take the odd
/// frame offsets in order, the second half the even ones. A bijection on
/// `0..n`, so a run is still fully consumed — but no two consecutive VPNs
/// ever land on adjacent frames once `n >= 4` (for `n <= 3` no such
/// permutation exists).
pub fn interleave(i: u64, n: u64) -> u64 {
    debug_assert!(i < n);
    let odds = n / 2;
    if i < odds { 2 * i + 1 } else { 2 * (i - odds) }
}

/// The pluggable memory-management policy.
///
/// Hook defaults all reproduce the kernel's historical hard-coded choices,
/// so a policy only overrides the decisions it cares about. Every hook is
/// consulted with the *configured* value where one exists; returning it
/// unchanged keeps that axis at the baseline.
pub trait MmPolicy: Sync {
    /// The policy's CLI/JSON name.
    fn name(&self) -> &'static str;

    /// Per-VMA THP verdict. Consulted only for regions that are already
    /// THP-eligible (THS enabled, anonymous backing).
    fn thp_decision(&self, _kind: VmaKind) -> ThpDecision {
        ThpDecision::Grant
    }

    /// Whether khugepaged may collapse a deferred region of this backing.
    fn collapse_eligible(&self, _kind: VmaKind) -> bool {
        true
    }

    /// Whether the background compaction daemon runs a slice this tick.
    /// `scattered` reports the small-block free-space heuristic; `frag`
    /// and `frag_threshold` are the buddy fragmentation index and the
    /// configured trigger threshold.
    fn background_compaction(
        &self,
        ths_enabled: bool,
        scattered: bool,
        frag: f64,
        frag_threshold: f64,
    ) -> bool {
        // Background compaction exists to serve high-order (THP) demand:
        // with THS off it almost never wakes up (paper §6.2).
        ths_enabled && (scattered || frag > frag_threshold)
    }

    /// Migration budget for one background compaction slice.
    fn background_slice(&self, nr_frames: u64) -> u64 {
        (nr_frames / 32).max(64)
    }

    /// Whether direct (allocation-triggered) compaction may run at all.
    fn direct_compaction(&self) -> bool {
        true
    }

    /// Scale factor applied to direct-compaction migration budgets.
    fn compaction_budget_factor(&self) -> u64 {
        1
    }

    /// Block-order cap for ordinary (non-THP) user allocations — the
    /// allocation contiguity hint.
    fn alloc_chunk_order(&self, configured: u32) -> u32 {
        configured
    }

    /// Frames per PCP refill batch (demand-fault contiguity hint).
    fn pcp_batch(&self, default_batch: u64) -> u64 {
        default_batch
    }

    /// Effective free-memory watermark below which the pressure daemon
    /// splits superpages.
    fn split_watermark(&self, configured: f64) -> f64 {
        configured
    }

    /// Whether pressure splits puncture the residual 512-page run.
    fn split_puncture(&self, configured: bool) -> bool {
        configured
    }

    /// Reclaim victim scan direction.
    fn reclaim_order(&self) -> ReclaimOrder {
        ReclaimOrder::LowestPfnFirst
    }

    /// VPN→PFN placement for base-page runs and PCP refill order.
    fn placement(&self) -> Placement {
        Placement::Linear
    }

    /// Whether large anonymous reservations get superpage-aligned starts.
    fn huge_align(&self, kind: VmaKind) -> bool {
        kind == VmaKind::Anonymous
    }

    /// Chunk cap (pages) for pinned `memhog`-style allocations.
    fn memhog_chunk_pages(&self, configured: u64) -> u64 {
        configured
    }
}

/// The historical policy: every hook returns the configured or hard-coded
/// baseline value, byte-identically reproducing pre-policy behavior.
#[derive(Clone, Copy, Debug, Default)]
pub struct DefaultPolicy;

impl MmPolicy for DefaultPolicy {
    fn name(&self) -> &'static str {
        "default"
    }
}

/// Profile-guided contiguity maximizer: grants every huge page, requests
/// maximal allocation chunks, compacts earlier and with bigger budgets,
/// splits later and never punctures — the OS a CoLT designer would wish
/// for.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyContigPolicy;

impl MmPolicy for GreedyContigPolicy {
    fn name(&self) -> &'static str {
        "greedy_contig"
    }

    fn background_compaction(
        &self,
        _ths_enabled: bool,
        scattered: bool,
        frag: f64,
        frag_threshold: f64,
    ) -> bool {
        // Compact for contiguity's own sake (even with THS off) and at
        // half the configured fragmentation trigger.
        scattered || frag > frag_threshold * 0.5
    }

    fn background_slice(&self, nr_frames: u64) -> u64 {
        (nr_frames / 16).max(128)
    }

    fn compaction_budget_factor(&self) -> u64 {
        2
    }

    fn alloc_chunk_order(&self, configured: u32) -> u32 {
        // Hand out whole pageblocks when the request is big enough.
        configured.max(9)
    }

    fn pcp_batch(&self, default_batch: u64) -> u64 {
        default_batch * 2
    }

    fn split_watermark(&self, configured: f64) -> f64 {
        // Tolerate twice the pressure before splitting superpages.
        configured * 0.5
    }

    fn split_puncture(&self, _configured: bool) -> bool {
        false
    }

    fn memhog_chunk_pages(&self, configured: u64) -> u64 {
        // Pin interference memory in few large chunks so it fragments
        // the remaining space as little as possible.
        configured * 8
    }
}

/// Contiguity destroyer: denies huge pages, forbids compaction, allocates
/// single pages placed via an interleaved permutation, and scatters pinned
/// interference — a worst case for any coalesced TLB.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdversarialPolicy;

impl MmPolicy for AdversarialPolicy {
    fn name(&self) -> &'static str {
        "adversarial"
    }

    fn thp_decision(&self, _kind: VmaKind) -> ThpDecision {
        ThpDecision::Deny
    }

    fn collapse_eligible(&self, _kind: VmaKind) -> bool {
        false
    }

    fn background_compaction(&self, _: bool, _: bool, _: f64, _: f64) -> bool {
        false
    }

    fn direct_compaction(&self) -> bool {
        false
    }

    fn alloc_chunk_order(&self, _configured: u32) -> u32 {
        0
    }

    fn pcp_batch(&self, default_batch: u64) -> u64 {
        (default_batch / 4).max(1)
    }

    fn split_watermark(&self, configured: f64) -> f64 {
        (configured * 4.0).min(0.5)
    }

    fn reclaim_order(&self) -> ReclaimOrder {
        ReclaimOrder::HighestPfnFirst
    }

    fn placement(&self) -> Placement {
        Placement::Interleaved
    }

    fn huge_align(&self, _kind: VmaKind) -> bool {
        false
    }

    fn memhog_chunk_pages(&self, _configured: u64) -> u64 {
        1
    }
}

/// Base pages only: every THP decision is denied and nothing is queued
/// for collapse; all other axes stay at the baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoThpPolicy;

impl MmPolicy for NoThpPolicy {
    fn name(&self) -> &'static str {
        "no_thp"
    }

    fn thp_decision(&self, _kind: VmaKind) -> ThpDecision {
        ThpDecision::Deny
    }

    fn collapse_eligible(&self, _kind: VmaKind) -> bool {
        false
    }
}

/// Linux's `defer` THP mode: base pages at fault time, with the region
/// queued for a deferred khugepaged collapse once it is fully populated.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeferThpPolicy;

impl MmPolicy for DeferThpPolicy {
    fn name(&self) -> &'static str {
        "defer_thp"
    }

    fn thp_decision(&self, _kind: VmaKind) -> ThpDecision {
        ThpDecision::Defer
    }
}

static DEFAULT: DefaultPolicy = DefaultPolicy;
static GREEDY_CONTIG: GreedyContigPolicy = GreedyContigPolicy;
static ADVERSARIAL: AdversarialPolicy = AdversarialPolicy;
static NO_THP: NoThpPolicy = NoThpPolicy;
static DEFER_THP: DeferThpPolicy = DeferThpPolicy;

/// The closed set of shipped policies. Keeping the name (rather than a
/// trait object) in [`crate::kernel::KernelConfig`] keeps configurations
/// `Copy`, comparable, hashable into preparation keys, and snapshotable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PolicyKind {
    /// [`DefaultPolicy`].
    #[default]
    Default,
    /// [`GreedyContigPolicy`].
    GreedyContig,
    /// [`AdversarialPolicy`].
    Adversarial,
    /// [`NoThpPolicy`].
    NoThp,
    /// [`DeferThpPolicy`].
    DeferThp,
}

impl PolicyKind {
    /// Every shipped policy, in sweep order.
    pub fn all() -> [PolicyKind; 5] {
        [
            PolicyKind::Default,
            PolicyKind::GreedyContig,
            PolicyKind::Adversarial,
            PolicyKind::NoThp,
            PolicyKind::DeferThp,
        ]
    }

    /// The policy's CLI/JSON name.
    pub fn name(self) -> &'static str {
        self.policy().name()
    }

    /// The policy implementation behind the name.
    pub fn policy(self) -> &'static dyn MmPolicy {
        match self {
            PolicyKind::Default => &DEFAULT,
            PolicyKind::GreedyContig => &GREEDY_CONTIG,
            PolicyKind::Adversarial => &ADVERSARIAL,
            PolicyKind::NoThp => &NO_THP,
            PolicyKind::DeferThp => &DEFER_THP,
        }
    }

    /// The valid names, comma-separated — for error messages.
    pub fn valid_names() -> String {
        Self::all()
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        Self::all()
            .into_iter()
            .find(|k| k.name() == lower)
            .ok_or_else(|| {
                format!("unknown policy '{s}' (valid: {})", Self::valid_names())
            })
    }
}

impl Snapshot for PolicyKind {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            PolicyKind::Default => 0,
            PolicyKind::GreedyContig => 1,
            PolicyKind::Adversarial => 2,
            PolicyKind::NoThp => 3,
            PolicyKind::DeferThp => 4,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        match dec.u8()? {
            0 => Ok(PolicyKind::Default),
            1 => Ok(PolicyKind::GreedyContig),
            2 => Ok(PolicyKind::Adversarial),
            3 => Ok(PolicyKind::NoThp),
            4 => Ok(PolicyKind::DeferThp),
            b => Err(bad_tag("PolicyKind", b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(kind: PolicyKind) -> PolicyKind {
        let mut enc = Enc::new();
        kind.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        let back = PolicyKind::decode(&mut dec).expect("decode");
        dec.finish().expect("fully consumed");
        back
    }

    #[test]
    fn names_parse_back_to_their_kind() {
        for kind in PolicyKind::all() {
            assert_eq!(kind.name().parse::<PolicyKind>(), Ok(kind));
            // Parsing is case-insensitive, as CLI flags should be.
            assert_eq!(kind.name().to_ascii_uppercase().parse::<PolicyKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn unknown_name_lists_the_valid_policies() {
        let err = "bogus".parse::<PolicyKind>().unwrap_err();
        assert!(err.contains("unknown policy 'bogus'"), "{err}");
        for kind in PolicyKind::all() {
            assert!(err.contains(kind.name()), "{err} missing {}", kind.name());
        }
    }

    #[test]
    fn snapshot_roundtrips_every_kind() {
        for kind in PolicyKind::all() {
            assert_eq!(round_trip(kind), kind);
        }
    }

    #[test]
    fn invalid_snapshot_tag_is_rejected() {
        let mut enc = Enc::new();
        enc.u8(0xEE);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert!(PolicyKind::decode(&mut dec).is_err());
    }

    #[test]
    fn default_policy_reproduces_configured_values() {
        let p = PolicyKind::Default.policy();
        assert_eq!(p.thp_decision(VmaKind::Anonymous), ThpDecision::Grant);
        assert!(p.collapse_eligible(VmaKind::Anonymous));
        assert!(p.background_compaction(true, false, 0.5, 0.45));
        assert!(p.background_compaction(true, true, 0.0, 0.45));
        assert!(!p.background_compaction(true, false, 0.4, 0.45));
        assert!(!p.background_compaction(false, true, 1.0, 0.45));
        assert_eq!(p.background_slice(1 << 16), (1u64 << 16) / 32);
        assert_eq!(p.background_slice(128), 64);
        assert!(p.direct_compaction());
        assert_eq!(p.compaction_budget_factor(), 1);
        assert_eq!(p.alloc_chunk_order(6), 6);
        assert_eq!(p.pcp_batch(32), 32);
        assert_eq!(p.split_watermark(0.08), 0.08);
        assert!(p.split_puncture(true));
        assert!(!p.split_puncture(false));
        assert_eq!(p.reclaim_order(), ReclaimOrder::LowestPfnFirst);
        assert_eq!(p.placement(), Placement::Linear);
        assert!(p.huge_align(VmaKind::Anonymous));
        assert!(!p.huge_align(VmaKind::FileBacked));
        assert_eq!(p.memhog_chunk_pages(8), 8);
    }

    #[test]
    fn adversarial_denies_everything_contiguity_shaped() {
        let p = PolicyKind::Adversarial.policy();
        assert_eq!(p.thp_decision(VmaKind::Anonymous), ThpDecision::Deny);
        assert!(!p.collapse_eligible(VmaKind::Anonymous));
        assert!(!p.background_compaction(true, true, 1.0, 0.0));
        assert!(!p.direct_compaction());
        assert_eq!(p.alloc_chunk_order(6), 0);
        assert_eq!(p.placement(), Placement::Interleaved);
        assert!(!p.huge_align(VmaKind::Anonymous));
        assert_eq!(p.memhog_chunk_pages(8), 1);
    }

    #[test]
    fn interleave_is_a_bijection_with_no_adjacent_neighbors() {
        for n in 1..=65u64 {
            let mapped: Vec<u64> = (0..n).map(|i| interleave(i, n)).collect();
            let mut sorted = mapped.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "n={n} not a bijection");
            if n >= 4 {
                for w in mapped.windows(2) {
                    assert_ne!(
                        w[0].abs_diff(w[1]),
                        1,
                        "n={n}: consecutive VPNs map to adjacent frames {w:?}"
                    );
                }
            }
        }
    }
}
