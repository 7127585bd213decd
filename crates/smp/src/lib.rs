//! # colt-smp — SMP extension for the CoLT simulator
//!
//! The paper evaluates CoLT on one core; its §8 outlook (and every
//! system CoLT would actually ship in) is multi-core. This crate models
//! that machine: `N` cores, each owning a private L1/L2/superpage TLB
//! hierarchy and page-walk caches (a [`colt_memsim::mmu::Mmu`], the
//! translate step the single-core simulator runs) plus private L1/L2
//! data caches, all sharing one last-level cache
//! ([`colt_memsim::hierarchy::SharedLlc`]).
//!
//! Two pieces the single-core model never needed appear here:
//!
//! * **ASID tagging** ([`colt_tlb::config::TlbConfig::asid_tagged`]) —
//!   tagged cores switch address spaces by retargeting the current ASID
//!   instead of flushing, so context switches keep warmed state. The
//!   untagged default reproduces the paper's flush-at-switch machine
//!   byte for byte.
//! * **Cross-core shootdowns** — kernel page-table mutations
//!   (compaction migrations, THP splits, puncture, reclaim) broadcast
//!   [`colt_os_mem::shootdown::ShootdownEvent`]s to every core whose
//!   TLB may hold the mutated address space. Remote deliveries are
//!   inter-processor interrupts and carry a cycle cost
//!   ([`IpiCostModel`]) folded into each core's accounting.
//!
//! The simulator is single-threaded and lockstep-deterministic: one
//! global step advances every core by exactly one memory reference, in
//! core order, so identical inputs produce identical counters at any
//! host parallelism.

pub mod machine;

pub use machine::SmpMachine;

use colt_memsim::cache::CacheStats;
use colt_memsim::walker::WalkerStats;
use colt_tlb::config::TlbConfig;
use colt_tlb::stats::HierarchyStats;

/// Cycle costs of a TLB-shootdown IPI, modeled after the magnitudes
/// micro-benchmarks report on real x86 parts: sending is a cheap APIC
/// write, receiving interrupts the remote pipeline, and each
/// invalidation is an `invlpg`-class operation on the remote core.
#[derive(Clone, Copy, Debug)]
pub struct IpiCostModel {
    /// Cycles the initiating core spends sending one IPI.
    pub send: u64,
    /// Cycles the remote core spends taking the interrupt.
    pub receive: u64,
    /// Cycles per entry invalidated on the remote core.
    pub per_invalidation: u64,
}

impl Default for IpiCostModel {
    fn default() -> Self {
        Self { send: 450, receive: 1400, per_invalidation: 120 }
    }
}

/// Parameters of one SMP simulation.
#[derive(Clone, Copy, Debug)]
pub struct SmpConfig {
    /// Number of cores (clamped to at least 1).
    pub cores: usize,
    /// Per-core TLB configuration. `tlb.asid_tagged` selects tagged
    /// mode; the untagged default full-flushes at every context switch.
    pub tlb: TlbConfig,
    /// Global steps between per-core context switches (each step is one
    /// access per core).
    pub quantum: u64,
    /// Global steps between kernel-churn slices (compaction ticks,
    /// direct compaction, THP splits, reclaim — rotating). `None`
    /// freezes the kernel, as the paper's single-core replays do.
    pub churn_period: Option<u64>,
    /// Run walks under nested paging (virtualization).
    pub nested_paging: bool,
    /// IPI cost model for remote shootdown deliveries.
    pub ipi: IpiCostModel,
}

impl SmpConfig {
    /// A config for `cores` cores running `tlb`, with the multiprog
    /// experiment's 10k-access quantum and periodic kernel churn.
    pub fn new(cores: usize, tlb: TlbConfig) -> Self {
        Self {
            cores: cores.max(1),
            tlb,
            quantum: 10_000,
            churn_period: Some(2_000),
            nested_paging: false,
            ipi: IpiCostModel::default(),
        }
    }

    /// Enables ASID tagging on every core's TLB and walker.
    #[must_use]
    pub fn tagged(mut self) -> Self {
        self.tlb = self.tlb.with_asid_tagging();
        self
    }

    /// Overrides the scheduling quantum.
    ///
    /// # Panics
    /// Panics if `quantum` is zero.
    #[must_use]
    pub fn with_quantum(mut self, quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        self.quantum = quantum;
        self
    }

    /// Overrides the churn period (`None` disables kernel churn).
    #[must_use]
    pub fn with_churn_period(mut self, period: Option<u64>) -> Self {
        assert!(period != Some(0), "churn period must be positive");
        self.churn_period = period;
        self
    }

    /// Whether this configuration runs in ASID-tagged mode.
    pub fn is_tagged(&self) -> bool {
        self.tlb.asid_tagged
    }
}

/// Per-core counters the TLB and walker don't already track.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CoreCounters {
    /// Memory references this core executed.
    pub accesses: u64,
    /// Instructions those references represent.
    pub instructions: u64,
    /// Cycles in page walks (serialized, critical path).
    pub walk_cycles: u64,
    /// Data-access stall cycles beyond an L1 hit.
    pub data_stall_cycles: u64,
    /// Cycles on L2-TLB lookups after L1 misses.
    pub l2_tlb_cycles: u64,
    /// Cycles sending and servicing shootdown IPIs.
    pub ipi_cycles: u64,
    /// Shootdown IPIs this core initiated.
    pub ipis_sent: u64,
    /// Shootdown IPIs this core serviced.
    pub ipis_received: u64,
    /// Entries (TLB VPNs + walk-cache entries) invalidated on this core
    /// by remote shootdowns.
    pub remote_invalidations: u64,
    /// Context switches that full-flushed translation state (untagged).
    pub full_flushes: u64,
    /// Context switches that kept state thanks to ASID tagging.
    pub flushes_avoided: u64,
    /// Context switches taken, either way.
    pub context_switches: u64,
}

impl CoreCounters {
    fn since(&self, before: &Self) -> Self {
        Self {
            accesses: self.accesses - before.accesses,
            instructions: self.instructions - before.instructions,
            walk_cycles: self.walk_cycles - before.walk_cycles,
            data_stall_cycles: self.data_stall_cycles - before.data_stall_cycles,
            l2_tlb_cycles: self.l2_tlb_cycles - before.l2_tlb_cycles,
            ipi_cycles: self.ipi_cycles - before.ipi_cycles,
            ipis_sent: self.ipis_sent - before.ipis_sent,
            ipis_received: self.ipis_received - before.ipis_received,
            remote_invalidations: self.remote_invalidations - before.remote_invalidations,
            full_flushes: self.full_flushes - before.full_flushes,
            flushes_avoided: self.flushes_avoided - before.flushes_avoided,
            context_switches: self.context_switches - before.context_switches,
        }
    }

    fn merged(&self, other: &Self) -> Self {
        Self {
            accesses: self.accesses + other.accesses,
            instructions: self.instructions + other.instructions,
            walk_cycles: self.walk_cycles + other.walk_cycles,
            data_stall_cycles: self.data_stall_cycles + other.data_stall_cycles,
            l2_tlb_cycles: self.l2_tlb_cycles + other.l2_tlb_cycles,
            ipi_cycles: self.ipi_cycles + other.ipi_cycles,
            ipis_sent: self.ipis_sent + other.ipis_sent,
            ipis_received: self.ipis_received + other.ipis_received,
            remote_invalidations: self.remote_invalidations + other.remote_invalidations,
            full_flushes: self.full_flushes + other.full_flushes,
            flushes_avoided: self.flushes_avoided + other.flushes_avoided,
            context_switches: self.context_switches + other.context_switches,
        }
    }
}

/// One core's measured window.
#[derive(Clone, Copy, Debug)]
pub struct CoreResult {
    /// TLB hierarchy counters.
    pub tlb: HierarchyStats,
    /// Page-walker counters.
    pub walker: WalkerStats,
    /// SMP-specific counters (IPIs, flush policy, cycles).
    pub counters: CoreCounters,
}

impl CoreResult {
    /// L1 TLB misses per million instructions on this core.
    pub fn l1_mpmi(&self) -> f64 {
        self.tlb.mpmi(self.tlb.l1_misses, self.counters.instructions)
    }

    /// Page walks per million instructions on this core.
    pub fn l2_mpmi(&self) -> f64 {
        self.tlb.mpmi(self.tlb.l2_misses, self.counters.instructions)
    }
}

/// Everything one SMP run measured.
#[derive(Clone, Debug)]
pub struct SmpResult {
    /// Per-core windows, in core order.
    pub cores: Vec<CoreResult>,
    /// Shared-LLC counters over the whole run (not warmup-windowed:
    /// the LLC is shared state, reported as the machine saw it).
    pub llc: CacheStats,
}

impl SmpResult {
    /// Machine-wide aggregate: every per-core counter summed.
    pub fn aggregate(&self) -> CoreResult {
        let mut tlb = HierarchyStats::default();
        let mut walker = WalkerStats::default();
        let mut counters = CoreCounters::default();
        for c in &self.cores {
            tlb = tlb.merged(&c.tlb);
            walker = walker.merged(&c.walker);
            counters = counters.merged(&c.counters);
        }
        CoreResult { tlb, walker, counters }
    }
}
