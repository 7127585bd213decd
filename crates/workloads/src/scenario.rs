//! System scenarios: the kernel configurations of paper §5.1.1.
//!
//! The paper studies twelve configurations (THS on/off × compaction
//! normal/low × memhog 0/25/50%) and focuses on five. [`Scenario`]
//! captures one configuration. [`Scenario::machine`] is the part of it
//! that aging reads, a [`MachineSpec`]; [`MachineSpec::age`] boots that
//! kernel and ages it into an [`AgedMachine`];
//! [`AgedMachine::into_prepared`] then applies one scenario's memhog
//! load and performs one benchmark's allocation phase (with interleaved
//! background traffic) — producing a [`PreparedWorkload`] whose page
//! table carries exactly the contiguity that configuration generates. Scenarios that differ only in memhog,
//! pressure, dirty fraction or name share one machine, so one aged
//! machine (cloned per preparation) serves every benchmark of all of
//! them, as one machine serves every benchmark in the paper (the twelve
//! configurations age four machines); [`Scenario::prepare`] ages and
//! prepares one benchmark in one call.

use crate::background::{age_system, AgingConfig, Interferer};
use crate::pattern::PatternGen;
use crate::spec::{BenchmarkSpec, PopulatePolicy};
use colt_os_mem::addr::{Asid, Vpn};
use colt_os_mem::contiguity::ContiguityReport;
use colt_os_mem::error::MemResult;
use colt_os_mem::faults::FaultConfig;
use colt_os_mem::kernel::{CompactionMode, Kernel, KernelConfig};
use colt_os_mem::memhog::{Memhog, MemhogConfig};
use colt_os_mem::policy::PolicyKind;
use colt_os_mem::snapshot::{Dec, Enc, SnapResult, Snapshot, SnapshotError};
use colt_os_mem::vma::VmaKind;
use colt_prng::rngs::StdRng;
use colt_prng::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// One system configuration.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable name.
    pub name: String,
    /// Transparent hugepage support on/off.
    pub ths: bool,
    /// Compaction daemon aggressiveness (the `defrag` flag).
    pub compaction: CompactionMode,
    /// Fraction of memory claimed by memhog (0.0, 0.25, or 0.50 in the
    /// paper).
    pub memhog_fraction: f64,
    /// Physical memory in frames.
    pub nr_frames: u64,
    /// Aging churn before the benchmark runs.
    pub aging: AgingConfig,
    /// Share of live superpages split by long-run system pressure after
    /// the allocation phase. Models the paper's observation that
    /// "optimistically-allocated 2MB superpages are often eventually
    /// split due to system pressure" yet leave residual contiguity
    /// (§3.2.3). Additional splits still happen emergently whenever the
    /// free-memory watermark is violated.
    pub pressure_split_fraction: f64,
    /// Fraction of the benchmark's pages marked dirty after allocation
    /// (write traffic so far). Diverging DIRTY bits break contiguity
    /// runs under the paper's equal-attribute rule (§5.1.1) — the
    /// future-work attribute ablation measures what tolerating them
    /// recovers.
    pub dirty_fraction: f64,
    /// Master seed (aging, memhog, interferer, allocation mixing).
    pub seed: u64,
    /// Deterministic memory-pressure fault injection for the kernel this
    /// scenario boots (`None` keeps preparation bit-identical to the
    /// fault-free baseline).
    pub faults: Option<FaultConfig>,
    /// Memory-management policy governing the kernel this scenario boots
    /// (THP grants, compaction triggering, reclaim order, placement).
    /// [`PolicyKind::Default`] reproduces historical behavior exactly.
    pub policy: PolicyKind,
}

impl Scenario {
    fn base(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            ths: true,
            compaction: CompactionMode::Normal,
            memhog_fraction: 0.0,
            nr_frames: 1 << 17, // 512MB
            aging: AgingConfig::default(),
            pressure_split_fraction: 0.85,
            dirty_fraction: 0.0,
            seed: 0xC011_7E57,
            faults: None,
            policy: PolicyKind::Default,
        }
    }

    /// Enables fault injection in the kernel this scenario prepares.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Marks a fraction of the benchmark's pages dirty after allocation.
    #[must_use]
    pub fn with_dirty_fraction(mut self, fraction: f64) -> Self {
        self.dirty_fraction = fraction;
        self
    }

    /// Boots the scenario's kernel under `policy`. Non-default policies
    /// are reflected in the scenario name (and hence in snapshot-cache
    /// keys and result labels); the default policy leaves the name — and
    /// every prepared byte — untouched.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        if self.policy != PolicyKind::Default {
            // Strip a previously appended suffix before re-tagging.
            if let Some(pos) = self.name.rfind(" [policy=") {
                self.name.truncate(pos);
            }
        }
        self.policy = policy;
        if policy != PolicyKind::Default {
            self.name.push_str(&format!(" [policy={}]", policy.name()));
        }
        self
    }

    /// Configuration 1: THS on, normal compaction, no memhog — the Linux
    /// default.
    pub fn default_linux() -> Self {
        Self::base("THS on, normal compaction")
    }

    /// Configuration 2: THS off, normal compaction, no memhog.
    pub fn no_ths() -> Self {
        Self { ths: false, ..Self::base("THS off, normal compaction") }
    }

    /// Configuration 3: THS off, low compaction — the paper's
    /// conservative stress test.
    pub fn no_ths_low_compaction() -> Self {
        Self {
            ths: false,
            compaction: CompactionMode::Low,
            ..Self::base("THS off, low compaction")
        }
    }

    /// Configuration 4: THS on, normal compaction, with memhog at
    /// `fraction` (0.25 or 0.50 in the paper).
    pub fn default_with_memhog(fraction: f64) -> Self {
        Self {
            memhog_fraction: fraction,
            ..Self::base(&format!("THS on, memhog({}%)", (fraction * 100.0) as u32))
        }
    }

    /// Configuration 5: THS off, normal compaction, with memhog.
    pub fn no_ths_with_memhog(fraction: f64) -> Self {
        Self {
            ths: false,
            memhog_fraction: fraction,
            ..Self::base(&format!("THS off, memhog({}%)", (fraction * 100.0) as u32))
        }
    }

    /// The five configurations the paper focuses on (§5.1.1), with
    /// memhog at 25%.
    pub fn paper_five() -> Vec<Scenario> {
        vec![
            Self::default_linux(),
            Self::no_ths(),
            Self::no_ths_low_compaction(),
            Self::default_with_memhog(0.25),
            Self::no_ths_with_memhog(0.25),
        ]
    }

    /// All twelve §5.1.1 configurations: THS on/off × compaction
    /// normal/low × memhog 0/25/50%.
    pub fn all_twelve() -> Vec<Scenario> {
        let mut out = Vec::with_capacity(12);
        for ths in [true, false] {
            for compaction in [CompactionMode::Normal, CompactionMode::Low] {
                for memhog in [0.0, 0.25, 0.50] {
                    let name = format!(
                        "THS {}, {} compaction, memhog({}%)",
                        if ths { "on" } else { "off" },
                        if compaction == CompactionMode::Normal { "normal" } else { "low" },
                        (memhog * 100.0) as u32,
                    );
                    out.push(Scenario {
                        ths,
                        compaction,
                        memhog_fraction: memhog,
                        ..Self::base(&name)
                    });
                }
            }
        }
        out
    }

    /// Overrides the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Boots one kernel and allocates *several* benchmarks into it, for
    /// multiprogrammed simulation ([`AgedMachine::into_prepared_many`]).
    ///
    /// # Errors
    /// Propagates kernel errors; the combined footprints plus load must
    /// fit the configured memory.
    pub fn prepare_many(&self, specs: &[BenchmarkSpec]) -> MemResult<MultiWorkload> {
        self.machine().age()?.into_prepared_many(self, specs)
    }

    /// The machine this scenario boots and ages: every field aging reads.
    pub fn machine(&self) -> MachineSpec {
        MachineSpec {
            nr_frames: self.nr_frames,
            ths: self.ths,
            compaction: self.compaction,
            faults: self.faults,
            policy: self.policy,
            aging: self.aging,
            seed: self.seed,
        }
    }

    /// Boots, ages, loads, and allocates: produces the benchmark's
    /// populated address space under this configuration.
    ///
    /// # Errors
    /// Propagates kernel errors (the scenario is sized so that genuine
    /// OOM indicates a configuration mistake).
    pub fn prepare(&self, spec: &BenchmarkSpec) -> MemResult<PreparedWorkload> {
        self.machine().age()?.into_prepared(self, spec)
    }

    /// Engages memhog (capped to what physical memory can satisfy
    /// without swap, counting reclaimable page cache) and lets the
    /// background compaction daemon settle.
    fn engage_memhog(&self, kernel: &mut Kernel, reserve_pages: u64) -> MemResult<Option<Memhog>> {
        let memhog = if self.memhog_fraction > 0.0 {
            let reserve = reserve_pages + reserve_pages / 8 + 2048;
            let claimable = (kernel.free_frames() + kernel.reclaimable_file_pages())
                .saturating_sub(reserve);
            let max_fraction = claimable as f64 / self.nr_frames as f64;
            let fraction = self.memhog_fraction.min(max_fraction).max(0.0);
            Some(Memhog::engage(
                kernel,
                MemhogConfig { fraction, seed: self.seed ^ 0x4096, ..MemhogConfig::default() },
            )?)
        } else {
            None
        };
        // Let the background compaction daemon reach its steady state on
        // the aged machine (a real system's kcompactd has had weeks).
        for _ in 0..64 {
            if kernel.buddy().small_free_fraction(6) < 0.20 {
                break;
            }
            kernel.tick();
        }
        Ok(memhog)
    }

    /// Runs one benchmark's churn + allocation phase.
    fn allocate_benchmark(
        &self,
        kernel: &mut Kernel,
        asid: Asid,
        spec: &BenchmarkSpec,
        interferer: &mut Interferer,
        rng: &mut StdRng,
    ) -> MemResult<Vec<Vpn>> {
        // Churn: allocate and free a few rounds first (self-inflicted
        // fragmentation of many-small-allocation programs).
        for _round in 0..spec.alloc.churn_rounds {
            let mut bases = Vec::new();
            let churn_pages = (spec.footprint_pages / 4).max(spec.alloc.chunk_pages);
            let mut done = 0;
            while done < churn_pages {
                let chunk = spec.alloc.chunk_pages.min(churn_pages - done).max(1);
                bases.push(kernel.malloc(asid, chunk)?);
                done += chunk;
            }
            for base in bases {
                kernel.free(asid, base)?;
            }
        }

        // The real allocation phase, interleaved with noise.
        let mut footprint: Vec<Vpn> = Vec::with_capacity(spec.footprint_pages as usize);
        let mut allocated = 0u64;
        let mut chunk_idx = 0u64;
        while allocated < spec.footprint_pages {
            let chunk = spec.alloc.chunk_pages.min(spec.footprint_pages - allocated);
            let kind = if rng.gen_bool(spec.alloc.file_fraction) {
                VmaKind::FileBacked
            } else {
                VmaKind::Anonymous
            };
            let base = match spec.alloc.populate {
                PopulatePolicy::Eager => match kind {
                    VmaKind::Anonymous => kernel.malloc(asid, chunk)?,
                    VmaKind::FileBacked => kernel.mmap_file(asid, chunk)?,
                },
                PopulatePolicy::Faulted => {
                    // Reserve, then fault pages in one at a time with
                    // interleaved noise faults from the neighbor process.
                    let base = kernel.reserve(asid, chunk, kind)?;
                    for i in 0..chunk {
                        kernel.touch(asid, base.offset(i))?;
                        if spec.alloc.interleave_pages > 0 && i % 16 == 15 {
                            interferer
                                .interfere(kernel, (spec.alloc.interleave_pages / 8).max(1))?;
                        }
                        // Background daemons run while the program faults
                        // its heap in (kswapd/kcompactd cadence).
                        if (allocated + i) % 256 == 255 {
                            kernel.tick();
                        }
                    }
                    base
                }
            };
            for i in 0..chunk {
                footprint.push(base.offset(i));
            }
            allocated += chunk;
            if spec.alloc.interleave_pages > 0 {
                interferer.interfere(kernel, spec.alloc.interleave_pages)?;
            }
            chunk_idx += 1;
            if chunk_idx.is_multiple_of(8) {
                kernel.tick();
            }
        }
        Ok(footprint)
    }

    /// Splits a pressure-scaled share of the system's superpages (oldest
    /// first, with reclaim puncturing, §3.2.3) and lets a transient
    /// neighbor snap up the reclaimed frames. Callers re-touch their
    /// footprints afterwards so punctured pages fault back in.
    fn apply_pressure(&self, kernel: &mut Kernel) -> MemResult<()> {
        if self.ths && self.pressure_split_fraction > 0.0 {
            let occupied =
                1.0 - kernel.free_frames() as f64 / kernel.buddy().nr_frames() as f64;
            let pressure = ((occupied - 0.20) * 2.2).clamp(0.3, 1.0);
            let fraction = (self.pressure_split_fraction * pressure).min(0.95);
            let live = kernel.live_superpage_count();
            let n = (live as f64 * fraction).round() as usize;
            kernel.split_superpages(n);
            // Other processes snap up the reclaimed frames before the
            // benchmark touches its punctured pages again.
            let mut scavenger = Interferer::new(kernel, self.seed ^ 0x5CAF);
            scavenger.interfere(kernel, 256)?;
        }
        Ok(())
    }

    /// Marks a deterministic `dirty_fraction` subset of `footprint` dirty.
    fn mark_dirty_fraction(&self, kernel: &mut Kernel, asid: Asid, footprint: &[Vpn]) {
        if self.dirty_fraction > 0.0 {
            let threshold = (self.dirty_fraction * 1000.0) as u64;
            for &vpn in footprint {
                let h = vpn.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                if h % 1000 < threshold {
                    // Superpage-backed pages have no base PTE to mark.
                    let _ = kernel.mark_dirty(asid, vpn);
                }
            }
        }
    }
}

/// What aging reads of a [`Scenario`] ([`Scenario::machine`]): the
/// fields of the same names, which fix the kernel it boots and how that
/// kernel is aged. Memhog, pressure, the dirty fraction and the name are
/// applied only after aging and are not here, so scenarios that differ
/// only in those share one machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineSpec {
    nr_frames: u64,
    ths: bool,
    compaction: CompactionMode,
    faults: Option<FaultConfig>,
    policy: PolicyKind,
    aging: AgingConfig,
    seed: u64,
}

impl MachineSpec {
    /// Boots the kernel and ages it the way two months of use would
    /// (§5.1.1). Nothing here depends on a benchmark or on the load
    /// applied later, so one aged machine can prepare every benchmark of
    /// every scenario of this machine.
    ///
    /// # Errors
    /// Propagates kernel errors from the aging pass.
    pub fn age(self) -> MemResult<AgedMachine> {
        let mut kernel = Kernel::new(KernelConfig {
            nr_frames: self.nr_frames,
            ths_enabled: self.ths,
            compaction: self.compaction,
            faults: self.faults,
            policy: self.policy,
            ..KernelConfig::default()
        });
        age_system(&mut kernel, self.aging, self.seed)?;
        Ok(AgedMachine { machine: self, kernel })
    }
}

impl fmt::Display for MachineSpec {
    /// THS, compaction, memory and seed, then the policy, the fault plan
    /// and the aging churn where they are not the defaults.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "THS {}, {} compaction, {} frames, seed {:#x}",
            if self.ths { "on" } else { "off" },
            if self.compaction == CompactionMode::Normal { "normal" } else { "low" },
            self.nr_frames,
            self.seed
        )?;
        if self.policy != PolicyKind::Default {
            write!(f, ", policy={}", self.policy)?;
        }
        if let Some(FaultConfig { rate, window, seed }) = self.faults {
            write!(f, ", faults rate={rate},window={window},seed={seed}")?;
        }
        if self.aging != AgingConfig::default() {
            write!(f, ", {:?}", self.aging)?;
        }
        Ok(())
    }
}

/// A machine's kernel, booted and aged but not yet loaded for any
/// benchmark. It keeps its [`MachineSpec`] and prepares only scenarios
/// of that machine.
///
/// Cloning deep-copies the kernel, its fault plan's PRNG state and its
/// policy counters included, so a benchmark prepared on a clone is
/// byte-identical to one prepared on a freshly aged machine.
#[derive(Clone, Debug)]
pub struct AgedMachine {
    machine: MachineSpec,
    kernel: Kernel,
}

impl AgedMachine {
    /// Prepares `spec` under `scenario` on the machine itself
    /// ([`Self::into_prepared_many`] with one benchmark). The workload
    /// carries `scenario`'s name.
    ///
    /// # Errors
    /// Propagates kernel errors (the scenario is sized so that genuine
    /// OOM indicates a configuration mistake).
    ///
    /// # Panics
    /// If `scenario` ages another machine ([`Scenario::machine`]).
    pub fn into_prepared(
        self,
        scenario: &Scenario,
        spec: &BenchmarkSpec,
    ) -> MemResult<PreparedWorkload> {
        let MultiWorkload { scenario_name, kernel, mut parts, _memhog } =
            self.into_prepared_many(scenario, std::slice::from_ref(spec))?;
        let (spec, asid, footprint) = parts.pop().expect("one benchmark was prepared");
        Ok(PreparedWorkload { scenario_name, spec, kernel, asid, footprint, _memhog })
    }

    /// Prepares `specs` under `scenario` on the machine itself: loads the
    /// system with the scenario's memhog, runs each benchmark's
    /// allocation phase in turn (as staggered program starts would),
    /// applies the scenario's long-run pressure and dirties the
    /// benchmarks' pages. The workload carries `scenario`'s name.
    ///
    /// # Errors
    /// Propagates kernel errors; the combined footprints plus load must
    /// fit the configured memory.
    ///
    /// # Panics
    /// If `scenario` ages another machine ([`Scenario::machine`]).
    pub fn into_prepared_many(
        self,
        scenario: &Scenario,
        specs: &[BenchmarkSpec],
    ) -> MemResult<MultiWorkload> {
        assert!(
            scenario.machine() == self.machine,
            "scenario '{}' ages machine '{}', not '{}'",
            scenario.name,
            scenario.machine(),
            self.machine
        );
        let mut kernel = self.kernel;

        // 1. System load + background-daemon settling.
        let memhog = scenario
            .engage_memhog(&mut kernel, specs.iter().map(|s| s.footprint_pages).sum::<u64>())?;

        // 2. Each benchmark process plus its interfering neighbor.
        let mut parts = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let asid = kernel.spawn();
            let mut interferer = Interferer::new(&mut kernel, scenario.seed ^ (0x1F + i as u64));
            let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0xA6E5 ^ (i as u64) << 32);
            let footprint =
                scenario.allocate_benchmark(&mut kernel, asid, spec, &mut interferer, &mut rng)?;
            parts.push((spec.clone(), asid, Arc::new(footprint)));
        }

        // 3. Long-run pressure: superpage splits with punctured residue.
        scenario.apply_pressure(&mut kernel)?;
        for (_, asid, footprint) in &parts {
            for &vpn in footprint.iter() {
                kernel.touch(*asid, vpn)?;
            }
        }
        kernel.tick();
        // An injected reclaim spike in that tick may have evicted clean
        // file-backed footprint pages; fault them back in (the
        // simulation assumes a fully mapped footprint).
        if scenario.faults.is_some() {
            for (_, asid, footprint) in &parts {
                for &vpn in footprint.iter() {
                    kernel.touch(*asid, vpn)?;
                }
            }
        }

        // 4. Write traffic: dirty a deterministic subset of pages.
        for (_, asid, footprint) in &parts {
            scenario.mark_dirty_fraction(&mut kernel, *asid, footprint);
        }
        Ok(MultiWorkload { scenario_name: scenario.name.clone(), kernel, parts, _memhog: memhog })
    }
}

/// Several benchmarks allocated in *one* kernel, for multiprogrammed
/// simulation (round-robin scheduling with TLB flushes at switches).
#[derive(Clone, Debug)]
pub struct MultiWorkload {
    /// Name of the scenario that produced this workload.
    pub scenario_name: String,
    /// The shared kernel.
    pub kernel: Kernel,
    /// Per-benchmark: the model, its address space, and its footprint.
    pub parts: Vec<(BenchmarkSpec, Asid, Arc<Vec<Vpn>>)>,
    /// Keeps memhog's pinned memory alive.
    _memhog: Option<Memhog>,
}

impl MultiWorkload {
    /// Builds the pattern generator for part `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn pattern(&self, index: usize, seed: u64) -> PatternGen {
        let (spec, _, footprint) = &self.parts[index];
        PatternGen::new(&spec.pattern, Arc::clone(footprint), seed)
    }

    /// Scans part `index`'s page-allocation contiguity.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn contiguity(&self, index: usize) -> ContiguityReport {
        self.kernel
            .scan_contiguity(self.parts[index].1)
            .expect("benchmark process is live")
    }
}

/// A benchmark allocated and ready to run under one scenario.
///
/// Cloning is a fast deep copy of the prepared kernel (the footprint is
/// `Arc`-shared): the sweep runner prepares once and hands clones to
/// cells instead of re-booting, and the snapshot cache persists the
/// preparation across `repro` invocations.
#[derive(Clone, Debug)]
pub struct PreparedWorkload {
    /// Name of the scenario that produced this workload.
    pub scenario_name: String,
    /// The benchmark model.
    pub spec: BenchmarkSpec,
    /// The kernel with all processes and page tables live.
    pub kernel: Kernel,
    /// The benchmark's address space.
    pub asid: Asid,
    /// All allocated pages in VA order (the pattern generator's domain).
    pub footprint: Arc<Vec<Vpn>>,
    /// Keeps memhog's pinned memory alive for the workload's lifetime.
    _memhog: Option<Memhog>,
}

impl PreparedWorkload {
    /// Builds the benchmark's access-pattern generator.
    pub fn pattern(&self, seed: u64) -> PatternGen {
        PatternGen::new(&self.spec.pattern, Arc::clone(&self.footprint), seed)
    }

    /// Scans the benchmark's page-allocation contiguity (the paper's §6
    /// measurement).
    pub fn contiguity(&self) -> ContiguityReport {
        self.kernel
            .scan_contiguity(self.asid)
            .expect("benchmark process is live")
    }

    /// Instructions represented by `accesses` memory references.
    pub fn instructions(&self, accesses: u64) -> u64 {
        accesses * self.spec.instructions_per_access
    }

    /// Serializes the prepared state for the on-disk snapshot cache.
    ///
    /// The benchmark spec itself is *not* serialized — it holds static
    /// table references — so [`PreparedWorkload::decode_snapshot`] takes
    /// the spec back from the caller and only checks the recorded name.
    pub fn encode_snapshot(&self, enc: &mut Enc) {
        enc.str(&self.scenario_name);
        enc.str(self.spec.name);
        self.kernel.encode(enc);
        self.asid.encode(enc);
        self.footprint.as_ref().encode(enc);
        self._memhog.encode(enc);
    }

    /// Rebuilds a prepared workload from [`Self::encode_snapshot`] bytes.
    ///
    /// # Errors
    /// Malformed bytes, or a snapshot recorded for a different benchmark
    /// than `spec`.
    pub fn decode_snapshot(dec: &mut Dec<'_>, spec: &BenchmarkSpec) -> SnapResult<Self> {
        let scenario_name = dec.str()?;
        let spec_name = dec.str()?;
        if spec_name != spec.name {
            return Err(SnapshotError(format!(
                "snapshot is for benchmark '{spec_name}', expected '{}'",
                spec.name
            )));
        }
        Ok(Self {
            scenario_name,
            spec: spec.clone(),
            kernel: Kernel::decode(dec)?,
            asid: Asid::decode(dec)?,
            footprint: Arc::new(Vec::decode(dec)?),
            _memhog: Option::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::benchmark;

    fn enc_of(w: &PreparedWorkload) -> Vec<u8> {
        let mut enc = Enc::new();
        w.encode_snapshot(&mut enc);
        enc.finish()
    }

    #[test]
    fn paper_five_scenarios_have_expected_settings() {
        let five = Scenario::paper_five();
        assert_eq!(five.len(), 5);
        assert!(five[0].ths && five[0].memhog_fraction == 0.0);
        assert!(!five[1].ths);
        assert_eq!(five[2].compaction, CompactionMode::Low);
        assert!(five[3].ths && five[3].memhog_fraction > 0.0);
        assert!(!five[4].ths && five[4].memhog_fraction > 0.0);
    }

    #[test]
    fn all_twelve_configurations_enumerate() {
        let twelve = Scenario::all_twelve();
        assert_eq!(twelve.len(), 12);
        let names: std::collections::HashSet<_> =
            twelve.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), 12, "names must be distinct");
        assert_eq!(twelve.iter().filter(|s| s.ths).count(), 6);
        assert_eq!(
            twelve.iter().filter(|s| s.compaction == CompactionMode::Low).count(),
            6
        );
        assert_eq!(twelve.iter().filter(|s| s.memhog_fraction == 0.0).count(), 4);
    }

    #[test]
    fn prepare_allocates_the_full_footprint() {
        let spec = benchmark("Gobmk").unwrap();
        let w = Scenario::default_linux().prepare(&spec).unwrap();
        assert_eq!(w.footprint.len() as u64, spec.footprint_pages);
        // Every footprint page translates.
        let proc = w.kernel.process(w.asid).unwrap();
        for &vpn in w.footprint.iter() {
            assert!(proc.translate(vpn).is_some(), "unbacked footprint page {vpn}");
        }
    }

    #[test]
    fn ths_scenario_creates_superpages_and_splits_some() {
        let spec = benchmark("Sjeng").unwrap(); // big 1024-page chunks
        let w = Scenario::default_linux().prepare(&spec).unwrap();
        let stats = w.kernel.stats();
        assert!(stats.thp_allocs > 0, "large anonymous chunks must get THP");
        assert!(stats.thp_splits > 0, "pressure must split some superpages");
    }

    #[test]
    fn no_ths_scenario_never_creates_superpages() {
        let spec = benchmark("Sjeng").unwrap();
        let w = Scenario::no_ths().prepare(&spec).unwrap();
        assert_eq!(w.kernel.stats().thp_allocs, 0);
        assert_eq!(w.kernel.process(w.asid).unwrap().page_table().stats().superpages, 0);
    }

    #[test]
    fn big_chunk_benchmarks_get_more_contiguity_than_small_chunk_ones() {
        let scenario = Scenario::no_ths();
        let sjeng = scenario.prepare(&benchmark("Sjeng").unwrap()).unwrap();
        let xalanc = scenario.prepare(&benchmark("Xalancbmk").unwrap()).unwrap();
        let c_sjeng = sjeng.contiguity().average_contiguity();
        let c_xalanc = xalanc.contiguity().average_contiguity();
        assert!(
            c_sjeng > 2.0 * c_xalanc,
            "Sjeng ({c_sjeng:.1}) must out-contiguity Xalancbmk ({c_xalanc:.1})"
        );
    }

    #[test]
    fn low_compaction_reduces_contiguity() {
        let spec = benchmark("Mcf").unwrap();
        let normal = Scenario::no_ths().prepare(&spec).unwrap();
        let low = Scenario::no_ths_low_compaction().prepare(&spec).unwrap();
        let cn = normal.contiguity().average_contiguity();
        let cl = low.contiguity().average_contiguity();
        // With THS off the compaction daemon barely runs (§6.2), so the
        // two configurations land close together; allow seed noise.
        assert!(
            cn * 1.5 >= cl,
            "normal compaction ({cn:.2}) must not badly trail low compaction ({cl:.2})"
        );
    }

    #[test]
    fn memhog_scenario_prepares_successfully_at_50_percent() {
        let spec = benchmark("Povray").unwrap(); // small footprint
        let w = Scenario::default_with_memhog(0.5).prepare(&spec).unwrap();
        assert_eq!(w.footprint.len() as u64, spec.footprint_pages);
        assert!(w.kernel.frames().counts().pinned > 0, "memhog is holding memory");
    }

    #[test]
    fn prepare_many_shares_one_kernel() {
        let specs = [benchmark("Gobmk").unwrap(), benchmark("Povray").unwrap()];
        let multi = Scenario::default_linux().prepare_many(&specs).unwrap();
        assert_eq!(multi.parts.len(), 2);
        let (a, b) = (multi.parts[0].1, multi.parts[1].1);
        assert_ne!(a, b, "distinct address spaces");
        for (i, (spec, asid, footprint)) in multi.parts.iter().enumerate() {
            assert_eq!(footprint.len() as u64, spec.footprint_pages);
            let proc = multi.kernel.process(*asid).unwrap();
            for &vpn in footprint.iter() {
                assert!(proc.translate(vpn).is_some(), "part {i} page {vpn} unbacked");
            }
            assert!(multi.contiguity(i).average_contiguity() >= 1.0);
        }
        // Patterns roam their own footprints only.
        let mut g = multi.pattern(1, 7);
        for _ in 0..200 {
            let r = g.next_ref();
            assert!(multi.parts[1].2.contains(&r.vpn));
        }
    }

    #[test]
    fn faulty_preparation_completes_and_is_deterministic() {
        let spec = benchmark("Gobmk").unwrap();
        let scen = Scenario::default_linux().with_faults(FaultConfig::default());
        let a = scen.prepare(&spec).unwrap();
        let b = scen.prepare(&spec).unwrap();
        assert!(a.kernel.stats().faults_injected > 0, "the plan must fire");
        assert_eq!(a.footprint, b.footprint);
        assert_eq!(a.kernel.stats(), b.kernel.stats());
        // Same scenario without the plan allocates differently-degraded
        // memory but the same footprint VPNs.
        let clean = Scenario::default_linux().prepare(&spec).unwrap();
        assert_eq!(clean.kernel.stats().faults_injected, 0);
    }

    #[test]
    fn snapshot_round_trip_reproduces_the_prepared_workload() {
        let spec = benchmark("Gobmk").unwrap();
        let w = Scenario::default_with_memhog(0.25).prepare(&spec).unwrap();
        let mut enc = Enc::new();
        w.encode_snapshot(&mut enc);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        let back = PreparedWorkload::decode_snapshot(&mut dec, &spec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.scenario_name, w.scenario_name);
        assert_eq!(back.asid, w.asid);
        assert_eq!(back.footprint, w.footprint);
        assert_eq!(back.kernel.stats(), w.kernel.stats());
        assert_eq!(back.kernel.free_frames(), w.kernel.free_frames());
        let (a, b) = (w.contiguity(), back.contiguity());
        assert_eq!(a.average_contiguity(), b.average_contiguity());
        // Walk a sample of pages: identical translations and PTE addresses.
        let proc_a = w.kernel.process(w.asid).unwrap();
        let proc_b = back.kernel.process(back.asid).unwrap();
        for &vpn in w.footprint.iter().step_by(37) {
            assert_eq!(proc_a.translate(vpn), proc_b.translate(vpn));
        }
        // Decoding against the wrong spec is refused.
        let other = benchmark("Bzip2").unwrap();
        assert!(PreparedWorkload::decode_snapshot(&mut Dec::new(&bytes), &other).is_err());
    }

    #[test]
    fn clone_is_deep_for_the_kernel() {
        let spec = benchmark("Povray").unwrap();
        let w = Scenario::default_linux().prepare(&spec).unwrap();
        let mut c = w.clone();
        let before = w.kernel.stats();
        // Mutating the clone must not disturb the original.
        c.kernel.tick();
        let extra = c.kernel.spawn();
        c.kernel.malloc(extra, 64).unwrap();
        assert_eq!(w.kernel.stats(), before);
        assert!(w.kernel.process(extra).is_err());
        assert_eq!(w.footprint, c.footprint);
    }

    #[test]
    fn preparation_is_deterministic() {
        let spec = benchmark("Astar").unwrap();
        let a = Scenario::default_linux().prepare(&spec).unwrap();
        let b = Scenario::default_linux().prepare(&spec).unwrap();
        assert_eq!(a.footprint, b.footprint);
        assert_eq!(
            a.contiguity().average_contiguity(),
            b.contiguity().average_contiguity()
        );
    }

    #[test]
    fn with_policy_tags_names_only_for_non_default_policies() {
        let base = Scenario::default_linux();
        let name = base.name.clone();
        assert_eq!(base.clone().with_policy(PolicyKind::Default).name, name);
        let greedy = base.clone().with_policy(PolicyKind::GreedyContig);
        assert_eq!(greedy.name, format!("{name} [policy=greedy_contig]"));
        // Re-tagging replaces, never stacks, the suffix.
        let retagged = greedy.with_policy(PolicyKind::Adversarial);
        assert_eq!(retagged.name, format!("{name} [policy=adversarial]"));
        assert_eq!(retagged.clone().with_policy(PolicyKind::Default).name, name);
    }

    #[test]
    fn default_policy_prepares_byte_identically() {
        let spec = benchmark("Gobmk").unwrap();
        let plain = Scenario::default_linux().prepare(&spec).unwrap();
        let tagged = Scenario::default_linux()
            .with_policy(PolicyKind::Default)
            .prepare(&spec)
            .unwrap();
        assert_eq!(enc_of(&plain), enc_of(&tagged), "DefaultPolicy must be a no-op");
    }

    #[test]
    fn one_aged_machine_prepares_each_benchmark_as_a_fresh_boot_does() {
        // Each distinct machine ages once: the twelve configurations'
        // four (memhog 0/25/50% share one), plus a fault plan's and a
        // policy's. Every benchmark of every scenario of the machine is
        // prepared on a clone of it, the last on the machine itself. Each
        // must encode to the bytes of that scenario's own
        // `Scenario::prepare`, so a clone must carry the fault plan's PRNG
        // state and the policy counters along with the memory map, and the
        // memhog, pressure, dirtying and name must come from the scenario.
        let specs = [benchmark("Gobmk").unwrap(), benchmark("Povray").unwrap()];
        let mut machines: Vec<(MachineSpec, Vec<Scenario>)> = Vec::new();
        for scenario in Scenario::all_twelve().into_iter().chain([
            Scenario::default_linux().with_faults(FaultConfig::default()),
            Scenario::default_linux().with_policy(PolicyKind::GreedyContig),
        ]) {
            match machines.iter_mut().find(|(m, _)| *m == scenario.machine()) {
                Some((_, sharing)) => sharing.push(scenario),
                None => machines.push((scenario.machine(), vec![scenario])),
            }
        }
        assert_eq!(machines.len(), 6);
        for (machine, sharing) in machines {
            let mut aged = Some(machine.age().unwrap());
            let preps: Vec<_> =
                sharing.iter().flat_map(|s| specs.iter().map(move |spec| (s, spec))).collect();
            for (i, &(scenario, spec)) in preps.iter().enumerate() {
                let from = if i + 1 == preps.len() { aged.take() } else { aged.clone() };
                let w = from.unwrap().into_prepared(scenario, spec).unwrap();
                assert!(
                    enc_of(&w) == enc_of(&scenario.prepare(spec).unwrap()),
                    "{} / {}: preparing from the shared aged machine changed the snapshot",
                    scenario.name,
                    spec.name
                );
            }
        }
    }

    #[test]
    fn a_machine_is_exactly_what_aging_reads() {
        let base = Scenario::default_linux();
        let one_aging_field_changed = [
            Scenario { nr_frames: base.nr_frames / 2, ..base.clone() },
            Scenario { ths: false, ..base.clone() },
            Scenario { compaction: CompactionMode::Low, ..base.clone() },
            base.clone().with_faults(FaultConfig::default()),
            base.clone().with_policy(PolicyKind::GreedyContig),
            Scenario { aging: AgingConfig { churn_ops: 601, ..base.aging }, ..base.clone() },
            base.clone().with_seed(base.seed + 1),
        ];
        for (i, a) in one_aging_field_changed.iter().enumerate() {
            assert!(a.machine() != base.machine(), "change {i} kept the machine");
            for b in &one_aging_field_changed[i + 1..] {
                assert!(a.machine() != b.machine(), "{} shares {}", a.machine(), b.machine());
            }
        }

        let applied_after_aging = [
            Scenario { name: "renamed".into(), ..base.clone() },
            Scenario::default_with_memhog(0.5),
            Scenario { pressure_split_fraction: 0.1, ..base.clone() },
            base.clone().with_dirty_fraction(0.3),
        ];
        for s in &applied_after_aging {
            assert!(s.machine() == base.machine(), "'{}' ages another machine", s.name);
        }

        // The refusal comes before any work, so a tiny machine will do.
        let small = |s: Scenario| Scenario { nr_frames: 4096, ..s };
        let aged = small(Scenario::no_ths()).machine().age().unwrap();
        let spec = benchmark("Povray").unwrap();
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            aged.into_prepared(&small(Scenario::default_linux()), &spec)
        }));
        assert!(refused.is_err(), "a scenario of another machine must be refused");
    }

    #[test]
    fn no_thp_policy_backs_nothing_hugely() {
        let spec = benchmark("Sjeng").unwrap(); // big chunks: THP bait
        let w = Scenario::default_linux()
            .with_policy(PolicyKind::NoThp)
            .prepare(&spec)
            .unwrap();
        let stats = w.kernel.stats();
        assert_eq!(stats.thp_allocs, 0, "NoThp must deny every huge grant");
        assert_eq!(stats.policy_collapses_triggered, 0, "NoThp must veto khugepaged");
        assert!(stats.policy_huge_denies > 0, "denials must be counted");
        assert_eq!(w.kernel.process(w.asid).unwrap().page_table().stats().superpages, 0);
    }

    #[test]
    fn policy_contiguity_orders_greedy_above_default_above_adversarial() {
        let spec = benchmark("Mcf").unwrap();
        let contig = |kind| {
            Scenario::default_linux()
                .with_policy(kind)
                .prepare(&spec)
                .unwrap()
                .contiguity()
                .average_contiguity()
        };
        let greedy = contig(PolicyKind::GreedyContig);
        let default = contig(PolicyKind::Default);
        let adversarial = contig(PolicyKind::Adversarial);
        assert!(
            greedy >= default,
            "greedy_contig ({greedy:.2}) must not trail default ({default:.2})"
        );
        assert!(
            default > adversarial,
            "default ({default:.2}) must beat adversarial ({adversarial:.2})"
        );
    }

    #[test]
    fn non_default_policy_counters_are_live() {
        let spec = benchmark("Gobmk").unwrap();
        let w = Scenario::default_linux()
            .with_policy(PolicyKind::GreedyContig)
            .prepare(&spec)
            .unwrap();
        let stats = w.kernel.stats();
        assert!(stats.policy_decisions > 0);
        assert!(stats.policy_huge_grants > 0);
        assert!(stats.policy_compactions_requested > 0);
    }
}
