//! Experiment drivers: one module per table/figure of the paper's
//! evaluation (see DESIGN.md §3 for the full index).
//!
//! | module | reproduces |
//! |---|---|
//! | [`table1`] | Table 1 — real-system-sized L1/L2 MPMIs, THS on/off |
//! | [`contiguity`] | Figures 7–15 — contiguity CDFs per kernel config |
//! | [`memhog_load`] | Figures 16–17 — contiguity under memhog load |
//! | [`miss_elimination`] | Figure 18 — % misses eliminated by CoLT-SA/FA/All |
//! | [`index_shift`] | Figure 19 — CoLT-SA index left-shift sweep |
//! | [`associativity`] | Figure 20 — 4-way vs 8-way, with/without CoLT |
//! | [`performance`] | Figure 21 — performance vs perfect TLBs |
//! | [`ablation`] | §7.1.3 fill-to-L2 policy + extra design ablations |
//! | [`virtualization`] | §7.2's expectation: CoLT under nested paging |
//! | [`related_work`] | §2.1/§2.4: CoLT vs sequential TLB prefetching |
//! | [`context_switch`] | extension: elimination vs TLB-flush frequency |
//! | [`summary`] | scorecard: paper vs measured, in one table |
//! | [`grid`] | all twelve §5.1.1 kernel configurations |
//! | [`noise`] | seed-sensitivity of the headline averages |
//! | [`multiprog`] | extension: two benchmarks sharing one machine |
//! | [`smp`] | extension: N-core mixes, ASID tagging, shootdown IPIs |
//! | [`pressure`] | robustness: fault-injection intensity sweep |
//! | [`policy`] | extension: MM-policy sweep across the 8 TLB configs |
//!
//! Every driver returns structured rows plus [`Table`]s whose columns
//! include the paper's published values next to the measured ones, so
//! the `repro` binary's output doubles as the EXPERIMENTS.md data source.

pub mod ablation;
pub mod associativity;
pub mod context_switch;
pub mod contiguity;
pub mod grid;
pub mod index_shift;
pub mod memhog_load;
pub mod miss_elimination;
pub mod multiprog;
pub mod noise;
pub mod performance;
pub mod policy;
pub mod pressure;
pub mod related_work;
pub mod smp;
pub mod summary;
pub mod table1;
pub mod torture;
pub mod virtualization;

use crate::journal::Journal;
use crate::report::Table;
use crate::runner::SweepOptions;
use colt_os_mem::faults::FaultConfig;
use colt_os_mem::policy::PolicyKind;
use colt_workloads::spec::{all_benchmarks, BenchmarkSpec};
use std::sync::Arc;

/// Options shared by all experiment drivers.
#[derive(Clone, Debug)]
pub struct ExperimentOptions {
    /// Simulated memory references per benchmark per configuration.
    pub accesses: u64,
    /// Restrict to these benchmarks (None = all 14).
    pub benchmarks: Option<Vec<String>>,
    /// Master seed for patterns.
    pub seed: u64,
    /// Worker threads for the sweep runner. Results are deterministic
    /// regardless of this value; it only changes wall-clock time.
    pub jobs: usize,
    /// Simulated cores for the `smp_*` experiments (ignored by the
    /// single-core paper experiments). 1 keeps every existing headline
    /// table untouched.
    pub cores: usize,
    /// Fault-injection plan for the `pressure` experiment and for
    /// `--check` runs under injection (`None` everywhere else — the
    /// paper experiments never see a fault).
    pub faults: Option<FaultConfig>,
    /// Durable cell journal for this experiment run. `Some` when the
    /// `repro` binary wants crash-safe progress (always, for journaled
    /// experiments); replayed on `--resume`.
    pub journal: Option<Arc<Journal>>,
    /// Memory-management policy every scenario boots under
    /// (`repro --policy NAME`). [`PolicyKind::Default`] reproduces the
    /// historical headline tables byte-identically; the `policy`
    /// experiment sweeps all shipped policies regardless of this value.
    pub policy: PolicyKind,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            accesses: 400_000,
            benchmarks: None,
            seed: 0x5EED,
            jobs: default_jobs(),
            cores: 1,
            faults: None,
            journal: None,
            policy: PolicyKind::Default,
        }
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl ExperimentOptions {
    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Self { accesses: 30_000, ..Self::default() }
    }

    /// Overrides the worker-thread count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the fault-injection plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Restricts the benchmark set.
    #[must_use]
    pub fn with_benchmarks(mut self, names: &[&str]) -> Self {
        self.benchmarks = Some(names.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Sets the memory-management policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Applies this run's memory-management policy to a driver's
    /// scenario. Every experiment driver routes its scenarios through
    /// here so `repro --policy NAME` governs the whole run; the default
    /// policy leaves the scenario (name and bytes) untouched.
    #[must_use]
    pub fn scenario(&self, scenario: colt_workloads::scenario::Scenario)
    -> colt_workloads::scenario::Scenario {
        scenario.with_policy(self.policy)
    }

    /// The sweep options these describe, for the runner's
    /// `run_cells_sweep`/`run_tasks_sweep` entry points.
    pub fn sweep(&self) -> SweepOptions<'_> {
        SweepOptions { jobs: self.jobs, journal: self.journal.as_deref() }
    }

    /// Fingerprint of this invocation for `experiment`: a checksum over
    /// every flag that changes results. Journal records carrying a
    /// different fingerprint are never replayed.
    pub fn fingerprint(&self, experiment: &str) -> String {
        let benchmarks = match &self.benchmarks {
            None => "all".to_string(),
            Some(names) => names.join("+"),
        };
        let faults = match &self.faults {
            None => "none".to_string(),
            Some(f) => format!(
                "rate={:016x},window={},seed={}",
                f.rate.to_bits(),
                f.window,
                f.seed
            ),
        };
        let canonical = format!(
            "{experiment};accesses={};seed={};benchmarks={benchmarks};cores={};\
             faults={faults};policy={}",
            self.accesses,
            self.seed,
            self.cores,
            self.policy.name()
        );
        crate::journal::fingerprint_of(&canonical)
    }

    /// The benchmark models this run covers.
    pub fn selected_benchmarks(&self) -> Vec<BenchmarkSpec> {
        let specs = all_benchmarks();
        match &self.benchmarks {
            None => specs,
            Some(names) => specs
                .into_iter()
                .filter(|s| names.iter().any(|n| n.eq_ignore_ascii_case(s.name)))
                .collect(),
        }
    }
}

/// A rendered experiment: its name and one or more output tables.
#[derive(Clone, Debug)]
pub struct ExperimentOutput {
    /// Experiment identifier (e.g. "fig18").
    pub id: &'static str,
    /// Output tables in presentation order.
    pub tables: Vec<Table>,
}

impl ExperimentOutput {
    /// Renders all tables.
    pub fn render(&self) -> String {
        self.tables.iter().map(Table::render).collect::<Vec<_>>().join("\n")
    }
}

/// The result of [`run_named`]: the rendered output plus the structured
/// side products some experiments produce (the binary feeds them into
/// `BENCH_smp.json` / `BENCH_pressure.json`; `repro serve` only needs
/// the tables).
pub struct NamedRun {
    /// The experiment's tables.
    pub output: ExperimentOutput,
    /// SMP rows (non-empty only for `smp_mix` / `smp_scaling`).
    pub smp_rows: Vec<smp::SmpRow>,
    /// The pressure report (`Some` only for `pressure`).
    pub pressure: Option<pressure::PressureReport>,
    /// The policy-sweep report (`Some` only for `policy`).
    pub policy: Option<policy::PolicyReport>,
}

/// Dispatches one experiment by its CLI name (`fig18`, `table1`, …).
/// `None` for an unknown name — no side effects, no partial run. This
/// is the single name→driver table; the `repro` binary and the serve
/// dispatcher both route through it so a sweep served over a socket is
/// the same code path as one run directly.
pub fn run_named(name: &str, opts: &ExperimentOptions) -> Option<NamedRun> {
    let mut smp_rows: Vec<smp::SmpRow> = Vec::new();
    let mut pressure_report: Option<pressure::PressureReport> = None;
    let mut policy_report: Option<policy::PolicyReport> = None;
    let output: ExperimentOutput = match name {
        "table1" => table1::run(opts).1,
        "fig7-9" => contiguity::run(contiguity::ContiguityConfig::ThsOn, opts).1,
        "fig10-12" => contiguity::run(contiguity::ContiguityConfig::ThsOff, opts).1,
        "fig13-15" => {
            contiguity::run(contiguity::ContiguityConfig::LowCompaction, opts).1
        }
        "fig16-17" => memhog_load::run(opts).1,
        "fig18" => miss_elimination::run(opts).1,
        "fig19" => index_shift::run(opts).1,
        "fig20" => associativity::run(opts).1,
        "fig21" => performance::run(opts).1,
        "ablation" => ablation::run(opts).1,
        "virt" => virtualization::run(opts).1,
        "related" => related_work::run(opts).1,
        "ctxswitch" => context_switch::run(opts).1,
        "summary" => summary::run(opts).1,
        "grid" => grid::run(opts).1,
        "noise" => noise::run(opts).1,
        "multiprog" => multiprog::run(opts).1,
        "smp_mix" => {
            let (rows, out) = smp::run_mix(opts);
            smp_rows.extend(rows);
            out
        }
        "smp_scaling" => {
            let (rows, out) = smp::run_scaling(opts);
            smp_rows.extend(rows);
            out
        }
        "pressure" => {
            let (report, out) = pressure::run(opts);
            pressure_report = Some(report);
            out
        }
        "policy" => {
            let (report, out) = policy::run(opts);
            policy_report = Some(report);
            out
        }
        _ => return None,
    };
    Some(NamedRun {
        output,
        smp_rows,
        pressure: pressure_report,
        policy: policy_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_named_rejects_unknown_names_without_side_effects() {
        let opts = ExperimentOptions::quick();
        assert!(run_named("not-an-experiment", &opts).is_none());
        assert!(run_named("", &opts).is_none());
    }

    #[test]
    fn options_select_benchmarks() {
        let all = ExperimentOptions::default().selected_benchmarks();
        assert_eq!(all.len(), 14);
        let two = ExperimentOptions::default()
            .with_benchmarks(&["mcf", "Bzip2"])
            .selected_benchmarks();
        assert_eq!(two.len(), 2);
    }

    #[test]
    fn quick_options_are_cheaper() {
        assert!(ExperimentOptions::quick().accesses < ExperimentOptions::default().accesses);
    }

    #[test]
    fn fingerprints_separate_policies_and_scenario_helper_tags_names() {
        let base = ExperimentOptions::quick();
        let mut prints: Vec<String> = PolicyKind::all()
            .iter()
            .map(|&p| base.clone().with_policy(p).fingerprint("fig18"))
            .collect();
        prints.sort();
        prints.dedup();
        assert_eq!(
            prints.len(),
            PolicyKind::all().len(),
            "every policy must fingerprint distinctly — journals and sweep \
             caches key on it"
        );

        // The scenario() helper is how every driver picks the policy up.
        let tagged = base
            .clone()
            .with_policy(PolicyKind::Adversarial)
            .scenario(colt_workloads::scenario::Scenario::default_linux());
        assert!(tagged.name.contains("[policy=adversarial]"), "{}", tagged.name);
        let untouched = base.scenario(colt_workloads::scenario::Scenario::default_linux());
        assert_eq!(
            untouched.name,
            colt_workloads::scenario::Scenario::default_linux().name,
            "the default policy must leave scenario names byte-identical"
        );
    }
}
