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
//! The simulation drivers declare [`Variant`]s and run them through
//! [`ExperimentOptions::run_grid`], which simulates each distinct cell
//! once.

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
use crate::runner::{self, SweepCell, SweepOptions};
use crate::sim::{SimConfig, SimResult};
use colt_os_mem::faults::FaultConfig;
use colt_os_mem::policy::PolicyKind;
use colt_tlb::config::TlbConfig;
use colt_tlb::stats::pct_misses_eliminated;
use colt_workloads::scenario::Scenario;
use colt_workloads::spec::{all_benchmarks, benchmark, BenchmarkSpec};
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
    pub fn scenario(&self, scenario: Scenario) -> Scenario {
        scenario.with_policy(self.policy)
    }

    /// The simulation of `tlb` at this run's access budget and pattern
    /// seed: the one place a cell's config picks the two up.
    pub fn sim(&self, tlb: TlbConfig) -> SimConfig {
        SimConfig { pattern_seed: self.seed, ..SimConfig::new(tlb).with_accesses(self.accesses) }
    }

    /// A variant on the default Linux scenario, under this run's policy.
    pub fn variant(&self, label: impl Into<String>, cfg: SimConfig) -> Variant {
        Variant { label: label.into(), scenario: self.scenario(Scenario::default_linux()), cfg }
    }

    /// Runs every selected benchmark under every variant as one sweep,
    /// cells labelled `{experiment}/{benchmark}/{variant}`, and returns
    /// each benchmark with one result per variant, in declaration
    /// order. A variant whose scenario and config equal an earlier
    /// one's (their `Debug` text, which is how
    /// [`prep_key`](crate::snapshot_cache::prep_key) keys preparations)
    /// is simulated once, under the earlier label, and shares its
    /// result.
    pub fn run_grid(
        &self,
        experiment: &str,
        variants: &[Variant],
    ) -> Vec<(BenchmarkSpec, Vec<SimResult>)> {
        let keys: Vec<String> =
            variants.iter().map(|v| format!("{:?}\u{1}{:?}", v.scenario, v.cfg)).collect();
        // Each variant's position among the distinct variants.
        let mut distinct: Vec<usize> = Vec::new();
        let slots: Vec<usize> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                distinct.iter().position(|&d| keys[d] == *key).unwrap_or_else(|| {
                    distinct.push(i);
                    distinct.len() - 1
                })
            })
            .collect();
        let specs = self.selected_benchmarks();
        let mut cells = Vec::new();
        for spec in &specs {
            for v in distinct.iter().map(|&d| &variants[d]) {
                let label = format!("{experiment}/{}/{}", spec.name, v.label);
                cells.push(SweepCell::sim(label, &v.scenario, spec, v.cfg));
            }
        }
        let results = runner::expect_all(runner::run_cells_sweep(cells, &self.sweep()));
        specs
            .into_iter()
            .enumerate()
            .map(|(b, spec)| {
                let row = &results[b * distinct.len()..];
                (spec, slots.iter().map(|&s| row[s]).collect())
            })
            .collect()
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

    /// Checks that every name in [`benchmarks`](Self::benchmarks) names
    /// a benchmark model, so a typo fails before anything runs instead
    /// of printing empty tables. The error lists the valid names.
    pub fn check_benchmarks(&self) -> Result<(), String> {
        let unknown: Vec<String> = self
            .benchmarks
            .iter()
            .flatten()
            .filter(|name| benchmark(name).is_none())
            .map(|name| format!("'{name}'"))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        let valid: Vec<&str> = all_benchmarks().iter().map(|s| s.name).collect();
        Err(format!("unknown benchmark {} (valid: {})", unknown.join(", "), valid.join(" ")))
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

/// The mean over a grid's benchmarks of the % of variant `base`'s
/// misses (as `misses` counts them) that variant `variant` eliminates.
pub(crate) fn mean_elimination(
    grid: &[(BenchmarkSpec, Vec<SimResult>)],
    base: usize,
    variant: usize,
    misses: fn(&SimResult) -> u64,
) -> f64 {
    let sum = grid
        .iter()
        .fold(0.0, |s, (_, r)| s + pct_misses_eliminated(misses(&r[base]), misses(&r[variant])));
    sum / grid.len().max(1) as f64
}

/// One column of a driver's grid: the scenario and the simulation that
/// every selected benchmark runs under. Drivers declare their variants
/// and [`ExperimentOptions::run_grid`] runs them.
#[derive(Clone, Debug)]
pub struct Variant {
    /// Names the variant's cells: `{experiment}/{benchmark}/{label}`.
    pub label: String,
    /// The machine each benchmark is prepared on.
    pub scenario: Scenario,
    /// The simulation each benchmark runs.
    pub cfg: SimConfig,
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

    /// `opts` journaling `experiment` into a fresh temp directory, with
    /// the journal (to count its records) and the directory, which holds
    /// the test's I/O guard until dropped.
    pub(super) fn journaled(
        opts: ExperimentOptions,
        experiment: &str,
    ) -> (ExperimentOptions, Arc<Journal>, crate::io_faults::TestDir) {
        let dir = crate::io_faults::TestDir::new(&format!("experiments-{experiment}"));
        let journal = Arc::new(
            Journal::open(&dir, experiment, opts.fingerprint(experiment), false)
                .expect("journal opens"),
        );
        (ExperimentOptions { journal: Some(Arc::clone(&journal)), ..opts }, journal, dir)
    }

    #[test]
    fn run_grid_simulates_a_repeated_variant_once_and_shares_its_result() {
        let opts = ExperimentOptions {
            accesses: 4_000,
            ..ExperimentOptions::quick().with_benchmarks(&["Gobmk", "Bzip2"])
        };
        let (opts, journal, dir) = journaled(opts, "grid-test");
        let base = opts.sim(TlbConfig::baseline());
        let variants = [
            opts.variant("base", base),
            opts.variant("all", opts.sim(TlbConfig::colt_all())),
            opts.variant("base-again", base),
            // Same config on another machine: a distinct cell.
            Variant { label: "no-ths".into(), scenario: Scenario::no_ths(), cfg: base },
        ];
        let grid = opts.run_grid("grid-test", &variants);
        assert_eq!(grid.len(), 2);
        for (spec, r) in &grid {
            assert_eq!(r.len(), variants.len());
            assert_eq!(format!("{:?}", r[2]), format!("{:?}", r[0]), "{}", spec.name);
        }
        assert_eq!(journal.appended(), 6, "three distinct cells per benchmark, journaled once");
        let records = std::fs::read_to_string(dir.join("grid-test.jsonl")).unwrap();
        assert!(records.contains("grid-test/Gobmk/base"), "{records}");
        assert!(!records.contains("base-again"), "a repeat runs under the first label");
    }

    #[test]
    fn check_benchmarks_rejects_unknown_names_and_lists_the_valid_ones() {
        assert!(ExperimentOptions::quick().check_benchmarks().is_ok());
        let opts = ExperimentOptions::quick().with_benchmarks(&["gobmk", "Bzip2"]);
        assert!(opts.check_benchmarks().is_ok(), "names match case-insensitively");
        let err = ExperimentOptions::quick()
            .with_benchmarks(&["Gobmk", "Nope", ""])
            .check_benchmarks()
            .expect_err("unknown names are rejected");
        assert!(err.contains("'Nope', ''"), "{err}");
        assert!(err.contains("Mcf") && err.contains("Milc"), "the valid names are listed: {err}");
        assert!(!err.contains("'Gobmk'"), "{err}");
    }

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
