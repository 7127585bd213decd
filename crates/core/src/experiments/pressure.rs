//! Memory-pressure fault-injection sweep (`pressure` experiment).
//!
//! Robustness study, not a paper figure: every TLB configuration (the
//! four paper designs plus their future-work variants) is simulated on
//! workloads prepared by a kernel suffering *injected* memory-pressure
//! faults — buddy-allocation failures, direct-compaction aborts, and
//! reclaim spikes from a seeded [`FaultPlan`](colt_os_mem::faults) —
//! at increasing intensity (rate 0, rate/2, rate). The interesting
//! questions:
//!
//! * does graceful degradation hold (THP base-page fallback + deferred
//!   khugepaged collapse, compaction backoff, emergency reclaim, the
//!   deterministic OOM killer), i.e. does every sweep cell still
//!   complete and stay deterministic, and
//! * what does degraded contiguity cost CoLT — how much of the
//!   miss-elimination headline survives when superpage allocation keeps
//!   failing underneath it.
//!
//! The sweep runs through [`runner::run_cells_sweep`], so a cell that
//! dies becomes a failure row instead of killing the sweep — the BENCH
//! json carries partial results plus the failure report. With a journal
//! in the options the sweep is also crash-safe: finished cells are
//! fsynced to `results/journal/pressure.jsonl` and `--resume` replays
//! them.
//!
//! With `--cores N` (N > 1) an SMP leg rides along: the light
//! eight-benchmark mix on N ASID-tagged cores, with the fault plan
//! installed in the shared kernel *after* preparation, so kernel churn
//! degrades (and OOM-kills) live under cross-core shootdown traffic.

use super::smp::{window_cell, MIX_LIGHT};
use super::{ExperimentOptions, ExperimentOutput};
use crate::check::check_configs;
use crate::report::Table;
use crate::runner::{self, CellOutcome, SweepCell};
use colt_os_mem::faults::FaultConfig;
use colt_os_mem::kernel::KernelStats;
use colt_os_mem::policy::PolicyKind;
use colt_workloads::scenario::Scenario;
use colt_workloads::spec::{benchmark, BenchmarkSpec};

/// Default benchmark subset: the paper's largest footprint (Mcf), the
/// two headline mid-size programs, and a small one — enough spread to
/// see degradation without sweeping all 14 at 24 cells each.
pub const DEFAULT_BENCHMARKS: [&str; 4] = ["Mcf", "Gobmk", "Xalancbmk", "Bzip2"];

/// One (benchmark × TLB config × fault intensity) measurement.
#[derive(Clone, Debug)]
pub struct PressureRow {
    /// Benchmark name.
    pub benchmark: String,
    /// TLB configuration label ("Baseline", "CoLT-All+fw", ...).
    pub config: String,
    /// Injected fault rate for this cell (0.0 = clean baseline).
    pub rate: f64,
    /// Memory references simulated.
    pub accesses: u64,
    /// L1-level TLB misses.
    pub l1_misses: u64,
    /// Page walks (L2 misses).
    pub walks: u64,
    /// Cycles spent walking.
    pub walk_cycles: u64,
    /// Kernel degradation counters from the preparation phase.
    pub kernel: KernelStats,
}

/// One SMP measurement under injection (only with `--cores N`, N > 1).
#[derive(Clone, Debug)]
pub struct SmpPressureRow {
    /// Injected fault rate (0.0 = clean baseline).
    pub rate: f64,
    /// Core count.
    pub cores: usize,
    /// Aggregate memory references.
    pub accesses: u64,
    /// Aggregate page walks.
    pub walks: u64,
    /// Shootdown IPIs sent.
    pub ipis_sent: u64,
    /// Kernel counters after the run (includes live-phase degradation).
    pub kernel: KernelStats,
}

impl crate::journal::JournalPayload for SmpPressureRow {
    fn encode(&self) -> String {
        let e = crate::journal::Enc::new("smpress2")
            .f(self.rate)
            .u(self.cores as u64)
            .u(self.accesses)
            .u(self.walks)
            .u(self.ipis_sent);
        crate::journal::enc_kernel(e, &self.kernel).done()
    }
    fn decode(s: &str) -> Option<Self> {
        let mut d = crate::journal::Dec::new(s, "smpress2")?;
        let row = SmpPressureRow {
            rate: d.f()?,
            cores: usize::try_from(d.u()?).ok()?,
            accesses: d.u()?,
            walks: d.u()?,
            ipis_sent: d.u()?,
            kernel: crate::journal::dec_kernel(&mut d)?,
        };
        d.exhausted().then_some(row)
    }
}

/// A sweep cell that died: its preparation failed or its job panicked.
#[derive(Clone, Debug)]
pub struct FailedCell {
    /// Label of the failed cell.
    pub label: String,
    /// Panic message or preparation error.
    pub payload: String,
}

/// The result of one sweep cell, or `None` after recording why the cell
/// failed in `failures` — the failure report of the pressure and policy
/// sweeps.
pub(crate) fn ok_or_record<R>(
    outcome: CellOutcome<R>,
    failures: &mut Vec<FailedCell>,
) -> Option<R> {
    match outcome {
        CellOutcome::Ok(r) => Some(r),
        CellOutcome::Failed { label, payload }
        | CellOutcome::Quarantined { label, reason: payload } => {
            failures.push(FailedCell { label, payload });
            None
        }
    }
}

/// Everything the pressure sweep produced: per-cell rows, the SMP leg,
/// and the failure report (empty on a healthy run).
#[derive(Clone, Debug, Default)]
pub struct PressureReport {
    /// Single-core rows, in (benchmark, rate, config) order.
    pub rows: Vec<PressureRow>,
    /// SMP rows, in rate order (empty unless `--cores N`, N > 1).
    pub smp_rows: Vec<SmpPressureRow>,
    /// Cells that failed; the sweep still completed around them.
    pub failures: Vec<FailedCell>,
}

/// The swept fault intensities: clean, half rate, full rate (deduped —
/// rate 0.0 sweeps only the clean point).
fn intensities(max: f64) -> Vec<f64> {
    let mut out = vec![0.0, max / 2.0, max];
    out.dedup();
    out
}

fn scenario_for(rate: f64, base: FaultConfig, policy: PolicyKind) -> Scenario {
    let scenario = Scenario::default_linux().with_policy(policy);
    if rate > 0.0 {
        scenario.with_faults(FaultConfig { rate, ..base })
    } else {
        scenario
    }
}

/// Runs the sweep. Deterministic at any `jobs` width.
pub fn run(opts: &ExperimentOptions) -> (PressureReport, ExperimentOutput) {
    let base_cfg = opts.faults.unwrap_or_default();
    let specs: Vec<BenchmarkSpec> = match &opts.benchmarks {
        Some(_) => opts.selected_benchmarks(),
        None => DEFAULT_BENCHMARKS
            .iter()
            .map(|n| benchmark(n).expect("Table-1 benchmark"))
            .collect(),
    };
    let rates = intensities(base_cfg.rate);
    let configs = check_configs();

    let mut meta: Vec<(String, String, f64)> = Vec::new();
    let mut cells: Vec<SweepCell<(crate::sim::SimResult, KernelStats)>> = Vec::new();
    for spec in &specs {
        for &rate in &rates {
            let scenario = scenario_for(rate, base_cfg, opts.policy);
            for (cname, tlb_cfg) in &configs {
                let label = format!("pressure/{}/{cname}/r{rate:.3}", spec.name);
                let cfg = opts.sim(*tlb_cfg);
                meta.push((spec.name.to_string(), cname.clone(), rate));
                cells.push(SweepCell::sim_then(label, &scenario, spec, cfg, |w, sim| {
                    (sim, w.kernel.stats())
                }));
            }
        }
    }

    let mut report = PressureReport::default();
    for (outcome, (bench, cname, rate)) in
        runner::run_cells_sweep(cells, &opts.sweep()).into_iter().zip(meta)
    {
        if let Some((sim, kernel)) = ok_or_record(outcome, &mut report.failures) {
            report.rows.push(PressureRow {
                benchmark: bench,
                config: cname,
                rate,
                accesses: sim.tlb.accesses,
                l1_misses: sim.tlb.l1_misses,
                walks: sim.tlb.l2_misses,
                walk_cycles: sim.walk_cycles,
                kernel,
            });
        }
    }

    if opts.cores > 1 {
        run_smp_leg(opts, base_cfg, &rates, &mut report);
    }

    let mut tables = vec![sweep_table(&report, base_cfg)];
    if !report.smp_rows.is_empty() {
        tables.push(smp_table(&report.smp_rows));
    }
    if !report.failures.is_empty() {
        tables.push(failure_table(&report.failures));
    }
    (report, ExperimentOutput { id: "pressure", tables })
}

/// The SMP leg: the light mix at `opts.cores` tagged cores per
/// intensity, fault plan armed after preparation.
fn run_smp_leg(
    opts: &ExperimentOptions,
    base_cfg: FaultConfig,
    rates: &[f64],
    report: &mut PressureReport,
) {
    let cores = opts.cores;
    let cells = rates
        .iter()
        .map(|&rate| {
            let label = format!("pressure/smp/{cores}c/r{rate:.3}");
            let faults = (rate > 0.0).then_some(FaultConfig { rate, ..base_cfg });
            window_cell(label, opts, &MIX_LIGHT, cores, true, faults, move |machine| {
                let agg = machine.result().aggregate();
                SmpPressureRow {
                    rate,
                    cores,
                    accesses: agg.counters.accesses,
                    walks: agg.tlb.l2_misses,
                    ipis_sent: agg.counters.ipis_sent,
                    kernel: machine.kernel_stats(),
                }
            })
        })
        .collect();
    for outcome in runner::run_cells_sweep(cells, &opts.sweep()) {
        if let Some(row) = ok_or_record(outcome, &mut report.failures) {
            report.smp_rows.push(row);
        }
    }
}

/// Walks eliminated vs the baseline TLB at the *same* (benchmark,
/// rate): how much of CoLT's win survives degraded contiguity.
fn elimination(rows: &[PressureRow], row: &PressureRow) -> Option<f64> {
    let base = rows.iter().find(|r| {
        r.benchmark == row.benchmark && r.rate == row.rate && r.config == "Baseline"
    })?;
    if base.walks == 0 {
        return None;
    }
    Some(100.0 * (1.0 - row.walks as f64 / base.walks as f64))
}

fn sweep_table(report: &PressureReport, base_cfg: FaultConfig) -> Table {
    let mut table = Table::new(
        format!(
            "Fault-injection pressure sweep (robustness): rates {:?}, window {}, seed {} \
             — kernel counters are from the preparation phase",
            intensities(base_cfg.rate),
            base_cfg.window,
            base_cfg.seed
        ),
        &[
            "benchmark", "config", "rate", "walks", "% elim vs base",
            "faults", "thp fallbacks", "collapse retries", "compact deferred", "oom kills",
        ],
    );
    for r in &report.rows {
        let elim = elimination(&report.rows, r)
            .map_or_else(|| "-".to_string(), |e| format!("{e:.1}"));
        table.add_row(vec![
            r.benchmark.clone(),
            r.config.clone(),
            format!("{:.3}", r.rate),
            r.walks.to_string(),
            elim,
            r.kernel.faults_injected.to_string(),
            r.kernel.thp_fallbacks.to_string(),
            r.kernel.thp_deferred_retries.to_string(),
            r.kernel.compact_deferred.to_string(),
            r.kernel.oom_kills.to_string(),
        ]);
    }
    table
}

fn smp_table(rows: &[SmpPressureRow]) -> Table {
    let mut table = Table::new(
        "Pressure SMP leg: light8 mix, ASID-tagged CoLT-All, fault plan armed post-prep"
            .to_string(),
        &["rate", "cores", "walks", "IPIs sent", "faults", "oom kills", "thp fallbacks"],
    );
    for r in rows {
        table.add_row(vec![
            format!("{:.3}", r.rate),
            r.cores.to_string(),
            r.walks.to_string(),
            r.ipis_sent.to_string(),
            r.kernel.faults_injected.to_string(),
            r.kernel.oom_kills.to_string(),
            r.kernel.thp_fallbacks.to_string(),
        ]);
    }
    table
}

/// The failure report table of the pressure and policy sweeps.
pub(crate) fn failure_table(failures: &[FailedCell]) -> Table {
    let mut table = Table::new(
        "Failed cells (sweep completed around them)".to_string(),
        &["cell", "cause"],
    );
    for f in failures {
        let mut cause = f.payload.clone();
        cause.truncate(80);
        table.add_row(vec![f.label.clone(), cause]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExperimentOptions {
        ExperimentOptions {
            accesses: 5_000,
            ..ExperimentOptions::quick().with_benchmarks(&["Gobmk"])
        }
    }

    #[test]
    fn sweep_completes_with_no_failures_and_injects_faults() {
        let (report, out) = run(&tiny_opts());
        assert_eq!(out.id, "pressure");
        // 1 benchmark × 3 intensities × 8 configs.
        assert_eq!(report.rows.len(), 24);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let clean: Vec<_> = report.rows.iter().filter(|r| r.rate == 0.0).collect();
        let faulted: Vec<_> = report.rows.iter().filter(|r| r.rate > 0.0).collect();
        assert!(clean.iter().all(|r| r.kernel.faults_injected == 0));
        assert!(
            faulted.iter().all(|r| r.kernel.faults_injected > 0),
            "every faulted cell must see injections"
        );
        // Degradation must be visible: the faulted preparations fall
        // back to base pages at least once.
        assert!(faulted.iter().any(|r| r.kernel.thp_fallbacks > 0));
    }

    #[test]
    fn sweep_is_deterministic_at_any_jobs_width() {
        let (a, _) = run(&tiny_opts().with_jobs(1));
        let (b, _) = run(&tiny_opts().with_jobs(8));
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!((x.benchmark.as_str(), x.config.as_str()), (y.benchmark.as_str(), y.config.as_str()));
            assert_eq!(x.walks, y.walks);
            assert_eq!(x.kernel, y.kernel);
        }
    }

    #[test]
    fn intensities_dedupe_the_zero_rate() {
        assert_eq!(intensities(0.0), vec![0.0]);
        assert_eq!(intensities(0.1), vec![0.0, 0.05, 0.1]);
    }
}
