//! Memory-management policy sweep (`policy` experiment).
//!
//! Repro policy experiment, not a paper figure: the paper's headline
//! result — CoLT's miss elimination — rests entirely on the contiguity
//! the *operating system* happens to produce (§3, §6). This sweep makes
//! that dependence measurable: every shipped [`PolicyKind`] boots the
//! default-Linux scenario, prepares the benchmark under its own THP /
//! compaction / reclaim / placement rules, and runs all eight `--check`
//! TLB configurations (the four paper designs and their future-work
//! variants) on the result.
//!
//! The interesting ordering, and the one `verify.sh` gates on: a
//! contiguity-greedy policy must beat the default, and the adversarial
//! policy (interleaved placement, no THP, no compaction) must trail it —
//! with CoLT's walk elimination tracking the same order. A TLB proposal
//! whose win survives the adversarial OS is robust; one that only works
//! under `greedy_contig` is an OS result wearing a hardware costume.
//!
//! The sweep runs through [`runner::run_cells_sweep`]: cells are
//! journaled (crash-safe, `--resume`-replayable), and a failed cell
//! becomes a failure row while the sweep completes around it, like
//! every other journaled experiment.

use super::pressure::{failure_table, ok_or_record, FailedCell};
use super::{ExperimentOptions, ExperimentOutput};
use crate::check::check_configs;
use crate::report::Table;
use crate::runner::{self, SweepCell};
use crate::sim::SimResult;
use colt_os_mem::kernel::KernelStats;
use colt_os_mem::policy::PolicyKind;
use colt_workloads::scenario::Scenario;
use colt_workloads::spec::{benchmark, BenchmarkSpec};

/// Default benchmark subset (the full policy × config × benchmark cube
/// at all 14 benchmarks is `--bench`-selectable but slow): the paper's
/// largest footprint, a mid-size headline program, and a small-chunk
/// allocator that fragments itself.
pub const DEFAULT_BENCHMARKS: [&str; 3] = ["Mcf", "Gobmk", "Xalancbmk"];

/// One (policy × benchmark × TLB config) measurement.
#[derive(Clone, Debug)]
pub struct PolicyRow {
    /// Policy name ("default", "greedy_contig", ...).
    pub policy: String,
    /// Benchmark name.
    pub benchmark: String,
    /// TLB configuration label ("Baseline", "CoLT-All+fw", ...).
    pub config: String,
    /// Memory references simulated.
    pub accesses: u64,
    /// L1-level TLB misses.
    pub l1_misses: u64,
    /// Page walks (L2 misses).
    pub walks: u64,
    /// Cycles spent walking.
    pub walk_cycles: u64,
    /// Average physical contiguity of the prepared footprint (the
    /// paper's §6 measurement, and the policy's direct product).
    pub avg_contiguity: f64,
    /// Kernel counters from the preparation phase — the policy counters
    /// in here show the policy actually made decisions.
    pub kernel: KernelStats,
}

/// The per-cell sweep payload: simulation result, preparation-phase
/// kernel counters, and the footprint's average contiguity.
impl crate::journal::JournalPayload for (SimResult, KernelStats, f64) {
    fn encode(&self) -> String {
        let e = crate::journal::enc_kernel(
            crate::journal::enc_sim(crate::journal::Enc::new("simkerc1"), &self.0),
            &self.1,
        );
        e.f(self.2).done()
    }
    fn decode(s: &str) -> Option<Self> {
        let mut d = crate::journal::Dec::new(s, "simkerc1")?;
        let sim = crate::journal::dec_sim(&mut d)?;
        let kernel = crate::journal::dec_kernel(&mut d)?;
        let contig = d.f()?;
        d.exhausted().then_some((sim, kernel, contig))
    }
}

/// Per-policy aggregate across the sweep — the summary table, the
/// `BENCH_policy.json` headline block, and `verify.sh`'s gate.
#[derive(Clone, Debug)]
pub struct PolicySummary {
    /// Policy name.
    pub policy: String,
    /// Mean footprint contiguity across benchmarks (TLB reach proxy).
    pub avg_contiguity: f64,
    /// Mean CoLT-All walk elimination vs the same policy's baseline, %.
    pub colt_all_elim: f64,
    /// Sum of `policy_decisions` across the policy's cells.
    pub decisions: u64,
    /// Sum of `policy_huge_grants`.
    pub huge_grants: u64,
    /// Sum of `policy_huge_denies`.
    pub huge_denies: u64,
    /// Sum of `policy_collapses_triggered`.
    pub collapses: u64,
    /// Sum of `policy_compactions_requested`.
    pub compactions: u64,
}

/// Everything the policy sweep produced.
#[derive(Clone, Debug, Default)]
pub struct PolicyReport {
    /// Per-cell rows, in (policy, benchmark, config) order.
    pub rows: Vec<PolicyRow>,
    /// Per-policy aggregates, in [`PolicyKind::all`] order.
    pub summaries: Vec<PolicySummary>,
    /// Cells that failed; the sweep completed around them.
    pub failures: Vec<FailedCell>,
}

/// Walks eliminated vs the same (policy, benchmark) baseline config.
fn elimination(rows: &[PolicyRow], row: &PolicyRow) -> Option<f64> {
    let base = rows.iter().find(|r| {
        r.policy == row.policy && r.benchmark == row.benchmark && r.config == "Baseline"
    })?;
    if base.walks == 0 {
        return None;
    }
    Some(100.0 * (1.0 - row.walks as f64 / base.walks as f64))
}

fn summarize(rows: &[PolicyRow]) -> Vec<PolicySummary> {
    PolicyKind::all()
        .iter()
        .map(|kind| {
            let mine: Vec<&PolicyRow> =
                rows.iter().filter(|r| r.policy == kind.name()).collect();
            let baselines: Vec<&&PolicyRow> =
                mine.iter().filter(|r| r.config == "Baseline").collect();
            let avg_contiguity = if baselines.is_empty() {
                0.0
            } else {
                baselines.iter().map(|r| r.avg_contiguity).sum::<f64>()
                    / baselines.len() as f64
            };
            let elims: Vec<f64> = mine
                .iter()
                .filter(|r| r.config == "CoLT-All")
                .filter_map(|r| elimination(rows, r))
                .collect();
            let colt_all_elim = if elims.is_empty() {
                0.0
            } else {
                elims.iter().sum::<f64>() / elims.len() as f64
            };
            // Kernel counters repeat per TLB config (one preparation
            // per scenario); sum over baselines only so each
            // preparation counts once.
            let sum = |f: fn(&KernelStats) -> u64| {
                baselines.iter().map(|r| f(&r.kernel)).sum::<u64>()
            };
            PolicySummary {
                policy: kind.name().to_string(),
                avg_contiguity,
                colt_all_elim,
                decisions: sum(|k| k.policy_decisions),
                huge_grants: sum(|k| k.policy_huge_grants),
                huge_denies: sum(|k| k.policy_huge_denies),
                collapses: sum(|k| k.policy_collapses_triggered),
                compactions: sum(|k| k.policy_compactions_requested),
            }
        })
        .collect()
}

/// Runs the sweep. Deterministic at any `jobs` width.
pub fn run(opts: &ExperimentOptions) -> (PolicyReport, ExperimentOutput) {
    let specs: Vec<BenchmarkSpec> = match &opts.benchmarks {
        Some(_) => opts.selected_benchmarks(),
        None => DEFAULT_BENCHMARKS
            .iter()
            .map(|n| benchmark(n).expect("Table-1 benchmark"))
            .collect(),
    };
    let configs = check_configs();

    let mut meta: Vec<(String, String, String)> = Vec::new();
    let mut cells: Vec<SweepCell<(SimResult, KernelStats, f64)>> = Vec::new();
    for kind in PolicyKind::all() {
        let scenario = Scenario::default_linux().with_policy(kind);
        for spec in &specs {
            for (cname, tlb_cfg) in &configs {
                let label = format!("policy/{}/{}/{cname}", kind.name(), spec.name);
                let cfg = opts.sim(*tlb_cfg);
                meta.push((
                    kind.name().to_string(),
                    spec.name.to_string(),
                    cname.clone(),
                ));
                let refs = cfg.warmup + cfg.accesses;
                cells.push(SweepCell::new(label, &scenario, spec, refs, move |w| {
                    (
                        crate::sim::run(w, &cfg),
                        w.kernel.stats(),
                        w.contiguity().average_contiguity(),
                    )
                }));
            }
        }
    }

    let mut report = PolicyReport::default();
    for (outcome, (policy, bench, cname)) in
        runner::run_cells_sweep(cells, &opts.sweep()).into_iter().zip(meta)
    {
        if let Some((sim, kernel, contig)) = ok_or_record(outcome, &mut report.failures) {
            report.rows.push(PolicyRow {
                policy,
                benchmark: bench,
                config: cname,
                accesses: sim.tlb.accesses,
                l1_misses: sim.tlb.l1_misses,
                walks: sim.tlb.l2_misses,
                walk_cycles: sim.walk_cycles,
                avg_contiguity: contig,
                kernel,
            });
        }
    }
    report.summaries = summarize(&report.rows);

    let mut tables = vec![summary_table(&report.summaries), sweep_table(&report)];
    if !report.failures.is_empty() {
        tables.push(failure_table(&report.failures));
    }
    (report, ExperimentOutput { id: "policy", tables })
}

fn summary_table(summaries: &[PolicySummary]) -> Table {
    let mut table = Table::new(
        "MM-policy summary: contiguity and CoLT-All walk elimination per policy \
         (counters summed over one preparation per benchmark)"
            .to_string(),
        &[
            "policy", "avg contiguity", "CoLT-All % elim", "decisions",
            "huge grants", "huge denies", "collapses", "compactions",
        ],
    );
    for s in summaries {
        table.add_row(vec![
            s.policy.clone(),
            format!("{:.1}", s.avg_contiguity),
            format!("{:.1}", s.colt_all_elim),
            s.decisions.to_string(),
            s.huge_grants.to_string(),
            s.huge_denies.to_string(),
            s.collapses.to_string(),
            s.compactions.to_string(),
        ]);
    }
    table
}

fn sweep_table(report: &PolicyReport) -> Table {
    let mut table = Table::new(
        "MM-policy sweep: every shipped policy × benchmark × 8 TLB configs".to_string(),
        &[
            "policy", "benchmark", "config", "walks", "% elim vs base",
            "avg contig", "thp allocs", "thp fallbacks", "compactions",
        ],
    );
    for r in &report.rows {
        let elim = elimination(&report.rows, r)
            .map_or_else(|| "-".to_string(), |e| format!("{e:.1}"));
        table.add_row(vec![
            r.policy.clone(),
            r.benchmark.clone(),
            r.config.clone(),
            r.walks.to_string(),
            elim,
            format!("{:.1}", r.avg_contiguity),
            r.kernel.thp_allocs.to_string(),
            r.kernel.thp_fallbacks.to_string(),
            r.kernel.policy_compactions_requested.to_string(),
        ]);
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
    fn sweep_covers_every_policy_and_orders_contiguity() {
        let (report, out) = run(&tiny_opts());
        assert_eq!(out.id, "policy");
        // 5 policies × 1 benchmark × 8 configs.
        assert_eq!(report.rows.len(), 40);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.summaries.len(), PolicyKind::all().len());
        let contig = |name: &str| {
            report
                .summaries
                .iter()
                .find(|s| s.policy == name)
                .map(|s| s.avg_contiguity)
                .unwrap()
        };
        assert!(
            contig("greedy_contig") >= contig("default"),
            "greedy must not trail default"
        );
        assert!(
            contig("default") > contig("adversarial"),
            "default must beat adversarial"
        );
        // Every policy makes decisions; only non-granting ones deny.
        for s in &report.summaries {
            assert!(s.decisions > 0, "{} made no decisions", s.policy);
        }
        let denies = |name: &str| {
            report.summaries.iter().find(|s| s.policy == name).unwrap().huge_denies
        };
        assert_eq!(denies("default"), 0);
        assert!(denies("no_thp") > 0);
        assert!(denies("adversarial") > 0);
    }

    #[test]
    fn sweep_is_deterministic_at_any_jobs_width() {
        let (a, _) = run(&tiny_opts().with_jobs(1));
        let (b, _) = run(&tiny_opts().with_jobs(8));
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!((&x.policy, &x.benchmark, &x.config), (&y.policy, &y.benchmark, &y.config));
            assert_eq!(x.walks, y.walks);
            assert_eq!(x.kernel, y.kernel);
        }
    }

    #[test]
    fn cell_payload_round_trips_through_the_journal_codec() {
        use crate::journal::JournalPayload;
        let spec = benchmark("Gobmk").unwrap();
        let w = Scenario::default_linux()
            .with_policy(PolicyKind::GreedyContig)
            .prepare(&spec)
            .unwrap();
        let cfg = crate::sim::SimConfig::new(colt_tlb::config::TlbConfig::colt_all())
            .with_accesses(2_000);
        let payload = (
            crate::sim::run(&w, &cfg),
            w.kernel.stats(),
            w.contiguity().average_contiguity(),
        );
        let encoded = payload.encode();
        let back = <(SimResult, KernelStats, f64)>::decode(&encoded).unwrap();
        assert_eq!(back.encode(), encoded, "decode must invert encode");
        assert_eq!(back.1, payload.1);
        assert_eq!(back.2, payload.2);
    }
}
