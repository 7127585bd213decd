//! Multiprogramming extension: two benchmarks share one machine (one
//! kernel, one TLB hierarchy, one cache hierarchy), scheduled
//! round-robin with full translation flushes at context switches.
//!
//! This is the setting the paper's real-system §6 measurements implicitly
//! include (their machine ran background processes) and the one its §8
//! outlook cares about; here it stresses CoLT two ways at once: the
//! *allocation* interleaving of two active processes shortens contiguity
//! runs, and the *flushes* keep discarding warmed state.

use super::{ExperimentOptions, ExperimentOutput};
use crate::report::{f1, Table};
use crate::runner::{self, SweepTask};
use crate::sim::SimConfig;
use colt_smp::{CoreResult, SmpConfig, SmpMachine};
use colt_tlb::config::TlbConfig;
use colt_tlb::stats::pct_misses_eliminated;
use colt_workloads::scenario::{MultiWorkload, Scenario};
use colt_workloads::spec::benchmark;

/// The benchmark pairs simulated together.
pub const PAIRS: [(&str, &str); 3] =
    [("Mcf", "Gobmk"), ("CactusADM", "Omnetpp"), ("Bzip2", "Xalancbmk")];

/// Results for one pair.
#[derive(Clone, Debug)]
pub struct MultiprogRow {
    /// "A + B" label.
    pub pair: String,
    /// Combined baseline walks.
    pub baseline_walks: u64,
    /// Combined CoLT-All walks.
    pub colt_walks: u64,
    /// % of combined baseline walks eliminated.
    pub elim: f64,
}

impl crate::journal::JournalPayload for MultiprogRow {
    fn encode(&self) -> String {
        crate::journal::Enc::new("mprog1")
            .s(&self.pair)
            .u(self.baseline_walks)
            .u(self.colt_walks)
            .f(self.elim)
            .done()
    }
    fn decode(s: &str) -> Option<Self> {
        let mut d = crate::journal::Dec::new(s, "mprog1")?;
        let row = MultiprogRow {
            pair: d.s()?,
            baseline_walks: d.u()?,
            colt_walks: d.u()?,
            elim: d.f()?,
        };
        d.exhausted().then_some(row)
    }
}

/// Runs the multiprogramming study.
pub fn run(opts: &ExperimentOptions) -> (Vec<MultiprogRow>, ExperimentOutput) {
    let quantum = 10_000;
    let policy = opts.policy;
    // Each pair's preparation (prepare_many) is itself per-cell state,
    // so these run as self-contained tasks rather than shared-prep cells.
    let tasks: Vec<SweepTask<MultiprogRow>> = PAIRS
        .iter()
        .map(|&(a, b)| {
            let cfg = SimConfig {
                pattern_seed: opts.seed,
                ..SimConfig::new(TlbConfig::baseline()).with_accesses(opts.accesses)
            };
            let refs = 2 * (cfg.warmup + cfg.accesses);
            SweepTask::new(format!("multiprog/{a}+{b}"), refs, move || {
                let scenario = Scenario::default_linux().with_policy(policy);
                let specs = [
                    benchmark(a).expect("Table-1 benchmark"),
                    benchmark(b).expect("Table-1 benchmark"),
                ];
                let multi = scenario
                    .prepare_many(&specs)
                    .unwrap_or_else(|e| panic!("prepare_many({a}, {b}): {e}"));
                let base = run_machine(multi.clone(), &cfg, quantum);
                let colt =
                    run_machine(multi, &SimConfig { tlb: TlbConfig::colt_all(), ..cfg }, quantum);
                MultiprogRow {
                    pair: format!("{a} + {b}"),
                    baseline_walks: base.tlb.l2_misses,
                    colt_walks: colt.tlb.l2_misses,
                    elim: pct_misses_eliminated(base.tlb.l2_misses, colt.tlb.l2_misses),
                }
            })
        })
        .collect();
    let rows = runner::expect_all(runner::run_tasks_sweep(tasks, &opts.sweep()));

    let mut table = Table::new(
        "Multiprogramming (extension): two benchmarks sharing one machine, 10k-access quanta",
        &["pair", "baseline walks", "CoLT-All walks", "L2 elim %"],
    );
    for r in &rows {
        table.add_row(vec![
            r.pair.clone(),
            r.baseline_walks.to_string(),
            r.colt_walks.to_string(),
            f1(r.elim),
        ]);
    }
    (rows, ExperimentOutput { id: "multiprog", tables: vec![table] })
}

/// Runs `multi` on a one-core machine like the paper's: untagged (a
/// full translation flush at every switch), no kernel churn, and
/// `quantum` accesses per turn. Uses `config`'s TLB, warm-up, access count and
/// pattern seed; the counters cover the accesses after the warm-up.
fn run_machine(multi: MultiWorkload, config: &SimConfig, quantum: u64) -> CoreResult {
    let smp = SmpConfig::new(1, config.tlb).with_churn_period(None).with_quantum(quantum);
    let mut machine = SmpMachine::new(multi, smp, config.pattern_seed);
    machine.run(config.warmup);
    machine.mark();
    machine.run(config.accesses);
    machine.result().cores[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table_is_pinned() {
        // The table `repro --quick multiprog --csv` prints.
        let (_, out) = run(&ExperimentOptions::quick().with_jobs(2));
        assert_eq!(
            out.tables[0].to_csv(),
            "pair,baseline walks,CoLT-All walks,L2 elim %\n\
             Mcf + Gobmk,4732,2530,46.5\n\
             CactusADM + Omnetpp,1787,667,62.7\n\
             Bzip2 + Xalancbmk,980,249,74.6\n"
        );
    }

    #[test]
    fn multiprogrammed_accounting_identities_hold() {
        let specs = [benchmark("Gobmk").unwrap(), benchmark("FastaProt").unwrap()];
        let multi = Scenario::default_linux().prepare_many(&specs).unwrap();
        let r = run_machine(
            multi,
            &SimConfig::new(TlbConfig::colt_all()).with_accesses(20_000),
            1_000,
        );
        assert_eq!(r.tlb.accesses, 20_000);
        assert_eq!(r.tlb.l1_hits + r.tlb.l1_misses, r.tlb.accesses);
        assert_eq!(r.tlb.l2_hits + r.tlb.l2_misses, r.tlb.l1_misses);
        assert_eq!(r.walker.walks, r.tlb.l2_misses);
        assert_eq!(r.walker.faults, 0);
        // Mixed instruction rates: between the two benchmarks' IPAs.
        let ipa = r.counters.instructions as f64 / r.tlb.accesses as f64;
        assert!((3.0..=9.0).contains(&ipa), "blended ipa {ipa}");
    }

    #[test]
    fn colt_survives_multiprogramming() {
        let scenario = Scenario::default_linux();
        let specs = [benchmark("Gobmk").unwrap(), benchmark("Povray").unwrap()];
        let multi = scenario.prepare_many(&specs).unwrap();
        let run_one = |tlb: TlbConfig| {
            run_machine(multi.clone(), &SimConfig::new(tlb).with_accesses(30_000), 2_000)
        };
        let base = run_one(TlbConfig::baseline());
        let colt = run_one(TlbConfig::colt_all());
        assert_eq!(base.tlb.accesses, 30_000);
        assert_eq!(base.walker.faults, 0);
        assert!(
            colt.tlb.l2_misses < base.tlb.l2_misses,
            "CoLT must still win multiprogrammed ({} vs {})",
            colt.tlb.l2_misses,
            base.tlb.l2_misses
        );
    }
}
