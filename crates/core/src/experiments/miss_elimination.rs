//! Figure 18: percentage of baseline L1 and L2 TLB misses eliminated by
//! CoLT-SA, CoLT-FA, and CoLT-All.
//!
//! Baseline: 32-entry/128-entry 4-way L1/L2 plus a 16-entry superpage
//! TLB. CoLT-SA keeps the 16-entry superpage TLB and shifts the index
//! bits by two; CoLT-FA and CoLT-All conservatively halve the superpage
//! TLB to 8 entries (§7.1.1). All four designs replay the same workload
//! under the default Linux scenario.

use super::{ExperimentOptions, ExperimentOutput};
use crate::report::{f1, Table};
use crate::sim::SimResult;
use colt_tlb::config::TlbConfig;
use colt_tlb::stats::pct_misses_eliminated;

/// Results of the four designs for one benchmark.
#[derive(Clone, Debug)]
pub struct EliminationRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Baseline / CoLT-SA / CoLT-FA / CoLT-All results.
    pub results: [SimResult; 4],
}

impl EliminationRow {
    /// Percent of baseline L1 misses eliminated by design `i`
    /// (1 = SA, 2 = FA, 3 = All).
    pub fn l1_elim(&self, i: usize) -> f64 {
        pct_misses_eliminated(self.results[0].tlb.l1_misses, self.results[i].tlb.l1_misses)
    }

    /// Percent of baseline L2 misses eliminated by design `i`.
    pub fn l2_elim(&self, i: usize) -> f64 {
        pct_misses_eliminated(self.results[0].tlb.l2_misses, self.results[i].tlb.l2_misses)
    }
}

/// The four Figure-18 TLB configurations.
pub fn figure18_configs() -> [TlbConfig; 4] {
    [
        TlbConfig::baseline(),
        TlbConfig::colt_sa(),
        TlbConfig::colt_fa(),
        TlbConfig::colt_all(),
    ]
}

/// Runs all four designs over one benchmark set.
pub fn run(opts: &ExperimentOptions) -> (Vec<EliminationRow>, ExperimentOutput) {
    let variants: Vec<_> = ["base", "SA", "FA", "All"]
        .into_iter()
        .zip(figure18_configs())
        .map(|(label, tlb)| opts.variant(label, opts.sim(tlb)))
        .collect();
    let rows: Vec<EliminationRow> = opts
        .run_grid("fig18", &variants)
        .into_iter()
        .map(|(spec, r)| EliminationRow { name: spec.name, results: [r[0], r[1], r[2], r[3]] })
        .collect();

    let mut table = Table::new(
        "Figure 18: % of baseline TLB misses eliminated (paper avg: SA 40, FA/All ~55)",
        &["Benchmark", "L1 SA", "L1 FA", "L1 All", "L2 SA", "L2 FA", "L2 All"],
    );
    table.add_rows_and_average(
        rows.iter().map(|r| {
            (
                r.name,
                [r.l1_elim(1), r.l1_elim(2), r.l1_elim(3), r.l2_elim(1), r.l2_elim(2), r.l2_elim(3)],
            )
        }),
        f1,
    );
    (rows, ExperimentOutput { id: "fig18", tables: vec![table] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_designs_eliminate_misses_on_contiguous_benchmarks() {
        let opts = ExperimentOptions::quick().with_benchmarks(&["Bzip2", "CactusADM"]);
        let (rows, out) = run(&opts);
        for r in &rows {
            for design in 1..4 {
                assert!(
                    r.l2_elim(design) > 0.0,
                    "{}: design {design} must eliminate L2 misses, got {:.1}%",
                    r.name,
                    r.l2_elim(design)
                );
            }
        }
        assert!(out.render().contains("Average"));
    }

    #[test]
    fn rows_expose_all_four_results() {
        let opts = ExperimentOptions::quick().with_benchmarks(&["Povray"]);
        let (rows, _) = run(&opts);
        assert_eq!(rows.len(), 1);
        // Baseline elimination of itself is zero by definition.
        assert_eq!(rows[0].l1_elim(0), 0.0);
        assert_eq!(rows[0].l2_elim(0), 0.0);
    }
}
