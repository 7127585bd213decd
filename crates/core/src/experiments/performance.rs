//! Figure 21: performance improvement of CoLT-SA/FA/All against the
//! baseline, with perfect (100%-hit) TLBs as the upper bound.
//!
//! Uses the paper's own interpolation method (§5.2.1) over Figure 18's
//! simulations: page walks are serialized on the critical path, so
//! cycles saved on walks translate directly to runtime (see
//! [`crate::perf`]).

use super::miss_elimination::{self, EliminationRow};
use super::{ExperimentOptions, ExperimentOutput};
use crate::perf::PerfModel;
use crate::report::{f1, Table};
use crate::sim::SimResult;

/// Performance results for one benchmark.
#[derive(Clone, Debug)]
pub struct PerfRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Perfect-TLB improvement (%) over baseline.
    pub perfect: f64,
    /// CoLT-SA / CoLT-FA / CoLT-All improvements (%).
    pub colt: [f64; 3],
    /// The underlying simulation results
    /// (baseline, SA, FA, All).
    pub results: [SimResult; 4],
}

/// Figure 21 from Figure 18's rows: the paper derives its speedups from
/// the same simulations (§5.2.1), so Figure 21 runs no cells of its own.
pub fn rows_from(elimination: &[EliminationRow]) -> Vec<PerfRow> {
    let model = PerfModel::default();
    elimination
        .iter()
        .map(|e| {
            let r = e.results;
            PerfRow {
                name: e.name,
                perfect: model.perfect_improvement_pct(&r[0]),
                colt: [1, 2, 3].map(|i| model.improvement_pct(&r[0], &r[i])),
                results: r,
            }
        })
        .collect()
}

/// Runs the performance study.
pub fn run(opts: &ExperimentOptions) -> (Vec<PerfRow>, ExperimentOutput) {
    let rows = rows_from(&miss_elimination::run(opts).0);
    let mut table = Table::new(
        "Figure 21: performance improvement % (paper avg: SA 12, FA 14, All 14)",
        &["Benchmark", "Perfect", "CoLT-SA", "CoLT-FA", "CoLT-All"],
    );
    table.add_rows_and_average(
        rows.iter().map(|r| (r.name, [r.perfect, r.colt[0], r.colt[1], r.colt[2]])),
        f1,
    );
    (rows, ExperimentOutput { id: "fig21", tables: vec![table] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_tlb_bounds_every_colt_design() {
        let opts = ExperimentOptions::quick().with_benchmarks(&["Astar", "Bzip2"]);
        let (rows, _) = run(&opts);
        for r in &rows {
            for (i, &c) in r.colt.iter().enumerate() {
                assert!(
                    c <= r.perfect + 1.0,
                    "{}: design {i} improvement {:.1}% exceeds perfect {:.1}%",
                    r.name,
                    c,
                    r.perfect
                );
            }
        }
    }

    #[test]
    fn tlb_bound_benchmarks_gain_from_coalescing() {
        let opts = ExperimentOptions::quick().with_benchmarks(&["CactusADM"]);
        let (rows, out) = run(&opts);
        let r = &rows[0];
        assert!(r.perfect > 0.0, "a TLB-stressed benchmark has walk headroom");
        assert!(
            r.colt.iter().any(|&c| c > 0.0),
            "at least one CoLT design must improve CactusADM, got {:?}",
            r.colt
        );
        assert!(out.render().contains("Perfect"));
    }
}
