//! Figure 19: CoLT-SA's fundamental tradeoff — left-shifting the index
//! bits by 1, 2, or 3 bits (maximum coalescing 2, 4, or 8) against the
//! conflict misses the more aggressive shifts cause.
//!
//! The paper finds shift-2 the sweet spot, with shift-3 *increasing*
//! misses for many benchmarks (negative elimination bars in the figure).

use super::{ExperimentOptions, ExperimentOutput};
use crate::report::{f1, Table};
use crate::sim::SimResult;
use colt_tlb::config::TlbConfig;
use colt_tlb::stats::pct_misses_eliminated;

/// The index shifts Figure 19 sweeps.
pub const SHIFTS: [u32; 3] = [1, 2, 3];

/// Results for one benchmark across the shift sweep.
#[derive(Clone, Debug)]
pub struct ShiftRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Baseline (no coalescing) result.
    pub baseline: SimResult,
    /// CoLT-SA results at shifts 1, 2, 3.
    pub shifted: [SimResult; 3],
}

impl ShiftRow {
    /// Percent of baseline L1 misses eliminated at `SHIFTS[i]`.
    pub fn l1_elim(&self, i: usize) -> f64 {
        pct_misses_eliminated(self.baseline.tlb.l1_misses, self.shifted[i].tlb.l1_misses)
    }

    /// Percent of baseline L2 misses eliminated at `SHIFTS[i]`.
    pub fn l2_elim(&self, i: usize) -> f64 {
        pct_misses_eliminated(self.baseline.tlb.l2_misses, self.shifted[i].tlb.l2_misses)
    }
}

/// Runs the shift sweep.
pub fn run(opts: &ExperimentOptions) -> (Vec<ShiftRow>, ExperimentOutput) {
    let mut variants = vec![opts.variant("base", opts.sim(TlbConfig::baseline()))];
    variants.extend(SHIFTS.map(|s| {
        opts.variant(format!("shift{s}"), opts.sim(TlbConfig::colt_sa().with_shift(s)))
    }));
    let rows: Vec<ShiftRow> = opts
        .run_grid("fig19", &variants)
        .into_iter()
        .map(|(spec, r)| ShiftRow { name: spec.name, baseline: r[0], shifted: [r[1], r[2], r[3]] })
        .collect();

    let mut table = Table::new(
        "Figure 19: CoLT-SA miss elimination by index left-shift (paper: shift 2 is best)",
        &["Benchmark", "L1 s1", "L1 s2", "L1 s3", "L2 s1", "L2 s2", "L2 s3"],
    );
    table.add_rows_and_average(
        rows.iter().map(|r| {
            (
                r.name,
                [r.l1_elim(0), r.l1_elim(1), r.l1_elim(2), r.l2_elim(0), r.l2_elim(1), r.l2_elim(2)],
            )
        }),
        f1,
    );
    (rows, ExperimentOutput { id: "fig19", tables: vec![table] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift2_beats_shift1_on_contiguous_workloads() {
        // With 4-page-plus contiguity, allowing 4-way coalescing must
        // beat 2-way coalescing.
        let opts = ExperimentOptions::quick().with_benchmarks(&["Bzip2"]);
        let (rows, _) = run(&opts);
        let r = &rows[0];
        assert!(
            r.l2_elim(1) >= r.l2_elim(0),
            "shift2 ({:.1}%) must match or beat shift1 ({:.1}%)",
            r.l2_elim(1),
            r.l2_elim(0)
        );
    }

    #[test]
    fn sweep_produces_three_results_per_benchmark() {
        let opts = ExperimentOptions::quick().with_benchmarks(&["Gobmk"]);
        let (rows, out) = run(&opts);
        assert_eq!(rows[0].shifted.len(), 3);
        assert!(out.render().contains("L2 s3"));
    }
}
