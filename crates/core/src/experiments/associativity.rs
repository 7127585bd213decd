//! Figure 20: does higher associativity substitute for coalescing?
//!
//! Three L2 configurations against the 4-way, 128-entry no-CoLT
//! baseline: 4-way with CoLT-SA, 8-way without CoLT, and 8-way with
//! CoLT-SA (fixed 128-entry size). The paper finds mere associativity
//! buys ~10% while CoLT-SA alone buys ~40% and the combination ~60%.

use super::{ExperimentOptions, ExperimentOutput};
use crate::report::{f1, Table};
use crate::sim::SimResult;
use colt_tlb::config::TlbConfig;
use colt_tlb::stats::pct_misses_eliminated;

/// Results for one benchmark across the associativity study.
#[derive(Clone, Debug)]
pub struct AssocRow {
    /// Benchmark name.
    pub name: &'static str,
    /// The 4-way no-CoLT baseline.
    pub baseline: SimResult,
    /// 4-way CoLT-SA / 8-way no CoLT / 8-way CoLT-SA.
    pub variants: [SimResult; 3],
}

impl AssocRow {
    /// Percent of baseline L2 misses eliminated by variant `i`.
    pub fn l2_elim(&self, i: usize) -> f64 {
        pct_misses_eliminated(self.baseline.tlb.l2_misses, self.variants[i].tlb.l2_misses)
    }
}

/// The variant labels, in order.
pub const VARIANTS: [&str; 3] = ["4-way CoLT-SA", "8-way no CoLT", "8-way CoLT-SA"];

/// Runs the associativity study.
pub fn run(opts: &ExperimentOptions) -> (Vec<AssocRow>, ExperimentOutput) {
    let configs = [
        TlbConfig::baseline(),
        TlbConfig::colt_sa(),
        TlbConfig::baseline().with_l2_ways(8),
        TlbConfig::colt_sa().with_l2_ways(8),
    ];
    let variants: Vec<_> = configs
        .into_iter()
        .enumerate()
        .map(|(i, tlb)| opts.variant(format!("v{i}"), opts.sim(tlb)))
        .collect();
    let rows: Vec<AssocRow> = opts
        .run_grid("fig20", &variants)
        .into_iter()
        .map(|(spec, r)| AssocRow { name: spec.name, baseline: r[0], variants: [r[1], r[2], r[3]] })
        .collect();

    let mut table = Table::new(
        "Figure 20: % of 4-way baseline L2 misses eliminated (paper avg: 40 / 10 / 60)",
        &["Benchmark", VARIANTS[0], VARIANTS[1], VARIANTS[2]],
    );
    table.add_rows_and_average(
        rows.iter().map(|r| (r.name, [r.l2_elim(0), r.l2_elim(1), r.l2_elim(2)])),
        f1,
    );
    (rows, ExperimentOutput { id: "fig20", tables: vec![table] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_with_8way_is_at_least_as_good_as_4way_coalescing() {
        let opts = ExperimentOptions::quick().with_benchmarks(&["CactusADM"]);
        let (rows, _) = run(&opts);
        let r = &rows[0];
        assert!(
            r.l2_elim(2) + 8.0 >= r.l2_elim(0),
            "8-way CoLT-SA ({:.1}%) should not trail 4-way CoLT-SA ({:.1}%) badly",
            r.l2_elim(2),
            r.l2_elim(0)
        );
    }

    #[test]
    fn study_compares_three_variants() {
        let opts = ExperimentOptions::quick().with_benchmarks(&["Gobmk"]);
        let (rows, out) = run(&opts);
        assert_eq!(rows[0].variants.len(), 3);
        assert!(out.render().contains("8-way CoLT-SA"));
    }
}
