//! Table 1: L1/L2 TLB misses per million instructions with THS on and
//! off, per benchmark.
//!
//! The paper's Table 1 comes from on-chip performance counters of the
//! real system (64-entry L1 TLB, 512-entry L2 TLB). We therefore run
//! this experiment with real-system TLB sizes rather than the scaled
//! simulation sizes used by Figures 18–21.

use super::{ExperimentOptions, ExperimentOutput, Variant};
use crate::report::{f0, Table};
use colt_tlb::config::TlbConfig;
use colt_workloads::scenario::Scenario;

/// One benchmark's measured and published MPMIs.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Measured L1 MPMI, THS on.
    pub l1_ths_on: f64,
    /// Measured L2 MPMI, THS on.
    pub l2_ths_on: f64,
    /// Measured L1 MPMI, THS off.
    pub l1_ths_off: f64,
    /// Measured L2 MPMI, THS off.
    pub l2_ths_off: f64,
    /// Paper's Table-1 values, same order.
    pub paper: [f64; 4],
}

/// The real-system TLB configuration behind Table 1 (§5.1.1).
pub fn real_system_tlbs() -> TlbConfig {
    TlbConfig {
        l1_entries: 64,
        l2_entries: 512,
        ..TlbConfig::baseline()
    }
}

/// Runs the Table-1 experiment.
pub fn run(opts: &ExperimentOptions) -> (Vec<Table1Row>, ExperimentOutput) {
    let variants: Vec<Variant> = [Scenario::default_linux(), Scenario::no_ths()]
        .into_iter()
        .map(|scenario| {
            let scenario = opts.scenario(scenario);
            Variant { label: scenario.name.clone(), scenario, cfg: opts.sim(real_system_tlbs()) }
        })
        .collect();
    let rows: Vec<Table1Row> = opts
        .run_grid("table1", &variants)
        .into_iter()
        .map(|(spec, r)| Table1Row {
            name: spec.name,
            l1_ths_on: r[0].l1_mpmi(),
            l2_ths_on: r[0].l2_mpmi(),
            l1_ths_off: r[1].l1_mpmi(),
            l2_ths_off: r[1].l2_mpmi(),
            paper: [
                spec.paper.l1_mpmi_ths_on,
                spec.paper.l2_mpmi_ths_on,
                spec.paper.l1_mpmi_ths_off,
                spec.paper.l2_mpmi_ths_off,
            ],
        })
        .collect();

    let mut table = Table::new(
        "Table 1: TLB misses per million instructions (measured vs paper)",
        &[
            "Benchmark",
            "L1 on",
            "L2 on",
            "L1 off",
            "L2 off",
            "paper L1 on",
            "paper L2 on",
            "paper L1 off",
            "paper L2 off",
        ],
    );
    for r in &rows {
        table.add_row(vec![
            r.name.to_string(),
            f0(r.l1_ths_on),
            f0(r.l2_ths_on),
            f0(r.l1_ths_off),
            f0(r.l2_ths_off),
            f0(r.paper[0]),
            f0(r.paper[1]),
            f0(r.paper[2]),
            f0(r.paper[3]),
        ]);
    }
    (rows, ExperimentOutput { id: "table1", tables: vec![table] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_system_tlbs_match_the_paper() {
        let c = real_system_tlbs();
        assert_eq!(c.l1_entries, 64);
        assert_eq!(c.l2_entries, 512);
        assert_eq!(c.sp_entries, 16);
    }

    #[test]
    fn ths_off_raises_misses_for_thp_benchmarks() {
        // Milc's paper signature: huge MPMI jump when THS goes off. The
        // hugepage benefit only shows once the pattern re-visits THP-backed
        // regions, so this test needs the full access budget — at the
        // quick 30k budget both scenarios measure identical MPMI.
        let opts = ExperimentOptions {
            accesses: 400_000,
            ..ExperimentOptions::quick()
        }
        .with_benchmarks(&["Milc", "Sjeng"]);
        let (rows, out) = run(&opts);
        assert_eq!(rows.len(), 2);
        let milc = rows.iter().find(|r| r.name == "Milc").unwrap();
        assert!(
            milc.l2_ths_off > milc.l2_ths_on,
            "Milc THS-off L2 MPMI ({:.0}) must exceed THS-on ({:.0})",
            milc.l2_ths_off,
            milc.l2_ths_on
        );
        assert!(!out.render().is_empty());
    }
}
