//! Context-switch sensitivity (extension): how CoLT's miss elimination
//! holds up when the TLBs are flushed periodically, as on a machine
//! without PCID/ASID tagging.
//!
//! Coalesced entries amortize one walk across several translations, so a
//! flushed CoLT hierarchy re-warms in fewer walks than a flushed
//! baseline — the same §4 fill-path property that makes cold misses
//! cheaper makes context switches cheaper.

use super::{ExperimentOptions, ExperimentOutput};
use crate::report::{f1, Table};
use crate::sim::SimConfig;
use colt_tlb::config::TlbConfig;
use colt_tlb::stats::pct_misses_eliminated;

/// The flush periods swept (accesses between context switches; `None` =
/// never).
pub const PERIODS: [Option<u64>; 4] = [None, Some(50_000), Some(10_000), Some(2_000)];

/// One benchmark's elimination at each flush period.
#[derive(Clone, Debug)]
pub struct ContextSwitchRow {
    /// Benchmark name.
    pub name: &'static str,
    /// CoLT-All L2 elimination (%) per period, [`PERIODS`] order.
    pub elim: [f64; 4],
}

/// Runs the context-switch sweep.
pub fn run(opts: &ExperimentOptions) -> (Vec<ContextSwitchRow>, ExperimentOutput) {
    let mut variants = Vec::new();
    for (i, &period) in PERIODS.iter().enumerate() {
        for tlb in [TlbConfig::baseline(), TlbConfig::colt_all()] {
            let cfg = SimConfig { flush_period: period, ..opts.sim(tlb) };
            variants.push(opts.variant(format!("p{i}/{}", tlb.mode.label()), cfg));
        }
    }
    let rows: Vec<ContextSwitchRow> = opts
        .run_grid("ctxswitch", &variants)
        .into_iter()
        .map(|(spec, r)| {
            let mut elim = [0.0f64; 4];
            for (i, pair) in r.chunks_exact(2).enumerate() {
                elim[i] = pct_misses_eliminated(pair[0].tlb.l2_misses, pair[1].tlb.l2_misses);
            }
            ContextSwitchRow { name: spec.name, elim }
        })
        .collect();

    let mut table = Table::new(
        "Context switches: CoLT-All L2 elimination vs flush period (extension)",
        &["Benchmark", "no flush", "per 50k", "per 10k", "per 2k"],
    );
    table.add_rows_and_average(rows.iter().map(|r| (r.name, r.elim)), f1);
    (rows, ExperimentOutput { id: "ctxswitch", tables: vec![table] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colt_still_eliminates_misses_under_frequent_flushes() {
        let opts = ExperimentOptions::quick().with_benchmarks(&["CactusADM"]);
        let (rows, out) = run(&opts);
        let r = &rows[0];
        for (i, &e) in r.elim.iter().enumerate() {
            assert!(
                e > 10.0,
                "period {:?}: CoLT must keep eliminating misses, got {e:.1}%",
                PERIODS[i]
            );
        }
        assert!(out.render().contains("per 2k"));
    }
}
