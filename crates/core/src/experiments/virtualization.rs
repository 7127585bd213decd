//! Virtualization extension (not a paper figure; the paper's stated
//! expectation): "This number worsens to 50% in virtualized
//! environments" (§1) and "as applications with even larger working sets
//! or virtualization are considered, these performance improvements will
//! be even higher" (§7.2).
//!
//! Repeats the Figure-21 methodology with two-dimensional nested page
//! walks (each guest page-table access is itself host-translated), and
//! compares CoLT's performance improvement native vs virtualized.

use super::{ExperimentOptions, ExperimentOutput};
use crate::perf::PerfModel;
use crate::report::{f1, Table};
use colt_tlb::config::TlbConfig;

/// Virtualization results for one benchmark.
#[derive(Clone, Debug)]
pub struct VirtRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Native perfect-TLB headroom (%).
    pub native_perfect: f64,
    /// Native CoLT-All improvement (%).
    pub native_colt: f64,
    /// Virtualized perfect-TLB headroom (%).
    pub virt_perfect: f64,
    /// Virtualized CoLT-All improvement (%).
    pub virt_colt: f64,
}

/// Runs the virtualization study.
pub fn run(opts: &ExperimentOptions) -> (Vec<VirtRow>, ExperimentOutput) {
    let model = PerfModel::default();
    let (base, colt) = (opts.sim(TlbConfig::baseline()), opts.sim(TlbConfig::colt_all()));
    let variants = [
        opts.variant("native-base", base),
        opts.variant("native-colt", colt),
        opts.variant("virt-base", base.virtualized()),
        opts.variant("virt-colt", colt.virtualized()),
    ];
    let rows: Vec<VirtRow> = opts
        .run_grid("virt", &variants)
        .into_iter()
        .map(|(spec, r)| VirtRow {
            name: spec.name,
            native_perfect: model.perfect_improvement_pct(&r[0]),
            native_colt: model.improvement_pct(&r[0], &r[1]),
            virt_perfect: model.perfect_improvement_pct(&r[2]),
            virt_colt: model.improvement_pct(&r[2], &r[3]),
        })
        .collect();

    let mut table = Table::new(
        "Virtualization: CoLT-All improvement, native vs nested paging (paper sec 7.2 expectation)",
        &["Benchmark", "native perfect", "native CoLT-All", "virt perfect", "virt CoLT-All"],
    );
    table.add_rows_and_average(
        rows.iter()
            .map(|r| (r.name, [r.native_perfect, r.native_colt, r.virt_perfect, r.virt_colt])),
        f1,
    );
    (rows, ExperimentOutput { id: "virt", tables: vec![table] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtualization_raises_colt_gains() {
        // The paper's §7.2 expectation: walk penalties triple under
        // nested paging, so the same eliminated misses buy more runtime.
        let opts = ExperimentOptions::quick().with_benchmarks(&["CactusADM"]);
        let (rows, out) = run(&opts);
        let r = &rows[0];
        assert!(
            r.virt_perfect > r.native_perfect,
            "nested walks must raise the perfect-TLB headroom ({:.1} vs {:.1})",
            r.virt_perfect,
            r.native_perfect
        );
        assert!(
            r.virt_colt > r.native_colt,
            "CoLT must gain more under virtualization ({:.1} vs {:.1})",
            r.virt_colt,
            r.native_colt
        );
        assert!(out.render().contains("virt CoLT-All"));
    }
}
