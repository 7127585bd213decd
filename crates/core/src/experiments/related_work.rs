//! Related-work comparison (paper §2.1/§2.4): CoLT versus TLB
//! prefetching with a distinct prefetch buffer.
//!
//! The paper argues qualitatively that coalescing dominates prefetching:
//! prefetches cost extra page walks and bandwidth and stage only one
//! translation per entry, while CoLT harvests up to eight translations
//! from the cache line the demand walk already fetched ("unlike prior
//! work on speculation or prefetching, CoLT does not augment the
//! standard TLBs with separate structures", §2.4). This experiment makes
//! that comparison quantitative.

use super::{ExperimentOptions, ExperimentOutput};
use crate::report::{f1, Table};
use colt_tlb::config::TlbConfig;
use colt_tlb::prefetch::PrefetchConfig;
use colt_tlb::stats::pct_misses_eliminated;

/// Comparison results for one benchmark.
#[derive(Clone, Debug)]
pub struct RelatedWorkRow {
    /// Benchmark name.
    pub name: &'static str,
    /// % of baseline L2 misses eliminated by a degree-1 prefetcher.
    pub prefetch1_elim: f64,
    /// % eliminated by a degree-2 prefetcher.
    pub prefetch2_elim: f64,
    /// % eliminated by CoLT-All.
    pub colt_elim: f64,
    /// Extra background walks per 1000 accesses the degree-2 prefetcher
    /// spends (CoLT spends zero).
    pub prefetch2_walk_overhead: f64,
}

/// Runs the prefetcher-vs-CoLT comparison.
pub fn run(opts: &ExperimentOptions) -> (Vec<RelatedWorkRow>, ExperimentOutput) {
    let prefetch = |degree| {
        TlbConfig::baseline().with_prefetch(PrefetchConfig { buffer_entries: 16, degree })
    };
    let variants = [
        ("base", TlbConfig::baseline()),
        ("pf1", prefetch(1)),
        ("pf2", prefetch(2)),
        ("colt", TlbConfig::colt_all()),
    ]
    .map(|(label, tlb)| opts.variant(label, opts.sim(tlb)));
    let rows: Vec<RelatedWorkRow> = opts
        .run_grid("related", &variants)
        .into_iter()
        .map(|(spec, r)| {
            let (base, pf1, pf2, colt) = (&r[0], &r[1], &r[2], &r[3]);
            RelatedWorkRow {
                name: spec.name,
                prefetch1_elim: pct_misses_eliminated(base.tlb.l2_misses, pf1.tlb.l2_misses),
                prefetch2_elim: pct_misses_eliminated(base.tlb.l2_misses, pf2.tlb.l2_misses),
                colt_elim: pct_misses_eliminated(base.tlb.l2_misses, colt.tlb.l2_misses),
                prefetch2_walk_overhead: 2.0 * pf2.tlb.l2_misses as f64 * 1000.0
                    / pf2.tlb.accesses.max(1) as f64,
            }
        })
        .collect();

    let mut table = Table::new(
        "Related work: sequential TLB prefetching vs CoLT (L2 miss elimination %)",
        &["Benchmark", "prefetch d=1", "prefetch d=2", "CoLT-All", "pf d=2 walks/1k acc"],
    );
    table.add_rows_and_average(
        rows.iter().map(|r| {
            let overhead = r.prefetch2_walk_overhead;
            (r.name, [r.prefetch1_elim, r.prefetch2_elim, r.colt_elim, overhead])
        }),
        f1,
    );
    (rows, ExperimentOutput { id: "related", tables: vec![table] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetching_helps_sequential_workloads_but_colt_wins() {
        // Bzip2 streams sequentially: a next-page prefetcher's best case.
        let opts = ExperimentOptions::quick().with_benchmarks(&["Bzip2"]);
        let (rows, out) = run(&opts);
        let r = &rows[0];
        assert!(
            r.prefetch1_elim > 0.0,
            "a sequential prefetcher must help a streaming workload ({:.1}%)",
            r.prefetch1_elim
        );
        assert!(
            r.colt_elim > r.prefetch1_elim,
            "CoLT-All ({:.1}%) must beat degree-1 prefetching ({:.1}%)",
            r.colt_elim,
            r.prefetch1_elim
        );
        assert!(r.prefetch2_walk_overhead > 0.0, "prefetching costs extra walks");
        assert!(out.render().contains("CoLT-All"));
    }

    #[test]
    fn next_page_prefetching_whiffs_on_wider_strides() {
        // CactusADM strides by 3 pages: v+1/v+2 prefetches are useless —
        // while CoLT coalesces the whole line and wins regardless.
        let opts = ExperimentOptions::quick().with_benchmarks(&["CactusADM"]);
        let (rows, _) = run(&opts);
        let r = &rows[0];
        assert!(r.prefetch1_elim.abs() < 5.0, "got {:.1}%", r.prefetch1_elim);
        assert!(r.colt_elim > 30.0, "got {:.1}%", r.colt_elim);
    }
}
