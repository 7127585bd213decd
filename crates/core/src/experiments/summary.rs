//! One-stop validation: runs the headline experiments and prints the
//! paper-vs-measured scorecard (the EXPERIMENTS.md summary table),
//! including rank correlations of per-benchmark orderings.

use super::{associativity, contiguity, miss_elimination, performance, ExperimentOptions,
    ExperimentOutput};
use crate::metrics::{mean, rank_correlation};
use crate::report::{f2, Table};
use colt_workloads::calibration::{
    PAPER_AGGREGATES, PAPER_AVG_CONTIG_LOW_COMPACTION, PAPER_AVG_CONTIG_THS_OFF,
    PAPER_AVG_CONTIG_THS_ON,
};

/// One scorecard line.
#[derive(Clone, Debug)]
pub struct SummaryRow {
    /// Metric name.
    pub metric: String,
    /// The paper's value.
    pub paper: f64,
    /// This reproduction's value.
    pub measured: f64,
    /// Shape check: same sign and within 3× (or rank correlation > 0.5).
    pub ok: bool,
}

fn row(metric: &str, paper: f64, measured: f64) -> SummaryRow {
    let ratio = if paper != 0.0 { measured / paper } else { 1.0 };
    SummaryRow {
        metric: metric.to_string(),
        paper,
        measured,
        ok: ratio > 1.0 / 3.0 && ratio < 3.0,
    }
}

/// Runs the scorecard.
pub fn run(opts: &ExperimentOptions) -> (Vec<SummaryRow>, ExperimentOutput) {
    let mut rows = Vec::new();

    // Contiguity averages + per-benchmark rank correlation (THS on).
    let (on, _) = contiguity::run(contiguity::ContiguityConfig::ThsOn, opts);
    let (off, _) = contiguity::run(contiguity::ContiguityConfig::ThsOff, opts);
    let (low, _) = contiguity::run(contiguity::ContiguityConfig::LowCompaction, opts);
    let avg = |rows: &[contiguity::ContiguityRow]| {
        mean(&rows.iter().map(|r| r.average).collect::<Vec<_>>())
    };
    rows.push(row("avg contiguity, THS on", PAPER_AVG_CONTIG_THS_ON, avg(&on)));
    rows.push(row("avg contiguity, THS off", PAPER_AVG_CONTIG_THS_OFF, avg(&off)));
    rows.push(row(
        "avg contiguity, low compaction",
        PAPER_AVG_CONTIG_LOW_COMPACTION,
        avg(&low),
    ));
    if on.len() >= 3 {
        let measured: Vec<f64> = on.iter().map(|r| r.average).collect();
        let paper: Vec<f64> = on.iter().map(|r| r.paper_average).collect();
        let rho = rank_correlation(&measured, &paper);
        rows.push(SummaryRow {
            metric: "contiguity rank correlation (THS on)".into(),
            paper: 1.0,
            measured: rho,
            ok: rho > 0.5,
        });
    }

    // Figure 18 averages.
    let (elim, _) = miss_elimination::run(opts);
    let avg_elim = |design: usize| {
        mean(&elim.iter().map(|r| r.l2_elim(design)).collect::<Vec<_>>())
    };
    let paper18 = PAPER_AGGREGATES.fig18_avg_elimination;
    rows.push(row("fig18 avg L2 elim, CoLT-SA (%)", paper18[0], avg_elim(1)));
    rows.push(row("fig18 avg L2 elim, CoLT-FA (%)", paper18[1], avg_elim(2)));
    rows.push(row("fig18 avg L2 elim, CoLT-All (%)", paper18[2], avg_elim(3)));

    // Figure 20: coalescing vs associativity.
    let (assoc, _) = associativity::run(opts);
    let avg_assoc = |i: usize| {
        mean(&assoc.iter().map(|r| r.l2_elim(i)).collect::<Vec<_>>())
    };
    let paper20 = PAPER_AGGREGATES.fig20_avg_elimination;
    rows.push(row("fig20 4-way CoLT-SA (%)", paper20[0], avg_assoc(0)));
    rows.push(SummaryRow {
        metric: "fig20 coalescing beats associativity".into(),
        paper: 1.0,
        measured: f64::from(avg_assoc(0) > avg_assoc(1)),
        ok: avg_assoc(0) > avg_assoc(1),
    });

    // Figure 21 averages, from Figure 18's cells.
    let perf = performance::rows_from(&elim);
    let paper21 = PAPER_AGGREGATES.fig21_avg_perf;
    let avg_perf = |i: usize| mean(&perf.iter().map(|r| r.colt[i]).collect::<Vec<_>>());
    rows.push(row("fig21 avg speedup, CoLT-SA (%)", paper21[0], avg_perf(0)));
    rows.push(row("fig21 avg speedup, CoLT-FA (%)", paper21[1], avg_perf(1)));
    rows.push(row("fig21 avg speedup, CoLT-All (%)", paper21[2], avg_perf(2)));

    let mut table = Table::new(
        "Scorecard: paper vs measured (shape check: within 3x / rank rho > 0.5)",
        &["metric", "paper", "measured", "verdict"],
    );
    for r in &rows {
        table.add_row(vec![
            r.metric.clone(),
            f2(r.paper),
            f2(r.measured),
            if r.ok { "OK".into() } else { "DEVIATES".into() },
        ]);
    }
    (rows, ExperimentOutput { id: "summary", tables: vec![table] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scorecard_runs_and_mostly_passes() {
        let opts = ExperimentOptions::quick()
            .with_benchmarks(&["Mcf", "CactusADM", "Bzip2", "Gobmk"]);
        let (rows, out) = run(&opts);
        assert!(rows.len() >= 10);
        let passing = rows.iter().filter(|r| r.ok).count();
        assert!(
            passing * 2 > rows.len(),
            "most scorecard rows must pass at quick scale ({passing}/{})",
            rows.len()
        );
        assert!(out.render().contains("verdict"));
    }
}
