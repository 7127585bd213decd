//! Seed-sensitivity study: how robust the headline Figure-18 averages
//! are to the randomness this reproduction introduces (the paper's
//! numbers come from single traces; ours from seeded synthetic
//! workloads, so the honest question is how much the seeds matter).
//!
//! Two axes are varied independently:
//! * **pattern seeds** — the access stream over a fixed memory layout;
//! * **scenario seeds** — the machine history (aging, interference,
//!   memhog placement), i.e. a different memory layout.

use super::{ExperimentOptions, ExperimentOutput};
use crate::metrics::mean;
use crate::report::{f1, Table};
use crate::runner::{self, SweepCell};
use crate::sim::SimConfig;
use colt_tlb::config::TlbConfig;
use colt_tlb::stats::pct_misses_eliminated;
use colt_workloads::scenario::Scenario;

/// Mean and spread of one design's average elimination across seeds.
#[derive(Clone, Debug)]
pub struct NoiseRow {
    /// What was varied.
    pub axis: String,
    /// Design label.
    pub design: &'static str,
    /// Mean of the per-seed Figure-18 averages (%).
    pub mean_elim: f64,
    /// Min across seeds.
    pub min_elim: f64,
    /// Max across seeds.
    pub max_elim: f64,
}

fn elim_for(
    opts: &ExperimentOptions,
    scenario_seed: u64,
    pattern_seed: u64,
) -> [f64; 3] {
    let scenario = opts.scenario(Scenario::default_linux().with_seed(scenario_seed));
    let configs = [TlbConfig::colt_sa(), TlbConfig::colt_fa(), TlbConfig::colt_all()];
    let specs = opts.selected_benchmarks();
    let mut cells = Vec::new();
    for spec in &specs {
        for (i, tlb) in std::iter::once(TlbConfig::baseline()).chain(configs).enumerate() {
            let cfg = SimConfig {
                pattern_seed,
                ..SimConfig::new(tlb).with_accesses(opts.accesses)
            };
            cells.push(SweepCell::sim(
                format!("noise/{}/s{scenario_seed:x}/p{pattern_seed:x}/v{i}", spec.name),
                &scenario,
                spec,
                cfg,
            ));
        }
    }
    let results = runner::expect_all(runner::run_cells_sweep(cells, &opts.sweep()));
    let mut sums = [0.0f64; 3];
    for chunk in results.chunks_exact(4) {
        for (i, r) in chunk[1..].iter().enumerate() {
            sums[i] += pct_misses_eliminated(chunk[0].tlb.l2_misses, r.tlb.l2_misses);
        }
    }
    let n = specs.len().max(1) as f64;
    [sums[0] / n, sums[1] / n, sums[2] / n]
}

/// Runs the seed-sensitivity study (3 pattern seeds × 3 scenario seeds).
pub fn run(opts: &ExperimentOptions) -> (Vec<NoiseRow>, ExperimentOutput) {
    let designs = ["CoLT-SA", "CoLT-FA", "CoLT-All"];
    let base_scenario_seed = 0xC011_7E57;
    let mut rows = Vec::new();

    // Axis 1: pattern seeds over the fixed default layout.
    let pattern_runs: Vec<[f64; 3]> = (0..3)
        .map(|i| elim_for(opts, base_scenario_seed, opts.seed.wrapping_add(i * 7919)))
        .collect();
    // Axis 2: scenario seeds with the fixed default pattern seed. Its
    // first run has axis 1's first seeds, so it is that run, not a
    // second sweep of the same cells under the same labels.
    let scenario_runs: Vec<[f64; 3]> = std::iter::once(pattern_runs[0])
        .chain((1..3).map(|i| {
            elim_for(opts, base_scenario_seed.wrapping_add(i * 104_729), opts.seed)
        }))
        .collect();

    for (axis, runs) in [("pattern seed", &pattern_runs), ("machine history", &scenario_runs)] {
        for (d, design) in designs.iter().enumerate() {
            let vals: Vec<f64> = runs.iter().map(|r| r[d]).collect();
            rows.push(NoiseRow {
                axis: axis.to_string(),
                design,
                mean_elim: mean(&vals),
                min_elim: vals.iter().cloned().fold(f64::INFINITY, f64::min),
                max_elim: vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            });
        }
    }

    let mut table = Table::new(
        "Seed sensitivity of the Figure-18 averages (3 seeds per axis)",
        &["varied", "design", "mean L2 elim %", "min", "max"],
    );
    for r in &rows {
        table.add_row(vec![
            r.axis.clone(),
            r.design.to_string(),
            f1(r.mean_elim),
            f1(r.min_elim),
            f1(r.max_elim),
        ]);
    }
    (rows, ExperimentOutput { id: "noise", tables: vec![table] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_numbers_are_seed_robust() {
        let opts = ExperimentOptions::quick().with_benchmarks(&["CactusADM", "Gobmk"]);
        let (rows, out) = run(&opts);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.max_elim - r.min_elim < 40.0,
                "{} / {}: spread too wide ({:.1}..{:.1})",
                r.axis,
                r.design,
                r.min_elim,
                r.max_elim
            );
            assert!(r.mean_elim > 0.0, "{} / {} must eliminate misses", r.axis, r.design);
        }
        assert!(out.render().contains("machine history"));
    }
}
