//! Seed-sensitivity study: how robust the headline Figure-18 averages
//! are to the randomness this reproduction introduces (the paper's
//! numbers come from single traces; ours from seeded synthetic
//! workloads, so the honest question is how much the seeds matter).
//!
//! Two axes are varied independently:
//! * **pattern seeds** — the access stream over a fixed memory layout;
//! * **scenario seeds** — the machine history (aging, interference,
//!   memhog placement), i.e. a different memory layout.

use super::{mean_elimination, ExperimentOptions, ExperimentOutput, Variant};
use crate::metrics::mean;
use crate::report::{f1, Table};
use crate::sim::SimConfig;
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

/// Runs the seed-sensitivity study (3 pattern seeds × 3 scenario seeds)
/// as one grid: Figure 18's four designs under each (scenario seed,
/// pattern seed) pair. The pair both axes start from is declared twice
/// and simulated once.
pub fn run(opts: &ExperimentOptions) -> (Vec<NoiseRow>, ExperimentOutput) {
    let designs = ["CoLT-SA", "CoLT-FA", "CoLT-All"];
    let base_scenario_seed: u64 = 0xC011_7E57;
    let axes = [
        (
            "pattern seed",
            [0, 1, 2].map(|i| (base_scenario_seed, opts.seed.wrapping_add(i * 7919))),
        ),
        (
            "machine history",
            [0, 1, 2].map(|i| (base_scenario_seed.wrapping_add(i * 104_729), opts.seed)),
        ),
    ];
    let mut variants = Vec::new();
    for (scenario_seed, pattern_seed) in axes.iter().flat_map(|(_, pairs)| pairs) {
        let scenario = opts.scenario(Scenario::default_linux().with_seed(*scenario_seed));
        for (i, tlb) in super::miss_elimination::figure18_configs().into_iter().enumerate() {
            variants.push(Variant {
                label: format!("s{scenario_seed:x}/p{pattern_seed:x}/v{i}"),
                scenario: scenario.clone(),
                cfg: SimConfig { pattern_seed: *pattern_seed, ..opts.sim(tlb) },
            });
        }
    }
    let grid = opts.run_grid("noise", &variants);
    // Each pair's Figure-18 L2 averages, one per design.
    let averages: Vec<[f64; 3]> = (0..variants.len() / 4)
        .map(|p| [1, 2, 3].map(|d| mean_elimination(&grid, 4 * p, 4 * p + d, |r| r.tlb.l2_misses)))
        .collect();

    let mut rows = Vec::new();
    for (a, (axis, _)) in axes.iter().enumerate() {
        for (d, design) in designs.iter().enumerate() {
            let vals: Vec<f64> = averages[3 * a..3 * a + 3].iter().map(|r| r[d]).collect();
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
