//! Design-choice ablations.
//!
//! * **fill-to-L2** (§7.1.3): CoLT-FA/CoLT-All also filling the L2 TLB
//!   when a coalesced entry goes to the superpage TLB — the paper
//!   credits this policy with 10–20% additional miss elimination.
//! * **FA size**: the paper conservatively halves the superpage TLB to
//!   8 entries for CoLT-FA/All (§4.2.4); how much would 16 entries buy?
//! * **CoLT-All threshold**: where runs are routed between the
//!   set-associative TLBs and the superpage TLB (§4.3.1).
//! * **FA resident merging** (§4.2.1 step 5): merging freshly coalesced
//!   entries with residents.

use super::{ExperimentOptions, ExperimentOutput};
use crate::report::{f1, Table};
use crate::runner::{self, SweepCell};
use crate::sim::SimConfig;
use colt_tlb::config::TlbConfig;
use colt_tlb::stats::pct_misses_eliminated;
use colt_workloads::scenario::Scenario;

/// One ablation variant's average eliminations across benchmarks.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant label.
    pub label: String,
    /// Average % of baseline L1 misses eliminated.
    pub l1_elim: f64,
    /// Average % of baseline L2 misses eliminated.
    pub l2_elim: f64,
}

/// Fans one ablation block out across the sweep runner: every selected
/// benchmark × (baseline + each variant) is one cell; `make_cfg` maps a
/// TLB config onto the block's simulation settings (e.g. shootdown
/// churn). Returns per-variant averages of % misses eliminated.
fn average_elimination_with(
    opts: &ExperimentOptions,
    scenario: &Scenario,
    make_cfg: impl Fn(TlbConfig) -> SimConfig,
    variants: &[(String, TlbConfig)],
) -> Vec<AblationRow> {
    let specs = opts.selected_benchmarks();
    let mut cells = Vec::new();
    for spec in &specs {
        for (i, tlb) in std::iter::once(TlbConfig::baseline())
            .chain(variants.iter().map(|(_, t)| *t))
            .enumerate()
        {
            cells.push(SweepCell::sim(
                format!("ablation/{}/v{i}", spec.name),
                scenario,
                spec,
                make_cfg(tlb),
            ));
        }
    }
    let results = runner::expect_all(runner::run_cells_sweep(cells, &opts.sweep()));
    let mut sums = vec![(0.0f64, 0.0f64); variants.len()];
    for chunk in results.chunks_exact(variants.len() + 1) {
        let baseline = &chunk[0];
        for (i, r) in chunk[1..].iter().enumerate() {
            sums[i].0 += pct_misses_eliminated(baseline.tlb.l1_misses, r.tlb.l1_misses);
            sums[i].1 += pct_misses_eliminated(baseline.tlb.l2_misses, r.tlb.l2_misses);
        }
    }
    let n = specs.len().max(1) as f64;
    variants
        .iter()
        .zip(sums)
        .map(|((label, _), (l1, l2))| AblationRow {
            label: label.clone(),
            l1_elim: l1 / n,
            l2_elim: l2 / n,
        })
        .collect()
}

fn average_elimination(
    opts: &ExperimentOptions,
    variants: &[(String, TlbConfig)],
) -> Vec<AblationRow> {
    average_elimination_with(
        opts,
        &opts.scenario(Scenario::default_linux()),
        |tlb| SimConfig {
            pattern_seed: opts.seed,
            ..SimConfig::new(tlb).with_accesses(opts.accesses)
        },
        variants,
    )
}

/// §7.1.3: the fill-to-L2 policy for CoLT-FA and CoLT-All.
pub fn l2_fill_policy(opts: &ExperimentOptions) -> Vec<AblationRow> {
    let variants = vec![
        ("CoLT-FA, fill L2 (paper)".to_string(), TlbConfig::colt_fa()),
        ("CoLT-FA, no L2 fill".to_string(), TlbConfig { fill_l2_on_fa: false, ..TlbConfig::colt_fa() }),
        ("CoLT-All, fill L2 (paper)".to_string(), TlbConfig::colt_all()),
        ("CoLT-All, no L2 fill".to_string(), TlbConfig { fill_l2_on_fa: false, ..TlbConfig::colt_all() }),
    ];
    average_elimination(opts, &variants)
}

/// §4.2.4: the superpage-TLB size halving.
pub fn fa_size(opts: &ExperimentOptions) -> Vec<AblationRow> {
    let variants = vec![
        ("CoLT-FA, 8-entry SP (paper)".to_string(), TlbConfig::colt_fa()),
        ("CoLT-FA, 16-entry SP".to_string(), TlbConfig { sp_entries: 16, ..TlbConfig::colt_fa() }),
        ("CoLT-All, 8-entry SP (paper)".to_string(), TlbConfig::colt_all()),
        ("CoLT-All, 16-entry SP".to_string(), TlbConfig { sp_entries: 16, ..TlbConfig::colt_all() }),
    ];
    average_elimination(opts, &variants)
}

/// §4.3.1: CoLT-All's routing threshold.
pub fn all_threshold(opts: &ExperimentOptions) -> Vec<AblationRow> {
    let variants: Vec<(String, TlbConfig)> = [1u64, 2, 4, 8]
        .iter()
        .map(|&t| {
            (
                format!("CoLT-All, threshold {t}"),
                TlbConfig { all_threshold: t, ..TlbConfig::colt_all() },
            )
        })
        .collect();
    average_elimination(opts, &variants)
}

/// §4.2.1 step 5: resident-entry merging in the superpage TLB.
pub fn fa_merge(opts: &ExperimentOptions) -> Vec<AblationRow> {
    let variants = vec![
        ("CoLT-FA, resident merge (paper)".to_string(), TlbConfig::colt_fa()),
        (
            "CoLT-FA, no resident merge".to_string(),
            TlbConfig { fa_resident_merge: false, ..TlbConfig::colt_fa() },
        ),
    ];
    average_elimination(opts, &variants)
}

/// The §4.1.5/§4.2.3 future-work refinements, each measured against the
/// stock CoLT-All design in the regime it targets:
///
/// * coalescing-aware replacement — plain workload;
/// * graceful invalidation — under TLB-shootdown churn;
/// * attribute-tolerant coalescing — with a share of pages dirtied.
pub fn future_work(opts: &ExperimentOptions) -> Vec<AblationRow> {
    let mut rows = Vec::new();

    // (a) Replacement policy, plain conditions.
    rows.extend(average_elimination(
        opts,
        &[
            ("CoLT-All, LRU (paper)".to_string(), TlbConfig::colt_all()),
            (
                "CoLT-All, coalesced-first replacement".to_string(),
                TlbConfig {
                    replacement: colt_tlb::replacement::ReplacementPolicy::SmallestCoalescedFirst,
                    ..TlbConfig::colt_all()
                },
            ),
        ],
    ));

    // (b) Graceful invalidation, under shootdown churn.
    rows.extend(average_elimination_with(
        opts,
        &opts.scenario(Scenario::default_linux()),
        |tlb| SimConfig {
            pattern_seed: opts.seed,
            ..SimConfig::new(tlb).with_accesses(opts.accesses).with_invalidations(64)
        },
        &[
            (
                "CoLT-All + shootdowns, flush whole entries (paper)".to_string(),
                TlbConfig::colt_all(),
            ),
            (
                "CoLT-All + shootdowns, graceful uncoalescing".to_string(),
                TlbConfig { graceful_invalidation: true, ..TlbConfig::colt_all() },
            ),
        ],
    ));

    // (c) Attribute tolerance, with dirty pages breaking runs.
    rows.extend(average_elimination_with(
        opts,
        &opts.scenario(Scenario::default_linux().with_dirty_fraction(0.3)),
        |tlb| SimConfig {
            pattern_seed: opts.seed,
            ..SimConfig::new(tlb).with_accesses(opts.accesses)
        },
        &[
            (
                "CoLT-All + 30% dirty, strict attributes (paper)".to_string(),
                TlbConfig::colt_all(),
            ),
            (
                "CoLT-All + 30% dirty, DIRTY/ACCESSED tolerated".to_string(),
                TlbConfig {
                    coalesce_ignore_flags: colt_os_mem::page_table::PteFlags::DIRTY
                        .with(colt_os_mem::page_table::PteFlags::ACCESSED),
                    ..TlbConfig::colt_all()
                },
            ),
        ],
    ));
    rows
}

/// Runs all ablations and renders them.
pub fn run(opts: &ExperimentOptions) -> (Vec<(String, Vec<AblationRow>)>, ExperimentOutput) {
    let groups = vec![
        ("Fill-to-L2 policy (sec 7.1.3)".to_string(), l2_fill_policy(opts)),
        ("Superpage-TLB size (sec 4.2.4)".to_string(), fa_size(opts)),
        ("CoLT-All threshold (sec 4.3.1)".to_string(), all_threshold(opts)),
        ("FA resident merging (sec 4.2.1)".to_string(), fa_merge(opts)),
        ("Future work (sec 4.1.5 / 4.2.3)".to_string(), future_work(opts)),
    ];
    let mut tables = Vec::new();
    for (title, rows) in &groups {
        let mut table = Table::new(
            format!("Ablation: {title}"),
            &["Variant", "avg L1 elim %", "avg L2 elim %"],
        );
        for r in rows {
            table.add_row(vec![r.label.clone(), f1(r.l1_elim), f1(r.l2_elim)]);
        }
        tables.push(table);
    }
    (groups, ExperimentOutput { id: "ablation", tables })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_fill_policy_helps_colt_fa() {
        // §7.1.3 claims 10-15% additional elimination from the policy.
        let opts = ExperimentOptions::quick().with_benchmarks(&["Astar", "Povray"]);
        let rows = l2_fill_policy(&opts);
        let with = rows.iter().find(|r| r.label.contains("FA, fill")).unwrap();
        let without = rows.iter().find(|r| r.label.contains("FA, no")).unwrap();
        assert!(
            with.l2_elim >= without.l2_elim,
            "filling L2 ({:.1}%) must not hurt vs not filling ({:.1}%)",
            with.l2_elim,
            without.l2_elim
        );
    }

    #[test]
    fn bigger_fa_tlb_does_not_hurt() {
        let opts = ExperimentOptions::quick().with_benchmarks(&["Mummer"]);
        let rows = fa_size(&opts);
        let small = rows.iter().find(|r| r.label.contains("FA, 8-entry")).unwrap();
        let big = rows.iter().find(|r| r.label.contains("FA, 16-entry")).unwrap();
        assert!(big.l2_elim + 8.0 >= small.l2_elim);
    }

    #[test]
    fn run_renders_all_five_groups() {
        let opts = ExperimentOptions::quick().with_benchmarks(&["Gobmk"]);
        let (groups, out) = run(&opts);
        assert_eq!(groups.len(), 5);
        let text = out.render();
        assert!(text.contains("Fill-to-L2"));
        assert!(text.contains("threshold"));
        assert!(text.contains("Future work"));
    }

    #[test]
    fn attribute_tolerance_recovers_dirty_contiguity() {
        // §5.1.1: "contiguity would be even higher if this constraint
        // were relaxed" — with 30% of pages dirtied, tolerating DIRTY in
        // the coalescing comparison must recover eliminations.
        let opts = ExperimentOptions::quick().with_benchmarks(&["CactusADM"]);
        let rows = future_work(&opts);
        let strict = rows.iter().find(|r| r.label.contains("strict attributes")).unwrap();
        let tolerant = rows.iter().find(|r| r.label.contains("tolerated")).unwrap();
        assert!(
            tolerant.l2_elim > strict.l2_elim,
            "tolerant ({:.1}%) must beat strict ({:.1}%) when pages are dirty",
            tolerant.l2_elim,
            strict.l2_elim
        );
    }
}
