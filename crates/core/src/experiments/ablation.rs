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

use super::{mean_elimination, ExperimentOptions, ExperimentOutput, Variant};
use crate::report::{f1, Table};
use crate::sim::SimConfig;
use colt_os_mem::page_table::PteFlags;
use colt_tlb::config::TlbConfig;
use colt_tlb::replacement::ReplacementPolicy;
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

/// Variants measured against the baseline TLB, all under one scenario
/// and one set of simulation settings (e.g. shootdown churn). `name`
/// labels the block's cells: `ablation/{benchmark}/{name}/v{i}`, with
/// the baseline as `v0`.
#[derive(Clone)]
struct Block {
    name: &'static str,
    scenario: Scenario,
    /// The block's simulation settings, on the baseline TLB.
    base: SimConfig,
    variants: Vec<(String, TlbConfig)>,
}

impl Block {
    /// A block on the default scenario with plain simulation settings.
    fn plain(opts: &ExperimentOptions, name: &'static str, variants: Vec<(String, TlbConfig)>)
    -> Self {
        Block {
            name,
            scenario: opts.scenario(Scenario::default_linux()),
            base: opts.sim(TlbConfig::baseline()),
            variants,
        }
    }
}

/// Runs every block in one grid and returns each variant's average %
/// of its block's baseline misses eliminated, block after block. The
/// blocks share their baselines and several variants (the stock
/// CoLT-FA and CoLT-All designs recur), and the grid simulates each
/// distinct cell once.
fn measure(opts: &ExperimentOptions, blocks: &[Block]) -> Vec<AblationRow> {
    let mut variants = Vec::new();
    for b in blocks {
        let tlbs = std::iter::once(TlbConfig::baseline()).chain(b.variants.iter().map(|v| v.1));
        variants.extend(tlbs.enumerate().map(|(i, tlb)| Variant {
            label: format!("{}/v{i}", b.name),
            scenario: b.scenario.clone(),
            cfg: SimConfig { tlb, ..b.base },
        }));
    }
    let grid = opts.run_grid("ablation", &variants);
    let mut rows = Vec::new();
    let mut at = 0;
    for b in blocks {
        for (k, (label, _)) in b.variants.iter().enumerate() {
            rows.push(AblationRow {
                label: label.clone(),
                l1_elim: mean_elimination(&grid, at, at + 1 + k, |r| r.tlb.l1_misses),
                l2_elim: mean_elimination(&grid, at, at + 1 + k, |r| r.tlb.l2_misses),
            });
        }
        at += b.variants.len() + 1;
    }
    rows
}

/// §7.1.3: the fill-to-L2 policy for CoLT-FA and CoLT-All.
fn l2_fill_blocks(opts: &ExperimentOptions) -> Vec<Block> {
    let no_fill = |tlb| TlbConfig { fill_l2_on_fa: false, ..tlb };
    vec![Block::plain(opts, "l2-fill", vec![
        ("CoLT-FA, fill L2 (paper)".to_string(), TlbConfig::colt_fa()),
        ("CoLT-FA, no L2 fill".to_string(), no_fill(TlbConfig::colt_fa())),
        ("CoLT-All, fill L2 (paper)".to_string(), TlbConfig::colt_all()),
        ("CoLT-All, no L2 fill".to_string(), no_fill(TlbConfig::colt_all())),
    ])]
}

/// §4.2.4: the superpage-TLB size halving.
fn fa_size_blocks(opts: &ExperimentOptions) -> Vec<Block> {
    let sp16 = |tlb| TlbConfig { sp_entries: 16, ..tlb };
    vec![Block::plain(opts, "fa-size", vec![
        ("CoLT-FA, 8-entry SP (paper)".to_string(), TlbConfig::colt_fa()),
        ("CoLT-FA, 16-entry SP".to_string(), sp16(TlbConfig::colt_fa())),
        ("CoLT-All, 8-entry SP (paper)".to_string(), TlbConfig::colt_all()),
        ("CoLT-All, 16-entry SP".to_string(), sp16(TlbConfig::colt_all())),
    ])]
}

/// §4.3.1: CoLT-All's routing threshold.
fn all_threshold_blocks(opts: &ExperimentOptions) -> Vec<Block> {
    let variants = [1u64, 2, 4, 8]
        .iter()
        .map(|&t| {
            (
                format!("CoLT-All, threshold {t}"),
                TlbConfig { all_threshold: t, ..TlbConfig::colt_all() },
            )
        })
        .collect();
    vec![Block::plain(opts, "all-threshold", variants)]
}

/// §4.2.1 step 5: resident-entry merging in the superpage TLB.
fn fa_merge_blocks(opts: &ExperimentOptions) -> Vec<Block> {
    vec![Block::plain(opts, "fa-merge", vec![
        ("CoLT-FA, resident merge (paper)".to_string(), TlbConfig::colt_fa()),
        (
            "CoLT-FA, no resident merge".to_string(),
            TlbConfig { fa_resident_merge: false, ..TlbConfig::colt_fa() },
        ),
    ])]
}

/// The §4.1.5/§4.2.3 future-work refinements, each measured against the
/// stock CoLT-All design in the regime it targets:
///
/// * coalescing-aware replacement — plain workload;
/// * graceful invalidation — under TLB-shootdown churn;
/// * attribute-tolerant coalescing — with a share of pages dirtied.
fn future_work_blocks(opts: &ExperimentOptions) -> Vec<Block> {
    let replacement = Block::plain(opts, "replacement", vec![
        ("CoLT-All, LRU (paper)".to_string(), TlbConfig::colt_all()),
        (
            "CoLT-All, coalesced-first replacement".to_string(),
            TlbConfig {
                replacement: ReplacementPolicy::SmallestCoalescedFirst,
                ..TlbConfig::colt_all()
            },
        ),
    ]);
    let shootdowns = Block {
        base: opts.sim(TlbConfig::baseline()).with_invalidations(64),
        ..Block::plain(opts, "shootdowns", vec![
            (
                "CoLT-All + shootdowns, flush whole entries (paper)".to_string(),
                TlbConfig::colt_all(),
            ),
            (
                "CoLT-All + shootdowns, graceful uncoalescing".to_string(),
                TlbConfig { graceful_invalidation: true, ..TlbConfig::colt_all() },
            ),
        ])
    };
    let dirty = Block {
        scenario: opts.scenario(Scenario::default_linux().with_dirty_fraction(0.3)),
        ..Block::plain(opts, "dirty", vec![
            (
                "CoLT-All + 30% dirty, strict attributes (paper)".to_string(),
                TlbConfig::colt_all(),
            ),
            (
                "CoLT-All + 30% dirty, DIRTY/ACCESSED tolerated".to_string(),
                TlbConfig {
                    coalesce_ignore_flags: PteFlags::DIRTY.with(PteFlags::ACCESSED),
                    ..TlbConfig::colt_all()
                },
            ),
        ])
    };
    vec![replacement, shootdowns, dirty]
}

/// §7.1.3 on its own.
pub fn l2_fill_policy(opts: &ExperimentOptions) -> Vec<AblationRow> {
    measure(opts, &l2_fill_blocks(opts))
}

/// §4.2.4 on its own.
pub fn fa_size(opts: &ExperimentOptions) -> Vec<AblationRow> {
    measure(opts, &fa_size_blocks(opts))
}

/// The future-work refinements on their own.
pub fn future_work(opts: &ExperimentOptions) -> Vec<AblationRow> {
    measure(opts, &future_work_blocks(opts))
}

/// Runs all ablations as one grid and renders them.
pub fn run(opts: &ExperimentOptions) -> (Vec<(String, Vec<AblationRow>)>, ExperimentOutput) {
    let declared = [
        ("Fill-to-L2 policy (sec 7.1.3)", l2_fill_blocks(opts)),
        ("Superpage-TLB size (sec 4.2.4)", fa_size_blocks(opts)),
        ("CoLT-All threshold (sec 4.3.1)", all_threshold_blocks(opts)),
        ("FA resident merging (sec 4.2.1)", fa_merge_blocks(opts)),
        ("Future work (sec 4.1.5 / 4.2.3)", future_work_blocks(opts)),
    ];
    let blocks: Vec<Block> = declared.iter().flat_map(|(_, b)| b.iter().cloned()).collect();
    let mut rows = measure(opts, &blocks).into_iter();
    let groups: Vec<(String, Vec<AblationRow>)> = declared
        .into_iter()
        .map(|(title, blocks)| {
            let n = blocks.iter().map(|b| b.variants.len()).sum();
            (title.to_string(), rows.by_ref().take(n).collect())
        })
        .collect();
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
    fn run_journals_each_distinct_cell_once() {
        let opts = ExperimentOptions {
            accesses: 4_000,
            ..ExperimentOptions::quick().with_benchmarks(&["Gobmk"])
        };
        let (opts, journal, dir) = super::super::tests::journaled(opts, "ablation");
        let (groups, _) = run(&opts);
        // Seven blocks declare 27 cells (a baseline plus 20 variants);
        // the shared baselines and stock designs leave 18 distinct.
        assert_eq!(groups.iter().map(|(_, rows)| rows.len()).sum::<usize>(), 20);
        assert_eq!(journal.appended(), 18);
        let _ = std::fs::remove_dir_all(&dir);
    }

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
