//! SMP extension (`smp_*` experiments): multiprogrammed mixes
//! co-scheduled over N cores with private TLB hierarchies, one shared
//! LLC, and cross-core shootdowns (see [`colt_smp`]).
//!
//! Two studies:
//!
//! * **`smp_mix`** — each eight-benchmark mix runs twice at the
//!   requested core count, once untagged (full translation flush at
//!   every context switch, the paper's machine) and once ASID-tagged
//!   (switches retarget the current ASID and keep warmed state). The
//!   table shows what tagging buys — flushes avoided, walks saved —
//!   and what SMP costs — shootdown IPIs and remote invalidations
//!   under kernel churn.
//! * **`smp_scaling`** — one mix swept over core counts with tagging
//!   on, showing how per-core TLB pressure and IPI traffic change as
//!   the same work spreads over more private hierarchies contending on
//!   one LLC.
//!
//! Each row is one machine cell (`window_cell`): the sweep ages the
//! default scenario's machine once, and every cell loads its mix on its
//! own copy.

use super::{ExperimentOptions, ExperimentOutput};
use crate::report::Table;
use crate::runner::{self, SweepCell};
use colt_os_mem::faults::FaultConfig;
use colt_smp::{SmpConfig, SmpMachine};
use colt_tlb::config::TlbConfig;
use colt_workloads::scenario::Scenario;
use colt_workloads::spec::benchmark;

/// A lighter eight-benchmark mix (~33k pages): two workloads per core
/// at four cores, so every core co-schedules and context-switches.
pub const MIX_LIGHT: [&str; 8] =
    ["Gobmk", "Povray", "FastaProt", "Sjeng", "Xalancbmk", "Bzip2", "Omnetpp", "GemsFDTD"];

/// A heavier mix (~47k pages) led by Mcf, the paper's largest
/// footprint.
pub const MIX_HEAVY: [&str; 8] =
    ["Mcf", "CactusADM", "Omnetpp", "Gobmk", "Xalancbmk", "Sjeng", "Povray", "FastaProt"];

/// One (mix, mode, core-count) measurement.
#[derive(Clone, Debug)]
pub struct SmpRow {
    /// Which experiment produced the row ("smp_mix" / "smp_scaling").
    pub experiment: &'static str,
    /// Mix label ("light8" / "heavy8").
    pub mix: String,
    /// "untagged" or "tagged".
    pub mode: &'static str,
    /// Core count.
    pub cores: usize,
    /// Aggregate memory references measured.
    pub accesses: u64,
    /// Aggregate L1-level TLB misses.
    pub l1_misses: u64,
    /// Aggregate page walks (L2 misses).
    pub walks: u64,
    /// Full translation flushes at context switches.
    pub full_flushes: u64,
    /// Switches that kept state thanks to ASID tagging.
    pub flushes_avoided: u64,
    /// Shootdown IPIs sent.
    pub ipis_sent: u64,
    /// Shootdown IPIs received.
    pub ipis_received: u64,
    /// Entries invalidated remotely.
    pub remote_invalidations: u64,
    /// Cycles spent sending/servicing IPIs.
    pub ipi_cycles: u64,
}

impl crate::journal::JournalPayload for SmpRow {
    fn encode(&self) -> String {
        crate::journal::Enc::new("smp1")
            .s(self.experiment)
            .s(&self.mix)
            .s(self.mode)
            .u(self.cores as u64)
            .u(self.accesses)
            .u(self.l1_misses)
            .u(self.walks)
            .u(self.full_flushes)
            .u(self.flushes_avoided)
            .u(self.ipis_sent)
            .u(self.ipis_received)
            .u(self.remote_invalidations)
            .u(self.ipi_cycles)
            .done()
    }
    fn decode(s: &str) -> Option<Self> {
        let mut d = crate::journal::Dec::new(s, "smp1")?;
        // The two &'static str fields come back through a closed-world
        // match: an unknown value means a foreign payload, not a guess.
        let experiment = match d.s()?.as_str() {
            "smp_mix" => "smp_mix",
            "smp_scaling" => "smp_scaling",
            _ => return None,
        };
        let mix = d.s()?;
        let mode = match d.s()?.as_str() {
            "tagged" => "tagged",
            "untagged" => "untagged",
            _ => return None,
        };
        let row = SmpRow {
            experiment,
            mix,
            mode,
            cores: usize::try_from(d.u()?).ok()?,
            accesses: d.u()?,
            l1_misses: d.u()?,
            walks: d.u()?,
            full_flushes: d.u()?,
            flushes_avoided: d.u()?,
            ipis_sent: d.u()?,
            ipis_received: d.u()?,
            remote_invalidations: d.u()?,
            ipi_cycles: d.u()?,
        };
        d.exhausted().then_some(row)
    }
}

/// One SMP measurement as a machine cell on the default scenario's
/// machine under `opts.policy`: the cell loads the benchmarks `names` on
/// its copy, runs them on `cores` CoLT-All cores, ASID-`tagged` or not,
/// seeded with `opts.seed` and with `faults` armed in the kernel if
/// given, for a tenth of `opts.accesses` as warm-up and `opts.accesses`
/// measured, then returns what `read` takes from the machine.
pub(crate) fn window_cell<R>(
    label: String,
    opts: &ExperimentOptions,
    names: &'static [&'static str],
    cores: usize,
    tagged: bool,
    faults: Option<FaultConfig>,
    read: impl FnOnce(&SmpMachine) -> R + Send + 'static,
) -> SweepCell<R> {
    let scenario = Scenario::default_linux().with_policy(opts.policy);
    let (accesses, seed) = (opts.accesses, opts.seed);
    let refs = cores as u64 * (accesses + accesses / 10);
    let on = scenario.clone();
    SweepCell::on_machine(label, &scenario, refs, move |aged| {
        let specs: Vec<_> =
            names.iter().map(|n| benchmark(n).expect("Table-1 benchmark")).collect();
        let multi = aged
            .into_prepared_many(&on, &specs)
            .unwrap_or_else(|e| panic!("into_prepared_many({names:?}): {e}"));
        let cfg = SmpConfig::new(cores, TlbConfig::colt_all());
        let mut machine = SmpMachine::new(multi, if tagged { cfg.tagged() } else { cfg }, seed);
        if let Some(faults) = faults {
            machine.install_fault_plan(faults);
        }
        machine.run(accesses / 10);
        machine.mark();
        machine.run(accesses);
        read(&machine)
    })
}

/// The row an `experiment` cell measured on the mix `mix`.
fn row(experiment: &'static str, mix: &'static str, machine: &SmpMachine) -> SmpRow {
    let agg = machine.result().aggregate();
    SmpRow {
        experiment,
        mix: mix.to_string(),
        mode: if machine.is_tagged() { "tagged" } else { "untagged" },
        cores: machine.cores(),
        accesses: agg.counters.accesses,
        l1_misses: agg.tlb.l1_misses,
        walks: agg.tlb.l2_misses,
        full_flushes: agg.counters.full_flushes,
        flushes_avoided: agg.counters.flushes_avoided,
        ipis_sent: agg.counters.ipis_sent,
        ipis_received: agg.counters.ipis_received,
        remote_invalidations: agg.counters.remote_invalidations,
        ipi_cycles: agg.counters.ipi_cycles,
    }
}

fn mix_table(title: String, rows: &[SmpRow]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "mix", "mode", "cores", "walks", "full flushes", "flushes avoided",
            "IPIs sent", "remote invals", "IPI cycles",
        ],
    );
    for r in rows {
        table.add_row(vec![
            r.mix.clone(),
            r.mode.to_string(),
            r.cores.to_string(),
            r.walks.to_string(),
            r.full_flushes.to_string(),
            r.flushes_avoided.to_string(),
            r.ipis_sent.to_string(),
            r.remote_invalidations.to_string(),
            r.ipi_cycles.to_string(),
        ]);
    }
    table
}

/// Runs the tagged-vs-untagged mix study at `opts.cores` cores.
pub fn run_mix(opts: &ExperimentOptions) -> (Vec<SmpRow>, ExperimentOutput) {
    let cores = opts.cores.max(1);
    let mut cells = Vec::new();
    for (mix, names) in [("light8", &MIX_LIGHT), ("heavy8", &MIX_HEAVY)] {
        for (mode, tagged) in [("untagged", false), ("tagged", true)] {
            let read = move |machine: &SmpMachine| row("smp_mix", mix, machine);
            let label = format!("smp_mix/{mix}/{mode}");
            cells.push(window_cell(label, opts, names, cores, tagged, None, read));
        }
    }
    let rows = runner::expect_all(runner::run_cells_sweep(cells, &opts.sweep()));
    let table = mix_table(
        format!(
            "SMP mixes (extension): {cores} core(s), CoLT-All per core, shared LLC, \
             10k-step quanta, kernel churn every 2k steps"
        ),
        &rows,
    );
    (rows, ExperimentOutput { id: "smp_mix", tables: vec![table] })
}

/// Core counts the scaling study sweeps: 1, half, and the requested
/// width (at least 4).
fn scaling_core_counts(requested: usize) -> Vec<usize> {
    let top = requested.max(4);
    let mut counts = vec![1, (top / 2).max(2), top];
    counts.dedup();
    counts
}

/// Runs the core-count scaling study (ASID-tagged CoLT-All).
pub fn run_scaling(opts: &ExperimentOptions) -> (Vec<SmpRow>, ExperimentOutput) {
    let cells = scaling_core_counts(opts.cores)
        .into_iter()
        .map(|cores| {
            let read = |machine: &SmpMachine| row("smp_scaling", "light8", machine);
            let label = format!("smp_scaling/{cores}c");
            window_cell(label, opts, &MIX_LIGHT, cores, true, None, read)
        })
        .collect();
    let rows = runner::expect_all(runner::run_cells_sweep(cells, &opts.sweep()));
    let table = mix_table(
        "SMP scaling (extension): light8 mix, ASID-tagged CoLT-All, cores swept".to_string(),
        &rows,
    );
    (rows, ExperimentOutput { id: "smp_scaling", tables: vec![table] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagging_eliminates_flushes_and_churn_costs_ipis() {
        // Enough steps to cross several 10k-step scheduling quanta.
        let opts = ExperimentOptions { accesses: 35_000, cores: 2, ..ExperimentOptions::quick() };
        let (rows, out) = run_mix(&opts);
        assert_eq!(out.id, "smp_mix");
        assert_eq!(rows.len(), 4, "two mixes x two modes");
        for pair in rows.chunks(2) {
            let (untagged, tagged) = (&pair[0], &pair[1]);
            assert_eq!(untagged.mix, tagged.mix);
            assert!(
                tagged.full_flushes < untagged.full_flushes,
                "tagging must cut full flushes ({} vs {})",
                tagged.full_flushes,
                untagged.full_flushes
            );
            assert!(tagged.flushes_avoided > 0);
            assert_eq!(tagged.accesses, untagged.accesses);
        }
        // Shootdown volume depends on what the kernel's churn actually
        // moves, so only light8 — whose layout compaction does migrate —
        // must show the IPI bill.
        let light_tagged = &rows[1];
        assert_eq!(light_tagged.mix, "light8");
        assert!(light_tagged.ipis_sent > 0, "churn must cost IPIs in tagged mode");
        assert!(light_tagged.remote_invalidations > 0);
    }

    #[test]
    fn scaling_covers_the_requested_width() {
        assert_eq!(scaling_core_counts(1), vec![1, 2, 4]);
        assert_eq!(scaling_core_counts(4), vec![1, 2, 4]);
        assert_eq!(scaling_core_counts(8), vec![1, 4, 8]);
    }

    #[test]
    fn scaling_rows_are_deterministic_at_any_jobs_width() {
        let opts = ExperimentOptions { accesses: 5_000, cores: 2, jobs: 1, ..ExperimentOptions::quick() };
        let (a, _) = run_scaling(&opts);
        let (b, _) = run_scaling(&ExperimentOptions { jobs: 8, ..opts });
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.walks, y.walks);
            assert_eq!(x.ipis_sent, y.ipis_sent);
            assert_eq!(x.remote_invalidations, y.remote_invalidations);
        }
    }
}
