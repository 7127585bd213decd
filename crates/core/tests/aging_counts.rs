//! Counts the work one sweep does: one aging per machine (scenarios
//! that differ only in memhog share one) and one preparation per
//! (scenario, benchmark) pair, whatever the worker width, with a
//! failing preparation built once. The snapshot cache's counters are
//! process-global, so this file holds a single test and runs in a
//! process of its own.

use colt_core::journal::JournalPayload;
use colt_core::runner::{run_cells_outcomes, CellOutcome, SweepCell};
use colt_core::sim::{self, SimConfig, SimResult};
use colt_core::snapshot_cache;
use colt_tlb::config::TlbConfig;
use colt_workloads::scenario::Scenario;
use colt_workloads::spec::{benchmark, BenchmarkSpec};

fn cfg(tlb: TlbConfig) -> SimConfig {
    SimConfig { pattern_seed: 0x5EED, ..SimConfig::new(tlb).with_accesses(10_000) }
}

#[test]
fn a_sweep_ages_each_machine_once_and_builds_each_pair_once() {
    let specs = ["Gobmk", "Povray", "Bzip2"].map(|b| benchmark(b).unwrap());
    let tlbs = [TlbConfig::baseline(), TlbConfig::colt_all()];
    // Ages fine, then runs out of memory in the allocation phase.
    let broken = Scenario { nr_frames: 64, ..Scenario::default_linux() };
    // Fresh seeds at each width, so the second sweep misses the memory
    // layer the first one filled.
    for (jobs, seed) in [(1, 0xA6ED_0001), (4, 0xA6ED_0002)] {
        // The default and memhog scenarios share one machine.
        let scenarios = [
            Scenario::default_linux().with_seed(seed),
            Scenario::no_ths().with_seed(seed),
            Scenario::default_with_memhog(0.25).with_seed(seed),
        ];
        let mut healthy: Vec<(&Scenario, &BenchmarkSpec, TlbConfig)> = Vec::new();
        let mut expected = Vec::new();
        for scenario in &scenarios {
            for spec in &specs {
                let direct = scenario.prepare(spec).expect("the scenario prepares");
                for tlb in tlbs {
                    healthy.push((scenario, spec, tlb));
                    expected.push(sim::run(&direct, &cfg(tlb)).encode());
                }
            }
        }
        let cells = || {
            let mut cells: Vec<_> = healthy
                .iter()
                .enumerate()
                .map(|(i, (scenario, spec, tlb))| {
                    let label = format!("count/{}/{}/{i}", scenario.name, spec.name);
                    SweepCell::sim(label, scenario, spec, cfg(*tlb))
                })
                .collect();
            for i in 0..3 {
                let label = format!("count/broken/{i}");
                cells.push(SweepCell::sim(label, &broken, &specs[2], cfg(tlbs[0])));
            }
            cells
        };
        let check = |outcomes: Vec<CellOutcome<SimResult>>, run: &str| {
            let (ok, failed) = outcomes.split_at(expected.len());
            let got: Vec<String> = ok
                .iter()
                .map(|o| match o {
                    CellOutcome::Ok(r) => r.encode(),
                    other => panic!("jobs {jobs}, {run}: a healthy cell failed: {other:?}"),
                })
                .collect();
            assert_eq!(
                got, expected,
                "jobs {jobs}, {run}: sweep results differ from each scenario's own preparation"
            );
            assert!(failed.iter().all(CellOutcome::is_failed), "jobs {jobs}, {run}: {failed:?}");
        };

        let _ = snapshot_cache::take_stats();
        check(run_cells_outcomes(cells(), jobs), "first run");
        let stats = snapshot_cache::take_stats();
        assert_eq!(stats.agings, 3, "jobs {jobs}: one aging per machine");
        assert_eq!(stats.misses, 9, "jobs {jobs}: one build per healthy pair");

        // Every healthy pair now answers from the memory layer under its
        // own scenario's key, so a workload filed under a sibling's key
        // shows here.
        check(run_cells_outcomes(cells(), jobs), "second run");
        let stats = snapshot_cache::take_stats();
        assert_eq!(stats.mem_hits, 9, "jobs {jobs}: every healthy pair is a memory hit");
        assert_eq!(stats.misses, 0, "jobs {jobs}: nothing healthy is built again");
    }
}
