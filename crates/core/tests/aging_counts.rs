//! Counts the work one sweep does: one aging per machine (scenarios
//! that differ only in memhog share one, and machine cells share it with
//! the preparations) and one preparation per (scenario, benchmark) pair,
//! whatever the worker width, with a failing preparation built once. The
//! snapshot cache's counters are process-global, so this file holds a
//! single test and runs in a process of its own.

use colt_core::journal::{crc32, Journal, JournalPayload};
use colt_core::runner::{
    expect_all, run_cells_outcomes, run_cells_sweep, CellOutcome, SweepCell, SweepOptions,
};
use colt_core::sim::{self, SimConfig};
use colt_core::snapshot_cache;
use colt_os_mem::snapshot::{Enc, Snapshot};
use colt_tlb::config::TlbConfig;
use colt_workloads::scenario::{MultiWorkload, Scenario};
use colt_workloads::spec::{benchmark, BenchmarkSpec};

fn cfg(tlb: TlbConfig) -> SimConfig {
    SimConfig { pattern_seed: 0x5EED, ..SimConfig::new(tlb).with_accesses(10_000) }
}

/// A loaded machine's kernel and parts as snapshot bytes.
fn multi_bytes(multi: &MultiWorkload) -> Vec<u8> {
    let mut enc = Enc::new();
    multi.kernel.encode(&mut enc);
    for (spec, asid, footprint) in &multi.parts {
        enc.str(spec.name);
        asid.encode(&mut enc);
        for vpn in footprint.iter() {
            enc.u64(vpn.raw());
        }
    }
    enc.finish()
}

/// A machine cell that loads `specs` on its copy of `scenario`'s machine
/// and returns what `digest` makes of the loaded machine's bytes.
fn load_cell<R: 'static>(
    label: String,
    scenario: &Scenario,
    specs: &[BenchmarkSpec],
    digest: fn(Vec<u8>) -> R,
) -> SweepCell<R> {
    let (on, specs) = (scenario.clone(), specs.to_vec());
    SweepCell::on_machine(label, scenario, 0, move |aged| {
        digest(multi_bytes(&aged.into_prepared_many(&on, &specs).expect("the pair loads")))
    })
}

/// A pair cell whose result is its simulation's journal encoding.
fn sim_cell(label: String, scenario: &Scenario, spec: &BenchmarkSpec, tlb: TlbConfig) -> SweepCell<Vec<u8>> {
    SweepCell::sim_then(label, scenario, spec, cfg(tlb), |_, r| r.encode().into_bytes())
}

fn crc(bytes: Vec<u8>) -> u64 {
    u64::from(crc32(&bytes))
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
        // The default and memhog scenarios share one machine, and the
        // machine cells use it too.
        let scenarios = [
            Scenario::default_linux().with_seed(seed),
            Scenario::no_ths().with_seed(seed),
            Scenario::default_with_memhog(0.25).with_seed(seed),
        ];
        let machine_bytes =
            multi_bytes(&scenarios[0].prepare_many(&specs[..2]).expect("the pair loads"));
        let mut healthy: Vec<(&Scenario, &BenchmarkSpec, TlbConfig)> = Vec::new();
        let mut expected = vec![machine_bytes.clone()];
        for scenario in &scenarios {
            for spec in &specs {
                let direct = scenario.prepare(spec).expect("the scenario prepares");
                for tlb in tlbs {
                    healthy.push((scenario, spec, tlb));
                    expected.push(sim::run(&direct, &cfg(tlb)).encode().into_bytes());
                }
            }
        }
        expected.push(machine_bytes);
        let cells = || {
            let load = |i| load_cell(format!("count/machine/{i}"), &scenarios[0], &specs[..2], |b| b);
            let mut cells = vec![load(0)];
            cells.extend(healthy.iter().enumerate().map(|(i, (scenario, spec, tlb))| {
                sim_cell(format!("count/{}/{}/{i}", scenario.name, spec.name), scenario, spec, *tlb)
            }));
            cells.push(load(1));
            for i in 0..3 {
                cells.push(sim_cell(format!("count/broken/{i}"), &broken, &specs[2], tlbs[0]));
            }
            cells
        };
        let check = |outcomes: Vec<CellOutcome<Vec<u8>>>, run: &str| {
            let (ok, failed) = outcomes.split_at(expected.len());
            let differs = ok.iter().zip(&expected).position(|(o, want)| match o {
                CellOutcome::Ok(got) => got != want,
                other => panic!("jobs {jobs}, {run}: a healthy cell failed: {other:?}"),
            });
            assert_eq!(
                differs, None,
                "jobs {jobs}, {run}: this cell's result differs from its scenario's own preparation"
            );
            assert!(failed.iter().all(CellOutcome::is_failed), "jobs {jobs}, {run}: {failed:?}");
        };

        let _ = snapshot_cache::take_stats();
        check(run_cells_outcomes(cells(), jobs), "first run");
        let stats = snapshot_cache::take_stats();
        assert_eq!(stats.agings, 3, "jobs {jobs}: one aging per machine, machine cells included");
        assert_eq!(stats.misses, 9, "jobs {jobs}: one build per healthy pair");

        // Every healthy pair now answers from the memory layer under its
        // own scenario's key, so a workload filed under a sibling's key
        // shows here. The machine cells still need their machine, and the
        // broken pair, never cached, its own.
        check(run_cells_outcomes(cells(), jobs), "second run");
        let stats = snapshot_cache::take_stats();
        assert_eq!(stats.mem_hits, 9, "jobs {jobs}: every healthy pair is a memory hit");
        assert_eq!(stats.misses, 0, "jobs {jobs}: nothing healthy is built again");
        assert_eq!(stats.agings, 2, "jobs {jobs}: the machine cells' machine and the broken one");
    }

    // Journaled, the machine cells replay on a resume and age nothing.
    let dir = std::env::temp_dir().join(format!("colt-aging-counts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = Scenario::default_linux().with_seed(0xA6ED_0003);
    let digest = crc(multi_bytes(&scenario.prepare_many(&specs[..2]).expect("the pair loads")));
    let sweep = |resume: bool| {
        let journal = Journal::open(&dir, "machines", "a6ed0003".to_string(), resume).unwrap();
        let cells = (0..3)
            .map(|i| load_cell(format!("jmachine/{i}"), &scenario, &specs[..2], crc))
            .collect();
        let _ = snapshot_cache::take_stats();
        let out = expect_all(run_cells_sweep(cells, &SweepOptions { jobs: 2, journal: Some(&journal) }));
        (out, journal.swept(), snapshot_cache::take_stats().agings)
    };
    assert_eq!(sweep(false), (vec![digest; 3], (0, 3), 1));
    assert_eq!(sweep(true), (vec![digest; 3], (3, 0), 0), "a resume replays every cell");
    std::fs::remove_dir_all(&dir).unwrap();
}
