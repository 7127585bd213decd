//! Contiguity study: reproduce the paper's §6 characterization for a few
//! benchmarks — how buddy allocation, memory compaction, THS, and memhog
//! load shape page-allocation contiguity.
//!
//! Run with: `cargo run --release -p colt-core --example contiguity_study`

use colt_os_mem::contiguity::PAPER_CDF_POINTS;
use colt_workloads::scenario::{AgedMachine, MachineSpec, Scenario};
use colt_workloads::spec::benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let names = ["Mcf", "CactusADM", "Sjeng", "Xalancbmk"];
    let scenarios = [
        Scenario::default_linux(),
        Scenario::no_ths(),
        Scenario::no_ths_low_compaction(),
        Scenario::default_with_memhog(0.25),
        Scenario::default_with_memhog(0.50),
    ];
    // Aging reads only a scenario's machine (memhog is applied after
    // it), so the five scenarios age three machines, once each; every
    // preparation starts from a clone of its scenario's.
    let mut machines: Vec<(MachineSpec, AgedMachine)> = Vec::new();
    for machine in scenarios.iter().map(Scenario::machine) {
        if machines.iter().all(|(m, _)| *m != machine) {
            machines.push((machine, machine.age()?));
        }
    }

    for name in names {
        let spec = benchmark(name).expect("a Table-1 benchmark");
        println!(
            "== {name} (paper avgs: THS-on {:.1}, THS-off {:.1}, low {:.1}) ==",
            spec.paper.contig_ths_on, spec.paper.contig_ths_off,
            spec.paper.contig_low_compaction
        );
        for scenario in &scenarios {
            let (_, aged) = machines
                .iter()
                .find(|(m, _)| *m == scenario.machine())
                .expect("every scenario's machine is aged above");
            let workload = aged.clone().into_prepared(scenario, &spec)?;
            let report = workload.contiguity();
            let cdf = report.cdf(&PAPER_CDF_POINTS);
            let cdf_str: Vec<String> = PAPER_CDF_POINTS
                .iter()
                .zip(&cdf)
                .map(|(p, c)| format!("{p}:{c:.2}"))
                .collect();
            println!(
                "  {:32} avg {:7.2}  cdf[{}]  >=512: {:.1}%",
                scenario.name,
                report.average_contiguity(),
                cdf_str.join(" "),
                100.0 * report.fraction_with_contiguity_at_least(512),
            );
        }
        println!();
    }
    Ok(())
}
