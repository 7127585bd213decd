//! End-to-end pipeline tests: scenario preparation → TLB/cache/walker
//! simulation → experiment drivers, across crate boundaries.

use colt_core::experiments::{contiguity, miss_elimination, ExperimentOptions};
use colt_core::perf::PerfModel;
use colt_core::sim::{self, SimConfig};
use colt_tests::{prepare, short_sim};
use colt_tlb::config::TlbConfig;
use colt_workloads::scenario::Scenario;
use colt_workloads::spec::{all_benchmarks, benchmark};

#[test]
fn every_benchmark_prepares_under_every_paper_scenario() {
    // The heaviest smoke test: all 14 models × the five focus scenarios
    // must allocate without OOM and produce non-degenerate contiguity.
    for scenario in Scenario::paper_five() {
        for spec in all_benchmarks() {
            let w = scenario
                .prepare(&spec)
                .unwrap_or_else(|e| panic!("{} under '{}': {e}", spec.name, scenario.name));
            assert_eq!(w.footprint.len() as u64, spec.footprint_pages);
            let report = w.contiguity();
            assert!(report.average_contiguity() >= 1.0);
            assert!(report.total_pages() > 0);
        }
    }
}

#[test]
fn simulation_translates_exactly_like_the_page_table() {
    // The whole stack (pattern → MMU step: TLB, walker, fill → caches)
    // must be a transparent cache over the kernel's page table.
    let w = prepare("Astar");
    let proc = w.kernel.process(w.asid).unwrap();
    let mut pattern = w.pattern(1);
    let mut mmu = colt_memsim::mmu::Mmu::new(TlbConfig::colt_all(), false);
    let mut caches = colt_memsim::hierarchy::CacheHierarchy::core_i7();
    for _ in 0..20_000 {
        let r = pattern.next_ref();
        let expected = proc.translate(r.vpn).expect("footprint mapped").pfn;
        let got = match mmu.lookup(r.vpn) {
            Some(hit) => hit.pfn,
            None => {
                let walk = mmu.walk_fill(proc.page_table(), r.vpn, &mut caches).expect("mapped");
                walk.translation.pfn
            }
        };
        assert_eq!(got, expected, "TLB must agree with the page table at {}", r.vpn);
    }
}

#[test]
fn end_to_end_determinism() {
    let spec = benchmark("Povray").unwrap();
    let run = || {
        let w = Scenario::default_linux().prepare(&spec).unwrap();
        let r = sim::run(&w, &SimConfig::new(TlbConfig::colt_fa()).with_accesses(20_000));
        (r.tlb, r.walk_cycles, r.data_stall_cycles)
    };
    assert_eq!(run(), run(), "two identical preparations must simulate identically");
}

#[test]
fn perf_model_orders_designs_consistently_with_walks() {
    let w = prepare("CactusADM");
    let model = PerfModel::default();
    let base = short_sim(&w, TlbConfig::baseline());
    let fa = short_sim(&w, TlbConfig::colt_fa());
    assert!(fa.tlb.l2_misses < base.tlb.l2_misses);
    assert!(
        model.improvement_pct(&base, &fa) > 0.0,
        "fewer walks must translate into positive speedup"
    );
    assert!(model.perfect_improvement_pct(&base) >= model.improvement_pct(&base, &fa) - 1e-9);
}

#[test]
fn experiment_drivers_produce_complete_tables() {
    let opts = ExperimentOptions::quick().with_benchmarks(&["Gobmk", "Povray"]);
    let (rows, out) = miss_elimination::run(&opts);
    assert_eq!(rows.len(), 2);
    let text = out.render();
    assert!(text.contains("Gobmk") && text.contains("Povray") && text.contains("Average"));

    let (rows, out) = contiguity::run(contiguity::ContiguityConfig::ThsOn, &opts);
    assert_eq!(rows.len(), 2);
    assert!(out.render().contains("cdf@1024"));
}

#[test]
fn warmup_excludes_cold_misses_from_measurement() {
    let w = prepare("FastaProt");
    let cold = sim::run(
        &w,
        &SimConfig {
            warmup: 0,
            ..SimConfig::new(TlbConfig::baseline()).with_accesses(20_000)
        },
    );
    let warm = sim::run(
        &w,
        &SimConfig {
            warmup: 20_000,
            ..SimConfig::new(TlbConfig::baseline()).with_accesses(20_000)
        },
    );
    assert!(
        warm.tlb.l1_miss_ratio() <= cold.tlb.l1_miss_ratio(),
        "warmed measurement must not show more misses than the cold one"
    );
}

#[test]
fn trace_export_replay_matches_generated_run() {
    // Export the exact reference stream a pattern produces, replay it
    // via run_trace, and get bit-identical TLB statistics.
    use colt_workloads::trace::{read_trace, write_trace};
    let w = prepare("Gobmk");
    let n = 10_000usize;
    let refs = w.pattern(123).take_refs(n);
    let mut buf = Vec::new();
    write_trace(&mut buf, &refs).unwrap();
    let loaded = read_trace(&buf[..]).unwrap();
    assert_eq!(loaded, refs);

    let cfg = SimConfig {
        warmup: 0,
        pattern_seed: 123,
        ..SimConfig::new(TlbConfig::colt_all()).with_accesses(n as u64)
    };
    let generated = sim::run(&w, &cfg);
    let replayed = colt_core::sim::run_trace(&w, &cfg, &loaded);
    assert_eq!(generated.tlb, replayed.tlb);
    assert_eq!(generated.walk_cycles, replayed.walk_cycles);
}

#[test]
fn shootdown_churn_increases_misses() {
    let w = prepare("Gobmk");
    let quiet = sim::run(&w, &SimConfig::new(TlbConfig::colt_all()).with_accesses(20_000));
    let churny = sim::run(
        &w,
        &SimConfig::new(TlbConfig::colt_all())
            .with_accesses(20_000)
            .with_invalidations(32),
    );
    assert!(
        churny.tlb.l2_misses > quiet.tlb.l2_misses,
        "shootdowns must cost walks ({} vs {})",
        churny.tlb.l2_misses,
        quiet.tlb.l2_misses
    );
}
