//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--accesses N] [--bench NAME[,NAME...]] [--jobs N] [--policy NAME] [--csv] <experiment>...
//! repro pressure [--faults rate=R,window=W,seed=S] [--cores N]
//! repro <experiment> --resume
//! repro --check [--seeds N] [--events N] [--jobs N] [--faults SPEC]
//! repro serve [--port N] [--port-file PATH] [--jobs N] [--cache-dir PATH]
//! repro serve-bench --port N [--conns N] [--requests N] [--verify-sweep] ...
//! repro chaos-serve [--chaos rate=R,window=W,seed=S] [--conns N] ...
//! repro torture [--seeds N] [--io-faults rate=R,window=W,seed=S] ...
//!
//! experiments:
//!   table1        Table 1   real-system MPMIs, THS on/off
//!   fig7-9        Figures 7-9    contiguity CDFs, THS on
//!   fig10-12      Figures 10-12  contiguity CDFs, THS off
//!   fig13-15      Figures 13-15  contiguity CDFs, low compaction
//!   fig16-17      Figures 16-17  contiguity under memhog load
//!   fig18         Figure 18  % misses eliminated by CoLT-SA/FA/All
//!   fig19         Figure 19  index left-shift sweep
//!   fig20         Figure 20  associativity study
//!   fig21         Figure 21  performance vs perfect TLBs
//!   ablation      sec 7.1.3 fill-to-L2 + extra design ablations
//!   virt          sec 7.2 expectation: CoLT under nested paging
//!   related       sec 2.1/2.4: CoLT vs sequential TLB prefetching
//!   ctxswitch     extension: elimination vs TLB-flush frequency
//!   summary       scorecard: paper vs measured, in one table
//!   grid          contiguity across all twelve sec 5.1.1 configurations
//!   noise         seed-sensitivity of the headline averages
//!   multiprog     extension: two benchmarks sharing one machine
//!   smp_mix       extension: N-core mixes, tagged vs untagged, IPIs
//!   smp_scaling   extension: one mix swept over core counts
//!   pressure      robustness: fault-injection intensity sweep across
//!                 all 8 TLB configs (+ SMP leg with --cores N)
//!   policy        repro policy experiment: every shipped MM policy x
//!                 benchmarks x all 8 TLB configs (BENCH_policy.json)
//!   all           every single-core experiment above (the smp_* and
//!                 pressure extensions run when named; use --cores N
//!                 for width)
//! ```
//!
//! Every experiment journals each finished sweep cell (checksummed,
//! fsynced) to `results/journal/<experiment>.jsonl`; after a crash,
//! `--resume` with the *same flags* replays the journal and runs only
//! the missing cells, reproducing the deterministic result files
//! byte-for-byte.
//!
//! `--io-faults SPEC` arms seeded *storage* fault injection for any
//! run: every durable write/read/fsync/rename goes through the
//! [`colt_core::vfs`] seam and may fail with ENOSPC, EIO, short writes,
//! failed or lying fsyncs, or read-back bit flips — all deterministic
//! under the seed, all accounted in a ledger printed at exit. Results
//! are unchanged (the layers degrade, they do not diverge), so the
//! spec is deliberately excluded from the resume fingerprint. The
//! `torture` subcommand sweeps fault schedules x simulated power-cut
//! points and gates five crash-consistency verdicts
//! (`results/BENCH_torture.json`).
//!
//! `--check` runs the differential translation oracle + coalescing
//! invariant fuzzer ([`colt_core::check`]) instead of experiments:
//! every TLB configuration is fuzzed with interleaved kernel events and
//! any violation fails the run with a ddmin-minimised reproducer.
//! `repro pressure --check` (or `--check --faults SPEC`) runs the same
//! oracle with deterministic memory-pressure fault injection armed:
//! allocation failures, compaction aborts, reclaim spikes, and
//! dropped/duplicated shootdown deliveries.

use colt_core::experiments::{
    policy, pressure, run_named, smp, ExperimentOptions,
};
use colt_core::artifact;
use colt_core::journal::Journal;
use colt_core::report::Table;
use colt_core::runner::{self, CellMetric};
use colt_core::snapshot_cache;
use colt_os_mem::faults::{self, FaultConfig};
use colt_os_mem::policy::PolicyKind;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Every experiment name `repro` accepts (besides the `all` alias).
const EXPERIMENTS: [&str; 21] = [
    "table1", "fig7-9", "fig10-12", "fig13-15", "fig16-17", "fig18", "fig19",
    "fig20", "fig21", "ablation", "virt", "related", "ctxswitch", "summary",
    "grid", "noise", "multiprog", "smp_mix", "smp_scaling", "pressure",
    "policy",
];

/// The `all` alias: the single-core paper set (the `smp_*` extensions
/// run only when named, so default outputs stay identical to the
/// single-core reproduction).
const ALL: [&str; 17] = [
    "table1", "fig7-9", "fig10-12", "fig13-15", "fig16-17", "fig18", "fig19",
    "fig20", "fig21", "ablation", "virt", "related", "ctxswitch", "summary",
    "grid", "noise", "multiprog",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--accesses N] [--bench NAMES] [--jobs N] [--cores N] [--policy NAME] [--faults SPEC] [--resume] [--no-snapshot-cache] [--csv] [--bars] <experiment>...\n\
         \u{20}      repro --check [--seeds N] [--events N] [--jobs N] [--cores N] [--policy NAME] [--faults SPEC]\n\
         --jobs N   worker threads for the sweep runner (default: $COLT_JOBS,\n\
         \u{20}           then the machine's available parallelism); results are\n\
         \u{20}           identical at any value\n\
         --no-snapshot-cache  disable the preparation snapshot cache (both\n\
         \u{20}           the in-memory layer and results/snapshots/ on disk);\n\
         \u{20}           every cell re-prepares from scratch — use it to time\n\
         \u{20}           cold preparation or bypass a suspect snapshot; set\n\
         \u{20}           $COLT_SNAPSHOT_DIR to relocate the on-disk snapshots\n\
         --cores N  simulated cores for the smp_* experiments, the pressure\n\
         \u{20}           SMP leg, and the cross-core --check oracle (default 1)\n\
         --policy NAME  memory-management policy every scenario boots under\n\
         \u{20}           (default | greedy_contig | adversarial | no_thp |\n\
         \u{20}           defer_thp); 'default' reproduces the headline tables\n\
         \u{20}           byte-identically, the 'policy' experiment sweeps all\n\
         \u{20}           of them regardless; also honored by --check\n\
         --resume   replay results/journal/<experiment>.jsonl: completed\n\
         \u{20}           cells (same flags, verified checksum) are skipped,\n\
         \u{20}           only missing or failed cells re-run; the result\n\
         \u{20}           files come out byte-identical to an uninterrupted run\n\
         --faults SPEC  deterministic fault injection, SPEC =\n\
         \u{20}           rate=R,window=W,seed=S (each key optional; defaults\n\
         \u{20}           rate=0.05, window=0 = always armed, seed=7); consumed\n\
         \u{20}           by the pressure experiment and by --check\n\
         --io-faults SPEC  seeded storage fault injection (same SPEC syntax):\n\
         \u{20}           durable writes/reads/fsyncs/renames may fail with\n\
         \u{20}           ENOSPC, EIO, short writes, lying fsyncs, or bit\n\
         \u{20}           flips; every layer degrades gracefully and results\n\
         \u{20}           are byte-identical to an unfaulted run; the\n\
         \u{20}           injected-vs-accounted ledger prints at exit (not\n\
         \u{20}           part of the --resume fingerprint)\n\
         --check    fuzz every TLB configuration against the translation\n\
         \u{20}           oracle + coalescing invariant checker; exits nonzero\n\
         \u{20}           on any violation (--seeds, default 4; --events per\n\
         \u{20}           case, default 160); with --cores > 1 the cross-core\n\
         \u{20}           SMP oracle runs too; 'repro pressure --check' arms\n\
         \u{20}           fault injection under the same oracle\n\
         subcommands:\n\
         \u{20} serve        long-running translation/sweep server over TCP\n\
         \u{20}              (line-delimited JSON; 'repro serve --help')\n\
         \u{20} serve-bench  load generator + determinism checker for serve;\n\
         \u{20}              writes results/BENCH_serve.json\n\
         \u{20} chaos-serve  seeded network-fault soak of serve (deadlines,\n\
         \u{20}              retries, shedding, drain); writes\n\
         \u{20}              results/BENCH_chaos.json, nonzero exit on any\n\
         \u{20}              failed verdict\n\
         \u{20} torture      crash-consistency torture: fault schedules x\n\
         \u{20}              simulated power cuts, five gated verdicts\n\
         \u{20}              ('repro torture --help'); writes\n\
         \u{20}              results/BENCH_torture.json, nonzero exit on any\n\
         \u{20}              failed verdict\n\
         experiments: {} all",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

/// Reports `.corrupt-<n>` quarantine files left under the journal and
/// snapshot directories by earlier crashed runs — count and paths, on
/// stderr, so the evidence is seen instead of silently piling up. The
/// files themselves are left alone (they are the post-mortem). Leaked
/// `*.tmp-*` staging files, by contrast, are pure litter (a crash
/// between create and rename): those are swept — reported and removed
/// — across all of `results/`, recursively, which covers the journal
/// and snapshot directories too.
fn report_quarantined() {
    let mut found = Vec::new();
    for dir in ["results/journal", "results/snapshots"] {
        found.extend(artifact::find_quarantined(Path::new(dir)));
    }
    if !found.is_empty() {
        eprintln!(
            "warning: {} quarantined artifact(s) from earlier crashed runs:",
            found.len()
        );
        for path in &found {
            eprintln!("warning:   {}", path.display());
        }
        eprintln!(
            "warning: inspect or delete them; new runs never read or overwrite \
             quarantine files"
        );
    }
    let swept = artifact::sweep_tmp_litter(Path::new("results"));
    if !swept.is_empty() {
        eprintln!(
            "warning: removed {} leaked tmp file(s) from interrupted writes:",
            swept.len()
        );
        for path in &swept {
            eprintln!("warning:   {}", path.display());
        }
    }
}

/// Prints the `--io-faults` injected-vs-accounted ledger at exit: each
/// error kind the seam injected next to what the degradation sites
/// accounted, plus the flip-detection tallies. The two columns matching
/// is the storage analogue of the chaos soak's conservation checks.
fn print_io_fault_ledger(faulty: &colt_core::vfs::FaultyVfs) {
    use colt_core::io_faults::{self, IoFaultKind};
    let counts = faulty.counts();
    let ledger = io_faults::ledger();
    eprintln!(
        "io-faults ledger: {} injected ({} errors, {} bit flips, {} lying fsyncs), \
         {} accounted",
        counts.total(),
        io_faults::errors(&counts),
        counts.get(IoFaultKind::BitFlip),
        counts.get(IoFaultKind::SyncLie),
        io_faults::errors(&ledger.accounted),
    );
    for (name, injected, accounted) in io_faults::error_rows(&counts, &ledger.accounted) {
        if injected > 0 || accounted > 0 {
            eprintln!("io-faults:   {name}: injected {injected}, accounted {accounted}");
        }
    }
    eprintln!(
        "io-faults:   bit flips: injected {}, detected {}, pending {}; renames \
         left unsynced: {}",
        counts.get(IoFaultKind::BitFlip),
        ledger.flips_detected,
        ledger.flips_pending,
        faulty.renames_dropped(),
    );
    if !ledger.by_layer.is_empty() {
        let layers: Vec<String> = ledger
            .by_layer
            .iter()
            .map(|(layer, n)| format!("{layer} {n}"))
            .collect();
        eprintln!("io-faults:   accounted by layer: {}", layers.join(", "));
    }
}

/// Clamps a zero flag value to 1, telling the user instead of silently
/// rewriting what they asked for.
fn clamp_flag(flag: &str, n: u64) -> u64 {
    if n == 0 {
        eprintln!("warning: {flag} 0 is meaningless; clamping to {flag} 1");
        1
    } else {
        n
    }
}

fn main() -> ExitCode {
    // The CLI wants preparation snapshots to survive the process (the
    // library default is memory-only, keeping test binaries hermetic).
    snapshot_cache::set_disk_persistence(true);
    // The serve subcommands own their argument lists entirely.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("serve") => return colt_core::serve::cli(&raw[1..]),
        Some("serve-bench") => return colt_core::serve_bench::cli(&raw[1..]),
        Some("chaos-serve") => return colt_core::chaos_serve::cli(&raw[1..]),
        Some("torture") => return colt_core::experiments::torture::cli(&raw[1..]),
        _ => {}
    }
    // Quarantine files are crash evidence a human should look at; say
    // so loudly before any new run buries them deeper.
    report_quarantined();
    let mut opts = ExperimentOptions::default();
    if let Ok(jobs) = std::env::var("COLT_JOBS") {
        match jobs.parse::<u64>() {
            Ok(j) => opts.jobs = clamp_flag("COLT_JOBS", j) as usize,
            Err(_) => eprintln!(
                "warning: COLT_JOBS='{jobs}' is not a number; using {} worker \
                 thread(s) instead",
                opts.jobs
            ),
        }
    }
    let mut csv = false;
    let mut bars = false;
    let mut check = false;
    let mut resume = false;
    let mut io_faults: Option<FaultConfig> = None;
    let mut seeds = 4u64;
    let mut events_per_case = 160usize;
    let mut experiments: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.accesses = ExperimentOptions::quick().accesses,
            "--check" => check = true,
            "--resume" => resume = true,
            "--seeds" => {
                let n = args.next().unwrap_or_else(|| usage());
                seeds = clamp_flag("--seeds", n.parse::<u64>().unwrap_or_else(|_| usage()));
            }
            "--events" => {
                let n = args.next().unwrap_or_else(|| usage());
                events_per_case =
                    clamp_flag("--events", n.parse::<u64>().unwrap_or_else(|_| usage()))
                        as usize;
            }
            "--accesses" => {
                let n = args.next().unwrap_or_else(|| usage());
                opts.accesses = n.parse().unwrap_or_else(|_| usage());
            }
            "--bench" => {
                let names = args.next().unwrap_or_else(|| usage());
                opts.benchmarks =
                    Some(names.split(',').map(|s| s.trim().to_string()).collect());
                if let Err(e) = opts.check_benchmarks() {
                    eprintln!("--bench {names}: {e}");
                    return ExitCode::from(2);
                }
            }
            "--jobs" => {
                let n = args.next().unwrap_or_else(|| usage());
                opts.jobs =
                    clamp_flag("--jobs", n.parse::<u64>().unwrap_or_else(|_| usage())) as usize;
            }
            "--cores" => {
                let n = args.next().unwrap_or_else(|| usage());
                opts.cores =
                    clamp_flag("--cores", n.parse::<u64>().unwrap_or_else(|_| usage())) as usize;
            }
            "--faults" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match FaultConfig::parse(&spec, faults::DEFAULT_RATE) {
                    Ok(fc) => opts.faults = Some(fc),
                    Err(e) => {
                        eprintln!("--faults {spec}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--io-faults" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match FaultConfig::parse(&spec, faults::DEFAULT_RATE) {
                    Ok(fc) => io_faults = Some(fc),
                    Err(e) => {
                        eprintln!("--io-faults {spec}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--policy" => {
                let name = args.next().unwrap_or_else(|| usage());
                match name.parse::<PolicyKind>() {
                    Ok(kind) => opts.policy = kind,
                    Err(e) => {
                        eprintln!("--policy {name}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--no-snapshot-cache" => snapshot_cache::set_enabled(false),
            "--csv" => csv = true,
            "--bars" => bars = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => experiments.push(other.to_string()),
        }
    }
    let faulty_vfs = io_faults.map(|fc| {
        // Armed for the whole process: every durable write, read,
        // fsync, and rename below flows through the seam. The spec is
        // deliberately NOT part of the resume fingerprint — injected
        // storage faults never change results, only durability. The
        // clone shares state with the installed seam, so the exit
        // ledger reads live counts.
        colt_core::io_faults::reset_ledger();
        let faulty = colt_core::vfs::FaultyVfs::new(fc);
        colt_core::vfs::install(Arc::new(faulty.clone()));
        eprintln!(
            "io-faults armed: rate {}, window {}, seed {}",
            fc.rate, fc.window, fc.seed
        );
        faulty
    });
    if check {
        // `repro pressure --check` = the oracle under fault injection
        // (default plan when --faults was not given). Any other
        // experiment name alongside --check is a mistake.
        let faults = match experiments.as_slice() {
            [] => opts.faults,
            [only] if only == "pressure" => Some(opts.faults.unwrap_or_default()),
            _ => {
                eprintln!("--check runs instead of experiments; drop '{}'", experiments[0]);
                return ExitCode::from(2);
            }
        };
        if csv || bars {
            eprintln!(
                "--check produces a pass/fail report, not tables; drop {}",
                if csv { "--csv" } else { "--bars" }
            );
            return ExitCode::from(2);
        }
        return run_check_mode(
            seeds,
            events_per_case,
            opts.jobs,
            opts.cores,
            faults,
            opts.policy,
        );
    }
    if experiments.is_empty() {
        usage();
    }
    // Validate every name before running anything, so a typo at the end
    // of the list fails fast instead of after minutes of simulation.
    let unknown: Vec<&str> = experiments
        .iter()
        .map(String::as_str)
        .filter(|e| *e != "all" && !EXPERIMENTS.contains(e))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment(s): {}\nvalid experiments: {} all",
            unknown.join(", "),
            EXPERIMENTS.join(" ")
        );
        return ExitCode::from(2);
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = ALL.iter().map(|s| s.to_string()).collect();
    }

    // Before writing anything, inspect the result files a previous run
    // left behind: a corrupt file is quarantined (never clobbered) and
    // reported, so partial writes from a crash are evidence, not traps.
    for name in [
        "BENCH_sweep.json",
        "BENCH_smp.json",
        "BENCH_pressure.json",
        "BENCH_policy.json",
    ] {
        let path = Path::new("results").join(name);
        match artifact::quarantine_if_corrupt(&path) {
            Ok(Some(q)) => eprintln!(
                "warning: existing {} is not valid JSON (likely a crashed run); \
                 quarantined to {}",
                path.display(),
                q.display()
            ),
            Ok(None) => {}
            Err(e) => eprintln!("warning: could not inspect {}: {e}", path.display()),
        }
    }

    let _ = runner::take_metrics();
    let _ = snapshot_cache::take_stats();
    let wall_start = Instant::now();
    let mut smp_rows: Vec<smp::SmpRow> = Vec::new();
    let mut pressure_report: Option<pressure::PressureReport> = None;
    let mut policy_report: Option<policy::PolicyReport> = None;
    let journal_dir = Path::new("results").join("journal");
    for exp in &experiments {
        // Each experiment gets its own durable journal; completed cells
        // are fsynced as they finish, and --resume replays them here.
        let mut opts = opts.clone();
        match Journal::open(&journal_dir, exp, opts.fingerprint(exp), resume) {
            Ok(journal) => {
                let r = journal.open_report();
                if resume && r.replayed == 0 && r.fingerprint_mismatches > 0 {
                    eprintln!(
                        "error: --resume found {} journal record(s) for '{exp}' in {} \
                         but every one was written under different flags (fingerprint \
                         mismatch). Conflicting flags — --policy, --accesses, --seed, \
                         --bench, --cores, --faults — must match the original run; \
                         re-run with the original flags, or drop --resume to start over.",
                        r.fingerprint_mismatches,
                        journal.path().display()
                    );
                    return ExitCode::from(2);
                }
                opts.journal = Some(Arc::new(journal));
            }
            Err(e) => eprintln!(
                "warning: could not open journal {}: {e}; running '{exp}' without \
                 crash-safe progress",
                journal_dir.join(format!("{exp}.jsonl")).display()
            ),
        }
        let run = run_named(exp, &opts)
            .unwrap_or_else(|| unreachable!("experiment '{exp}' passed validation"));
        // Counted after the sweep: a record whose label no cell asks for
        // replays nothing. On stderr, so `--csv` runs keep it.
        if let Some(journal) = opts.journal.as_deref().filter(|_| resume) {
            let r = journal.open_report();
            let (replayed, ran) = journal.swept();
            eprintln!(
                "resume({exp}): {replayed} cell(s) replayed from {}, {ran} re-run \
                 (journal held {} failed, {} flag-mismatched, {} corrupt, {} other-schema \
                 record(s))",
                journal.path().display(),
                r.failed_records,
                r.fingerprint_mismatches,
                r.corrupt_lines,
                r.schema_skipped,
            );
        }
        smp_rows.extend(run.smp_rows);
        if let Some(report) = run.pressure {
            pressure_report = Some(report);
        }
        if let Some(report) = run.policy {
            policy_report = Some(report);
        }
        let output = run.output;
        if csv {
            for table in &output.tables {
                println!("{}", table.to_csv());
            }
        } else {
            println!("{}", output.render());
            if bars {
                for table in &output.tables {
                    // Chart the last numeric column against row labels.
                    for col in (1..table.width()).rev() {
                        let items = table.numeric_column(col);
                        if items.len() > 1 {
                            println!("{}", colt_core::report::bar_chart(&items, 40));
                            break;
                        }
                    }
                }
            }
        }
    }

    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let metrics = runner::take_metrics();
    let cache = snapshot_cache::take_stats();
    // All three result files go through the same atomic, read-back
    // verified write; a failed write is a failed run, never a warning
    // that exits 0.
    let mut write_failed = false;
    let mut write_result = |path: &str, json: &str, what: &str| {
        let _ = std::fs::create_dir_all("results");
        match artifact::atomic_write_json(Path::new(path), json) {
            Ok(written) => {
                if !csv {
                    println!("{what} written to {written}");
                }
            }
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                write_failed = true;
            }
        }
    };
    if !metrics.is_empty() {
        if !csv {
            println!(
                "{}",
                throughput_table(&metrics, opts.jobs, wall_seconds, &cache).render()
            );
        }
        let json = artifact::sweep_json(&metrics, opts.jobs, wall_seconds, &cache);
        write_result("results/BENCH_sweep.json", &json, "throughput details");
    }
    if !smp_rows.is_empty() {
        let json = artifact::smp_json(&smp_rows, opts.cores);
        write_result("results/BENCH_smp.json", &json, "SMP details");
    }
    if let Some(report) = &pressure_report {
        let json =
            artifact::pressure_json(report, opts.faults.unwrap_or_default(), opts.cores);
        write_result("results/BENCH_pressure.json", &json, "pressure details");
    }
    if let Some(report) = &policy_report {
        let json = artifact::policy_json(report);
        write_result("results/BENCH_policy.json", &json, "policy details");
    }
    drop(write_result);
    if let Some(faulty) = &faulty_vfs {
        print_io_fault_ledger(faulty);
    }
    if write_failed {
        eprintln!("one or more result files could not be written; failing the run");
        return ExitCode::FAILURE;
    }
    if let Some(report) = &pressure_report {
        if !report.failures.is_empty() {
            eprintln!(
                "pressure sweep completed with {} failed cell(s) (see the failure \
                 report above and results/BENCH_pressure.json)",
                report.failures.len()
            );
            return ExitCode::FAILURE;
        }
    }
    if let Some(report) = &policy_report {
        if !report.failures.is_empty() {
            eprintln!(
                "policy sweep completed with {} failed cell(s) (see the failure \
                 report above and results/BENCH_policy.json)",
                report.failures.len()
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs the oracle/invariant fuzzer across every TLB configuration,
/// plus the cross-core SMP oracle when `cores > 1`. Drains the sweep
/// runner's metrics without writing `results/BENCH_sweep.json` so a
/// `--check` run never perturbs the performance baseline that
/// `scripts/verify.sh` gates on.
fn run_check_mode(
    seeds: u64,
    events_per_case: usize,
    jobs: usize,
    cores: usize,
    faults: Option<FaultConfig>,
    policy: PolicyKind,
) -> ExitCode {
    let _ = runner::take_metrics();
    let wall_start = Instant::now();
    let mut report =
        colt_core::check::run_check(seeds, events_per_case, jobs, faults, policy);
    if cores > 1 {
        let smp_report = colt_core::check::run_smp_check(cores, seeds, jobs, faults, policy);
        report.translations += smp_report.translations;
        report.cases.extend(smp_report.cases);
    }
    let _ = runner::take_metrics();
    let wall = wall_start.elapsed().as_secs_f64();

    let armed = faults.map_or_else(String::new, |f| {
        format!(", faults armed (rate {}, window {}, seed {})", f.rate, f.window, f.seed)
    });
    let armed = if policy == PolicyKind::Default {
        armed
    } else {
        format!("{armed}, policy {}", policy.name())
    };
    let mut table = Table::new(
        format!(
            "Oracle + invariant check: {} case(s), {} translations, {wall:.2}s wall{armed}",
            report.cases.len(),
            report.translations
        ),
        &["case", "translations", "violations"],
    );
    for case in &report.cases {
        table.add_row(vec![
            case.label.clone(),
            case.translations.to_string(),
            case.violations.len().to_string(),
        ]);
    }
    println!("{}", table.render());

    if report.is_clean() {
        println!("CHECK PASS: 0 violations across {} case(s)", report.cases.len());
        return ExitCode::SUCCESS;
    }
    for case in report.cases.iter().filter(|c| !c.violations.is_empty()) {
        eprintln!("\nFAIL {} (gen seed {:#x})", case.label, case.seed);
        for v in &case.violations {
            eprintln!("  violation: {v}");
        }
        eprintln!("  minimised reproducer ({} events):", case.minimized.len());
        for ev in &case.minimized {
            eprintln!("    {ev:?}");
        }
    }
    eprintln!(
        "\nCHECK FAIL: {} violation(s) across {} case(s)",
        report.total_violations(),
        report.cases.len()
    );
    ExitCode::FAILURE
}

/// One row per experiment (cells grouped by label prefix up to the
/// first '/'), plus aggregate rows.
///
/// The speedup row estimates one thread's wall-clock as the sum of what
/// every cell actually paid (prep + sim) — with a warm snapshot cache
/// the prep terms are near zero, so the estimate stays honest instead
/// of crediting the cache's savings to parallelism. Steady-state
/// simulation throughput is labeled separately (prep-amortized), over
/// only the cells that simulate anything (refs > 0).
fn throughput_table(
    metrics: &[CellMetric],
    jobs: usize,
    wall_seconds: f64,
    cache: &snapshot_cache::CacheStats,
) -> Table {
    let mut table = Table::new(
        format!("Sweep throughput: {jobs} worker thread(s), {wall_seconds:.2}s wall"),
        &["experiment", "cells", "refs", "cpu seconds", "refs/sec (cpu)"],
    );
    // Group in first-appearance order to keep the table deterministic.
    let mut order: Vec<&str> = Vec::new();
    let mut groups: std::collections::HashMap<&str, (u64, u64, f64)> =
        std::collections::HashMap::new();
    for m in metrics {
        let exp = m.label.split('/').next().unwrap_or("?");
        let entry = groups.entry(exp).or_insert_with(|| {
            order.push(exp);
            (0, 0, 0.0)
        });
        entry.0 += 1;
        entry.1 += m.refs;
        entry.2 += m.prep_seconds + m.sim_seconds;
    }
    for exp in &order {
        let (cells, refs, secs) = groups[exp];
        table.add_row(vec![
            (*exp).to_string(),
            cells.to_string(),
            refs.to_string(),
            format!("{secs:.2}"),
            format!("{:.0}", refs as f64 / secs.max(1e-9)),
        ]);
    }
    let total_refs: u64 = metrics.iter().map(|m| m.refs).sum();
    let serial = artifact::serial_seconds_estimate(metrics);
    table.add_row(vec![
        "TOTAL".to_string(),
        metrics.len().to_string(),
        total_refs.to_string(),
        format!("{serial:.2}"),
        format!("{:.0}", total_refs as f64 / wall_seconds.max(1e-9)),
    ]);
    let sim_cells = metrics.iter().filter(|m| m.refs > 0).count();
    let sim_secs: f64 =
        metrics.iter().filter(|m| m.refs > 0).map(|m| m.sim_seconds).sum();
    table.add_row(vec![
        "refs/sec (prep-amortized)".to_string(),
        sim_cells.to_string(),
        total_refs.to_string(),
        format!("{sim_secs:.2} sim"),
        format!("{:.0}", artifact::prep_amortized_refs_per_sec(metrics)),
    ]);
    table.add_row(vec![
        "prep cache".to_string(),
        format!("{} hit(s)", cache.hits()),
        format!("{} miss(es)", cache.misses),
        format!("{:.2} snap", cache.snapshot_seconds),
        "-".to_string(),
    ]);
    table.add_row(vec![
        "machines aged".to_string(),
        cache.agings.to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    let (recordings, replays) = artifact::stream_counts(metrics);
    table.add_row(vec![
        "shared streams".to_string(),
        format!("{recordings} recorded"),
        format!("{replays} replayed"),
        "-".to_string(),
        "-".to_string(),
    ]);
    table.add_row(vec![
        "speedup vs 1 thread (est)".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{wall_seconds:.2} wall"),
        format!("{:.2}x", serial / wall_seconds.max(1e-9)),
    ]);
    table
}
