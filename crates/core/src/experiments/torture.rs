//! `repro torture` — crash-consistency torture for the durability
//! substrate (`results/BENCH_torture.json`).
//!
//! The harness sweeps seeded storage-fault schedules × simulated
//! power-cut points over the full durable stack at once: the pressure
//! sweep journaling through [`crate::journal`], preparation snapshots
//! through [`crate::snapshot_cache`], the `BENCH_pressure.json`
//! artifact through [`crate::artifact`], and a serve-cache persist leg
//! through [`crate::serve`]'s entry codec. Every cycle:
//!
//! 1. **Doomed run** — a [`FaultyVfs`](crate::vfs::FaultyVfs) with the
//!    cycle's fault plan armed and a dead-disk point `k` fsyncs in is
//!    installed; the pressure sweep runs to completion under ENOSPC,
//!    EIO, short writes, failed and lying fsyncs, dropped renames, and
//!    read-back bit flips, then the artifact and serve-cache writes
//!    land (or degrade) on the dying disk.
//! 2. **Power cut** — [`power_cut`](crate::vfs::FaultyVfs::power_cut)
//!    reconciles the disk to its durable contents: unsynced renames are
//!    undone (clobbered destinations restored), lying-fsync bytes
//!    truncated away.
//! 3. **Faulted audit** — the journal and serve cache re-open *cold,
//!    still under faults*, exercising the read-side detection paths
//!    (CRC quarantine, checksum verdicts, flip confirmation).
//! 4. **Verdicts** — the seam is uninstalled and five gates are
//!    checked with evidence: zero panics; no corrupt bytes ever
//!    accepted (every detected corruption quarantined, no pending
//!    undetected flips, no torn `BENCH_*` or permanent tmp litter);
//!    `--resume` byte-identity against an unfaulted reference run; warm
//!    serve-cache restart identity (every surviving entry
//!    byte-identical to what was persisted); and an exact
//!    faults-injected == faults-accounted ledger.
//!
//! Everything is deterministic under `--io-faults seed=S`: the same
//! schedule injects the same faults at the same decision points.

use crate::artifact::{self, Verdict};
use crate::experiments::{pressure, ExperimentOptions};
use crate::io_faults::{self, IoFaultCounts, IoFaultKind, LedgerSnapshot};
use crate::journal::Journal;
use crate::serve::json::{obj, rounded};
use crate::snapshot_cache;
use crate::vfs::{self, FaultyVfs};
use colt_os_mem::faults::{self, FaultConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Torture parameters (one flag each; see `repro torture --help`).
#[derive(Clone, Debug)]
pub struct TortureConfig {
    /// Distinct fault schedules (seeds) to sweep.
    pub seeds: u64,
    /// Base of the seed sweep: cycle `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Simulated power-cut points per seed (the disk dies after the
    /// `2 + 5*j`-th fsync attempt for cut index `j`).
    pub cuts: u64,
    /// Per-decision fault probability of the injected plan.
    pub rate: f64,
    /// Fault window (0 = always armed), as in `--faults`.
    pub window: u64,
    /// Access budget per simulated cell (small: the payload sweep runs
    /// twice per cycle).
    pub accesses: u64,
    /// Benchmark for the payload pressure sweep.
    pub bench: String,
    /// Artifact path.
    pub out: PathBuf,
    /// Suppress per-cycle progress lines.
    pub quiet: bool,
}

impl Default for TortureConfig {
    fn default() -> Self {
        Self {
            seeds: 3,
            base_seed: 0xC017,
            cuts: 2,
            rate: 0.25,
            window: 0,
            accesses: 2_000,
            bench: "Gobmk".to_string(),
            out: PathBuf::from("results/BENCH_torture.json"),
            quiet: false,
        }
    }
}

/// Everything a single seed × cut cycle observed.
#[derive(Default)]
struct CycleOutcome {
    panicked: bool,
    injected: IoFaultCounts,
    ledger: LedgerSnapshot,
    renames_dropped: u64,
    /// Keys whose serve-cache persist returned Ok before the cut.
    persisted_keys: Vec<String>,
    /// Entries the clean warm reload produced.
    warm_entries: Vec<(String, String)>,
    warm_quarantined: u64,
    tmp_swept: u64,
    tmp_remaining: u64,
    quarantined_files: u64,
    /// `Some(json)` when `BENCH_pressure.json` survived the cut intact.
    bench_artifact: Option<String>,
    bench_artifact_quarantined: bool,
    resume_json: String,
}

/// The payload entries the serve-cache leg persists each cycle. Fixed
/// and deterministic so byte-identity is checkable after the cut.
fn cache_payload() -> Vec<(String, String)> {
    (0..4)
        .map(|i| {
            (
                format!("torture-key-{i}"),
                obj! { "cell" => i, "payload" => "colt".repeat(i + 1) }.line(),
            )
        })
        .collect()
}

/// The experiment options both the reference and every cycle use. One
/// benchmark, one core, one worker: the fault stream stays aligned with
/// the schedule and the sweep itself is deterministic either way.
fn payload_opts(cfg: &TortureConfig) -> ExperimentOptions {
    ExperimentOptions {
        accesses: cfg.accesses.max(1),
        benchmarks: Some(vec![cfg.bench.clone()]),
        jobs: 1,
        cores: 1,
        ..ExperimentOptions::default()
    }
}

/// The deterministic pressure artifact for a finished report.
fn payload_json(report: &pressure::PressureReport) -> String {
    artifact::pressure_json(report, FaultConfig::default(), 1)
}

/// Runs one doomed + audited + recovered cycle under `plan`, entirely
/// inside `cyc`.
fn run_cycle(
    cfg: &TortureConfig,
    cyc: &Path,
    plan: FaultConfig,
    cut_after: u64,
) -> CycleOutcome {
    let mut out = CycleOutcome::default();
    let journal_dir = cyc.join("journal");
    let cache_dir = cyc.join("cache");
    let bench_path = cyc.join("BENCH_pressure.json");
    let _ = std::fs::create_dir_all(&cache_dir);

    // Phase 1: the doomed run, everything through the faulty seam.
    io_faults::reset_ledger();
    snapshot_cache::set_dir_override(Some(cyc.join("snapshots")));
    snapshot_cache::clear_memory();
    let faulty = FaultyVfs::new(plan).cut_after_syncs(cut_after);
    vfs::install(Arc::new(faulty.clone()));
    let opts = payload_opts(cfg);
    let doomed = catch_unwind(AssertUnwindSafe(|| {
        let mut opts = opts.clone();
        // A journal-open failure is a degraded (journal-less) run, not
        // a dead one — exactly what `repro` does.
        if let Ok(j) =
            Journal::open(&journal_dir, "pressure", opts.fingerprint("pressure"), false)
        {
            opts.journal = Some(Arc::new(j));
        }
        let (report, _) = pressure::run(&opts);
        let _ = artifact::atomic_write_json(&bench_path, &payload_json(&report));
        let mut persisted = Vec::new();
        for (key, bytes) in cache_payload() {
            if crate::serve::persist_cache_entry(&cache_dir, &key, &bytes).is_ok() {
                persisted.push(key);
            }
        }
        persisted
    }));
    match doomed {
        Ok(persisted) => out.persisted_keys = persisted,
        Err(_) => out.panicked = true,
    }

    // Phase 2: the power cut. The disk is reconciled to durable bytes
    // and revived (still faulty) for the audit.
    let _ = faulty.power_cut();

    // Phase 3: faulted audit — cold re-opens exercise the read-side
    // detection paths (CRC quarantine, checksum verdicts, flip
    // confirmation) while injection is still live.
    let audit = catch_unwind(AssertUnwindSafe(|| {
        let _ = Journal::open(
            &journal_dir,
            "pressure",
            opts.fingerprint("pressure"),
            true,
        );
        let _ = crate::serve::load_cache_entries(&cache_dir, true);
    }));
    out.panicked |= audit.is_err();

    // The ledger is judged against what THIS cycle's seam injected.
    out.injected = faulty.counts();
    out.ledger = io_faults::ledger();
    out.renames_dropped = faulty.renames_dropped();
    vfs::reset();

    // Phase 4 (clean disk from here): startup hygiene — litter swept,
    // quarantines counted as detection evidence.
    out.tmp_swept = artifact::sweep_tmp_litter(cyc).len() as u64;
    out.tmp_remaining = artifact::find_tmp_litter(cyc).len() as u64;
    out.quarantined_files = artifact::find_quarantined(cyc).len() as u64;

    // Warm serve-cache reload: whatever survived must be byte-exact.
    let (entries, q) = crate::serve::load_cache_entries(&cache_dir, true);
    out.warm_entries = entries;
    out.warm_quarantined = q;

    // A surviving BENCH artifact must be whole; a torn one must have
    // been quarantined, never left in place.
    match artifact::quarantine_if_corrupt(&bench_path) {
        Ok(Some(_)) => out.bench_artifact_quarantined = true,
        Ok(None) => {
            out.bench_artifact = std::fs::read_to_string(&bench_path).ok();
        }
        Err(_) => {}
    }

    // Phase 5: recovery — `--resume` semantics on a healthy disk must
    // reproduce the unfaulted reference byte-for-byte.
    snapshot_cache::clear_memory();
    let mut rec_opts = payload_opts(cfg);
    if let Ok(j) = Journal::open(
        &journal_dir,
        "pressure",
        rec_opts.fingerprint("pressure"),
        true,
    ) {
        rec_opts.journal = Some(Arc::new(j));
    }
    let (report, _) = pressure::run(&rec_opts);
    out.resume_json = payload_json(&report);
    out
}

/// Folds every cycle into the five gated verdicts.
fn judge(cycles: &[(String, CycleOutcome)], ref_json: &str) -> Vec<Verdict> {
    let payload: std::collections::BTreeMap<String, String> =
        cache_payload().into_iter().collect();

    let panics: Vec<&str> =
        cycles.iter().filter(|(_, c)| c.panicked).map(|(l, _)| l.as_str()).collect();

    // No corrupt bytes accepted: no undetected (pending) flips, no torn
    // BENCH artifact in place, no permanent tmp litter after the sweep.
    let mut corrupt_bad = Vec::new();
    let (mut flips_detected, mut quarantined, mut swept) = (0, 0, 0);
    for (label, c) in cycles {
        flips_detected += c.ledger.flips_detected;
        quarantined += c.quarantined_files + c.warm_quarantined;
        swept += c.tmp_swept;
        if c.ledger.flips_pending > 0 {
            corrupt_bad.push(format!("{label}: {} undetected flip(s)", c.ledger.flips_pending));
        }
        if c.tmp_remaining > 0 {
            corrupt_bad.push(format!("{label}: {} tmp file(s) survived the sweep", c.tmp_remaining));
        }
        if let Some(json) = &c.bench_artifact {
            if json != ref_json {
                corrupt_bad.push(format!("{label}: surviving BENCH_pressure.json is not the reference"));
            }
        }
    }

    let resume_bad: Vec<&str> = cycles
        .iter()
        .filter(|(_, c)| c.resume_json != ref_json)
        .map(|(l, _)| l.as_str())
        .collect();

    let mut warm_bad = Vec::new();
    let (mut warm_loaded, mut warm_persisted) = (0usize, 0usize);
    for (label, c) in cycles {
        warm_loaded += c.warm_entries.len();
        warm_persisted += c.persisted_keys.len();
        for (key, bytes) in &c.warm_entries {
            if payload.get(key) != Some(bytes) {
                warm_bad.push(format!("{label}: entry '{key}' reloaded with different bytes"));
            }
        }
    }

    let mut ledger_bad = Vec::new();
    let (mut injected_total, mut accounted_total) = (0, 0);
    for (label, c) in cycles {
        injected_total += c.injected.total();
        accounted_total += io_faults::errors(&c.ledger.accounted);
        for (kind, injected, accounted) in io_faults::error_rows(&c.injected, &c.ledger.accounted) {
            if injected != accounted {
                ledger_bad.push(format!(
                    "{label}: {kind} injected {injected} != accounted {accounted}"
                ));
            }
        }
        let flips = c.injected.get(IoFaultKind::BitFlip);
        if flips != c.ledger.flips_detected + c.ledger.flips_pending {
            ledger_bad.push(format!(
                "{label}: {flips} flip(s) injected, {} recorded",
                c.ledger.flips_detected + c.ledger.flips_pending
            ));
        }
    }

    vec![
        Verdict {
            name: "zero_panics",
            pass: panics.is_empty(),
            evidence: if panics.is_empty() {
                format!("{} doomed + audit cycle(s), none panicked", cycles.len())
            } else {
                format!("panicked in: {}", panics.join(", "))
            },
        },
        Verdict {
            name: "no_corrupt_accepted",
            pass: corrupt_bad.is_empty(),
            evidence: if corrupt_bad.is_empty() {
                format!(
                    "{flips_detected} flip(s) detected, {quarantined} corrupt file(s) \
                     quarantined, {swept} tmp file(s) swept, 0 undetected"
                )
            } else {
                corrupt_bad.join("; ")
            },
        },
        Verdict {
            name: "resume_identity",
            pass: resume_bad.is_empty(),
            evidence: if resume_bad.is_empty() {
                format!(
                    "all {} post-cut --resume runs byte-identical to the unfaulted \
                     reference ({} bytes)",
                    cycles.len(),
                    ref_json.len()
                )
            } else {
                format!("diverged in: {}", resume_bad.join(", "))
            },
        },
        Verdict {
            name: "warm_identity",
            pass: warm_bad.is_empty(),
            evidence: if warm_bad.is_empty() {
                format!(
                    "{warm_loaded} of {warm_persisted} persisted cache entries survived \
                     the cuts, every one byte-identical"
                )
            } else {
                warm_bad.join("; ")
            },
        },
        Verdict {
            name: "ledger_identity",
            pass: ledger_bad.is_empty(),
            evidence: if ledger_bad.is_empty() {
                format!(
                    "{injected_total} fault(s) injected; every error kind matches its \
                     accounted count exactly ({accounted_total} error(s) accounted)"
                )
            } else {
                ledger_bad.join("; ")
            },
        },
    ]
}

/// Renders the artifact payload.
fn torture_json(
    cfg: &TortureConfig,
    cycles: &[(String, CycleOutcome)],
    verdicts: &[Verdict],
    wall_seconds: f64,
) -> String {
    let sum = |f: fn(&CycleOutcome) -> u64| -> u64 { cycles.iter().map(|(_, c)| f(c)).sum() };
    let mut doc = obj! {
        "schema" => "colt-torture/v1",
        "seeds" => cfg.seeds,
        "base_seed" => cfg.base_seed,
        "cuts" => cfg.cuts,
        "rate" => cfg.rate,
        "window" => cfg.window,
        "accesses" => cfg.accesses,
        "bench" => &cfg.bench,
        "cycles" => cycles.len(),
        "wall_seconds" => rounded(wall_seconds, 3),
        "io_faults_injected" => sum(|c| c.injected.total()),
        "io_faults_accounted" => sum(|c| io_faults::errors(&c.ledger.accounted)),
        "bit_flips_detected" => sum(|c| c.ledger.flips_detected),
        "renames_dropped" => sum(|c| c.renames_dropped),
        "tmp_files_swept" => sum(|c| c.tmp_swept),
        "files_quarantined" => sum(|c| c.quarantined_files + c.warm_quarantined),
    };
    artifact::push_verdicts(&mut doc, verdicts);
    doc.pretty()
}

/// Runs the torture sweep end to end and writes the artifact. Returns
/// the payload plus whether every verdict passed.
///
/// # Errors
/// Infrastructure failures (scratch dir, the reference run, the
/// artifact write) — distinct from a *failed verdict*, which still
/// produces the artifact and `Ok((_, false))`.
pub fn run(cfg: &TortureConfig) -> Result<(String, bool), String> {
    let scratch =
        std::env::temp_dir().join(format!("colt-torture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("create {}: {e}", scratch.display()))?;
    // Snapshots must hit disk for the snapshot leg to be tortured at
    // all (the library default is memory-only). Restored on every exit
    // path: leaking `true` would make unrelated tests in the same
    // process write snapshots into their working directory.
    struct DiskPersistenceGuard(bool);
    impl Drop for DiskPersistenceGuard {
        fn drop(&mut self) {
            snapshot_cache::set_disk_persistence(self.0);
        }
    }
    let _disk_guard = DiskPersistenceGuard(snapshot_cache::disk_persistence());
    snapshot_cache::set_disk_persistence(true);
    let wall_start = Instant::now();

    // The unfaulted reference: the byte-identity target for every
    // cycle's recovery run.
    vfs::reset();
    snapshot_cache::set_dir_override(Some(scratch.join("ref-snapshots")));
    snapshot_cache::clear_memory();
    let (ref_report, _) = pressure::run(&payload_opts(cfg));
    if !ref_report.failures.is_empty() {
        snapshot_cache::set_dir_override(None);
        return Err(format!(
            "reference pressure run failed {} cell(s); cannot torture against it",
            ref_report.failures.len()
        ));
    }
    let ref_json = payload_json(&ref_report);

    let mut cycles: Vec<(String, CycleOutcome)> = Vec::new();
    for s in 0..cfg.seeds.max(1) {
        for j in 0..cfg.cuts.max(1) {
            let seed = cfg.base_seed.wrapping_add(s);
            let cut_after = 2 + 5 * j;
            let label = format!("seed-{seed}-cut-{cut_after}");
            let plan = FaultConfig { rate: cfg.rate, window: cfg.window, seed };
            let cyc = scratch.join(&label);
            std::fs::create_dir_all(&cyc)
                .map_err(|e| format!("create {}: {e}", cyc.display()))?;
            let outcome = run_cycle(cfg, &cyc, plan, cut_after);
            if !cfg.quiet {
                println!(
                    "torture: {label}: {} fault(s) injected, {} accounted, {} flip(s) \
                     detected, {} rename(s) dropped at the cut{}",
                    outcome.injected.total(),
                    io_faults::errors(&outcome.ledger.accounted),
                    outcome.ledger.flips_detected,
                    outcome.renames_dropped,
                    if outcome.panicked { " [PANICKED]" } else { "" }
                );
            }
            cycles.push((label, outcome));
        }
    }
    snapshot_cache::set_dir_override(None);
    snapshot_cache::clear_memory();

    let verdicts = judge(&cycles, &ref_json);
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let payload = torture_json(cfg, &cycles, &verdicts, wall_seconds);
    if let Some(moved) = artifact::quarantine_if_corrupt(&cfg.out)
        .map_err(|e| format!("inspect {}: {e}", cfg.out.display()))?
    {
        eprintln!(
            "torture: WARNING: corrupt {} quarantined to {}",
            cfg.out.display(),
            moved.display()
        );
    }
    if let Some(parent) = cfg.out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    artifact::atomic_write_json(&cfg.out, &payload)
        .map_err(|e| format!("write {}: {e}", cfg.out.display()))?;
    let _ = std::fs::remove_dir_all(&scratch);

    let all_ok = verdicts.iter().all(|v| v.pass);
    if !cfg.quiet {
        for v in &verdicts {
            println!("torture: {v}");
        }
    }
    Ok((payload, all_ok))
}

// ---------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------

fn torture_usage() -> String {
    "usage: repro torture [--seeds N] [--cuts N] [--accesses N] [--bench NAME]\n\
     \u{20}                    [--io-faults rate=R,window=W,seed=S] [--out PATH]\n\
     \u{20}                    [--quiet]\n\
     Sweeps seeded storage-fault schedules x simulated power-cut points\n\
     over the journal, snapshot, artifact, and serve-cache layers, then\n\
     gates five crash-consistency verdicts with evidence: zero panics,\n\
     no corrupt bytes accepted, --resume byte-identity, warm-cache\n\
     identity, and an exact injected-vs-accounted fault ledger. Writes\n\
     results/BENCH_torture.json and exits nonzero when any verdict\n\
     fails. --io-faults sets the plan template (its seed is the sweep\n\
     base; --seeds counts schedules from there)."
        .to_string()
}

/// `repro torture` entry point.
pub fn cli(args: &[String]) -> ExitCode {
    let mut cfg = TortureConfig::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = args.get(i + 1);
        let mut took_value = true;
        let parse_u64 = |flag: &str, v: Option<&String>| -> Result<u64, String> {
            v.ok_or_else(|| format!("{flag} needs a value"))?
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a number"))
        };
        let result: Result<(), String> = match arg {
            "--seeds" => parse_u64(arg, value).map(|n| cfg.seeds = n.max(1)),
            "--cuts" => parse_u64(arg, value).map(|n| cfg.cuts = n.max(1)),
            "--accesses" => parse_u64(arg, value).map(|n| cfg.accesses = n.max(1)),
            "--bench" => value
                .ok_or_else(|| "--bench needs a name".to_string())
                .map(|v| cfg.bench = v.clone()),
            "--io-faults" => value
                .ok_or_else(|| "--io-faults needs a spec".to_string())
                .and_then(|v| FaultConfig::parse(v, faults::DEFAULT_RATE))
                .map(|f| {
                    cfg.rate = f.rate;
                    cfg.window = f.window;
                    cfg.base_seed = f.seed;
                }),
            "--out" => value
                .ok_or_else(|| "--out needs a path".to_string())
                .map(|v| cfg.out = PathBuf::from(v)),
            "--quiet" => {
                took_value = false;
                cfg.quiet = true;
                Ok(())
            }
            "--help" | "-h" => {
                println!("{}", torture_usage());
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag '{other}'")),
        };
        if let Err(e) = result {
            eprintln!("{e}\n{}", torture_usage());
            return ExitCode::from(2);
        }
        i += if took_value { 2 } else { 1 };
    }
    match run(&cfg) {
        Ok((payload, all_ok)) => {
            if !cfg.quiet {
                println!("torture details written to {}", cfg.out.display());
            }
            if all_ok {
                if !cfg.quiet {
                    println!(
                        "TORTURE PASS: every verdict held (see {})",
                        cfg.out.display()
                    );
                }
                ExitCode::SUCCESS
            } else {
                eprintln!("TORTURE FAIL: one or more verdicts failed; payload:\n{payload}");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("torture: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tiny cycle end to end. Serialized with every other test that
    /// touches the process-global seam or ledger.
    #[test]
    fn one_cycle_torture_passes_all_verdicts() {
        let _guard = crate::io_faults::ledger_test_guard();
        let cfg = TortureConfig {
            seeds: 1,
            cuts: 1,
            accesses: 300,
            rate: 0.2,
            out: std::env::temp_dir()
                .join(format!("colt-torture-test-{}", std::process::id()))
                .join("BENCH_torture.json"),
            quiet: true,
            ..TortureConfig::default()
        };
        let (payload, all_ok) = run(&cfg).expect("torture infrastructure");
        assert!(all_ok, "verdicts failed:\n{payload}");
        crate::serve::json::parse(&payload).unwrap();
        assert!(payload.contains("\"io_faults_injected\""));
        let _ = std::fs::remove_dir_all(cfg.out.parent().unwrap());
    }
}
