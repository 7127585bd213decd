//! Result-file plumbing: building and *safely* writing the
//! machine-readable `results/BENCH_*.json` artifacts.
//!
//! Three guarantees the `repro` binary used to lack:
//!
//! 1. **Atomic writes** — [`atomic_write_json`] writes a temp file,
//!    fsyncs it, renames it over the destination, and fsyncs the
//!    directory, so a crash at any instant leaves either the old file
//!    or the new file, never a truncated hybrid.
//! 2. **Verified writes** — after the rename the file is read back and
//!    parsed; an unparseable read-back (disk lying, torn write) is an
//!    error, and every write error is a *nonzero exit* in `repro`, not
//!    a swallowed warning.
//! 3. **Corruption quarantine** — [`quarantine_if_corrupt`] checks an
//!    existing artifact before a run would overwrite it; invalid JSON
//!    is moved aside to `<file>.corrupt-<n>` ([`quarantine`], the one
//!    quarantine every durable store shares) and reported, never
//!    silently clobbered.
//!
//! The JSON builders (`sweep_json`, `smp_json`, `pressure_json`,
//! `policy_json`) live here rather than in the binary so the
//! resume-equivalence tests can assert byte-identical artifacts without
//! shelling out. They build [`Json`] values and write them in the
//! [`Json::pretty`] layout; fields that vary with the wall clock or the
//! cache temperature sit under a `timing` key.

use crate::experiments::policy::PolicyReport;
use crate::experiments::pressure::{FailedCell, PressureReport};
use crate::experiments::smp::SmpRow;
use crate::runner::{CellMetric, StreamUse};
use crate::serve::json::{self, obj, rounded, Json};
use colt_os_mem::faults::FaultConfig;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic per-process counter distinguishing concurrent tmp files.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A tmp-file name unique across processes (PID) *and* across threads
/// and repeated calls within one process (counter). A fixed
/// `.tmp-<pid>` suffix would let two threads of one process — the serve
/// dispatcher and a sweep leader storing the same preparation snapshot,
/// say — clobber each other's tmp mid-write.
pub(crate) fn unique_tmp(path: &Path) -> PathBuf {
    PathBuf::from(format!(
        "{}.tmp-{}-{}",
        path.display(),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// First free `<path>.corrupt-<n>` sibling: where every durable store
/// (artifacts, the journal, preparation snapshots, the serve cache)
/// puts what it refuses to trust.
pub(crate) fn quarantine_path(path: &Path) -> PathBuf {
    let mut n = 1;
    loop {
        let candidate = PathBuf::from(format!("{}.corrupt-{n}", path.display()));
        if !candidate.exists() {
            return candidate;
        }
        n += 1;
    }
}

/// Moves the corrupt file `path` aside to its [`quarantine_path`] —
/// evidence is preserved, nothing corrupt is trusted or silently
/// deleted — and returns where it went. The corruption confirms any
/// injected read flip pending on `path`; a failed rename is accounted
/// to `layer`.
pub(crate) fn quarantine(layer: &'static str, path: &Path) -> io::Result<PathBuf> {
    let _ = crate::io_faults::confirm_flip(path);
    let dest = quarantine_path(path);
    crate::vfs::acct(layer, crate::vfs::active().rename(path, &dest))?;
    Ok(dest)
}

/// If `path` exists but does not parse as JSON, moves it to
/// `<path>.corrupt-<n>` and returns the quarantine path. A healthy or
/// absent file returns `Ok(None)`.
pub fn quarantine_if_corrupt(path: &Path) -> io::Result<Option<PathBuf>> {
    if !path.exists() {
        return Ok(None);
    }
    let text = match crate::vfs::active().read(path) {
        Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
        Err(e) => {
            let _ = crate::io_faults::account("artifact", &e);
            String::new() // unreadable == corrupt
        }
    };
    if json::parse(&text).is_ok() {
        return Ok(None);
    }
    quarantine("artifact", path).map(Some)
}

/// Every `*.corrupt-<n>` quarantine file under `dir`, recursively, in
/// sorted order. These are the artifacts [`quarantine_if_corrupt`] set
/// aside after a crash; `repro` reports them loudly at startup so the
/// evidence is noticed instead of silently accumulating.
pub fn find_quarantined(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".corrupt-"))
            {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

/// Every leaked `*.tmp-*` scratch file under `dir`, recursively, in
/// sorted order — orphans of a crash between create and rename. The
/// atomic-write protocol removes its tmp on every failure it survives,
/// so anything matching [`unique_tmp`]'s pattern at startup is litter.
pub fn find_tmp_litter(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".tmp-") && !n.contains(".corrupt-"))
            {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

/// Removes every leaked tmp file under `dir`, returning the paths
/// removed so startup can report what it cleaned.
pub fn sweep_tmp_litter(dir: &Path) -> Vec<PathBuf> {
    find_tmp_litter(dir)
        .into_iter()
        .filter(|p| std::fs::remove_file(p).is_ok())
        .collect()
}

/// How many times [`atomic_write_json`] attempts the write before
/// giving up: disk-full and torn-write faults are retried with a short
/// backoff, and only a persistently failing disk surfaces as the error
/// the caller turns into a nonzero exit.
const WRITE_ATTEMPTS: u32 = 3;

/// Atomically writes `json` to `path` (temp file + fsync + rename +
/// directory fsync), then reads it back and re-validates. Transient
/// failures (ENOSPC, torn writes) are retried with backoff; the temp
/// file is removed after every failed attempt, so a torn `BENCH_*` is
/// never left behind under any interleaving — the target either keeps
/// its previous durable content or carries the complete new value.
/// Returns the display path. A persistent failure — including an
/// unparseable read-back — is an error the caller must surface as a
/// nonzero exit.
pub fn atomic_write_json(path: &Path, text: &str) -> io::Result<String> {
    json::parse(text).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("refusing to write invalid JSON: {e}"))
    })?;
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut last = None;
    for attempt in 0..WRITE_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
        }
        match atomic_write_attempt(path, dir, text) {
            Ok(()) => return Ok(path.display().to_string()),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// One attempt of the atomic-write protocol. Every `Vfs` error is
/// accounted here, at the site that first observes it (see
/// `io_faults::account`).
fn atomic_write_attempt(path: &Path, dir: &Path, text: &str) -> io::Result<()> {
    use crate::vfs::acct;
    let fs = crate::vfs::active();
    acct("artifact", fs.create_dir_all(dir))?;
    let tmp = unique_tmp(path);
    let written = (|| {
        let mut f = acct("artifact", fs.create(&tmp))?;
        acct("artifact", f.write_all(text.as_bytes()))?;
        acct("artifact", f.flush())?;
        acct("artifact", f.sync_data())?;
        acct("artifact", fs.rename(&tmp, path))
    })();
    if let Err(e) = written {
        // Clean up the torn tmp. A dead (post-cut) disk can refuse even
        // this, which is exactly how startup tmp litter is born; the
        // refusal is still accounted.
        if let Err(re) = fs.remove_file(&tmp) {
            let _ = crate::io_faults::account("artifact", &re);
        }
        return Err(e);
    }
    if let Err(e) = fs.sync_dir(dir) {
        // Deliberately ignored (rename durability is best-effort beyond
        // the file fsync) but still accounted.
        let _ = crate::io_faults::account("artifact", &e);
    }
    // Read-back verification: the bytes on disk must parse. With a
    // single writer they are this call's own bytes; with concurrent
    // writers racing one target the read-back may legitimately be
    // another writer's *complete* rename — still atomic, still valid —
    // so differing bytes are only an error when they fail to parse or
    // when the mismatch turns out to be read-time corruption (a torn
    // write, a lying disk, a flipped bit).
    let back_bytes = acct("artifact", fs.read(path))?;
    let back = String::from_utf8_lossy(&back_bytes);
    if back != text && crate::io_faults::confirm_flip(path) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("read-back of {} differs from the bytes written", path.display()),
        ));
    }
    json::parse(&back).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("read-back of {} is not valid JSON: {e}", path.display()),
        )
    })?;
    Ok(())
}

// ---------------------------------------------------------------------
// BENCH_*.json builders.
// ---------------------------------------------------------------------

/// Sum of every cell's preparation and simulation wall-clock — what one
/// worker thread would have spent *with the same snapshot-cache state*,
/// since results are identical at any width, prep sharing happens at
/// every width, and cache-hit cells record the (near-zero) time the hit
/// actually cost rather than the build it avoided.
pub fn serial_seconds_estimate(metrics: &[CellMetric]) -> f64 {
    metrics.iter().map(|m| m.prep_seconds + m.sim_seconds).sum()
}

/// Aggregate simulation-only throughput: refs per second once
/// preparation is amortized away (i.e. the steady-state rate a warm
/// cache converges to). Zero-ref cells — contiguity probes that prepare
/// a kernel but simulate nothing — are excluded from both numerator and
/// denominator so they cannot drag the figure toward zero.
pub fn prep_amortized_refs_per_sec(metrics: &[CellMetric]) -> f64 {
    let (refs, sim): (u64, f64) = metrics
        .iter()
        .filter(|m| m.refs > 0)
        .fold((0, 0.0), |(r, s), m| (r + m.refs, s + m.sim_seconds));
    refs as f64 / sim.max(1e-9)
}

/// How many cells recorded a shared reference stream, and how many
/// replayed one ([`StreamUse`]). Neither count depends on the worker
/// count or the clock; cells replayed from the journal count in neither.
pub fn stream_counts(metrics: &[CellMetric]) -> (usize, usize) {
    let count = |used| metrics.iter().filter(|m| m.stream == used).count();
    (count(StreamUse::Recorded), count(StreamUse::Replayed))
}

/// Machine-readable sweep throughput report (`BENCH_sweep.json`).
/// Everything that varies with the wall clock or the cache temperature
/// sits under `timing` — at top level and in each cell — so the rest is
/// reproducible byte-for-byte. On a resumed run, replayed cells carry
/// their original (journaled, bit-exact) timings while re-run cells time
/// anew.
///
/// `recordings` and `cells_from_recordings` are [`stream_counts`].
///
/// `speedup_vs_1_thread_estimate` compares the sum of per-cell
/// (prep + sim) wall-clock against the sweep's wall time — an honest
/// estimate because cache-hit cells contribute the prep they actually
/// paid, not the build they skipped. The separately labeled
/// `prep_amortized_refs_per_sec` reports sim-only throughput over the
/// cells that simulate anything (refs > 0).
pub fn sweep_json(
    metrics: &[CellMetric],
    jobs: usize,
    wall_seconds: f64,
    cache: &crate::snapshot_cache::CacheStats,
) -> String {
    let total_refs: u64 = metrics.iter().map(|m| m.refs).sum();
    let (recordings, cells_from_recordings) = stream_counts(metrics);
    let serial = serial_seconds_estimate(metrics);
    let prep_total: f64 = metrics.iter().map(|m| m.prep_seconds).sum();
    let cells: Vec<Json> = metrics
        .iter()
        .map(|m| {
            obj! {
                "label" => &m.label,
                "benchmark" => &m.benchmark,
                "scenario" => &m.scenario,
                "refs" => m.refs,
                "stream" => m.stream.name(),
                "timing" => obj! {
                    "prep_seconds" => rounded(m.prep_seconds, 6),
                    "sim_seconds" => rounded(m.sim_seconds, 6),
                    "refs_per_sec" => rounded(
                        m.refs as f64 / (m.prep_seconds + m.sim_seconds).max(1e-9),
                        1,
                    ),
                },
            }
        })
        .collect();
    obj! {
        "jobs" => jobs,
        "total_refs" => total_refs,
        "recordings" => recordings,
        "cells_from_recordings" => cells_from_recordings,
        "timing" => obj! {
            "wall_seconds" => rounded(wall_seconds, 6),
            "aggregate_refs_per_sec" => rounded(total_refs as f64 / wall_seconds.max(1e-9), 1),
            "prep_amortized_refs_per_sec" => rounded(prep_amortized_refs_per_sec(metrics), 1),
            "prep_seconds_total" => rounded(prep_total, 6),
            "prep_cache_hits" => cache.hits(),
            "prep_cache_disk_hits" => cache.disk_hits,
            "prep_cache_misses" => cache.misses,
            "machines_aged" => cache.agings,
            "prep_cache_evictions" => cache.mem_evictions,
            "snapshot_seconds" => rounded(cache.snapshot_seconds, 6),
            "serial_seconds_estimate" => rounded(serial, 6),
            "speedup_vs_1_thread_estimate" => rounded(serial / wall_seconds.max(1e-9), 3),
        },
        "cells" => cells,
    }
    .pretty()
}

/// Machine-readable SMP report (`BENCH_smp.json`): one record per
/// (mix, mode, cores) row of the `smp_*` experiments. Fully
/// deterministic — a resumed run reproduces it byte-for-byte.
pub fn smp_json(rows: &[SmpRow], cores_flag: usize) -> String {
    let rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            obj! {
                "experiment" => r.experiment,
                "mix" => &r.mix,
                "mode" => r.mode,
                "cores" => r.cores,
                "accesses" => r.accesses,
                "l1_misses" => r.l1_misses,
                "walks" => r.walks,
                "full_flushes" => r.full_flushes,
                "flushes_avoided" => r.flushes_avoided,
                "ipis_sent" => r.ipis_sent,
                "ipis_received" => r.ipis_received,
                "remote_invalidations" => r.remote_invalidations,
                "ipi_cycles" => r.ipi_cycles,
            }
        })
        .collect();
    obj! { "cores_flag" => cores_flag, "rows" => rows }.pretty()
}

/// Machine-readable pressure report (`BENCH_pressure.json`): every cell
/// row, the SMP leg, and the failure list (partial results survive
/// failed cells). Fully deterministic — the crash-recovery smoke stage
/// diffs it byte-for-byte against an uninterrupted reference run.
pub fn pressure_json(
    report: &PressureReport,
    cfg: FaultConfig,
    cores_flag: usize,
) -> String {
    let rows: Vec<Json> = report
        .rows
        .iter()
        .map(|r| {
            obj! {
                "benchmark" => &r.benchmark,
                "config" => &r.config,
                "rate" => r.rate,
                "accesses" => r.accesses,
                "l1_misses" => r.l1_misses,
                "walks" => r.walks,
                "walk_cycles" => r.walk_cycles,
                "faults_injected" => r.kernel.faults_injected,
                "thp_fallbacks" => r.kernel.thp_fallbacks,
                "thp_deferred_retries" => r.kernel.thp_deferred_retries,
                "compact_deferred" => r.kernel.compact_deferred,
                "oom_kills" => r.kernel.oom_kills,
            }
        })
        .collect();
    let smp_rows: Vec<Json> = report
        .smp_rows
        .iter()
        .map(|r| {
            obj! {
                "rate" => r.rate,
                "cores" => r.cores,
                "accesses" => r.accesses,
                "walks" => r.walks,
                "ipis_sent" => r.ipis_sent,
                "faults_injected" => r.kernel.faults_injected,
                "thp_fallbacks" => r.kernel.thp_fallbacks,
                "oom_kills" => r.kernel.oom_kills,
            }
        })
        .collect();
    obj! {
        "fault_rate" => cfg.rate,
        "fault_window" => cfg.window,
        "fault_seed" => cfg.seed,
        "cores_flag" => cores_flag,
        "rows" => rows,
        "smp_rows" => smp_rows,
        "failures" => failures_json(&report.failures),
    }
    .pretty()
}

/// The shared `"failures"` list (`[]` on a clean run — verify.sh greps
/// for exactly that).
fn failures_json(failures: &[FailedCell]) -> Vec<Json> {
    failures
        .iter()
        .map(|f| {
            obj! {
                "label" => &f.label,
                "cause" => &f.payload,
            }
        })
        .collect()
}

/// Machine-readable policy report (`BENCH_policy.json`): per-policy
/// summaries first (the verify.sh gate greps these), then every cell
/// row, then the failure list. Fully deterministic.
pub fn policy_json(report: &PolicyReport) -> String {
    let summaries: Vec<Json> = report
        .summaries
        .iter()
        .map(|s| {
            obj! {
                "policy" => &s.policy,
                "avg_contiguity" => s.avg_contiguity,
                "colt_all_elim" => s.colt_all_elim,
                "decisions" => s.decisions,
                "huge_grants" => s.huge_grants,
                "huge_denies" => s.huge_denies,
                "collapses" => s.collapses,
                "compactions" => s.compactions,
            }
        })
        .collect();
    let rows: Vec<Json> = report
        .rows
        .iter()
        .map(|r| {
            obj! {
                "policy" => &r.policy,
                "benchmark" => &r.benchmark,
                "config" => &r.config,
                "accesses" => r.accesses,
                "l1_misses" => r.l1_misses,
                "walks" => r.walks,
                "walk_cycles" => r.walk_cycles,
                "avg_contiguity" => r.avg_contiguity,
                "policy_decisions" => r.kernel.policy_decisions,
                "policy_huge_grants" => r.kernel.policy_huge_grants,
                "policy_huge_denies" => r.kernel.policy_huge_denies,
                "policy_collapses_triggered" => r.kernel.policy_collapses_triggered,
                "policy_compactions_requested" => r.kernel.policy_compactions_requested,
                "thp_allocs" => r.kernel.thp_allocs,
                "thp_fallbacks" => r.kernel.thp_fallbacks,
            }
        })
        .collect();
    obj! {
        "summaries" => summaries,
        "rows" => rows,
        "failures" => failures_json(&report.failures),
    }
    .pretty()
}

/// One harness verdict (`repro chaos-serve`, `repro torture`): a name,
/// a pass/fail, and the evidence line that explains the call either way.
pub struct Verdict {
    /// The artifact key the verdict is written under.
    pub name: &'static str,
    /// Whether the gate held.
    pub pass: bool,
    /// Why, either way.
    pub evidence: String,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let call = if self.pass { "PASS" } else { "FAIL" };
        write!(f, "{call} {} — {}", self.name, self.evidence)
    }
}

/// Appends each verdict to an artifact object as `"<name>": pass` and
/// `"<name>_evidence": "..."`, then `"all_ok"` over all of them.
pub fn push_verdicts(doc: &mut Json, verdicts: &[Verdict]) {
    let Json::Obj(members) = doc else { panic!("verdicts extend a JSON object") };
    for v in verdicts {
        members.push((v.name.to_string(), v.pass.into()));
        members.push((format!("{}_evidence", v.name), v.evidence.as_str().into()));
    }
    members.push(("all_ok".to_string(), verdicts.iter().all(|v| v.pass).into()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_json_reports_cache_stats_and_amortizes_prep_over_sim_cells() {
        let metrics = vec![
            CellMetric {
                label: "fig18/colt_all".into(),
                benchmark: "Gobmk".into(),
                scenario: "default".into(),
                refs: 1000,
                prep_seconds: 0.5,
                sim_seconds: 0.25,
                stream: StreamUse::Recorded,
            },
            // A contiguity probe: prepares a kernel, simulates nothing.
            // Its sim time must not dilute the amortized throughput.
            CellMetric {
                label: "contiguity/default".into(),
                benchmark: "Gobmk".into(),
                scenario: "default".into(),
                refs: 0,
                prep_seconds: 0.1,
                sim_seconds: 42.0,
                stream: StreamUse::Plain,
            },
        ];
        let cache = crate::snapshot_cache::CacheStats {
            mem_hits: 3,
            disk_hits: 1,
            misses: 2,
            agings: 1,
            mem_evictions: 1,
            snapshot_seconds: 0.125,
        };
        let text = sweep_json(&metrics, 8, 0.5, &cache);
        let doc = json::parse(&text).expect("sweep report is valid JSON");
        let timing = doc.get("timing").expect("a top-level timing object");
        let num = |key: &str| timing.get(key).and_then(Json::as_f64);
        assert_eq!(num("prep_cache_hits"), Some(4.0), "{text}");
        assert_eq!(num("prep_cache_disk_hits"), Some(1.0), "{text}");
        assert_eq!(num("prep_cache_misses"), Some(2.0), "{text}");
        assert_eq!(num("machines_aged"), Some(1.0), "{text}");
        assert_eq!(num("prep_cache_evictions"), Some(1.0), "{text}");
        assert_eq!(num("snapshot_seconds"), Some(0.125), "{text}");
        assert_eq!(num("prep_seconds_total"), Some(0.6), "{text}");
        // 1000 refs / 0.25 sim seconds; the zero-ref cell is excluded.
        assert_eq!(num("prep_amortized_refs_per_sec"), Some(4000.0), "{text}");
        // (0.5 + 0.25 + 0.1 + 42.0) / 0.5 wall.
        assert_eq!(num("speedup_vs_1_thread_estimate"), Some(85.7), "{text}");
        // The verify.sh gates grep `"key": value` pairs.
        assert!(text.contains("\"aggregate_refs_per_sec\": 2000,"), "{text}");
        // Nothing outside `timing` moves with the clock or the cache.
        assert_eq!(doc.get("total_refs").and_then(Json::as_u64), Some(1000));
        assert_eq!(doc.get("recordings").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("cells_from_recordings").and_then(Json::as_u64), Some(0));
        let Some(Json::Arr(cells)) = doc.get("cells") else { panic!("cells array: {text}") };
        assert_eq!(cells[0].get("refs").and_then(Json::as_u64), Some(1000));
        assert_eq!(cells[0].get("stream"), Some(&Json::Str("recorded".into())));
        assert_eq!(
            cells[1].get("timing").and_then(|t| t.get("sim_seconds")),
            Some(&Json::Num(42.0))
        );
    }

    /// Artifacts are validated by the one JSON parser: real shapes pass,
    /// torn and garbled ones do not.
    #[test]
    fn validator_accepts_real_shapes_and_rejects_corruption() {
        assert!(json::parse("{}").is_ok());
        assert!(json::parse("{\"a\": [1, -2.5e3, \"x\\\"y\"], \"b\": null}\n").is_ok());
        assert!(json::parse("").is_err());
        assert!(json::parse("{\"a\": 1").is_err(), "truncated object");
        assert!(json::parse("{\"a\": 1}garbage").is_err(), "trailing bytes");
        assert!(json::parse("{\"a\": 01x}").is_err(), "bad number");
        assert!(json::parse("{\"a\": \"unterminated}").is_err());
        assert!(json::parse("{\"a\": \"raw\u{1}control\"}").is_err());
    }

    #[test]
    fn find_quarantined_scans_recursively_and_sorts() {
        let dir = std::env::temp_dir().join(format!(
            "colt-artifact-quarantine-scan-{}",
            std::process::id()
        ));
        let nested = dir.join("journal").join("deep");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(dir.join("b.json.corrupt-2"), "x").unwrap();
        std::fs::write(nested.join("a.jsonl.corrupt-1"), "x").unwrap();
        std::fs::write(dir.join("healthy.json"), "{}").unwrap();
        let found = find_quarantined(&dir);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].ends_with("b.json.corrupt-2"), "sorted: {found:?}");
        assert!(found[1].ends_with("journal/deep/a.jsonl.corrupt-1"), "{found:?}");
        assert!(find_quarantined(&dir.join("missing")).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_roundtrips_and_quarantine_moves_corruption_aside() {
        let _guard = crate::io_faults::ledger_test_guard();
        let dir = std::env::temp_dir()
            .join(format!("colt-artifact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");

        atomic_write_json(&path, "{\"ok\": true}\n").unwrap();
        assert_eq!(quarantine_if_corrupt(&path).unwrap(), None);

        std::fs::write(&path, "{\"truncated\": ").unwrap();
        let q = quarantine_if_corrupt(&path).unwrap().expect("must quarantine");
        assert!(q.display().to_string().contains("corrupt-1"));
        assert!(!path.exists(), "corrupt file moved aside, not clobbered");
        assert!(q.exists());

        // No temp litter after a successful write.
        atomic_write_json(&path, "{}\n").unwrap();
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(litter.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_clobber_each_other_or_litter_tmp_files() {
        let _guard = crate::io_faults::ledger_test_guard();
        let dir = std::env::temp_dir()
            .join(format!("colt-artifact-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_race.json");

        // Eight writers × twenty rounds hammering one target, each with
        // a distinct payload. With the old fixed `.tmp-<pid>` name, two
        // same-process writers shared a tmp file and one renamed the
        // other's half-written bytes into place.
        let payloads: Vec<String> =
            (0..8).map(|i| format!("{{\"writer\": {i}, \"padding\": \"{}\"}}\n", "x".repeat(512 * i))).collect();
        std::thread::scope(|s| {
            for payload in &payloads {
                s.spawn(|| {
                    for _ in 0..20 {
                        atomic_write_json(&path, payload).unwrap();
                    }
                });
            }
        });

        // The survivor is exactly one writer's complete payload.
        let final_text = std::fs::read_to_string(&path).unwrap();
        assert!(
            payloads.iter().any(|p| *p == final_text),
            "final file must be one complete payload, got: {final_text:?}"
        );
        json::parse(&final_text).unwrap();
        // And every tmp file was renamed or cleaned up.
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(litter.is_empty(), "tmp litter: {litter:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unique_tmp_names_differ_across_calls() {
        let p = Path::new("results/BENCH_x.json");
        let a = unique_tmp(p);
        let b = unique_tmp(p);
        assert_ne!(a, b, "same path, same process — the counter must differ");
        assert!(a.display().to_string().starts_with("results/BENCH_x.json.tmp-"));
    }

    #[test]
    fn invalid_payload_is_refused_before_touching_the_file() {
        let _guard = crate::io_faults::ledger_test_guard();
        let dir = std::env::temp_dir()
            .join(format!("colt-artifact-refuse-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_refuse.json");
        atomic_write_json(&path, "{\"good\": 1}").unwrap();
        assert!(atomic_write_json(&path, "{\"bad\": ").is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"good\": 1}", "failed write must not damage the old file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: a simulated power cut mid-write strands a `*.tmp-*`
    /// staging file (the post-cut disk refuses the cleanup `remove`),
    /// and the startup sweep removes it — no permanent litter.
    #[test]
    fn a_cut_mid_write_leaves_no_permanent_litter() {
        use colt_os_mem::faults::FaultConfig;
        let _guard = crate::io_faults::ledger_test_guard();
        crate::io_faults::reset_ledger();
        let dir = std::env::temp_dir()
            .join(format!("colt-artifact-cutlitter-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // No random faults — the only event is the disk dying right
        // after the first fsync, i.e. between fsync and rename.
        let plan = FaultConfig { rate: 0.0, window: 0, seed: 1 };
        let faulty = crate::vfs::FaultyVfs::new(plan).cut_after_syncs(1);
        crate::vfs::install(std::sync::Arc::new(faulty.clone()));
        let result = atomic_write_json(&dir.join("BENCH_cut.json"), "{\"cell\": 1}");
        let _ = faulty.power_cut();
        crate::vfs::reset();

        assert!(result.is_err(), "the write died at the cut");
        assert!(
            !dir.join("BENCH_cut.json").exists(),
            "no torn destination file may exist"
        );
        let litter = find_tmp_litter(&dir);
        assert!(!litter.is_empty(), "the cut strands the staging tmp file");
        let swept = sweep_tmp_litter(&dir);
        assert_eq!(swept, litter, "the sweep removes exactly the litter");
        assert!(find_tmp_litter(&dir).is_empty(), "no permanent litter remains");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
