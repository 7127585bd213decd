//! Process-global workload-preparation cache with durable snapshots.
//!
//! Preparing one (scenario, benchmark) pair cold means booting and
//! aging a kernel (59–127 ms in a release build on a 2-CPU host), then
//! memhog, the allocation phase and pressure (under 50 ms for most
//! pairs): far more than simulating a sweep cell against the result.
//! The runner shares preparations, and each scenario's aged machine,
//! *within* one sweep; this module extends the sharing of preparations
//! to the whole process and, through disk snapshots, to future
//! invocations:
//!
//! 1. **Memory layer** — one `Arc<PreparedWorkload>` per preparation
//!    key, shared by every sweep the process runs. The map is an LRU
//!    of [`DEFAULT_MEM_CAP`] entries, so a resident `repro serve`
//!    process cycling through configurations cannot grow it forever.
//!    A one-shot `repro all` does pass the bound and sends some
//!    preparations back to the disk layer. Evictions are counted in
//!    [`CacheStats::mem_evictions`], never silent.
//! 2. **Disk layer** — `results/snapshots/<fingerprint>.snap` (override
//!    with `COLT_SNAPSHOT_DIR`), written atomically after each fresh
//!    preparation, so a second `repro` invocation decodes the prepared
//!    kernel instead of rebuilding it.
//!
//! Snapshot files carry a magic, a format version, a CRC32 over the
//! body, and the full preparation key. A corrupt or version-bumped file
//! is quarantined to `<file>.corrupt-<n>` — exactly the journal's
//! policy — and the pair is re-prepared; a file whose stored key
//! differs (a fingerprint collision or stale flags) is simply ignored
//! and overwritten. Decoded workloads are bit-equivalent to freshly
//! prepared ones (see `colt_os_mem::snapshot`), so cache hits cannot
//! change any result table.
//!
//! [`get_or_prepare`] is `lookup` (memory, then disk) followed, on a
//! miss, by `age` and `build`; the runner calls the three itself so
//! that one aged machine serves every preparation of its scenario.
//!
//! `repro --no-snapshot-cache` (→ [`set_enabled`]) disables both
//! layers; intra-sweep sharing in the runner, of preparations and of
//! aged machines, is unaffected.

use crate::journal::{crc32, fingerprint_of};
use crate::lru::LruMap;
use crate::{panic_message, relock};
use colt_os_mem::snapshot::{Dec, Enc};
use colt_workloads::scenario::{AgedMachine, PreparedWorkload, Scenario};
use colt_workloads::spec::BenchmarkSpec;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::Instant;

/// Snapshot file format version. Bump whenever any `Snapshot` impl in
/// the substrate changes shape; old files are then quarantined instead
/// of misread.
pub const SNAPSHOT_VERSION: u32 = 3;

/// File magic: identifies a CoLT preparation snapshot.
const MAGIC: &[u8; 8] = b"COLTSNAP";

/// Default in-memory cache bound: a few dozen multi-megabyte prepared
/// workloads — comfortably more than any one experiment's working set,
/// small enough that a resident server cannot OOM on stale pairs.
pub const DEFAULT_MEM_CAP: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(true);
static DISK: AtomicBool = AtomicBool::new(false);
static MEM: Mutex<LruMap<Arc<PreparedWorkload>>> = Mutex::new(LruMap::bounded(DEFAULT_MEM_CAP));
static STATS: Mutex<CacheStats> = Mutex::new(CacheStats::zero());
/// Snapshot directories whose disk layer failed a store and is disabled
/// for the rest of the process (one loud warning per directory).
static DISK_FAILED: Mutex<BTreeSet<PathBuf>> = Mutex::new(BTreeSet::new());

/// Enables or disables the cache (both layers). `repro
/// --no-snapshot-cache` turns it off for operators who suspect a stale
/// snapshot or want to time cold preparation.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::SeqCst);
}

/// Opts this process into the disk layer. Off by default so library
/// consumers — `cargo test` binaries above all — stay hermetic: they
/// share preparations in memory but never read stale snapshots from
/// (or write multi-megabyte files into) whatever directory they happen
/// to run in. The `repro` binary opts in at startup.
pub fn set_disk_persistence(enabled: bool) {
    DISK.store(enabled, Ordering::SeqCst);
}

/// Whether the disk layer is currently opted in — lets a caller that
/// must flip the flag (the torture harness) restore the prior state
/// instead of leaking `true` into the rest of a test process.
pub fn disk_persistence() -> bool {
    DISK.load(Ordering::SeqCst)
}

/// Whether the cache is consulted at all.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Counters for the throughput report (`prep_cache_hits`,
/// `machines_aged`, `snapshot_seconds` in `BENCH_sweep.json`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheStats {
    /// Preparations served from the in-memory map.
    pub mem_hits: u64,
    /// Preparations decoded from a disk snapshot.
    pub disk_hits: u64,
    /// Preparations actually built from an aged machine.
    pub misses: u64,
    /// Machines booted and aged by `age`: one per scenario per sweep
    /// that builds any of its preparations, and one per preparation
    /// that [`get_or_prepare`] builds.
    pub agings: u64,
    /// Prepared workloads evicted from the in-memory LRU layer
    /// (capacity [`DEFAULT_MEM_CAP`]). An evicted pair re-prepares
    /// (or re-decodes its disk snapshot) on the next request.
    pub mem_evictions: u64,
    /// Wall-clock seconds spent encoding, writing, reading and decoding
    /// disk snapshots.
    pub snapshot_seconds: f64,
}

impl CacheStats {
    const fn zero() -> Self {
        CacheStats {
            mem_hits: 0,
            disk_hits: 0,
            misses: 0,
            agings: 0,
            mem_evictions: 0,
            snapshot_seconds: 0.0,
        }
    }

    /// Cache hits of either layer.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }
}

impl Default for CacheStats {
    fn default() -> Self {
        Self::zero()
    }
}

fn bump(f: impl FnOnce(&mut CacheStats)) {
    f(&mut relock(&STATS));
}

/// Drains the counters accumulated since the last drain.
pub fn take_stats() -> CacheStats {
    std::mem::take(&mut *relock(&STATS))
}

/// Drops every in-memory prepared workload; disk snapshots are
/// untouched. Lets tests observe cold-start and disk-warm behavior in
/// one process.
pub fn clear_memory() {
    relock(&MEM).clear();
}

/// Prepared workloads currently resident in the memory layer.
pub fn mem_len() -> usize {
    relock(&MEM).len()
}

/// The canonical preparation key: every field of the scenario and the
/// benchmark spec that can change the prepared state.
pub fn prep_key(scenario: &Scenario, spec: &BenchmarkSpec) -> String {
    format!("{scenario:?}\u{1}{spec:?}")
}

/// How `get_or_prepare` obtained the workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrepSource {
    /// Served from the in-memory map (or the runner's sweep slot).
    Memory,
    /// Decoded from a disk snapshot.
    Disk,
    /// Built fresh from an aged machine.
    Built,
}

/// A prepared workload plus how long this call spent obtaining it.
pub struct Prepared {
    /// The shared workload.
    pub workload: Arc<PreparedWorkload>,
    /// Seconds this call spent building or decoding (0 on a memory hit).
    pub prep_seconds: f64,
    /// Where the workload came from.
    pub source: PrepSource,
}

/// Fetches (memory, then disk) or builds the prepared workload for one
/// (scenario, spec) pair, persisting fresh builds to disk. A build ages
/// a machine of its own; the runner shares one per scenario instead.
///
/// # Errors
/// A human-readable description when aging or preparation fails or
/// panics (cache failures are never errors — they fall back to
/// preparing).
pub fn get_or_prepare(
    scenario: &Scenario,
    spec: &BenchmarkSpec,
) -> Result<Prepared, String> {
    if let Some(found) = lookup(scenario, spec) {
        return Ok(found);
    }
    let start = Instant::now();
    let machine = age(scenario)?;
    let aging_seconds = start.elapsed().as_secs_f64();
    let mut built = build(machine, spec)?;
    built.prep_seconds += aging_seconds;
    Ok(built)
}

/// The cached workload for one (scenario, spec) pair: the memory layer,
/// then the disk layer (a decoded snapshot enters the memory layer).
/// `None` when neither holds it or the cache is disabled.
pub(crate) fn lookup(scenario: &Scenario, spec: &BenchmarkSpec) -> Option<Prepared> {
    if !enabled() {
        return None;
    }
    let key = prep_key(scenario, spec);
    if let Some(w) = relock(&MEM).get(&key).map(Arc::clone) {
        bump(|s| s.mem_hits += 1);
        return Some(Prepared { workload: w, prep_seconds: 0.0, source: PrepSource::Memory });
    }
    let dir = disk_layer()?;
    let start = Instant::now();
    let w = Arc::new(load_from(&dir, &key, spec)?);
    let secs = start.elapsed().as_secs_f64();
    let evicted = relock(&MEM).insert(key, Arc::clone(&w));
    bump(|s| {
        s.disk_hits += 1;
        s.mem_evictions += evicted;
        s.snapshot_seconds += secs;
    });
    Some(Prepared { workload: w, prep_seconds: secs, source: PrepSource::Disk })
}

/// Boots and ages `scenario`'s machine, counted in
/// [`CacheStats::agings`]. Every machine a sweep or [`get_or_prepare`]
/// ages goes through here.
///
/// # Errors
/// A human-readable description when aging fails or panics.
pub(crate) fn age(scenario: &Scenario) -> Result<AgedMachine, String> {
    let machine = match catch_unwind(AssertUnwindSafe(|| scenario.age())) {
        Ok(Ok(machine)) => machine,
        Ok(Err(e)) => return Err(format!("scenario '{}' failed to age: {e}", scenario.name)),
        Err(payload) => {
            return Err(format!(
                "scenario '{}' panicked while aging: {}",
                scenario.name,
                panic_message(payload)
            ));
        }
    };
    bump(|s| s.agings += 1);
    Ok(machine)
}

/// Prepares `spec` on `machine`, then enters the workload in the memory
/// layer and persists its snapshot, when the cache is enabled.
/// `prep_seconds` covers the preparation alone.
///
/// # Errors
/// A human-readable description when preparation fails or panics (cache
/// failures are never errors).
pub(crate) fn build(machine: AgedMachine, spec: &BenchmarkSpec) -> Result<Prepared, String> {
    let scenario = machine.scenario().name.clone();
    let key = prep_key(machine.scenario(), spec);
    let start = Instant::now();
    let workload = match catch_unwind(AssertUnwindSafe(|| machine.into_prepared(spec))) {
        Ok(Ok(w)) => Arc::new(w),
        Ok(Err(e)) => {
            return Err(format!("scenario '{scenario}' failed for {}: {e}", spec.name));
        }
        Err(payload) => {
            return Err(format!(
                "scenario '{scenario}' panicked for {}: {}",
                spec.name,
                panic_message(payload)
            ));
        }
    };
    let prep_seconds = start.elapsed().as_secs_f64();
    bump(|s| s.misses += 1);

    if enabled() {
        let evicted = relock(&MEM).insert(key.clone(), Arc::clone(&workload));
        bump(|s| s.mem_evictions += evicted);
        if let Some(dir) = disk_layer() {
            let start = Instant::now();
            let failure = match catch_unwind(AssertUnwindSafe(|| {
                store_to(&dir, &key, &workload)
            })) {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(e.to_string()),
                Err(payload) => Some(format!("panicked: {}", panic_message(payload))),
            };
            if let Some(why) = failure {
                // Never abort the sweep over a snapshot write: degrade
                // to mem-cache-only for this directory, one loud
                // warning, and stop retrying a disk that just failed.
                if note_disk_failure(&dir) {
                    eprintln!(
                        "warning: could not persist preparation snapshot for \
                         '{scenario}'/{} under {} ({why}); the sweep continues with the \
                         memory layer only and snapshot persistence under this \
                         directory is disabled for the rest of the process",
                        spec.name,
                        dir.display()
                    );
                }
            }
            bump(|s| s.snapshot_seconds += start.elapsed().as_secs_f64());
        }
    }
    Ok(Prepared { workload, prep_seconds, source: PrepSource::Built })
}

/// The disk layer as seen by [`lookup`] and [`build`]: the snapshot
/// directory when this process opted in via [`set_disk_persistence`],
/// else `None`. The binary's cold/warm disk behavior is exercised by
/// `scripts/verify.sh`, and the store/load functions are unit-tested
/// directly against scratch directories.
fn disk_layer() -> Option<PathBuf> {
    if !DISK.load(Ordering::SeqCst) {
        return None;
    }
    let dir = snapshot_dir()?;
    if disk_dir_disabled(&dir) {
        return None;
    }
    Some(dir)
}

/// Records a store failure under `dir`, disabling its disk layer for
/// the rest of the process. Returns true the first time (the caller
/// prints the one loud warning then; repeats stay quiet).
fn note_disk_failure(dir: &Path) -> bool {
    relock(&DISK_FAILED).insert(dir.to_path_buf())
}

fn disk_dir_disabled(dir: &Path) -> bool {
    relock(&DISK_FAILED).contains(dir)
}

static DIR_WARNED: Once = Once::new();

/// Programmatic snapshot-directory override, taking precedence over
/// `COLT_SNAPSHOT_DIR`. The torture harness points each cycle at its
/// own scratch directory this way — mutating the environment of a
/// multi-threaded process mid-run would race every other reader.
static DIR_OVERRIDE: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Overrides (or, with `None`, restores) the snapshot directory for
/// this process.
pub fn set_dir_override(dir: Option<PathBuf>) {
    *relock(&DIR_OVERRIDE) = dir;
}

/// The snapshot directory: the programmatic override when set, else
/// `COLT_SNAPSHOT_DIR` when set (a garbage or
/// unusable value earns one loud warning, then disk persistence is
/// skipped — never a silent fallback to the default), otherwise
/// `results/snapshots`. `None` when the directory cannot be created.
fn snapshot_dir() -> Option<PathBuf> {
    if let Some(dir) = relock(&DIR_OVERRIDE).clone() {
        return match std::fs::create_dir_all(&dir) {
            Ok(()) => Some(dir),
            Err(_) => None,
        };
    }
    let dir = match std::env::var("COLT_SNAPSHOT_DIR") {
        Ok(raw) if raw.trim().is_empty() => {
            DIR_WARNED.call_once(|| {
                eprintln!(
                    "warning: COLT_SNAPSHOT_DIR is set but empty; snapshot \
                     persistence disabled (unset it to use results/snapshots)"
                );
            });
            return None;
        }
        Ok(raw) => PathBuf::from(raw),
        Err(std::env::VarError::NotUnicode(_)) => {
            DIR_WARNED.call_once(|| {
                eprintln!(
                    "warning: COLT_SNAPSHOT_DIR is not valid UTF-8; snapshot \
                     persistence disabled (unset it to use results/snapshots)"
                );
            });
            return None;
        }
        Err(std::env::VarError::NotPresent) => PathBuf::from("results/snapshots"),
    };
    match std::fs::create_dir_all(&dir) {
        Ok(()) => Some(dir),
        Err(e) => {
            DIR_WARNED.call_once(|| {
                eprintln!(
                    "warning: snapshot directory {} is unusable ({e}); snapshot \
                     persistence disabled for this run",
                    dir.display()
                );
            });
            None
        }
    }
}

fn snapshot_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{}.snap", fingerprint_of(key)))
}

/// Serializes and atomically writes one preparation snapshot, fsynced
/// so a later crash cannot leave a torn file behind the rename.
pub(crate) fn store_to(
    dir: &Path,
    key: &str,
    workload: &PreparedWorkload,
) -> std::io::Result<()> {
    let mut enc = Enc::new();
    enc.str(key);
    workload.encode_snapshot(&mut enc);
    let body = enc.finish();
    let path = snapshot_path(dir, key);
    let tmp = crate::artifact::unique_tmp(&path);
    let fs = crate::vfs::active();
    let written = (|| {
        use crate::vfs::acct;
        let mut f = acct("snapshot", fs.create(&tmp))?;
        acct("snapshot", f.write_all(MAGIC))?;
        acct("snapshot", f.write_all(&SNAPSHOT_VERSION.to_le_bytes()))?;
        acct("snapshot", f.write_all(&crc32(&body).to_le_bytes()))?;
        acct("snapshot", f.write_all(&body))?;
        acct("snapshot", f.sync_data())?;
        acct("snapshot", fs.rename(&tmp, &path))
    })();
    if written.is_err() {
        if let Err(re) = fs.remove_file(&tmp) {
            let _ = crate::io_faults::account("snapshot", &re);
        }
    }
    written
}

/// Loads one preparation snapshot. `None` on: no file, a stored key
/// that differs from `key` (stale or colliding — silently treated as a
/// miss and later overwritten), or corruption (quarantined loudly).
pub(crate) fn load_from(
    dir: &Path,
    key: &str,
    spec: &BenchmarkSpec,
) -> Option<PreparedWorkload> {
    let path = snapshot_path(dir, key);
    let bytes = match crate::vfs::active().read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => {
            // A read fault is a miss, not corruption: the pair simply
            // re-prepares.
            let _ = crate::io_faults::account("snapshot", &e);
            return None;
        }
    };
    match parse_snapshot(&bytes, key, spec) {
        Ok(found) => found,
        Err(why) => {
            quarantine(&path, &why);
            None
        }
    }
}

fn parse_snapshot(
    bytes: &[u8],
    key: &str,
    spec: &BenchmarkSpec,
) -> Result<Option<PreparedWorkload>, String> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(format!("truncated header ({} bytes)", bytes.len()));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err("bad magic — not a CoLT snapshot".to_string());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot format version {version}; this build speaks {SNAPSHOT_VERSION}"
        ));
    }
    let stored = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let body = &bytes[16..];
    let actual = crc32(body);
    if stored != actual {
        return Err(format!("checksum mismatch (stored {stored:08x}, computed {actual:08x})"));
    }
    let mut dec = Dec::new(body);
    let stored_key = dec.str().map_err(|e| e.to_string())?;
    if stored_key != key {
        // A valid snapshot for some other configuration that fingerprints
        // to the same name — not corruption, just a miss.
        return Ok(None);
    }
    let workload =
        PreparedWorkload::decode_snapshot(&mut dec, spec).map_err(|e| e.to_string())?;
    dec.finish().map_err(|e| e.to_string())?;
    Ok(Some(workload))
}

/// Moves an unusable snapshot to the first free `<file>.corrupt-<n>`
/// sibling — evidence is preserved, nothing corrupt is ever trusted or
/// silently deleted.
fn quarantine(path: &Path, why: &str) {
    match crate::artifact::quarantine("snapshot", path) {
        Ok(qpath) => eprintln!(
            "warning: unusable preparation snapshot {} ({why}); quarantined to {}, \
             the pair re-prepares",
            path.display(),
            qpath.display()
        ),
        Err(e) => {
            eprintln!(
                "warning: unusable preparation snapshot {} ({why}); quarantine rename \
                 failed too ({e}), the pair re-prepares",
                path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_workloads::spec::benchmark;

    fn tmpdir(tag: &str) -> crate::io_faults::TestDir {
        crate::io_faults::TestDir::new(&format!("snapcache-{tag}"))
    }

    fn prepared_pair() -> (Scenario, BenchmarkSpec, PreparedWorkload) {
        let scenario = Scenario::default_linux().with_seed(0x5AFE_CAFE);
        let spec = benchmark("Povray").unwrap();
        let w = scenario.prepare(&spec).unwrap();
        (scenario, spec, w)
    }

    /// A loaded snapshot re-encodes to the stored body byte for byte, so
    /// every decoder reproduces exactly what its encoder wrote. Mcf has
    /// the largest snapshot (the most page-table nodes); Povray is a
    /// typical one.
    #[test]
    fn store_then_load_round_trips() {
        let dir = tmpdir("roundtrip");
        let scenario = Scenario::default_linux().with_seed(0x5AFE_CAFE);
        for name in ["Povray", "Mcf"] {
            let spec = benchmark(name).unwrap();
            let w = scenario.prepare(&spec).unwrap();
            let key = prep_key(&scenario, &spec);
            store_to(&dir, &key, &w).unwrap();
            let back = load_from(&dir, &key, &spec).expect("snapshot loads");
            assert_eq!(back.scenario_name, w.scenario_name);
            assert_eq!(back.footprint, w.footprint);
            assert_eq!(back.kernel.stats(), w.kernel.stats());
            assert_eq!(
                back.contiguity().average_contiguity(),
                w.contiguity().average_contiguity()
            );
            let file = std::fs::read(snapshot_path(&dir, &key)).unwrap();
            let mut enc = Enc::new();
            enc.str(&key);
            back.encode_snapshot(&mut enc);
            assert!(
                enc.finish() == file[16..],
                "{name}: the loaded workload re-encodes differently"
            );
        }
    }

    #[test]
    fn key_mismatch_is_a_silent_miss_not_corruption() {
        let dir = tmpdir("keymiss");
        let (scenario, spec, w) = prepared_pair();
        let key = prep_key(&scenario, &spec);
        store_to(&dir, &key, &w).unwrap();
        // Forge a file under a different key's name holding this body.
        let other_key = "something else entirely";
        std::fs::rename(snapshot_path(&dir, &key), snapshot_path(&dir, other_key))
            .unwrap();
        assert!(load_from(&dir, other_key, &spec).is_none());
        // The mismatched file is left in place (a miss, not quarantined).
        assert!(snapshot_path(&dir, other_key).exists());
    }

    #[test]
    fn policy_snapshots_round_trip_and_never_answer_another_policys_key() {
        use colt_os_mem::policy::PolicyKind;
        let dir = tmpdir("policy");
        let spec = benchmark("Povray").unwrap();
        let base = Scenario::default_linux().with_seed(0x5AFE_CAFE);
        let greedy = base.clone().with_policy(PolicyKind::GreedyContig);

        // Every policy keys its own preparation snapshot.
        let mut keys: Vec<String> = PolicyKind::all()
            .iter()
            .map(|&p| prep_key(&base.clone().with_policy(p), &spec))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), PolicyKind::all().len(), "one prep key per policy");

        // A policy-built instance survives the codec with its policy
        // counters (and everything else) intact.
        let w = greedy.prepare(&spec).unwrap();
        let key = prep_key(&greedy, &spec);
        store_to(&dir, &key, &w).unwrap();
        let back = load_from(&dir, &key, &spec).expect("policy snapshot loads");
        assert_eq!(back.scenario_name, w.scenario_name);
        assert_eq!(back.kernel.stats(), w.kernel.stats());
        assert!(back.kernel.stats().policy_decisions > 0, "counters survive");
        assert_eq!(
            back.contiguity().average_contiguity(),
            w.contiguity().average_contiguity()
        );

        // The greedy snapshot filed under the default-policy key is a
        // key mismatch: a silent miss, never served, never quarantined.
        let default_key = prep_key(&base, &spec);
        std::fs::rename(snapshot_path(&dir, &key), snapshot_path(&dir, &default_key))
            .unwrap();
        assert!(load_from(&dir, &default_key, &spec).is_none());
        assert!(snapshot_path(&dir, &default_key).exists(), "miss, not quarantine");
    }

    #[test]
    fn corruption_and_version_bumps_are_quarantined() {
        let dir = tmpdir("corrupt");
        let (scenario, spec, w) = prepared_pair();
        let key = prep_key(&scenario, &spec);
        store_to(&dir, &key, &w).unwrap();
        let path = snapshot_path(&dir, &key);

        // Flip one body byte: checksum fails, file is quarantined.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_from(&dir, &key, &spec).is_none());
        assert!(!path.exists(), "corrupt file must be moved away");
        assert!(PathBuf::from(format!("{}.corrupt-1", path.display())).exists());

        // A version-bumped file (checksum valid) is quarantined too.
        store_to(&dir, &key, &w).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_from(&dir, &key, &spec).is_none());
        assert!(PathBuf::from(format!("{}.corrupt-2", path.display())).exists());

        // Truncation and garbage never parse.
        std::fs::write(&path, b"COLT").unwrap();
        assert!(load_from(&dir, &key, &spec).is_none());
    }

    #[test]
    fn store_overwrites_atomically() {
        let dir = tmpdir("overwrite");
        let (scenario, spec, w) = prepared_pair();
        let key = prep_key(&scenario, &spec);
        store_to(&dir, &key, &w).unwrap();
        store_to(&dir, &key, &w).unwrap();
        assert!(load_from(&dir, &key, &spec).is_some());
        // No stray temp files left behind.
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(strays.is_empty(), "temp files must be renamed away");
    }

    #[test]
    fn store_failure_leaves_no_tmp_and_disables_the_directory_once() {
        // A regular file posing as the snapshot directory: every
        // File::create under it fails with NotADirectory — even for
        // root, unlike permission bits.
        let parent = tmpdir("storefail");
        let dir = parent.join("not-a-dir");
        std::fs::write(&dir, b"plain file").unwrap();
        let (scenario, spec, w) = prepared_pair();
        let key = prep_key(&scenario, &spec);
        assert!(store_to(&dir, &key, &w).is_err(), "store into a file must fail");
        // The failed store is an io::Result, never a panic, and the
        // degrade path marks the directory so disk_layer() skips it.
        assert!(note_disk_failure(&dir), "first failure earns the warning");
        assert!(!note_disk_failure(&dir), "repeat failures stay quiet");
        assert!(disk_dir_disabled(&dir));
    }

    #[test]
    fn mem_cache_evicts_lru_and_counts_it() {
        // Exercise the LRU bound through a private map, not the global
        // one: shrinking the process-wide cache here would race the
        // warm-path expectations of concurrently running tests.
        let mut map: LruMap<u32> = LruMap::bounded(2);
        assert_eq!(map.insert("a".into(), 1), 0);
        assert_eq!(map.insert("b".into(), 2), 0);
        assert_eq!(map.insert("c".into(), 3), 1, "third insert evicts the LRU entry");
        assert!(map.peek("a").is_none());
        // The stats struct carries evictions alongside hits and misses.
        let stats = CacheStats { mem_evictions: 1, ..CacheStats::zero() };
        assert_eq!(stats.hits(), 0);
        assert_eq!(stats.mem_evictions, 1);
    }

    #[test]
    fn prep_keys_separate_scenarios_and_benchmarks() {
        let a = Scenario::default_linux();
        let b = Scenario::no_ths();
        let gob = benchmark("Gobmk").unwrap();
        let bzip = benchmark("Bzip2").unwrap();
        assert_ne!(prep_key(&a, &gob), prep_key(&b, &gob));
        assert_ne!(prep_key(&a, &gob), prep_key(&a, &bzip));
        assert_ne!(
            prep_key(&a, &gob),
            prep_key(&a.clone().with_seed(1), &gob),
            "the seed is part of the key"
        );
        assert_ne!(
            prep_key(&a, &gob),
            prep_key(&a.clone().with_faults(Default::default()), &gob),
            "fault injection is part of the key"
        );
    }

    /// Codec torture for the `COLTSNAP` format: every byte of the file
    /// is covered (magic and version by direct comparison, the body by
    /// the CRC, the stored CRC by the mismatch it creates), so a bit
    /// flip anywhere must make `parse_snapshot` return an error — never
    /// panic, never hand back a workload. Every header bit and the last
    /// 64 body bits are flipped exhaustively; 600 body bits in between
    /// at an odd stride.
    #[test]
    fn snapshot_parse_never_accepts_a_flipped_bit() {
        let dir = tmpdir("flip-torture");
        let (scenario, spec, w) = prepared_pair();
        let key = prep_key(&scenario, &spec);
        store_to(&dir, &key, &w).unwrap();
        let mut bytes = std::fs::read(snapshot_path(&dir, &key)).unwrap();
        let header_bits = 16 * 8;
        let stride = ((bytes.len() * 8 - header_bits) / 600).max(1) | 1;
        let flips = (0..header_bits)
            .chain((header_bits..bytes.len() * 8).step_by(stride))
            .chain(bytes.len() * 8 - 64..bytes.len() * 8);
        for bit in flips {
            let mask = 1 << (bit % 8);
            bytes[bit / 8] ^= mask;
            assert!(
                parse_snapshot(&bytes, &key, &spec).is_err(),
                "bit {bit} flipped without the parser noticing"
            );
            bytes[bit / 8] ^= mask;
        }
    }

    /// Truncation at every header prefix (exhaustive) and at strided
    /// body prefixes is rejected — a torn snapshot never loads.
    #[test]
    fn snapshot_parse_rejects_every_truncation() {
        let dir = tmpdir("trunc-torture");
        let (scenario, spec, w) = prepared_pair();
        let key = prep_key(&scenario, &spec);
        store_to(&dir, &key, &w).unwrap();
        let bytes = std::fs::read(snapshot_path(&dir, &key)).unwrap();
        let stride = ((bytes.len() - 64) / 100).max(1) | 1;
        let lens = (0..64.min(bytes.len()))
            .chain((64..bytes.len()).step_by(stride))
            .chain(bytes.len().saturating_sub(8)..bytes.len());
        for len in lens {
            assert!(
                parse_snapshot(&bytes[..len], &key, &spec).is_err(),
                "a {len}-byte prefix parsed as a whole snapshot"
            );
        }
    }
}
