//! `repro serve` — a resident translation/sweep server over TCP.
//!
//! A long-running process (std-only threads + TCP, line-delimited JSON
//! requests and responses) answers two kinds of work:
//!
//! * **translate** — simulate one (benchmark, TLB config, scenario)
//!   cell. Requests wait in a *bounded* queue for one of `--jobs`
//!   long-lived translate workers. A worker obtains the cell's
//!   preparation through [`snapshot_cache`] (its memory LRU, then disk
//!   snapshots, then a fresh build) behind a per-key single-flight, so
//!   a burst of cold requests for one pair prepares it once; then it
//!   simulates the cell and answers at once. No request waits for
//!   another request's cell to finish.
//! * **sweep** — run a full named experiment (`fig18`, `table1`, …) and
//!   return its CSV bytes. Responses are cached in an LRU keyed by the
//!   sweep fingerprint ([`ExperimentOptions::fingerprint`]), identical
//!   in-flight requests are coalesced behind a single leader
//!   (single-flight), and the bytes carry a determinism guarantee: a
//!   sweep served over the socket is byte-identical to the same sweep
//!   run directly (`repro <exp> --csv`), because both route through
//!   [`run_named`] and [`sweep_csv`].
//!
//! Resource lifetime is the design center — a resident process cannot
//! rely on dying before its caches matter:
//!
//! * every cache is a bounded [`LruMap`] (the result cache, and the
//!   snapshot cache's memory layer of
//!   [`DEFAULT_MEM_CAP`](crate::snapshot_cache::DEFAULT_MEM_CAP) entries),
//! * the dispatch queue is bounded; a full queue is a *polite* `busy`
//!   rejection, not an unbounded pile-up (backpressure), and so is a
//!   connection past [`MAX_CONNS`],
//! * snapshot-cache stats are drained after every preparation and
//!   sweep (runner metrics after every sweep) into fixed-size counters,
//!   so nothing grows with uptime.
//!
//! ## Protocol
//!
//! One JSON object per line in, one JSON object per line out:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"translate","benchmark":"Gobmk","config":"colt_all",
//!  "scenario":"default","accesses":20000,"seed":24301}
//! {"op":"sweep","experiment":"fig18","accesses":30000,
//!  "bench":"Gobmk,Bzip2","cores":1}
//! {"op":"shutdown"}
//! ```
//!
//! Every response carries `"ok": true|false`; rejections carry
//! `"rejected": "busy"|"shed"|"too_large"|"deadline"|"malformed"`
//! so clients can distinguish overload from errors. Requests may carry
//! `"deadline_ms"` (per-request deadline, clamped to 600 s).
//! A retried sweep needs no key of its own: it carries the same sweep
//! key, so it joins the in-flight leader or hits the result cache. See
//! DESIGN.md §13 for the serving architecture and the mechanism ledger,
//! §15 for the chaos-hardening layer ([`chaos`], deadlines, shedding,
//! graceful drain), and `repro serve-bench` ([`crate::serve_bench`])
//! for the load generator.

use crate::experiments::{run_named, ExperimentOptions};
use crate::journal::{fingerprint_of, Opened};
use crate::lru::LruMap;
use crate::runner;
use crate::sim::{self, SimConfig, SimResult};
use crate::{panic_message, relock, snapshot_cache};
use chaos::{ChaosFault, ChaosStream};
use colt_os_mem::faults::{Counts, FaultConfig};
use colt_os_mem::policy::PolicyKind;
use json::obj;
use colt_tlb::config::TlbConfig;
use colt_workloads::scenario::{PreparedWorkload, Scenario};
use colt_workloads::spec::{benchmark, BenchmarkSpec};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub mod chaos;
pub mod json;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Concurrent connections accepted; the next one reads a single
/// `"rejected": "busy"` line and is closed.
pub const MAX_CONNS: usize = 64;

/// Sweep results retained in the LRU result cache.
const RESULT_CACHE_CAP: usize = 64;

/// Longest request line accepted, in bytes; past it the line is drained
/// and rejected with `"rejected": "too_large"` (the connection stays
/// usable).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Ceiling on per-request deadlines. Requests may ask for less via
/// `"deadline_ms"`; past the deadline the request is rejected with
/// `"rejected": "deadline"` and its queue slot freed.
const DEADLINE_MS: u64 = 600_000;

/// Graceful-drain budget at shutdown: how long to wait for in-flight
/// sweep leaders before declaring the drain dirty.
const DRAIN_MS: u64 = 30_000;

/// Server settings. Every bound exists because the process is resident:
/// an unbounded queue or cache is a slow-motion OOM under heavy
/// traffic. Bounds nobody tunes are the constants above; the fields are
/// the deployment settings, the bounds tests shrink to reach them
/// deterministically, and what in-process callers set or read.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// TCP port (0 = ephemeral; the chosen port is printed and written
    /// to `port_file`).
    pub port: u16,
    /// Where to write the bound port (for scripts that start the server
    /// with `--port 0` and need to find it).
    pub port_file: Option<PathBuf>,
    /// Translate worker threads, and the width of each sweep.
    pub jobs: usize,
    /// Bound on the translate dispatch queue; a full queue rejects with
    /// `"rejected": "busy"` (backpressure, not buffering).
    pub queue_cap: usize,
    /// Upper bound on per-request access budgets (a client asking for
    /// billions of references is clamped, loudly, in the response).
    pub max_accesses: u64,
    /// Dispatch-queue high-water mark past which sweeps are shed
    /// (`"rejected": "shed"`) while translates still queue — load is
    /// shed by op priority. `None` derives ~3/4 of `queue_cap`.
    pub queue_high_water: Option<usize>,
    /// How long a partially written request line may stall before the
    /// client is evicted (and how long a response write may block).
    pub slow_client_ms: u64,
    /// Where to persist the sweep result cache at graceful drain (and
    /// reload it from at startup). `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Deterministic network-fault injection (soak harness); `None` in
    /// production.
    pub chaos: Option<FaultConfig>,
    /// Suppress the listening/summary lines (in-process callers).
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            port: 0,
            port_file: None,
            jobs: crate::experiments::default_jobs(),
            queue_cap: 256,
            max_accesses: 10_000_000,
            queue_high_water: None,
            slow_client_ms: 10_000,
            cache_dir: None,
            chaos: None,
            quiet: false,
        }
    }
}

impl ServeConfig {
    fn normalized(mut self) -> Self {
        self.jobs = self.jobs.max(1);
        self.max_accesses = self.max_accesses.max(1);
        self.slow_client_ms = self.slow_client_ms.max(1);
        self
    }

    /// The resolved shedding threshold. An explicit `Some(0)` sheds
    /// every sweep (tests); with no explicit mark a zero-capacity queue
    /// (backpressure tests) never sheds — translates already bounce.
    fn high_water(&self) -> usize {
        match self.queue_high_water {
            Some(n) => n,
            None if self.queue_cap == 0 => usize::MAX,
            None => (self.queue_cap * 3 / 4).max(1),
        }
    }
}

// ---------------------------------------------------------------------
// Server state
// ---------------------------------------------------------------------

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    translates: AtomicU64,
    sweeps: AtomicU64,
    sweep_cache_hits: AtomicU64,
    sweep_coalesced: AtomicU64,
    sweep_cache_evictions: AtomicU64,
    rejected_busy: AtomicU64,
    rejected_conns: AtomicU64,
    failed_cells: AtomicU64,
    prep_mem_hits: AtomicU64,
    prep_disk_hits: AtomicU64,
    prep_misses: AtomicU64,
    prep_evictions: AtomicU64,
    bad_requests: AtomicU64,
    rejected_malformed: AtomicU64,
    rejected_too_large: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_shed: AtomicU64,
    evicted_slow: AtomicU64,
    panics: AtomicU64,
}

impl Counters {
    fn add(&self, field: &AtomicU64, n: u64) {
        let _ = self;
        field.fetch_add(n, Ordering::Relaxed);
    }
}

/// One coalesced in-flight computation: the leader computes, followers
/// wait on the condvar and share the leader's value. Sweeps coalesce on
/// their result-cache key, translate preparations on their preparation
/// key.
struct Flight<T> {
    done: Mutex<Option<Result<T, String>>>,
    cv: Condvar,
}

impl<T: Clone> Flight<T> {
    /// Joins the flight `map` holds for `key`, or starts one there;
    /// `true` when the caller leads it. The leader must [`land`] it and
    /// then take it out of the map.
    ///
    /// [`land`]: Flight::land
    fn join(map: &mut HashMap<String, Arc<Self>>, key: &str) -> (Arc<Self>, bool) {
        if let Some(f) = map.get(key) {
            return (Arc::clone(f), false);
        }
        let f = Arc::new(Flight { done: Mutex::new(None), cv: Condvar::new() });
        map.insert(key.to_string(), Arc::clone(&f));
        (f, true)
    }

    /// Stores the leader's outcome and wakes every follower.
    fn land(&self, outcome: Result<T, String>) {
        *relock(&self.done) = Some(outcome);
        self.cv.notify_all();
    }

    /// The leader's outcome, waiting for as long as it takes.
    fn wait(&self) -> Result<T, String> {
        let mut done = relock(&self.done);
        loop {
            if let Some(outcome) = done.as_ref() {
                return outcome.clone();
            }
            done = self.cv.wait(done).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// One queued translate request: the work plus where to send its result.
struct TranslateJob {
    scenario: Scenario,
    spec: BenchmarkSpec,
    sim_cfg: SimConfig,
    /// Past this instant the work is dropped unrun (a worker checks
    /// when it takes the job) and the handler answers `"rejected":
    /// "deadline"`.
    deadline: Instant,
    reply: mpsc::Sender<Answer>,
}

/// What a translate worker sends back for one job.
enum Answer {
    Simulated(SimResult),
    /// The deadline passed while the job was queued; nothing ran.
    Expired,
    /// The preparation failed, or the simulation panicked.
    Failed(String),
}

/// Shared server state; everything handler, translate-worker, and
/// accept threads touch.
pub struct ServerState {
    cfg: ServeConfig,
    port: u16,
    results: Mutex<LruMap<Arc<String>>>,
    inflight: Mutex<HashMap<String, Arc<Flight<Arc<String>>>>>,
    /// Preparations being obtained right now, by preparation key: a
    /// worker that needs one waits for its leader instead of preparing
    /// the pair a second time.
    preps: Mutex<HashMap<String, Arc<Flight<Arc<PreparedWorkload>>>>>,
    /// Sweeps run one at a time: the experiment drivers push into the
    /// process-global metrics registry, and serializing them keeps the
    /// drain attributable (and the peak footprint bounded).
    sweep_gate: Mutex<()>,
    queue: Mutex<VecDeque<TranslateJob>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    active_conns: AtomicU64,
    /// Sweep leaders whose compute thread has not yet landed its bytes;
    /// graceful drain waits for this to hit zero.
    inflight_sweeps: AtomicU64,
    /// Armed only by the `repro chaos-serve` soak harness.
    chaos: Option<Mutex<chaos::ChaosPlan>>,
    c: Counters,
}

impl ServerState {
    /// The port the server bound.
    pub fn port(&self) -> u16 {
        self.port
    }

    fn absorb_cache_stats(&self) {
        let s = snapshot_cache::take_stats();
        self.c.add(&self.c.prep_mem_hits, s.mem_hits);
        self.c.add(&self.c.prep_disk_hits, s.disk_hits);
        self.c.add(&self.c.prep_misses, s.misses);
        self.c.add(&self.c.prep_evictions, s.mem_evictions);
    }
}

// ---------------------------------------------------------------------
// The determinism anchor
// ---------------------------------------------------------------------

/// The exact bytes `repro <experiment> --csv` prints: each table's CSV
/// followed by one newline. The serve determinism guarantee is stated
/// against this function — the socket path and the direct path both
/// call it, so they cannot drift apart.
///
/// # Errors
/// A message for an unknown experiment name (nothing runs).
pub fn sweep_csv(experiment: &str, opts: &ExperimentOptions) -> Result<String, String> {
    let run = run_named(experiment, opts)
        .ok_or_else(|| format!("unknown experiment '{experiment}'"))?;
    let mut out = String::new();
    for table in &run.output.tables {
        out.push_str(&table.to_csv());
        out.push('\n');
    }
    Ok(out)
}

/// The experiment options a sweep request resolves to. Shared with
/// `serve-bench --verify-sweep`, which must build the *identical*
/// options for its direct in-process run.
pub fn sweep_options(
    accesses: Option<u64>,
    bench: Option<&str>,
    cores: Option<u64>,
    policy: PolicyKind,
    jobs: usize,
    max_accesses: u64,
) -> ExperimentOptions {
    let mut opts = ExperimentOptions { jobs: jobs.max(1), policy, ..ExperimentOptions::default() };
    if let Some(a) = accesses {
        opts.accesses = a.clamp(1, max_accesses);
    }
    if let Some(list) = bench {
        let names: Vec<String> = list
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if !names.is_empty() {
            opts.benchmarks = Some(names);
        }
    }
    if let Some(c) = cores {
        opts.cores = (c.max(1)) as usize;
    }
    opts
}

/// The result-cache key for one sweep request. The fingerprint alone is
/// an 8-hex CRC32 — cheap, but collisions are conceivable — so the key
/// keeps the experiment name alongside it.
fn sweep_key(experiment: &str, opts: &ExperimentOptions) -> String {
    format!("{experiment};{}", opts.fingerprint(experiment))
}

// ---------------------------------------------------------------------
// Startup / shutdown
// ---------------------------------------------------------------------

/// A started server: the bound port plus the threads to join.
pub struct ServerHandle {
    /// The port actually bound (useful with `port: 0`).
    pub port: u16,
    state: Arc<ServerState>,
    accept: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// What the server did over its lifetime, printed at clean shutdown.
#[derive(Clone, Copy, Debug)]
pub struct ServeSummary {
    /// Total requests parsed (all ops).
    pub requests: u64,
    /// Translate cells simulated.
    pub translates: u64,
    /// Sweeps requested (cached or computed).
    pub sweeps: u64,
    /// Sweeps answered from the LRU result cache.
    pub sweep_cache_hits: u64,
    /// Sweeps coalesced behind an identical in-flight leader.
    pub sweep_coalesced: u64,
    /// Requests politely rejected under backpressure (full queue).
    pub rejected_busy: u64,
    /// Sweeps shed past the dispatch-queue high-water mark.
    pub rejected_shed: u64,
    /// Request lines rejected for exceeding the line-length bound.
    pub rejected_too_large: u64,
    /// Requests that ran out of deadline before an answer landed.
    pub rejected_deadline: u64,
    /// Request lines rejected as unparseable JSON.
    pub rejected_malformed: u64,
    /// Connections evicted for stalling mid-request-line.
    pub evicted_slow: u64,
    /// Sweep computations that panicked (caught; the server survived).
    pub panics: u64,
    /// Dispatched cells that failed (the shutdown summary's
    /// "quarantined cells" count, a wording `scripts/verify.sh` greps).
    pub failed_cells: u64,
    /// Network faults injected by the chaos plan, by kind (zero when
    /// unarmed).
    pub chaos: Counts<ChaosFault>,
    /// Sweep-cache entries persisted to `cache_dir` at drain.
    pub persisted: u64,
    /// True when every in-flight sweep landed and the queue emptied
    /// within the drain budget.
    pub drained_clean: bool,
}

impl ServeSummary {
    /// The shutdown report `scripts/verify.sh` greps ("clean shutdown",
    /// "quarantined cells: N").
    pub fn render(&self) -> String {
        let mut line = format!(
            "repro serve: clean shutdown — {} request(s): {} translate(s), \
             {} sweep(s) ({} cached, {} coalesced), \
             {} busy-rejected, {} shed, {} too-large, {} deadline, \
             {} malformed, {} slow-evicted, {} panic(s), quarantined cells: {}, \
             drain: {}",
            self.requests,
            self.translates,
            self.sweeps,
            self.sweep_cache_hits,
            self.sweep_coalesced,
            self.rejected_busy,
            self.rejected_shed,
            self.rejected_too_large,
            self.rejected_deadline,
            self.rejected_malformed,
            self.evicted_slow,
            self.panics,
            self.failed_cells,
            if self.drained_clean { "clean" } else { "timed out" },
        );
        if self.persisted > 0 {
            line.push_str(&format!(", persisted {} cached sweep(s)", self.persisted));
        }
        if self.chaos.total() > 0 {
            line.push_str(&format!(
                ", chaos: {} fault(s) injected ({} torn, {} reset, {} stalled, {} accept)",
                self.chaos.total(),
                self.chaos.get(ChaosFault::TornFrame),
                self.chaos.get(ChaosFault::Reset),
                self.chaos.get(ChaosFault::Stall),
                self.chaos.get(ChaosFault::AcceptHiccup),
            ));
        }
        line
    }
}

impl ServerHandle {
    /// Initiates shutdown from the owning process, exactly as a
    /// `{"op":"shutdown"}` request would. The escape hatch for the
    /// chaos soak: at extreme fault rates every polite shutdown
    /// attempt can be eaten by the plan itself, and [`wait`] would
    /// otherwise block forever.
    ///
    /// [`wait`]: ServerHandle::wait
    pub fn trigger_shutdown(&self) {
        nudge_shutdown(&self.state);
    }

    /// Blocks until the server shuts down (a client sent
    /// `{"op":"shutdown"}`), then returns the lifetime summary.
    pub fn wait(self) -> ServeSummary {
        let _ = self.accept.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        // Handler threads exit within one read-timeout tick of the
        // shutdown flag; give stragglers a bounded grace period.
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.state.active_conns.load(Ordering::SeqCst) > 0
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        // Graceful drain: in-flight sweep leaders keep computing past
        // their clients' deadlines (the bytes land in the cache); give
        // them the drain budget to finish instead of losing the work.
        let drain_deadline = Instant::now() + Duration::from_millis(DRAIN_MS);
        let mut drained_clean = true;
        while self.state.inflight_sweeps.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= drain_deadline {
                drained_clean = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // The workers drain the queue before exiting; anything left is a
        // job that slipped in after they looked — a leaked slot.
        if !relock(&self.state.queue).is_empty() {
            drained_clean = false;
        }
        let persisted = persist_results(&self.state);
        let c = &self.state.c;
        ServeSummary {
            requests: c.requests.load(Ordering::Relaxed),
            translates: c.translates.load(Ordering::Relaxed),
            sweeps: c.sweeps.load(Ordering::Relaxed),
            sweep_cache_hits: c.sweep_cache_hits.load(Ordering::Relaxed),
            sweep_coalesced: c.sweep_coalesced.load(Ordering::Relaxed),
            rejected_busy: c.rejected_busy.load(Ordering::Relaxed),
            rejected_shed: c.rejected_shed.load(Ordering::Relaxed),
            rejected_too_large: c.rejected_too_large.load(Ordering::Relaxed),
            rejected_deadline: c.rejected_deadline.load(Ordering::Relaxed),
            rejected_malformed: c.rejected_malformed.load(Ordering::Relaxed),
            evicted_slow: c.evicted_slow.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            failed_cells: c.failed_cells.load(Ordering::Relaxed),
            chaos: self
                .state
                .chaos
                .as_ref()
                .map_or_else(Counts::default, |p| relock(p).counts()),
            persisted,
            drained_clean,
        }
    }
}

/// Current sweep-cache schema. v2 appends a `crc` field — a CRC32 over
/// every byte before the `, "crc"` key (the journal-line convention) —
/// so a bit flip anywhere in the entry is caught at load time instead
/// of silently warming the cache with corrupt bytes.
pub(crate) const CACHE_SCHEMA: &str = "colt-serve-cache/v2";

/// Encodes one sweep-cache entry in the v2 on-disk format.
pub(crate) fn encode_cache_entry(key: &str, bytes: &str) -> String {
    crate::journal::seal(&obj! { "schema" => CACHE_SCHEMA, "key" => key, "bytes" => bytes })
}

/// Decodes and integrity-checks one cache entry. `Ok(Some((key,
/// bytes)))` is a loadable v2 entry; `Ok(None)` is a healthy file this
/// build does not load (a legacy `colt-serve-cache/v1` entry or a
/// foreign artifact — skipped, never quarantined); `Err(reason)` is
/// corruption the caller must quarantine. The CRC gate runs before the
/// schema match so a flip anywhere in the prefix — including inside the
/// schema or key strings — is reported as corrupt, not mis-skipped.
pub(crate) fn decode_cache_entry(text: &str) -> Result<Option<(String, String)>, String> {
    match crate::journal::open(text, CACHE_SCHEMA) {
        Opened::Record(doc) => {
            let field = |key| doc.get(key).and_then(json::Json::as_str).map(str::to_string);
            Ok(field("key").zip(field("bytes")))
        }
        Opened::OtherSchema(_) => Ok(None),
        Opened::Corrupt(why) => Err(why),
    }
}

/// Cache dirs that already warned about a persist failure. Matches the
/// snapshot cache's degradation contract: an unwritable dir drops the
/// server to mem-only persistence with exactly one warning per dir.
static CACHE_DIR_WARNED: Mutex<Option<std::collections::BTreeSet<PathBuf>>> = Mutex::new(None);

fn note_cache_dir_failure(dir: &std::path::Path) -> bool {
    let mut warned = CACHE_DIR_WARNED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    warned
        .get_or_insert_with(Default::default)
        .insert(dir.to_path_buf())
}

/// Persists one sweep-cache entry into `dir` (atomic, fsynced,
/// CRC-stamped). Shared with the torture harness, which persists and
/// reloads entries around simulated power cuts.
pub(crate) fn persist_cache_entry(
    dir: &std::path::Path,
    key: &str,
    bytes: &str,
) -> std::io::Result<PathBuf> {
    let body = encode_cache_entry(key, bytes);
    let path = dir.join(format!("sweep-{}.json", fingerprint_of(key)));
    crate::artifact::atomic_write_json(&path, &body)?;
    Ok(path)
}

/// Persists every cached sweep result to `cache_dir` at graceful drain
/// — one fsynced JSON artifact per entry, written atomically via
/// [`crate::artifact::atomic_write_json`]. Returns how many landed. A
/// persist failure (full or unwritable disk) degrades to mem-only with
/// one warning per dir; the remaining entries are skipped since they
/// would fail the same way.
fn persist_results(state: &ServerState) -> u64 {
    let Some(dir) = &state.cfg.cache_dir else { return 0 };
    let results = relock(&state.results);
    let mut persisted = 0;
    for (key, bytes) in results.iter() {
        match persist_cache_entry(dir, key, bytes) {
            Ok(_) => persisted += 1,
            Err(e) => {
                if note_cache_dir_failure(dir) && !state.cfg.quiet {
                    eprintln!(
                        "repro serve: cache dir {} is unwritable ({e}); \
                         continuing mem-only",
                        dir.display()
                    );
                }
                break;
            }
        }
    }
    persisted
}

/// Reads every `sweep-*.json` entry under `dir` exactly once (through
/// the active [`crate::vfs`] seam, so injected read faults land here),
/// quarantining anything corrupt. Returns the decoded entries plus the
/// quarantine count. Shared with the torture harness.
pub(crate) fn load_cache_entries(
    dir: &std::path::Path,
    quiet: bool,
) -> (Vec<(String, String)>, u64) {
    let Ok(dirents) = std::fs::read_dir(dir) else { return (Vec::new(), 0) };
    let mut paths: Vec<PathBuf> = dirents
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("sweep-") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    let fs = crate::vfs::active();
    let mut entries = Vec::new();
    let mut quarantined = 0;
    for path in paths {
        // One read per file: reading again for a corruption check would
        // draw the fault plan twice and desynchronize the schedule.
        let text = match crate::vfs::acct("serve-cache", fs.read(&path)) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
            // A read fault is a cold cache miss, not corruption.
            Err(_) => continue,
        };
        match decode_cache_entry(&text) {
            Ok(Some(entry)) => entries.push(entry),
            Ok(None) => {}
            Err(why) => {
                quarantined += 1;
                match crate::artifact::quarantine("serve-cache", &path) {
                    Ok(dest) if !quiet => eprintln!(
                        "repro serve: quarantined corrupt cache artifact {} -> {} ({why})",
                        path.display(),
                        dest.display()
                    ),
                    Err(e) if !quiet => eprintln!(
                        "repro serve: corrupt cache artifact {} ({why}); \
                         quarantine failed: {e}",
                        path.display()
                    ),
                    _ => {}
                }
            }
        }
    }
    (entries, quarantined)
}

/// Reloads sweep results persisted by an earlier drain, quarantining
/// (and reporting) any artifact that no longer parses or fails its
/// checksum. Returns `(loaded, quarantined)`.
fn load_persisted_results(
    dir: &std::path::Path,
    results: &Mutex<LruMap<Arc<String>>>,
    quiet: bool,
) -> (u64, u64) {
    let (entries, quarantined) = load_cache_entries(dir, quiet);
    let loaded = entries.len() as u64;
    for (key, bytes) in entries {
        relock(results).insert(key, Arc::new(bytes));
    }
    (loaded, quarantined)
}

/// Binds, spawns the accept thread and `jobs` translate workers, and
/// returns. The caller drives [`ServerHandle::wait`] for the summary.
///
/// # Errors
/// Propagates bind, port-file and thread-spawn I/O errors; nothing is
/// left running then.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let cfg = cfg.normalized();
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    let port = listener.local_addr()?.port();
    if let Some(path) = &cfg.port_file {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, format!("{port}\n"))?;
    }
    let results = Mutex::new(LruMap::bounded(RESULT_CACHE_CAP));
    if let Some(dir) = &cfg.cache_dir {
        // Startup hygiene, mirroring `repro`'s results/ sweep: report
        // quarantines left by earlier runs and clear tmp litter from
        // writes that lost power mid-rename.
        let leftover = crate::artifact::find_quarantined(dir);
        if !cfg.quiet && !leftover.is_empty() {
            eprintln!(
                "repro serve: {} quarantined artifact(s) under {} (first: {})",
                leftover.len(),
                dir.display(),
                leftover[0].display()
            );
        }
        let swept = crate::artifact::sweep_tmp_litter(dir);
        if !cfg.quiet && !swept.is_empty() {
            eprintln!(
                "repro serve: removed {} leaked tmp file(s) from {}",
                swept.len(),
                dir.display()
            );
        }
        let (loaded, quarantined) = load_persisted_results(dir, &results, cfg.quiet);
        if !cfg.quiet && (loaded > 0 || quarantined > 0) {
            println!(
                "repro serve: warmed {loaded} cached sweep(s) from {} \
                 ({quarantined} quarantined)",
                dir.display()
            );
        }
    }
    let state = Arc::new(ServerState {
        results,
        inflight: Mutex::new(HashMap::new()),
        preps: Mutex::new(HashMap::new()),
        sweep_gate: Mutex::new(()),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        active_conns: AtomicU64::new(0),
        inflight_sweeps: AtomicU64::new(0),
        chaos: cfg.chaos.map(|c| Mutex::new(chaos::ChaosPlan::new(c))),
        c: Counters::default(),
        port,
        cfg,
    });

    let mut workers = Vec::with_capacity(state.cfg.jobs);
    let spawned = (0..state.cfg.jobs)
        .try_for_each(|_| {
            let state = Arc::clone(&state);
            let worker = std::thread::Builder::new()
                .name("serve-translate".into())
                .spawn(move || translate_worker(&state))?;
            workers.push(worker);
            Ok(())
        })
        .and_then(|()| {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &state))
        });
    match spawned {
        Ok(accept) => Ok(ServerHandle { port, state, accept, workers }),
        Err(e) => {
            // The workers already running see the flag at their next
            // queue wait and exit.
            state.shutdown.store(true, Ordering::SeqCst);
            Err(e)
        }
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if state.shutdown.load(Ordering::SeqCst) {
            // The self-connect nudge (or a late client) after shutdown.
            return;
        }
        // Chaos: a listen-queue hiccup — accept, then drop on the floor.
        // The client sees an instant close and must retry.
        if let Some(plan) = &state.chaos {
            if relock(plan).accept_hiccup() {
                drop(stream);
                continue;
            }
        }
        if state.active_conns.load(Ordering::SeqCst) >= MAX_CONNS as u64 {
            state.c.add(&state.c.rejected_conns, 1);
            let mut s = stream;
            let _ = writeln!(s, "{}", reject_line("busy", "too many connections"));
            continue;
        }
        state.active_conns.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(state);
        let _ = std::thread::Builder::new().name("serve-conn".into()).spawn(move || {
            handle_connection(stream, &state);
            state.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// Wakes everything blocked on I/O or condvars so shutdown converges.
fn nudge_shutdown(state: &ServerState) {
    state.shutdown.store(true, Ordering::SeqCst);
    state.queue_cv.notify_all();
    // Unblock the accept loop with a throwaway connection.
    let _ = TcpStream::connect(("127.0.0.1", state.port));
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

/// What one request-line read produced.
enum ReadLine {
    /// A complete (bounded) line.
    Line(String),
    /// The line exceeded [`MAX_LINE_BYTES`]; it was drained to its
    /// newline and discarded. The connection stays usable.
    TooLarge,
    /// The client stalled mid-line past `slow_client_ms`; evict it.
    Evicted,
    /// EOF, a hard error, or server shutdown.
    Closed,
}

/// Reads one `\n`-terminated line, tolerating read timeouts (used to
/// poll the shutdown flag). `read_until` keeps partial bytes in `buf`
/// across timeouts, so slow writers are reassembled, not dropped —
/// but a line is only reassembled up to [`MAX_LINE_BYTES`] (past it the
/// rest is drained and the line rejected, never buffered), and a
/// client that stalls mid-line past `slow_client_ms` is evicted. An
/// idle connection *between* requests is never evicted: the timer only
/// runs while a partial line is outstanding.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    state: &ServerState,
) -> ReadLine {
    let mut discarding = false;
    let mut partial_since: Option<Instant> = None;
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return ReadLine::Closed;
        }
        if let Some(t0) = partial_since {
            if t0.elapsed() >= Duration::from_millis(state.cfg.slow_client_ms) {
                buf.clear();
                return ReadLine::Evicted;
            }
        }
        match reader.read_until(b'\n', buf) {
            Ok(0) => {
                // EOF; any partial bytes are the (unterminated) last line.
                if discarding || buf.is_empty() {
                    buf.clear();
                    return ReadLine::Closed;
                }
                let line = String::from_utf8_lossy(buf).into_owned();
                buf.clear();
                return ReadLine::Line(line);
            }
            Ok(_) => {
                let complete = buf.last() == Some(&b'\n');
                if discarding {
                    buf.clear();
                    if complete {
                        return ReadLine::TooLarge;
                    }
                    continue;
                }
                if complete {
                    if buf.len() > MAX_LINE_BYTES {
                        buf.clear();
                        return ReadLine::TooLarge;
                    }
                    let line = String::from_utf8_lossy(buf).trim_end().to_string();
                    buf.clear();
                    return ReadLine::Line(line);
                }
                // Delimiter not reached. Cap what a slow writer may
                // make the server buffer; past the cap, drain-and-drop.
                if buf.len() > MAX_LINE_BYTES {
                    buf.clear();
                    discarding = true;
                }
                if partial_since.is_none() {
                    partial_since = Some(Instant::now());
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                // A timeout with bytes already buffered (or a drain in
                // progress) is a mid-line stall — start the eviction
                // clock. `read_until` reports partial progress as this
                // error, not `Ok`, so this is where stalls surface.
                if (discarding || !buf.is_empty()) && partial_since.is_none() {
                    partial_since = Some(Instant::now());
                }
                continue;
            }
            Err(_) => return ReadLine::Closed,
        }
    }
}

fn err_line(msg: &str) -> String {
    obj! { "ok" => false, "error" => msg }.line()
}

fn reject_line(kind: &str, msg: &str) -> String {
    obj! { "ok" => false, "error" => msg, "rejected" => kind }.line()
}

/// Writes one response line, routing it through the chaos plan when
/// one is armed. Returns `false` when the connection is unusable
/// afterwards — including when chaos just made it so (a torn frame or
/// reset closes the socket; the *server* stays healthy and the client
/// is expected to retry).
fn send_line(state: &ServerState, writer: &mut TcpStream, line: &str) -> bool {
    let fault = match &state.chaos {
        Some(plan) => relock(plan).response_fault(),
        None => chaos::ResponseFault::Deliver,
    };
    match fault {
        chaos::ResponseFault::Deliver => {}
        chaos::ResponseFault::TornFrame => {
            let bytes = line.as_bytes();
            let cut = state
                .chaos
                .as_ref()
                .map_or(1, |plan| relock(plan).tear_at(bytes.len()));
            let _ = writer.write_all(&bytes[..cut.min(bytes.len())]);
            let _ = writer.shutdown(std::net::Shutdown::Both);
            return false;
        }
        chaos::ResponseFault::Reset => {
            let _ = writer.shutdown(std::net::Shutdown::Both);
            return false;
        }
        chaos::ResponseFault::Stall(pause) => std::thread::sleep(pause),
    }
    writeln!(writer, "{line}").is_ok()
}

/// The per-request deadline: the request's `"deadline_ms"` clamped to
/// [`DEADLINE_MS`] (absent means the ceiling itself).
fn request_deadline(request: &json::Json) -> (Instant, u64) {
    let ms = request
        .get("deadline_ms")
        .and_then(json::Json::as_u64)
        .unwrap_or(DEADLINE_MS)
        .clamp(1, DEADLINE_MS);
    (Instant::now() + Duration::from_millis(ms), ms)
}

fn handle_connection(stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream
        .set_write_timeout(Some(Duration::from_millis(state.cfg.slow_client_ms)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let line = match read_line(&mut reader, &mut buf, state) {
            ReadLine::Line(l) => l,
            ReadLine::TooLarge => {
                state.c.add(&state.c.rejected_too_large, 1);
                let reject = reject_line(
                    "too_large",
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                if !send_line(state, &mut writer, &reject) {
                    return;
                }
                continue;
            }
            ReadLine::Evicted => {
                state.c.add(&state.c.evicted_slow, 1);
                let _ = send_line(
                    state,
                    &mut writer,
                    &err_line(&format!(
                        "evicted: request line stalled past {}ms",
                        state.cfg.slow_client_ms
                    )),
                );
                let _ = writer.shutdown(std::net::Shutdown::Both);
                return;
            }
            ReadLine::Closed => return,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        state.c.add(&state.c.requests, 1);
        let request = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                state.c.add(&state.c.bad_requests, 1);
                state.c.add(&state.c.rejected_malformed, 1);
                let reject = reject_line("malformed", &format!("bad request JSON: {e}"));
                if !send_line(state, &mut writer, &reject) {
                    return;
                }
                continue;
            }
        };
        let op = request.get("op").and_then(json::Json::as_str).unwrap_or("");
        let (deadline, deadline_ms) = request_deadline(&request);
        let response = match op {
            "ping" => obj! { "ok" => true, "op" => "ping" }.line(),
            "stats" => stats_line(state),
            "translate" => handle_translate(state, &request, deadline, deadline_ms),
            "sweep" => handle_sweep(state, &request, deadline, deadline_ms),
            "shutdown" => {
                // The shutdown ack is exempt from chaos: the harness
                // must always be able to stop the server it started.
                let _ = writeln!(writer, "{}", obj! { "ok" => true, "op" => "shutdown" }.line());
                let _ = writer.flush();
                nudge_shutdown(state);
                return;
            }
            other => {
                state.c.add(&state.c.bad_requests, 1);
                err_line(&format!(
                    "unknown op '{other}' (valid: ping stats translate sweep shutdown)"
                ))
            }
        };
        if !send_line(state, &mut writer, &response) {
            return;
        }
    }
}

fn stats_line(state: &ServerState) -> String {
    let c = &state.c;
    let load = |f: &AtomicU64| f.load(Ordering::Relaxed);
    let chaos = state.chaos.as_ref().map_or_else(Counts::default, |p| relock(p).counts());
    obj! {
        "ok" => true,
        "op" => "stats",
        "requests" => load(&c.requests),
        "translates" => load(&c.translates),
        "sweeps" => load(&c.sweeps),
        "sweep_cache_hits" => load(&c.sweep_cache_hits),
        "sweep_coalesced" => load(&c.sweep_coalesced),
        "sweep_cache_evictions" => load(&c.sweep_cache_evictions),
        "rejected_busy" => load(&c.rejected_busy),
        "rejected_conns" => load(&c.rejected_conns),
        "rejected_shed" => load(&c.rejected_shed),
        "rejected_too_large" => load(&c.rejected_too_large),
        "rejected_deadline" => load(&c.rejected_deadline),
        "rejected_malformed" => load(&c.rejected_malformed),
        "evicted_slow" => load(&c.evicted_slow),
        "panics" => load(&c.panics),
        "failed_cells" => load(&c.failed_cells),
        "prep_mem_hits" => load(&c.prep_mem_hits),
        "prep_disk_hits" => load(&c.prep_disk_hits),
        "prep_misses" => load(&c.prep_misses),
        "prep_evictions" => load(&c.prep_evictions),
        "bad_requests" => load(&c.bad_requests),
        "active_conns" => state.active_conns.load(Ordering::SeqCst),
        "queue_len" => relock(&state.queue).len(),
        "inflight_sweeps" => state.inflight_sweeps.load(Ordering::SeqCst),
        "result_cache_len" => relock(&state.results).len(),
        "snapshot_mem_len" => snapshot_cache::mem_len(),
        "jobs" => state.cfg.jobs,
        "chaos_injected" => chaos.total(),
        "chaos_torn_frames" => chaos.get(ChaosFault::TornFrame),
        "chaos_resets" => chaos.get(ChaosFault::Reset),
        "chaos_stalls" => chaos.get(ChaosFault::Stall),
        "chaos_accept_hiccups" => chaos.get(ChaosFault::AcceptHiccup),
    }
    .line()
}

// ---------------------------------------------------------------------
// translate: bounded queue -> persistent translate workers
// ---------------------------------------------------------------------

fn parse_scenario(name: &str) -> Result<Scenario, String> {
    match name {
        "" | "default" => Ok(Scenario::default_linux()),
        "no_ths" => Ok(Scenario::no_ths()),
        "no_ths_low_compaction" => Ok(Scenario::no_ths_low_compaction()),
        other => Err(format!(
            "unknown scenario '{other}' (valid: default no_ths no_ths_low_compaction)"
        )),
    }
}

/// The optional `"policy"` field of a translate/sweep request. Absent
/// or empty means [`PolicyKind::Default`] — the historical behavior —
/// so old clients keep their exact cache keys; an unknown name is
/// rejected before anything runs or is prepared.
fn parse_policy(request: &json::Json) -> Result<PolicyKind, String> {
    match request.get("policy").and_then(json::Json::as_str) {
        None | Some("") => Ok(PolicyKind::Default),
        Some(name) => name.parse::<PolicyKind>(),
    }
}

fn parse_tlb(name: &str) -> Result<TlbConfig, String> {
    match name {
        "baseline" => Ok(TlbConfig::baseline()),
        "colt_sa" => Ok(TlbConfig::colt_sa()),
        "colt_fa" => Ok(TlbConfig::colt_fa()),
        "" | "colt_all" => Ok(TlbConfig::colt_all()),
        other => Err(format!(
            "unknown config '{other}' (valid: baseline colt_sa colt_fa colt_all)"
        )),
    }
}

fn handle_translate(
    state: &Arc<ServerState>,
    request: &json::Json,
    deadline: Instant,
    deadline_ms: u64,
) -> String {
    let bench_name = match request.get("benchmark").and_then(json::Json::as_str) {
        Some(b) => b,
        None => return err_line("translate needs a \"benchmark\""),
    };
    let spec = match benchmark(bench_name) {
        Some(s) => s,
        None => return err_line(&format!("unknown benchmark '{bench_name}'")),
    };
    let tlb = match parse_tlb(request.get("config").and_then(json::Json::as_str).unwrap_or(""))
    {
        Ok(t) => t,
        Err(e) => return err_line(&e),
    };
    let scenario = match parse_scenario(
        request.get("scenario").and_then(json::Json::as_str).unwrap_or(""),
    ) {
        Ok(s) => s,
        Err(e) => return err_line(&e),
    };
    // The policy lands in the scenario (name included), so the snapshot
    // cache — keyed by `snapshot_cache::prep_key` — never mixes
    // instances booted under different policies.
    let scenario = match parse_policy(request) {
        Ok(kind) => scenario.with_policy(kind),
        Err(e) => return err_line(&e),
    };
    let accesses = request
        .get("accesses")
        .and_then(json::Json::as_u64)
        .unwrap_or(20_000)
        .clamp(1, state.cfg.max_accesses);
    let mut sim_cfg = SimConfig::new(tlb).with_accesses(accesses);
    if let Some(seed) = request.get("seed").and_then(json::Json::as_u64) {
        sim_cfg.pattern_seed = seed;
    }

    let (reply, result_rx) = mpsc::channel();
    {
        let mut q = relock(&state.queue);
        if q.len() >= state.cfg.queue_cap {
            state.c.add(&state.c.rejected_busy, 1);
            return reject_line(
                "busy",
                &format!("dispatch queue full ({} queued)", state.cfg.queue_cap),
            );
        }
        q.push_back(TranslateJob { scenario, spec, sim_cfg, deadline, reply });
    }
    state.queue_cv.notify_one();

    let wait = deadline.saturating_duration_since(Instant::now());
    match result_rx.recv_timeout(wait) {
        Ok(Answer::Simulated(r)) => {
            state.c.add(&state.c.translates, 1);
            obj! {
                "ok" => true,
                "op" => "translate",
                "benchmark" => bench_name,
                "accesses" => r.tlb.accesses,
                "l1_misses" => r.tlb.l1_misses,
                "l2_misses" => r.tlb.l2_misses,
                "walks" => r.walker.walks,
                "walk_cycles" => r.walk_cycles,
                "superpage_fills" => r.tlb.superpage_fills,
            }
            .line()
        }
        // A worker dropped the job unrun because its deadline had
        // already passed — a deadline rejection, not a failed cell (no
        // compute was lost and no slot leaked).
        Ok(Answer::Expired) => {
            state.c.add(&state.c.rejected_deadline, 1);
            reject_line(
                "deadline",
                &format!("deadline of {deadline_ms}ms exceeded in the queue"),
            )
        }
        Ok(Answer::Failed(e)) => {
            state.c.add(&state.c.failed_cells, 1);
            err_line(&e)
        }
        Err(_) => {
            state.c.add(&state.c.rejected_deadline, 1);
            reject_line(
                "deadline",
                &format!("deadline of {deadline_ms}ms exceeded awaiting the result"),
            )
        }
    }
}

/// One translate worker: answers queued jobs one at a time until
/// shutdown, then leaves once the queue is empty. A job whose deadline
/// passed while it was queued is answered without running: its
/// requester has already been told `deadline`, so no preparation or
/// simulation is spent on it.
fn translate_worker(state: &ServerState) {
    while let Some(job) = next_job(state) {
        let answer = if Instant::now() >= job.deadline {
            Answer::Expired
        } else {
            match prepared(state, &job.scenario, &job.spec) {
                Ok(workload) => {
                    let run = || sim::run(&workload, &job.sim_cfg);
                    match catch_unwind(AssertUnwindSafe(run)) {
                        Ok(r) => Answer::Simulated(r),
                        Err(payload) => Answer::Failed(format!(
                            "translate of {} panicked: {}",
                            job.spec.name,
                            panic_message(payload)
                        )),
                    }
                }
                Err(e) => Answer::Failed(e),
            }
        };
        let _ = job.reply.send(answer);
    }
}

/// The next queued job; `None` once shutdown is flagged and the queue
/// is empty.
fn next_job(state: &ServerState) -> Option<TranslateJob> {
    let mut q = relock(&state.queue);
    loop {
        if let Some(job) = q.pop_front() {
            return Some(job);
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        // The timeout covers a shutdown flagged between the check above
        // and this wait.
        q = state
            .queue_cv
            .wait_timeout(q, Duration::from_millis(200))
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .0;
    }
}

/// The pair's prepared workload from [`snapshot_cache::get_or_prepare`],
/// behind a per-key single-flight: the first worker to need a key leads
/// and obtains it, and workers that need it meanwhile wait for the
/// leader's workload (or its failure) instead of preparing it again.
/// The leader drains the cache's counters into the server's before any
/// of them can answer.
fn prepared(
    state: &ServerState,
    scenario: &Scenario,
    spec: &BenchmarkSpec,
) -> Result<Arc<PreparedWorkload>, String> {
    let key = snapshot_cache::prep_key(scenario, spec);
    let (flight, leader) = Flight::join(&mut relock(&state.preps), &key);
    if leader {
        // Even a panic must land the flight: its followers wait for it.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            snapshot_cache::get_or_prepare(scenario, spec).map(|p| p.workload)
        }))
        .unwrap_or_else(|payload| {
            Err(format!("preparing {} panicked: {}", spec.name, panic_message(payload)))
        });
        state.absorb_cache_stats();
        flight.land(outcome.clone());
        relock(&state.preps).remove(&key);
        return outcome;
    }
    flight.wait()
}

// ---------------------------------------------------------------------
// sweep: LRU result cache + single-flight + serialized compute
// ---------------------------------------------------------------------

fn sweep_response(
    experiment: &str,
    fingerprint: &str,
    cached: bool,
    coalesced: bool,
    bytes: &str,
) -> String {
    obj! {
        "ok" => true,
        "op" => "sweep",
        "experiment" => experiment,
        "fingerprint" => fingerprint,
        "cached" => cached,
        "coalesced" => coalesced,
        "bytes" => bytes,
    }
    .line()
}

/// The sweep compute path, run on a dedicated leader thread so the
/// requesting handler can deadline-out while the work (and its cache
/// fill) continues. Serialized by the sweep gate. The bytes land in the
/// result cache before the leader leaves the in-flight map, which is
/// what lets [`handle_sweep`] coalesce with one lookup.
fn compute_sweep(
    state: &Arc<ServerState>,
    experiment: &str,
    opts: &ExperimentOptions,
    key: &str,
) -> Result<Arc<String>, String> {
    let _gate = relock(&state.sweep_gate);
    let computed = catch_unwind(AssertUnwindSafe(|| sweep_csv(experiment, opts)));
    // Sweeps run with metrics collection on (the drivers use the
    // sweep entry points); drain the registry so a resident
    // server stays memory-flat.
    let _ = runner::take_metrics();
    state.absorb_cache_stats();
    match computed {
        Ok(Ok(bytes)) => {
            let bytes = Arc::new(bytes);
            let evicted =
                relock(&state.results).insert(key.to_string(), Arc::clone(&bytes));
            state.c.add(&state.c.sweep_cache_evictions, evicted);
            Ok(bytes)
        }
        Ok(Err(e)) => Err(e),
        Err(payload) => {
            state.c.add(&state.c.failed_cells, 1);
            state.c.add(&state.c.panics, 1);
            Err(format!("sweep '{experiment}' panicked: {}", panic_message(payload)))
        }
    }
}

fn handle_sweep(
    state: &Arc<ServerState>,
    request: &json::Json,
    deadline: Instant,
    deadline_ms: u64,
) -> String {
    let experiment = match request.get("experiment").and_then(json::Json::as_str) {
        Some(e) => e.to_string(),
        None => return err_line("sweep needs an \"experiment\""),
    };
    let policy = match parse_policy(request) {
        Ok(kind) => kind,
        Err(e) => return err_line(&e),
    };
    let opts = sweep_options(
        request.get("accesses").and_then(json::Json::as_u64),
        request.get("bench").and_then(json::Json::as_str),
        request.get("cores").and_then(json::Json::as_u64),
        policy,
        state.cfg.jobs,
        state.cfg.max_accesses,
    );
    if let Err(e) = opts.check_benchmarks() {
        return err_line(&e);
    }
    let fingerprint = opts.fingerprint(&experiment);
    let key = sweep_key(&experiment, &opts);

    // Admission control, by op priority: past the dispatch queue's
    // high-water mark the heavyweight op (sweep) is shed first, while
    // translates keep queueing until the hard cap and ping/stats are
    // always served.
    if relock(&state.queue).len() >= state.cfg.high_water() {
        state.c.add(&state.c.rejected_shed, 1);
        return reject_line(
            "shed",
            &format!(
                "overloaded: dispatch queue past its high-water mark of {}",
                state.cfg.high_water()
            ),
        );
    }
    state.c.add(&state.c.sweeps, 1);

    // Single-flight: one leader computes, identical concurrent requests
    // wait for its bytes instead of burning a second run. The result
    // cache is read under the in-flight map's lock; a leader fills the
    // cache before it leaves the map, so a request either finds the
    // bytes, joins the flight, or leads — it never computes a sweep
    // that another request just finished.
    let (flight, leader) = {
        let mut inflight = relock(&state.inflight);
        let cached = relock(&state.results).get(&key).map(Arc::clone);
        if let Some(bytes) = cached {
            // Release the map before the (possibly large) response is
            // escaped and formatted.
            drop(inflight);
            state.c.add(&state.c.sweep_cache_hits, 1);
            return sweep_response(&experiment, &fingerprint, true, false, &bytes);
        }
        Flight::join(&mut inflight, &key)
    };

    if leader {
        // Compute on a dedicated thread: the handler below can then
        // deadline-out politely while the work finishes and lands in
        // the cache — nothing in flight is ever lost to a slow or
        // disconnected client. The thread owns the flight cleanup.
        state.inflight_sweeps.fetch_add(1, Ordering::SeqCst);
        let thread_state = Arc::clone(state);
        let thread_flight = Arc::clone(&flight);
        let thread_exp = experiment.clone();
        let thread_opts = opts.clone();
        let thread_key = key.clone();
        let spawned = std::thread::Builder::new()
            .name("sweep-leader".into())
            .spawn(move || {
                thread_flight.land(compute_sweep(
                    &thread_state,
                    &thread_exp,
                    &thread_opts,
                    &thread_key,
                ));
                relock(&thread_state.inflight).remove(&thread_key);
                thread_state.inflight_sweeps.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            flight.land(Err("could not spawn the sweep leader thread".into()));
            relock(&state.inflight).remove(&key);
            state.inflight_sweeps.fetch_sub(1, Ordering::SeqCst);
        }
    } else {
        state.c.add(&state.c.sweep_coalesced, 1);
    }

    // Leader and followers alike wait for the flight's bytes, bounded
    // by the request deadline. Each wait ends at the deadline at the
    // latest, and the clock is read before the bytes are: once the
    // deadline has passed, the request is rejected even if the bytes
    // landed while the lock was being re-taken.
    let mut done = relock(&flight.done);
    loop {
        if let Some(outcome) = done.clone() {
            return match outcome {
                Ok(bytes) if leader => {
                    sweep_response(&experiment, &fingerprint, false, false, &bytes)
                }
                Ok(bytes) => sweep_response(&experiment, &fingerprint, true, true, &bytes),
                Err(e) => err_line(&e),
            };
        }
        let (guard, _) = flight
            .cv
            .wait_timeout(done, deadline.saturating_duration_since(Instant::now()))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        done = guard;
        if Instant::now() >= deadline {
            state.c.add(&state.c.rejected_deadline, 1);
            return reject_line(
                "deadline",
                &format!(
                    "sweep deadline of {deadline_ms}ms exceeded; the work \
                     continues and its result will be cached"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------

fn serve_usage() -> String {
    "usage: repro serve [--port N] [--port-file PATH] [--jobs N] [--cache-dir PATH]\n\
     --port N         TCP port (default 0 = ephemeral; bound port is printed\n\
     \u{20}                and written to --port-file)\n\
     --jobs N         translate worker threads, and each sweep's width\n\
     --cache-dir PATH persist/reload the sweep result cache across restarts\n\
     protocol: one JSON object per line; ops: ping stats translate sweep shutdown"
        .to_string()
}

fn parse_num(flag: &str, value: Option<&String>) -> Result<u64, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse::<u64>().map_err(|_| format!("{flag} {raw}: not a number"))
}

/// `repro serve` entry point.
pub fn cli(args: &[String]) -> ExitCode {
    let mut cfg = ServeConfig::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = args.get(i + 1);
        match arg {
            "--port" => match parse_num(arg, value) {
                Ok(n) if n <= u64::from(u16::MAX) => cfg.port = n as u16,
                _ => {
                    eprintln!("--port must be 0..=65535");
                    return ExitCode::from(2);
                }
            },
            "--jobs" => match parse_num(arg, value) {
                Ok(n) => cfg.jobs = n.max(1) as usize,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            },
            "--port-file" | "--cache-dir" => {
                let Some(path) = value.map(PathBuf::from) else {
                    eprintln!("{arg} needs a path");
                    return ExitCode::from(2);
                };
                if arg == "--port-file" {
                    cfg.port_file = Some(path);
                } else {
                    cfg.cache_dir = Some(path);
                }
            }
            "--help" | "-h" => {
                println!("{}", serve_usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown serve flag '{other}'\n{}", serve_usage());
                return ExitCode::from(2);
            }
        }
        i += 2;
    }

    let handle = match start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("repro serve: could not start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("repro serve: listening on 127.0.0.1:{}", handle.port);
    let summary = handle.wait();
    println!("{}", summary.render());
    if summary.failed_cells > 0 || !summary.drained_clean {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_options_build_deterministic_fingerprints() {
        let d = PolicyKind::Default;
        let a = sweep_options(Some(30_000), Some("Gobmk,Bzip2"), Some(1), d, 4, 10_000_000);
        let b = sweep_options(Some(30_000), Some("Gobmk,Bzip2"), Some(1), d, 8, 10_000_000);
        // Jobs never enter the fingerprint: results are identical at
        // any width, so a 4-job server and an 8-job direct run must
        // share a cache key.
        assert_eq!(a.fingerprint("fig18"), b.fingerprint("fig18"));
        assert_ne!(
            a.fingerprint("fig18"),
            sweep_options(Some(40_000), Some("Gobmk,Bzip2"), Some(1), d, 4, 10_000_000)
                .fingerprint("fig18"),
            "the access budget changes results, so it changes the key"
        );
        assert_ne!(a.fingerprint("fig18"), a.fingerprint("fig19"));
    }

    #[test]
    fn sweep_options_separate_policies_in_the_result_cache() {
        let mk = |policy| sweep_options(Some(30_000), Some("Gobmk"), None, policy, 4, 10_000_000);
        let default = mk(PolicyKind::Default);
        // Every policy gets its own sweep fingerprint — the result
        // cache and single-flight table key on it, so a GreedyContig
        // sweep can never be answered with Default bytes.
        let mut keys: Vec<String> =
            PolicyKind::all().iter().map(|&p| sweep_key("fig18", &mk(p))).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), PolicyKind::all().len(), "one cache key per policy");
        assert_eq!(
            default.fingerprint("fig18"),
            mk(PolicyKind::Default).fingerprint("fig18"),
            "the default policy keeps a stable key for old clients"
        );
    }

    #[test]
    fn requests_parse_the_policy_field_and_reject_unknown_names() {
        let parse = |line: &str| parse_policy(&json::parse(line).expect("json"));
        assert_eq!(parse("{\"op\": \"sweep\"}"), Ok(PolicyKind::Default));
        assert_eq!(parse("{\"policy\": \"\"}"), Ok(PolicyKind::Default));
        assert_eq!(parse("{\"policy\": \"greedy_contig\"}"), Ok(PolicyKind::GreedyContig));
        assert_eq!(parse("{\"policy\": \"no_thp\"}"), Ok(PolicyKind::NoThp));
        let err = parse("{\"policy\": \"bogus\"}").expect_err("unknown policy rejected");
        assert!(err.contains("bogus") && err.contains("greedy_contig"), "{err}");
    }

    #[test]
    fn sweep_options_clamp_and_parse_bench_lists() {
        let d = PolicyKind::Default;
        let o = sweep_options(Some(u64::MAX), Some(" Gobmk , ,Bzip2 "), Some(0), d, 0, 1000);
        assert_eq!(o.accesses, 1000, "clamped to max_accesses");
        assert_eq!(o.cores, 1, "cores 0 clamps to 1");
        assert_eq!(o.jobs, 1, "jobs 0 clamps to 1");
        assert_eq!(
            o.benchmarks,
            Some(vec!["Gobmk".to_string(), "Bzip2".to_string()]),
            "blank entries dropped"
        );
        let none = sweep_options(None, Some(" , "), None, d, 2, 1000);
        assert_eq!(none.benchmarks, None, "an all-blank list means all benchmarks");
    }

    #[test]
    fn sweep_csv_rejects_unknown_experiments() {
        let opts = ExperimentOptions::quick();
        assert!(sweep_csv("no-such-experiment", &opts).is_err());
    }

    #[test]
    fn scenario_and_tlb_names_round_trip() {
        assert!(parse_scenario("default").is_ok());
        assert!(parse_scenario("").is_ok());
        assert!(parse_scenario("no_ths").is_ok());
        assert!(parse_scenario("no_ths_low_compaction").is_ok());
        assert!(parse_scenario("memhog").is_err());
        for name in ["baseline", "colt_sa", "colt_fa", "colt_all", ""] {
            assert!(parse_tlb(name).is_ok(), "{name}");
        }
        assert!(parse_tlb("colt").is_err());
    }

    #[test]
    fn rejection_lines_carry_the_machine_readable_kind() {
        let shed = reject_line("shed", "overloaded");
        json::parse(&shed).unwrap();
        assert!(shed.contains("\"rejected\": \"shed\""));
        let busy = reject_line("busy", "queue full");
        assert!(busy.contains("\"rejected\": \"busy\""));
        json::parse(&err_line("with \"quotes\" and \\slashes")).unwrap();
    }

    #[test]
    fn cache_entry_round_trips_including_escapes() {
        let key = "sweep {\"bench\": \"Gobmk\"}";
        let bytes = "{\"rows\": [1, 2],\n \"note\": \"\\\"quoted\\\"\"}";
        let body = encode_cache_entry(key, bytes);
        json::parse(&body).unwrap();
        let decoded = decode_cache_entry(&body).unwrap().unwrap();
        assert_eq!(decoded, (key.to_string(), bytes.to_string()));
    }

    /// Satellite 3 for the serve-cache codec: under a bit flip at EVERY
    /// bit position, decode must never panic and never hand back bytes
    /// that differ from what was encoded. A flip may be survivable only
    /// if the decoded entry is byte-identical to the original (e.g. a
    /// flip inside trailing whitespace — this format has none).
    #[test]
    fn cache_entry_decode_never_accepts_a_flipped_byte() {
        let body = encode_cache_entry("k-1", "payload with \"structure\": [0, 1]");
        crate::journal::assert_open_rejects_every_flip(&body, CACHE_SCHEMA);
    }

    /// Truncation at every prefix length is either rejected or decodes
    /// to nothing — a torn tail can never warm the cache.
    #[test]
    fn cache_entry_decode_rejects_every_truncation() {
        let body = encode_cache_entry("k-2", "0123456789");
        crate::journal::assert_open_rejects_every_truncation(&body, CACHE_SCHEMA);
    }

    #[test]
    fn legacy_v1_entries_are_skipped_not_quarantined() {
        let v1 = "{\"schema\": \"colt-serve-cache/v1\", \"key\": \"k\", \"bytes\": \"b\"}";
        assert_eq!(decode_cache_entry(v1).unwrap(), None);
        // A file claiming v2 without its checksum is damage, not legacy.
        let bad = format!("{{\"schema\": \"{CACHE_SCHEMA}\", \"key\": \"k\", \"bytes\": \"b\"}}");
        assert!(decode_cache_entry(&bad).is_err());
    }
}
