//! `repro serve-bench` — the load generator for [`crate::serve`].
//!
//! Opens N client connections against a running `repro serve`, drives a
//! mixed translate/sweep workload through them, and publishes
//! `results/BENCH_serve.json` with the serving numbers the ROADMAP
//! cares about: p50/p99 request latency, requests per second, and the
//! sweep cache hit rate. With `--verify-sweep` it also proves the
//! determinism guarantee end to end: the sweep is requested twice over
//! the socket (the second answer must be served from the LRU cache and
//! be byte-identical) and compared against the same sweep run directly
//! in-process via [`serve::sweep_csv`] — three byte-identical copies or
//! a non-zero exit.

use crate::artifact;
use crate::serve;
use crate::serve::json::{self, obj, rounded};
use colt_prng::rngs::SmallRng;
use colt_prng::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Load-generator parameters (one flag each; see `--help`).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Server host.
    pub host: String,
    /// Server port (resolved from `--port-file` when 0).
    pub port: u16,
    /// File to read the port from (written by `repro serve --port-file`).
    pub port_file: Option<PathBuf>,
    /// Client connections, one thread each.
    pub conns: usize,
    /// Translate requests per connection.
    pub requests: u64,
    /// Access budget per translate request.
    pub accesses: u64,
    /// Experiment for the sweep requests.
    pub sweep: String,
    /// Issue a sweep request every N translates per connection (0 = no
    /// in-traffic sweeps; `--verify-sweep` still runs its own).
    pub sweep_every: u64,
    /// Access budget for sweep requests.
    pub sweep_accesses: u64,
    /// Benchmark rotation for translates and the sweep's `bench` list.
    pub bench: String,
    /// Run the determinism check (served twice + direct in-process run).
    pub verify_sweep: bool,
    /// Send `{"op":"shutdown"}` when done.
    pub shutdown: bool,
    /// Artifact path.
    pub out: PathBuf,
    /// Transport-level retry/backoff/breaker tuning.
    pub retry: RetryPolicy,
    /// Seed for the per-worker backoff jitter streams.
    pub seed: u64,
    /// Suppress progress lines.
    pub quiet: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            host: "127.0.0.1".to_string(),
            port: 0,
            port_file: None,
            conns: 4,
            requests: 100,
            accesses: 5_000,
            sweep: "fig18".to_string(),
            sweep_every: 0,
            sweep_accesses: 20_000,
            bench: "Gobmk".to_string(),
            verify_sweep: false,
            shutdown: false,
            out: PathBuf::from("results/BENCH_serve.json"),
            retry: RetryPolicy::default(),
            seed: 1,
            quiet: false,
        }
    }
}

// ---------------------------------------------------------------------
// Client plumbing
// ---------------------------------------------------------------------

/// One protocol connection: write a request line, read a response line.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects with retries (the server may still be binding when a
    /// script launches both sides together).
    fn connect(host: &str, port: u16) -> Result<Self, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect((host, port)) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let writer = stream
                        .try_clone()
                        .map_err(|e| format!("clone stream: {e}"))?;
                    return Ok(Client { writer, reader: BufReader::new(stream) });
                }
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(format!("connect {host}:{port}: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
    }

    fn request(&mut self, line: &str) -> Result<json::Json, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        json::parse(response.trim()).map_err(|e| format!("bad response JSON: {e}"))
    }
}

// ---------------------------------------------------------------------
// Chaos-tolerant client: retries, backoff, circuit breaker
// ---------------------------------------------------------------------

/// Transport-retry tuning for the chaos-tolerant client.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` tries).
    pub max_retries: u32,
    /// First backoff; doubles each retry (plus jitter in `[0, base)`).
    pub base_backoff_ms: u64,
    /// Backoff ceiling.
    pub max_backoff_ms: u64,
    /// Consecutive transport failures before the breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker holds requests before a half-open probe.
    pub breaker_cooldown_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 5,
            base_backoff_ms: 10,
            max_backoff_ms: 500,
            breaker_threshold: 4,
            breaker_cooldown_ms: 250,
        }
    }
}

/// The jittered exponential backoff before retry `attempt` (0-based):
/// `base * 2^attempt + (jitter % base)`, capped at the policy ceiling.
/// The jitter draw comes from the caller's seeded stream, so a bench
/// run's backoff schedule replays with its seed.
pub fn backoff_ms(policy: &RetryPolicy, attempt: u32, jitter: u64) -> u64 {
    let base = policy.base_backoff_ms.max(1);
    let exp = base.saturating_mul(1u64 << attempt.min(16));
    exp.saturating_add(jitter % base).min(policy.max_backoff_ms.max(base))
}

/// Per-worker circuit breaker: `threshold` consecutive transport
/// failures open it, and an open breaker holds the worker out of the
/// server's face for the cooldown instead of hammering a failing
/// endpoint; the next request is the half-open probe.
struct Breaker {
    consecutive_failures: u32,
    open_until: Option<Instant>,
}

impl Breaker {
    fn new() -> Self {
        Breaker { consecutive_failures: 0, open_until: None }
    }

    fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.open_until = None;
    }

    /// Records a transport failure; returns true when this one opened
    /// the breaker.
    fn on_failure(&mut self, policy: &RetryPolicy) -> bool {
        self.consecutive_failures += 1;
        if self.consecutive_failures >= policy.breaker_threshold.max(1) {
            self.open_until = Some(
                Instant::now() + Duration::from_millis(policy.breaker_cooldown_ms),
            );
            self.consecutive_failures = 0;
            return true;
        }
        false
    }

    /// Blocks out the cooldown if open; the call after this is the
    /// half-open probe.
    fn wait_if_open(&mut self) {
        if let Some(until) = self.open_until.take() {
            let now = Instant::now();
            if until > now {
                std::thread::sleep(until - now);
            }
        }
    }
}

/// A chaos-tolerant protocol client. Transport failures — torn frames
/// (unparseable response), mid-response resets, dropped connections,
/// refused connects — are retried with jittered exponential backoff on
/// a *fresh* connection (the old one's framing is suspect), gated by a
/// per-worker circuit breaker. Polite rejections (`"rejected":
/// "busy"|"shed"|…`) are responses, not failures: they are
/// returned to the caller untouched, because re-asking an overloaded
/// server is exactly what load shedding asks clients not to do.
pub(crate) struct RobustClient<'a> {
    host: &'a str,
    port: u16,
    policy: RetryPolicy,
    conn: Option<Client>,
    rng: SmallRng,
    breaker: Breaker,
    tally: &'a Tally,
}

impl<'a> RobustClient<'a> {
    pub(crate) fn new(
        host: &'a str,
        port: u16,
        policy: RetryPolicy,
        seed: u64,
        tally: &'a Tally,
    ) -> Self {
        RobustClient {
            host,
            port,
            policy,
            conn: None,
            rng: SmallRng::seed_from_u64(seed ^ 0xBE11_C0DE_5EED_0001),
            breaker: Breaker::new(),
            tally,
        }
    }

    pub(crate) fn request(&mut self, line: &str) -> Result<json::Json, String> {
        let mut last_err = String::new();
        for attempt in 0..=self.policy.max_retries {
            if attempt > 0 {
                self.tally.retries.fetch_add(1, Ordering::Relaxed);
                let jitter = self.rng.next_u64();
                std::thread::sleep(Duration::from_millis(backoff_ms(
                    &self.policy,
                    attempt - 1,
                    jitter,
                )));
            }
            self.breaker.wait_if_open();
            let mut client = match self.conn.take() {
                Some(c) => c,
                None => match Client::connect(self.host, self.port) {
                    Ok(c) => c,
                    Err(e) => {
                        self.note_failure();
                        last_err = e;
                        continue;
                    }
                },
            };
            match client.request(line) {
                Ok(response) => {
                    self.conn = Some(client);
                    self.breaker.on_success();
                    if attempt > 0 {
                        self.tally.recovered.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(response);
                }
                Err(e) => {
                    self.note_failure();
                    last_err = e;
                }
            }
        }
        Err(format!(
            "request failed after {} attempt(s): {last_err}",
            self.policy.max_retries + 1
        ))
    }

    fn note_failure(&mut self) {
        self.tally.transport_errors.fetch_add(1, Ordering::Relaxed);
        if self.breaker.on_failure(&self.policy) {
            self.tally.breaker_opens.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// `p`-th percentile (0..=100) of an unsorted sample, by the
/// nearest-rank method on a sorted copy. 0.0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    sorted[rank.round() as usize]
}

#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) ok: AtomicU64,
    pub(crate) rejected_busy: AtomicU64,
    pub(crate) rejected_shed: AtomicU64,
    pub(crate) rejected_too_large: AtomicU64,
    pub(crate) rejected_deadline: AtomicU64,
    pub(crate) rejected_malformed: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) sweeps: AtomicU64,
    pub(crate) sweep_cache_hits: AtomicU64,
    pub(crate) transport_errors: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) recovered: AtomicU64,
    pub(crate) breaker_opens: AtomicU64,
}

impl Tally {
    /// Polite rejections of every kind.
    pub(crate) fn rejections(&self) -> u64 {
        [
            &self.rejected_busy,
            &self.rejected_shed,
            &self.rejected_too_large,
            &self.rejected_deadline,
            &self.rejected_malformed,
        ]
        .iter()
        .map(|f| f.load(Ordering::Relaxed))
        .sum()
    }
}

/// The latency and throughput figures of one bench run.
#[derive(Default)]
pub(crate) struct Latency {
    /// Requests timed.
    pub(crate) requests: usize,
    /// Wall-clock seconds the workers ran.
    pub(crate) wall_seconds: f64,
    /// Requests answered per wall-clock second.
    pub(crate) requests_per_sec: f64,
    /// Median request latency.
    pub(crate) p50_ms: f64,
    /// 99th-percentile request latency.
    pub(crate) p99_ms: f64,
}

impl Latency {
    fn of(samples_ms: &[f64], wall_seconds: f64) -> Self {
        let requests = samples_ms.len();
        Latency {
            requests,
            wall_seconds,
            requests_per_sec: if wall_seconds > 0.0 {
                requests as f64 / wall_seconds
            } else {
                0.0
            },
            p50_ms: percentile(samples_ms, 50.0),
            p99_ms: percentile(samples_ms, 99.0),
        }
    }
}

/// What [`run`] measured, and the `BENCH_serve.json` text rendered from
/// it.
#[derive(Default)]
pub struct BenchRun {
    pub(crate) tally: Tally,
    pub(crate) latency: Latency,
    /// The artifact text written to [`BenchConfig::out`].
    pub payload: String,
}

pub(crate) fn classify(tally: &Tally, response: &json::Json) -> bool {
    if response.get("ok").and_then(json::Json::as_bool) == Some(true) {
        tally.ok.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    match response.get("rejected").and_then(json::Json::as_str) {
        Some("busy") => tally.rejected_busy.fetch_add(1, Ordering::Relaxed),
        Some("shed") => tally.rejected_shed.fetch_add(1, Ordering::Relaxed),
        Some("too_large") => tally.rejected_too_large.fetch_add(1, Ordering::Relaxed),
        Some("deadline") => tally.rejected_deadline.fetch_add(1, Ordering::Relaxed),
        Some("malformed") => tally.rejected_malformed.fetch_add(1, Ordering::Relaxed),
        _ => tally.errors.fetch_add(1, Ordering::Relaxed),
    };
    false
}

// ---------------------------------------------------------------------
// The bench run
// ---------------------------------------------------------------------

const CONFIG_ROTATION: [&str; 4] = ["baseline", "colt_sa", "colt_fa", "colt_all"];

fn translate_line(cfg: &BenchConfig, bench: &str, config: &str) -> String {
    obj! {
        "op" => "translate",
        "benchmark" => bench,
        "config" => config,
        "accesses" => cfg.accesses,
    }
    .line()
}

/// A sweep request. A retry resends the same line, so it carries the
/// same sweep key and coalesces onto the original flight (or its cached
/// bytes) instead of recomputing.
fn sweep_line(cfg: &BenchConfig) -> String {
    obj! {
        "op" => "sweep",
        "experiment" => &cfg.sweep,
        "accesses" => cfg.sweep_accesses,
        "bench" => &cfg.bench,
    }
    .line()
}

/// The shutdown request.
pub(crate) fn shutdown_line() -> String {
    obj! { "op" => "shutdown" }.line()
}

fn note_sweep(tally: &Tally, response: &json::Json) {
    tally.sweeps.fetch_add(1, Ordering::Relaxed);
    let cached = response.get("cached").and_then(json::Json::as_bool) == Some(true)
        || response.get("coalesced").and_then(json::Json::as_bool) == Some(true);
    if cached {
        tally.sweep_cache_hits.fetch_add(1, Ordering::Relaxed);
    }
}

fn worker(
    cfg: &BenchConfig,
    benches: &[String],
    tally: &Tally,
    worker_index: usize,
) -> Result<Vec<f64>, String> {
    let mut client = RobustClient::new(
        &cfg.host,
        cfg.port,
        cfg.retry,
        cfg.seed.wrapping_add(worker_index as u64),
        tally,
    );
    let mut latencies_ms = Vec::with_capacity(cfg.requests as usize);
    for i in 0..cfg.requests {
        // Spread the rotation across workers so concurrent connections
        // ask for the same few configurations at the same time — that is
        // what the preparation single-flight and the shared memory
        // cache are for.
        let step = worker_index as u64 + i;
        let bench = &benches[(step as usize) % benches.len()];
        let config = CONFIG_ROTATION[(step as usize) % CONFIG_ROTATION.len()];
        let line = translate_line(cfg, bench, config);
        let start = Instant::now();
        let response = client.request(&line)?;
        latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        classify(tally, &response);

        if cfg.sweep_every > 0 && (i + 1) % cfg.sweep_every == 0 {
            let start = Instant::now();
            let response = client.request(&sweep_line(cfg))?;
            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if classify(tally, &response) {
                note_sweep(tally, &response);
            }
        }
    }
    Ok(latencies_ms)
}

/// The determinism check: the sweep served twice (second from cache)
/// must be byte-identical, and both must match the direct in-process
/// run with identical options.
fn verify_sweep(cfg: &BenchConfig, tally: &Tally) -> Result<(), String> {
    let mut client = RobustClient::new(
        &cfg.host,
        cfg.port,
        cfg.retry,
        cfg.seed ^ 0x5EED_F00D,
        tally,
    );
    let line = sweep_line(cfg);
    let first = client.request(&line)?;
    let second = client.request(&line)?;
    for (which, response) in [("first", &first), ("second", &second)] {
        if response.get("ok").and_then(json::Json::as_bool) != Some(true) {
            return Err(format!(
                "{which} verification sweep failed: {}",
                response
                    .get("error")
                    .and_then(json::Json::as_str)
                    .unwrap_or("unknown error")
            ));
        }
        tally.sweeps.fetch_add(1, Ordering::Relaxed);
    }
    let first_bytes = first
        .get("bytes")
        .and_then(json::Json::as_str)
        .ok_or("first sweep response carried no bytes")?;
    let second_bytes = second
        .get("bytes")
        .and_then(json::Json::as_str)
        .ok_or("second sweep response carried no bytes")?;
    if second.get("cached").and_then(json::Json::as_bool) != Some(true) {
        return Err(
            "second identical sweep was not served from the result cache".to_string()
        );
    }
    tally.sweep_cache_hits.fetch_add(1, Ordering::Relaxed);
    if first_bytes != second_bytes {
        return Err("cached sweep bytes differ from the originally served bytes".to_string());
    }

    // The server clamps with its own max_accesses; the direct run here
    // uses the default bound, which only diverges if the operator asked
    // for more than 10M accesses per cell — keep verification budgets
    // below that.
    let opts = serve::sweep_options(
        Some(cfg.sweep_accesses),
        Some(&cfg.bench),
        None,
        colt_os_mem::policy::PolicyKind::Default,
        1,
        crate::serve::ServeConfig::default().max_accesses,
    );
    let direct = serve::sweep_csv(&cfg.sweep, &opts)?;
    if first_bytes != direct {
        return Err(format!(
            "served sweep bytes differ from the direct run ({} vs {} bytes) — \
             determinism guarantee violated",
            first_bytes.len(),
            direct.len()
        ));
    }
    Ok(())
}

/// The `BENCH_serve.json` payload.
fn bench_json(
    cfg: &BenchConfig,
    tally: &Tally,
    latency: &Latency,
    verified: Option<bool>,
) -> String {
    let load = |f: &AtomicU64| f.load(Ordering::Relaxed);
    let sweeps = load(&tally.sweeps);
    let hits = load(&tally.sweep_cache_hits);
    let hit_rate = if sweeps > 0 { hits as f64 / sweeps as f64 } else { 0.0 };
    obj! {
        "schema" => "colt-bench-serve/v3",
        "conns" => cfg.conns,
        "requests" => latency.requests,
        "ok" => load(&tally.ok),
        "rejected_busy" => load(&tally.rejected_busy),
        "rejected_shed" => load(&tally.rejected_shed),
        "rejected_too_large" => load(&tally.rejected_too_large),
        "rejected_deadline" => load(&tally.rejected_deadline),
        "rejected_malformed" => load(&tally.rejected_malformed),
        "errors" => load(&tally.errors),
        "transport_errors" => load(&tally.transport_errors),
        "retries" => load(&tally.retries),
        "recovered" => load(&tally.recovered),
        "breaker_opens" => load(&tally.breaker_opens),
        "wall_seconds" => rounded(latency.wall_seconds, 6),
        "requests_per_sec" => rounded(latency.requests_per_sec, 3),
        "p50_latency_ms" => rounded(latency.p50_ms, 3),
        "p99_latency_ms" => rounded(latency.p99_ms, 3),
        "translate_accesses" => cfg.accesses,
        "sweep_experiment" => &cfg.sweep,
        "sweep_requests" => sweeps,
        "sweep_cache_hits" => hits,
        "cache_hit_rate" => rounded(hit_rate, 4),
        "verified" => verified,
    }
    .pretty()
}

/// Runs the bench against a live server and writes the artifact.
///
/// # Errors
/// Connection failures, protocol errors, a failed determinism check, or
/// an artifact-write failure — each with a description.
pub fn run(cfg: &BenchConfig) -> Result<BenchRun, String> {
    let benches: Vec<String> = cfg
        .bench
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if benches.is_empty() {
        return Err("--bench needs at least one benchmark name".to_string());
    }

    let tally = Tally::default();
    let start = Instant::now();
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut worker_errors: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..cfg.conns.max(1) {
            let (tally, benches) = (&tally, &benches);
            handles.push(scope.spawn(move || worker(cfg, benches, tally, w)));
        }
        for handle in handles {
            match handle.join() {
                Ok(Ok(lat)) => latencies_ms.extend(lat),
                Ok(Err(e)) => worker_errors.push(e),
                Err(_) => worker_errors.push("bench worker panicked".to_string()),
            }
        }
    });
    let latency = Latency::of(&latencies_ms, start.elapsed().as_secs_f64());
    if let Some(e) = worker_errors.first() {
        return Err(format!(
            "{} of {} bench worker(s) failed; first error: {e}",
            worker_errors.len(),
            cfg.conns
        ));
    }

    let verified = if cfg.verify_sweep {
        verify_sweep(cfg, &tally)?;
        Some(true)
    } else {
        None
    };

    if cfg.shutdown {
        let mut client =
            RobustClient::new(&cfg.host, cfg.port, cfg.retry, cfg.seed ^ 0xD1E, &tally);
        let response = client.request(&shutdown_line())?;
        if response.get("ok").and_then(json::Json::as_bool) != Some(true) {
            return Err("shutdown request was not acknowledged".to_string());
        }
    }

    let payload = bench_json(cfg, &tally, &latency, verified);
    if let Some(moved) = artifact::quarantine_if_corrupt(&cfg.out)
        .map_err(|e| format!("inspect {}: {e}", cfg.out.display()))?
    {
        eprintln!(
            "serve-bench: WARNING: corrupt {} quarantined to {}",
            cfg.out.display(),
            moved.display()
        );
    }
    artifact::atomic_write_json(&cfg.out, &payload)
        .map_err(|e| format!("write {}: {e}", cfg.out.display()))?;
    Ok(BenchRun { tally, latency, payload })
}

// ---------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------

fn bench_usage() -> String {
    "usage: repro serve-bench --port N | --port-file PATH [--host H] [--conns N]\n\
     \u{20}                        [--requests N] [--accesses N] [--sweep EXP]\n\
     \u{20}                        [--sweep-every N] [--sweep-accesses N]\n\
     \u{20}                        [--bench A,B] [--verify-sweep] [--shutdown]\n\
     \u{20}                        [--out PATH] [--quiet]\n\
     --requests N      translate requests per connection\n\
     --sweep-every N   interleave a sweep request every N translates\n\
     --verify-sweep    request the sweep twice (second must be a cache hit)\n\
     \u{20}                 and compare byte-for-byte with a direct in-process run\n\
     --shutdown        send {\"op\":\"shutdown\"} when done\n\
     --out PATH        artifact path (default results/BENCH_serve.json)"
        .to_string()
}

fn resolve_port(cfg: &mut BenchConfig) -> Result<(), String> {
    if cfg.port != 0 {
        return Ok(());
    }
    let Some(path) = &cfg.port_file else {
        return Err("need --port or --port-file".to_string());
    };
    // The server writes the file after binding; a script may start both
    // sides at once, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(port) = text.trim().parse::<u16>() {
                if port != 0 {
                    cfg.port = port;
                    return Ok(());
                }
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("no usable port in {} after 10s", path.display()));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// `repro serve-bench` entry point.
pub fn cli(args: &[String]) -> ExitCode {
    let mut cfg = BenchConfig::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = args.get(i + 1);
        let mut took_value = true;
        let numeric = || -> Result<u64, String> {
            let raw = value.ok_or_else(|| format!("{arg} needs a value"))?;
            raw.parse::<u64>().map_err(|_| format!("{arg} {raw}: not a number"))
        };
        let text = || -> Result<String, String> {
            value.cloned().ok_or_else(|| format!("{arg} needs a value"))
        };
        let outcome: Result<(), String> = match arg {
            "--host" => text().map(|v| cfg.host = v),
            "--port" => numeric().and_then(|n| {
                if n == 0 || n > u64::from(u16::MAX) {
                    Err("--port must be 1..=65535".to_string())
                } else {
                    cfg.port = n as u16;
                    Ok(())
                }
            }),
            "--port-file" => text().map(|v| cfg.port_file = Some(PathBuf::from(v))),
            "--conns" => numeric().map(|n| cfg.conns = n.max(1) as usize),
            "--requests" => numeric().map(|n| cfg.requests = n),
            "--accesses" => numeric().map(|n| cfg.accesses = n.max(1)),
            "--sweep" => text().map(|v| cfg.sweep = v),
            "--sweep-every" => numeric().map(|n| cfg.sweep_every = n),
            "--sweep-accesses" => numeric().map(|n| cfg.sweep_accesses = n.max(1)),
            "--bench" => text().map(|v| cfg.bench = v),
            "--out" => text().map(|v| cfg.out = PathBuf::from(v)),
            "--verify-sweep" => {
                took_value = false;
                cfg.verify_sweep = true;
                Ok(())
            }
            "--shutdown" => {
                took_value = false;
                cfg.shutdown = true;
                Ok(())
            }
            "--quiet" => {
                took_value = false;
                cfg.quiet = true;
                Ok(())
            }
            "--help" | "-h" => {
                println!("{}", bench_usage());
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown serve-bench flag '{other}'\n{}", bench_usage())),
        };
        if let Err(e) = outcome {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
        i += if took_value { 2 } else { 1 };
    }
    if let Err(e) = resolve_port(&mut cfg) {
        eprintln!("serve-bench: {e}");
        return ExitCode::from(2);
    }
    if !cfg.quiet {
        println!(
            "serve-bench: {} conn(s) x {} request(s) against {}:{}",
            cfg.conns, cfg.requests, cfg.host, cfg.port
        );
    }
    match run(&cfg) {
        Ok(BenchRun { payload, .. }) => {
            if !cfg.quiet {
                println!("{payload}");
                println!("serve-bench: wrote {}", cfg.out.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve-bench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank_on_a_sorted_copy() {
        let unsorted = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert!((percentile(&unsorted, 50.0) - 3.0).abs() < 1e-12);
        assert!((percentile(&unsorted, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&unsorted, 100.0) - 5.0).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert!((percentile(&[7.5], 99.0) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn bench_json_is_valid_and_carries_the_headline_fields() {
        let cfg = BenchConfig::default();
        let tally = Tally::default();
        tally.ok.store(10, Ordering::Relaxed);
        tally.sweeps.store(4, Ordering::Relaxed);
        tally.sweep_cache_hits.store(3, Ordering::Relaxed);
        let payload =
            bench_json(&cfg, &tally, &Latency::of(&[1.0, 2.0, 3.0, 4.0], 2.0), Some(true));
        let doc = json::parse(&payload).unwrap();
        let num = |doc: &json::Json, key: &str| doc.get(key).and_then(json::Json::as_f64);
        assert_eq!(num(&doc, "requests_per_sec"), Some(2.0));
        assert_eq!(num(&doc, "cache_hit_rate"), Some(0.75));
        assert!(num(&doc, "p50_latency_ms").is_some());
        assert!(num(&doc, "p99_latency_ms").is_some());
        assert!(payload.contains("\"verified\": true"));
        let unverified = bench_json(&cfg, &Tally::default(), &Latency::of(&[], 0.0), None);
        let doc = json::parse(&unverified).unwrap();
        assert!(unverified.contains("\"verified\": null"));
        assert_eq!(num(&doc, "cache_hit_rate"), Some(0.0));
    }

    #[test]
    fn request_lines_are_valid_protocol_json() {
        let cfg = BenchConfig::default();
        let t = translate_line(&cfg, "Gobmk", "colt_all");
        let parsed = json::parse(&t).unwrap();
        assert_eq!(parsed.get("op").and_then(json::Json::as_str), Some("translate"));
        let s = sweep_line(&cfg);
        let parsed = json::parse(&s).unwrap();
        assert_eq!(parsed.get("op").and_then(json::Json::as_str), Some("sweep"));
        assert_eq!(
            parsed.get("accesses").and_then(json::Json::as_u64),
            Some(cfg.sweep_accesses)
        );
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter_and_a_cap() {
        let policy = RetryPolicy {
            base_backoff_ms: 10,
            max_backoff_ms: 100,
            ..RetryPolicy::default()
        };
        assert!(backoff_ms(&policy, 0, 0) == 10);
        assert!(backoff_ms(&policy, 1, 0) == 20);
        assert!(backoff_ms(&policy, 2, 0) == 40);
        // Jitter adds at most base-1.
        assert!(backoff_ms(&policy, 0, u64::MAX) < 20);
        // The ceiling holds at any attempt.
        assert_eq!(backoff_ms(&policy, 20, 12345), 100);
    }

    #[test]
    fn backoff_replays_with_the_same_jitter_stream() {
        let policy = RetryPolicy::default();
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for attempt in 0..8 {
            assert_eq!(
                backoff_ms(&policy, attempt, a.next_u64()),
                backoff_ms(&policy, attempt, b.next_u64())
            );
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers_on_success() {
        let policy = RetryPolicy {
            breaker_threshold: 3,
            breaker_cooldown_ms: 1,
            ..RetryPolicy::default()
        };
        let mut breaker = Breaker::new();
        assert!(!breaker.on_failure(&policy));
        assert!(!breaker.on_failure(&policy));
        assert!(breaker.on_failure(&policy), "third consecutive failure opens it");
        assert!(breaker.open_until.is_some());
        breaker.wait_if_open();
        assert!(breaker.open_until.is_none(), "waiting consumes the open state");
        // After the half-open probe succeeds, the slate is clean.
        assert!(!breaker.on_failure(&policy));
        breaker.on_success();
        assert!(!breaker.on_failure(&policy));
        assert!(!breaker.on_failure(&policy));
    }

    #[test]
    fn classify_buckets_every_rejection_category() {
        let tally = Tally::default();
        for kind in ["busy", "shed", "too_large", "deadline", "malformed"] {
            let line = obj! { "ok" => false, "error" => "x", "rejected" => kind }.line();
            assert!(!classify(&tally, &json::parse(&line).unwrap()));
        }
        assert!(!classify(
            &tally,
            &json::parse("{\"ok\": false, \"error\": \"boom\"}").unwrap()
        ));
        let load = |f: &AtomicU64| f.load(Ordering::Relaxed);
        assert_eq!(load(&tally.rejected_busy), 1);
        assert_eq!(load(&tally.rejected_shed), 1);
        assert_eq!(load(&tally.rejected_too_large), 1);
        assert_eq!(load(&tally.rejected_deadline), 1);
        assert_eq!(load(&tally.rejected_malformed), 1);
        assert_eq!(load(&tally.errors), 1);
        assert_eq!(tally.rejections(), 5);
    }
}
