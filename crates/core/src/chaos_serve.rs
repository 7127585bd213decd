//! `repro chaos-serve` — the deterministic network-fault soak harness.
//!
//! Boots an in-process [`crate::serve`] server with a seeded
//! [`crate::serve::chaos::ChaosPlan`] armed, drives a mixed
//! translate/sweep workload through `serve_bench`'s retrying clients,
//! and then audits both sides of the wire against each other:
//!
//! * **zero panics** — the server caught nothing and quarantined no
//!   cells; chaos broke connections, never the service.
//! * **faults accounted** — every *disruptive* injected fault (torn
//!   frame, reset, accept hiccup) shows up as exactly one client
//!   transport error, and every one of those was retried to success.
//!   Stalls are latency, not errors, and are audited as injected-only.
//! * **no leaked slots** — after graceful drain the dispatch queue is
//!   empty and no sweep leader is still in flight.
//! * **byte identity** — the sweep served under chaos (through retries,
//!   which coalesce by sweep key) is byte-identical to a direct
//!   in-process [`serve::sweep_csv`] run.
//! * **warm-restart identity** — a second server booted from the
//!   drained cache directory serves the same sweep from its warmed
//!   cache, byte-identical again.
//!
//! The verdicts land in `results/BENCH_chaos.json`; any false verdict
//! is a nonzero exit. The whole soak is seeded (`--chaos
//! rate=R,window=W,seed=S` plus the client jitter seed), so a failure
//! replays. See DESIGN.md §15 and EXPERIMENTS.md.

use crate::artifact::{self, Verdict};
use crate::serve::chaos::{self, ChaosFault};
use crate::serve::json::{self, obj, rounded};
use crate::serve::{self, ServeConfig};
use crate::serve_bench::{self, BenchConfig, BenchRun, RobustClient, Tally};
use colt_os_mem::faults::FaultConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Soak parameters (one flag each; see `repro chaos-serve --help`).
#[derive(Clone, Debug)]
pub struct ChaosServeConfig {
    /// The fault plan the server draws from.
    pub chaos: FaultConfig,
    /// Client connections, one thread each.
    pub conns: usize,
    /// Translate requests per connection.
    pub requests: u64,
    /// Access budget per translate request.
    pub accesses: u64,
    /// Experiment for the sweep requests.
    pub sweep: String,
    /// Issue a sweep every N translates per connection.
    pub sweep_every: u64,
    /// Access budget for sweep requests.
    pub sweep_accesses: u64,
    /// Benchmark rotation.
    pub bench: String,
    /// Server worker threads.
    pub jobs: usize,
    /// Artifact path.
    pub out: PathBuf,
    /// Suppress progress lines.
    pub quiet: bool,
}

impl Default for ChaosServeConfig {
    fn default() -> Self {
        Self {
            chaos: FaultConfig { rate: 0.15, ..FaultConfig::default() },
            conns: 4,
            requests: 24,
            accesses: 2_000,
            sweep: "fig18".to_string(),
            sweep_every: 8,
            sweep_accesses: 5_000,
            bench: "Gobmk".to_string(),
            jobs: crate::experiments::default_jobs(),
            out: PathBuf::from("results/BENCH_chaos.json"),
            quiet: false,
        }
    }
}

/// Asks a freshly restarted server (warmed from `cache_dir`, chaos
/// unarmed) for the soak's sweep and checks the answer came from the
/// warmed cache, byte-identical to `direct`. Returns the evidence line.
fn warm_restart_check(
    cfg: &ChaosServeConfig,
    cache_dir: &std::path::Path,
    direct: &str,
) -> Result<String, String> {
    let server = serve::start(ServeConfig {
        port: 0,
        jobs: cfg.jobs,
        cache_dir: Some(cache_dir.to_path_buf()),
        quiet: true,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("warm-restart server failed to start: {e}"))?;
    let port = server.port;
    let tally = Tally::default();
    let mut client = RobustClient::new(
        "127.0.0.1",
        port,
        serve_bench::RetryPolicy::default(),
        cfg.chaos.seed ^ 0x3A57_FA57,
        &tally,
    );
    let line = obj! {
        "op" => "sweep",
        "experiment" => &cfg.sweep,
        "accesses" => cfg.sweep_accesses,
        "bench" => &cfg.bench,
    }
    .line();
    let response = client.request(&line)?;
    if client.request(&serve_bench::shutdown_line()).is_err() {
        // No chaos on this server, so only an infra failure lands
        // here; the direct trigger keeps wait() from hanging on it.
        server.trigger_shutdown();
    }
    let summary = server.wait();
    if response.get("ok").and_then(json::Json::as_bool) != Some(true) {
        return Err(format!(
            "restarted server rejected the sweep: {}",
            response
                .get("error")
                .and_then(json::Json::as_str)
                .unwrap_or("unknown error")
        ));
    }
    if response.get("cached").and_then(json::Json::as_bool) != Some(true) {
        return Err("restarted server recomputed instead of serving the \
                    persisted cache"
            .to_string());
    }
    let bytes = response
        .get("bytes")
        .and_then(json::Json::as_str)
        .ok_or("restarted sweep response carried no bytes")?;
    if bytes != direct {
        return Err(format!(
            "restarted sweep differs from the direct run ({} vs {} bytes)",
            bytes.len(),
            direct.len()
        ));
    }
    if !summary.drained_clean {
        return Err("restarted server's drain timed out".to_string());
    }
    Ok(format!(
        "restart warmed the cache and served {} byte(s) from it, identical \
         to the direct run",
        bytes.len()
    ))
}

/// The `BENCH_chaos.json` payload.
fn chaos_json(
    cfg: &ChaosServeConfig,
    summary: &serve::ServeSummary,
    client: &BenchRun,
    transport_errors: u64,
    wall_seconds: f64,
    verdicts: &[Verdict],
) -> String {
    let chaos = &summary.chaos;
    let load = |f: &AtomicU64| f.load(Ordering::Relaxed);
    let (tally, latency) = (&client.tally, &client.latency);
    let mut doc = obj! {
        "schema" => "colt-bench-chaos/v2",
        "chaos_rate" => cfg.chaos.rate,
        "chaos_window" => cfg.chaos.window,
        "chaos_seed" => cfg.chaos.seed,
        "conns" => cfg.conns,
        "requests_per_conn" => cfg.requests,
        "wall_seconds" => rounded(wall_seconds, 6),
        "faults_injected" => chaos.total(),
        "torn_frames" => chaos.get(ChaosFault::TornFrame),
        "resets" => chaos.get(ChaosFault::Reset),
        "stalls" => chaos.get(ChaosFault::Stall),
        "accept_hiccups" => chaos.get(ChaosFault::AcceptHiccup),
        "transport_errors" => transport_errors,
        "retries" => load(&tally.retries),
        "recovered" => load(&tally.recovered),
        "breaker_opens" => load(&tally.breaker_opens),
        "ok_requests" => load(&tally.ok),
        "rejections" => tally.rejections(),
        "rejected_shed" => summary.rejected_shed,
        "rejected_deadline" => summary.rejected_deadline,
        "panics" => summary.panics,
        "failed_cells" => summary.failed_cells,
        "persisted_sweeps" => summary.persisted,
        "p50_latency_ms" => rounded(latency.p50_ms, 3),
        "p99_latency_ms" => rounded(latency.p99_ms, 3),
        "requests_per_sec" => rounded(latency.requests_per_sec, 3),
    };
    artifact::push_verdicts(&mut doc, verdicts);
    doc.pretty()
}

/// Runs the soak end to end and writes the artifact. Returns the
/// payload plus whether every verdict passed.
///
/// # Errors
/// Infrastructure failures (server would not start, a client ran out of
/// retries, the artifact would not write) — distinct from a *failed
/// verdict*, which still produces the artifact and `Ok((_, false))`.
pub fn run(cfg: &ChaosServeConfig) -> Result<(String, bool), String> {
    let scratch = std::env::temp_dir().join(format!(
        "colt-chaos-serve-{}",
        std::process::id()
    ));
    let cache_dir = scratch.join("cache");
    // A previous crashed soak may have left artifacts; start clean so
    // the warm-restart leg proves *this* run's drain persisted.
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&cache_dir)
        .map_err(|e| format!("create {}: {e}", cache_dir.display()))?;

    let wall_start = Instant::now();
    let server = serve::start(ServeConfig {
        port: 0,
        jobs: cfg.jobs,
        cache_dir: Some(cache_dir.clone()),
        chaos: Some(cfg.chaos),
        quiet: true,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("chaos server failed to start: {e}"))?;
    let port = server.port;
    if !cfg.quiet {
        println!(
            "chaos-serve: server up on 127.0.0.1:{port} — chaos rate {}, \
             window {}, seed {}; {} conn(s) x {} request(s), sweep '{}' \
             every {}",
            cfg.chaos.rate,
            cfg.chaos.window,
            cfg.chaos.seed,
            cfg.conns,
            cfg.requests,
            cfg.sweep,
            cfg.sweep_every
        );
    }

    let bench_cfg = BenchConfig {
        port,
        conns: cfg.conns,
        requests: cfg.requests,
        accesses: cfg.accesses,
        sweep: cfg.sweep.clone(),
        sweep_every: cfg.sweep_every,
        sweep_accesses: cfg.sweep_accesses,
        bench: cfg.bench.clone(),
        verify_sweep: true,
        shutdown: false,
        out: scratch.join("bench.json"),
        seed: cfg.chaos.seed,
        quiet: true,
        ..BenchConfig::default()
    };
    // An exhausted retry budget surfaces here; shut the server down
    // before propagating so nothing is left listening.
    let (byte_identity, bench_note, client) = match serve_bench::run(&bench_cfg) {
        Ok(run) => (
            true,
            "retried+idempotent sweep matched cache and direct run byte-for-byte"
                .to_string(),
            run,
        ),
        Err(e) => (false, e, BenchRun::default()),
    };

    // Graceful drain: the shutdown ack is chaos-exempt, but the
    // *connection* can still hit an accept hiccup, so ride the same
    // retrying client and fold its transport errors into the ledger.
    let shutdown_tally = Tally::default();
    let mut shutdown_client = RobustClient::new(
        "127.0.0.1",
        port,
        serve_bench::RetryPolicy::default(),
        cfg.chaos.seed ^ 0xD0_5EED,
        &shutdown_tally,
    );
    let shutdown_ack = shutdown_client.request(&serve_bench::shutdown_line());
    if shutdown_ack.is_err() {
        // The plan ate every polite attempt (possible at extreme
        // rates: an accept hiccup drops the connection before the
        // chaos-exempt ack can be written). Pull the plug directly so
        // the drain still runs; the failed attempts stay accounted.
        server.trigger_shutdown();
    }
    let summary = server.wait();
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let seen = client.tally.transport_errors.load(Ordering::Relaxed)
        + shutdown_tally.transport_errors.load(Ordering::Relaxed);

    let chaos = summary.chaos;
    let torn = chaos.get(ChaosFault::TornFrame);
    let resets = chaos.get(ChaosFault::Reset);
    let stalls = chaos.get(ChaosFault::Stall);
    let hiccups = chaos.get(ChaosFault::AcceptHiccup);
    if !cfg.quiet {
        println!(
            "chaos-serve: drain {} — {} fault(s) injected ({torn} torn, {resets} \
             reset, {stalls} stalled, {hiccups} accept), {seen} transport error(s) retried",
            if summary.drained_clean { "clean" } else { "TIMED OUT" },
            chaos.total(),
        );
    }

    // The warm-restart leg needs the direct bytes to compare against;
    // this is the same in-process run `verify_sweep` used.
    let direct = serve::sweep_csv(
        &cfg.sweep,
        &serve::sweep_options(
            Some(cfg.sweep_accesses),
            Some(&cfg.bench),
            None,
            colt_os_mem::policy::PolicyKind::Default,
            1,
            ServeConfig::default().max_accesses,
        ),
    )?;
    let warm = warm_restart_check(cfg, &cache_dir, &direct);

    let disruptive = torn + resets + hiccups;
    let verdicts = vec![
        Verdict {
            name: "zero_panics",
            pass: summary.panics == 0 && summary.failed_cells == 0,
            evidence: format!(
                "{} panic(s) caught, {} quarantined cell(s)",
                summary.panics, summary.failed_cells
            ),
        },
        Verdict {
            name: "faults_accounted",
            pass: seen == disruptive && chaos.total() > 0,
            evidence: format!(
                "{disruptive} disruptive fault(s) injected ({torn} torn + {resets} \
                 reset + {hiccups} accept), {seen} transport error(s) observed \
                 client-side; {stalls} stall(s) injected latency only"
            ),
        },
        Verdict {
            name: "no_leaked_slots",
            pass: summary.drained_clean,
            evidence: if summary.drained_clean {
                "queue empty and no in-flight sweep leaders at drain".to_string()
            } else {
                "drain budget expired with work still in flight".to_string()
            },
        },
        Verdict {
            name: "byte_identity",
            pass: byte_identity,
            evidence: bench_note,
        },
        Verdict {
            name: "warm_restart_identity",
            pass: warm.is_ok(),
            evidence: warm.unwrap_or_else(|e| e),
        },
    ];

    let payload = chaos_json(cfg, &summary, &client, seen, wall_seconds, &verdicts);
    if let Some(moved) = artifact::quarantine_if_corrupt(&cfg.out)
        .map_err(|e| format!("inspect {}: {e}", cfg.out.display()))?
    {
        eprintln!(
            "chaos-serve: WARNING: corrupt {} quarantined to {}",
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
            println!("chaos-serve: {v}");
        }
    }
    Ok((payload, all_ok))
}

// ---------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------

fn chaos_usage() -> String {
    "usage: repro chaos-serve [--chaos rate=R,window=W,seed=S] [--conns N]\n\
     \u{20}                        [--requests N] [--accesses N] [--sweep EXP]\n\
     \u{20}                        [--sweep-every N] [--sweep-accesses N]\n\
     \u{20}                        [--bench A,B] [--jobs N] [--out PATH] [--quiet]\n\
     Runs the seeded network-fault soak: an in-process server with the\n\
     chaos plan armed, retrying clients, and five audited verdicts\n\
     (zero panics, all faults accounted, no leaked slots, byte identity\n\
     under retries, warm-restart identity). Writes results/BENCH_chaos.json\n\
     and exits nonzero when any verdict fails."
        .to_string()
}

/// `repro chaos-serve` entry point.
pub fn cli(args: &[String]) -> ExitCode {
    let mut cfg = ChaosServeConfig::default();
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
            "--chaos" => value
                .ok_or_else(|| "--chaos needs a spec".to_string())
                .and_then(|v| FaultConfig::parse(v, chaos::DEFAULT_RATE))
                .map(|c| cfg.chaos = c),
            "--conns" => parse_u64(arg, value).map(|n| cfg.conns = n.max(1) as usize),
            "--requests" => parse_u64(arg, value).map(|n| cfg.requests = n.max(1)),
            "--accesses" => parse_u64(arg, value).map(|n| cfg.accesses = n.max(1)),
            "--sweep" => value
                .ok_or_else(|| "--sweep needs an experiment".to_string())
                .map(|v| cfg.sweep = v.clone()),
            "--sweep-every" => parse_u64(arg, value).map(|n| cfg.sweep_every = n),
            "--sweep-accesses" => {
                parse_u64(arg, value).map(|n| cfg.sweep_accesses = n.max(1))
            }
            "--bench" => value
                .ok_or_else(|| "--bench needs a list".to_string())
                .map(|v| cfg.bench = v.clone()),
            "--jobs" => parse_u64(arg, value).map(|n| cfg.jobs = n.max(1) as usize),
            "--out" => value
                .ok_or_else(|| "--out needs a path".to_string())
                .map(|v| cfg.out = PathBuf::from(v)),
            "--quiet" => {
                took_value = false;
                cfg.quiet = true;
                Ok(())
            }
            "--help" | "-h" => {
                println!("{}", chaos_usage());
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag '{other}'")),
        };
        if let Err(e) = result {
            eprintln!("{e}\n{}", chaos_usage());
            return ExitCode::from(2);
        }
        i += if took_value { 2 } else { 1 };
    }
    match run(&cfg) {
        Ok((payload, all_ok)) => {
            if !cfg.quiet {
                println!("chaos details written to {}", cfg.out.display());
            }
            if all_ok {
                if !cfg.quiet {
                    println!(
                        "CHAOS PASS: every verdict held (see {})",
                        cfg.out.display()
                    );
                }
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "CHAOS FAIL: one or more verdicts failed; payload:\n{payload}"
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("chaos-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
