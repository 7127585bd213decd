//! Integration suite for `repro serve`: the determinism guarantee
//! (served bytes == direct bytes), the LRU result cache, single-flight
//! coalescing of sweeps and of preparations, the persistent translate
//! workers, queue expiry, backpressure rejection under flood, the
//! connection cap, and warm restart from durable snapshots.
//!
//! The server and the snapshot cache share process-global state (the
//! in-memory preparation cache, the stats counters, and — in the warm
//! restart test — the `COLT_SNAPSHOT_DIR` environment variable), so
//! every test serializes on [`GATE`].

use colt_core::serve::{self, json, ServeConfig};
use colt_core::sim::{self, SimConfig};
use colt_core::snapshot_cache;
use colt_tlb::config::TlbConfig;
use colt_workloads::scenario::Scenario;
use colt_workloads::spec::benchmark;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

static GATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A quiet server on an ephemeral port with fast-test bounds.
fn test_config() -> ServeConfig {
    ServeConfig { quiet: true, jobs: 2, ..ServeConfig::default() }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(port: u16) -> Client {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().expect("clone");
        Client { writer, reader: BufReader::new(stream) }
    }

    fn request(&mut self, line: &str) -> json::Json {
        writeln!(self.writer, "{line}").expect("send");
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("recv");
        assert!(n > 0, "server closed the connection mid-request");
        json::parse(response.trim()).expect("response parses")
    }

    fn shutdown(mut self) {
        let r = self.request("{\"op\": \"shutdown\"}");
        assert_eq!(r.get("ok").and_then(json::Json::as_bool), Some(true));
    }
}

fn ok(response: &json::Json) -> bool {
    response.get("ok").and_then(json::Json::as_bool) == Some(true)
}

fn field(response: &json::Json, key: &str) -> u64 {
    response.get(key).and_then(json::Json::as_u64).unwrap_or_else(|| panic!("{key}: {response:?}"))
}

/// A translate long enough to keep a worker busy for a good while in
/// any build: three million references.
const LONG_TRANSLATE: &str =
    "{\"op\": \"translate\", \"benchmark\": \"Gobmk\", \"accesses\": 3000000}";

/// Polls `stats` until `done` holds for it; panics after a minute.
fn wait_for_stats(client: &mut Client, what: &str, done: impl Fn(&json::Json) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.request("{\"op\": \"stats\"}");
        if done(&stats) {
            return;
        }
        assert!(std::time::Instant::now() < deadline, "never saw {what}: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn served_sweep_is_byte_identical_to_direct_and_cached_on_repeat() {
    let _g = lock();
    let handle = serve::start(test_config()).expect("server starts");
    let port = handle.port;
    let mut client = Client::connect(port);

    let line = "{\"op\": \"sweep\", \"experiment\": \"fig18\", \"accesses\": 20000, \
                \"bench\": \"Gobmk\"}";
    let first = client.request(line);
    assert!(ok(&first), "first sweep succeeds: {first:?}");
    let first_bytes =
        first.get("bytes").and_then(json::Json::as_str).expect("bytes").to_string();

    // Determinism guarantee: the socket bytes equal the direct run's.
    let opts = serve::sweep_options(
        Some(20_000),
        Some("Gobmk"),
        None,
        colt_os_mem::policy::PolicyKind::Default,
        1,
        ServeConfig::default().max_accesses,
    );
    let direct = serve::sweep_csv("fig18", &opts).expect("direct run");
    assert_eq!(
        first_bytes, direct,
        "a sweep served over the socket must be byte-identical to the same \
         sweep run directly"
    );

    // Second identical request: served from the LRU result cache, same
    // bytes, no recompute.
    let second = client.request(line);
    assert!(ok(&second));
    assert_eq!(
        second.get("cached").and_then(json::Json::as_bool),
        Some(true),
        "the second identical sweep must be a cache hit: {second:?}"
    );
    assert_eq!(
        second.get("bytes").and_then(json::Json::as_str),
        Some(first_bytes.as_str()),
        "cached bytes must be identical to the originally served bytes"
    );

    // A different access budget is a different fingerprint — not cached.
    let third = client.request(
        "{\"op\": \"sweep\", \"experiment\": \"fig18\", \"accesses\": 21000, \
         \"bench\": \"Gobmk\"}",
    );
    assert!(ok(&third));
    assert_eq!(third.get("cached").and_then(json::Json::as_bool), Some(false));

    client.shutdown();
    let summary = handle.wait();
    assert_eq!(summary.failed_cells, 0);
    assert_eq!(summary.sweeps, 3);
    assert_eq!(summary.sweep_cache_hits, 1);
}

#[test]
fn served_translate_matches_a_direct_simulation() {
    let _g = lock();
    let handle = serve::start(test_config()).expect("server starts");
    let mut client = Client::connect(handle.port);

    let response = client.request(
        "{\"op\": \"translate\", \"benchmark\": \"Gobmk\", \"config\": \"colt_all\", \
         \"accesses\": 5000}",
    );
    assert!(ok(&response), "{response:?}");

    let spec = benchmark("Gobmk").unwrap();
    let workload = Scenario::default_linux().prepare(&spec).expect("prepare");
    let direct = sim::run(
        &workload,
        &SimConfig::new(TlbConfig::colt_all()).with_accesses(5000),
    );
    for (field, expected) in [
        ("accesses", direct.tlb.accesses),
        ("l1_misses", direct.tlb.l1_misses),
        ("l2_misses", direct.tlb.l2_misses),
        ("walks", direct.walker.walks),
        ("walk_cycles", direct.walk_cycles),
    ] {
        assert_eq!(
            response.get(field).and_then(json::Json::as_u64),
            Some(expected),
            "served '{field}' must match the direct simulation"
        );
    }

    // Unknown names are errors, not crashes, and the connection lives on.
    let bad = client.request("{\"op\": \"translate\", \"benchmark\": \"NotABench\"}");
    assert!(!ok(&bad));
    let ping = client.request("{\"op\": \"ping\"}");
    assert!(ok(&ping));

    client.shutdown();
    assert_eq!(handle.wait().failed_cells, 0);
}

#[test]
fn served_translate_honors_the_policy_field_and_rejects_unknown_policies() {
    let _g = lock();
    let handle = serve::start(test_config()).expect("server starts");
    let mut client = Client::connect(handle.port);

    // A no_thp translate must differ from the default-policy run (no
    // huge pages → more walks) and match the direct no_thp simulation:
    // the pool the server prepared under no_thp was keyed separately.
    let response = client.request(
        "{\"op\": \"translate\", \"benchmark\": \"Gobmk\", \"config\": \"colt_all\", \
         \"accesses\": 5000, \"policy\": \"no_thp\"}",
    );
    assert!(ok(&response), "{response:?}");

    let spec = benchmark("Gobmk").unwrap();
    let policy = colt_os_mem::policy::PolicyKind::NoThp;
    let workload =
        Scenario::default_linux().with_policy(policy).prepare(&spec).expect("prepare");
    let direct = sim::run(
        &workload,
        &SimConfig::new(TlbConfig::colt_all()).with_accesses(5000),
    );
    for (field, expected) in [
        ("accesses", direct.tlb.accesses),
        ("l1_misses", direct.tlb.l1_misses),
        ("walks", direct.walker.walks),
        ("walk_cycles", direct.walk_cycles),
    ] {
        assert_eq!(
            response.get(field).and_then(json::Json::as_u64),
            Some(expected),
            "served '{field}' under no_thp must match the direct no_thp simulation"
        );
    }

    // Unknown policies are rejected before anything is prepared, and
    // the connection lives on.
    let bad = client.request(
        "{\"op\": \"translate\", \"benchmark\": \"Gobmk\", \"policy\": \"bogus\"}",
    );
    assert!(!ok(&bad), "{bad:?}");
    assert!(ok(&client.request("{\"op\": \"ping\"}")));

    client.shutdown();
    assert_eq!(handle.wait().failed_cells, 0);
}

#[test]
fn backpressure_rejects_translates_busy_while_pings_survive_a_flood() {
    let _g = lock();
    // queue_cap 0: every translate meets a full dispatch queue.
    let cfg = ServeConfig { queue_cap: 0, ..test_config() };
    let handle = serve::start(cfg).expect("server starts");
    let port = handle.port;

    std::thread::scope(|scope| {
        let mut flood = Vec::new();
        for _ in 0..6 {
            flood.push(scope.spawn(move || {
                let mut client = Client::connect(port);
                let mut busy = 0u32;
                for i in 0..20 {
                    if i % 2 == 0 {
                        let r = client.request(
                            "{\"op\": \"translate\", \"benchmark\": \"Gobmk\", \
                             \"accesses\": 2000}",
                        );
                        assert_eq!(
                            r.get("rejected").and_then(json::Json::as_str),
                            Some("busy"),
                            "with a zero-capacity queue every translate is \
                             politely rejected: {r:?}"
                        );
                        busy += 1;
                    } else {
                        // The flood must not starve trivial requests.
                        assert!(ok(&client.request("{\"op\": \"ping\"}")));
                    }
                }
                busy
            }));
        }
        let total: u32 = flood.into_iter().map(|h| h.join().expect("no panic")).sum();
        assert_eq!(total, 60);
    });

    Client::connect(port).shutdown();
    let summary = handle.wait();
    assert_eq!(summary.rejected_busy, 60);
    assert_eq!(summary.translates, 0, "nothing was dispatched");
    assert_eq!(summary.failed_cells, 0);
}

#[test]
fn a_restarted_server_resumes_warm_from_disk_snapshots() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!(
        "colt-serve-restart-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("COLT_SNAPSHOT_DIR", &dir);
    snapshot_cache::set_disk_persistence(true);
    snapshot_cache::clear_memory();
    let _ = snapshot_cache::take_stats();

    // First server lifetime: a cold translate populates the durable
    // snapshot layer.
    let handle = serve::start(test_config()).expect("first server");
    let mut client = Client::connect(handle.port);
    let line = "{\"op\": \"translate\", \"benchmark\": \"Bzip2\", \"accesses\": 3000}";
    let first = client.request(line);
    assert!(ok(&first), "{first:?}");
    client.shutdown();
    assert_eq!(handle.wait().failed_cells, 0);
    // The server drains the snapshot-cache stats into its own counters
    // after every preparation, so the cold build's evidence is the
    // durable snapshot it left behind.
    let snapshots = std::fs::read_dir(&dir).unwrap().count();
    assert!(snapshots >= 1, "a .snap file must survive the first server");

    // "Restart": a fresh server in a process whose memory cache is
    // empty — exactly a new process's state. The preparation must come
    // from the snapshot on disk, not a rebuild.
    snapshot_cache::clear_memory();
    let handle = serve::start(test_config()).expect("second server");
    let mut client = Client::connect(handle.port);
    let warm_response = client.request(line);
    assert!(ok(&warm_response));
    assert_eq!(
        warm_response.get("l1_misses").and_then(json::Json::as_u64),
        first.get("l1_misses").and_then(json::Json::as_u64),
        "a snapshot-restored preparation must simulate identically"
    );
    // A worker drains the cache stats into the server's counters before
    // it answers, so the decode is counted by now.
    let stats = client.request("{\"op\": \"stats\"}");
    assert_eq!(
        (field(&stats, "prep_disk_hits"), field(&stats, "prep_misses")),
        (1, 0),
        "the restarted server must warm up from disk, not rebuild: {stats:?}"
    );
    client.shutdown();
    assert_eq!(handle.wait().failed_cells, 0);

    // Leave the process the way library tests expect it.
    snapshot_cache::set_disk_persistence(false);
    std::env::remove_var("COLT_SNAPSHOT_DIR");
    snapshot_cache::clear_memory();
    let _ = snapshot_cache::take_stats();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_concurrent_sweeps_coalesce_behind_one_leader() {
    let _g = lock();
    let handle = serve::start(test_config()).expect("server starts");
    let port = handle.port;

    let line = "{\"op\": \"sweep\", \"experiment\": \"fig19\", \"accesses\": 8000, \
                \"bench\": \"Bzip2\"}";
    let responses: Vec<json::Json> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(port);
                    let r = client.request(line);
                    assert!(ok(&r), "{r:?}");
                    r
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("no panic")).collect()
    });
    let bytes = |r: &json::Json| r.get("bytes").and_then(json::Json::as_str).map(str::to_string);
    assert!(
        responses.windows(2).all(|w| bytes(&w[0]) == bytes(&w[1])),
        "all four got the same bytes"
    );
    let computed = responses
        .iter()
        .filter(|r| r.get("cached").and_then(json::Json::as_bool) == Some(false))
        .count();
    assert_eq!(computed, 1, "exactly one of four identical sweeps computes");

    Client::connect(port).shutdown();
    let summary = handle.wait();
    assert_eq!(summary.sweeps, 4);
    assert_eq!(
        summary.sweep_cache_hits + summary.sweep_coalesced,
        3,
        "the other three are cache hits or coalesced followers (got {} + {})",
        summary.sweep_cache_hits,
        summary.sweep_coalesced
    );
    assert_eq!(summary.failed_cells, 0);
}

/// Past [`serve::MAX_CONNS`] concurrent connections the next one reads
/// one `busy` rejection and is closed, while the held ones keep
/// answering.
#[test]
fn connections_past_the_cap_are_rejected_busy() {
    let _g = lock();
    let handle = serve::start(test_config()).expect("server starts");
    let port = handle.port;

    // A ping answered on each connection means its handler is running
    // and counted against the cap.
    let mut held: Vec<Client> = (0..serve::MAX_CONNS)
        .map(|_| {
            let mut client = Client::connect(port);
            assert!(ok(&client.request("{\"op\": \"ping\"}")));
            client
        })
        .collect();

    let mut extra = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    extra.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reply = String::new();
    extra.read_to_string(&mut reply).expect("the rejection, then EOF");
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one line, then close: {reply:?}");
    let rejection = json::parse(lines[0]).expect("rejection parses");
    assert!(!ok(&rejection));
    assert_eq!(
        rejection.get("rejected").and_then(json::Json::as_str),
        Some("busy"),
        "{rejection:?}"
    );

    let stats = held[0].request("{\"op\": \"stats\"}");
    assert_eq!(stats.get("rejected_conns").and_then(json::Json::as_u64), Some(1));
    for client in &mut held {
        assert!(ok(&client.request("{\"op\": \"ping\"}")), "held connections still answer");
    }

    held.pop().expect("one held connection").shutdown();
    assert_eq!(handle.wait().failed_cells, 0);
}

#[test]
fn malformed_lines_and_unknown_ops_get_errors_not_disconnects() {
    let _g = lock();
    let handle = serve::start(test_config()).expect("server starts");
    let mut client = Client::connect(handle.port);

    for bad in [
        "this is not json",
        "{\"op\": \"fly\"}",
        "{\"op\": \"sweep\"}",
        "{\"op\": \"sweep\", \"experiment\": \"not-an-experiment\"}",
        "{\"op\": \"translate\"}",
        "{}",
        // The reply echoes the control character: it must come back
        // escaped, or `request` fails to parse it.
        "{\"op\":\"\\u0001\"}",
    ] {
        let r = client.request(bad);
        assert!(!ok(&r), "{bad:?} must be rejected");
        assert!(
            r.get("error").and_then(json::Json::as_str).is_some(),
            "rejections carry an error message"
        );
    }
    // The connection survived all of it.
    assert!(ok(&client.request("{\"op\": \"ping\"}")));

    client.shutdown();
    let summary = handle.wait();
    assert_eq!(summary.failed_cells, 0);
}

#[test]
fn wait_returns_promptly_after_a_socket_shutdown() {
    let _g = lock();
    let handle = serve::start(test_config()).expect("server starts");
    let port = handle.port;
    let start = std::time::Instant::now();
    Client::connect(port).shutdown();
    let summary = handle.wait();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "shutdown must converge quickly, not wait out long timeouts"
    );
    assert_eq!(summary.failed_cells, 0);
}

/// The persistent translate workers: at two workers, a short translate
/// on a warm pair is answered while a long one still runs on the other
/// worker. A dispatcher that answers a whole batch only when its slowest
/// cell ends answers the short one after the long one.
#[test]
fn a_short_translate_is_answered_while_a_long_one_runs() {
    let _g = lock();
    let _ = snapshot_cache::take_stats();
    let handle = serve::start(test_config()).expect("server starts");
    let port = handle.port;
    let mut short = Client::connect(port);
    let warm = "{\"op\": \"translate\", \"benchmark\": \"Gobmk\", \"accesses\": 1000}";
    assert!(ok(&short.request(warm)), "the pair warms up");
    let mut probe = Client::connect(port);
    let lookups = field(&probe.request("{\"op\": \"stats\"}"), "prep_mem_hits");

    let long_answered = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let long = scope.spawn(|| {
            let answer = Client::connect(port).request(LONG_TRANSLATE);
            long_answered.store(true, Ordering::SeqCst);
            answer
        });
        // The queue is empty and a worker has looked the long translate's
        // pair up: it is simulating now.
        wait_for_stats(&mut probe, "the long translate on a worker", |s| {
            field(s, "queue_len") == 0 && field(s, "prep_mem_hits") > lookups
        });
        let answer = short.request(warm);
        assert!(ok(&answer), "{answer:?}");
        assert!(
            !long_answered.load(Ordering::SeqCst),
            "the short translate must be answered before the long one"
        );
        let long = long.join().expect("no panic");
        assert!(ok(&long), "{long:?}");
        assert_eq!(field(&long, "accesses"), 3_000_000);
    });

    short.shutdown();
    assert_eq!(handle.wait().failed_cells, 0);
}

/// Queue expiry: at one worker, a translate that waits in the queue past
/// its `"deadline_ms"` is answered `deadline` and is never prepared or
/// run once the worker reaches it.
#[test]
fn a_translate_that_expires_in_the_queue_is_never_prepared() {
    let _g = lock();
    snapshot_cache::clear_memory();
    let _ = snapshot_cache::take_stats();
    let handle = serve::start(ServeConfig { jobs: 1, ..test_config() }).expect("server starts");
    let port = handle.port;
    let mut long = Client::connect(port);
    let mut probe = Client::connect(port);

    std::thread::scope(|scope| {
        let answer = scope.spawn(|| long.request(LONG_TRANSLATE));
        // The long translate's cold preparation is done and counted: the
        // one worker is simulating it.
        wait_for_stats(&mut probe, "the long translate prepared", |s| {
            field(s, "prep_misses") == 1
        });
        let expired = Client::connect(port).request(
            "{\"op\": \"translate\", \"benchmark\": \"Povray\", \"deadline_ms\": 20}",
        );
        assert_eq!(
            expired.get("rejected").and_then(json::Json::as_str),
            Some("deadline"),
            "{expired:?}"
        );
        let answer = answer.join().expect("no panic");
        assert!(ok(&answer), "{answer:?}");
    });

    // One worker takes jobs in order: once this warm translate is
    // answered, the expired job has been taken and dropped.
    assert!(ok(&long.request(
        "{\"op\": \"translate\", \"benchmark\": \"Gobmk\", \"accesses\": 1000}"
    )));
    let stats = probe.request("{\"op\": \"stats\"}");
    assert_eq!(field(&stats, "prep_misses"), 1, "the expired pair was prepared: {stats:?}");
    assert_eq!(field(&stats, "rejected_deadline"), 1);
    assert_eq!(field(&stats, "failed_cells"), 0);
    long.shutdown();
    assert_eq!(handle.wait().failed_cells, 0);
}

/// The preparation single-flight: four concurrent cold translates of one
/// pair at two workers prepare it once. Without it, both workers miss
/// the cache and prepare the pair side by side.
#[test]
fn concurrent_cold_translates_of_one_pair_prepare_it_once() {
    let _g = lock();
    snapshot_cache::clear_memory();
    let _ = snapshot_cache::take_stats();
    let handle = serve::start(test_config()).expect("server starts");
    let port = handle.port;

    let line = "{\"op\": \"translate\", \"benchmark\": \"Sjeng\", \"accesses\": 2000}";
    let start = Barrier::new(4);
    let answers: Vec<json::Json> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(port);
                    start.wait();
                    client.request(line)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("no panic")).collect()
    });
    for answer in &answers {
        assert!(ok(answer), "{answer:?}");
        assert_eq!(field(answer, "walks"), field(&answers[0], "walks"));
    }

    let mut client = Client::connect(port);
    let stats = client.request("{\"op\": \"stats\"}");
    assert_eq!(field(&stats, "prep_misses"), 1, "one preparation for one pair: {stats:?}");
    client.shutdown();
    assert_eq!(handle.wait().failed_cells, 0);
}
