//! Integration suite for the chaos-hardened serve layer: fault
//! injection survived end to end (via `chaos_serve::run`), deadlines,
//! load shedding, oversized-line rejection, slow-client eviction,
//! client disconnect mid-sweep, and a mid-request kill followed by a
//! warm restart from the drained result cache.
//!
//! The server and the snapshot cache share process-global state, so
//! every test serializes on [`GATE`] (the suite's own gate; this
//! binary runs in its own process, separate from `tests/serve.rs`).

use colt_core::chaos_serve::{self, ChaosServeConfig};
use colt_core::serve::{self, json, ServeConfig};
use colt_os_mem::faults::FaultConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static GATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A quiet server on an ephemeral port with fast-test bounds.
fn test_config() -> ServeConfig {
    ServeConfig { quiet: true, jobs: 2, ..ServeConfig::default() }
}

/// A scratch directory unique to this test run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "colt-chaos-test-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
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

fn rejected_as(response: &json::Json, kind: &str) -> bool {
    response.get("rejected").and_then(json::Json::as_str) == Some(kind)
}

/// The direct bytes a sweep request must match.
fn direct_bytes(experiment: &str, accesses: u64, bench: &str) -> String {
    let opts = serve::sweep_options(
        Some(accesses),
        Some(bench),
        None,
        colt_os_mem::policy::PolicyKind::Default,
        1,
        ServeConfig::default().max_accesses,
    );
    serve::sweep_csv(experiment, &opts).expect("direct run")
}

/// The full soak under a seeded fault plan: torn frames, resets,
/// stalls, and accept hiccups are injected, the retrying clients
/// recover every one, and all five verdicts hold — including byte
/// identity under retries and the warm restart from the drained cache.
#[test]
fn seeded_chaos_soak_recovers_every_fault_and_keeps_byte_identity() {
    let _g = lock();
    let out = scratch("soak").join("BENCH_chaos.json");
    let cfg = ChaosServeConfig {
        chaos: FaultConfig { rate: 0.15, window: 0, seed: 7 },
        conns: 2,
        requests: 10,
        accesses: 500,
        sweep_every: 4,
        sweep_accesses: 1_000,
        jobs: 2,
        out: out.clone(),
        quiet: true,
        ..ChaosServeConfig::default()
    };
    let (payload, all_ok) = chaos_serve::run(&cfg).expect("soak infrastructure holds");
    assert!(all_ok, "every verdict must pass:\n{payload}");
    let doc = json::parse(&payload).expect("payload parses");
    let num = |k: &str| doc.get(k).and_then(json::Json::as_u64).unwrap_or(0);
    assert!(num("faults_injected") > 0, "the plan must actually inject:\n{payload}");
    assert_eq!(
        num("torn_frames") + num("resets") + num("accept_hiccups") + num("stalls"),
        num("faults_injected"),
        "per-kind counts must account for every fault"
    );
    assert_eq!(
        num("transport_errors"),
        num("torn_frames") + num("resets") + num("accept_hiccups"),
        "every disruptive fault surfaces as exactly one retried transport error"
    );
    assert!(out.exists(), "the artifact landed");
    let _ = std::fs::remove_dir_all(out.parent().unwrap());
}

/// A client that vanishes mid-sweep must not leak the flight: the
/// leader thread finishes, the bytes land in the cache, and a later
/// client gets them byte-identical to the direct run.
#[test]
fn client_disconnect_mid_sweep_still_lands_the_result_for_others() {
    let _g = lock();
    let handle = serve::start(test_config()).expect("server starts");
    let port = handle.port;
    let line = "{\"op\": \"sweep\", \"experiment\": \"fig19\", \"accesses\": 6000, \
                \"bench\": \"Bzip2\"}";

    // Fire the sweep, give the leader a moment to start, then vanish
    // without reading the response.
    {
        let mut doomed = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        writeln!(doomed, "{line}").expect("send");
        doomed.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
    } // dropped: RST/close while the sweep is (or was just) in flight

    // A later client asking for the same sweep gets the finished bytes
    // (coalesced onto the still-running leader or straight from cache).
    let mut client = Client::connect(port);
    let deadline = Instant::now() + Duration::from_secs(30);
    let bytes = loop {
        let r = client.request(line);
        if ok(&r) {
            break r.get("bytes").and_then(json::Json::as_str).unwrap().to_string();
        }
        assert!(
            Instant::now() < deadline,
            "the abandoned sweep must still complete: {r:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        bytes,
        direct_bytes("fig19", 6000, "Bzip2"),
        "the survivor's bytes match the direct run"
    );

    client.shutdown();
    let summary = handle.wait();
    assert!(summary.drained_clean, "no sweep leader leaked");
    assert_eq!(summary.failed_cells, 0);
    assert_eq!(summary.panics, 0);
}

/// Killing the server mid-request drains gracefully: the in-flight
/// sweep finishes, its bytes are fsynced to the cache directory, and a
/// restarted server serves them from the warmed cache, byte-identical.
#[test]
fn kill_mid_request_then_warm_restart_serves_identical_bytes() {
    let _g = lock();
    let dir = scratch("restart");
    let cfg = ServeConfig { cache_dir: Some(dir.clone()), ..test_config() };
    let handle = serve::start(cfg.clone()).expect("first server");
    let port = handle.port;
    let line = "{\"op\": \"sweep\", \"experiment\": \"fig18\", \"accesses\": 7000, \
                \"bench\": \"Gobmk\"}";

    // Fire the sweep and pull the plug while it is in flight. The
    // graceful drain must wait for the leader and persist the result.
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    writeln!(stream, "{line}").expect("send");
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    handle.trigger_shutdown();
    let summary = handle.wait();
    drop(stream);
    assert!(summary.drained_clean, "the drain waited out the in-flight sweep");
    assert!(summary.persisted >= 1, "the drained cache was persisted: {summary:?}");
    assert_eq!(summary.failed_cells, 0);

    // The restarted server answers from the warmed cache — no
    // recompute — with the exact same bytes.
    let handle = serve::start(cfg).expect("second server");
    let mut client = Client::connect(handle.port);
    let r = client.request(line);
    assert!(ok(&r), "{r:?}");
    assert_eq!(
        r.get("cached").and_then(json::Json::as_bool),
        Some(true),
        "the restarted server must serve from the persisted cache: {r:?}"
    );
    assert_eq!(
        r.get("bytes").and_then(json::Json::as_str),
        Some(direct_bytes("fig18", 7000, "Gobmk").as_str()),
        "warm-restart bytes are identical to the direct run"
    );
    client.shutdown();
    assert_eq!(handle.wait().failed_cells, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request-scoped deadline rejects politely, frees the slot, and the
/// work still completes in the background and lands in the cache.
#[test]
fn deadline_rejects_politely_and_the_work_still_lands_in_the_cache() {
    let _g = lock();
    let handle = serve::start(test_config()).expect("server starts");
    let mut client = Client::connect(handle.port);

    let r = client.request(
        "{\"op\": \"sweep\", \"deadline_ms\": 1, \"experiment\": \"fig19\", \
         \"accesses\": 6000, \"bench\": \"Gobmk\"}",
    );
    assert!(rejected_as(&r, "deadline"), "1ms cannot fit a sweep: {r:?}");
    // The connection survived the rejection.
    assert!(ok(&client.request("{\"op\": \"ping\"}")));

    // The leader kept computing; without a deadline the same request
    // now returns the finished bytes (coalesced or cached).
    let deadline = Instant::now() + Duration::from_secs(30);
    let line = "{\"op\": \"sweep\", \"experiment\": \"fig19\", \"accesses\": 6000, \
                \"bench\": \"Gobmk\"}";
    loop {
        let r = client.request(line);
        if ok(&r) {
            assert_eq!(
                r.get("bytes").and_then(json::Json::as_str),
                Some(direct_bytes("fig19", 6000, "Gobmk").as_str()),
                "the deadline-abandoned work must land intact"
            );
            break;
        }
        assert!(Instant::now() < deadline, "sweep never landed: {r:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    client.shutdown();
    let summary = handle.wait();
    assert!(summary.rejected_deadline >= 1, "{summary:?}");
    assert_eq!(summary.failed_cells, 0, "a deadline miss is not a failed cell");
    assert!(summary.drained_clean);
}

/// Oversized request lines are drained and rejected with a structured
/// `too_large` error instead of a disconnect or an unbounded buffer.
#[test]
fn oversized_lines_get_a_structured_too_large_rejection() {
    let _g = lock();
    let handle = serve::start(test_config()).expect("server starts");
    let mut client = Client::connect(handle.port);

    let huge = format!(
        "{{\"op\": \"translate\", \"benchmark\": \"{}\"}}",
        "G".repeat(serve::MAX_LINE_BYTES)
    );
    let r = client.request(&huge);
    assert!(rejected_as(&r, "too_large"), "{r:?}");
    assert!(
        r.get("error").and_then(json::Json::as_str).is_some(),
        "the rejection explains itself"
    );
    // The line was drained, not left half-read: the connection still
    // serves short requests.
    assert!(ok(&client.request("{\"op\": \"ping\"}")));

    client.shutdown();
    let summary = handle.wait();
    assert_eq!(summary.rejected_too_large, 1);
    assert_eq!(summary.failed_cells, 0);
}

/// Past the queue high-water mark sweeps are shed by priority while
/// ping and stats keep answering.
#[test]
fn overload_sheds_sweeps_first_while_ping_and_stats_survive() {
    let _g = lock();
    // High-water 0: every sweep meets an "overloaded" queue.
    let cfg = ServeConfig { queue_high_water: Some(0), ..test_config() };
    let handle = serve::start(cfg).expect("server starts");
    let mut client = Client::connect(handle.port);

    let r = client.request(
        "{\"op\": \"sweep\", \"experiment\": \"fig18\", \"accesses\": 1000, \
         \"bench\": \"Gobmk\"}",
    );
    assert!(rejected_as(&r, "shed"), "{r:?}");
    // The lightweight ops are never shed…
    assert!(ok(&client.request("{\"op\": \"ping\"}")));
    let stats = client.request("{\"op\": \"stats\"}");
    assert!(ok(&stats));
    assert_eq!(stats.get("rejected_shed").and_then(json::Json::as_u64), Some(1));
    // …and translates still queue (shedding is by op priority).
    let t = client.request(
        "{\"op\": \"translate\", \"benchmark\": \"Gobmk\", \"accesses\": 1000}",
    );
    assert!(ok(&t), "{t:?}");

    client.shutdown();
    let summary = handle.wait();
    assert_eq!(summary.rejected_shed, 1);
    assert_eq!(summary.sweeps, 0, "a shed sweep never counts as started");
    assert_eq!(summary.failed_cells, 0);
}

/// A client that stalls mid-request-line past the slow-client budget
/// is evicted; its slot frees and the server keeps serving others.
#[test]
fn slow_clients_stalled_mid_line_are_evicted() {
    let _g = lock();
    let cfg = ServeConfig { slow_client_ms: 50, ..test_config() };
    let handle = serve::start(cfg).expect("server starts");
    let port = handle.port;

    // Write half a request line, then stall past the budget.
    let mut slow = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    slow.write_all(b"{\"op\": \"pi").expect("partial write");
    slow.flush().unwrap();
    // The eviction notice (or a bare close) arrives once the server's
    // read loop ticks past the budget.
    slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut tail = String::new();
    let _ = slow.read_to_string(&mut tail); // EOF = evicted
    drop(slow);

    // The server moved on: fresh clients are served normally.
    let mut client = Client::connect(port);
    assert!(ok(&client.request("{\"op\": \"ping\"}")));
    client.shutdown();
    let summary = handle.wait();
    assert_eq!(summary.evicted_slow, 1, "{summary:?}");
    assert_eq!(summary.failed_cells, 0);
}
