//! The `serve_mixed` traffic: a seeded request mix and a closed-loop
//! line-JSON client for `repro serve`.
//!
//! The mix is the serving load the repository documents and gates on:
//! `repro serve-bench --conns 4 --requests 100 --accesses 5000 --sweep
//! fig18 --sweep-every 25 --sweep-accesses 20000 --bench Gobmk`
//! (EXPERIMENTS.md, "Serving mode"; the serve smoke stage of
//! `scripts/verify.sh`). As there, each connection sends its translates
//! with the TLB configuration rotating by connection and request, and a
//! fig18 sweep after every 25th translate. Two things come from the seed
//! instead of being fixed: each translate's benchmark (uniform over the
//! workload's benchmarks, where serve-bench rotates through its `--bench`
//! list) and its pattern seed (serve-bench sends none).

use colt_core::serve::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// splitmix64 (Steele, Lea & Flood): the mix needs one small seeded
/// stream, not a dependency.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-59 for the tiny
    /// `n` the mix uses).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Closed-loop client connections: twice the server's worker threads, so
/// translates queue up while a batch runs and the dispatcher batches.
pub const CONNECTIONS: usize = 4;
/// Translates each connection sends per window.
pub const TRANSLATES_PER_CONN: usize = 100;
/// A sweep follows every n-th translate of a connection.
pub const SWEEP_EVERY: usize = 25;
/// The TLB configurations translates rotate through (serve-bench's).
pub const CONFIGS: [&str; 4] = ["baseline", "colt_sa", "colt_fa", "colt_all"];
/// Accesses per translate.
pub const TRANSLATE_ACCESSES: u64 = 5_000;
/// The sweep: fig18 over this benchmark at [`SWEEP_ACCESSES`]. The
/// server answers it from its result cache once set-up has run it.
pub const SWEEP_BENCH: &str = "Gobmk";
pub const SWEEP_ACCESSES: u64 = 20_000;

/// One request of the mix.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Translate {
        benchmark: &'static str,
        config: &'static str,
        seed: u64,
    },
    Sweep,
}

impl Request {
    pub fn line(&self) -> String {
        match self {
            Request::Translate {
                benchmark,
                config,
                seed,
            } => format!(
                "{{\"op\":\"translate\",\"benchmark\":\"{benchmark}\",\"config\":\"{config}\",\
                 \"accesses\":{TRANSLATE_ACCESSES},\"seed\":{seed}}}"
            ),
            Request::Sweep => format!(
                "{{\"op\":\"sweep\",\"experiment\":\"fig18\",\"accesses\":{SWEEP_ACCESSES},\
                 \"bench\":\"{SWEEP_BENCH}\"}}"
            ),
        }
    }
}

/// The next window of the mix: one request list per connection, each
/// [`TRANSLATES_PER_CONN`] translates over `benchmarks` with a sweep
/// after every [`SWEEP_EVERY`]-th. Pattern seeds stay below 2^53 so they
/// survive the protocol's JSON numbers.
pub fn window(rng: &mut SplitMix64, benchmarks: &[&'static str]) -> Vec<Vec<Request>> {
    (0..CONNECTIONS)
        .map(|conn| {
            let mut requests = Vec::new();
            for i in 0..TRANSLATES_PER_CONN {
                requests.push(Request::Translate {
                    benchmark: benchmarks[rng.below(benchmarks.len())],
                    config: CONFIGS[(conn + i) % CONFIGS.len()],
                    seed: rng.next_u64() >> 11,
                });
                if (i + 1) % SWEEP_EVERY == 0 {
                    requests.push(Request::Sweep);
                }
            }
            requests
        })
        .collect()
}

/// One line-JSON connection to the server.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// How long a client waits for one answer before counting a transport
/// error (far above any healthy translate or cached sweep).
const READ_TIMEOUT: Duration = Duration::from_secs(60);

impl Conn {
    pub fn open(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and parses the answer. `Err` for transport
    /// errors and unparseable answers.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut answer = String::new();
        match self.reader.read_line(&mut answer) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => json::parse(&answer).map_err(|e| format!("bad answer: {e}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One answered (or failed) request: client-side latency in ms (`+∞` for
/// a failure or a refusal) and the parsed answer when it was `ok`.
pub struct Outcome {
    pub latency_ms: f64,
    pub answer: Option<Json>,
}

/// Sends `requests` in order over `conn`, each only after the previous
/// answer arrived (a closed loop).
pub fn closed_loop(conn: &mut Conn, requests: &[Request]) -> Vec<Outcome> {
    requests
        .iter()
        .map(|r| {
            let start = Instant::now();
            match conn.call(&r.line()) {
                Ok(answer) if answer.get("ok").and_then(Json::as_bool) == Some(true) => Outcome {
                    latency_ms: start.elapsed().as_secs_f64() * 1e3,
                    answer: Some(answer),
                },
                Ok(answer) => {
                    eprintln!("serve refused or failed {}: {answer:?}", r.line());
                    Outcome {
                        latency_ms: f64::INFINITY,
                        answer: None,
                    }
                }
                Err(e) => {
                    eprintln!("serve transport error on {}: {e}", r.line());
                    Outcome {
                        latency_ms: f64::INFINITY,
                        answer: None,
                    }
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn refused_and_broken_requests_cost_infinity() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("a local port");
        let port = listener.local_addr().expect("bound").port();
        // A server that refuses the first request, answers the second,
        // and hangs up on the third.
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("one client");
            let mut reader = BufReader::new(stream.try_clone().expect("clonable"));
            let mut writer = stream;
            for answer in [
                "{\"ok\": false, \"rejected\": \"busy\"}\n",
                "{\"ok\": true}\n",
            ] {
                let mut line = String::new();
                reader.read_line(&mut line).expect("a request");
                writer.write_all(answer.as_bytes()).expect("answered");
            }
            let mut line = String::new();
            reader.read_line(&mut line).expect("a last request");
        });
        let mut conn = Conn::open(port).expect("connects");
        let r = Request::Sweep;
        let out = closed_loop(&mut conn, &[r.clone(), r.clone(), r]);
        server.join().expect("the fake server does not panic");
        assert!(
            out[0].latency_ms.is_infinite() && out[0].answer.is_none(),
            "refused"
        );
        assert!(
            out[1].latency_ms.is_finite() && out[1].answer.is_some(),
            "answered"
        );
        assert!(
            out[2].latency_ms.is_infinite() && out[2].answer.is_none(),
            "hung up"
        );
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // First outputs of the reference implementation for seed 1234567.
        let mut r = SplitMix64::new(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
        assert_eq!(r.next_u64(), 9_817_491_932_198_370_423);
    }

    #[test]
    fn a_window_is_seeded_and_follows_the_serve_bench_schedule() {
        let benches = ["Gobmk", "Mcf"];
        let draw = |seed| window(&mut SplitMix64::new(seed), &benches);
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same window");
        assert_ne!(a, draw(8));
        assert_eq!(a.len(), CONNECTIONS);
        for (conn, requests) in a.iter().enumerate() {
            let translates: Vec<&Request> = requests
                .iter()
                .filter(|r| matches!(r, Request::Translate { .. }))
                .collect();
            assert_eq!(translates.len(), TRANSLATES_PER_CONN);
            assert_eq!(
                requests.len() - translates.len(),
                TRANSLATES_PER_CONN / SWEEP_EVERY
            );
            assert_eq!(requests[SWEEP_EVERY], Request::Sweep, "after the 25th");
            for (i, r) in translates.into_iter().enumerate() {
                let Request::Translate { config, seed, .. } = r else {
                    unreachable!("filtered to translates")
                };
                assert_eq!(*config, CONFIGS[(conn + i) % CONFIGS.len()]);
                let parsed = json::parse(&r.line()).expect("request lines are valid JSON");
                assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(*seed));
            }
        }
        assert!(json::parse(&Request::Sweep.line()).is_ok());
    }
}
