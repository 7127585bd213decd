//! Deterministic network-fault injection for `repro serve`: the chaos
//! stream of the shared seeded plan in `colt_os_mem::faults`.
//!
//! The server consults a [`ChaosPlan`] at its network-failure-prone
//! choice points — every response write and every accepted connection.
//! The plan replays the same decision *sequence* for a given config;
//! which connection observes which decision depends on thread
//! interleaving, but the per-kind fault budget over N decisions is
//! plan-driven and every injection is counted, never silent.
//!
//! Faults model what a hostile network does to a resident service:
//!
//! * **torn frame** — the response line is cut mid-JSON and the socket
//!   closed; the client's parser sees garbage, then EOF.
//! * **reset** — the socket closes before any response byte.
//! * **stall** — the response is delayed by a plan-drawn pause (a slow
//!   or congested peer; latency, not an error).
//! * **accept hiccup** — the connection is accepted and immediately
//!   dropped (listen-queue overflow / early RST).
//!
//! The plan decides *what breaks*; `serve_bench`'s retry + circuit-
//! breaker client and `repro chaos-serve`'s accounting decide whether
//! the service actually *recovered*. See DESIGN.md §15.

use colt_os_mem::faults::{FaultKind, FaultPlan};
use std::time::Duration;

/// Default injection rate of `--chaos`.
pub const DEFAULT_RATE: f64 = 0.1;

/// The chaos stream's kinds. Every injected fault lands in exactly one,
/// so the per-kind counts always sum to the plan's total — the "all
/// faults accounted for" invariant `repro chaos-serve` gates on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosFault {
    /// A response cut mid-frame.
    TornFrame,
    /// A response replaced by a bare close.
    Reset,
    /// A response delayed.
    Stall,
    /// A connection dropped straight out of `accept`.
    AcceptHiccup,
}

impl FaultKind for ChaosFault {
    const STREAM: u64 = 0xC4A0_5EED_0DDB_A115;
    const ALL: &'static [Self] =
        &[Self::TornFrame, Self::Reset, Self::Stall, Self::AcceptHiccup];
}

/// A live, seeded stream of network-fault decisions.
pub type ChaosPlan = FaultPlan<ChaosFault>;

/// What one response-write decision point does to the frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResponseFault {
    /// Write the whole line.
    Deliver,
    /// Write a prefix of the line, then close the socket.
    TornFrame,
    /// Close the socket before any byte.
    Reset,
    /// Delay, then write the whole line.
    Stall(Duration),
}

/// The chaos stream's decision points.
pub trait ChaosStream {
    /// The fate of one response write. A firing decision draws once
    /// more to pick the kind (torn / reset / stall), and a stall once
    /// more for its duration.
    fn response_fault(&mut self) -> ResponseFault;
    /// Should this just-accepted connection be dropped on the floor?
    fn accept_hiccup(&mut self) -> bool;
    /// Where a torn frame cuts `len` response bytes: at least one byte
    /// is written (the client must see a *torn* frame, not a bare
    /// close — that is what `Reset` models) and the newline never is.
    fn tear_at(&mut self, len: usize) -> usize;
}

impl ChaosStream for ChaosPlan {
    fn response_fault(&mut self) -> ResponseFault {
        let kind = self.decide(|p| match p.extra() % 3 {
            0 => ChaosFault::TornFrame,
            1 => ChaosFault::Reset,
            _ => ChaosFault::Stall,
        });
        match kind {
            None => ResponseFault::Deliver,
            Some(ChaosFault::TornFrame) => ResponseFault::TornFrame,
            Some(ChaosFault::Reset) => ResponseFault::Reset,
            Some(_) => ResponseFault::Stall(Duration::from_millis(10 + self.extra() % 91)),
        }
    }

    fn accept_hiccup(&mut self) -> bool {
        self.decide(|_| ChaosFault::AcceptHiccup).is_some()
    }

    fn tear_at(&mut self, len: usize) -> usize {
        if len <= 1 {
            return 1;
        }
        1 + (self.extra() as usize) % (len - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_os_mem::faults::{self, FaultConfig};

    fn cfg(rate: f64, seed: u64) -> FaultConfig {
        FaultConfig { rate, window: 0, seed }
    }

    #[test]
    fn parse_full_partial_and_empty_specs() {
        let parse = |spec| FaultConfig::parse(spec, DEFAULT_RATE).unwrap();
        assert_eq!(parse("rate=0.25,window=64,seed=42"), FaultConfig { rate: 0.25, window: 64, seed: 42 });
        assert_eq!(parse(""), FaultConfig { rate: 0.1, window: 0, seed: 7 });
        assert_eq!(parse("seed=9"), FaultConfig { rate: 0.1, window: 0, seed: 9 });
    }

    /// `--chaos` shares the parser with `--faults` and `--io-faults`:
    /// the same specs fail at either default rate.
    #[test]
    fn parse_rejects_bad_input() {
        for bad in ["rate=2.0", "banana=1", "rate", "window=-3"] {
            assert!(FaultConfig::parse(bad, DEFAULT_RATE).is_err(), "{bad:?}");
            assert!(FaultConfig::parse(bad, faults::DEFAULT_RATE).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn per_kind_counts_always_sum_to_the_total() {
        let mut plan = ChaosPlan::new(cfg(0.5, 3));
        for _ in 0..300 {
            let _ = plan.response_fault();
            let _ = plan.accept_hiccup();
        }
        let c = plan.counts();
        let by_kind: u64 = ChaosFault::ALL.iter().map(|&k| c.get(k)).sum();
        assert_eq!(by_kind, plan.injected());
        assert!(ChaosFault::ALL.iter().all(|&k| c.get(k) > 0), "{c:?}");
    }

    #[test]
    fn tears_land_strictly_inside_the_frame() {
        let mut plan = ChaosPlan::new(cfg(1.0, 11));
        for len in [1usize, 2, 3, 64, 4096] {
            for _ in 0..50 {
                let cut = plan.tear_at(len);
                assert!(cut >= 1, "at least one byte is written");
                assert!(cut <= len.max(1), "never past the frame");
                if len > 1 {
                    assert!(cut < len, "the newline is never written");
                }
            }
        }
    }

    #[test]
    fn stall_durations_are_bounded() {
        let mut plan = ChaosPlan::new(cfg(1.0, 19));
        let mut stalls = 0;
        for _ in 0..300 {
            if let ResponseFault::Stall(d) = plan.response_fault() {
                assert!(d >= Duration::from_millis(10) && d <= Duration::from_millis(100));
                stalls += 1;
            }
        }
        assert!(stalls > 0);
    }
}
