//! Deterministic fault injection: the one seeded plan every fault
//! stream draws from.
//!
//! A [`FaultPlan`] is a seeded duty-cycle stream of injection decisions.
//! Four streams use it, each naming only its kinds and its decision
//! methods (DESIGN.md §10, §15, §16):
//!
//! | stream | seed xor | kinds | consumer |
//! |---|---|---|---|
//! | kernel | `0` | [`KernelFault`] | buddy allocation, direct compaction, reclaim |
//! | delivery | `0xD311_7E12_5EED_CAFE` | [`DeliveryFault`] | shootdown IPIs (`repro --check`) |
//! | chaos | `0xC4A0_5EED_0DDB_A115` | `serve::chaos::ChaosFault` | `repro serve` writes and accepts |
//! | storage | `0x10FA_017D_5EED_D15C` | `io_faults::IoFaultKind` | the `FaultyVfs` storage seam |
//!
//! Every decision point consumes exactly one base draw whether or not
//! it fires, so the decision sequence depends only on the config — not
//! on the window phase or on which faults fired. A firing decision may
//! take [extra](FaultPlan::extra) draws to shape its fault (its kind, a
//! stall length, a flip position); a quiet one never does. The plan
//! counts every injected fault by kind.
//!
//! The plan decides *whether* something fails; the consumers' graceful-
//! degradation policies (base-page fallback, deferred THP collapse,
//! compaction backoff, retries, quarantine) decide what happens next.

use crate::snapshot::{Dec, Enc, SnapResult, Snapshot, SnapshotError};
use colt_prng::rngs::SmallRng;
use colt_prng::{Rng, SeedableRng};
use std::marker::PhantomData;

/// Default injection rate of `--faults` and `--io-faults` (`--chaos`
/// keeps its own, see `serve::chaos::DEFAULT_RATE`).
pub const DEFAULT_RATE: f64 = 0.05;

/// Parameters of a fault-injection plan, parsed from
/// `rate=R,window=W,seed=S` on the `repro` command line.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultConfig {
    /// Probability in `[0, 1]` that an armed decision point injects a
    /// fault.
    pub rate: f64,
    /// Duty-cycle window in decision points: the plan alternates between
    /// `window` armed decisions and `window` quiet ones, modelling bursty
    /// pressure. `0` keeps the plan armed throughout.
    pub window: u64,
    /// Seed of the decision stream.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self { rate: DEFAULT_RATE, window: 0, seed: 7 }
    }
}

impl FaultConfig {
    /// Parses `rate=R,window=W,seed=S` (each key optional, any order).
    /// Absent keys take `default_rate`, window 0 and seed 7; the empty
    /// string yields that default plan.
    ///
    /// # Errors
    /// A human-readable message naming the offending key or value.
    pub fn parse(spec: &str, default_rate: f64) -> Result<Self, String> {
        let mut cfg = Self { rate: default_rate, ..Self::default() };
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec '{part}' is not key=value"))?;
            let value = value.trim();
            match key.trim() {
                "rate" => {
                    let rate: f64 =
                        value.parse().map_err(|_| format!("bad fault rate '{value}'"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("fault rate {rate} outside [0, 1]"));
                    }
                    cfg.rate = rate;
                }
                "window" => {
                    cfg.window =
                        value.parse().map_err(|_| format!("bad fault window '{value}'"))?;
                }
                "seed" => {
                    cfg.seed = value.parse().map_err(|_| format!("bad fault seed '{value}'"))?;
                }
                other => return Err(format!("unknown fault key '{other}'")),
            }
        }
        Ok(cfg)
    }
}

/// The fault kinds one stream injects.
pub trait FaultKind: Copy + PartialEq + std::fmt::Debug + 'static {
    /// XORed into the config seed, so streams built from one config
    /// draw disjoint sequences.
    const STREAM: u64;
    /// Every kind, in counting order (at most [`MAX_KINDS`]).
    const ALL: &'static [Self];
}

/// The most kinds one stream may name.
pub const MAX_KINDS: usize = 8;

/// Per-kind fault counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Counts<K> {
    n: [u64; MAX_KINDS],
    kind: PhantomData<K>,
}

impl<K: FaultKind> Default for Counts<K> {
    fn default() -> Self {
        Self { n: [0; MAX_KINDS], kind: PhantomData }
    }
}

impl<K: FaultKind> Counts<K> {
    fn index(kind: K) -> usize {
        K::ALL.iter().position(|&k| k == kind).expect("every kind is listed in ALL")
    }

    /// Counts one fault of `kind`.
    pub fn bump(&mut self, kind: K) {
        self.n[Self::index(kind)] += 1;
    }

    /// Faults of `kind` so far.
    pub fn get(&self, kind: K) -> u64 {
        self.n[Self::index(kind)]
    }

    /// Faults of every kind.
    pub fn total(&self) -> u64 {
        self.n.iter().sum()
    }
}

/// A live, seeded stream of injection decisions for the kinds `K`.
#[derive(Clone, Debug)]
pub struct FaultPlan<K> {
    config: FaultConfig,
    rng: SmallRng,
    decisions: u64,
    counts: Counts<K>,
}

impl<K: FaultKind> FaultPlan<K> {
    /// A plan drawing from `config.seed ^ K::STREAM`.
    pub fn new(config: FaultConfig) -> Self {
        Self {
            config,
            rng: SmallRng::seed_from_u64(config.seed ^ K::STREAM),
            decisions: 0,
            counts: Counts::default(),
        }
    }

    /// The parameters this plan was built from.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Decision points consumed so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Faults injected so far, by kind.
    pub fn counts(&self) -> Counts<K> {
        self.counts
    }

    /// Faults injected so far, of any kind.
    pub fn injected(&self) -> u64 {
        self.counts.total()
    }

    /// One decision point: consumes one base draw; on a hit (armed
    /// window AND rate), `pick` chooses the kind — drawing
    /// [`extra`](Self::extra) as it needs — and the kind is counted.
    pub fn decide(&mut self, pick: impl FnOnce(&mut Self) -> K) -> Option<K> {
        let armed =
            self.config.window == 0 || (self.decisions / self.config.window) % 2 == 0;
        self.decisions += 1;
        let hit = self.rng.gen_bool(self.config.rate.clamp(0.0, 1.0));
        if !(armed && hit) {
            return None;
        }
        let kind = pick(self);
        self.record(kind);
        Some(kind)
    }

    /// An extra draw for shaping a fault. Only call on a hit, so quiet
    /// and faulty histories stay on the same base stream.
    pub fn extra(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Counts a fault injected without a decision (a dead disk refuses
    /// every operation).
    pub fn record(&mut self, kind: K) {
        self.counts.bump(kind);
    }
}

/// The kernel stream's kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelFault {
    /// A buddy allocation attempt fails spuriously.
    AllocFail,
    /// A direct-compaction attempt aborts before doing work.
    CompactionAbort,
    /// A reclaim-pressure spike evicts page cache.
    ReclaimSpike,
}

impl FaultKind for KernelFault {
    const STREAM: u64 = 0;
    const ALL: &'static [Self] = &[Self::AllocFail, Self::CompactionAbort, Self::ReclaimSpike];
}

impl FaultPlan<KernelFault> {
    /// Should this buddy allocation attempt fail spuriously?
    pub fn fail_alloc(&mut self) -> bool {
        self.decide(|_| KernelFault::AllocFail).is_some()
    }

    /// Should this direct-compaction attempt abort before doing work?
    pub fn abort_compaction(&mut self) -> bool {
        self.decide(|_| KernelFault::CompactionAbort).is_some()
    }

    /// A reclaim-pressure spike: `Some(pages)` orders the kernel to evict
    /// that much page cache right now (kswapd waking under pressure).
    pub fn reclaim_spike(&mut self) -> Option<u64> {
        self.decide(|_| KernelFault::ReclaimSpike)?;
        Some(16 + self.extra() % 49)
    }
}

/// What goes wrong with one shootdown delivery (the checker's stream;
/// no fault means normal per-VPN invalidation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeliveryFault {
    /// The IPI is lost. The receiver recovers the way real kernels do
    /// after a resend timeout: a conservative full TLB + walk-cache
    /// flush, trading performance for correctness.
    Drop,
    /// The IPI arrives twice; invalidation must be idempotent.
    Duplicate,
}

impl FaultKind for DeliveryFault {
    const STREAM: u64 = 0xD311_7E12_5EED_CAFE;
    const ALL: &'static [Self] = &[Self::Drop, Self::Duplicate];
}

impl FaultPlan<DeliveryFault> {
    /// The fate of one shootdown delivery.
    pub fn delivery_fault(&mut self) -> Option<DeliveryFault> {
        self.decide(|p| {
            if p.extra() & 1 == 0 {
                DeliveryFault::Drop
            } else {
                DeliveryFault::Duplicate
            }
        })
    }
}

impl Snapshot for FaultConfig {
    fn encode(&self, enc: &mut Enc) {
        enc.f64(self.rate);
        enc.u64(self.window);
        enc.u64(self.seed);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        let rate = dec.f64()?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(SnapshotError(format!("fault rate {rate} outside [0, 1]")));
        }
        Ok(Self { rate, window: dec.u64()?, seed: dec.u64()? })
    }
}

impl<K: FaultKind> Snapshot for FaultPlan<K> {
    fn encode(&self, enc: &mut Enc) {
        self.config.encode(enc);
        self.rng.state().encode(enc);
        enc.u64(self.decisions);
        for &kind in K::ALL {
            enc.u64(self.counts.get(kind));
        }
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        let config = FaultConfig::decode(dec)?;
        let rng = SmallRng::from_state(<[u64; 4]>::decode(dec)?);
        let decisions = dec.u64()?;
        let mut counts = Counts::default();
        for (i, _) in K::ALL.iter().enumerate() {
            counts.n[i] = dec.u64()?;
        }
        Ok(Self { config, rng, decisions, counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kind set for exercising the plan itself.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Probe {
        Even,
        Odd,
    }

    impl FaultKind for Probe {
        const STREAM: u64 = 0x5EED;
        const ALL: &'static [Self] = &[Self::Even, Self::Odd];
    }

    fn probe(plan: &mut FaultPlan<Probe>) -> Option<Probe> {
        plan.decide(|p| if p.extra() & 1 == 0 { Probe::Even } else { Probe::Odd })
    }

    #[test]
    fn parse_full_spec() {
        let cfg = FaultConfig::parse("rate=0.25,window=64,seed=42", DEFAULT_RATE).unwrap();
        assert_eq!(cfg, FaultConfig { rate: 0.25, window: 64, seed: 42 });
    }

    #[test]
    fn parse_partial_and_empty_specs_fill_the_stream_default() {
        assert_eq!(FaultConfig::parse("", DEFAULT_RATE).unwrap(), FaultConfig::default());
        let cfg = FaultConfig::parse("seed=9", DEFAULT_RATE).unwrap();
        assert_eq!(cfg, FaultConfig { seed: 9, ..FaultConfig::default() });
        let cfg = FaultConfig::parse(" window = 3 ", 0.1).unwrap();
        assert_eq!(cfg, FaultConfig { rate: 0.1, window: 3, seed: 7 });
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in ["rate=2.0", "rate=-0.1", "rate=x", "banana=1", "rate", "window=-3", "seed=s"] {
            assert!(FaultConfig::parse(bad, DEFAULT_RATE).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn plans_with_equal_configs_replay_identically() {
        let cfg = FaultConfig { rate: 0.3, window: 8, seed: 123 };
        let mut a = FaultPlan::<Probe>::new(cfg);
        let mut b = FaultPlan::<Probe>::new(cfg);
        for _ in 0..500 {
            assert_eq!(probe(&mut a), probe(&mut b));
        }
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.decisions(), 500);
        assert!(a.injected() > 0);
    }

    #[test]
    fn zero_rate_never_fires_and_full_rate_always_fires_when_armed() {
        let mut never = FaultPlan::<Probe>::new(FaultConfig { rate: 0.0, window: 0, seed: 1 });
        let mut always = FaultPlan::<Probe>::new(FaultConfig { rate: 1.0, window: 0, seed: 1 });
        for _ in 0..200 {
            assert_eq!(probe(&mut never), None);
            assert!(probe(&mut always).is_some());
        }
        assert_eq!(never.injected(), 0);
        assert_eq!(always.injected(), 200);
        let c = always.counts();
        assert_eq!(c.get(Probe::Even) + c.get(Probe::Odd), c.total());
    }

    #[test]
    fn window_gates_injection_into_alternating_bursts() {
        let mut plan = FaultPlan::<Probe>::new(FaultConfig { rate: 1.0, window: 4, seed: 3 });
        let fired: Vec<bool> = (0..16).map(|_| probe(&mut plan).is_some()).collect();
        assert_eq!(
            fired,
            [
                true, true, true, true, false, false, false, false, true, true, true,
                true, false, false, false, false
            ]
        );
    }

    #[test]
    fn quiet_decisions_draw_once_and_hits_draw_their_extras() {
        // Same seed, one plan that never fires: after N decisions its
        // stream sits exactly N draws in.
        let cfg = FaultConfig { rate: 0.0, window: 0, seed: 99 };
        let mut quiet = FaultPlan::<Probe>::new(cfg);
        let mut reference = SmallRng::seed_from_u64(99 ^ Probe::STREAM);
        for _ in 0..10 {
            assert_eq!(probe(&mut quiet), None);
            reference.next_u64();
        }
        assert_eq!(quiet.extra(), reference.next_u64());
    }

    #[test]
    fn streams_built_from_one_config_are_decorrelated() {
        let cfg = FaultConfig { rate: 0.5, window: 0, seed: 77 };
        let mut kernel = FaultPlan::<KernelFault>::new(cfg);
        let mut delivery = FaultPlan::<DeliveryFault>::new(cfg);
        let a: Vec<bool> = (0..64).map(|_| kernel.fail_alloc()).collect();
        let b: Vec<bool> = (0..64).map(|_| delivery.delivery_fault().is_some()).collect();
        assert_ne!(a, b, "sibling streams must differ");
    }

    #[test]
    fn snapshot_mid_stream_resumes_identically() {
        let cfg = FaultConfig { rate: 0.4, window: 8, seed: 31 };
        let mut plan = FaultPlan::<KernelFault>::new(cfg);
        for _ in 0..37 {
            plan.fail_alloc();
            plan.reclaim_spike();
        }
        let mut enc = Enc::new();
        plan.encode(&mut enc);
        let bytes = enc.finish();
        let mut back = FaultPlan::<KernelFault>::decode(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back.decisions(), plan.decisions());
        assert_eq!(back.counts(), plan.counts());
        for _ in 0..200 {
            assert_eq!(back.fail_alloc(), plan.fail_alloc());
            assert_eq!(back.reclaim_spike(), plan.reclaim_spike());
        }
    }

    #[test]
    fn duplicate_and_drop_both_occur_at_high_rates() {
        let mut plan = FaultPlan::<DeliveryFault>::new(FaultConfig { rate: 1.0, window: 0, seed: 5 });
        let outcomes: Vec<_> = (0..64).map(|_| plan.delivery_fault()).collect();
        assert!(outcomes.contains(&Some(DeliveryFault::Drop)));
        assert!(outcomes.contains(&Some(DeliveryFault::Duplicate)));
        let c = plan.counts();
        assert_eq!(c.get(DeliveryFault::Drop) + c.get(DeliveryFault::Duplicate), 64);
    }
}
