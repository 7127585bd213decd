//! Parallel sweep runner: fans independent (benchmark × scenario ×
//! TLB-config) simulation cells out across a fixed pool of scoped
//! worker threads that pull from one FIFO queue.
//!
//! Every experiment driver is a sweep over cells that share nothing but
//! a prepared workload, so the runner provides exactly four guarantees:
//!
//! 1. **Determinism** — results come back in submission order, and each
//!    cell's simulation consumes only its own [`SimConfig`]-seeded RNG
//!    streams, so the rendered tables are byte-identical regardless of
//!    `jobs` (and regardless of how many cells were replayed from a
//!    journal rather than executed).
//! 2. **Shared preparation, no convoying** — cells that name the same
//!    (scenario, benchmark) pair share one [`PreparedWorkload`], built
//!    once (or decoded from the process-global
//!    [`snapshot_cache`](crate::snapshot_cache)) by whichever worker
//!    gets there first, handed out as an `Arc` and let go when the last
//!    of those cells takes it; the preparations of one scenario share
//!    one aged machine, aged once per sweep by the first of them that
//!    the cache cannot answer and cloned by the rest. Sim cells
//!    ([`SweepCell::sim`], [`SweepCell::sim_then`]) that also share a pattern seed and `warmup +
//!    accesses` share one reference stream: the first of them to run
//!    records it with its L1/L2 outcomes ([`sim::Source::Record`]), the
//!    rest replay the recording under their own TLB configurations,
//!    bit-identically, and the recording is let go after the last of
//!    them. A stream of one cell runs plain; a recording that panics
//!    fails only its own cell, and the next cell records. A cell that
//!    finds its preparation, its machine or its recording *in flight*
//!    parks on the slot instead of blocking its worker: the worker takes
//!    the next queued cell in the meantime, and the parked cells re-enter
//!    the front of the queue the moment the build lands.
//! 3. **Failure isolation** — a cell whose job panics or whose
//!    preparation fails becomes [`CellOutcome::Failed`] while every
//!    other cell still completes. Cells are seeded simulations on
//!    seeded kernels, so a failure would only repeat: nothing is
//!    retried, and a failed aging or preparation fails every later cell
//!    of its scenario or pair at once with the same reason.
//!    [`expect_all`] turns failures back into a panic for drivers whose
//!    sweeps must be all-or-nothing.
//! 4. **Durable progress** — the `*_sweep` entry points append one
//!    checksummed record per finished cell to the experiment's
//!    [`Journal`](crate::journal), fsynced before the result is even
//!    reported, so a `SIGKILL` at any instant loses at most the cells
//!    in flight; `--resume` replays the journal and runs only the rest.
//!
//! Implementation is std-only (`std::thread::scope`, locks, a condvar):
//! the build must work offline, so no rayon or crates.io dependency.

use crate::journal::{Journal, JournalPayload};
use crate::sim::{self, Recording, SimConfig, SimResult, Source};
use crate::snapshot_cache::{self, Prepared};
use crate::{panic_message, relock};
use colt_workloads::scenario::{AgedMachine, PreparedWorkload, Scenario};
use colt_workloads::spec::BenchmarkSpec;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

type CellJob<R> = Box<dyn FnOnce(&PreparedWorkload, Source<'_>) -> R + Send>;
type TaskJob<R> = Box<dyn FnOnce() -> R + Send>;
/// A finished cell: its outcome and its throughput record.
type Finished<R> = (CellOutcome<R>, CellMetric);

/// One unit of parallel work: a job run once against a prepared
/// workload.
pub struct SweepCell<R> {
    label: String,
    scenario: Scenario,
    spec: BenchmarkSpec,
    /// Memory references the job will simulate (0 for analysis-only
    /// cells such as contiguity scans) — feeds the throughput report.
    refs: u64,
    /// A sim cell's pattern seed and `warmup + accesses`: with its
    /// preparation, the reference stream it generates.
    pattern: Option<(u64, u64)>,
    job: CellJob<R>,
}

impl<R> SweepCell<R> {
    /// A cell running an arbitrary job against the prepared workload.
    pub fn new(
        label: impl Into<String>,
        scenario: &Scenario,
        spec: &BenchmarkSpec,
        refs: u64,
        job: impl FnOnce(&PreparedWorkload) -> R + Send + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            scenario: scenario.clone(),
            spec: spec.clone(),
            refs,
            pattern: None,
            job: Box::new(move |w: &PreparedWorkload, _: Source<'_>| job(w)),
        }
    }

    /// A simulation of the workload under `cfg`, whose result `then`
    /// turns into the cell's, given the workload too. Sim cells of one
    /// sweep with the same preparation, pattern seed and `warmup +
    /// accesses` share one reference stream (guarantee 2).
    pub fn sim_then(
        label: impl Into<String>,
        scenario: &Scenario,
        spec: &BenchmarkSpec,
        cfg: SimConfig,
        then: impl FnOnce(&PreparedWorkload, SimResult) -> R + Send + 'static,
    ) -> Self {
        let refs = cfg.warmup + cfg.accesses;
        Self {
            label: label.into(),
            scenario: scenario.clone(),
            spec: spec.clone(),
            refs,
            pattern: Some((cfg.pattern_seed, refs)),
            job: Box::new(move |w: &PreparedWorkload, source: Source<'_>| {
                then(w, sim::run_from(w, &cfg, source))
            }),
        }
    }
}

impl SweepCell<SimResult> {
    /// The common case: simulate the workload under one TLB config.
    pub fn sim(
        label: impl Into<String>,
        scenario: &Scenario,
        spec: &BenchmarkSpec,
        cfg: SimConfig,
    ) -> Self {
        Self::sim_then(label, scenario, spec, cfg, |_, r| r)
    }
}

/// One unit of parallel work that owns its whole job (no shared
/// preparation) — for drivers like `multiprog` whose preparation is
/// itself per-cell.
pub struct SweepTask<R> {
    label: String,
    refs: u64,
    job: TaskJob<R>,
}

impl<R> SweepTask<R> {
    /// Creates a self-contained task.
    pub fn new(
        label: impl Into<String>,
        refs: u64,
        job: impl FnOnce() -> R + Send + 'static,
    ) -> Self {
        Self { label: label.into(), refs, job: Box::new(job) }
    }
}

/// What became of one sweep cell: its result, or a description of why
/// it died while the rest of the sweep carried on.
#[derive(Debug)]
pub enum CellOutcome<R> {
    /// The cell ran to completion (or was replayed from the journal).
    Ok(R),
    /// Preparation failed or the job panicked; `payload` is the cause.
    Failed {
        /// Label of the failed cell ("fig18/Mcf/CoLT-All").
        label: String,
        /// Human-readable failure cause.
        payload: String,
    },
    /// Never constructed: the runner no longer retries, so no cell is
    /// quarantined. The variant remains only because the benchmark
    /// harness (`benchmark/src/workloads.rs`) matches on it; it goes at
    /// the next change to the benchmark.
    Quarantined {
        /// Label of the cell.
        label: String,
        /// Cause of the failure.
        reason: String,
    },
}

impl<R> CellOutcome<R> {
    /// The success value, if any.
    pub fn ok(self) -> Option<R> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            CellOutcome::Failed { .. } | CellOutcome::Quarantined { .. } => None,
        }
    }

    /// True when the cell failed.
    pub fn is_failed(&self) -> bool {
        !matches!(self, CellOutcome::Ok(_))
    }
}

/// Unwraps every outcome, panicking on the first failed cell — for
/// drivers whose sweeps must be all-or-nothing.
pub fn expect_all<R>(outcomes: Vec<CellOutcome<R>>) -> Vec<R> {
    outcomes
        .into_iter()
        .map(|outcome| match outcome {
            CellOutcome::Ok(r) => r,
            CellOutcome::Failed { label, payload }
            | CellOutcome::Quarantined { label, reason: payload } => {
                panic!("sweep cell '{label}' failed: {payload}")
            }
        })
        .collect()
}

/// Timing record for one completed cell, for the throughput report.
#[derive(Clone, Debug)]
pub struct CellMetric {
    /// Cell label ("fig18/Mcf/CoLT-All").
    pub label: String,
    /// Benchmark name ("" for self-contained tasks).
    pub benchmark: String,
    /// Scenario name ("" for self-contained tasks).
    pub scenario: String,
    /// Memory references simulated (0 for analysis-only cells).
    pub refs: u64,
    /// Seconds this cell spent building the shared workload (0 when it
    /// reused another cell's preparation).
    pub prep_seconds: f64,
    /// Seconds the job itself ran.
    pub sim_seconds: f64,
    /// How a sim cell came by its reference stream.
    pub stream: StreamUse,
}

/// How a cell came by its reference stream and L1/L2 outcomes
/// (guarantee 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StreamUse {
    /// Generated its own: a group of one, a cell that simulates nothing
    /// or that failed, or one replayed from the journal.
    #[default]
    Plain,
    /// Generated it and recorded it for the rest of its group.
    Recorded,
    /// Replayed another cell's recording.
    Replayed,
}

impl StreamUse {
    /// The lower-case name reports print.
    pub fn name(self) -> &'static str {
        match self {
            StreamUse::Plain => "plain",
            StreamUse::Recorded => "recorded",
            StreamUse::Replayed => "replayed",
        }
    }
}

static METRICS: Mutex<Vec<CellMetric>> = Mutex::new(Vec::new());

/// Drains the metrics accumulated by every runner call since the last
/// drain, in cell-submission order.
pub fn take_metrics() -> Vec<CellMetric> {
    std::mem::take(&mut *relock(&METRICS))
}

/// How one sweep runs: worker width and the durable journal (if the
/// invocation wants crash-safe progress).
pub struct SweepOptions<'a> {
    /// Worker threads. Results are identical at any value.
    pub jobs: usize,
    /// Durable cell journal for crash-safe progress and `--resume`.
    pub journal: Option<&'a Journal>,
}

/// A sweep-local slot for a value one worker at a time builds: a
/// preparation (one per (scenario, spec) pair), an aged machine (one
/// per scenario) or a recording (one per group of sim cells sharing a
/// reference stream). Cells that need the value while it is being built
/// *park* on the slot (their worker moves on to other work) instead of
/// blocking behind a lock. The building itself — memory cache, disk
/// snapshot, aging or a fresh preparation — is delegated to
/// [`snapshot_cache`].
struct Slot<T, R> {
    state: SlotState<T>,
    /// Cells parked until the in-flight build lands; the builder puts
    /// them back on the queue, success and failure alike.
    waiting: Vec<Item<R>>,
    /// Users that have not taken the value yet: a preparation's or a
    /// recording's queued cells, or the preparations of an aged
    /// machine's scenario that have neither taken the machine nor found
    /// their workload in the cache. When the last one is served the slot
    /// lets go of its value, so no workload, aged kernel or recording
    /// outlives its last user.
    takers: usize,
}

enum SlotState<T> {
    /// Nobody has built this slot's value yet.
    Empty,
    /// A worker is building right now; arriving cells park in `waiting`.
    Building,
    /// The value is ready for every future cell of the sweep.
    Ready(T),
    /// The build failed. It was seeded, so it would only fail again:
    /// every later cell of the slot fails at once with this reason. A
    /// recording never fails its slot: its panic may be specific to its
    /// cell's config, so the slot empties and the next cell records.
    Failed(String),
}

/// What a cell found in a slot.
enum Claim<T, R> {
    /// The value, with the cell handed back.
    Ready(Item<R>, T),
    /// The stored failure, with the cell handed back.
    Failed(Item<R>, String),
    /// Another worker is building the value; the cell is parked.
    Parked,
    /// The slot was empty and is now `Building`: the caller builds the
    /// value and [`settle`](Slot::settle)s the slot.
    Build(Item<R>),
}

impl<T: Clone, R> Slot<T, R> {
    fn new() -> Self {
        Slot { state: SlotState::Empty, waiting: Vec::new(), takers: 0 }
    }

    fn claim(&mut self, item: Item<R>) -> Claim<T, R> {
        match &self.state {
            SlotState::Ready(value) => Claim::Ready(item, value.clone()),
            SlotState::Failed(reason) => Claim::Failed(item, reason.clone()),
            SlotState::Building => {
                self.waiting.push(item);
                Claim::Parked
            }
            SlotState::Empty => {
                self.state = SlotState::Building;
                Claim::Build(item)
            }
        }
    }

    /// Ends a build: stores its outcome and hands back the parked cells.
    fn settle(&mut self, state: SlotState<T>) -> Vec<Item<R>> {
        self.state = state;
        std::mem::take(&mut self.waiting)
    }

    /// Counts one user as served; the last one empties a ready slot. A
    /// failed slot stays failed.
    fn serve(&mut self) {
        self.takers -= 1;
        if self.takers == 0 && matches!(self.state, SlotState::Ready(_)) {
            self.state = SlotState::Empty;
        }
    }
}

type PrepSlot<R> = Slot<Arc<PreparedWorkload>, R>;
/// One scenario's aged machine, shared by the sweep's preparations of
/// that scenario. Only builders hold the machine, and only while
/// cloning it.
type AgedSlot<R> = Slot<Arc<AgedMachine>, R>;
/// One slot per preparation key of a sweep's queued cells, with the
/// index of its scenario's [`AgedSlot`].
type PrepSlots<R> = HashMap<String, (Mutex<PrepSlot<R>>, usize)>;
/// One slot per reference stream that two or more queued sim cells
/// generate, keyed by [`stream_key`].
type StreamSlots<R> = HashMap<String, Mutex<Slot<Arc<Recording>, R>>>;

/// What a queue item runs.
enum Work<R> {
    Cell {
        scenario: Scenario,
        spec: BenchmarkSpec,
        pattern: Option<(u64, u64)>,
        job: CellJob<R>,
        /// The cell's workload once taken; a cell parked on a recording
        /// keeps it, so its preparation counts it once.
        workload: Option<Arc<PreparedWorkload>>,
    },
    Task(TaskJob<R>),
}

struct Item<R> {
    idx: usize,
    /// This item's throughput record; the worker fills in the timings.
    metric: CellMetric,
    work: Work<R>,
}

/// Journal plumbing for one sweep: where to append finished cells and
/// how to (de)serialize the result payloads.
struct Hook<'a, R> {
    journal: &'a Journal,
    encode: fn(&R) -> String,
    decode: fn(&str) -> Option<R>,
}

impl<'a, R: JournalPayload> Hook<'a, R> {
    fn of(opts: &SweepOptions<'a>) -> Option<Self> {
        opts.journal.map(|journal| Hook { journal, encode: R::encode, decode: R::decode })
    }
}

impl<R> Hook<'_, R> {
    /// The journaled outcome of `item`, if a valid record for it decodes
    /// as this sweep's result type.
    fn replay(&self, item: &Item<R>) -> Option<Finished<R>> {
        let rep = self.journal.completed(&item.metric.label)?;
        let Some(r) = (self.decode)(&rep.payload) else {
            eprintln!(
                "note: journal record for '{}' does not decode as this sweep's \
                 result type; re-running the cell",
                item.metric.label
            );
            return None;
        };
        let metric = CellMetric {
            refs: rep.refs,
            prep_seconds: rep.prep_seconds,
            sim_seconds: rep.sim_seconds,
            ..item.metric.clone()
        };
        Some((CellOutcome::Ok(r), metric))
    }

    /// Journals one finished cell. A journal write failure is loud but
    /// non-fatal: the in-memory sweep result is still correct, only
    /// resumability of this cell is lost. Records keep their `attempts`
    /// member, which is always 1.
    fn append(&self, outcome: &CellOutcome<R>, metric: &CellMetric) {
        let (status, reason, payload) = match outcome {
            CellOutcome::Ok(r) => ("ok", "", (self.encode)(r)),
            CellOutcome::Failed { payload, .. }
            | CellOutcome::Quarantined { reason: payload, .. } => {
                ("failed", payload.as_str(), String::new())
            }
        };
        // The append already retried with backoff (and accounted any
        // injected fault) inside `Journal::append`.
        if let Err(e) = self.journal.append(
            &metric.label,
            status,
            1,
            reason,
            &payload,
            metric.refs,
            metric.prep_seconds,
            metric.sim_seconds,
        ) {
            eprintln!(
                "warning: could not journal cell '{}' to {} after retries: {e} \
                 (sweep continues; this cell will not be resumable)",
                metric.label,
                self.journal.path().display()
            );
        }
    }
}

/// What came of trying to obtain a cell's shared preparation.
enum Acquired<R> {
    /// Another worker is mid-build; the item is parked on the slot and
    /// this worker should pick up other work.
    Parked,
    /// This worker built (or fetched) the workload.
    Ready {
        item: Item<R>,
        workload: Arc<PreparedWorkload>,
        /// Seconds this cell spent building or decoding the workload
        /// (0 when another cell, sweep, or invocation already paid).
        prep_seconds: f64,
    },
    /// The build failed (or panicked), now or earlier in the sweep; the
    /// failure is charged to this cell.
    Failed { item: Item<R>, reason: String },
}

/// The queue and its completion count share one lock, so a worker that
/// finds the queue empty can wait on the condvar without missing a
/// requeue or the last completion.
struct Queue<R> {
    items: VecDeque<Item<R>>,
    finished: usize,
}

/// Everything the workers of one sweep share.
struct Pool<'a, R> {
    queue: Mutex<Queue<R>>,
    wake: Condvar,
    /// Items the workers must finish (journal replays excluded).
    total: usize,
    preps: PrepSlots<R>,
    machines: Vec<Mutex<AgedSlot<R>>>,
    streams: StreamSlots<R>,
    hook: Option<Hook<'a, R>>,
    results: Mutex<Vec<Option<Finished<R>>>>,
}

impl<R> Pool<'_, R> {
    /// One worker: runs items until every item has finished.
    fn work(&self) {
        while let Some(mut item) = self.next() {
            match item.work {
                Work::Task(job) => {
                    let ran = run_job(&mut item.metric, job);
                    self.finish(item.idx, item.metric, ran);
                }
                Work::Cell { workload: Some(_), .. } => self.run_cell(item),
                Work::Cell { .. } => match self.acquire_prepared(item) {
                    Acquired::Parked => {}
                    Acquired::Failed { item, reason } => {
                        self.finish(item.idx, item.metric, Err(reason));
                    }
                    Acquired::Ready { mut item, workload, prep_seconds } => {
                        item.metric.prep_seconds = prep_seconds;
                        if let Work::Cell { workload: taken, .. } = &mut item.work {
                            *taken = Some(workload);
                        }
                        self.run_cell(item);
                    }
                },
            }
        }
    }

    /// Runs a cell that holds its workload. A cell of a shared stream
    /// replays the recording when it is ready, parks while another cell
    /// records it, or records it itself; any other cell runs plain.
    fn run_cell(&self, item: Item<R>) {
        let Some(slot) = stream_key(&item).and_then(|key| self.streams.get(&key)) else {
            let (idx, metric, ran) = run_prepared(item, Source::Generate, StreamUse::Plain);
            return self.finish(idx, metric, ran);
        };
        let mut st = relock(slot);
        let (idx, metric, ran) = match st.claim(item) {
            Claim::Parked => return,
            Claim::Ready(item, recording) => {
                st.serve();
                drop(st);
                run_prepared(item, Source::Replay(&recording), StreamUse::Replayed)
            }
            Claim::Build(item) => {
                drop(st);
                let mut recording = Recording::default();
                let done = run_prepared(item, Source::Record(&mut recording), StreamUse::Recorded);
                let mut st = relock(slot);
                // A recording that panicked fails only its own cell: the
                // slot empties and the first parked cell records instead.
                let woken = st.settle(match &done.2 {
                    Ok(_) => SlotState::Ready(Arc::new(recording)),
                    Err(_) => SlotState::Empty,
                });
                st.serve();
                drop(st);
                self.requeue(woken);
                done
            }
            Claim::Failed(..) => unreachable!("a recording slot never fails"),
        };
        self.finish(idx, metric, ran);
    }

    /// The next queued item, waiting while others are still running or
    /// parked; `None` once every item has finished.
    fn next(&self) -> Option<Item<R>> {
        let mut queue = relock(&self.queue);
        loop {
            if let Some(item) = queue.items.pop_front() {
                return Some(item);
            }
            if queue.finished == self.total {
                return None;
            }
            queue = self.wake.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Obtains the shared workload for a cell without ever blocking the
    /// worker: a ready slot is a free hit, an in-flight slot parks the
    /// item, an empty slot makes this worker the builder. The builder
    /// asks the process-global [`snapshot_cache`] first and, on a miss,
    /// prepares the pair on a machine of its scenario's aged slot.
    fn acquire_prepared(&self, item: Item<R>) -> Acquired<R> {
        let (scenario, spec) = cell_of(&item);
        let (slot, machine) = &self.preps[&snapshot_cache::prep_key(scenario, spec)];
        let mut st = relock(slot);
        let item = match st.claim(item) {
            Claim::Ready(item, workload) => {
                st.serve();
                return Acquired::Ready { item, workload, prep_seconds: 0.0 };
            }
            Claim::Failed(item, reason) => return Acquired::Failed { item, reason },
            Claim::Parked => return Acquired::Parked,
            Claim::Build(item) => item,
        };
        drop(st);
        // This worker is the builder; no slot lock is held across the
        // build — arriving cells park instead of blocking.
        let (scenario, spec) = cell_of(&item);
        let (item, built) = match snapshot_cache::lookup(scenario, spec) {
            Some(found) => {
                relock(&self.machines[*machine]).serve();
                (item, Ok(found))
            }
            None => {
                let start = Instant::now();
                match self.take_machine(&self.machines[*machine], slot, item) {
                    Claim::Ready(item, shared) => {
                        let machine = Arc::unwrap_or_clone(shared);
                        let machine_seconds = start.elapsed().as_secs_f64();
                        let built = snapshot_cache::build(machine, cell_of(&item).1)
                            .map(|p| Prepared { prep_seconds: p.prep_seconds + machine_seconds, ..p });
                        (item, built)
                    }
                    Claim::Failed(item, reason) => (item, Err(reason)),
                    Claim::Parked => return Acquired::Parked,
                    Claim::Build(_) => unreachable!("take_machine builds the machine itself"),
                }
            }
        };
        let mut st = relock(slot);
        let woken = st.settle(match &built {
            Ok(p) => SlotState::Ready(Arc::clone(&p.workload)),
            Err(reason) => SlotState::Failed(reason.clone()),
        });
        st.serve();
        drop(st);
        self.requeue(woken);
        match built {
            Ok(p) => Acquired::Ready { item, workload: p.workload, prep_seconds: p.prep_seconds },
            Err(reason) => Acquired::Failed { item, reason },
        }
    }

    /// The scenario's aged machine for the builder of a preparation, as
    /// an `Arc` the builder clones (or, as its last holder, moves out
    /// of): the first builder to get here ages it, later ones share it.
    /// A builder that arrives while the machine is aging parks its cell
    /// on the aged slot together with the cells parked on its
    /// preparation, whose slot empties so that whichever comes back
    /// first rebuilds it.
    fn take_machine(
        &self,
        aged: &Mutex<AgedSlot<R>>,
        prep: &Mutex<PrepSlot<R>>,
        item: Item<R>,
    ) -> Claim<Arc<AgedMachine>, R> {
        let mut woken = Vec::new();
        let mut st = relock(aged);
        let claim = match st.claim(item) {
            Claim::Build(item) => {
                drop(st);
                let machine = snapshot_cache::age(cell_of(&item).0).map(Arc::new);
                st = relock(aged);
                woken = st.settle(match &machine {
                    Ok(shared) => SlotState::Ready(Arc::clone(shared)),
                    Err(reason) => SlotState::Failed(reason.clone()),
                });
                match machine {
                    Ok(shared) => Claim::Ready(item, shared),
                    Err(reason) => Claim::Failed(item, reason),
                }
            }
            Claim::Parked => {
                let parked = relock(prep).settle(SlotState::Empty);
                st.waiting.extend(parked);
                Claim::Parked
            }
            claim => claim,
        };
        if matches!(claim, Claim::Ready(..)) {
            st.serve();
        }
        drop(st);
        self.requeue(woken);
        claim
    }

    /// Puts parked items back at the front of the queue, in parking
    /// order, so cells with the same key run together.
    fn requeue(&self, woken: Vec<Item<R>>) {
        if woken.is_empty() {
            return;
        }
        let mut queue = relock(&self.queue);
        for parked in woken.into_iter().rev() {
            queue.items.push_front(parked);
        }
        drop(queue);
        self.wake.notify_all();
    }

    /// Journals one finished item and records its outcome; the last one
    /// wakes the idle workers so they exit.
    fn finish(&self, idx: usize, metric: CellMetric, ran: Result<R, String>) {
        let outcome = match ran {
            Ok(r) => CellOutcome::Ok(r),
            Err(payload) => CellOutcome::Failed { label: metric.label.clone(), payload },
        };
        if let Some(hook) = &self.hook {
            hook.append(&outcome, &metric);
        }
        relock(&self.results)[idx] = Some((outcome, metric));
        let mut queue = relock(&self.queue);
        queue.finished += 1;
        if queue.finished == self.total {
            self.wake.notify_all();
        }
    }
}

/// Runs a cell that holds its workload from `source`; on success its
/// metric records `used`. Returns the cell's index, metric and outcome.
fn run_prepared<R>(
    item: Item<R>,
    source: Source<'_>,
    used: StreamUse,
) -> (usize, CellMetric, Result<R, String>) {
    let Item { idx, mut metric, work } = item;
    let Work::Cell { job, workload: Some(workload), .. } = work else {
        unreachable!("only cells holding a workload run")
    };
    let ran = run_job(&mut metric, || job(&workload, source));
    // After its slot lets go, the last cell of a pair may hold the last
    // handle to the workload (with no snapshot cache): free it outside
    // the timing.
    drop(workload);
    if ran.is_ok() {
        metric.stream = used;
    }
    (idx, metric, ran)
}

/// Runs one job under `catch_unwind`, charging its wall time to
/// `metric`.
fn run_job<R>(metric: &mut CellMetric, job: impl FnOnce() -> R) -> Result<R, String> {
    let start = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(job)).map_err(panic_message);
    metric.sim_seconds = start.elapsed().as_secs_f64();
    ran
}

/// The sweep engine: replays journaled cells, runs the rest on `jobs`
/// workers, and returns one outcome per item in submission order.
/// `collect_metrics` says whether finished cells push their
/// [`CellMetric`]s into the process-global registry. Sweeps do (the
/// BENCH reports drain it); one-shot checkers do not — nothing drains
/// the registry on their path.
fn engine<R: Send>(
    items: Vec<Item<R>>,
    jobs: usize,
    hook: Option<Hook<'_, R>>,
    collect_metrics: bool,
) -> Vec<CellOutcome<R>> {
    let mut results: Vec<Option<Finished<R>>> = items.iter().map(|_| None).collect();
    // Replay pass: cells the journal already holds never re-run.
    let cells = items.len();
    let mut queue = VecDeque::new();
    for item in items {
        match hook.as_ref().and_then(|h| h.replay(&item)) {
            Some(replayed) => results[item.idx] = Some(replayed),
            None => queue.push_back(item),
        }
    }
    let total = queue.len();
    if let Some(hook) = &hook {
        hook.journal.note_sweep(cells - total, total);
    }
    let (preps, machines) = slots(&queue);
    let streams = stream_slots(&queue);
    let pool = Pool {
        queue: Mutex::new(Queue { items: queue, finished: 0 }),
        wake: Condvar::new(),
        total,
        preps,
        machines,
        streams,
        hook,
        results: Mutex::new(results),
    };
    std::thread::scope(|s| {
        for _ in 0..jobs.max(1).min(total) {
            s.spawn(|| pool.work());
        }
    });
    let (outcomes, metrics): (Vec<_>, Vec<_>) = pool
        .results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|slot| slot.expect("every cell reports exactly once"))
        .unzip();
    if collect_metrics {
        relock(&METRICS).extend(metrics);
    }
    outcomes
}

/// One preparation slot per distinct (scenario, spec) pair among the
/// queued cells and one aged slot per distinct scenario: each
/// preparation slot counts its cells as takers, each aged slot its
/// scenario's preparations.
fn slots<R>(queue: &VecDeque<Item<R>>) -> (PrepSlots<R>, Vec<Mutex<AgedSlot<R>>>) {
    let mut preps: PrepSlots<R> = HashMap::new();
    let mut scenarios = HashMap::new();
    let mut machines: Vec<AgedSlot<R>> = Vec::new();
    for item in queue {
        let Work::Cell { scenario, spec, .. } = &item.work else { continue };
        let (prep, _) = preps.entry(snapshot_cache::prep_key(scenario, spec)).or_insert_with(|| {
            let m = *scenarios.entry(format!("{scenario:?}")).or_insert_with(|| {
                machines.push(Slot::new());
                machines.len() - 1
            });
            machines[m].takers += 1;
            (Mutex::new(Slot::new()), m)
        });
        prep.get_mut().unwrap_or_else(PoisonError::into_inner).takers += 1;
    }
    (preps, machines.into_iter().map(Mutex::new).collect())
}

/// One recording slot per reference stream that two or more queued sim
/// cells generate, counting those cells as takers. A stream of one cell
/// gets no slot and runs plain: recording only pays from a group's
/// second cell.
fn stream_slots<R>(queue: &VecDeque<Item<R>>) -> StreamSlots<R> {
    let mut streams: StreamSlots<R> = HashMap::new();
    for key in queue.iter().filter_map(stream_key) {
        let slot = streams.entry(key).or_insert_with(|| Mutex::new(Slot::new()));
        slot.get_mut().unwrap_or_else(PoisonError::into_inner).takers += 1;
    }
    streams.retain(|_, slot| slot.get_mut().unwrap_or_else(PoisonError::into_inner).takers > 1);
    streams
}

/// The reference stream a sim cell generates: its preparation key,
/// pattern seed and `warmup + accesses`. `None` for any other item.
fn stream_key<R>(item: &Item<R>) -> Option<String> {
    match &item.work {
        Work::Cell { scenario, spec, pattern: Some((seed, refs)), .. } => {
            Some(format!("{}\u{1}{seed}\u{1}{refs}", snapshot_cache::prep_key(scenario, spec)))
        }
        _ => None,
    }
}

/// The scenario and benchmark of a cell item.
fn cell_of<R>(item: &Item<R>) -> (&Scenario, &BenchmarkSpec) {
    match &item.work {
        Work::Cell { scenario, spec, .. } => (scenario, spec),
        Work::Task(_) => unreachable!("only cells are prepared"),
    }
}

fn cell_items<R>(cells: Vec<SweepCell<R>>) -> Vec<Item<R>> {
    cells
        .into_iter()
        .enumerate()
        .map(|(idx, cell)| Item {
            idx,
            metric: CellMetric {
                label: cell.label,
                benchmark: cell.spec.name.to_string(),
                scenario: cell.scenario.name.clone(),
                refs: cell.refs,
                prep_seconds: 0.0,
                sim_seconds: 0.0,
                stream: StreamUse::Plain,
            },
            work: Work::Cell {
                scenario: cell.scenario,
                spec: cell.spec,
                pattern: cell.pattern,
                job: cell.job,
                workload: None,
            },
        })
        .collect()
}

fn task_items<R>(tasks: Vec<SweepTask<R>>) -> Vec<Item<R>> {
    tasks
        .into_iter()
        .enumerate()
        .map(|(idx, task)| Item {
            idx,
            metric: CellMetric {
                label: task.label,
                benchmark: String::new(),
                scenario: String::new(),
                refs: task.refs,
                prep_seconds: 0.0,
                sim_seconds: 0.0,
                stream: StreamUse::Plain,
            },
            work: Work::Task(task.job),
        })
        .collect()
}

/// Runs every cell, journaling each finished one (when the options
/// carry a journal) and replaying the journal's completed cells instead
/// of re-running them. One [`CellOutcome`] per cell, in submission
/// order.
pub fn run_cells_sweep<R: Send + JournalPayload + 'static>(
    cells: Vec<SweepCell<R>>,
    opts: &SweepOptions<'_>,
) -> Vec<CellOutcome<R>> {
    engine(cell_items(cells), opts.jobs, Hook::of(opts), true)
}

/// Runs self-contained tasks like [`run_cells_sweep`].
pub fn run_tasks_sweep<R: Send + JournalPayload + 'static>(
    tasks: Vec<SweepTask<R>>,
    opts: &SweepOptions<'_>,
) -> Vec<CellOutcome<R>> {
    engine(task_items(tasks), opts.jobs, Hook::of(opts), true)
}

/// Runs every cell across at most `jobs` worker threads and returns one
/// [`CellOutcome`] per cell, in submission order, without a journal: a
/// panicking cell (or a failing preparation) yields `Failed` for that
/// cell only; all other cells still complete.
pub fn run_cells_outcomes<R: Send + 'static>(
    cells: Vec<SweepCell<R>>,
    jobs: usize,
) -> Vec<CellOutcome<R>> {
    engine(cell_items(cells), jobs, None, true)
}

/// Runs self-contained tasks for one-shot checkers (`repro --check`):
/// panic isolation and submission-order results, no journal, and
/// finished tasks do *not* accumulate in the global metrics registry —
/// only sweep entry points have a matching [`take_metrics`] drain, and
/// a checker's tasks must not show up in a sweep's throughput report.
pub fn run_tasks_service<R: Send + 'static>(
    tasks: Vec<SweepTask<R>>,
    jobs: usize,
) -> Vec<CellOutcome<R>> {
    engine(task_items(tasks), jobs, None, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_faults::TestDir;
    use colt_tlb::config::TlbConfig;
    use colt_workloads::spec::benchmark;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    fn quick_cfg(tlb: TlbConfig) -> SimConfig {
        SimConfig { pattern_seed: 0x5EED, ..SimConfig::new(tlb).with_accesses(10_000) }
    }

    /// The metrics registry is process-global and the test harness runs
    /// tests concurrently, so tests that drain it must not interleave.
    static DRAIN: Mutex<()> = Mutex::new(());

    fn drain_lock() -> std::sync::MutexGuard<'static, ()> {
        relock(&DRAIN)
    }

    #[test]
    fn service_entry_point_records_no_global_metrics() {
        let _g = drain_lock();
        let _ = take_metrics();
        let tasks: Vec<SweepTask<u32>> = (0..6)
            .map(|i| SweepTask::new(format!("svc-{i}"), 0, move || i * 2))
            .collect();
        let out = run_tasks_service(tasks, 3);
        assert_eq!(out.len(), 6);
        for (i, o) in out.into_iter().enumerate() {
            assert_eq!(o.ok(), Some(i as u32 * 2));
        }
        assert!(
            take_metrics().is_empty(),
            "service dispatch must not leak into the sweep metrics registry"
        );
        // The sweep path still records (BENCH reports depend on it).
        let plain: Vec<SweepTask<u64>> = vec![SweepTask::new("plain".to_string(), 0, || 7)];
        let _ = run_tasks_sweep(plain, &SweepOptions { jobs: 1, journal: None });
        assert_eq!(take_metrics().len(), 1);
    }

    #[test]
    fn results_come_back_in_submission_order_at_any_width() {
        let _g = drain_lock();
        let scenario = Scenario::default_linux();
        let spec = benchmark("Gobmk").unwrap();
        let make_cells = || {
            vec![
                SweepCell::sim("base", &scenario, &spec, quick_cfg(TlbConfig::baseline())),
                SweepCell::sim("sa", &scenario, &spec, quick_cfg(TlbConfig::colt_sa())),
                SweepCell::sim("fa", &scenario, &spec, quick_cfg(TlbConfig::colt_fa())),
                SweepCell::sim("all", &scenario, &spec, quick_cfg(TlbConfig::colt_all())),
            ]
        };
        let serial = expect_all(run_cells_outcomes(make_cells(), 1));
        let wide = expect_all(run_cells_outcomes(make_cells(), 8));
        let _ = take_metrics();
        assert_eq!(serial.len(), 4);
        for (a, b) in serial.iter().zip(&wide) {
            assert_eq!(a.tlb.accesses, b.tlb.accesses);
            assert_eq!(a.tlb.l1_misses, b.tlb.l1_misses);
            assert_eq!(a.tlb.l2_misses, b.tlb.l2_misses);
            assert_eq!(a.walker.walks, b.walker.walks);
            assert_eq!(a.walk_cycles, b.walk_cycles);
        }
        // The four configs must actually differ (the cells were not
        // accidentally collapsed onto one job).
        assert!(serial[1].tlb.l2_misses < serial[0].tlb.l2_misses);
    }

    #[test]
    fn preparation_is_shared_within_one_sweep() {
        let _g = drain_lock();
        // A seed no other test uses: the process-global snapshot cache
        // must miss, so that exactly this sweep pays the preparation.
        let scenario = Scenario::default_linux().with_seed(0x5EED_5EED);
        let spec = benchmark("Povray").unwrap();
        let cells = vec![
            SweepCell::sim("prep-share/a", &scenario, &spec, quick_cfg(TlbConfig::baseline())),
            SweepCell::sim("prep-share/b", &scenario, &spec, quick_cfg(TlbConfig::colt_all())),
        ];
        let _ = take_metrics();
        let results = expect_all(run_cells_outcomes(cells, 2));
        assert_eq!(results.len(), 2);
        // Concurrent driver tests append their own metrics; look only at
        // this sweep's labels.
        let metrics: Vec<CellMetric> = take_metrics()
            .into_iter()
            .filter(|m| m.label.starts_with("prep-share/"))
            .collect();
        assert_eq!(metrics.len(), 2);
        let prepped = metrics.iter().filter(|m| m.prep_seconds > 0.0).count();
        assert_eq!(prepped, 1, "exactly one cell builds the shared workload");
        assert_eq!(metrics[0].label, "prep-share/a");
        assert_eq!(metrics[1].label, "prep-share/b");
        assert!(metrics.iter().all(|m| m.refs == 11_000));
    }

    #[test]
    fn parked_cells_complete_when_the_shared_build_lands() {
        let _g = drain_lock();
        // Eight cells, one cold (scenario, benchmark) pair, four
        // workers: one worker builds while the others park their cells
        // on the slot and take other work; every cell must still
        // complete with exactly one build. A scheduler that loses parked
        // items hangs here; one that blocks workers merely serializes
        // (the next test catches that).
        let scenario = Scenario::default_linux().with_seed(0xBA1C_0DE5);
        let spec = benchmark("Povray").unwrap();
        let cells: Vec<SweepCell<u64>> = (0..8)
            .map(|i| {
                SweepCell::new(format!("park/c{i}"), &scenario, &spec, 0, move |w| {
                    w.contiguity().total_pages() + i
                })
            })
            .collect();
        let _ = take_metrics();
        let out = expect_all(run_cells_outcomes(cells, 4));
        let metrics: Vec<CellMetric> = take_metrics()
            .into_iter()
            .filter(|m| m.label.starts_with("park/"))
            .collect();
        assert_eq!(out.len(), 8);
        let base = out[0];
        assert_eq!(out, (0..8).map(|i| base + i).collect::<Vec<u64>>());
        assert_eq!(metrics.len(), 8);
        assert_eq!(
            metrics.iter().filter(|m| m.prep_seconds > 0.0).count(),
            1,
            "exactly one cell builds; the parked ones ride along free"
        );
    }

    #[test]
    fn a_worker_runs_ready_work_while_a_shared_build_is_in_flight() {
        let _g = drain_lock();
        // Two cells need cold preparations of one cold scenario (a seed
        // no other test uses); the third cell's key is prepared before
        // the sweep starts. At two workers, one worker builds while the
        // other parks the second cold cell and runs the warm one, so the
        // warm job runs before either cold job starts. In the first case
        // the cold cells share their (scenario, benchmark) pair and the
        // second parks on the preparation slot; in the second they are
        // different benchmarks, and it parks on the aged slot while the
        // first builder ages the machine. A runner that blocks on the
        // in-flight build instead of parking, or that ages a machine per
        // preparation, reaches the warm cell only after a cold job has
        // begun. No barrier forces the interleaving (the build runs
        // inside the snapshot cache, which has no hook); the cold build
        // is a whole kernel preparation, while parking and the warm
        // lookup take microseconds.
        let povray = benchmark("Povray").unwrap();
        let gobmk = benchmark("Gobmk").unwrap();
        for (seed, second) in [(0x9A2C_0C01, &povray), (0x9A2C_0C03, &gobmk)] {
            let cold = Scenario::default_linux().with_seed(seed);
            let warm = Scenario::default_linux().with_seed(seed + 1);
            snapshot_cache::get_or_prepare(&warm, &povray).expect("the warm key prepares");
            let cold_started = Arc::new(AtomicBool::new(false));
            let cold_cell = |label: &str, spec: &BenchmarkSpec| {
                let started = Arc::clone(&cold_started);
                SweepCell::new(label, &cold, spec, 0, move |_| {
                    started.store(true, Ordering::SeqCst);
                    false
                })
            };
            let started = Arc::clone(&cold_started);
            let cells = vec![
                cold_cell("overlap/cold-a", &povray),
                cold_cell("overlap/cold-b", second),
                SweepCell::new("overlap/warm", &warm, &povray, 0, move |_| {
                    !started.load(Ordering::SeqCst)
                }),
            ];
            let ran_first = expect_all(run_cells_outcomes(cells, 2));
            let _ = take_metrics();
            assert!(
                ran_first[2],
                "the warm cell waited behind the cold build (second cold cell: {})",
                second.name
            );
        }
    }

    #[test]
    fn tasks_run_and_keep_order() {
        let _g = drain_lock();
        let tasks: Vec<SweepTask<usize>> = (0..16)
            .map(|i| SweepTask::new(format!("t{i}"), 0, move || i * i))
            .collect();
        let out = expect_all(run_tasks_service(tasks, 4));
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn generic_cells_share_preparation_with_sim_cells() {
        let _g = drain_lock();
        let scenario = Scenario::default_linux();
        let spec = benchmark("Mcf").unwrap();
        let cells = vec![SweepCell::new("contig", &scenario, &spec, 0, |w| {
            w.contiguity().average_contiguity()
        })];
        let avg = expect_all(run_cells_outcomes(cells, 3));
        let _ = take_metrics();
        assert!(avg[0] >= 1.0);
    }

    #[test]
    fn a_panicking_cell_fails_alone_while_the_rest_complete() {
        let _g = drain_lock();
        let scenario = Scenario::default_linux();
        let spec = benchmark("Gobmk").unwrap();
        let mut cells: Vec<SweepCell<u64>> = (0..6)
            .map(|i| {
                SweepCell::new(format!("iso/ok{i}"), &scenario, &spec, 0, move |w| {
                    w.contiguity().total_pages() + i
                })
            })
            .collect();
        cells.insert(
            3,
            SweepCell::new("iso/boom", &scenario, &spec, 0, |_| -> u64 {
                panic!("deliberate cell failure");
            }),
        );
        let outcomes = run_cells_outcomes(cells, 4);
        let _ = take_metrics();
        assert_eq!(outcomes.len(), 7);
        let failed: Vec<&CellOutcome<u64>> =
            outcomes.iter().filter(|o| o.is_failed()).collect();
        assert_eq!(failed.len(), 1, "exactly one cell fails");
        match failed[0] {
            CellOutcome::Failed { label, payload } => {
                assert_eq!(label, "iso/boom");
                assert!(payload.contains("deliberate cell failure"));
            }
            _ => panic!("a panicking cell must be Failed"),
        }
        // Every other cell (including those queued after the panic on
        // the same workers) completed and kept submission order.
        let oks: Vec<u64> =
            outcomes.into_iter().filter_map(CellOutcome::ok).collect();
        assert_eq!(oks.len(), 6);
        let base = oks[0];
        assert_eq!(oks, (0..6).map(|i| base + i).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_task_fails_alone_while_the_rest_complete() {
        let _g = drain_lock();
        let tasks: Vec<SweepTask<usize>> = (0..8)
            .map(|i| {
                SweepTask::new(format!("tiso{i}"), 0, move || {
                    if i == 5 {
                        panic!("task {i} exploded");
                    }
                    i * 10
                })
            })
            .collect();
        let outcomes = run_tasks_service(tasks, 3);
        assert_eq!(outcomes.iter().filter(|o| o.is_failed()).count(), 1);
        match &outcomes[5] {
            CellOutcome::Failed { label, payload } => {
                assert_eq!(label, "tiso5");
                assert!(payload.contains("task 5 exploded"));
            }
            _ => panic!("task 5 should have failed"),
        }
        for (i, o) in outcomes.iter().enumerate() {
            if i != 5 {
                assert!(matches!(o, CellOutcome::Ok(v) if *v == i * 10));
            }
        }
    }

    #[test]
    fn failing_preparation_becomes_a_failed_outcome_not_a_panic() {
        let _g = drain_lock();
        // A 64-frame machine ages, but the benchmark's allocation then
        // runs out of memory. Every cell of that pair must fail
        // gracefully with the one stored reason, and the healthy
        // scenario's cells in the same sweep must still run.
        let broken = Scenario { nr_frames: 64, ..Scenario::default_linux() };
        let healthy = Scenario::default_linux();
        let spec = benchmark("Bzip2").unwrap();
        let pages = |w: &PreparedWorkload| w.contiguity().total_pages();
        let cells = vec![
            SweepCell::new("prep-fail/broken-0", &broken, &spec, 0, pages),
            SweepCell::new("prep-fail/healthy-0", &healthy, &spec, 0, pages),
            SweepCell::new("prep-fail/broken-1", &broken, &spec, 0, pages),
            SweepCell::new("prep-fail/broken-2", &broken, &spec, 0, pages),
            SweepCell::new("prep-fail/healthy-1", &healthy, &spec, 0, pages),
        ];
        let outcomes = run_cells_outcomes(cells, 2);
        let _ = take_metrics();
        let reasons: Vec<&str> = [(0, "broken-0"), (2, "broken-1"), (3, "broken-2")]
            .iter()
            .map(|&(i, name)| match &outcomes[i] {
                CellOutcome::Failed { label, payload } => {
                    assert_eq!(label, &format!("prep-fail/{name}"));
                    payload.as_str()
                }
                other => panic!("the tiny scenario's cell {i} must fail, got {other:?}"),
            })
            .collect();
        assert!(
            reasons[0].contains("failed for Bzip2: out of physical memory"),
            "the machine ages and the allocation runs out: {}",
            reasons[0]
        );
        assert!(reasons.iter().all(|r| *r == reasons[0]), "one reason: {reasons:?}");
        assert!(matches!(&outcomes[1], CellOutcome::Ok(pages) if *pages > 0));
        assert!(matches!(&outcomes[4], CellOutcome::Ok(pages) if *pages > 0));
    }

    #[test]
    fn journaled_sweep_replays_completed_cells_without_rerunning() {
        let _g = drain_lock();
        let dir = TestDir::new("runner-journal");

        let runs = Arc::new(AtomicU32::new(0));
        let make_tasks = |runs: &Arc<AtomicU32>| {
            (0..4u64)
                .map(|i| {
                    let r = Arc::clone(runs);
                    SweepTask::new(format!("jrnl/t{i}"), 0, move || {
                        r.fetch_add(1, Ordering::SeqCst);
                        i * 100
                    })
                })
                .collect::<Vec<_>>()
        };

        let journal =
            Journal::open(&dir, "jrnl", "cafe0001".to_string(), false).unwrap();
        let opts = SweepOptions { jobs: 2, journal: Some(&journal) };
        let first = expect_all(run_tasks_sweep(make_tasks(&runs), &opts));
        let _ = take_metrics();
        assert_eq!(first, vec![0, 100, 200, 300]);
        assert_eq!(runs.load(Ordering::SeqCst), 4);
        assert_eq!(journal.appended(), 4);

        // Resume: every cell replays, nothing executes, results and
        // submission order are identical.
        let journal =
            Journal::open(&dir, "jrnl", "cafe0001".to_string(), true).unwrap();
        assert_eq!(journal.open_report().replayed, 4);
        let opts = SweepOptions { jobs: 2, journal: Some(&journal) };
        let second = expect_all(run_tasks_sweep(make_tasks(&runs), &opts));
        let _ = take_metrics();
        assert_eq!(second, first);
        assert_eq!(runs.load(Ordering::SeqCst), 4, "no cell re-ran");
        assert_eq!(journal.appended(), 0);
        assert_eq!(journal.swept(), (4, 0));
    }

    #[test]
    fn a_record_no_cell_asks_for_counts_as_rerun_not_replayed() {
        let _g = drain_lock();
        let dir = TestDir::new("runner-relabel");
        let tasks = |prefix: &'static str| {
            (0..4u64)
                .map(move |i| SweepTask::new(format!("{prefix}/t{i}"), 0, move || i))
                .collect::<Vec<_>>()
        };
        let journal = Journal::open(&dir, "relabel", "cafe0002".to_string(), false).unwrap();
        let opts = SweepOptions { jobs: 2, journal: Some(&journal) };
        expect_all(run_tasks_sweep(tasks("old"), &opts));
        let _ = take_metrics();
        assert_eq!(journal.swept(), (0, 4));

        // Resume after two cells were relabelled: every record is valid,
        // but only the two labels still asked for replay.
        let journal = Journal::open(&dir, "relabel", "cafe0002".to_string(), true).unwrap();
        assert_eq!(journal.open_report().replayed, 4);
        let mut cells = tasks("old");
        cells.truncate(2);
        cells.extend(tasks("new").into_iter().skip(2));
        let opts = SweepOptions { jobs: 2, journal: Some(&journal) };
        assert_eq!(expect_all(run_tasks_sweep(cells, &opts)), vec![0, 1, 2, 3]);
        let _ = take_metrics();
        assert_eq!(journal.swept(), (2, 2), "relabelled records replay nothing");
        assert_eq!(journal.appended(), 2);
    }

    #[test]
    fn a_second_sweep_hits_the_cache_and_reproduces_results_byte_for_byte() {
        let _g = drain_lock();
        // A seed no other test uses, so the first sweep is the one that
        // populates the process-global cache.
        let scenario = Scenario::default_linux().with_seed(0x0CAC_4E01);
        let spec = benchmark("Gobmk").unwrap();
        let make_cells = || {
            vec![
                SweepCell::sim("warmcache/base", &scenario, &spec, quick_cfg(TlbConfig::baseline())),
                SweepCell::sim("warmcache/all", &scenario, &spec, quick_cfg(TlbConfig::colt_all())),
            ]
        };
        let _ = take_metrics();
        let cold = expect_all(run_cells_outcomes(make_cells(), 2));
        let cold_metrics: Vec<CellMetric> = take_metrics()
            .into_iter()
            .filter(|m| m.label.starts_with("warmcache/"))
            .collect();
        assert_eq!(
            cold_metrics.iter().filter(|m| m.prep_seconds > 0.0).count(),
            1,
            "the cold sweep builds the pair exactly once"
        );

        // Same sweep again: served entirely from the in-memory snapshot
        // cache (prepare-then-clone), and byte-identical to preparing
        // from scratch (prepare-twice).
        let warm = expect_all(run_cells_outcomes(make_cells(), 2));
        let warm_metrics: Vec<CellMetric> = take_metrics()
            .into_iter()
            .filter(|m| m.label.starts_with("warmcache/"))
            .collect();
        assert!(
            warm_metrics.iter().all(|m| m.prep_seconds == 0.0),
            "a warm sweep pays no preparation at all: {warm_metrics:?}"
        );
        let cold_bytes: Vec<String> = cold.iter().map(JournalPayload::encode).collect();
        let warm_bytes: Vec<String> = warm.iter().map(JournalPayload::encode).collect();
        assert_eq!(cold_bytes, warm_bytes, "cache hits must not change any result");
    }

    #[test]
    fn resume_with_a_warm_cache_stays_byte_identical() {
        let _g = drain_lock();
        let dir = TestDir::new("runner-warm-resume");

        let scenario = Scenario::default_linux().with_seed(0x00D1_5C01);
        let spec = benchmark("Bzip2").unwrap();
        let make_cells = || {
            vec![
                SweepCell::sim("resume-warm/sa", &scenario, &spec, quick_cfg(TlbConfig::colt_sa())),
                SweepCell::sim("resume-warm/fa", &scenario, &spec, quick_cfg(TlbConfig::colt_fa())),
            ]
        };

        // First invocation: journaled to completion (the cache is warm
        // from here on, as after a killed run that finished some cells).
        let journal = Journal::open(&dir, "warm", "beef0002".to_string(), false).unwrap();
        let opts = SweepOptions { jobs: 2, journal: Some(&journal) };
        let first = expect_all(run_cells_sweep(make_cells(), &opts));
        let _ = take_metrics();
        assert_eq!(journal.appended(), 2);

        // Resume against the same journal with the warm cache: every
        // cell replays from the journal, nothing re-prepares or
        // re-simulates, and the payloads are byte-identical.
        let journal = Journal::open(&dir, "warm", "beef0002".to_string(), true).unwrap();
        assert_eq!(journal.open_report().replayed, 2);
        let opts = SweepOptions { jobs: 2, journal: Some(&journal) };
        let second = expect_all(run_cells_sweep(make_cells(), &opts));
        let _ = take_metrics();
        assert_eq!(journal.appended(), 0, "replayed cells are not re-journaled");
        let first_bytes: Vec<String> = first.iter().map(JournalPayload::encode).collect();
        let second_bytes: Vec<String> = second.iter().map(JournalPayload::encode).collect();
        assert_eq!(first_bytes, second_bytes);
    }

    /// The metrics of this test's cells, by label prefix: concurrent
    /// driver tests push their own.
    fn metrics_of(prefix: &str) -> Vec<CellMetric> {
        take_metrics().into_iter().filter(|m| m.label.starts_with(prefix)).collect()
    }

    fn count(metrics: &[CellMetric], used: StreamUse) -> usize {
        metrics.iter().filter(|m| m.stream == used).count()
    }

    /// Each result equals a plain `sim::run` of its config, byte for byte.
    fn assert_plain(results: &[SimResult], cells: &[(Scenario, SimConfig)], spec: &BenchmarkSpec) {
        for (i, (r, (scenario, cfg))) in results.iter().zip(cells).enumerate() {
            let w = snapshot_cache::get_or_prepare(scenario, spec).unwrap().workload;
            assert_eq!(r.encode(), sim::run(&w, cfg).encode(), "cell {i}");
        }
    }

    #[test]
    fn a_stream_group_records_once_and_every_result_equals_a_plain_run() {
        let _g = drain_lock();
        let scenario = Scenario::default_linux();
        let spec = benchmark("Gobmk").unwrap();
        let quick = quick_cfg(TlbConfig::colt_all());
        let cells: Vec<(Scenario, SimConfig)> = [
            quick_cfg(TlbConfig::baseline()),
            quick_cfg(TlbConfig::colt_sa()).with_invalidations(37).with_context_switches(4_999),
            quick.virtualized().with_invalidations(101),
            quick_cfg(TlbConfig::colt_fa()).with_check(),
            // Another warmup split of the same stream.
            SimConfig { warmup: 0, accesses: 11_000, ..quick },
        ]
        .into_iter()
        .map(|cfg| (scenario.clone(), cfg))
        .collect();
        for jobs in [1, 3] {
            let sweep = cells
                .iter()
                .enumerate()
                .map(|(i, (s, cfg))| SweepCell::sim(format!("group/{i}"), s, &spec, *cfg))
                .collect();
            let results = expect_all(run_cells_outcomes(sweep, jobs));
            let metrics = metrics_of("group/");
            assert_eq!(count(&metrics, StreamUse::Recorded), 1, "jobs {jobs}: {metrics:?}");
            assert_eq!(count(&metrics, StreamUse::Replayed), cells.len() - 1, "jobs {jobs}");
            assert_plain(&results, &cells, &spec);
        }
    }

    #[test]
    fn cells_of_different_streams_never_share() {
        let _g = drain_lock();
        let spec = benchmark("Gobmk").unwrap();
        let default = Scenario::default_linux();
        let other = Scenario::default_linux().with_seed(0x57E4_0001);
        let base = quick_cfg(TlbConfig::baseline());
        // Four streams of two cells each (baseline and CoLT-All): the
        // default, another pattern seed, another `warmup + accesses`,
        // and another scenario. Each pair shares; no two pairs do.
        let streams = [
            (default.clone(), base),
            (default.clone(), SimConfig { pattern_seed: 7, ..base }),
            (default, base.with_accesses(12_000)),
            (other, base),
        ];
        let cells: Vec<(Scenario, SimConfig)> = streams
            .iter()
            .flat_map(|(s, cfg)| {
                [TlbConfig::baseline(), TlbConfig::colt_all()]
                    .map(|tlb| (s.clone(), SimConfig { tlb, ..*cfg }))
            })
            .collect();
        let sweep = cells
            .iter()
            .enumerate()
            .map(|(i, (s, cfg))| SweepCell::sim(format!("apart/{i}"), s, &spec, *cfg))
            .collect();
        let results = expect_all(run_cells_outcomes(sweep, 2));
        let metrics = metrics_of("apart/");
        for pair in metrics.chunks_exact(2) {
            let mut uses = [pair[0].stream, pair[1].stream];
            uses.sort_by_key(|u| *u as u8);
            assert_eq!(uses, [StreamUse::Recorded, StreamUse::Replayed], "{pair:?}");
        }
        assert_plain(&results, &cells, &spec);
        // A lone cell runs plain.
        let lone = vec![SweepCell::sim("lone/0", &Scenario::default_linux(), &spec, base)];
        expect_all(run_cells_outcomes(lone, 2));
        assert_eq!(metrics_of("lone/")[0].stream, StreamUse::Plain);
    }

    #[test]
    fn a_recording_that_panics_fails_alone_and_the_next_cell_records() {
        let _g = drain_lock();
        let scenario = Scenario::default_linux();
        let spec = benchmark("Gobmk").unwrap();
        // Rejected by `SetAssocTlb::new` (32 entries do not divide into
        // 3 ways) when the run builds its MMU, before any reference.
        let broken = TlbConfig { l1_entries: 32, l1_ways: 3, ..TlbConfig::baseline() };
        let good = [TlbConfig::baseline(), TlbConfig::colt_sa(), TlbConfig::colt_all()];
        let cells: Vec<(Scenario, SimConfig)> =
            good.iter().map(|tlb| (scenario.clone(), quick_cfg(*tlb))).collect();
        for jobs in [1, 2] {
            let broken_cell = SweepCell::sim("panic/broken", &scenario, &spec, quick_cfg(broken));
            let mut sweep = vec![broken_cell];
            sweep.extend(
                cells
                    .iter()
                    .enumerate()
                    .map(|(i, (s, cfg))| SweepCell::sim(format!("panic/{i}"), s, &spec, *cfg)),
            );
            let mut outcomes = run_cells_outcomes(sweep, jobs);
            let metrics = metrics_of("panic/");
            match outcomes.remove(0) {
                CellOutcome::Failed { payload, .. } => {
                    assert!(payload.contains("entries must divide into ways"), "{payload}");
                }
                other => panic!("the broken cell must fail, got {other:?}"),
            }
            let results = expect_all(outcomes);
            assert_eq!(metrics[0].stream, StreamUse::Plain, "a failed cell shares nothing");
            assert_eq!(count(&metrics, StreamUse::Recorded), 1, "jobs {jobs}: {metrics:?}");
            assert_eq!(count(&metrics, StreamUse::Replayed), good.len() - 1, "jobs {jobs}");
            assert_plain(&results, &cells, &spec);
        }
    }

    #[test]
    fn a_resume_after_the_recording_cell_records_again_with_identical_results() {
        let _g = drain_lock();
        let dir = TestDir::new("runner-stream-resume");
        let scenario = Scenario::default_linux();
        let spec = benchmark("Bzip2").unwrap();
        let tlbs = [TlbConfig::baseline(), TlbConfig::colt_fa(), TlbConfig::colt_all()];
        let sweep = |n: usize| -> Vec<SweepCell<SimResult>> {
            tlbs.iter()
                .take(n)
                .enumerate()
                .map(|(i, tlb)| {
                    SweepCell::sim(format!("sresume/{i}"), &scenario, &spec, quick_cfg(*tlb))
                })
                .collect()
        };
        let journal = Journal::open(&dir, "sresume", "cafe0003".to_string(), false).unwrap();
        let opts = SweepOptions { jobs: 1, journal: Some(&journal) };
        let uninterrupted = expect_all(run_cells_sweep(sweep(3), &opts));
        assert_eq!(metrics_of("sresume/")[0].stream, StreamUse::Recorded);

        // Cut the journal after the first record, the recording cell's,
        // as a kill after that cell would.
        let path = dir.join("sresume.jsonl");
        let records = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{}\n", records.lines().next().unwrap())).unwrap();
        let journal = Journal::open(&dir, "sresume", "cafe0003".to_string(), true).unwrap();
        let opts = SweepOptions { jobs: 2, journal: Some(&journal) };
        let resumed = expect_all(run_cells_sweep(sweep(3), &opts));
        let metrics = metrics_of("sresume/");
        assert_eq!(journal.swept(), (1, 2));
        assert_eq!(metrics[0].stream, StreamUse::Plain, "replayed from the journal");
        assert_eq!(count(&metrics, StreamUse::Recorded), 1, "{metrics:?}");
        assert_eq!(count(&metrics, StreamUse::Replayed), 1, "{metrics:?}");
        let bytes = |rs: &[SimResult]| rs.iter().map(JournalPayload::encode).collect::<Vec<_>>();
        assert_eq!(bytes(&resumed), bytes(&uninterrupted));
    }
}
