//! Parallel sweep runner: fans independent (benchmark × scenario ×
//! TLB-config) simulation cells out across a fixed pool of scoped
//! worker threads that pull from one queue.
//!
//! A sweep is a list of [`SweepCell`]s of three kinds:
//!
//! * **Pair cells** ([`SweepCell::new`], [`SweepCell::sim`],
//!   [`SweepCell::sim_then`]) run on the prepared workload of one
//!   (scenario, benchmark) pair.
//! * **Machine cells** ([`SweepCell::on_machine`]) run on their own copy
//!   of a scenario's aged machine and load it themselves, as the SMP and
//!   multiprogramming drivers do with several benchmarks on one kernel.
//! * **Self-contained cells** ([`SweepCell::task`]) share nothing with
//!   the sweep, like `--check`'s fuzz cases, which boot kernels of their
//!   own.
//!
//! Cells share nothing but an aged machine or a prepared workload, so
//! the runner provides exactly four guarantees:
//!
//! 1. **Determinism** — results come back in submission order, and each
//!    cell's simulation consumes only its own [`SimConfig`]-seeded RNG
//!    streams, so the rendered tables are byte-identical regardless of
//!    `jobs` (and regardless of how many cells were replayed from a
//!    journal rather than executed).
//! 2. **Shared aging and preparation, planned** — every cell of a sweep
//!    is known before it starts, so the sweep is planned up front: one
//!    preparation step per (scenario, benchmark) pair, in the order the
//!    pairs first appear, holding the pair's cells, and one step per
//!    machine cell. A machine (a [`MachineSpec`]: scenarios that differ
//!    only in memhog, pressure, dirty fraction or name share one) is aged
//!    once per sweep by the first of its users, the machine cells and the
//!    preparations that the process-global
//!    [`snapshot_cache`](crate::snapshot_cache) cannot answer, and let go
//!    after the last. Each user gets a clone of it, except the last,
//!    which gets the machine itself. A user that finds its machine aging
//!    waits on it, the one wait in the runner, while its worker takes the
//!    next step. A preparation builds the pair's [`PreparedWorkload`] on
//!    its copy; the pair's cells then go to the front of the queue, each
//!    holding the workload as an `Arc`, so they run together and the
//!    workload is let go after the last of them. Sim cells
//!    ([`SweepCell::sim`], [`SweepCell::sim_then`]) of a pair that also
//!    share a pattern seed and `warmup + accesses` share one reference
//!    stream: the first of them records it with its L1/L2 outcomes
//!    ([`sim::Source::Record`]), then queues the rest at the front to
//!    replay the recording under their own TLB configurations,
//!    bit-identically; the recording is let go after the last replay. A
//!    stream of one cell runs plain; a recording that panics fails only
//!    its own cell, and the next cell of the group records instead.
//! 3. **Failure isolation** — a cell whose job panics or whose machine
//!    or preparation fails becomes [`CellOutcome::Failed`] while every
//!    other cell still completes. Cells are seeded simulations on
//!    seeded kernels, so a failure would only repeat: nothing is
//!    retried, and a failed aging or preparation fails every cell of its
//!    machine or pair with the same reason.
//!    [`expect_all`] turns failures back into a panic for drivers whose
//!    sweeps must be all-or-nothing.
//! 4. **Durable progress** — [`run_cells_sweep`] appends one
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
use colt_workloads::scenario::{AgedMachine, MachineSpec, PreparedWorkload, Scenario};
use colt_workloads::spec::BenchmarkSpec;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

type PairJob<R> = Box<dyn FnOnce(&PreparedWorkload, Source<'_>) -> R + Send>;
type MachineJob<R> = Box<dyn FnOnce(AgedMachine) -> R + Send>;
type TaskJob<R> = Box<dyn FnOnce() -> R + Send>;
/// A finished cell: its outcome and its throughput record.
type Finished<R> = (CellOutcome<R>, CellMetric);
/// A cell that has run: its index, its metric and what its job returned.
type Done<R> = (usize, CellMetric, Result<R, String>);

/// One unit of parallel work: a job run once on what its kind of cell
/// gets (see the module documentation).
pub struct SweepCell<R> {
    label: String,
    /// Memory references the job will simulate (0 for analysis-only
    /// cells such as contiguity scans) — feeds the throughput report.
    refs: u64,
    job: Job<R>,
}

/// A cell's job and what it runs on.
enum Job<R> {
    /// The prepared workload of one (scenario, benchmark) pair.
    /// `pattern` is a sim cell's pattern seed and `warmup + accesses`:
    /// with its preparation, the reference stream it generates.
    Pair { scenario: Scenario, spec: BenchmarkSpec, pattern: Option<(u64, u64)>, run: PairJob<R> },
    /// A copy of the scenario's aged machine.
    Machine { scenario: Scenario, run: MachineJob<R> },
    /// Nothing the sweep shares.
    Task(TaskJob<R>),
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
            refs,
            job: Job::Pair {
                scenario: scenario.clone(),
                spec: spec.clone(),
                pattern: None,
                run: Box::new(move |w: &PreparedWorkload, _: Source<'_>| job(w)),
            },
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
            refs,
            job: Job::Pair {
                scenario: scenario.clone(),
                spec: spec.clone(),
                pattern: Some((cfg.pattern_seed, refs)),
                run: Box::new(move |w: &PreparedWorkload, source: Source<'_>| {
                    then(w, sim::run_from(w, &cfg, source))
                }),
            },
        }
    }

    /// A cell running `job` on its own copy of `scenario`'s aged machine,
    /// shared with the sweep's other users of that machine (guarantee
    /// 2); the job loads it, for instance with
    /// [`AgedMachine::into_prepared_many`] under `scenario`.
    pub fn on_machine(
        label: impl Into<String>,
        scenario: &Scenario,
        refs: u64,
        job: impl FnOnce(AgedMachine) -> R + Send + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            refs,
            job: Job::Machine { scenario: scenario.clone(), run: Box::new(job) },
        }
    }

    /// A cell that shares nothing with the sweep: `job` brings all it
    /// needs.
    pub fn task(
        label: impl Into<String>,
        refs: u64,
        job: impl FnOnce() -> R + Send + 'static,
    ) -> Self {
        Self { label: label.into(), refs, job: Job::Task(Box::new(job)) }
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

/// What became of one sweep cell: its result, or a description of why
/// it died while the rest of the sweep carried on.
#[derive(Debug)]
pub enum CellOutcome<R> {
    /// The cell ran to completion (or was replayed from the journal).
    Ok(R),
    /// Aging or preparation failed or the job panicked; `payload` is the
    /// cause.
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
    /// Benchmark name ("" for machine cells and self-contained cells).
    pub benchmark: String,
    /// Scenario name ("" for self-contained cells).
    pub scenario: String,
    /// Memory references simulated (0 for analysis-only cells).
    pub refs: u64,
    /// Seconds this cell spent building the shared workload (0 when it
    /// reused another cell's preparation), or, for a machine cell,
    /// getting its copy of the machine.
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

/// A submitted cell: where its outcome goes, its throughput record (the
/// worker fills in the timings) and what it runs.
struct Item<J> {
    idx: usize,
    metric: CellMetric,
    job: J,
}

/// A pair cell of the plan: its job runs on the pair's workload.
type Cell<R> = Item<PairJob<R>>;
/// The cells of a pair that generate one reference stream, keyed by
/// their pattern seed and `warmup + accesses`; a cell that generates
/// none is a group of its own.
type Group<R> = (Option<(u64, u64)>, Vec<Cell<R>>);

/// One step of a sweep's queue.
enum Step<R> {
    /// Runs a self-contained cell.
    Task(Item<TaskJob<R>>),
    /// Obtains one pair's workload, then queues its cells.
    Prepare(Prepare<R>),
    /// Runs a machine cell on its copy of the machine at this index of
    /// [`Pool::machines`].
    OnMachine(usize, Item<MachineJob<R>>),
    /// Runs the first cell of a stream group on the workload. It records
    /// the stream for the rest of the group, or runs plain when alone.
    Run(Arc<PreparedWorkload>, Vec<Cell<R>>),
    /// Runs a cell on a recording of its stream.
    Replay(Arc<PreparedWorkload>, Arc<Recording>, Cell<R>),
}

/// The preparation of one (scenario, benchmark) pair and the cells that
/// run on it.
struct Prepare<R> {
    scenario: Scenario,
    spec: BenchmarkSpec,
    /// Index of the scenario's machine in [`Pool::machines`].
    machine: usize,
    /// The pair's cells by stream, in submission order.
    groups: Vec<Group<R>>,
}

/// One aged machine of a sweep, shared by its users: the preparations
/// of every scenario of that machine, and its machine cells.
struct Machine<R> {
    /// What aging reads.
    spec: MachineSpec,
    state: Aged,
    /// Users that found the machine aging: queued again, at the front,
    /// when it lands.
    waiting: Vec<Step<R>>,
    /// Users that have neither taken the machine nor, for a preparation,
    /// found their workload in the cache. The last one takes the
    /// machine's own handle, so no aged kernel outlives its last user.
    to_serve: usize,
}

/// How far a machine's aging has got.
enum Aged {
    /// Not aged, or let go after its last user.
    Idle,
    /// A worker is aging it; users that need it wait.
    Aging,
    Ready(Arc<AgedMachine>),
    /// Aging failed. It was seeded, so it would only fail again: every
    /// user of the machine fails with this reason.
    Failed(String),
}

impl<R> Machine<R> {
    /// Serves one user with the aged machine or the reason it failed to
    /// age. Only called once the machine has aged.
    fn take(&mut self) -> Result<Arc<AgedMachine>, String> {
        let taken = match &self.state {
            Aged::Ready(machine) => Ok(Arc::clone(machine)),
            Aged::Failed(reason) => Err(reason.clone()),
            Aged::Idle | Aged::Aging => unreachable!("only an aged machine is taken"),
        };
        self.serve();
        taken
    }

    /// Counts one user as served; after the last one, a ready machine is
    /// let go.
    fn serve(&mut self) {
        self.to_serve -= 1;
        if self.to_serve == 0 && matches!(self.state, Aged::Ready(_)) {
            self.state = Aged::Idle;
        }
    }
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
    /// The journaled outcome of the cell `metric` describes, if a valid
    /// record for it decodes as this sweep's result type.
    fn replay(&self, metric: &CellMetric) -> Option<Finished<R>> {
        let rep = self.journal.completed(&metric.label)?;
        let Some(r) = (self.decode)(&rep.payload) else {
            eprintln!(
                "note: journal record for '{}' does not decode as this sweep's \
                 result type; re-running the cell",
                metric.label
            );
            return None;
        };
        let metric = CellMetric {
            refs: rep.refs,
            prep_seconds: rep.prep_seconds,
            sim_seconds: rep.sim_seconds,
            ..metric.clone()
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

/// The queue and its completion count share one lock, so a worker that
/// finds the queue empty can wait on the condvar without missing a
/// requeue or the last completion.
struct Queue<R> {
    steps: VecDeque<Step<R>>,
    /// Cells finished so far.
    finished: usize,
}

/// Everything the workers of one sweep share.
struct Pool<'a, R> {
    queue: Mutex<Queue<R>>,
    wake: Condvar,
    /// Cells the workers must finish (journal replays excluded).
    total: usize,
    machines: Vec<Mutex<Machine<R>>>,
    hook: Option<Hook<'a, R>>,
    results: Mutex<Vec<Option<Finished<R>>>>,
}

impl<R> Pool<'_, R> {
    /// One worker: runs steps until every cell has finished.
    fn work(&self) {
        while let Some(step) = self.next() {
            match step {
                Step::Task(Item { idx, mut metric, job }) => {
                    let ran = run_job(&mut metric, job);
                    self.finish((idx, metric, ran));
                }
                Step::Prepare(prep) => self.prepare(prep),
                Step::OnMachine(at, cell) => self.run_on_machine(at, cell),
                Step::Run(workload, mut cells) => {
                    let cell = cells.remove(0);
                    if cells.is_empty() {
                        self.finish(run_cell(cell, workload, Source::Generate, StreamUse::Plain));
                        continue;
                    }
                    let mut recording = Recording::default();
                    let source = Source::Record(&mut recording);
                    let done = run_cell(cell, Arc::clone(&workload), source, StreamUse::Recorded);
                    // A recording that panicked fails only its own cell:
                    // the next cell of the group records instead.
                    self.requeue(if done.2.is_ok() {
                        let recording = Arc::new(recording);
                        cells
                            .into_iter()
                            .map(|c| Step::Replay(Arc::clone(&workload), Arc::clone(&recording), c))
                            .collect()
                    } else {
                        vec![Step::Run(workload, cells)]
                    });
                    self.finish(done);
                }
                Step::Replay(workload, recording, cell) => {
                    let source = Source::Replay(&recording);
                    self.finish(run_cell(cell, workload, source, StreamUse::Replayed));
                }
            }
        }
    }

    /// The next queued step, waiting while others are still running or
    /// waiting on a machine; `None` once every cell has finished.
    fn next(&self) -> Option<Step<R>> {
        let mut queue = relock(&self.queue);
        loop {
            if let Some(step) = queue.steps.pop_front() {
                return Some(step);
            }
            if queue.finished == self.total {
                return None;
            }
            queue = self.wake.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Obtains a pair's workload, from the process-global
    /// [`snapshot_cache`] or built on a copy of its aged machine, and
    /// queues its cells at the front; the pair's first cell is charged
    /// the time. A failed build fails every cell of the pair with its
    /// reason. A step whose machine is aging waits on the machine.
    fn prepare(&self, prep: Prepare<R>) {
        let (prep, built) = match snapshot_cache::lookup(&prep.scenario, &prep.spec) {
            Some(found) => {
                relock(&self.machines[prep.machine]).serve();
                (prep, Ok(found))
            }
            None => {
                let start = Instant::now();
                let Some((prep, machine)) = self.take_machine(prep.machine, prep, Step::Prepare) else {
                    return;
                };
                let machine_seconds = start.elapsed().as_secs_f64();
                let built = machine
                    .and_then(|machine| snapshot_cache::build(machine, &prep.scenario, &prep.spec))
                    .map(|p| Prepared { prep_seconds: p.prep_seconds + machine_seconds, ..p });
                (prep, built)
            }
        };
        let mut groups = prep.groups;
        match built {
            Ok(p) => {
                groups[0].1[0].metric.prep_seconds = p.prep_seconds;
                self.requeue(
                    groups
                        .into_iter()
                        .map(|(_, cells)| Step::Run(Arc::clone(&p.workload), cells))
                        .collect(),
                );
            }
            Err(reason) => {
                for Item { idx, metric, .. } in groups.into_iter().flat_map(|(_, cells)| cells) {
                    self.finish((idx, metric, Err(reason.clone())));
                }
            }
        }
    }

    /// Runs a machine cell on its copy of the machine, charging it the
    /// time it spent getting the copy: the aging, or the clone. A machine
    /// that failed to age fails the cell with its reason. A step whose
    /// machine is aging waits on the machine.
    fn run_on_machine(&self, at: usize, cell: Item<MachineJob<R>>) {
        let start = Instant::now();
        let wait = |cell| Step::OnMachine(at, cell);
        let Some((Item { idx, mut metric, job }, machine)) = self.take_machine(at, cell, wait) else {
            return;
        };
        metric.prep_seconds = start.elapsed().as_secs_f64();
        let ran = machine.and_then(|machine| run_job(&mut metric, || job(machine)));
        self.finish((idx, metric, ran));
    }

    /// The aged machine `at` for `user`, a machine cell or a preparation
    /// the cache cannot answer: a clone or, for the machine's last user,
    /// the machine itself. The first user to get here ages it. `None`
    /// while another worker ages it: `user` then waits on the machine as
    /// the step `wait` makes of it, queued again when the machine lands.
    fn take_machine<U>(
        &self,
        at: usize,
        user: U,
        wait: impl FnOnce(U) -> Step<R>,
    ) -> Option<(U, Result<AgedMachine, String>)> {
        let shared = &self.machines[at];
        let mut machine = relock(shared);
        let mut woken = Vec::new();
        match machine.state {
            Aged::Aging => {
                machine.waiting.push(wait(user));
                return None;
            }
            Aged::Idle => {
                machine.state = Aged::Aging;
                let spec = machine.spec;
                drop(machine);
                let aged = snapshot_cache::age(spec);
                machine = relock(shared);
                machine.state = match aged {
                    Ok(aged) => Aged::Ready(Arc::new(aged)),
                    Err(reason) => Aged::Failed(reason),
                };
                woken = std::mem::take(&mut machine.waiting);
            }
            Aged::Ready(_) | Aged::Failed(_) => {}
        }
        let taken = machine.take();
        drop(machine);
        self.requeue(woken);
        Some((user, taken.map(Arc::unwrap_or_clone)))
    }

    /// Puts steps at the front of the queue, in order, so that a pair's
    /// cells, and the replays of a recording, run together.
    fn requeue(&self, steps: Vec<Step<R>>) {
        if steps.is_empty() {
            return;
        }
        let mut queue = relock(&self.queue);
        for step in steps.into_iter().rev() {
            queue.steps.push_front(step);
        }
        drop(queue);
        self.wake.notify_all();
    }

    /// Journals one finished cell and records its outcome; the last one
    /// wakes the idle workers so they exit.
    fn finish(&self, (idx, metric, ran): Done<R>) {
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

/// Runs a cell on its workload from `source`; on success its metric
/// records `used`.
fn run_cell<R>(
    cell: Cell<R>,
    workload: Arc<PreparedWorkload>,
    source: Source<'_>,
    used: StreamUse,
) -> Done<R> {
    let Item { idx, mut metric, job } = cell;
    let ran = run_job(&mut metric, || job(&workload, source));
    // The last cell of a pair may hold the last handle to the workload
    // (with no snapshot cache): free it outside the timing.
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

/// The sweep engine: replays journaled cells, plans the rest, runs the
/// plan on `jobs` workers, and returns one outcome per cell in
/// submission order. Finished cells' [`CellMetric`]s go to the
/// process-global registry that [`take_metrics`] drains.
fn engine<R: Send>(
    cells: Vec<SweepCell<R>>,
    jobs: usize,
    hook: Option<Hook<'_, R>>,
) -> Vec<CellOutcome<R>> {
    let mut results: Vec<Option<Finished<R>>> = cells.iter().map(|_| None).collect();
    // Replay pass: cells the journal already holds never re-run.
    let submitted = cells.len();
    let mut queue = Vec::new();
    for item in cell_items(cells) {
        match hook.as_ref().and_then(|h| h.replay(&item.metric)) {
            Some(replayed) => results[item.idx] = Some(replayed),
            None => queue.push(item),
        }
    }
    let total = queue.len();
    if let Some(hook) = &hook {
        hook.journal.note_sweep(submitted - total, total);
    }
    let (steps, machines) = plan(queue);
    let pool = Pool {
        queue: Mutex::new(Queue { steps, finished: 0 }),
        wake: Condvar::new(),
        total,
        machines,
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
    relock(&METRICS).extend(metrics);
    outcomes
}

/// Plans a sweep. Each self-contained cell and each machine cell is a
/// step of its own. Pair cells become one [`Prepare`] step per distinct
/// (scenario, benchmark) pair, in the order the pairs first appear, with
/// the pair's cells grouped by stream. Each distinct [`MachineSpec`] of
/// the machine cells' and the pairs' scenarios gets one [`Machine`],
/// counting its users.
fn plan<R>(items: Vec<Item<Job<R>>>) -> (VecDeque<Step<R>>, Vec<Mutex<Machine<R>>>) {
    let mut steps = VecDeque::new();
    let mut pairs = HashMap::new();
    let mut by_machine = HashMap::new();
    let mut machines = Vec::new();
    // The index of the scenario's machine, counting one more user.
    let mut user_of = |scenario: &Scenario| {
        let spec = scenario.machine();
        let at = *by_machine.entry(format!("{spec:?}")).or_insert_with(|| {
            machines.push(Machine { spec, state: Aged::Idle, waiting: Vec::new(), to_serve: 0 });
            machines.len() - 1
        });
        machines[at].to_serve += 1;
        at
    };
    for Item { idx, metric, job } in items {
        let (scenario, spec, pattern, run) = match job {
            Job::Task(job) => {
                steps.push_back(Step::Task(Item { idx, metric, job }));
                continue;
            }
            Job::Machine { scenario, run } => {
                steps.push_back(Step::OnMachine(user_of(&scenario), Item { idx, metric, job: run }));
                continue;
            }
            Job::Pair { scenario, spec, pattern, run } => (scenario, spec, pattern, run),
        };
        let key = snapshot_cache::prep_key(&scenario, &spec);
        let at = *pairs.entry(key).or_insert_with(|| {
            let machine = user_of(&scenario);
            steps.push_back(Step::Prepare(Prepare { scenario, spec, machine, groups: Vec::new() }));
            steps.len() - 1
        });
        let Step::Prepare(prep) = &mut steps[at] else { unreachable!("a pair's step prepares") };
        let cell = Item { idx, metric, job: run };
        match prep.groups.iter_mut().find(|(p, _)| pattern.is_some() && *p == pattern) {
            Some((_, cells)) => cells.push(cell),
            None => prep.groups.push((pattern, vec![cell])),
        }
    }
    (steps, machines.into_iter().map(Mutex::new).collect())
}

/// Numbers the cells in submission order and opens their metrics.
fn cell_items<R>(cells: Vec<SweepCell<R>>) -> Vec<Item<Job<R>>> {
    cells
        .into_iter()
        .enumerate()
        .map(|(idx, SweepCell { label, refs, job })| {
            let (benchmark, scenario) = match &job {
                Job::Pair { scenario, spec, .. } => (spec.name.to_string(), scenario.name.clone()),
                Job::Machine { scenario, .. } => (String::new(), scenario.name.clone()),
                Job::Task(_) => (String::new(), String::new()),
            };
            let metric = CellMetric {
                label,
                benchmark,
                scenario,
                refs,
                prep_seconds: 0.0,
                sim_seconds: 0.0,
                stream: StreamUse::Plain,
            };
            Item { idx, metric, job }
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
    engine(cells, opts.jobs, Hook::of(opts))
}

/// Runs every cell across at most `jobs` worker threads and returns one
/// [`CellOutcome`] per cell, in submission order, without a journal: a
/// panicking cell (or a failing aging or preparation) yields `Failed`
/// for that cell only; all other cells still complete.
pub fn run_cells_outcomes<R: Send + 'static>(
    cells: Vec<SweepCell<R>>,
    jobs: usize,
) -> Vec<CellOutcome<R>> {
    engine(cells, jobs, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_faults::TestDir;
    use colt_tlb::config::TlbConfig;
    use colt_workloads::background::AgingConfig;
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
    fn a_task_sweep_records_its_metrics() {
        let _g = drain_lock();
        let plain = vec![SweepCell::task("metrics/plain", 0, || 7u64)];
        let _ = run_cells_sweep(plain, &SweepOptions { jobs: 1, journal: None });
        assert_eq!(metrics_of("metrics/").len(), 1, "the BENCH reports depend on it");
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
        // workers: one worker builds while the others find the queue
        // empty and wait; every cell must still complete with exactly
        // one build. A scheduler that loses the pair's cells hangs here;
        // one that blocks workers merely serializes (the next test
        // catches that).
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
            "exactly one cell builds; the rest ride along free"
        );
    }

    #[test]
    fn a_worker_runs_ready_work_while_a_shared_build_is_in_flight() {
        let _g = drain_lock();
        // Two cells need cold preparations of one cold scenario (a seed
        // no other test uses); the third cell's key is prepared before
        // the sweep starts. At two workers, one worker builds while the
        // other runs the warm cell, so the warm job runs before either
        // cold job starts. In the first case the cold cells share their
        // (scenario, benchmark) pair, so they wait in its one
        // preparation step; in the second they are different
        // benchmarks, and the second's preparation waits on the machine
        // while the first ages it. A runner that blocks on the in-flight
        // build instead, or that ages a machine per preparation, reaches
        // the warm cell only after a cold job has begun. No barrier
        // forces the interleaving (the build runs inside the snapshot
        // cache, which has no hook); the cold build is a whole kernel
        // preparation, while queueing and the warm lookup take
        // microseconds.
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
        let tasks: Vec<SweepCell<usize>> = (0..16)
            .map(|i| SweepCell::task(format!("t{i}"), 0, move || i * i))
            .collect();
        let out = expect_all(run_cells_outcomes(tasks, 4));
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
        let tasks: Vec<SweepCell<usize>> = (0..8)
            .map(|i| {
                SweepCell::task(format!("tiso{i}"), 0, move || {
                    if i == 5 {
                        panic!("task {i} exploded");
                    }
                    i * 10
                })
            })
            .collect();
        let outcomes = run_cells_outcomes(tasks, 3);
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
    fn a_machine_that_fails_to_age_fails_each_of_its_cells_with_one_reason() {
        let _g = drain_lock();
        // No aging chunk size can be sampled from an empty range, so the
        // machine panics while aging. Both benchmarks' cells and the
        // machine cells must fail with the one reason, which names the
        // machine, and the healthy cell of the same sweep must still run.
        let broken = Scenario {
            aging: AgingConfig { max_chunk_pages: 0, ..AgingConfig::default() },
            ..Scenario::default_linux().with_seed(0xA6E1_0BAD)
        };
        let healthy = Scenario::default_linux();
        let (gobmk, povray) = (benchmark("Gobmk").unwrap(), benchmark("Povray").unwrap());
        let pages = |w: &PreparedWorkload| w.contiguity().total_pages();
        let loaded = |_: AgedMachine| -> u64 { panic!("a machine cell of the broken machine ran") };
        for jobs in [1, 2] {
            let cells = vec![
                SweepCell::on_machine("age-fail/machine-0", &broken, 0, loaded),
                SweepCell::new("age-fail/gobmk-0", &broken, &gobmk, 0, pages),
                SweepCell::new("age-fail/povray-0", &broken, &povray, 0, pages),
                SweepCell::new("age-fail/healthy", &healthy, &gobmk, 0, pages),
                SweepCell::new("age-fail/gobmk-1", &broken, &gobmk, 0, pages),
                SweepCell::new("age-fail/povray-1", &broken, &povray, 0, pages),
                SweepCell::on_machine("age-fail/machine-1", &broken, 0, loaded),
            ];
            let mut outcomes = run_cells_outcomes(cells, jobs);
            let _ = take_metrics();
            let healthy = outcomes.remove(3);
            assert!(matches!(healthy, CellOutcome::Ok(pages) if pages > 0), "jobs {jobs}");
            let reasons: Vec<String> = outcomes
                .into_iter()
                .map(|outcome| match outcome {
                    CellOutcome::Failed { payload, .. } => payload,
                    other => panic!("jobs {jobs}: a cell of the broken machine ran: {other:?}"),
                })
                .collect();
            let machine = format!("machine '{}' panicked while aging", broken.machine());
            assert!(reasons[0].starts_with(&machine), "jobs {jobs}: {}", reasons[0]);
            assert!(reasons.iter().all(|r| *r == reasons[0]), "jobs {jobs}: {reasons:?}");
        }
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
                    SweepCell::task(format!("jrnl/t{i}"), 0, move || {
                        r.fetch_add(1, Ordering::SeqCst);
                        i * 100
                    })
                })
                .collect::<Vec<_>>()
        };

        let journal =
            Journal::open(&dir, "jrnl", "cafe0001".to_string(), false).unwrap();
        let opts = SweepOptions { jobs: 2, journal: Some(&journal) };
        let first = expect_all(run_cells_sweep(make_tasks(&runs), &opts));
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
        let second = expect_all(run_cells_sweep(make_tasks(&runs), &opts));
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
                .map(move |i| SweepCell::task(format!("{prefix}/t{i}"), 0, move || i))
                .collect::<Vec<_>>()
        };
        let journal = Journal::open(&dir, "relabel", "cafe0002".to_string(), false).unwrap();
        let opts = SweepOptions { jobs: 2, journal: Some(&journal) };
        expect_all(run_cells_sweep(tasks("old"), &opts));
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
        assert_eq!(expect_all(run_cells_sweep(cells, &opts)), vec![0, 1, 2, 3]);
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
