//! The traced run (`--trace 1`): one iteration of a workload's inputs
//! replayed at one job with a span around every call into a layer, the
//! same replay untraced (for the tracing overhead and an equivalence
//! check), and probes of the layers the replay does not reach. Spans are
//! recorded from this benchmark's own code, around public functions;
//! spans inside the program's layers are a later change.

use crate::golden;
use crate::mix::{Conn, Request};
use crate::report::{Metric, Report};
use crate::stats::{self, Summary};
use crate::workloads::{
    answer_matches, benchmark_names, ctxswitch_cells, fig18_cell, translate_cell, virt_cells,
    Checks, Kind, ServeMixed, Workload, CHURN_ACCESSES, CHURN_CORES, FIG18_ACCESSES, JOBS,
    PREP_BENCHES,
};
use colt_core::artifact;
use colt_core::experiments::{smp, ExperimentOptions};
use colt_core::journal::{Journal, JournalPayload};
use colt_core::serve::json::Json;
use colt_core::serve::{self, ServeConfig};
use colt_core::sim::{self, SimConfig, SimResult};
use colt_core::snapshot_cache::{self, PrepSource};
use colt_memsim::hierarchy::CacheHierarchy;
use colt_memsim::walker::{PageWalker, WalkedLeaf};
use colt_os_mem::addr::{PhysAddr, Vpn};
use colt_os_mem::kernel::{Kernel, KernelConfig};
use colt_os_mem::snapshot::{Dec, Enc};
use colt_tlb::hierarchy::{TlbHierarchy, TlbLevel, WalkFill};
use colt_workloads::background::age_system;
use colt_workloads::scenario::{PreparedWorkload, Scenario};
use colt_workloads::spec::BenchmarkSpec;
use colt_workloads::MemRef;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One span. Hot-path calls (millions per cell) are recorded as one
/// aggregated span per cell and call site: `count` calls whose summed
/// duration is `end - start`, placed at the cell's start.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// The replay step (a cell, a request, a preparation) the span
    /// belongs to.
    pub cell: u32,
    pub count: u64,
}

/// Records spans in memory; a tracer that is off records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            cell: self.cell,
            count: 1,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        self.spans[id].end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in reverse order");
    }

    fn rename(&mut self, id: usize, name: &'static str) {
        if self.on {
            self.spans[id].name = name;
        }
    }

    /// Adds an aggregated span of `count` calls totalling `ns` under the
    /// open span.
    fn aggregate(&mut self, name: &'static str, start: u64, ns: u64, count: u64) {
        if self.on {
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                start,
                end: start + ns,
                parent,
                cell: self.cell,
                count,
            });
        }
    }
}

/// Where the traced wall time went: each layer's self time (a span's
/// duration minus its children's, summed by the span name's prefix) plus
/// the time outside every top-level span. They add up exactly to `wall`.
#[derive(Debug)]
pub struct Attribution {
    pub wall: u64,
    pub layers: BTreeMap<&'static str, u64>,
    pub unattributed: u64,
}

fn layer(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

pub fn attribute(spans: &[Span], wall: u64) -> Attribution {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.end - s.start;
        }
    }
    let mut layers = BTreeMap::new();
    let mut top = 0;
    for (s, kids) in spans.iter().zip(&children) {
        let duration = s.end - s.start;
        *layers.entry(layer(s.name)).or_insert(0) += duration - kids;
        if s.parent.is_none() {
            top += duration;
        }
    }
    Attribution {
        wall,
        layers,
        unattributed: wall - top,
    }
}

// ---------------------------------------------------------------------
// The traced cell replay
// ---------------------------------------------------------------------

const PATTERN: usize = 0;
const LOOKUP: usize = 1;
const FILL: usize = 2;
const WALK: usize = 3;
const DATA: usize = 4;
const PREFETCH: usize = 5;
const INVALIDATE: usize = 6;
const WALKER_INVALIDATE: usize = 7;
const FLUSH: usize = 8;
const WALKER_FLUSH: usize = 9;
const LEAVES: [&str; 10] = [
    "workloads.pattern",
    "tlb.lookup",
    "tlb.fill",
    "memsim.walk",
    "memsim.data",
    "tlb.prefetch",
    "tlb.invalidate",
    "memsim.invalidate",
    "tlb.flush",
    "memsim.flush",
];

/// Time and call counts of a cell's hot-path calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hot {
    pub ns: [u64; LEAVES.len()],
    pub count: [u64; LEAVES.len()],
    /// References replayed (warm-up included).
    pub refs: u64,
    /// Memory references the page walks made.
    pub walk_mem_refs: u64,
}

impl Hot {
    fn add(&mut self, o: &Hot) {
        for i in 0..LEAVES.len() {
            self.ns[i] += o.ns[i];
            self.count[i] += o.count[i];
        }
        self.refs += o.refs;
        self.walk_mem_refs += o.walk_mem_refs;
    }

    fn lap(&mut self, leaf: usize, calls: u64, since: Instant) {
        self.ns[leaf] += since.elapsed().as_nanos() as u64;
        self.count[leaf] += calls;
    }

    fn per(&self, leaf: usize, per: u64) -> f64 {
        self.ns[leaf] as f64 / per.max(1) as f64
    }
}

fn walker_for(config: &SimConfig) -> PageWalker {
    if config.nested_paging {
        PageWalker::paper_default().nested()
    } else {
        PageWalker::paper_default()
    }
}

/// Replays one cell with a timer around each call into a layer.
///
/// This mirrors `sim::run`'s loop (`run_stream` in `crates/core/src/sim.rs`)
/// line for line: references are pulled with `next_ref` into a reused
/// chunk, chunks end at the same warm-up, shootdown and flush boundaries,
/// and `lookup_batch`, `walk`, `fill`, the prefetch walks, `access_data`,
/// `invalidate` and `flush` are called in the same order. Leaf timings
/// need the calls to be separate; spans inside the program would remove
/// the copy and are a later change. Until then every traced cell's counters
/// are compared with an untraced `sim::run` of the same cell (a mismatch
/// fails the run), so a change to the loop's behaviour that the copy does
/// not follow cannot pass unnoticed, and `sim.refs_per_s_1core` times
/// `sim::run` itself. After the result is taken the warm hierarchy is
/// flushed once more, so every traced cell times a full flush.
pub fn replay_cell(
    workload: &PreparedWorkload,
    config: &SimConfig,
    t: &mut Tracer,
) -> (SimResult, Hot) {
    let span = t.begin("sim.cell");
    let cell_start = t.now();
    let mut hot = Hot::default();
    let mut tlb = TlbHierarchy::new(config.tlb);
    let mut walker = walker_for(config);
    let mut prefetch_walker = walker_for(config);
    let mut caches = CacheHierarchy::core_i7();
    let page_table = workload
        .kernel
        .process(workload.asid)
        .expect("workload process is live")
        .page_table();
    let latency = *caches.latency_model();
    let mut pattern = workload.pattern(config.pattern_seed);

    let (mut walk_cycles, mut data_stall_cycles, mut l2_tlb_cycles) = (0u64, 0u64, 0u64);
    let (mut measured, mut oracle_mismatches) = (0u64, 0u64);
    let mut warmup_walker = walker.stats();
    let mut warmup_tlb = tlb.stats();
    let mut recent = [Vpn::new(0); 64];
    let mut recent_len = 0usize;
    let batch = config.batch.max(1) as u64;
    let mut chunk: Vec<MemRef> = Vec::with_capacity(batch as usize);
    let mut vpns: Vec<Vpn> = Vec::with_capacity(batch as usize);
    let mut hits = Vec::with_capacity(batch as usize);

    let total = config.warmup + config.accesses;
    let mut i = 0u64;
    while i < total {
        if i == config.warmup {
            warmup_walker = walker.stats();
            warmup_tlb = tlb.stats();
            walk_cycles = 0;
            data_stall_cycles = 0;
            l2_tlb_cycles = 0;
            measured = 0;
            oracle_mismatches = 0;
        }
        let mut end = (i + batch).min(total);
        if i < config.warmup {
            end = end.min(config.warmup);
        }
        if let Some(p) = config.invalidate_period {
            end = end.min(i - i % p + p);
        }
        if let Some(p) = config.flush_period {
            end = end.min(i - i % p + p);
        }
        let n = (end - i) as usize;
        let t0 = Instant::now();
        chunk.clear();
        vpns.clear();
        for _ in 0..n {
            let r = pattern.next_ref();
            vpns.push(r.vpn);
            chunk.push(r);
        }
        hot.lap(PATTERN, n as u64, t0);

        let mut k = 0usize;
        while k < n {
            hits.clear();
            let t0 = Instant::now();
            let hit_run = tlb.lookup_batch(&vpns[k..], &mut hits);
            hot.lap(LOOKUP, (hit_run + usize::from(k + hit_run < n)) as u64, t0);
            let t0 = Instant::now();
            for (j, hit) in hits.iter().enumerate() {
                let r = chunk[k + j];
                if hit.level == TlbLevel::L2 {
                    l2_tlb_cycles += latency.l2_tlb;
                }
                if config.check && page_table.translate(r.vpn).map(|t| t.pfn) != Some(hit.pfn) {
                    oracle_mismatches += 1;
                }
                let phys = PhysAddr::new(hit.pfn.raw() * 4096 + r.line as u64 * 64);
                data_stall_cycles += caches.access_data(phys).saturating_sub(latency.l1);
                let gi = i + (k + j) as u64;
                recent[(gi % 64) as usize] = r.vpn;
                recent_len = recent_len.max((gi + 1).min(64) as usize);
            }
            hot.lap(DATA, hits.len() as u64, t0);
            k += hit_run;
            if k < n {
                let r = chunk[k];
                l2_tlb_cycles += latency.l2_tlb;
                let t0 = Instant::now();
                let outcome = walker
                    .walk(page_table, r.vpn, &mut caches)
                    .expect("footprint pages are always mapped");
                hot.lap(WALK, 1, t0);
                hot.walk_mem_refs += outcome.memory_accesses;
                walk_cycles += outcome.latency;
                let fill = match outcome.leaf {
                    WalkedLeaf::Base { line } => WalkFill::Base { line },
                    WalkedLeaf::Super {
                        base_vpn,
                        base_pfn,
                        flags,
                    } => WalkFill::Super {
                        base_vpn,
                        base_pfn,
                        flags,
                    },
                };
                let t0 = Instant::now();
                tlb.fill(r.vpn, &fill);
                hot.lap(FILL, 1, t0);
                let t0 = Instant::now();
                let targets = tlb.take_prefetch_requests();
                let requested = targets.len() as u64;
                for target in targets {
                    if let Some(po) = prefetch_walker.walk(page_table, target, &mut caches) {
                        tlb.fill_prefetch(target, po.translation.pfn, po.translation.flags);
                    }
                }
                hot.lap(PREFETCH, requested, t0);
                let phys = PhysAddr::new(outcome.translation.pfn.raw() * 4096 + r.line as u64 * 64);
                let t0 = Instant::now();
                let lat = caches.access_data(phys);
                hot.lap(DATA, 1, t0);
                data_stall_cycles += lat.saturating_sub(latency.l1);
                let gi = i + k as u64;
                recent[(gi % 64) as usize] = r.vpn;
                recent_len = recent_len.max((gi + 1).min(64) as usize);
                k += 1;
            }
        }
        measured += n as u64;

        let last = end - 1;
        if let Some(period) = config.invalidate_period {
            if last % period == period - 1 && recent_len > 32 {
                let victim = recent[((last + 64 - 32) % 64) as usize];
                let t0 = Instant::now();
                tlb.invalidate(victim);
                hot.lap(INVALIDATE, 1, t0);
                let t0 = Instant::now();
                walker.invalidate(page_table, victim);
                hot.lap(WALKER_INVALIDATE, 1, t0);
            }
        }
        if let Some(period) = config.flush_period {
            if last % period == period - 1 {
                let t0 = Instant::now();
                tlb.flush();
                hot.lap(FLUSH, 1, t0);
                let t0 = Instant::now();
                walker.flush();
                hot.lap(WALKER_FLUSH, 1, t0);
            }
        }
        i = end;
    }
    hot.refs = total;
    let result = SimResult {
        tlb: tlb.stats().since(&warmup_tlb),
        walker: walker.stats().since(&warmup_walker),
        instructions: workload.instructions(measured),
        walk_cycles,
        data_stall_cycles,
        l2_tlb_cycles,
        oracle_mismatches,
    };
    let t0 = Instant::now();
    tlb.flush();
    hot.lap(FLUSH, 1, t0);
    for (leaf, name) in LEAVES.iter().enumerate() {
        if hot.count[leaf] > 0 {
            t.aggregate(name, cell_start, hot.ns[leaf], hot.count[leaf]);
        }
    }
    t.end(span);
    (result, hot)
}

// ---------------------------------------------------------------------
// Replay plans
// ---------------------------------------------------------------------

/// One call the replay makes, in the order the workload's iteration
/// makes it.
enum Step {
    /// `snapshot_cache::clear_memory` (iterations start from disk).
    Clear,
    /// A fresh journal for one experiment.
    Journal(&'static str),
    /// `snapshot_cache::get_or_prepare` of preparation `i`.
    Prep(usize),
    /// One sim cell against preparation `prep` (journaled when a journal
    /// is open).
    Cell { prep: usize, cfg: SimConfig },
    /// The contiguity scan of preparation `i`.
    Contiguity(usize),
    /// The SMP mix study.
    Smp(ExperimentOptions),
    /// The atomic result-file write that ends an experiment.
    Artifact(&'static str),
    /// One request to the server.
    Serve(Request),
}

/// A cell traced outside the replay: prep_cold has no sim cells and
/// serve_mixed's run inside the server, so their hot-path numbers come
/// from these.
struct ProbeCell {
    /// Index into the plan's preparations.
    prep: usize,
    cfg: SimConfig,
    /// The replay step whose served answer must equal this cell.
    served: Option<usize>,
}

struct Plan {
    preps: Vec<(Scenario, BenchmarkSpec)>,
    steps: Vec<Step>,
    probe_cells: Vec<ProbeCell>,
}

fn plan(kind: Kind, seed: u64, w: &dyn Workload, dir: &Path) -> Plan {
    let preps = w.preps();
    let mut steps = Vec::new();
    let mut probe_cells = Vec::new();
    let sweep = |steps: &mut Vec<Step>, exp, cells: &dyn Fn() -> Vec<SimConfig>| {
        steps.push(Step::Journal(exp));
        for b in 0..preps.len() {
            steps.push(Step::Prep(b));
            steps.extend(cells().into_iter().map(|cfg| Step::Cell { prep: b, cfg }));
        }
        steps.push(Step::Artifact(exp));
    };
    match kind {
        Kind::Fig18Warm => {
            steps.push(Step::Clear);
            sweep(&mut steps, "fig18", &|| {
                colt_core::experiments::miss_elimination::figure18_configs()
                    .map(|tlb| fig18_cell(tlb, FIG18_ACCESSES, seed))
                    .to_vec()
            });
        }
        Kind::ChurnVirt => {
            steps.push(Step::Clear);
            sweep(&mut steps, "ctxswitch", &|| {
                ctxswitch_cells(CHURN_ACCESSES, seed)
            });
            sweep(&mut steps, "virt", &|| virt_cells(CHURN_ACCESSES, seed));
            steps.push(Step::Smp(ExperimentOptions {
                accesses: CHURN_ACCESSES,
                seed,
                jobs: 1,
                cores: CHURN_CORES,
                ..ExperimentOptions::default()
            }));
            steps.push(Step::Artifact("smp"));
        }
        Kind::PrepCold => {
            for i in 0..preps.len() {
                steps.push(Step::Prep(i));
                steps.push(Step::Contiguity(i));
            }
            // The first scenario's preparations, under every Figure-18
            // config with shootdown churn and context switches.
            for prep in 0..PREP_BENCHES.len() {
                for tlb in colt_core::experiments::miss_elimination::figure18_configs() {
                    let cfg = fig18_cell(tlb, PROBE_CELL_ACCESSES, seed)
                        .with_invalidations(64)
                        .with_context_switches(2_000);
                    probe_cells.push(ProbeCell {
                        prep,
                        cfg,
                        served: None,
                    });
                }
            }
        }
        Kind::ServeMixed => {
            // The first window of the e2e run at this seed, one
            // connection's requests after the other's.
            let window = ServeMixed::new(seed, dir.to_path_buf(), benchmark_names()).draw_window();
            for (si, r) in window.into_iter().flatten().enumerate() {
                if let Some((spec, cfg)) = translate_cell(&r) {
                    let prep = preps
                        .iter()
                        .position(|(_, b)| b.name == spec.name)
                        .expect("the mix draws from the workload's preparations");
                    probe_cells.push(ProbeCell {
                        prep,
                        cfg,
                        served: Some(si),
                    });
                }
                steps.push(Step::Serve(r));
            }
        }
    }
    Plan {
        preps,
        steps,
        probe_cells,
    }
}

/// What one pass over a plan produced.
#[derive(Default)]
struct Pass {
    wall: u64,
    spans: Vec<Span>,
    /// Cell results, in step order.
    results: Vec<SimResult>,
    /// Everything else the replay computed, digested for the
    /// traced-versus-untraced comparison.
    outputs: Vec<u64>,
    /// Served answers (`None` for a failure) by step index.
    answers: BTreeMap<usize, Option<Json>>,
    hot: Hot,
    /// Untraced `sim::run` time and the references it replayed.
    sim_ns: u64,
    refs: u64,
}

fn execute(plan: &Plan, traced: bool, dir: &Path, port: Option<u16>) -> Result<Pass, String> {
    let mut conn = port
        .map(Conn::open)
        .transpose()
        .map_err(|e| format!("connect: {e}"))?;
    let mut loaded: Vec<Option<Arc<PreparedWorkload>>> = vec![None; plan.preps.len()];
    let mut journal: Option<Journal> = None;
    let mut pass = Pass::default();
    let mut t = Tracer::new(traced);
    for (si, step) in plan.steps.iter().enumerate() {
        t.cell = si as u32;
        match step {
            Step::Clear => {
                let s = t.begin("snapshot_cache.clear");
                snapshot_cache::clear_memory();
                t.end(s);
            }
            Step::Journal(exp) => {
                let s = t.begin("journal.open");
                let j = Journal::open(
                    &dir.join("replay-journal"),
                    exp,
                    format!("{exp}-replay"),
                    false,
                )
                .map_err(|e| format!("journal: {e}"))?;
                t.end(s);
                journal = Some(j);
            }
            Step::Prep(i) => {
                let (scenario, spec) = &plan.preps[*i];
                let s = t.begin("snapshot_cache.get");
                let p = snapshot_cache::get_or_prepare(scenario, spec)?;
                t.rename(
                    s,
                    match p.source {
                        PrepSource::Memory => "snapshot_cache.hit",
                        PrepSource::Disk => "snapshot_cache.load",
                        PrepSource::Built => "workloads.prepare",
                    },
                );
                t.end(s);
                loaded[*i] = Some(p.workload);
            }
            Step::Cell { prep, cfg } => {
                let w = loaded[*prep]
                    .as_ref()
                    .ok_or("a cell ran before its preparation")?;
                let result = if traced {
                    let (r, hot) = replay_cell(w, cfg, &mut t);
                    pass.hot.add(&hot);
                    r
                } else {
                    let t0 = Instant::now();
                    let r = sim::run(w, cfg);
                    pass.sim_ns += t0.elapsed().as_nanos() as u64;
                    r
                };
                let refs = cfg.warmup + cfg.accesses;
                pass.refs += refs;
                if let Some(j) = &journal {
                    let s = t.begin("journal.append");
                    j.append(
                        &format!("replay/{si}"),
                        "ok",
                        1,
                        "",
                        &result.encode(),
                        refs,
                        0.0,
                        0.0,
                    )
                    .map_err(|e| format!("journal append: {e}"))?;
                    t.end(s);
                }
                pass.results.push(result);
            }
            Step::Contiguity(i) => {
                // A scan is its preparation's last use: drop it, as the
                // runner does, so the replay holds one kernel at a time.
                let w = loaded[*i]
                    .take()
                    .ok_or("a scan ran before its preparation")?;
                let s = t.begin("os_mem.contiguity_scan");
                let avg = w.contiguity().average_contiguity();
                t.end(s);
                pass.outputs.push(avg.to_bits());
            }
            Step::Smp(opts) => {
                let s = t.begin("smp.run_mix");
                let (rows, _) = smp::run_mix(opts);
                t.end(s);
                pass.outputs.extend(
                    rows.iter()
                        .map(|r| golden::fnv([r.walks, r.ipis_sent, r.ipi_cycles])),
                );
            }
            Step::Artifact(name) => {
                let json = artifact::sweep_json(&[], 1, 0.0, &Default::default());
                let path = dir
                    .join("replay-results")
                    .join(format!("BENCH_{name}.json"));
                std::fs::create_dir_all(path.parent().expect("has a parent"))
                    .map_err(|e| e.to_string())?;
                let s = t.begin("artifact.write");
                artifact::atomic_write_json(&path, &json).map_err(|e| format!("artifact: {e}"))?;
                t.end(s);
            }
            Step::Serve(r) => {
                let c = conn.as_mut().ok_or("a request without a server")?;
                let s = t.begin(if *r == Request::Sweep {
                    "serve.sweep"
                } else {
                    "serve.translate"
                });
                let answer = c.call(&r.line());
                t.end(s);
                let ok = answer
                    .ok()
                    .filter(|a| a.get("ok").and_then(Json::as_bool) == Some(true));
                pass.answers.insert(si, ok);
            }
        }
    }
    pass.wall = t.now();
    pass.spans = t.spans;
    Ok(pass)
}

// ---------------------------------------------------------------------
// Probes of the layers a replay does not reach
// ---------------------------------------------------------------------

/// Preparations sampled by the preparation probes.
const PROBE_PREPS: usize = 4;
/// Journal appends and artifact writes the probes time.
const PROBE_APPENDS: usize = 20;
const PROBE_WRITES: usize = 5;
/// Accesses of the SMP probe and of prep_cold's probe cells.
const PROBE_SMP_ACCESSES: u64 = 20_000;
const PROBE_CELL_ACCESSES: u64 = 20_000;

#[derive(Default)]
struct PrepProbe {
    aging_ms: Vec<f64>,
    contiguity_ms: Vec<f64>,
    prepare_ms: Vec<f64>,
    load_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    bytes: Vec<f64>,
    /// thp_allocs, thp_splits, compaction_runs, pages_migrated.
    kernel: [u64; 4],
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Builds, stores, reloads, encodes, decodes and scans a sample of the
/// workload's preparations, and ages a fresh kernel of each one's
/// scenario.
fn probe_preps(
    preps: &[(Scenario, BenchmarkSpec)],
    dir: &Path,
    checks: &mut Checks,
) -> Result<PrepProbe, String> {
    let snapshots = dir.join("probe-snapshots");
    let _ = std::fs::remove_dir_all(&snapshots);
    snapshot_cache::set_enabled(true);
    snapshot_cache::set_disk_persistence(true);
    snapshot_cache::set_dir_override(Some(snapshots));
    let mut p = PrepProbe::default();
    for k in 0..PROBE_PREPS.min(preps.len()) {
        let (scenario, spec) = &preps[k * preps.len() / PROBE_PREPS.min(preps.len())];
        snapshot_cache::clear_memory();
        let built = snapshot_cache::get_or_prepare(scenario, spec)?;
        checks.expect(built.source == PrepSource::Built, || {
            format!("probe of {} was not built", spec.name)
        });
        p.prepare_ms.push(built.prep_seconds * 1e3);
        snapshot_cache::clear_memory();
        let loaded = snapshot_cache::get_or_prepare(scenario, spec)?;
        checks.expect(loaded.source == PrepSource::Disk, || {
            format!("probe of {} was not loaded", spec.name)
        });
        p.load_ms.push(loaded.prep_seconds * 1e3);

        let w = &built.workload;
        let t0 = Instant::now();
        let mut enc = Enc::new();
        w.encode_snapshot(&mut enc);
        let bytes = enc.finish();
        p.encode_ms.push(ms_since(t0));
        p.bytes.push(bytes.len() as f64);
        let t0 = Instant::now();
        let mut dec = Dec::new(&bytes);
        let decoded = PreparedWorkload::decode_snapshot(&mut dec, spec)
            .and_then(|d| dec.finish().map(|()| d));
        p.decode_ms.push(ms_since(t0));

        let t0 = Instant::now();
        let contiguity = w.contiguity().average_contiguity();
        p.contiguity_ms.push(ms_since(t0));
        let same = |d: &PreparedWorkload| {
            d.kernel.stats() == w.kernel.stats()
                && d.contiguity().average_contiguity().to_bits() == contiguity.to_bits()
        };
        checks.expect(
            matches!(&decoded, Ok(d) if same(d)) && same(&loaded.workload),
            || {
                format!(
                    "{}: a snapshot round trip changed the prepared kernel",
                    spec.name
                )
            },
        );

        let s = w.kernel.stats();
        for (sum, v) in p.kernel.iter_mut().zip([
            s.thp_allocs,
            s.thp_splits,
            s.compaction_runs,
            s.pages_migrated,
        ]) {
            *sum += v;
        }
        let mut kernel = Kernel::new(KernelConfig {
            nr_frames: scenario.nr_frames,
            ths_enabled: scenario.ths,
            compaction: scenario.compaction,
            faults: scenario.faults,
            policy: scenario.policy,
            ..KernelConfig::default()
        });
        let t0 = Instant::now();
        age_system(&mut kernel, scenario.aging, scenario.seed)
            .map_err(|e| format!("aging: {e}"))?;
        p.aging_ms.push(ms_since(t0));
    }
    snapshot_cache::clear_memory();
    Ok(p)
}

#[derive(Default)]
struct ServeProbe {
    translate_ms: Vec<f64>,
    sweep_hit_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    batch_size_mean: f64,
    pool_hit_ratio: f64,
    busy_share: f64,
}

fn counter(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One window of the serve mix against a fresh server at [`JOBS`]: its
/// own mix for serve_mixed, and the mix over the workload's benchmarks
/// for the others.
fn probe_serve(
    seed: u64,
    dir: &Path,
    preps: &[(Scenario, BenchmarkSpec)],
    checks: &mut Checks,
) -> Result<ServeProbe, String> {
    let mut names: Vec<&'static str> = Vec::new();
    for (_, spec) in preps {
        if !names.contains(&spec.name) {
            names.push(spec.name);
        }
    }
    let mut serve = ServeMixed::new(seed, dir.to_path_buf(), names);
    snapshot_cache::set_enabled(true);
    serve.load_expected_sweep()?;
    let _ = snapshot_cache::take_stats();
    serve.start_server()?;
    // Warm the sweep cache first: inside the window every sweep is a
    // result-cache hit and every preparation lookup is a translate's.
    serve.send_window(&[vec![Request::Sweep]]);
    let before = serve.stats()?;
    let window = serve.draw_window();
    let t0 = Instant::now();
    let outcomes = serve.send_window(&window);
    let wall = t0.elapsed().as_secs_f64();
    let after = serve.stats()?;
    serve.finish();

    let delta = |k| counter(&after, k) - counter(&before, k);
    let mut p = ServeProbe {
        batch_size_mean: delta("batched_requests") / delta("batches").max(1.0),
        pool_hit_ratio: delta("shard_hits")
            / (delta("shard_hits")
                + delta("prep_mem_hits")
                + delta("prep_disk_hits")
                + delta("prep_misses"))
            .max(1.0),
        ..ServeProbe::default()
    };
    let mut busy = 0.0;
    for (r, o) in window.iter().flatten().zip(outcomes.iter().flatten()) {
        match (translate_cell(r), &o.answer) {
            (_, None) => checks.expect(false, || format!("serve probe: {} failed", r.line())),
            (None, Some(a)) => {
                p.sweep_hit_ms.push(o.latency_ms);
                checks.expect(serve.sweep_ok(a), || {
                    "serve probe: the sweep's bytes differ".to_string()
                });
            }
            (Some((spec, cfg)), Some(a)) => {
                let w = snapshot_cache::get_or_prepare(&Scenario::default_linux(), &spec)?.workload;
                let t0 = Instant::now();
                let direct = sim::run(&w, &cfg);
                let sim_ms = ms_since(t0);
                busy += sim_ms / 1e3;
                p.translate_ms.push(o.latency_ms);
                p.overhead_ms.push(o.latency_ms - sim_ms);
                checks.expect(answer_matches(a, &direct), || {
                    format!("serve probe: {} differs from sim::run", r.line())
                });
            }
        }
    }
    p.busy_share = busy / (wall * JOBS as f64);
    Ok(p)
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// Runs the trace pass of `kind` at `seed` under `dir`, writing the spans
/// to `spans_path`.
///
/// # Errors
/// A set-up failure or an I/O error of the replay itself.
pub fn run(kind: Kind, seed: u64, dir: &Path, spans_path: &Path) -> Result<Report, String> {
    let mut w = kind.instance(seed, dir);
    w.fixture()?;
    w.setup()?;
    let mut checks = Checks::default();

    // One untimed iteration at JOBS, as the end-to-end run makes it: the
    // runner's busy share of its workers.
    let busy_share = if kind == Kind::ServeMixed {
        None
    } else {
        let t0 = Instant::now();
        let it = w.iterate()?;
        let wall = t0.elapsed().as_secs_f64();
        checks.attempted += it.attempted;
        checks.failed += it.failed;
        Some(it.op_ms.iter().sum::<f64>() / 1e3 / (wall * JOBS as f64))
    };
    w.finish();

    let plan = plan(kind, seed, w.as_ref(), dir);
    let server = if kind == Kind::ServeMixed {
        let s = serve::start(ServeConfig {
            port: 0,
            jobs: 1,
            quiet: true,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("serve start: {e}"))?;
        Some(s)
    } else {
        None
    };
    let port = server.as_ref().map(|s| s.port);
    // A first, discarded pass pays what only the first pass would: the
    // heap's growth, the page cache of the snapshot files, and the
    // server's pools and sweep cache. The two timed passes then see the
    // same state.
    execute(&plan, false, dir, port)?;
    let untraced = execute(&plan, false, dir, port)?;
    let traced = execute(&plan, true, dir, port)?;
    if let Some(s) = server {
        s.trigger_shutdown();
        s.wait();
    }

    for (i, (a, b)) in untraced.results.iter().zip(&traced.results).enumerate() {
        checks.expect(golden::sim_words(a) == golden::sim_words(b), || {
            format!("replayed cell {i} differs from sim::run")
        });
    }
    checks.expect(
        untraced.results.len() == traced.results.len() && untraced.outputs == traced.outputs,
        || "the traced replay computed different outputs".to_string(),
    );
    for (si, answer) in &traced.answers {
        checks.expect(answer.is_some(), || format!("replayed request {si} failed"));
    }

    // Probe cells: traced for the hot path, untraced for the check.
    let mut hot = traced.hot;
    let (mut sim_ns, mut refs) = (untraced.sim_ns, untraced.refs);
    let mut results = traced.results.clone();
    let mut probe_tracer = Tracer::new(true);
    snapshot_cache::set_enabled(true);
    for c in &plan.probe_cells {
        let (scenario, spec) = &plan.preps[c.prep];
        let w = snapshot_cache::get_or_prepare(scenario, spec)?.workload;
        let (r, h) = replay_cell(&w, &c.cfg, &mut probe_tracer);
        hot.add(&h);
        let t0 = Instant::now();
        let direct = sim::run(&w, &c.cfg);
        sim_ns += t0.elapsed().as_nanos() as u64;
        refs += c.cfg.warmup + c.cfg.accesses;
        checks.expect(golden::sim_words(&r) == golden::sim_words(&direct), || {
            "a traced probe cell differs from sim::run".to_string()
        });
        if let Some(Some(answer)) = c.served.and_then(|si| traced.answers.get(&si)) {
            checks.expect(answer_matches(answer, &direct), || {
                "a served translate differs from sim::run".to_string()
            });
        }
        results.push(r);
    }

    let serve = probe_serve(seed, dir, &plan.preps, &mut checks)?;
    let t0 = Instant::now();
    let (smp_rows, _) = smp::run_mix(&ExperimentOptions {
        accesses: PROBE_SMP_ACCESSES,
        seed,
        jobs: 1,
        cores: CHURN_CORES,
        ..ExperimentOptions::default()
    });
    let smp_s = t0.elapsed().as_secs_f64();
    let (append_ms, write_ms) = probe_durability(dir, results.first())?;
    let preps = probe_preps(&plan.preps, dir, &mut checks)?;

    let attribution = attribute(&traced.spans, traced.wall);
    write_spans(spans_path, kind, seed, &traced, untraced.wall, &attribution)?;
    eprintln!("{}", render_attribution(kind, &attribution, untraced.wall));

    let sum = |f: &dyn Fn(&SimResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let accesses = sum(&|r| r.tlb.accesses);
    let l1_misses = sum(&|r| r.tlb.l1_misses);
    let fills = sum(&|r| r.tlb.fills);
    let walks = sum(&|r| r.walker.walks);
    let median = |v: &[f64]| stats::median_or_inf(v);
    let metrics = vec![
        Metric::timed(
            "os_mem.aging_ms",
            "ms",
            median(&preps.aging_ms),
            Summary::of(&preps.aging_ms),
        ),
        Metric::timed(
            "os_mem.contiguity_scan_ms",
            "ms",
            median(&preps.contiguity_ms),
            Summary::of(&preps.contiguity_ms),
        ),
        Metric::new("os_mem.thp_allocs", "count", preps.kernel[0] as f64),
        Metric::new("os_mem.thp_splits", "count", preps.kernel[1] as f64),
        Metric::new("os_mem.compaction_runs", "count", preps.kernel[2] as f64),
        Metric::new("os_mem.pages_migrated", "count", preps.kernel[3] as f64),
        Metric::timed(
            "workloads.prepare_ms_p50",
            "ms",
            median(&preps.prepare_ms),
            Summary::of(&preps.prepare_ms),
        ),
        Metric::new(
            "workloads.pattern_ns_per_ref",
            "ns",
            hot.per(PATTERN, hot.count[PATTERN]),
        ),
        Metric::timed(
            "snapshot_cache.load_ms",
            "ms",
            median(&preps.load_ms),
            Summary::of(&preps.load_ms),
        ),
        Metric::timed(
            "snapshot_cache.encode_ms",
            "ms",
            median(&preps.encode_ms),
            Summary::of(&preps.encode_ms),
        ),
        Metric::timed(
            "snapshot_cache.decode_ms",
            "ms",
            median(&preps.decode_ms),
            Summary::of(&preps.decode_ms),
        ),
        Metric::new("snapshot_cache.bytes", "B", median(&preps.bytes)),
        Metric::new("tlb.lookup_ns_per_ref", "ns", hot.per(LOOKUP, hot.refs)),
        Metric::new("tlb.fill_ns", "ns", hot.per(FILL, hot.count[FILL])),
        Metric::new("tlb.flush_us", "us", hot.per(FLUSH, hot.count[FLUSH]) / 1e3),
        Metric::new(
            "tlb.l1_hit_ratio",
            "ratio",
            sum(&|r| r.tlb.l1_hits) / accesses.max(1.0),
        ),
        Metric::new(
            "tlb.l2_hit_ratio",
            "ratio",
            sum(&|r| r.tlb.l2_hits) / l1_misses.max(1.0),
        ),
        Metric::new(
            "tlb.walks_per_kref",
            "walks/kref",
            sum(&|r| r.tlb.l2_misses) * 1e3 / accesses.max(1.0),
        ),
        Metric::new(
            "tlb.coalesced_fill_share",
            "ratio",
            sum(&|r| r.tlb.coalesce_hist[1..].iter().sum()) / fills.max(1.0),
        ),
        Metric::new("memsim.walk_ns", "ns", hot.per(WALK, hot.count[WALK])),
        Metric::new("memsim.data_ns_per_ref", "ns", hot.per(DATA, hot.refs)),
        Metric::new(
            "memsim.mem_refs_per_walk",
            "refs/walk",
            hot.walk_mem_refs as f64 / (hot.count[WALK].max(1)) as f64,
        ),
        Metric::new(
            "memsim.walk_cycles_per_walk",
            "cycles/walk",
            sum(&|r| r.walker.total_latency) / walks.max(1.0),
        ),
        Metric::new(
            "sim.refs_per_s_1core",
            "refs/s",
            refs as f64 / (sim_ns as f64 / 1e9),
        ),
        Metric::new(
            "runner.busy_share",
            "ratio",
            busy_share.unwrap_or(serve.busy_share),
        ),
        Metric::new("journal.append_ms", "ms", append_ms),
        Metric::new("artifact.write_ms", "ms", write_ms),
        Metric::new("smp.run_mix_s", "s", smp_s),
        Metric::new(
            "smp.ipis_sent",
            "count",
            smp_rows.iter().map(|r| r.ipis_sent).sum::<u64>() as f64,
        ),
        Metric::new("serve.translate_ms_p50", "ms", median(&serve.translate_ms)),
        Metric::new("serve.sweep_hit_ms_p50", "ms", median(&serve.sweep_hit_ms)),
        Metric::new("serve.overhead_ms_p50", "ms", median(&serve.overhead_ms)),
        Metric::new("serve.batch_size_mean", "requests", serve.batch_size_mean),
        Metric::new("serve.pool_hit_ratio", "ratio", serve.pool_hit_ratio),
        Metric::new(
            "trace.unattributed_ms",
            "ms",
            attribution.unattributed as f64 / 1e6,
        ),
        Metric::new(
            "trace.overhead_ratio",
            "ratio",
            traced.wall as f64 / untraced.wall.max(1) as f64,
        ),
    ];
    Ok(Report {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    })
}

/// Times journal appends (each fsynced) and atomic result-file writes.
fn probe_durability(dir: &Path, sample: Option<&SimResult>) -> Result<(f64, f64), String> {
    let payload = sample.map_or_else(String::new, JournalPayload::encode);
    let journal = Journal::open(
        &dir.join("probe-journal"),
        "probe",
        "probe".to_string(),
        false,
    )
    .map_err(|e| format!("journal: {e}"))?;
    let mut append = Vec::with_capacity(PROBE_APPENDS);
    for i in 0..PROBE_APPENDS {
        let t0 = Instant::now();
        journal
            .append(&format!("probe/{i}"), "ok", 1, "", &payload, 0, 0.0, 0.0)
            .map_err(|e| format!("journal append: {e}"))?;
        append.push(ms_since(t0));
    }
    let json = format!("{{\"probe\": \"{}\"}}", "x".repeat(4096));
    let path = dir.join("probe-results").join("BENCH_probe.json");
    std::fs::create_dir_all(path.parent().expect("has a parent")).map_err(|e| e.to_string())?;
    let mut write = Vec::with_capacity(PROBE_WRITES);
    for _ in 0..PROBE_WRITES {
        let t0 = Instant::now();
        artifact::atomic_write_json(&path, &json).map_err(|e| format!("artifact: {e}"))?;
        write.push(ms_since(t0));
    }
    Ok((stats::median_or_inf(&append), stats::median_or_inf(&write)))
}

fn render_attribution(kind: Kind, a: &Attribution, untraced_wall: u64) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = format!(
        "{} traced replay at 1 job: where the wall time went\n",
        kind.name()
    );
    for (layer, ns) in &a.layers {
        out.push_str(&format!(
            "  {layer:<16} {:>12.3} ms  {:>5.1}%\n",
            ms(*ns),
            100.0 * *ns as f64 / a.wall.max(1) as f64
        ));
    }
    out.push_str(&format!(
        "  {:<16} {:>12.3} ms\n",
        "unattributed",
        ms(a.unattributed)
    ));
    out.push_str(&format!(
        "  {:<16} {:>12.3} ms (untraced: {:.3} ms, overhead {:+.3} ms)\n",
        "total",
        ms(a.wall),
        ms(untraced_wall),
        ms(a.wall) - ms(untraced_wall)
    ));
    out
}

fn write_spans(
    path: &Path,
    kind: Kind,
    seed: u64,
    pass: &Pass,
    untraced_wall: u64,
    a: &Attribution,
) -> Result<(), String> {
    let layers: Vec<String> = a
        .layers
        .iter()
        .map(|(l, ns)| format!("\"{l}\": {ns}"))
        .collect();
    let spans: Vec<String> = pass
        .spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"cell\": {}, \"count\": {}}}",
                s.name, s.start, s.end, s.cell, s.count
            )
        })
        .collect();
    let json = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"wall_ns\": {}, \"untraced_wall_ns\": {untraced_wall}, \
         \"unattributed_ns\": {}, \"layers_self_ns\": {{{}}}, \"spans\": [\n{}\n]}}\n",
        kind.name(),
        a.wall,
        a.unattributed,
        layers.join(", "),
        spans.join(",\n")
    );
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_tlb::config::TlbConfig;
    use colt_workloads::spec::benchmark;

    #[test]
    fn traced_replay_equals_sim_run() {
        let gobmk = Scenario::default_linux()
            .prepare(&benchmark("Gobmk").expect("Gobmk"))
            .expect("prepares");
        let base = |tlb| fig18_cell(tlb, 20_000, 0x5EED);
        let mut configs: Vec<SimConfig> =
            colt_core::experiments::miss_elimination::figure18_configs()
                .map(base)
                .to_vec();
        configs.push(base(TlbConfig::colt_all()).virtualized());
        configs.push(base(TlbConfig::colt_all()).with_context_switches(2_000));
        configs.push(base(TlbConfig::colt_sa()).with_invalidations(64));
        for cfg in configs {
            let mut t = Tracer::new(true);
            let (traced, hot) = replay_cell(&gobmk, &cfg, &mut t);
            let direct = sim::run(&gobmk, &cfg);
            assert_eq!(
                golden::sim_words(&traced),
                golden::sim_words(&direct),
                "{cfg:?}"
            );
            assert_eq!(hot.refs, 22_000);
            assert_eq!(hot.count[WALK], hot.count[FILL], "one fill per demand walk");
            let a = attribute(&t.spans, t.now());
            let total: u64 = a.layers.values().sum::<u64>() + a.unattributed;
            assert_eq!(total, a.wall, "layers plus unattributed add up to the wall");
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            cell: 0,
            count: 1,
        };
        let spans = vec![
            span("sim.cell", 10, 110, None),
            span("tlb.lookup", 10, 40, Some(0)),
            span("memsim.walk", 10, 30, Some(0)),
            span("journal.append", 120, 150, None),
        ];
        let a = attribute(&spans, 200);
        assert_eq!(a.layers["sim"], 50);
        assert_eq!(a.layers["tlb"], 30);
        assert_eq!(a.layers["memsim"], 20);
        assert_eq!(a.layers["journal"], 30);
        assert_eq!(a.unattributed, 70);
    }
}
