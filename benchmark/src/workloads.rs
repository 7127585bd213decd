//! The four workloads: how each sets up, what one timed iteration does,
//! and how its outputs are checked. Each calls the repository's public
//! functions exactly as `repro` does; nothing here changes program code.

use crate::golden::{self, Digests};
use crate::mix::{self, Conn, Request, SplitMix64};
use colt_core::artifact;
use colt_core::experiments::{
    context_switch, miss_elimination, smp, virtualization, ExperimentOptions, ExperimentOutput,
};
use colt_core::journal::Journal;
use colt_core::runner::{self, CellMetric, CellOutcome, SweepCell};
use colt_core::serve::json::Json;
use colt_core::serve::{self, ServeConfig, ServerHandle};
use colt_core::sim::{self, SimConfig, SimResult};
use colt_core::snapshot_cache;
use colt_core::PerfModel;
use colt_os_mem::policy::PolicyKind;
use colt_tlb::config::TlbConfig;
use colt_tlb::stats::pct_misses_eliminated;
use colt_workloads::scenario::Scenario;
use colt_workloads::spec::{all_benchmarks, benchmark, BenchmarkSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads for every sweep and for the server — fixed, not read
/// from the machine, so runs on different boxes do the same work.
pub const JOBS: usize = 2;
/// fig18_warm: accesses per cell. A quarter of the paper-size default
/// keeps an iteration near half a second, so a run times dozens of
/// iterations and a short slow spell of the host does not move their
/// median (see the README's "Measured spread").
pub const FIG18_ACCESSES: u64 = 100_000;
/// churn_virt: accesses per cell — the smallest budget at which the
/// longest (50k) flush period still fires.
pub const CHURN_ACCESSES: u64 = 50_000;
/// churn_virt: simulated cores of the SMP leg.
pub const CHURN_CORES: usize = 2;
/// prep_cold: benchmarks prepared under each of the twelve scenarios —
/// the smallest and the largest footprint.
pub const PREP_BENCHES: [&str; 2] = ["Gobmk", "Mcf"];
/// serve_mixed: every n-th translate is recomputed in-process and
/// compared field by field.
pub const SERVE_CHECK_EVERY: u64 = 100;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Fig18Warm,
    PrepCold,
    ChurnVirt,
    ServeMixed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Fig18Warm,
        Kind::PrepCold,
        Kind::ChurnVirt,
        Kind::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig18Warm => "fig18_warm",
            Kind::PrepCold => "prep_cold",
            Kind::ChurnVirt => "churn_virt",
            Kind::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The seed the golden digests were recorded at: `repro`'s default
    /// pattern seed, and for `prep_cold` the default scenario seed (so
    /// its cells equal `repro grid`'s).
    pub fn default_seed(self) -> u64 {
        match self {
            Kind::PrepCold => 0xC011_7E57,
            _ => 0x5EED,
        }
    }

    /// Builds the workload for `seed`, working under `dir`.
    pub fn instance(self, seed: u64, dir: &Path) -> Box<dyn Workload> {
        let dir = dir.to_path_buf();
        match self {
            Kind::Fig18Warm => Box::new(Fig18Warm {
                seed,
                dir,
                rows: Vec::new(),
            }),
            Kind::PrepCold => Box::new(PrepCold {
                seed,
                values: Vec::new(),
            }),
            Kind::ChurnVirt => Box::new(ChurnVirt {
                seed,
                dir,
                ctx: Vec::new(),
                virt: Vec::new(),
            }),
            Kind::ServeMixed => Box::new(ServeMixed::new(seed, dir, benchmark_names())),
        }
    }
}

/// What one timed iteration produced.
pub struct Iteration {
    /// Latency of each operation (a sweep cell, a preparation, or a
    /// request) in ms; `+∞` for one that failed.
    pub op_ms: Vec<f64>,
    /// Operations and inline output checks attempted.
    pub attempted: u64,
    /// Operations that failed plus inline checks that did not match.
    pub failed: u64,
    /// Digests of the deterministic outputs (`None` when every iteration
    /// draws new inputs, as a traffic mix does).
    pub digests: Option<Digests>,
}

/// Output checks made after timing.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// One workload of the benchmark.
pub trait Workload {
    /// Untimed fixtures the set-up relies on (serve_mixed's disk
    /// snapshots); runs once, before the timed set-ups.
    fn fixture(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// One set-up from a cold start; the last set-up's state serves the
    /// iterations.
    fn setup(&mut self) -> Result<(), String>;
    /// One timed iteration.
    fn iterate(&mut self) -> Result<Iteration, String>;
    /// Recomputes a sample of the last iteration's outputs through a
    /// second path (a direct `sim::run` or `Scenario::prepare`).
    fn check(&mut self, checks: &mut Checks);
    /// The preparations the workload's cells run against.
    fn preps(&self) -> Vec<(Scenario, BenchmarkSpec)>;
    /// Stops anything the workload started (the server).
    fn finish(&mut self) {}
}

fn spec(name: &str) -> BenchmarkSpec {
    benchmark(name).expect("a Table-1 benchmark")
}

fn default_preps() -> Vec<(Scenario, BenchmarkSpec)> {
    all_benchmarks()
        .into_iter()
        .map(|s| (Scenario::default_linux(), s))
        .collect()
}

fn failed_labels<R>(outcomes: &[CellOutcome<R>]) -> Vec<String> {
    outcomes
        .iter()
        .filter_map(|o| match o {
            CellOutcome::Ok(_) => None,
            CellOutcome::Failed { label, payload } => Some(format!("{label}: {payload}")),
            CellOutcome::Quarantined { label, reason, .. } => Some(format!("{label}: {reason}")),
        })
        .collect()
}

/// Points the snapshot cache's disk layer at `snapshots` (emptied) and
/// prepares `preps` cold at [`JOBS`] through the runner, storing a
/// snapshot of each.
fn cold_prepare(preps: &[(Scenario, BenchmarkSpec)], snapshots: &Path) -> Result<(), String> {
    snapshot_cache::set_enabled(true);
    snapshot_cache::set_disk_persistence(true);
    let _ = std::fs::remove_dir_all(snapshots);
    snapshot_cache::set_dir_override(Some(snapshots.to_path_buf()));
    snapshot_cache::clear_memory();
    let cells = preps
        .iter()
        .map(|(scenario, spec)| {
            SweepCell::new(format!("setup/{}", spec.name), scenario, spec, 0, |_| ())
        })
        .collect();
    let outcomes = runner::run_cells_outcomes(cells, JOBS);
    let _ = runner::take_metrics();
    let failed = failed_labels(&outcomes);
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("set-up preparation failed: {}", failed.join("; ")))
    }
}

/// Runs one experiment the way `repro <exp>` does after start-up: a
/// fresh journal, the experiment itself, the rendered tables, and the
/// `BENCH_sweep`-style result file written atomically.
fn run_like_repro<T>(
    dir: &Path,
    exp: &str,
    opts: &ExperimentOptions,
    experiment: impl FnOnce(&ExperimentOptions) -> (T, ExperimentOutput),
) -> Result<(T, Vec<CellMetric>), String> {
    let mut opts = opts.clone();
    let journal = Journal::open(&dir.join("journal"), exp, opts.fingerprint(exp), false)
        .map_err(|e| format!("journal for {exp}: {e}"))?;
    opts.journal = Some(Arc::new(journal));
    let _ = runner::take_metrics();
    let _ = snapshot_cache::take_stats();
    let start = Instant::now();
    let (rows, output) = experiment(&opts);
    std::hint::black_box(output.render());
    let wall = start.elapsed().as_secs_f64();
    let metrics = runner::take_metrics();
    let cache = snapshot_cache::take_stats();
    write_result(
        dir,
        exp,
        &artifact::sweep_json(&metrics, opts.jobs, wall, &cache),
    )?;
    Ok((rows, metrics))
}

fn write_result(dir: &Path, name: &str, json: &str) -> Result<(), String> {
    let results = dir.join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    artifact::atomic_write_json(&results.join(format!("BENCH_{name}.json")), json)
        .map(|_| ())
        .map_err(|e| format!("result file for {name}: {e}"))
}

/// Per-cell latency as the runner measured it: preparation (a snapshot
/// load for the first cell of each benchmark) plus the job.
fn cell_ms(metrics: &[CellMetric]) -> Vec<f64> {
    metrics
        .iter()
        .map(|m| (m.prep_seconds + m.sim_seconds) * 1e3)
        .collect()
}

fn bits(values: &[f64]) -> u64 {
    golden::fnv(values.iter().map(|v| v.to_bits()))
}

// ---------------------------------------------------------------------
// fig18_warm
// ---------------------------------------------------------------------

/// The paper's headline experiment, rerun warm: preparation is paid in
/// set-up, so each iteration loads snapshots from disk and spends its
/// time in the TLB lookup/fill and page-walk hot path.
struct Fig18Warm {
    seed: u64,
    dir: PathBuf,
    rows: Vec<miss_elimination::EliminationRow>,
}

impl Fig18Warm {
    fn opts(&self) -> ExperimentOptions {
        ExperimentOptions {
            accesses: FIG18_ACCESSES,
            seed: self.seed,
            jobs: JOBS,
            ..ExperimentOptions::default()
        }
    }
}

/// The Figure-18 cell config for `tlb` (as `miss_elimination::run`
/// builds it).
pub fn fig18_cell(tlb: TlbConfig, accesses: u64, seed: u64) -> SimConfig {
    SimConfig {
        pattern_seed: seed,
        ..SimConfig::new(tlb).with_accesses(accesses)
    }
}

impl Workload for Fig18Warm {
    fn setup(&mut self) -> Result<(), String> {
        cold_prepare(&self.preps(), &self.dir.join("snapshots"))
    }

    fn iterate(&mut self) -> Result<Iteration, String> {
        snapshot_cache::clear_memory();
        let (rows, metrics) =
            run_like_repro(&self.dir, "fig18", &self.opts(), miss_elimination::run)?;
        let digests = rows
            .iter()
            .map(|r| {
                (
                    format!("fig18/{}", r.name),
                    golden::fnv(r.results.iter().flat_map(golden::sim_words)),
                )
            })
            .collect();
        self.rows = rows;
        Ok(Iteration {
            attempted: metrics.len() as u64,
            op_ms: cell_ms(&metrics),
            failed: 0,
            digests: Some(digests),
        })
    }

    fn check(&mut self, checks: &mut Checks) {
        let Some(row) = self
            .rows
            .get((self.seed % self.rows.len().max(1) as u64) as usize)
        else {
            return checks.expect(false, || "no fig18 rows to check".to_string());
        };
        let w = match snapshot_cache::get_or_prepare(&Scenario::default_linux(), &spec(row.name)) {
            Ok(p) => p.workload,
            Err(e) => return checks.expect(false, || e),
        };
        for (tlb, got) in miss_elimination::figure18_configs()
            .into_iter()
            .zip(&row.results)
        {
            let direct = sim::run(&w, &fig18_cell(tlb, FIG18_ACCESSES, self.seed));
            checks.expect(golden::sim_words(&direct) == golden::sim_words(got), || {
                format!(
                    "fig18/{}/{:?}: sweep result differs from a direct sim::run",
                    row.name, tlb.mode
                )
            });
        }
        let avg = self.rows.iter().map(|r| r.l2_elim(3)).sum::<f64>() / self.rows.len() as f64;
        eprintln!(
            "fig18: CoLT-All eliminates {avg:.1}% of baseline L2 TLB misses (paper: about 55%)"
        );
    }

    fn preps(&self) -> Vec<(Scenario, BenchmarkSpec)> {
        default_preps()
    }
}

// ---------------------------------------------------------------------
// prep_cold
// ---------------------------------------------------------------------

/// Cold kernel preparation with no TLB replay: boot, aging, memhog,
/// compaction and THP for each of the twelve §5.1.1 scenarios, then a
/// contiguity scan (the `repro grid` cell).
struct PrepCold {
    seed: u64,
    values: Vec<f64>,
}

impl PrepCold {
    fn grid(&self) -> Vec<(Scenario, BenchmarkSpec)> {
        Scenario::all_twelve()
            .into_iter()
            .flat_map(|s| {
                let s = s.with_seed(self.seed);
                PREP_BENCHES.iter().map(move |b| (s.clone(), spec(b)))
            })
            .collect()
    }

    fn run(cells: &[(Scenario, BenchmarkSpec)]) -> Vec<CellOutcome<f64>> {
        let cells = cells
            .iter()
            .enumerate()
            .map(|(i, (scenario, spec))| {
                SweepCell::new(
                    format!("prep/s{:02}/{}", i / PREP_BENCHES.len(), spec.name),
                    scenario,
                    spec,
                    0,
                    |w| w.contiguity().average_contiguity(),
                )
            })
            .collect();
        runner::run_cells_outcomes(cells, JOBS)
    }
}

impl Workload for PrepCold {
    /// A warm-up pass over the first scenario's preparations: the
    /// process's first preparations pay its page faults and allocator
    /// growth, which every later preparation reuses.
    fn setup(&mut self) -> Result<(), String> {
        // No preparation may be served from a cache: every cell boots.
        snapshot_cache::set_enabled(false);
        let outcomes = Self::run(&self.grid()[..PREP_BENCHES.len()]);
        let _ = runner::take_metrics();
        let failed = failed_labels(&outcomes);
        if failed.is_empty() {
            Ok(())
        } else {
            Err(failed.join("; "))
        }
    }

    fn iterate(&mut self) -> Result<Iteration, String> {
        let _ = runner::take_metrics();
        let outcomes = Self::run(&self.grid());
        let metrics = runner::take_metrics();
        let failed = failed_labels(&outcomes);
        for f in &failed {
            eprintln!("prep_cold cell failed: {f}");
        }
        self.values = outcomes
            .into_iter()
            .map(|o| o.ok().unwrap_or(f64::NAN))
            .collect();
        let digests = self
            .values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                (
                    format!(
                        "prep/s{:02}/{}",
                        i / PREP_BENCHES.len(),
                        PREP_BENCHES[i % PREP_BENCHES.len()]
                    ),
                    v.to_bits(),
                )
            })
            .collect();
        Ok(Iteration {
            attempted: self.values.len() as u64,
            failed: failed.len() as u64,
            op_ms: cell_ms(&metrics),
            digests: Some(digests),
        })
    }

    fn check(&mut self, checks: &mut Checks) {
        let grid = self.grid();
        let i = (self.seed % grid.len() as u64) as usize;
        let (scenario, spec) = &grid[i];
        let direct = scenario
            .prepare(spec)
            .map(|w| w.contiguity().average_contiguity());
        let ok = match (direct, self.values.get(i)) {
            (Ok(v), Some(got)) => v.to_bits() == got.to_bits(),
            _ => false,
        };
        checks.expect(ok, || {
            format!("prep cell {i}: sweep contiguity differs from a direct Scenario::prepare")
        });
    }

    fn preps(&self) -> Vec<(Scenario, BenchmarkSpec)> {
        self.grid()
    }
}

// ---------------------------------------------------------------------
// churn_virt
// ---------------------------------------------------------------------

/// The same tlb/memsim layers used differently: periodic full flushes,
/// two-dimensional nested walks, and ASID-tagged SMP hierarchies.
struct ChurnVirt {
    seed: u64,
    dir: PathBuf,
    ctx: Vec<context_switch::ContextSwitchRow>,
    virt: Vec<virtualization::VirtRow>,
}

impl ChurnVirt {
    fn opts(&self) -> ExperimentOptions {
        ExperimentOptions {
            accesses: CHURN_ACCESSES,
            seed: self.seed,
            jobs: JOBS,
            cores: CHURN_CORES,
            ..ExperimentOptions::default()
        }
    }
}

/// The cells `context_switch::run` simulates for one benchmark, in its
/// order: each flush period × {baseline, CoLT-All}.
pub fn ctxswitch_cells(accesses: u64, seed: u64) -> Vec<SimConfig> {
    context_switch::PERIODS
        .iter()
        .flat_map(|&period| {
            [TlbConfig::baseline(), TlbConfig::colt_all()].map(|tlb| SimConfig {
                flush_period: period,
                ..fig18_cell(tlb, accesses, seed)
            })
        })
        .collect()
}

/// The cells `virtualization::run` simulates for one benchmark:
/// {native, nested} × {baseline, CoLT-All}.
pub fn virt_cells(accesses: u64, seed: u64) -> Vec<SimConfig> {
    [false, true]
        .into_iter()
        .flat_map(|nested| {
            [TlbConfig::baseline(), TlbConfig::colt_all()].map(|tlb| {
                let cfg = fig18_cell(tlb, accesses, seed);
                if nested {
                    cfg.virtualized()
                } else {
                    cfg
                }
            })
        })
        .collect()
}

impl Workload for ChurnVirt {
    fn setup(&mut self) -> Result<(), String> {
        cold_prepare(&self.preps(), &self.dir.join("snapshots"))
    }

    fn iterate(&mut self) -> Result<Iteration, String> {
        snapshot_cache::clear_memory();
        let opts = self.opts();
        let (ctx, mut metrics) =
            run_like_repro(&self.dir, "ctxswitch", &opts, context_switch::run)?;
        let (virt, m) = run_like_repro(&self.dir, "virt", &opts, virtualization::run)?;
        metrics.extend(m);
        let (smp_rows, m) = run_like_repro(&self.dir, "smp_mix", &opts, smp::run_mix)?;
        metrics.extend(m);
        write_result(
            &self.dir,
            "smp",
            &artifact::smp_json(&smp_rows, CHURN_CORES),
        )?;

        let mut digests: Digests = ctx
            .iter()
            .map(|r| (format!("ctxswitch/{}", r.name), bits(&r.elim)))
            .collect();
        digests.extend(virt.iter().map(|r| {
            let v = [r.native_perfect, r.native_colt, r.virt_perfect, r.virt_colt];
            (format!("virt/{}", r.name), bits(&v))
        }));
        digests.extend(smp_rows.iter().map(|r| {
            let words = [
                r.cores as u64,
                r.accesses,
                r.l1_misses,
                r.walks,
                r.full_flushes,
                r.flushes_avoided,
                r.ipis_sent,
                r.ipis_received,
                r.remote_invalidations,
                r.ipi_cycles,
            ];
            (format!("smp/{}/{}", r.mix, r.mode), golden::fnv(words))
        }));
        self.ctx = ctx;
        self.virt = virt;
        Ok(Iteration {
            attempted: metrics.len() as u64,
            op_ms: cell_ms(&metrics),
            failed: 0,
            digests: Some(digests),
        })
    }

    fn check(&mut self, checks: &mut Checks) {
        let n = self.ctx.len().min(self.virt.len());
        if n == 0 {
            return checks.expect(false, || "no churn rows to check".to_string());
        }
        let i = (self.seed % n as u64) as usize;
        let name = self.ctx[i].name;
        let w = match snapshot_cache::get_or_prepare(&Scenario::default_linux(), &spec(name)) {
            Ok(p) => p.workload,
            Err(e) => return checks.expect(false, || e),
        };
        let run = |cfgs: Vec<SimConfig>| -> Vec<SimResult> {
            cfgs.iter().map(|c| sim::run(&w, c)).collect()
        };
        let ctx = run(ctxswitch_cells(CHURN_ACCESSES, self.seed));
        let elim: Vec<f64> = ctx
            .chunks_exact(2)
            .map(|p| pct_misses_eliminated(p[0].tlb.l2_misses, p[1].tlb.l2_misses))
            .collect();
        checks.expect(bits(&elim) == bits(&self.ctx[i].elim), || {
            format!("ctxswitch/{name}: sweep rows differ from direct sim::run cells")
        });
        let v = run(virt_cells(CHURN_ACCESSES, self.seed));
        let model = PerfModel::default();
        let direct = [
            model.perfect_improvement_pct(&v[0]),
            model.improvement_pct(&v[0], &v[1]),
            model.perfect_improvement_pct(&v[2]),
            model.improvement_pct(&v[2], &v[3]),
        ];
        let row = &self.virt[i];
        let got = [
            row.native_perfect,
            row.native_colt,
            row.virt_perfect,
            row.virt_colt,
        ];
        checks.expect(bits(&direct) == bits(&got), || {
            format!("virt/{name}: sweep rows differ from direct sim::run cells")
        });
    }

    fn preps(&self) -> Vec<(Scenario, BenchmarkSpec)> {
        default_preps()
    }
}

// ---------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------

/// The resident server under the serving load the repository documents
/// (see [`mix`]): admission, the batching dispatcher, the
/// prepared-instance pools and the sweep LRU.
pub struct ServeMixed {
    dir: PathBuf,
    benchmarks: Vec<&'static str>,
    rng: SplitMix64,
    server: Option<ServerHandle>,
    conns: Vec<Conn>,
    expected_sweep: Option<String>,
    translates: u64,
    /// Sampled translates and their answers, recomputed in `check`.
    samples: Vec<(Request, Json)>,
}

/// The fourteen Table-1 benchmarks, by name.
pub fn benchmark_names() -> Vec<&'static str> {
    all_benchmarks().iter().map(|s| s.name).collect()
}

fn tlb_named(name: &str) -> TlbConfig {
    match name {
        "baseline" => TlbConfig::baseline(),
        "colt_sa" => TlbConfig::colt_sa(),
        "colt_fa" => TlbConfig::colt_fa(),
        _ => TlbConfig::colt_all(),
    }
}

/// The in-process cell a translate request asks the server for, under
/// the server's default scenario.
pub fn translate_cell(r: &Request) -> Option<(BenchmarkSpec, SimConfig)> {
    match r {
        Request::Translate {
            benchmark,
            config,
            seed,
        } => Some((
            spec(benchmark),
            fig18_cell(tlb_named(config), mix::TRANSLATE_ACCESSES, *seed),
        )),
        Request::Sweep => None,
    }
}

/// Whether a translate answer carries exactly `r`'s counters.
pub fn answer_matches(answer: &Json, r: &SimResult) -> bool {
    let field = |k: &str| answer.get(k).and_then(Json::as_u64);
    field("accesses") == Some(r.tlb.accesses)
        && field("l1_misses") == Some(r.tlb.l1_misses)
        && field("l2_misses") == Some(r.tlb.l2_misses)
        && field("walks") == Some(r.walker.walks)
        && field("walk_cycles") == Some(r.walk_cycles)
        && field("superpage_fills") == Some(r.tlb.superpage_fills)
}

/// The bytes the mix's sweep must carry: a direct `serve::sweep_csv` of
/// the same options.
fn expected_sweep() -> Result<String, String> {
    let opts = serve::sweep_options(
        Some(mix::SWEEP_ACCESSES),
        Some(mix::SWEEP_BENCH),
        None,
        PolicyKind::Default,
        1,
        ServeConfig::default().max_accesses,
    );
    serve::sweep_csv("fig18", &opts)
}

impl ServeMixed {
    /// The mix over `benchmarks` (all fourteen for serve_mixed itself).
    pub fn new(seed: u64, dir: PathBuf, benchmarks: Vec<&'static str>) -> Self {
        ServeMixed {
            dir,
            benchmarks,
            rng: SplitMix64::new(seed),
            server: None,
            conns: Vec::new(),
            expected_sweep: None,
            translates: 0,
            samples: Vec::new(),
        }
    }

    /// The next window of the mix, one request list per connection.
    pub fn draw_window(&mut self) -> Vec<Vec<Request>> {
        mix::window(&mut self.rng, &self.benchmarks)
    }

    /// Starts a server and opens the client connections.
    pub fn start_server(&mut self) -> Result<(), String> {
        self.stop_server();
        let cfg = ServeConfig {
            port: 0,
            jobs: JOBS,
            quiet: true,
            ..ServeConfig::default()
        };
        let server = serve::start(cfg).map_err(|e| format!("serve start: {e}"))?;
        let port = server.port;
        self.server = Some(server);
        for _ in 0..mix::CONNECTIONS {
            self.conns
                .push(Conn::open(port).map_err(|e| format!("connect: {e}"))?);
        }
        Ok(())
    }

    /// Computes the bytes every sweep of the mix must answer.
    pub fn load_expected_sweep(&mut self) -> Result<(), String> {
        self.expected_sweep = Some(expected_sweep()?);
        let _ = runner::take_metrics();
        Ok(())
    }

    fn stop_server(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.trigger_shutdown();
            let summary = server.wait();
            if !summary.drained_clean {
                eprintln!("serve_mixed: server drain timed out");
            }
        }
    }

    /// Whether a sweep answer carries the expected bytes.
    pub fn sweep_ok(&self, answer: &Json) -> bool {
        self.expected_sweep.is_some()
            && answer.get("bytes").and_then(Json::as_str) == self.expected_sweep.as_deref()
    }

    /// Sends each connection its request list of `window`, all
    /// connections at once, and returns each one's outcomes in order.
    pub fn send_window(&mut self, window: &[Vec<Request>]) -> Vec<Vec<mix::Outcome>> {
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(window)
                .map(|(conn, requests)| s.spawn(move || mix::closed_loop(conn, requests)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        })
    }

    /// Asks the server for its counters.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.conns
            .first_mut()
            .ok_or("no connection")?
            .call("{\"op\":\"stats\"}")
    }
}

impl Workload for ServeMixed {
    /// Cold-builds the preparations the mix touches into a disk snapshot
    /// directory, and computes the expected bytes of the sweep.
    fn fixture(&mut self) -> Result<(), String> {
        cold_prepare(&self.preps(), &self.dir.join("snapshots"))?;
        self.load_expected_sweep()
    }

    /// Server start plus the first touch of every pool (each preparation
    /// decoded from the fixture's snapshots) and of the sweep.
    fn setup(&mut self) -> Result<(), String> {
        self.stop_server();
        snapshot_cache::clear_memory();
        self.start_server()?;
        let mut touch = vec![Vec::new(); mix::CONNECTIONS];
        for (i, &benchmark) in self.benchmarks.iter().enumerate() {
            touch[i % mix::CONNECTIONS].push(Request::Translate {
                benchmark,
                config: "colt_all",
                seed: 1,
            });
        }
        touch[0].push(Request::Sweep);
        let outcomes = self.send_window(&touch);
        for (r, o) in touch.iter().flatten().zip(outcomes.iter().flatten()) {
            let ok = match (r, &o.answer) {
                (Request::Sweep, Some(a)) => self.sweep_ok(a),
                (_, answer) => answer.is_some(),
            };
            if !ok {
                return Err(format!("set-up request failed: {}", r.line()));
            }
        }
        Ok(())
    }

    fn iterate(&mut self) -> Result<Iteration, String> {
        let window = self.draw_window();
        let outcomes = self.send_window(&window);
        let mut failed = 0;
        for (r, o) in window.iter().flatten().zip(outcomes.iter().flatten()) {
            match (r, &o.answer) {
                (_, None) => failed += 1,
                (Request::Sweep, Some(a)) => {
                    if !self.sweep_ok(a) {
                        eprintln!("serve_mixed: the sweep answered different bytes");
                        failed += 1;
                    }
                }
                (Request::Translate { .. }, Some(a)) => {
                    if self.translates.is_multiple_of(SERVE_CHECK_EVERY) {
                        self.samples.push((r.clone(), a.clone()));
                    }
                    self.translates += 1;
                }
            }
        }
        let op_ms: Vec<f64> = outcomes.iter().flatten().map(|o| o.latency_ms).collect();
        Ok(Iteration {
            attempted: op_ms.len() as u64,
            failed,
            op_ms,
            digests: None,
        })
    }

    fn check(&mut self, checks: &mut Checks) {
        for (r, answer) in std::mem::take(&mut self.samples) {
            let (spec, cfg) = translate_cell(&r).expect("samples are translates");
            let direct = snapshot_cache::get_or_prepare(&Scenario::default_linux(), &spec)
                .map(|p| sim::run(&p.workload, &cfg));
            checks.expect(
                matches!(&direct, Ok(d) if answer_matches(&answer, d)),
                || format!("served {} differs from a direct sim::run", r.line()),
            );
        }
    }

    fn preps(&self) -> Vec<(Scenario, BenchmarkSpec)> {
        self.benchmarks
            .iter()
            .map(|b| (Scenario::default_linux(), spec(b)))
            .collect()
    }

    fn finish(&mut self) {
        self.stop_server();
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        self.stop_server();
    }
}
