//! The untraced run that yields the end-to-end metrics: set up several
//! times, iterate for the run's seconds, check the outputs.

use crate::golden;
use crate::heap;
use crate::report::{Metric, Report};
use crate::stats::{self, Summary};
use crate::workloads::{Checks, Kind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Iterations every run makes, however long they take.
const MIN_ITERATIONS: usize = 3;
/// Operations every run records, so `latency_ms_p90` has ten samples
/// beyond it.
const MIN_OPS: usize = 100;

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Runs `kind` at `seed` for about `seconds` of iterations under `dir`.
///
/// # Errors
/// A set-up failure: nothing could be measured.
pub fn run(kind: Kind, seed: u64, seconds: f64, dir: &Path) -> Result<Report, String> {
    let mut w = kind.instance(seed, dir);
    w.fixture()?;
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t = Instant::now();
        w.setup()?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut report = Report::default();
    let mut walls = Vec::new();
    let mut ops = Vec::new();
    let mut first = None;
    let mut last = None;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| w.iterate()))
            .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(p.as_ref()))));
        let wall = t.elapsed().as_secs_f64();
        let it = match outcome {
            Ok(it) => it,
            Err(e) => {
                eprintln!("{}: iteration failed: {e}", kind.name());
                report.attempted += 1;
                report.failed += 1;
                break;
            }
        };
        walls.push(wall);
        ops.extend(it.op_ms);
        report.attempted += it.attempted;
        report.failed += it.failed;
        if let Some(d) = it.digests {
            // Every iteration recomputes the same outputs: they must agree.
            match &first {
                None => first = Some(d.clone()),
                Some(f) => {
                    report.attempted += 1;
                    if *f != d {
                        report.failed += 1;
                        eprintln!("{}: outputs changed between iterations", kind.name());
                    }
                }
            }
            last = Some(d);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let enough = walls.len() >= MIN_ITERATIONS && ops.len() >= MIN_OPS;
        if enough && elapsed + Summary::of(&walls).median > seconds {
            break;
        }
    }

    let mut checks = Checks::default();
    if report.failed == 0 {
        w.check(&mut checks);
    }
    if let Some(digests) = last.filter(|_| seed == kind.default_seed()) {
        let diffs = golden::diff(golden::committed(kind.name()), &digests);
        checks.expect(diffs.is_empty(), || {
            format!(
                "{0}: outputs differ from golden/{0}.txt:\n{1}\nthe outputs were:\n{2}",
                kind.name(),
                diffs.join("\n"),
                golden::render(&digests)
            )
        });
    }
    w.finish();
    report.attempted += checks.attempted;
    report.failed += checks.failed;

    let timing = |name, unit, samples: &[f64]| {
        if samples.is_empty() {
            return Metric::new(name, unit, f64::INFINITY);
        }
        let s = Summary::of(samples);
        Metric::timed(name, unit, s.median, s)
    };
    let p90 = stats::percentile(&ops, 90.0).unwrap_or_else(|| {
        report.failed += 1;
        eprintln!(
            "{}: {} operations are too few for a p90",
            kind.name(),
            ops.len()
        );
        f64::INFINITY
    });
    report.metrics = vec![
        timing("setup_s", "s", &setup_s),
        timing("exp_wall_s", "s", &walls),
        timing("latency_ms_p50", "ms", &ops),
        Metric::new("latency_ms_p90", "ms", p90),
        Metric::new("peak_heap_mb", "MiB", heap::peak_mb()),
    ];
    Ok(report)
}
