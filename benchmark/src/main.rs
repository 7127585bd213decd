//! `colt-benchmark` — the repository benchmark. See `README.md` for the
//! workloads, the metric dictionary and how to read the results.
//!
//! ```text
//! colt-benchmark --workload W --seed N --seconds S --trace 0|1
//! colt-benchmark all [--runs K] [--seconds S] [--out FILE]
//! colt-benchmark trace --workload W [--seed N]
//! colt-benchmark compare BASE.json[,BASE2.json...] NEW.json[,NEW2.json...]
//! ```
//!
//! Run it from the repository root: it reads `BENCHMARK.json` there and
//! works under `.colt-bench/`.

mod e2e;
mod golden;
mod heap;
mod mix;
mod report;
mod stats;
mod trace;
mod workloads;

use colt_core::serve::json::{self, Json};
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Kind;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Everything the benchmark writes lives under this directory of the
/// working directory.
const WORK: &str = ".colt-bench";

const USAGE: &str = "usage: colt-benchmark --workload W --seed N --seconds S --trace 0|1
       colt-benchmark all [--runs K] [--seconds S] [--out FILE]
       colt-benchmark trace --workload W [--seed N]
       colt-benchmark compare BASE.json[,BASE2.json...] NEW.json[,NEW2.json...]
workloads: fig18_warm prep_cold churn_virt serve_mixed";

#[derive(Default)]
struct Args {
    workload: Option<Kind>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    runs: Option<usize>,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => a.seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--runs" => match value()?.parse() {
                Ok(k) if k > 0 => a.runs = Some(k),
                _ => return Err("--runs takes a positive integer".to_string()),
            },
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            file => a.files.push(file.to_string()),
        }
    }
    Ok(a)
}

/// `BENCHMARK.json` of the working directory.
fn manifest() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn run_seconds(args: &Args) -> Result<f64, String> {
    match args.seconds {
        Some(s) => Ok(s),
        None => manifest()?
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string()),
    }
}

fn reports_dir() -> PathBuf {
    Path::new(WORK).join("reports")
}

fn record_path(kind: Kind, trace: bool) -> PathBuf {
    reports_dir().join(format!(
        "{}-{}.json",
        kind.name(),
        if trace { "trace" } else { "e2e" }
    ))
}

/// One workload run in this process: prints its metrics to stderr and
/// the result line last on stdout.
fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let kind = args.workload.ok_or("--workload is required")?;
    let seed = args.seed.unwrap_or_else(|| kind.default_seed());
    let dir = Path::new(WORK).join(kind.name());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = if args.trace {
        let spans = reports_dir().join(format!("{}-spans.json", kind.name()));
        trace::run(kind, seed, &dir, &spans)
    } else {
        e2e::run(kind, seed, run_seconds(args)?, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let report = result?;
    std::fs::create_dir_all(reports_dir()).map_err(|e| e.to_string())?;
    let path = record_path(kind, args.trace);
    std::fs::write(&path, report.full(kind.name(), seed))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{} (seed {seed}, {} attempted, {} failed):",
        kind.name(),
        report.attempted,
        report.failed
    );
    eprint!("{}", report.table());
    println!("{}", report.line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs of each workload `all` makes unless told otherwise: enough for
/// an interquartile range `compare` can resolve against.
const DEFAULT_RUNS: usize = 3;

/// Runs every workload `--runs` times (seeds default, default + 1, …),
/// each run in its own child process (its own peak heap and
/// process-global caches), and records each end-to-end metric as the
/// median of the runs with the runs' quartiles.
fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    let seconds = run_seconds(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut combined = Vec::new();
    let mut ok = true;
    for kind in Kind::ALL {
        let mut records = Vec::new();
        for run in 0..args.runs.unwrap_or(DEFAULT_RUNS) {
            let seed = kind.default_seed().wrapping_add(run as u64);
            eprintln!("== {} (seed {seed}) ==", kind.name());
            let _ = std::fs::remove_file(record_path(kind, false));
            let status = Command::new(&exe)
                .args(["--workload", kind.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            ok &= status.success();
            match std::fs::read_to_string(record_path(kind, false)).map(|r| json::parse(&r)) {
                Ok(Ok(record)) => records.push(record),
                _ => {
                    ok = false;
                    eprintln!("{}: no result", kind.name());
                }
            }
        }
        if !records.is_empty() {
            combined.push(aggregate(kind.name(), &records));
        }
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(WORK).join("all.json"));
    let combined = format!("{{\"workloads\": [\n{}\n]}}\n", combined.join(",\n"));
    std::fs::write(&out, combined).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("records written to {}", out.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload's record over its runs: each metric's median and the
/// runs' quartiles, printed by name with its unit.
fn aggregate(name: &str, records: &[Json]) -> String {
    let mut metrics = Vec::new();
    if let Some(Json::Obj(first)) = records[0].get("metrics") {
        for (metric, m) in first {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let values: Vec<f64> = records
                .iter()
                .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
                .collect();
            let s = Summary::of(&values);
            println!(
                "{name:<12} {metric:<16} {:>14.6} {unit:<4} (runs={}, q1={:.6}, q3={:.6})",
                s.median, s.n, s.q1, s.q3
            );
            let runs: Vec<String> = values.iter().map(f64::to_string).collect();
            metrics.push(format!(
                "\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\", \"n\": {}, \"q1\": {}, \"q3\": {}, \"runs\": [{}]}}",
                s.median,
                s.n,
                s.q1,
                s.q3,
                runs.join(", ")
            ));
        }
    }
    let total = |key| {
        records
            .iter()
            .filter_map(|r| r.get(key)?.as_u64())
            .sum::<u64>()
    };
    let correct = records
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    format!(
        "{{\"workload\": \"{name}\", \"runs\": {}, \"correct\": {correct}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {{{}}}}}",
        records.len(),
        total("attempted"),
        total("failed"),
        metrics.join(", ")
    )
}

/// A comparison of one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Better,
    Worse,
    Same,
    /// The runs cannot tell: a side's interquartile range is wider than
    /// the bound and the two sides' runs overlap.
    Unresolved,
}

/// Compares the runs of one metric. The medians decide when both sides'
/// interquartile ranges (as a share of their medians) are within the
/// bound. When either is wider, a change beyond the bound counts only if
/// every new run lies beyond every base run in its direction; anything
/// else is unresolved, not the same.
fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (b, n) = (Summary::of(base), Summary::of(new));
    let spread = |s: &Summary| {
        if s.median == 0.0 {
            0.0
        } else {
            (s.q3 - s.q1) / s.median
        }
    };
    let wide = spread(&b) > bound || spread(&n) > bound;
    let change = (n.median - b.median) / b.median;
    let worsening = if lower_is_better { change } else { -change };
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let (all_higher, all_lower) = (min(new) > max(base), max(new) < min(base));
    let (all_worse, all_better) = if lower_is_better {
        (all_higher, all_lower)
    } else {
        (all_lower, all_higher)
    };
    if worsening > bound && (!wide || all_worse) {
        Verdict::Worse
    } else if worsening < -bound && (!wide || all_better) {
        Verdict::Better
    } else if wide {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// Each workload's runs of each metric.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Loads the `all` records named in `list` (comma-separated) and pools
/// each workload's runs of each metric across them.
fn pooled_runs(list: &str) -> Result<Runs, String> {
    let mut pooled = Runs::new();
    for path in list.split(',') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let Some(Json::Arr(records)) = doc.get("workloads") else {
            return Err(format!("{path}: not a record written by `all`"));
        };
        for record in records {
            let name = record.get("workload").and_then(Json::as_str).unwrap_or("?");
            let Some(Json::Obj(metrics)) = record.get("metrics") else {
                continue;
            };
            for (metric, _) in metrics {
                let runs = report::run_values(record, metric)
                    .ok_or_else(|| format!("{path}: {name} {metric} has no values"))?;
                pooled
                    .entry(name.to_string())
                    .or_default()
                    .entry(metric.clone())
                    .or_default()
                    .extend(runs);
            }
        }
    }
    Ok(pooled)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [base, new] = args.files.as_slice() else {
        return Err("compare takes BASE.json[,BASE2.json...] NEW.json[,NEW2.json...]".to_string());
    };
    let (base, new, manifest) = (pooled_runs(base)?, pooled_runs(new)?, manifest()?);
    let Some(Json::Arr(metrics)) = manifest.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    let mut worse = 0;
    for (name, new_metrics) in &new {
        let Some(base_metrics) = base.get(name) else {
            println!("{name:<12} missing from the base");
            continue;
        };
        for m in metrics {
            let metric = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(b), Some(n)) = (base_metrics.get(metric), new_metrics.get(metric)) else {
                println!("{name:<12} {metric:<16} missing");
                continue;
            };
            let v = verdict(b, n, lower, bound);
            worse += usize::from(v == Verdict::Worse);
            let (bm, nm) = (Summary::of(b).median, Summary::of(n).median);
            println!(
                "{name:<12} {metric:<16} {:<10} base {bm:.6} ({} runs) new {nm:.6} ({} runs) \
                 ({:+.1}%, bound {:.0}%)",
                format!("{v:?}").to_lowercase(),
                b.len(),
                n.len(),
                100.0 * (nm - bm) / bm,
                100.0 * bound
            );
        }
    }
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c @ ("all" | "trace" | "compare")) => (c, &raw[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => ("run", &raw[..]),
    };
    let mut args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        "all" => cmd_all(&args),
        "compare" => cmd_compare(&args),
        "trace" => {
            args.trace = true;
            cmd_run(&args)
        }
        _ => cmd_run(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_verdicts_respect_direction_bound_and_spread() {
        let tight = |m: f64| [0.99 * m, m, 1.01 * m];
        let v = |b: &[f64], n: &[f64], lower| verdict(b, n, lower, 0.1);
        assert_eq!(v(&tight(1.0), &tight(1.2), true), Verdict::Worse);
        assert_eq!(v(&tight(1.0), &tight(1.2), false), Verdict::Better);
        assert_eq!(v(&tight(1.0), &tight(0.8), true), Verdict::Better);
        assert_eq!(v(&tight(1.0), &tight(1.05), true), Verdict::Same);
        // A wide side: only runs that do not overlap decide.
        let wide = [0.7, 1.0, 1.3];
        assert_eq!(v(&wide, &tight(1.5), true), Verdict::Worse);
        assert_eq!(v(&wide, &[1.2, 1.25, 1.6], true), Verdict::Unresolved);
        assert_eq!(v(&tight(1.0), &[0.8, 1.0, 1.4], true), Verdict::Unresolved);
        assert_eq!(v(&wide, &tight(0.5), true), Verdict::Better);
        assert_eq!(
            v(&wide, &tight(1.0), true),
            Verdict::Unresolved,
            "not 'same'"
        );
    }

    #[test]
    fn flags_are_checked_where_they_enter() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload prep_cold --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Kind::PrepCold), Some(7), Some(10.0), true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--runs 0").is_err());
        assert_eq!(parse("--runs 5").expect("valid").runs, Some(5));
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
