//! A run's result: the one-line JSON a run prints last, and the full
//! record (with each timing's sample count and quartiles) that `all`
//! collects and `compare` reads.

use crate::stats::Summary;
use colt_core::serve::json::Json;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The samples behind a timing (absent for counts and ratios).
    pub summary: Option<Summary>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: None,
        }
    }

    pub fn timed(name: &'static str, unit: &'static str, value: f64, summary: Summary) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: Some(summary),
        }
    }
}

/// A workload run's outcome.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// JSON has no infinities: a metric a failure pushed to `+∞` prints as
/// the largest finite double (the run is then marked incorrect anyway).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line of a run's standard output.
    pub fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record: the line's fields plus `n`, `q1` and `q3` for
    /// every timing.
    pub fn full(&self, workload: &str, seed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let spread = m.summary.map_or_else(String::new, |s| {
                    format!(
                        ", \"n\": {}, \"q1\": {}, \"q3\": {}",
                        s.n,
                        num(s.q1),
                        num(s.q3)
                    )
                });
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{spread}}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable rows: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let spread = m.summary.map_or_else(String::new, |s| {
                format!("   (n={}, q1={:.6}, q3={:.6})", s.n, s.q1, s.q3)
            });
            out.push_str(&format!(
                "  {:<32} {:>16.6} {:<6}{spread}\n",
                m.name, m.value, m.unit
            ));
        }
        out
    }
}

/// The per-run values of `metric` in a record parsed from JSON: the
/// `runs` list an `all` record carries, or the single value of a run's
/// own record.
pub fn run_values(record: &Json, metric: &str) -> Option<Vec<f64>> {
    let m = record.get("metrics")?.get(metric)?;
    match m.get("runs") {
        Some(Json::Arr(runs)) => runs.iter().map(Json::as_f64).collect(),
        _ => Some(vec![m.get("value")?.as_f64()?]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_core::serve::json;

    #[test]
    fn line_and_full_record_parse_back() {
        let report = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric::timed("exp_wall_s", "s", 2.5, Summary::of(&[2.0, 2.5, 3.0])),
                Metric::new("latency_ms_p90", "ms", f64::INFINITY),
            ],
        };
        let line = json::parse(&report.line()).expect("the line is JSON");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(3));
        let p90 = line
            .get("metrics")
            .and_then(|m| m.get("latency_ms_p90"))
            .and_then(|m| m.get("value"));
        assert_eq!(
            p90.and_then(Json::as_f64),
            Some(f64::MAX),
            "+inf prints as a finite number"
        );
        let full = json::parse(&report.full("fig18_warm", 7)).expect("the record is JSON");
        assert_eq!(run_values(&full, "exp_wall_s"), Some(vec![2.5]));
        let all = json::parse("{\"metrics\": {\"setup_s\": {\"value\": 2, \"runs\": [1, 2, 4]}}}")
            .expect("valid");
        assert_eq!(run_values(&all, "setup_s"), Some(vec![1.0, 2.0, 4.0]));
    }

    #[test]
    fn failed_operations_make_a_run_incorrect() {
        let report = Report {
            attempted: 10,
            failed: 1,
            metrics: Vec::new(),
        };
        assert!(!report.correct());
        assert!(report
            .line()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
    }
}
