//! Grading of lift outcomes and the end-to-end summary of a timed run.

use std::collections::BTreeSet;

use gtl_serve::Event;

use crate::check::OutputChecker;
use crate::stats::{json_number, median, percentile, quartiles, Metrics};

/// How one lift or request ended, as the benchmark saw it.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A `done` answer with its solution text.
    Solved(String),
    /// A deterministic non-answer (`failed`, e.g. budget exceeded).
    Unsolved(String),
    /// Anything that breaks the run: an `error` event, a lost stream, a
    /// transport failure.
    Broken(String),
}

impl Outcome {
    /// The outcome a serving request's terminal event carries.
    pub fn of_terminal(terminal: Option<&Event>) -> Outcome {
        match terminal {
            Some(Event::Done { solution, .. }) => Outcome::Solved(solution.clone()),
            Some(Event::Failed { reason, .. }) => Outcome::Unsolved(reason.clone()),
            Some(other) => Outcome::Broken(other.to_line()),
            None => Outcome::Broken("no terminal event".to_string()),
        }
    }
}

/// Shared grading state of one run: the output checker, the expected
/// solved list, and every failure seen.
pub struct Grader {
    checker: OutputChecker,
    expected: BTreeSet<&'static str>,
    /// Lifts or requests graded.
    pub attempted: u64,
    /// Those that errored, lost an expected benchmark, or failed the
    /// output check.
    pub failed: u64,
    /// Solved benchmarks that are not on the expected list.
    pub newly_solved: BTreeSet<String>,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
}

impl Grader {
    /// A grader over the suite, checking outputs on inputs from `seed`.
    pub fn new(seed: u64) -> Grader {
        Grader {
            checker: OutputChecker::new(seed, &gtl_benchsuite::all_benchmarks()),
            expected: crate::check::expected_solved(),
            attempted: 0,
            failed: 0,
            newly_solved: BTreeSet::new(),
            problems: Vec::new(),
        }
    }

    /// Records a failure that is not tied to one graded outcome (a
    /// stream-rule violation, a parity mismatch).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Grades one outcome for benchmark `name`; returns whether it is a
    /// checked solution.
    pub fn grade(&mut self, name: &str, outcome: &Outcome) -> bool {
        self.attempted += 1;
        match outcome {
            Outcome::Solved(solution) => match self.checker.check(name, solution) {
                Ok(()) => {
                    if !self.expected.contains(name) {
                        self.newly_solved.insert(name.to_string());
                    }
                    true
                }
                Err(e) => {
                    self.fail(format!("{name}: output check: {e}"));
                    false
                }
            },
            Outcome::Unsolved(reason) => {
                if self.expected.contains(name) {
                    self.fail(format!("{name}: expected solved, ended `{reason}`"));
                }
                false
            }
            Outcome::Broken(what) => {
                self.fail(format!("{name}: {what}"));
                false
            }
        }
    }
}

/// Raw figures of one timed run, one entry per pass or set-up.
#[derive(Debug, Default)]
pub struct TimedRun {
    /// Set-up seconds, one per set-up.
    pub setup_s: Vec<f64>,
    /// Wall seconds per 77 lifts or requests, one per pass.
    pub suite_s: Vec<f64>,
    /// CPU seconds per 77 lifts or requests, one per pass.
    pub cpu_s: Vec<f64>,
    /// Completed requests per second, one per pass.
    pub rps: Vec<f64>,
    /// Per-lift or per-request latency in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Distinct benchmarks solved and checked, one per pass.
    pub solved: Vec<f64>,
    /// Peak memory of the lifting processes, one per pass.
    pub peak_rss_mb: Vec<f64>,
}

impl TimedRun {
    /// The end-to-end metrics: medians over passes, latency
    /// percentiles over all samples.
    ///
    /// # Errors
    ///
    /// A figure without samples, or a percentile with fewer than ten
    /// samples beyond it.
    pub fn metrics(&self) -> Result<Metrics, String> {
        let mut m = Metrics::default();
        let mut med = |name: &str, v: &[f64], unit: &'static str| -> Result<(), String> {
            let value = median(v).ok_or_else(|| format!("no samples for {name}"))?;
            m.put(name, value, unit, v.len());
            Ok(())
        };
        med("setup_s", &self.setup_s, "s")?;
        med("suite_s", &self.suite_s, "s")?;
        med("cpu_s", &self.cpu_s, "s")?;
        med("rps", &self.rps, "1/s")?;
        med("solved", &self.solved, "count")?;
        med("peak_rss_mb", &self.peak_rss_mb, "MiB")?;
        for (name, q) in [("lat_p50_ms", 0.5), ("lat_p90_ms", 0.9)] {
            let p = percentile(&self.lat_ms, q).ok_or_else(|| {
                format!(
                    "{name}: {} samples leave fewer than ten beyond it",
                    self.lat_ms.len()
                )
            })?;
            m.put(name, p.value, "ms", p.samples);
        }
        Ok(m)
    }

    /// First and third quartile of each per-pass series with at least
    /// two passes, for the detail line: the run's own spread.
    pub fn quartiles_json(&self) -> String {
        let series = [
            ("setup_s", &self.setup_s),
            ("suite_s", &self.suite_s),
            ("cpu_s", &self.cpu_s),
            ("rps", &self.rps),
            ("peak_rss_mb", &self.peak_rss_mb),
        ];
        let body: Vec<String> = series
            .iter()
            .filter_map(|(name, v)| {
                let [q1, _, q3] = quartiles(v)?;
                Some(format!(
                    "\"{name}\": [{}, {}]",
                    json_number(q1),
                    json_number(q3)
                ))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
