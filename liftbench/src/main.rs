//! The lifter's benchmark: end-to-end metrics per workload from timed
//! runs, per-layer metrics from a separate traced run.
//!
//! ```text
//! gtl_liftbench --workload NAME --seed N --seconds S --trace 0|1
//!               --server-bin PATH --router-bin PATH --work-dir DIR
//! ```
//!
//! `liftbench/run.py` builds the workspace's serving binaries and this
//! package, then runs it with those paths filled in. The last line of
//! standard output is the result object; the line before it carries
//! sample counts and diagnostics. See `liftbench/README.md`.

#![forbid(unsafe_code)]

mod check;
mod outcome;
mod procfs;
mod serving;
mod stats;
mod suite;
mod tally;
mod traced;

use std::path::PathBuf;

use outcome::Grader;
use serving::Binaries;
use stats::{json_string, percentile, Metrics};

/// The workloads and the search jobs each one's lifter runs with (the
/// traced run's composed pipeline uses the same count).
const WORKLOADS: [(&str, usize); 4] = [
    ("suite_seq", 1),
    ("suite_par", 2),
    ("serve_cold", 1),
    ("serve_warm", 1),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bins: Binaries,
    work_dir: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut router = None;
    let mut work_dir = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            "--server-bin" => server = Some(PathBuf::from(value)),
            "--router-bin" => router = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bins: Binaries {
            server: server.ok_or("--server-bin is required")?,
            router: router.ok_or("--router-bin is required")?,
        },
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// Runs the workload and returns its metrics; failures of the measured
/// program are in `grader`, failures of the benchmark itself are `Err`.
fn measure(
    args: &Args,
    grader: &mut Grader,
    work: &std::path::Path,
) -> Result<(Metrics, String), String> {
    let jobs = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map(|(_, j)| *j)
        .expect("validated in parse_args");
    if args.trace {
        let warm_window = args.workload == "serve_warm";
        let m = traced::run(jobs, warm_window, &args.bins, work, args.seed, grader)?;
        return Ok((m, String::new()));
    }
    let run = match args.workload.as_str() {
        "suite_seq" | "suite_par" => suite::run(jobs, args.seed, args.seconds, grader)?,
        "serve_cold" => serving::run_cold(&args.bins, work, args.seed, args.seconds, grader)?,
        "serve_warm" => serving::run_warm(&args.bins, work, args.seed, args.seconds, grader)?,
        other => unreachable!("workload `{other}` validated in parse_args"),
    };
    // The p99 needs a thousand samples, more than most runs collect; it
    // goes to the detail line whenever it qualifies.
    let p99 = percentile(&run.lat_ms, 0.99)
        .map(|p| format!(", \"lat_p99_ms\": {}", stats::json_number(p.value)))
        .unwrap_or_default();
    let deciles: Vec<String> = (1..10)
        .filter_map(|d| percentile(&run.lat_ms, f64::from(d) / 10.0))
        .map(|p| stats::json_number(p.value))
        .collect();
    let extra = format!(
        ", \"quartiles\": {}, \"lat_deciles_ms\": [{}]{p99}",
        run.quartiles_json(),
        deciles.join(", ")
    );
    Ok((run.metrics()?, extra))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some(suite::PASS_FLAG) {
        let num = |i: usize| raw.get(i).and_then(|v| v.parse::<u64>().ok());
        let result = match (num(1), num(2), num(3)) {
            (Some(jobs), Some(seed), Some(pass)) => suite::pass_process(jobs as usize, seed, pass),
            _ => Err(format!("usage: {} JOBS SEED PASS", suite::PASS_FLAG)),
        };
        if let Err(e) = result {
            eprintln!("liftbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("liftbench: {e}");
            std::process::exit(2);
        }
    };
    let work = args.work_dir.join(format!("run-{}", std::process::id()));
    let mut grader = Grader::new(args.seed);
    let measured = measure(&args, &mut grader, &work);
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, extra) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("liftbench: {e}");
            std::process::exit(1);
        }
    };
    for p in &grader.problems {
        eprintln!("liftbench: FAILED {p}");
    }
    let new: Vec<String> = grader.newly_solved.iter().map(|n| json_string(n)).collect();
    let error_ratio = grader.failed as f64 / grader.attempted.max(1) as f64;
    println!(
        "{{\"detail\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"error_ratio\": {}, \
         \"newly_solved\": [{}], \"samples\": {}{extra}}}}}",
        json_string(&args.workload),
        args.seed,
        args.trace,
        stats::json_number(error_ratio),
        new.join(", "),
        metrics.samples_json(),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        grader.failed == 0 && grader.attempted > 0,
        grader.attempted,
        grader.failed,
        metrics.to_json()
    );
}
