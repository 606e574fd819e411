//! The in-process workloads: `suite_seq` and `suite_par` lift all 77
//! benchmarks through `Stagg::lift`, one at a time, with the paper
//! configuration (top-down, refined grammar, one oracle round).
//!
//! Every pass runs in a fresh process, as a batch run of the lifter
//! would: it sets up (its `setup_s` sample), lifts the suite once in
//! seeded order, and reports its own timings, CPU time and peak memory.
//! Fresh processes keep passes independent, so allocator state left by
//! one pass cannot inflate the next pass's peak memory.

use std::process::Command;
use std::time::{Duration, Instant};

use gtl::{LiftQuery, Stagg, StaggConfig};
use gtl_benchsuite::Benchmark;

use crate::outcome::{Grader, Outcome, TimedRun};
use crate::procfs::Proc;
use crate::stats::Rng;

/// Passes a run makes at least, so set-up has several samples and the
/// p90 latency more than ten beyond it (3 × 77 = 231 lifts leave 23).
pub const MIN_PASSES: usize = 3;

/// The flag that turns the benchmark binary into one pass's process.
pub const PASS_FLAG: &str = "--pass";

/// The pipeline query for a benchmark, as every suite runner builds it.
pub fn query_for(b: &Benchmark) -> LiftQuery {
    LiftQuery {
        label: b.name.to_string(),
        source: b.source.to_string(),
        task: b.lift_task(),
        ground_truth: Some(b.parse_ground_truth()),
    }
}

/// The in-process set-up: load the suite and build the lifter.
pub fn setup(jobs: usize) -> Result<(Vec<Benchmark>, Vec<LiftQuery>, Stagg), String> {
    let benchmarks = gtl_benchsuite::all_benchmarks();
    let queries = benchmarks.iter().map(query_for).collect();
    let stagg = Stagg::from_config(StaggConfig::top_down().with_jobs(jobs))
        .map_err(|e| format!("building the lifter: {e}"))?;
    Ok((benchmarks, queries, stagg))
}

/// Body of one pass's process. Prints `setup SECONDS`, one
/// `lift INDEX MS SOLUTION` line per lift (`-` when unsolved), then
/// `pass WALL_S CPU_S PEAK_RSS_MB`.
pub fn pass_process(jobs: usize, seed: u64, pass: u64) -> Result<(), String> {
    let started = Instant::now();
    let (_, queries, stagg) = setup(jobs)?;
    println!("setup {}", started.elapsed().as_secs_f64());
    let order = Rng::new(seed, pass).permutation(queries.len());
    let mut lines = Vec::with_capacity(order.len());
    let cpu_before = Proc::This.cpu_seconds()?;
    let pass_started = Instant::now();
    for &i in &order {
        let lift_started = Instant::now();
        let report = stagg.lift(&queries[i]);
        let ms = lift_started.elapsed().as_secs_f64() * 1e3;
        let solution = report.solution.map_or("-".to_string(), |p| p.to_string());
        lines.push(format!("lift {i} {ms} {solution}"));
    }
    let wall = pass_started.elapsed().as_secs_f64();
    let cpu = Proc::This.cpu_seconds()? - cpu_before;
    for line in lines {
        println!("{line}");
    }
    println!("pass {wall} {cpu} {}", Proc::This.peak_rss_mb()?);
    Ok(())
}

fn field<T: std::str::FromStr>(word: Option<&str>, line: &str) -> Result<T, String> {
    word.and_then(|w| w.parse().ok())
        .ok_or_else(|| format!("malformed pass output line `{line}`"))
}

/// Runs one pass in a fresh process, grades its lifts and adds its
/// figures to `run`.
fn run_pass(
    jobs: usize,
    seed: u64,
    pass: u64,
    names: &[&str],
    run: &mut TimedRun,
    grader: &mut Grader,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            PASS_FLAG,
            &jobs.to_string(),
            &seed.to_string(),
            &pass.to_string(),
        ])
        .output()
        .map_err(|e| format!("pass process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "pass process failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let (mut solved, mut lifts, mut finished) = (0usize, 0usize, false);
    for line in text.lines() {
        let mut words = line.splitn(4, ' ');
        match words.next() {
            Some("setup") => run.setup_s.push(field(words.next(), line)?),
            Some("lift") => {
                let index: usize = field(words.next(), line)?;
                run.lat_ms.push(field(words.next(), line)?);
                let name = names
                    .get(index)
                    .ok_or_else(|| format!("no benchmark {index}"))?;
                let outcome = match words.next() {
                    Some("-") | None => Outcome::Unsolved("unsolved".to_string()),
                    Some(solution) => Outcome::Solved(solution.to_string()),
                };
                solved += usize::from(grader.grade(name, &outcome));
                lifts += 1;
            }
            Some("pass") => {
                let rest: Vec<&str> = line.split(' ').skip(1).collect();
                let wall: f64 = field(rest.first().copied(), line)?;
                run.suite_s.push(wall);
                run.cpu_s.push(field(rest.get(1).copied(), line)?);
                run.peak_rss_mb.push(field(rest.get(2).copied(), line)?);
                run.rps.push(lifts as f64 / wall);
                finished = true;
            }
            _ => return Err(format!("unexpected pass output line `{line}`")),
        }
    }
    if !finished || lifts != names.len() {
        return Err(format!("pass {pass} ended after {lifts} lifts"));
    }
    run.solved.push(solved as f64);
    Ok(())
}

/// The timed `suite_seq` (`jobs` 1) or `suite_par` (`jobs` 2) run:
/// passes over the suite in seeded order until `seconds` have passed.
pub fn run(jobs: usize, seed: u64, seconds: f64, grader: &mut Grader) -> Result<TimedRun, String> {
    let names: Vec<&str> = gtl_benchsuite::all_benchmarks()
        .iter()
        .map(|b| b.name)
        .collect();
    let mut run = TimedRun::default();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut pass = 0u64;
    while (pass as usize) < MIN_PASSES || started.elapsed() < budget {
        run_pass(jobs, seed, pass, &names, &mut run, grader)?;
        pass += 1;
    }
    Ok(run)
}
