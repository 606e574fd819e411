//! The traced run: per-layer metrics, measured apart from the timed
//! runs.
//!
//! The in-process layers are timed by composing `Stagg::lift`'s
//! pipeline from each crate's public functions, under the lifter's
//! default configuration, and timing every call from outside. The
//! composition must reproduce `Stagg::lift` (solved, solution text and,
//! with one search job, attempts) on every benchmark, or the run fails.
//! The store and serving layers are timed on the records and messages
//! of a cold pass and a warm window through the replica set.

use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gtl::{LiftQuery, LiftReport, Phase, StaggConfig};
use gtl_analysis::analyze_kernel;
use gtl_oracle::{OracleProvider, OracleQuery};
use gtl_search::{
    parallel_top_down_search_hooked, CheckOutcome, ParallelOptions, PenaltyContext, SearchHooks,
    TemplateChecker,
};
use gtl_serve::{Event, LiftClient, LiftRequest, LiftServer, Request, ServerConfig};
use gtl_store::LiftStore;
use gtl_taco::{
    canonical_fingerprint, parse_program, preprocess_candidate, BatchKernel, EvalCache, Lane,
    TacoProgram,
};
use gtl_template::{
    any_const, any_repeated_index, generate_td_grammar, index_variable_count, learn_weights,
    overlay_lhs_dimension, predict_dimension_list, templatize, TdSpec, Template,
};
use gtl_validate::{
    enumerate_substitutions, generate_examples, validate_template_cached, IoExample, LiftTask,
    ValidationStats,
};
use gtl_verify::verify_candidate_cached;

use crate::outcome::{Grader, Outcome};
use crate::serving::{self, Binaries};
use crate::stats::{hist_quantile, median, Metrics, Rng};

/// Templates per lift kept for the batched-evaluator probe.
const BATCH_SAMPLE_PER_LIFT: usize = 4;

/// Rounds of the codec, batch and store-open probes; each metric is the
/// median round.
const PROBE_ROUNDS: usize = 5;

/// Requests in the traced warm window.
const WARM_REQUESTS: usize = 154;

/// Benchmarks probed for single cache hits (direct, via the router,
/// and in-process).
const HIT_PROBES: usize = 40;

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Samples and counters of the checker, the only part of the pipeline
/// the search engine calls back into.
#[derive(Debug, Default)]
struct CheckSamples {
    checker_us: f64,
    validate_call_us: Vec<f64>,
    validate_calls: u64,
    substitutions: u64,
    io_passes: u64,
    verify_us: Vec<f64>,
    verify_equivalent: u64,
    batch_sample: Vec<TacoProgram>,
}

impl CheckSamples {
    fn merge(&mut self, other: CheckSamples) {
        self.checker_us += other.checker_us;
        self.validate_call_us.extend(other.validate_call_us);
        self.validate_calls += other.validate_calls;
        self.substitutions += other.substitutions;
        self.io_passes += other.io_passes;
        self.verify_us.extend(other.verify_us);
        self.verify_equivalent += other.verify_equivalent;
        self.batch_sample.extend(other.batch_sample);
    }
}

/// Everything the checker of one lift reads.
struct CheckContext<'a> {
    task: &'a LiftTask,
    examples: &'a [IoExample],
    config: &'a StaggConfig,
    outputs_uniform: bool,
    seen_canonical: Mutex<HashSet<u64>>,
    sink: Mutex<CheckSamples>,
}

/// The pipeline's checker with a stopwatch around every call into the
/// validate and verify layers. It makes the same decisions in the same
/// order as the checker inside `Stagg::lift`.
struct TimedChecker<'a> {
    ctx: &'a CheckContext<'a>,
    cache: &'a EvalCache,
    local: CheckSamples,
}

impl TimedChecker<'_> {
    fn check_untimed(&mut self, template: &TacoProgram) -> CheckOutcome {
        let ctx = self.ctx;
        if ctx.config.pruning {
            let rhs_accesses = template.rhs.accesses();
            let unconstrained = template
                .lhs
                .indices
                .iter()
                .any(|ix| !rhs_accesses.iter().any(|acc| acc.indices.contains(ix)));
            if unconstrained || (rhs_accesses.is_empty() && !ctx.outputs_uniform) {
                return CheckOutcome::Failed;
            }
            if !ctx
                .seen_canonical
                .lock()
                .expect("canonical set poisoned")
                .insert(canonical_fingerprint(template))
            {
                return CheckOutcome::Failed;
            }
        }
        if self.local.batch_sample.len() < BATCH_SAMPLE_PER_LIFT {
            self.local.batch_sample.push(template.clone());
        }
        let mut stats = ValidationStats::default();
        let mut verify_us = 0.0;
        let local = &mut self.local;
        let cache = self.cache;
        let started = Instant::now();
        let result = validate_template_cached(
            template,
            ctx.task,
            ctx.examples,
            |concrete, _sub| {
                let verify_started = Instant::now();
                let equivalent =
                    verify_candidate_cached(ctx.task, concrete, &ctx.config.verify, cache)
                        .is_equivalent();
                let us = micros(verify_started);
                verify_us += us;
                local.verify_us.push(us);
                local.verify_equivalent += u64::from(equivalent);
                equivalent
            },
            &mut stats,
            cache,
        );
        local.validate_call_us.push(micros(started) - verify_us);
        local.validate_calls += 1;
        local.substitutions += stats.substitutions_tried;
        local.io_passes += stats.io_passes;
        match result {
            Some(concrete) => CheckOutcome::Verified(concrete),
            None => CheckOutcome::Failed,
        }
    }
}

impl TemplateChecker for TimedChecker<'_> {
    fn check(&mut self, template: &TacoProgram) -> CheckOutcome {
        let started = Instant::now();
        let outcome = self.check_untimed(template);
        self.local.checker_us += micros(started);
        outcome
    }
}

impl Drop for TimedChecker<'_> {
    fn drop(&mut self) {
        let local = std::mem::take(&mut self.local);
        if let Ok(mut sink) = self.ctx.sink.lock() {
            sink.merge(local);
        }
    }
}

/// Per-layer samples over one traced pass of the suite.
#[derive(Debug, Default)]
struct Layers {
    parse_us: Vec<f64>,
    reference_us: Vec<f64>,
    analysis_us: Vec<f64>,
    oracle_round_us: Vec<f64>,
    candidates: u64,
    ingest_us: Vec<f64>,
    parsed: u64,
    grammar_us: Vec<f64>,
    rules: u64,
    examples_us: Vec<f64>,
    worker_wall_us: f64,
    nodes: u64,
    attempts: u64,
    checks: CheckSamples,
    cache_hits: u64,
    cache_misses: u64,
    batch_probe: Vec<(TacoProgram, usize)>,
}

/// What the composed pipeline concluded for one benchmark.
struct Composed {
    solution: Option<TacoProgram>,
    attempts: u64,
    examples: Vec<IoExample>,
}

/// One lift composed from the crates' public functions, every call
/// timed. Mirrors `Stagg::lift` with a single oracle round, top-down
/// search and the refined grammar.
fn composed_lift(
    provider: &Arc<dyn OracleProvider>,
    config: &StaggConfig,
    query: &LiftQuery,
    lift_index: usize,
    layers: &mut Layers,
) -> Composed {
    let mut composed = Composed {
        solution: None,
        attempts: 0,
        examples: Vec::new(),
    };
    let started = Instant::now();
    let parsed_source = gtl_cfront::parse_c(&query.source);
    layers.parse_us.push(micros(started));
    std::hint::black_box(parsed_source.is_ok());

    let mut oracle = provider.oracle();
    let started = Instant::now();
    let raw = oracle.candidates_round(
        &OracleQuery {
            label: &query.label,
            c_source: &query.source,
            ground_truth: query.ground_truth.as_ref(),
        },
        0,
        None,
    );
    layers.oracle_round_us.push(micros(started));
    layers.candidates += raw.len() as u64;
    let mut pool: Vec<Template> = Vec::new();
    for line in &raw {
        let started = Instant::now();
        let template = preprocess_candidate(line)
            .and_then(|s| parse_program(&s).ok())
            .and_then(|p| templatize(&p).ok());
        layers.ingest_us.push(micros(started));
        pool.extend(template);
    }
    layers.parsed += pool.len() as u64;
    if pool.is_empty() {
        return composed;
    }

    let started = Instant::now();
    let Ok(examples) = generate_examples(&query.task, &config.examples) else {
        return composed;
    };
    layers.examples_us.push(micros(started));
    for ex in &examples {
        let started = Instant::now();
        let out = query.task.run_reference(&ex.instance);
        layers.reference_us.push(micros(started));
        std::hint::black_box(out.is_ok());
    }

    let started = Instant::now();
    let facts = analyze_kernel(&query.task.func);
    layers.analysis_us.push(micros(started));

    let started = Instant::now();
    let voted = predict_dimension_list(&pool).unwrap_or_default();
    let dim_list = overlay_lhs_dimension(voted, facts.lhs_dim);
    let spec = TdSpec {
        dim_list: dim_list.clone(),
        n_indices: index_variable_count(&pool).max(1),
        allow_repeated_index: any_repeated_index(&pool),
        include_const: any_const(&pool),
    };
    let mut grammar = generate_td_grammar(&spec);
    learn_weights(&mut grammar, &pool);
    layers.grammar_us.push(micros(started));
    layers.rules += grammar.pcfg.rules().len() as u64;

    let penalty = PenaltyContext {
        dim_list,
        grammar_has_const: grammar.nts.constant.is_some() || grammar.nts.dim_nts.contains_key(&0),
        live_ops: grammar.live_ops(),
        settings: config.penalties,
    };
    let outputs_uniform = {
        let mut vals = examples.iter().flat_map(|ex| ex.output.data().iter());
        match vals.next() {
            None => true,
            Some(first) => vals.all(|v| v == first),
        }
    };
    let ctx = CheckContext {
        task: &query.task,
        examples: &examples,
        config,
        outputs_uniform,
        seen_canonical: Mutex::new(HashSet::new()),
        sink: Mutex::new(CheckSamples::default()),
    };
    let jobs = config.jobs.max(1);
    let caches: Vec<EvalCache> = (0..jobs).map(|_| EvalCache::default()).collect();
    let started = Instant::now();
    let outcome = parallel_top_down_search_hooked(
        &grammar,
        &penalty,
        config.budget,
        ParallelOptions::with_jobs(config.jobs),
        &SearchHooks::default(),
        |worker: usize| TimedChecker {
            ctx: &ctx,
            cache: &caches[worker % jobs],
            local: CheckSamples::default(),
        },
    );
    let wall = micros(started);
    layers.worker_wall_us += wall * jobs as f64;
    layers.nodes += outcome.nodes_expanded;
    layers.attempts += outcome.attempts;
    for cache in &caches {
        let s = cache.stats();
        layers.cache_hits += s.hits;
        layers.cache_misses += s.misses;
    }
    let mut checks = ctx.sink.into_inner().expect("check samples poisoned");
    layers
        .batch_probe
        .extend(checks.batch_sample.drain(..).map(|t| (t, lift_index)));
    layers.checks.merge(checks);
    composed.solution = outcome.solution;
    composed.attempts = outcome.attempts;
    composed.examples = examples;
    composed
}

/// `ns` per lane of `BatchKernel::evaluate_lanes` over the sampled
/// templates, on each lift's first example: the median of
/// [`PROBE_ROUNDS`] rounds, and the lanes per round.
fn batch_probe(
    sample: &[(TacoProgram, usize)],
    tasks: &[(LiftTask, Vec<IoExample>)],
) -> (f64, usize) {
    let prepared: Vec<(BatchKernel, Vec<Lane>, usize)> = sample
        .iter()
        .filter_map(|(template, i)| {
            let (task, examples) = &tasks[*i];
            examples.first()?;
            let kernel = BatchKernel::new(template);
            let output = task.output_name().to_string();
            let lanes: Vec<Lane> = enumerate_substitutions(template, task)
                .iter()
                .filter_map(|sub| {
                    let tensors = kernel
                        .tensor_slots()
                        .iter()
                        .map(|s| {
                            if s == "a" {
                                output.clone()
                            } else {
                                sub.tensors.get(s).cloned().unwrap_or_else(|| s.clone())
                            }
                        })
                        .collect();
                    let constants = kernel
                        .const_slots()
                        .iter()
                        .map(|id| sub.constants.get(id).copied())
                        .collect::<Option<Vec<i64>>>()?;
                    Some(Lane { tensors, constants })
                })
                .collect();
            (!lanes.is_empty()).then_some((kernel, lanes, *i))
        })
        .collect();
    let lanes: usize = prepared.iter().map(|(_, l, _)| l.len()).sum();
    let rounds: Vec<f64> = (0..PROBE_ROUNDS)
        .map(|_| {
            let started = Instant::now();
            for (kernel, lane_set, i) in &prepared {
                let env = &tasks[*i].1[0].instance.env;
                std::hint::black_box(kernel.evaluate_lanes(lane_set, env));
            }
            started.elapsed().as_secs_f64() * 1e9 / lanes.max(1) as f64
        })
        .collect();
    (median(&rounds).unwrap_or(0.0), lanes)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Records the median of per-call samples, with their count.
fn put_median(m: &mut Metrics, name: &str, unit: &'static str, samples: &[f64]) {
    m.put(name, med(samples), unit, samples.len());
}

/// The in-process half of the traced run.
fn trace_pipeline(
    jobs: usize,
    seed: u64,
    grader: &mut Grader,
    m: &mut Metrics,
) -> Result<(), String> {
    let (benchmarks, queries, stagg) = crate::suite::setup(jobs)?;
    let config = stagg.config().clone();
    let provider = config
        .oracle
        .provider()
        .map_err(|e| format!("oracle provider: {e}"))?;
    let order = Rng::new(seed, 0).permutation(queries.len());

    // `Stagg::lift` itself and the composed pipeline, interleaved per
    // benchmark so both see the same machine state.
    let mut layers = Layers::default();
    let mut tasks: Vec<(LiftTask, Vec<IoExample>)> = Vec::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut reports: Vec<(usize, LiftReport)> = Vec::with_capacity(order.len());
    let mut composed: Vec<Composed> = Vec::with_capacity(order.len());
    for (position, &i) in order.iter().enumerate() {
        let started = Instant::now();
        reports.push((i, stagg.lift(&queries[i])));
        untraced_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        composed.push(composed_lift(
            &provider,
            &config,
            &queries[i],
            position,
            &mut layers,
        ));
        traced_s += started.elapsed().as_secs_f64();
    }

    let mut report_search_us = 0.0;
    let mut pruned = 0u64;
    let mut report_attempts = 0u64;
    for ((i, report), c) in reports.iter().zip(composed) {
        let name = benchmarks[*i].name;
        let same_solution = report.solution.as_ref().map(ToString::to_string)
            == c.solution.as_ref().map(ToString::to_string);
        if report.solved() != c.solution.is_some()
            || (jobs == 1 && (!same_solution || report.attempts != c.attempts))
        {
            grader.fail(format!(
                "{name}: composed pipeline differs from Stagg::lift \
                 (solution {:?} vs {:?}, attempts {} vs {})",
                c.solution.as_ref().map(ToString::to_string),
                report.solution.as_ref().map(ToString::to_string),
                c.attempts,
                report.attempts
            ));
        }
        let outcome = match &c.solution {
            Some(p) => Outcome::Solved(p.to_string()),
            None => Outcome::Unsolved("unsolved".to_string()),
        };
        grader.grade(name, &outcome);
        report_search_us += report.phase_times.get(Phase::Search) as f64;
        pruned += report.pruned_infeasible + report.pruned_equivalent;
        report_attempts += report.attempts;
        tasks.push((queries[*i].task.clone(), c.examples));
    }

    let checks = &layers.checks;
    let search_self_us = layers.worker_wall_us - checks.checker_us;
    put_median(m, "cfront.parse_us", "us", &layers.parse_us);
    put_median(m, "cfront.reference_us", "us", &layers.reference_us);
    put_median(m, "analysis.kernel_us", "us", &layers.analysis_us);
    put_median(m, "oracle.round_us", "us", &layers.oracle_round_us);
    m.put("oracle.candidates", layers.candidates as f64, "count", 1);
    put_median(m, "template.ingest_us", "us", &layers.ingest_us);
    m.put(
        "template.parsed_ratio",
        ratio(layers.parsed as f64, layers.candidates as f64),
        "ratio",
        layers.candidates as usize,
    );
    put_median(m, "grammar.learn_us", "us", &layers.grammar_us);
    m.put("grammar.rules", layers.rules as f64, "count", 1);
    m.put("search.self_ms", search_self_us / 1e3, "ms", 1);
    m.put("search.report_ms", report_search_us / 1e3, "ms", 1);
    m.put("search.nodes", layers.nodes as f64, "count", 1);
    m.put("search.attempts", layers.attempts as f64, "count", 1);
    m.put(
        "search.nodes_per_s",
        ratio(layers.nodes as f64, search_self_us / 1e6),
        "1/s",
        1,
    );
    m.put(
        "search.busy_ratio",
        ratio(checks.checker_us, layers.worker_wall_us),
        "ratio",
        1,
    );
    m.put(
        "search.phase_gap_ratio",
        ratio(search_self_us - report_search_us, search_self_us),
        "ratio",
        1,
    );
    put_median(m, "validate.examples_us", "us", &layers.examples_us);
    put_median(m, "validate.call_us", "us", &checks.validate_call_us);
    m.put(
        "validate.subst_per_call",
        ratio(checks.substitutions as f64, checks.validate_calls as f64),
        "count",
        checks.validate_calls as usize,
    );
    m.put(
        "validate.pass_ratio",
        ratio(checks.io_passes as f64, checks.substitutions as f64),
        "ratio",
        checks.substitutions as usize,
    );
    put_median(m, "verify.call_us", "us", &checks.verify_us);
    m.put(
        "verify.equiv_ratio",
        ratio(
            checks.verify_equivalent as f64,
            checks.verify_us.len() as f64,
        ),
        "ratio",
        checks.verify_us.len(),
    );
    m.put(
        "taco.evalcache_hit_ratio",
        ratio(
            layers.cache_hits as f64,
            (layers.cache_hits + layers.cache_misses) as f64,
        ),
        "ratio",
        (layers.cache_hits + layers.cache_misses) as usize,
    );
    m.put(
        "core.pruned_ratio",
        ratio(pruned as f64, report_attempts as f64),
        "ratio",
        report_attempts as usize,
    );
    let (ns_per_lane, lanes) = batch_probe(&layers.batch_probe, &tasks);
    m.put("taco.batch_ns_per_lane", ns_per_lane, "ns", lanes);
    m.put("traced.suite_s", traced_s, "s", 1);
    m.put(
        "traced.overhead_ratio",
        ratio(traced_s - untraced_s, untraced_s),
        "ratio",
        1,
    );
    Ok(())
}

/// Median `ns` per item of `f` over [`PROBE_ROUNDS`] rounds.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let rounds: Vec<f64> = (0..PROBE_ROUNDS)
        .map(|_| {
            let started = Instant::now();
            for item in items {
                f(item);
            }
            started.elapsed().as_secs_f64() * 1e9 / items.len().max(1) as f64
        })
        .collect();
    med(&rounds)
}

/// Single-request latencies in `us` of cache hits on `labels` through a
/// TCP connection to `addr`.
fn tcp_hits(addr: &str, labels: &[String], grader: &mut Grader) -> Result<Vec<f64>, String> {
    let mut client = LiftClient::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let mut samples = Vec::with_capacity(labels.len());
    for (n, label) in labels.iter().enumerate() {
        let started = Instant::now();
        let events = client
            .lift(LiftRequest::benchmark(format!("hit{n}"), label))
            .map_err(|e| format!("{addr}: {e}"))?;
        samples.push(micros(started));
        grade_hit(label, events.last(), grader);
    }
    Ok(samples)
}

/// A hit probe must come back as a cached `done`.
fn grade_hit(label: &str, terminal: Option<&Event>, grader: &mut Grader) {
    if let Some(Event::Done { cached: false, .. }) = terminal {
        grader.fail(format!("{label}: hit probe was not served from the cache"));
    }
    grader.grade(label, &Outcome::of_terminal(terminal));
}

/// The store and serving half of the traced run. The stats window is
/// the warm window on `serve_warm` and the cold pass otherwise.
fn trace_serving(
    warm_window: bool,
    bins: &Binaries,
    work: &Path,
    seed: u64,
    grader: &mut Grader,
    m: &mut Metrics,
) -> Result<(), String> {
    let names: Vec<&str> = gtl_benchsuite::all_benchmarks()
        .iter()
        .map(|b| b.name)
        .collect();
    let dir = work.join("traced");
    let order = Rng::new(seed, 1).permutation(names.len());
    let (set, cold) = serving::start_warm(bins, &dir, &names, &order, true)?;
    let after_cold = serving::stats(&set.router)?;
    let draws = serving::draws_until(names.len(), Rng::new(seed, 2), None, Some(WARM_REQUESTS));
    let warm = serving::closed_loop(&set.router, &names, &draws, true);
    let after_warm = serving::stats(&set.router)?;
    serving::grade_session(&cold, &names, grader);
    serving::grade_session(&warm, &names, grader);
    let (before, after) = if warm_window {
        (&after_cold, &after_warm)
    } else {
        (&gtl_serve::ServerStats::default(), &after_cold)
    };
    let queue = after.queue_wait.diff(&before.queue_wait);
    let service = after.service_time.diff(&before.service_time);
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let p50_ms = |h: &gtl_trace::LatencyHistogram| {
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        hist_quantile(&buckets, 0.5).unwrap_or(0.0) / 1e3
    };
    m.put(
        "serve.queue_wait_p50_ms",
        p50_ms(&queue),
        "ms",
        queue.count() as usize,
    );
    m.put(
        "serve.service_p50_ms",
        p50_ms(&service),
        "ms",
        service.count() as usize,
    );
    m.put(
        "serve.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
        (hits + misses) as usize,
    );

    // Single hits: direct to one replica, then through the router. After
    // the cold pass every solved lift sits in both replicas' caches.
    let mut solved: Vec<String> = cold
        .exchanges
        .iter()
        .filter(|e| matches!(e.terminal, Some(Event::Done { .. })))
        .map(|e| names[e.kernel].to_string())
        .collect();
    solved.sort();
    solved.dedup();
    let mut rng = Rng::new(seed, 3);
    let probes: Vec<String> = rng
        .permutation(solved.len())
        .into_iter()
        .take(HIT_PROBES)
        .map(|i| solved[i].clone())
        .collect();
    let direct = tcp_hits(&set.replicas[0], &probes, grader)?;
    let routed = tcp_hits(&set.router, &probes, grader)?;
    let store_path = set.dir.join("replica0.log");
    set.stop();
    put_median(m, "serve.tcp_hit_us", "us", &direct);
    m.put(
        "serve.router_hop_us",
        med(&routed) - med(&direct),
        "us",
        routed.len(),
    );

    // The store: reopen the replica's log, then append its records to a
    // fresh log one by one.
    let mut open_us_per_record = Vec::new();
    let mut records = Vec::new();
    for _ in 0..PROBE_ROUNDS {
        let started = Instant::now();
        let store = LiftStore::open(&store_path).map_err(|e| format!("reopening store: {e}"))?;
        let us = micros(started);
        records = store.records();
        open_us_per_record.push(us / records.len().max(1) as f64);
    }
    m.put(
        "store.open_us_per_record",
        med(&open_us_per_record),
        "us",
        records.len(),
    );
    let fresh_path = dir.join("append.log");
    let fresh = LiftStore::open(&fresh_path).map_err(|e| format!("fresh store: {e}"))?;
    let mut append_us = Vec::with_capacity(records.len());
    for record in &records {
        let started = Instant::now();
        fresh
            .append(record.clone())
            .map_err(|e| format!("store append: {e}"))?;
        append_us.push(micros(started));
    }
    put_median(m, "store.append_us", "us", &append_us);

    // In-process hits: a server over the appended store, driven through
    // an event sink with no socket.
    let server = LiftServer::start(ServerConfig {
        workers: 1,
        store: Some(Arc::new(fresh)),
        ..ServerConfig::default()
    });
    let handle = server.handle();
    let mut inproc = Vec::with_capacity(probes.len());
    for (n, label) in probes.iter().enumerate() {
        let started = Instant::now();
        let events = handle.lift_blocking(LiftRequest::benchmark(format!("in{n}"), label));
        inproc.push(micros(started));
        grade_hit(label, events.last(), grader);
    }
    server.shutdown();
    put_median(m, "serve.inproc_hit_us", "us", &inproc);

    // The wire codec on this run's own messages.
    let lines: Vec<String> = cold
        .request_lines
        .iter()
        .chain(&warm.request_lines)
        .cloned()
        .collect();
    let events: Vec<Event> = cold.events.iter().chain(&warm.events).cloned().collect();
    m.put(
        "serve.decode_ns",
        ns_per_item(&lines, |l| {
            std::hint::black_box(Request::parse_line(l).is_ok());
        }),
        "ns",
        lines.len(),
    );
    m.put(
        "serve.encode_ns",
        ns_per_item(&events, |e| {
            std::hint::black_box(e.to_line());
        }),
        "ns",
        events.len(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The traced run of one workload: `jobs` search jobs for the composed
/// pipeline, and the warm window as the serving stats window on
/// `serve_warm`.
pub fn run(
    jobs: usize,
    warm_window: bool,
    bins: &Binaries,
    work: &Path,
    seed: u64,
    grader: &mut Grader,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    trace_pipeline(jobs, seed, grader, &mut m)?;
    trace_serving(warm_window, bins, work, seed, grader, &mut m)?;
    Ok(m)
}
