//! The parallel lifting engine: a worker pool over the shared ranked
//! frontier.
//!
//! The template space is embarrassingly parallel — checking one complete
//! template (substitution validation + bounded verification) never
//! depends on another — so the engine runs N workers against one
//! priority queue of partial derivation trees:
//!
//! - a [`ShardedSeenSet`] deduplicates canonicalised templates, so no
//!   two workers ever send the same template to a checker;
//! - a [`CancelFlag`] stops every worker as soon as the first
//!   [`CheckOutcome::Verified`] lands (or a budget trips);
//! - each worker owns its private checker built by a caller-supplied
//!   factory (keyed by worker index, so any per-worker randomness can be
//!   seeded deterministically).
//!
//! With `jobs <= 1` the engine delegates to the sequential loop and is
//! bit-identical to [`crate::top_down_search`] / [`crate::bottom_up_search`].
//! With `jobs > 1` the same solution space is explored, but attempt
//! ordering — and therefore *which* of several semantically equivalent
//! solutions is found first — may differ. Classification
//! (solved / exhausted / budget) is preserved whenever budgets are not
//! the binding constraint: deduplication means a parallel run spends
//! its `max_attempts` on *distinct* templates (never more checks than
//! sequential, possibly fewer), and wall-clock limits are measured
//! against real time, so a run right at the edge of `time_limit` or
//! `max_attempts` can classify differently from sequential.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gtl_taco::TacoProgram;
use gtl_template::TemplateGrammar;

use crate::bottomup::BuExpand;
use crate::driver::{
    Priority, SearchBudget, SearchHooks, SearchOutcome, SearchProgress, StopReason,
    TemplateChecker,
};
use crate::frontier::{run_sequential_hooked, Expand, QEntry};
use crate::penalty::PenaltyContext;
use crate::topdown::TdExpand;

/// Knobs of a parallel search run.
#[derive(Debug, Clone, Copy)]
pub struct ParallelOptions {
    /// Worker threads. `0` and `1` both mean "run sequentially".
    pub jobs: usize,
    /// Shard count of the seen-set (power of two recommended; more
    /// shards, less lock contention).
    pub seen_shards: usize,
    /// Nodes a worker pops per frontier-lock acquisition (minimum 1).
    /// Batching cuts contention on the one frontier mutex at high job
    /// counts; the popped nodes are still processed best-first within
    /// the batch, and cancellation/budget checks run between nodes, so
    /// the engine's stopping guarantees are unchanged.
    pub pop_batch: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seen_shards: 16,
            pop_batch: 4,
        }
    }
}

impl ParallelOptions {
    /// Options with an explicit job count and default sharding.
    pub fn with_jobs(jobs: usize) -> ParallelOptions {
        ParallelOptions {
            jobs,
            ..ParallelOptions::default()
        }
    }
}

/// A cooperative cancellation flag shared by all workers of one search.
/// Raised by the first verified solution (or a tripped budget); workers
/// poll it between frontier pops.
#[derive(Debug, Default)]
pub struct CancelFlag {
    raised: AtomicBool,
}

impl CancelFlag {
    /// A fresh, unraised flag.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Raises the flag (idempotent).
    pub fn cancel(&self) {
        self.raised.store(true, Ordering::Release);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.raised.load(Ordering::Acquire)
    }
}

/// A sharded concurrent set of canonicalised-template fingerprints.
///
/// Insertion locks only the shard the fingerprint hashes into, so
/// workers rarely contend. Guarantees exactly-once semantics: for any
/// fingerprint, exactly one `insert` call across all threads returns
/// `true`.
#[derive(Debug)]
pub struct ShardedSeenSet {
    shards: Vec<Mutex<HashSet<u64>>>,
}

impl ShardedSeenSet {
    /// Creates a set with `shards` shards (minimum 1).
    pub fn new(shards: usize) -> ShardedSeenSet {
        ShardedSeenSet {
            shards: (0..shards.max(1)).map(|_| Mutex::new(HashSet::new())).collect(),
        }
    }

    /// Inserts a raw fingerprint; `true` iff it was not present.
    pub fn insert(&self, fingerprint: u64) -> bool {
        let shard = (fingerprint as usize) % self.shards.len();
        self.shards[shard]
            .lock()
            .expect("seen-set shard poisoned")
            .insert(fingerprint)
    }

    /// Inserts a template by its canonical fingerprint; `true` iff no
    /// algebraically equivalent template was inserted before.
    pub fn insert_program(&self, program: &TacoProgram) -> bool {
        self.insert(fingerprint_program(program))
    }

    /// Total number of distinct fingerprints inserted.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("seen-set shard poisoned").len())
            .sum()
    }

    /// Whether no fingerprint has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The canonical fingerprint of a template:
/// [`gtl_taco::canonical_fingerprint`], which canonicalizes the
/// algebra (commutative sorting, constant folding, neutral elements)
/// and α-renames slots, summation indices, and `Const` ids. Two
/// templates with equal fingerprints enumerate identical substitution
/// sets, so deduplicating on it never hides a solution. (Hashing the
/// printed form — the previous key — missed commuted and renamed
/// variants and burned attempts re-checking them.)
pub fn fingerprint_program(program: &TacoProgram) -> u64 {
    gtl_taco::canonical_fingerprint(program)
}

/// A purely syntactic fingerprint, used to tell "this exact template
/// was generated twice" apart from "a distinct spelling of an
/// already-seen equivalence class" when counting prunes. Hashes the
/// AST, not the printed form, which is ambiguous (`(x*y)/z` and
/// `x*(y/z)` display identically).
fn syntactic_fingerprint(program: &TacoProgram) -> u64 {
    let mut h = DefaultHasher::new();
    program.hash(&mut h);
    h.finish()
}

/// Shared state of one parallel run over trees borrowing from `'g`.
struct Shared<'g> {
    queue: Mutex<BinaryHeap<QEntry<'g>>>,
    /// Monotone tie-break sequence for frontier pushes.
    seq: AtomicU64,
    /// Nodes currently being expanded (termination detection: the space
    /// is exhausted only when the queue is empty AND nothing is in
    /// flight that could refill it).
    in_flight: AtomicUsize,
    /// Node/attempt counters; doubles as the externally pollable
    /// progress tracker when the caller supplied one through hooks.
    progress: Arc<SearchProgress>,
    cancel: CancelFlag,
    /// The caller's cancellation flag, polled alongside the internal one.
    external_cancel: Option<Arc<CancelFlag>>,
    /// Set when the run stopped because the external flag was raised.
    externally_cancelled: AtomicBool,
    budget_hit: AtomicBool,
    solution: Mutex<Option<(TacoProgram, TacoProgram)>>,
    seen: ShardedSeenSet,
    /// Exact-syntax fingerprints, kept alongside the canonical set so
    /// equivalence prunes (new spelling, seen equivalence class) can be
    /// counted separately from plain re-generations.
    syntactic: ShardedSeenSet,
    pruned_equivalent: AtomicU64,
}

impl Shared<'_> {
    fn over_budget(&self, started: Instant, budget: &SearchBudget) -> bool {
        self.progress.nodes() >= budget.max_nodes
            || self.progress.attempts() >= budget.max_attempts
            || started.elapsed() >= budget.time_limit
    }
}

/// Runs the worker pool over an expander. Generic (not `dyn`) because
/// workers on different threads need `E: Sync`.
fn run_parallel<'g, E, C, F>(
    exp: &E,
    budget: SearchBudget,
    opts: ParallelOptions,
    hooks: &SearchHooks,
    make_checker: &F,
) -> SearchOutcome
where
    E: Expand<'g> + Sync,
    C: TemplateChecker,
    F: Fn(usize) -> C + Sync,
{
    let started = Instant::now();
    let shared = Shared {
        queue: Mutex::new(BinaryHeap::new()),
        seq: AtomicU64::new(1),
        in_flight: AtomicUsize::new(0),
        progress: hooks
            .progress
            .clone()
            .unwrap_or_else(|| Arc::new(SearchProgress::new())),
        cancel: CancelFlag::new(),
        external_cancel: hooks.cancel.clone(),
        externally_cancelled: AtomicBool::new(false),
        budget_hit: AtomicBool::new(false),
        solution: Mutex::new(None),
        seen: ShardedSeenSet::new(opts.seen_shards),
        syntactic: ShardedSeenSet::new(opts.seen_shards),
        pruned_equivalent: AtomicU64::new(0),
    };
    shared
        .queue
        .lock()
        .expect("frontier poisoned")
        .push(QEntry {
            f: Priority(0.0),
            seq: 0,
            tree: exp.root(),
            cost: 0.0,
        });

    std::thread::scope(|scope| {
        for worker in 0..opts.jobs {
            let shared = &shared;
            let budget = &budget;
            scope.spawn(move || {
                let mut checker = make_checker(worker);
                worker_loop(exp, shared, started, budget, opts.pop_batch, &mut checker);
            });
        }
    });

    let solution = shared
        .solution
        .lock()
        .expect("solution slot poisoned")
        .take();
    let stop = if solution.is_some() {
        StopReason::Solved
    } else if shared.externally_cancelled.load(Ordering::Relaxed) {
        StopReason::Cancelled
    } else if shared.budget_hit.load(Ordering::Relaxed) {
        StopReason::BudgetExceeded
    } else {
        StopReason::Exhausted
    };
    let (template, concrete) = match solution {
        Some((t, c)) => (Some(t), Some(c)),
        None => (None, None),
    };
    let attempts = shared.progress.attempts();
    let pruned_equivalent = shared.pruned_equivalent.load(Ordering::Relaxed);
    let nodes_expanded = shared.progress.nodes();
    // Freeing the frontier and seen-sets is search work: do it before
    // the clock stops, as the sequential engine does.
    drop(shared);
    SearchOutcome {
        solution: concrete,
        template,
        attempts,
        pruned_equivalent,
        nodes_expanded,
        elapsed: started.elapsed(),
        stop,
    }
}

/// Decrements `in_flight` when dropped — including during unwinding, so
/// a panicking worker cannot strand the termination count.
struct FlightGuard<'a, 'g>(&'a Shared<'g>);

impl Drop for FlightGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Raises the cancellation flag if the worker unwinds, so sibling
/// workers stop instead of spinning forever on a frontier that will
/// never drain (`std::thread::scope` then propagates the panic).
struct PanicGuard<'a, 'g>(&'a Shared<'g>);

impl Drop for PanicGuard<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.cancel.cancel();
        }
    }
}

/// A worker's locally claimed frontier slice. Entries it holds are
/// counted in `in_flight`; whatever is still unprocessed when the
/// worker exits (cancellation, budget, panic) is decremented on drop so
/// termination detection never strands.
struct Batch<'a, 'g> {
    shared: &'a Shared<'g>,
    entries: std::collections::VecDeque<QEntry<'g>>,
}

impl Drop for Batch<'_, '_> {
    fn drop(&mut self) {
        if !self.entries.is_empty() {
            self.shared
                .in_flight
                .fetch_sub(self.entries.len(), Ordering::SeqCst);
        }
    }
}

fn worker_loop<'g, E: Expand<'g>>(
    exp: &E,
    shared: &Shared<'g>,
    started: Instant,
    budget: &SearchBudget,
    pop_batch: usize,
    checker: &mut dyn TemplateChecker,
) {
    let _panic_guard = PanicGuard(shared);
    let pop_batch = pop_batch.max(1);
    let mut batch = Batch {
        shared,
        entries: std::collections::VecDeque::with_capacity(pop_batch),
    };
    // Candidates collected from the current local batch, checked in one
    // `check_many` flush when the batch drains. Deduplication and the
    // attempt counter run at collection time (so budget accounting is
    // unchanged); a worker that exits on a stop condition abandons its
    // pending candidates exactly as it abandons unprocessed batch
    // entries — the run is over, their outcome cannot matter.
    let mut pending: Vec<TacoProgram> = Vec::with_capacity(pop_batch);
    loop {
        // Stop conditions are polled once per *node*, batched or not:
        // a worker abandons its remaining local entries the moment the
        // run terminates (their in-flight count is released by `Batch`'s
        // drop — the run is over, nobody will pop them again).
        if let Some(external) = &shared.external_cancel {
            if external.is_cancelled() {
                shared.externally_cancelled.store(true, Ordering::Relaxed);
                shared.cancel.cancel();
                return;
            }
        }
        if shared.cancel.is_cancelled() {
            return;
        }
        if shared.over_budget(started, budget) {
            shared.budget_hit.store(true, Ordering::Relaxed);
            shared.cancel.cancel();
            return;
        }
        // Refill the local batch: pop up to `pop_batch` nodes and mark
        // them in-flight under one lock acquisition (the contention
        // win). The exhaustion check must also run under that lock: an
        // in-flight sibling can only make its children visible by
        // taking the lock, so "queue empty and in_flight == 0" observed
        // *inside* the critical section is a consistent snapshot —
        // outside it, a sibling could push and decrement between our
        // two reads and we would exit with work still queued. Locally
        // held batch entries stay counted in `in_flight`, so they keep
        // the run alive exactly like a node mid-expansion.
        if batch.entries.is_empty() {
            // Flush collected candidates before refilling (and before the
            // exhaustion check below, so nothing is left unchecked when
            // the frontier drains). The checker polls the same stop
            // conditions between templates as this loop polls between
            // nodes.
            if !pending.is_empty() {
                let mut should_stop = || {
                    shared.cancel.is_cancelled()
                        || shared
                            .external_cancel
                            .as_deref()
                            .is_some_and(CancelFlag::is_cancelled)
                        || shared.over_budget(started, budget)
                };
                if let Some((idx, concrete)) = checker.check_many(&pending, &mut should_stop) {
                    let template = pending.swap_remove(idx);
                    let mut slot = shared.solution.lock().expect("solution slot poisoned");
                    if slot.is_none() {
                        *slot = Some((template, concrete));
                    }
                    drop(slot);
                    shared.cancel.cancel();
                    return;
                }
                pending.clear();
            }
            let refilled = {
                let mut q = shared.queue.lock().expect("frontier poisoned");
                while batch.entries.len() < pop_batch {
                    match q.pop() {
                        Some(e) => batch.entries.push_back(e),
                        None => break,
                    }
                }
                let popped = batch.entries.len();
                if popped > 0 {
                    shared.in_flight.fetch_add(popped, Ordering::SeqCst);
                    true
                } else if shared.in_flight.load(Ordering::SeqCst) == 0 {
                    return; // exhausted
                } else {
                    false
                }
            };
            if !refilled {
                std::thread::yield_now();
                continue;
            }
        }
        // Best-first within the batch: the heap popped in priority
        // order, the deque preserves it.
        let entry = batch.entries.pop_front().expect("refilled above");
        // Ownership of this entry's in-flight count moves to the guard.
        let _flight_guard = FlightGuard(shared);
        shared.progress.add_node();
        if !exp.skip(&entry.tree) {
            if let Some(template) = exp.candidate(&entry.tree) {
                // Exactly-once collection per canonical template; the
                // actual check runs in the next batch flush. A template
                // whose exact spelling is new but whose equivalence
                // class is not was pruned by canonicalization — count
                // it (plain re-generations of a seen spelling are not
                // prunes, the grammar just revisited a derivation).
                if shared.seen.insert_program(&template) {
                    shared.syntactic.insert(syntactic_fingerprint(&template));
                    shared.progress.add_attempt();
                    pending.push(template);
                } else if shared.syntactic.insert(syntactic_fingerprint(&template)) {
                    shared.pruned_equivalent.fetch_add(1, Ordering::Relaxed);
                }
            }
            let children = exp.children(&entry.tree, entry.cost);
            if !children.is_empty() {
                let mut q = shared.queue.lock().expect("frontier poisoned");
                for child in children {
                    q.push(QEntry {
                        f: Priority(child.f),
                        seq: shared.seq.fetch_add(1, Ordering::Relaxed),
                        tree: child.tree,
                        cost: child.cost,
                    });
                }
            }
        }
    }
}

/// Parallel counterpart of [`crate::top_down_search`].
///
/// `make_checker` builds one private checker per worker (the argument is
/// the worker index — seed any per-worker randomness from it for
/// deterministic runs). With `opts.jobs <= 1` this is exactly the
/// sequential search.
///
/// # Example
///
/// ```
/// use gtl_search::*;
/// use gtl_taco::{parse_program, TacoProgram};
/// use gtl_template::{generate_td_grammar, learn_weights, templatize, TdSpec};
///
/// // A grammar learned from one LLM-style candidate.
/// let cands: Vec<_> = ["r(i) = m(i,j) * v(j)"]
///     .iter()
///     .map(|s| templatize(&parse_program(s).unwrap()).unwrap())
///     .collect();
/// let mut g = generate_td_grammar(&TdSpec {
///     dim_list: vec![1, 2, 1],
///     n_indices: 2,
///     allow_repeated_index: false,
///     include_const: false,
/// });
/// learn_weights(&mut g, &cands);
/// let ctx = PenaltyContext {
///     dim_list: g.dim_list.clone(),
///     grammar_has_const: g.nts.constant.is_some(),
///     live_ops: g.live_ops(),
///     settings: PenaltySettings::all(),
/// };
///
/// // Four workers race over the frontier; the first verified template
/// // cancels the rest. Each worker gets its own checker.
/// let want = parse_program("a(i) = b(i,j) * c(j)").unwrap();
/// let out = parallel_top_down_search(
///     &g,
///     &ctx,
///     SearchBudget::default(),
///     ParallelOptions::with_jobs(4),
///     |_worker| {
///         let want = want.clone();
///         move |t: &TacoProgram| {
///             if *t == want { CheckOutcome::Verified(t.clone()) } else { CheckOutcome::Failed }
///         }
///     },
/// );
/// assert!(out.solved());
/// assert_eq!(out.stop, StopReason::Solved);
/// ```
///
/// # Panics
///
/// Panics if `grammar` is not top-down shaped.
pub fn parallel_top_down_search<C, F>(
    grammar: &TemplateGrammar,
    ctx: &PenaltyContext,
    budget: SearchBudget,
    opts: ParallelOptions,
    make_checker: F,
) -> SearchOutcome
where
    C: TemplateChecker,
    F: Fn(usize) -> C + Sync,
{
    parallel_top_down_search_hooked(
        grammar,
        ctx,
        budget,
        opts,
        &SearchHooks::default(),
        make_checker,
    )
}

/// [`parallel_top_down_search`] with external hooks: the caller's
/// [`CancelFlag`] stops all workers promptly (outcome
/// [`StopReason::Cancelled`]) and the caller's
/// [`SearchProgress`](crate::SearchProgress) is updated live — a serving
/// layer polls it from another thread to stream progress events.
///
/// # Panics
///
/// Panics if `grammar` is not top-down shaped.
pub fn parallel_top_down_search_hooked<C, F>(
    grammar: &TemplateGrammar,
    ctx: &PenaltyContext,
    budget: SearchBudget,
    opts: ParallelOptions,
    hooks: &SearchHooks,
    make_checker: F,
) -> SearchOutcome
where
    C: TemplateChecker,
    F: Fn(usize) -> C + Sync,
{
    let exp = TdExpand::new(grammar, ctx, budget.max_depth);
    if opts.jobs <= 1 {
        let mut checker = make_checker(0);
        return run_sequential_hooked(&exp, budget, &mut checker, hooks);
    }
    run_parallel(&exp, budget, opts, hooks, &make_checker)
}

/// Parallel counterpart of [`crate::bottom_up_search`]; see
/// [`parallel_top_down_search`] for the contract.
///
/// # Panics
///
/// Panics if `grammar` is not bottom-up shaped.
pub fn parallel_bottom_up_search<C, F>(
    grammar: &TemplateGrammar,
    ctx: &PenaltyContext,
    budget: SearchBudget,
    opts: ParallelOptions,
    make_checker: F,
) -> SearchOutcome
where
    C: TemplateChecker,
    F: Fn(usize) -> C + Sync,
{
    parallel_bottom_up_search_hooked(
        grammar,
        ctx,
        budget,
        opts,
        &SearchHooks::default(),
        make_checker,
    )
}

/// [`parallel_bottom_up_search`] with external hooks; see
/// [`parallel_top_down_search_hooked`] for the hook contract.
///
/// # Panics
///
/// Panics if `grammar` is not bottom-up shaped.
pub fn parallel_bottom_up_search_hooked<C, F>(
    grammar: &TemplateGrammar,
    ctx: &PenaltyContext,
    budget: SearchBudget,
    opts: ParallelOptions,
    hooks: &SearchHooks,
    make_checker: F,
) -> SearchOutcome
where
    C: TemplateChecker,
    F: Fn(usize) -> C + Sync,
{
    let exp = BuExpand::new(grammar, ctx);
    if opts.jobs <= 1 {
        let mut checker = make_checker(0);
        return run_sequential_hooked(&exp, budget, &mut checker, hooks);
    }
    run_parallel(&exp, budget, opts, hooks, &make_checker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    use gtl_taco::parse_program;
    use gtl_template::{generate_td_grammar, learn_weights, templatize, TdSpec};

    use crate::driver::CheckOutcome;
    use crate::penalty::PenaltySettings;

    fn grammar_with(cands: &[&str], dims: Vec<usize>, n_indices: usize) -> TemplateGrammar {
        let templates: Vec<_> = cands
            .iter()
            .map(|s| templatize(&parse_program(s).unwrap()).unwrap())
            .collect();
        let mut g = generate_td_grammar(&TdSpec {
            dim_list: dims,
            n_indices,
            allow_repeated_index: false,
            include_const: false,
        });
        learn_weights(&mut g, &templates);
        g
    }

    fn ctx_for(g: &TemplateGrammar) -> PenaltyContext {
        PenaltyContext {
            dim_list: g.dim_list.clone(),
            grammar_has_const: g.nts.constant.is_some(),
            live_ops: g.live_ops(),
            settings: PenaltySettings::all(),
        }
    }

    #[test]
    fn sharded_seen_set_is_exactly_once_under_contention() {
        let seen = Arc::new(ShardedSeenSet::new(8));
        let hits = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let seen = Arc::clone(&seen);
                let hits = Arc::clone(&hits);
                s.spawn(move || {
                    for fp in 0u64..1000 {
                        if seen.insert(fp) {
                            hits.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        // 4 threads × 1000 shared fingerprints → exactly 1000 firsts.
        assert_eq!(hits.load(Ordering::SeqCst), 1000);
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn seen_set_merges_algebraically_equivalent_templates() {
        let seen = ShardedSeenSet::new(4);
        assert!(seen.insert_program(&parse_program("a(i) = b(i,j) * c(j)").unwrap()));
        // Commuted operands and renamed summation indices are the same
        // equivalence class — the old printed-form key missed both.
        assert!(!seen.insert_program(&parse_program("a(i) = c(j) * b(i,j)").unwrap()));
        assert!(!seen.insert_program(&parse_program("a(i) = b(i,k) * c(k)").unwrap()));
        // A transpose is a genuinely different template.
        assert!(seen.insert_program(&parse_program("a(i) = b(j,i) * c(j)").unwrap()));
    }

    #[test]
    fn fingerprints_distinguish_programs() {
        let a = parse_program("a(i) = b(i,j) * c(j)").unwrap();
        let b = parse_program("a(i) = b(j,i) * c(j)").unwrap();
        assert_ne!(fingerprint_program(&a), fingerprint_program(&b));
        assert_eq!(fingerprint_program(&a), fingerprint_program(&a.clone()));
    }

    #[test]
    fn cancel_flag_is_sticky_and_shared() {
        let flag = CancelFlag::new();
        assert!(!flag.is_cancelled());
        std::thread::scope(|s| {
            s.spawn(|| flag.cancel());
        });
        assert!(flag.is_cancelled());
        flag.cancel();
        assert!(flag.is_cancelled());
    }

    #[test]
    fn parallel_finds_gemv_template() {
        let g = grammar_with(
            &[
                "r(i) = m(i,j) * v(j)",
                "r(i) = m(j,i) * v(i)",
                "r(i) = m(i,j) * v(i)",
            ],
            vec![1, 2, 1],
            2,
        );
        let ctx = ctx_for(&g);
        let want = parse_program("a(i) = b(i,j) * c(j)").unwrap();
        let out = parallel_top_down_search(
            &g,
            &ctx,
            SearchBudget::default(),
            ParallelOptions::with_jobs(4),
            |_worker| {
                let want = want.clone();
                move |t: &TacoProgram| {
                    if *t == want {
                        CheckOutcome::Verified(t.clone())
                    } else {
                        CheckOutcome::Failed
                    }
                }
            },
        );
        assert!(out.solved(), "parallel search must solve gemv");
        assert_eq!(out.solution.unwrap(), want);
        assert_eq!(out.stop, StopReason::Solved);
    }

    #[test]
    fn no_template_is_checked_twice_across_workers() {
        // Every checker invocation registers the template; the sharded
        // seen-set must make each canonical template reach a checker at
        // most once even with 4 workers racing. Identity is the
        // canonical key — the printed form is ambiguous (`(x*y)/z` and
        // `x*(y/z)` display identically but are distinct templates).
        let g = grammar_with(&["r(i) = m(i,j) * v(j)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        let checked = Arc::new(Mutex::new(Vec::<String>::new()));
        let out = parallel_top_down_search(
            &g,
            &ctx,
            SearchBudget {
                max_attempts: 200,
                ..SearchBudget::default()
            },
            ParallelOptions::with_jobs(4),
            |_worker| {
                let checked = Arc::clone(&checked);
                move |t: &TacoProgram| {
                    checked.lock().unwrap().push(gtl_taco::canonical_key(t));
                    CheckOutcome::Failed
                }
            },
        );
        assert!(!out.solved());
        let seen = checked.lock().unwrap();
        let mut dedup = seen.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(
            seen.len(),
            dedup.len(),
            "a template reached checkers twice: {seen:?}"
        );
        assert!(!seen.is_empty(), "search should have checked something");
    }

    #[test]
    fn workers_stop_after_first_verification() {
        // Accept the very first template each worker sees; after the
        // winning verification cancels the run, no further checks may
        // start. With 4 workers the total number of checker calls is at
        // most the number of workers (each may have had one in flight).
        let g = grammar_with(&["r(i) = m(i,j) * v(j)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        let calls = Arc::new(AtomicUsize::new(0));
        let out = parallel_top_down_search(
            &g,
            &ctx,
            SearchBudget::default(),
            ParallelOptions::with_jobs(4),
            |_worker| {
                let calls = Arc::clone(&calls);
                move |t: &TacoProgram| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    CheckOutcome::Verified(t.clone())
                }
            },
        );
        assert!(out.solved());
        assert!(
            calls.load(Ordering::SeqCst) <= 4,
            "workers kept checking after cancellation: {} calls",
            calls.load(Ordering::SeqCst)
        );
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates_instead_of_hanging() {
        // A checker panic must cancel the siblings and resurface via
        // thread::scope — never strand the pool spinning on a frontier
        // that will not drain.
        let g = grammar_with(&["r(i) = m(i,j) * v(j)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        let _ = parallel_top_down_search(
            &g,
            &ctx,
            SearchBudget::default(),
            ParallelOptions::with_jobs(4),
            |_worker| |_t: &TacoProgram| -> CheckOutcome { panic!("checker exploded") },
        );
    }

    #[test]
    fn external_cancel_stops_workers_promptly() {
        // Raise the caller's flag after the fifth check: the run must end
        // `Cancelled`, and after the raise each worker may finish at most
        // the one check it already had in flight.
        let g = grammar_with(&["r(i) = m(i,j) * v(j)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        let cancel = Arc::new(CancelFlag::new());
        let hooks = SearchHooks::with_cancel(Arc::clone(&cancel));
        let calls = Arc::new(AtomicUsize::new(0));
        let out = parallel_top_down_search_hooked(
            &g,
            &ctx,
            SearchBudget {
                max_attempts: 100_000,
                max_nodes: 1_000_000,
                ..SearchBudget::default()
            },
            ParallelOptions::with_jobs(4),
            &hooks,
            |_worker| {
                let calls = Arc::clone(&calls);
                let cancel = Arc::clone(&cancel);
                move |_t: &TacoProgram| {
                    if calls.fetch_add(1, Ordering::SeqCst) + 1 >= 5 {
                        cancel.cancel();
                    }
                    CheckOutcome::Failed
                }
            },
        );
        assert_eq!(out.stop, StopReason::Cancelled);
        assert!(!out.solved());
        assert!(
            calls.load(Ordering::SeqCst) <= 5 + 4,
            "workers kept checking long after cancellation: {} calls",
            calls.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn pre_raised_cancel_stops_sequential_path_immediately() {
        // jobs = 1 routes through the hooked sequential loop; a flag
        // raised before the first pop must stop it before any check.
        let g = grammar_with(&["r(i) = m(i,j) * v(j)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        let cancel = Arc::new(CancelFlag::new());
        cancel.cancel();
        let hooks = SearchHooks::with_cancel(Arc::clone(&cancel));
        let out = parallel_top_down_search_hooked(
            &g,
            &ctx,
            SearchBudget::default(),
            ParallelOptions::with_jobs(1),
            &hooks,
            |_worker| |_t: &TacoProgram| -> CheckOutcome { panic!("must never be checked") },
        );
        assert_eq!(out.stop, StopReason::Cancelled);
        assert_eq!(out.attempts, 0);
    }

    #[test]
    fn progress_hook_tracks_counters_live() {
        let g = grammar_with(&["r(i) = m(i,j) * v(j)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        let progress = Arc::new(SearchProgress::new());
        let hooks = SearchHooks {
            cancel: None,
            progress: Some(Arc::clone(&progress)),
        };
        let out = parallel_top_down_search_hooked(
            &g,
            &ctx,
            SearchBudget {
                max_attempts: 50,
                ..SearchBudget::default()
            },
            ParallelOptions::with_jobs(2),
            &hooks,
            |_worker| |_t: &TacoProgram| CheckOutcome::Failed,
        );
        // The tracker is the engine's own counter storage, so the final
        // outcome must agree with it exactly.
        assert_eq!(progress.nodes(), out.nodes_expanded);
        assert_eq!(progress.attempts(), out.attempts);
        assert!(progress.nodes() > 0);
    }

    #[test]
    fn jobs_one_matches_sequential_exactly() {
        let g = grammar_with(
            &["r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(i)"],
            vec![1, 2, 1],
            2,
        );
        let ctx = ctx_for(&g);
        let want = parse_program("a(i) = b(j,i) * c(j)").unwrap();
        let mk = |want: TacoProgram| {
            move |t: &TacoProgram| {
                if *t == want {
                    CheckOutcome::Verified(t.clone())
                } else {
                    CheckOutcome::Failed
                }
            }
        };
        let mut sequential_checker = mk(want.clone());
        let seq_out = crate::top_down_search(
            &g,
            &ctx,
            SearchBudget::default(),
            &mut sequential_checker,
        );
        let par_out = parallel_top_down_search(
            &g,
            &ctx,
            SearchBudget::default(),
            ParallelOptions::with_jobs(1),
            |_| mk(want.clone()),
        );
        assert_eq!(seq_out.solution, par_out.solution);
        assert_eq!(seq_out.template, par_out.template);
        assert_eq!(seq_out.attempts, par_out.attempts);
        assert_eq!(seq_out.nodes_expanded, par_out.nodes_expanded);
        assert_eq!(seq_out.stop, par_out.stop);
    }

    #[test]
    fn batched_pops_preserve_exactly_once_and_classification() {
        // The contention optimisation (pop up to k nodes per lock
        // acquisition) must not change the engine's guarantees: no
        // template reaches a checker twice, and exhaustion
        // classification matches the unbatched run and the sequential
        // loop. The depth limit makes the space small enough to
        // genuinely exhaust, so the distinct-template set is
        // order-independent and must be identical at every batch size.
        let g = grammar_with(&["r(i) = m(i) + v(i)"], vec![1, 1, 1], 1);
        let ctx = ctx_for(&g);
        let budget = SearchBudget {
            max_nodes: 500_000,
            max_attempts: 200_000,
            max_depth: 3,
            ..SearchBudget::default()
        };
        let seq = {
            let mut never = |_t: &TacoProgram| CheckOutcome::Failed;
            crate::top_down_search(&g, &ctx, budget, &mut never)
        };
        let mut reference: Option<Vec<String>> = None;
        for pop_batch in [1, 2, 8, 64] {
            let checked = Arc::new(Mutex::new(Vec::<String>::new()));
            let out = {
                let exp_opts = ParallelOptions {
                    jobs: 4,
                    pop_batch,
                    ..ParallelOptions::default()
                };
                let checked = Arc::clone(&checked);
                parallel_top_down_search(&g, &ctx, budget, exp_opts, move |_worker| {
                    let checked = Arc::clone(&checked);
                    move |t: &TacoProgram| {
                        checked.lock().unwrap().push(gtl_taco::canonical_key(t));
                        CheckOutcome::Failed
                    }
                })
            };
            assert_eq!(seq.stop, StopReason::Exhausted, "space must exhaust");
            assert_eq!(out.stop, seq.stop, "pop_batch {pop_batch} classification");
            let seen = checked.lock().unwrap();
            let mut dedup = seen.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(
                seen.len(),
                dedup.len(),
                "pop_batch {pop_batch}: a template reached checkers twice"
            );
            // Dedup means a parallel run checks at most as many
            // templates as sequential attempts…
            assert!(seen.len() as u64 <= seq.attempts);
            // …and on full exhaustion every batching level explores the
            // identical distinct-template set.
            match &reference {
                None => reference = Some(dedup),
                Some(reference) => assert_eq!(
                    *reference, dedup,
                    "pop_batch {pop_batch}: distinct template set diverged"
                ),
            }
        }
    }

    #[test]
    fn batched_pops_keep_jobs_one_bit_identical() {
        // jobs <= 1 routes through the sequential loop, so the batching
        // knob must be a no-op there — the determinism contract.
        let g = grammar_with(
            &["r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(i)"],
            vec![1, 2, 1],
            2,
        );
        let ctx = ctx_for(&g);
        let want = parse_program("a(i) = b(j,i) * c(j)").unwrap();
        let mk = |want: TacoProgram| {
            move |t: &TacoProgram| {
                if *t == want {
                    CheckOutcome::Verified(t.clone())
                } else {
                    CheckOutcome::Failed
                }
            }
        };
        let mut sequential_checker = mk(want.clone());
        let seq = crate::top_down_search(
            &g,
            &ctx,
            SearchBudget::default(),
            &mut sequential_checker,
        );
        let batched = parallel_top_down_search(
            &g,
            &ctx,
            SearchBudget::default(),
            ParallelOptions {
                jobs: 1,
                pop_batch: 64,
                ..ParallelOptions::default()
            },
            |_| mk(want.clone()),
        );
        assert_eq!(seq.solution, batched.solution);
        assert_eq!(seq.template, batched.template);
        assert_eq!(seq.attempts, batched.attempts);
        assert_eq!(seq.nodes_expanded, batched.nodes_expanded);
        assert_eq!(seq.stop, batched.stop);
    }

    #[test]
    fn batched_pops_solve_and_cancel_promptly() {
        let g = grammar_with(
            &[
                "r(i) = m(i,j) * v(j)",
                "r(i) = m(j,i) * v(i)",
                "r(i) = m(i,j) * v(i)",
            ],
            vec![1, 2, 1],
            2,
        );
        let ctx = ctx_for(&g);
        let want = parse_program("a(i) = b(i,j) * c(j)").unwrap();
        let calls = Arc::new(AtomicUsize::new(0));
        let out = parallel_top_down_search(
            &g,
            &ctx,
            SearchBudget::default(),
            ParallelOptions {
                jobs: 4,
                pop_batch: 16,
                ..ParallelOptions::default()
            },
            |_worker| {
                let want = want.clone();
                let calls = Arc::clone(&calls);
                move |t: &TacoProgram| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    if *t == want {
                        CheckOutcome::Verified(t.clone())
                    } else {
                        CheckOutcome::Failed
                    }
                }
            },
        );
        assert!(out.solved());
        assert_eq!(out.stop, StopReason::Solved);
        // Abandoned batch entries must not be double-counted or strand
        // the run; the check count stays bounded by distinct templates.
        assert!(calls.load(Ordering::SeqCst) as u64 <= out.attempts + 4);
    }

    #[test]
    fn parallel_bottom_up_solves_chains() {
        let templates: Vec<_> = ["r(i) = m(i,j) * v(j)"]
            .iter()
            .map(|s| templatize(&parse_program(s).unwrap()).unwrap())
            .collect();
        let mut g = gtl_template::generate_bu_grammar(&TdSpec {
            dim_list: vec![1, 2, 1],
            n_indices: 2,
            allow_repeated_index: false,
            include_const: false,
        });
        learn_weights(&mut g, &templates);
        let ctx = ctx_for(&g);
        let want = parse_program("a(i) = b(i,j) * c(j)").unwrap();
        let out = parallel_bottom_up_search(
            &g,
            &ctx,
            SearchBudget::default(),
            ParallelOptions::with_jobs(3),
            |_worker| {
                let want = want.clone();
                move |t: &TacoProgram| {
                    if *t == want {
                        CheckOutcome::Verified(t.clone())
                    } else {
                        CheckOutcome::Failed
                    }
                }
            },
        );
        assert!(out.solved());
    }

    #[test]
    fn exhaustion_classification_is_preserved_in_parallel() {
        let g = grammar_with(&["r(i) = m(i,j) * v(j)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        let budget = SearchBudget {
            max_nodes: 200_000,
            max_attempts: 100_000,
            ..SearchBudget::default()
        };
        let seq = {
            let mut never = |_t: &TacoProgram| CheckOutcome::Failed;
            crate::top_down_search(&g, &ctx, budget, &mut never)
        };
        let par = parallel_top_down_search(&g, &ctx, budget, ParallelOptions::with_jobs(4), |_| {
            |_t: &TacoProgram| CheckOutcome::Failed
        });
        assert_eq!(seq.stop, par.stop, "stop classification must agree");
    }
}
