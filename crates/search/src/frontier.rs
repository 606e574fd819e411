//! The shared frontier engine behind both search algorithms.
//!
//! Top-down and bottom-up search are the same best-first loop over
//! partial derivation trees; they differ only in how a dequeued tree is
//! judged (skip / check / expand). That per-algorithm logic is the
//! [`Expand`] trait, implemented by the two algorithm modules; the loop
//! itself exists twice — [`run_sequential`] here (byte-identical to the
//! pre-refactor single-thread searches) and the worker-pool version in
//! [`crate::parallel`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gtl_taco::TacoProgram;

use crate::driver::{
    CheckOutcome, Priority, RunState, SearchBudget, SearchHooks, SearchOutcome,
    TemplateChecker,
};
use crate::node::Tree;

/// One prioritised successor produced by [`Expand::children`].
pub(crate) struct Child<'g> {
    /// The successor tree.
    pub tree: Tree<'g>,
    /// Accumulated rule cost `c(x)`.
    pub cost: f64,
    /// Full priority `f(x) = c(x) + g(x) + X(x)`.
    pub f: f64,
}

/// Algorithm-specific judgement of a dequeued tree.
///
/// Implementations are read-only views of the grammar and penalty
/// context, so they are naturally `Sync` and one expander can serve
/// every worker of a parallel run (the parallel engine adds the bound).
/// The trees they produce borrow terminals from the grammar `'g`.
pub(crate) trait Expand<'g> {
    /// The initial search state.
    fn root(&self) -> Tree<'g>;

    /// Whether the node is discarded outright (counted as a queue pop,
    /// but neither checked nor expanded) — the top-down depth limit.
    fn skip(&self, tree: &Tree<'g>) -> bool;

    /// The complete template to send to the checker at this node, if any.
    fn candidate(&self, tree: &Tree<'g>) -> Option<TacoProgram>;

    /// Prioritised successors of the node (empty for complete trees).
    fn children(&self, tree: &Tree<'g>, cost: f64) -> Vec<Child<'g>>;
}

/// A frontier entry. Ordering matches the pre-refactor arena encoding:
/// best (lowest) `f` first, ties broken toward the most recently pushed
/// entry.
pub(crate) struct QEntry<'g> {
    pub f: Priority,
    pub seq: u64,
    pub tree: Tree<'g>,
    pub cost: f64,
}

impl PartialEq for QEntry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f && self.seq == other.seq
    }
}

impl Eq for QEntry<'_> {}

impl PartialOrd for QEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QEntry<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `Priority` already reverses for min-f-first in a max-heap; on
        // ties the larger (younger) sequence number wins, exactly like
        // the old `(Priority, arena_index)` tuples.
        self.f.cmp(&other.f).then(self.seq.cmp(&other.seq))
    }
}

/// The single-threaded best-first loop. Preserves the exact pop order,
/// counter updates and stop conditions of the pre-refactor searches, so
/// `jobs = 1` results are bit-identical to the original implementation.
pub(crate) fn run_sequential<'g>(
    exp: &dyn Expand<'g>,
    budget: SearchBudget,
    checker: &mut dyn TemplateChecker,
) -> SearchOutcome {
    run_sequential_hooked(exp, budget, checker, &SearchHooks::default())
}

/// [`run_sequential`] with external hooks attached: the cancel flag is
/// polled once per pop (the outcome then reports `Cancelled`) and the
/// loop counters are mirrored into the progress tracker after every
/// iteration. With default hooks both additions are untaken branches,
/// leaving pop order and counters bit-identical to the unhooked loop.
///
/// Every exit drops the frontier before the outcome stops the clock:
/// freeing 10^5 queued trees is search work, and a report that left it
/// out would attribute it to no phase.
pub(crate) fn run_sequential_hooked<'g>(
    exp: &dyn Expand<'g>,
    budget: SearchBudget,
    checker: &mut dyn TemplateChecker,
    hooks: &SearchHooks,
) -> SearchOutcome {
    let mut state = RunState::new(budget);
    let mut queue: BinaryHeap<QEntry<'g>> = BinaryHeap::new();
    let mut seq = 0u64;
    queue.push(QEntry {
        f: Priority(0.0),
        seq,
        tree: exp.root(),
        cost: 0.0,
    });

    while let Some(entry) = queue.pop() {
        if hooks.cancelled() {
            drop(queue);
            return state.outcome_cancelled();
        }
        if state.over_budget() {
            drop(queue);
            return state.outcome(None, false);
        }
        state.nodes += 1;
        if exp.skip(&entry.tree) {
            continue;
        }
        if let Some(template) = exp.candidate(&entry.tree) {
            state.attempts += 1;
            if let CheckOutcome::Verified(concrete) = checker.check(&template) {
                drop(queue);
                return state.outcome(Some((template, concrete)), false);
            }
        }
        for child in exp.children(&entry.tree, entry.cost) {
            seq += 1;
            queue.push(QEntry {
                f: Priority(child.f),
                seq,
                tree: child.tree,
                cost: child.cost,
            });
        }
        if let Some(progress) = &hooks.progress {
            progress.record(state.nodes, state.attempts);
        }
    }
    state.outcome(None, true)
}
