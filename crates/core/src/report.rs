//! The outcome of one lifting run, with every statistic the paper's
//! tables report.

use std::time::Duration;

use gtl_search::StopReason;
use gtl_taco::TacoProgram;
use gtl_trace::PhaseTimes;

/// Why a lift produced no solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureReason {
    /// The oracle produced no syntactically usable candidate.
    NoUsableCandidates,
    /// The search space (after penalties) was exhausted.
    SearchExhausted,
    /// A search budget was hit before a solution appeared.
    BudgetExceeded,
    /// The query itself was malformed (task error).
    BadQuery(String),
    /// The caller cancelled the lift mid-search (client disconnect,
    /// request timeout, server shutdown).
    Cancelled,
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureReason::NoUsableCandidates => write!(f, "no usable LLM candidates"),
            FailureReason::SearchExhausted => write!(f, "template space exhausted"),
            FailureReason::BudgetExceeded => write!(f, "search budget exceeded"),
            FailureReason::BadQuery(m) => write!(f, "bad query: {m}"),
            FailureReason::Cancelled => write!(f, "lift cancelled"),
        }
    }
}

/// One oracle round's slice of a lift: what the oracle returned and
/// what the search did with it. `rounds.len() == 1` for single-shot
/// lifts; the failure loop appends one entry per re-query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleRoundStats {
    /// Round index (0 = the initial query).
    pub round: usize,
    /// Raw candidate lines the oracle returned this round.
    pub received: usize,
    /// Candidates that survived preprocessing/parsing/templatisation.
    pub parsed: usize,
    /// Complete templates sent to validation during this round's search.
    pub attempts: u64,
    /// Search-queue pops during this round's search.
    pub nodes_expanded: u64,
}

/// The report of one lifting run.
#[derive(Debug, Clone)]
pub struct LiftReport {
    /// Query label (benchmark name).
    pub label: String,
    /// The verified concrete TACO program, if lifting succeeded.
    pub solution: Option<TacoProgram>,
    /// The winning template (pre-substitution).
    pub template: Option<TacoProgram>,
    /// Why the run failed, when it did.
    pub failure: Option<FailureReason>,
    /// Complete templates sent to validation (the paper's "attempts").
    pub attempts: u64,
    /// Search-queue pops.
    pub nodes_expanded: u64,
    /// Substitutions instantiated across all validations.
    pub substitutions_tried: u64,
    /// Templates skipped before evaluation by the feasibility
    /// pre-checks (unconstrained output index, constant-only RHS
    /// against non-constant outputs).
    pub pruned_infeasible: u64,
    /// Templates skipped because an algebraically equivalent one had
    /// already been checked (canonical-fingerprint dedup, summed over
    /// the search engine's seen-set and the validation-layer set).
    pub pruned_equivalent: u64,
    /// Candidates returned by the oracle.
    pub candidates_received: usize,
    /// Candidates that survived preprocessing/parsing/templatisation.
    pub candidates_parsed: usize,
    /// The predicted dimension list driving grammar refinement.
    pub dim_list: Vec<usize>,
    /// Per-round oracle statistics, in round order. The totals above
    /// (`candidates_received`, `attempts`, …) sum over these.
    pub rounds: Vec<OracleRoundStats>,
    /// End-to-end wall-clock time (oracle + analysis + grammar + search +
    /// validation + verification).
    pub elapsed: Duration,
    /// Time inside the search stage alone.
    pub search_elapsed: Duration,
    /// Per-phase time attribution (oracle, grammar learning, search,
    /// validation, verification; the serving layer adds store appends).
    /// With `jobs = 1` the pipeline phases partition `elapsed`; with
    /// parallel search, validation/verification report CPU time summed
    /// across workers, so the total can exceed wall clock. A wall-clock
    /// measurement, excluded from [`LiftReport::deterministic_eq`] like
    /// the other durations.
    pub phase_times: PhaseTimes,
}

impl LiftReport {
    /// Whether lifting succeeded.
    pub fn solved(&self) -> bool {
        self.solution.is_some()
    }

    /// End-to-end seconds (the unit the paper's tables use).
    pub fn seconds(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    /// Whether two reports are identical in every deterministic field —
    /// everything except the wall-clock durations. This is the
    /// regression contract behind record→replay: a replayed lift must
    /// satisfy `deterministic_eq` with the recorded run's report.
    pub fn deterministic_eq(&self, other: &LiftReport) -> bool {
        self.label == other.label
            && self.solution == other.solution
            && self.template == other.template
            && self.failure == other.failure
            && self.attempts == other.attempts
            && self.nodes_expanded == other.nodes_expanded
            && self.substitutions_tried == other.substitutions_tried
            && self.pruned_infeasible == other.pruned_infeasible
            && self.pruned_equivalent == other.pruned_equivalent
            && self.candidates_received == other.candidates_received
            && self.candidates_parsed == other.candidates_parsed
            && self.dim_list == other.dim_list
            && self.rounds == other.rounds
    }

    pub(crate) fn failure_from_stop(stop: StopReason) -> Option<FailureReason> {
        match stop {
            StopReason::Solved => None,
            StopReason::Exhausted => Some(FailureReason::SearchExhausted),
            StopReason::BudgetExceeded => Some(FailureReason::BudgetExceeded),
            StopReason::Cancelled => Some(FailureReason::Cancelled),
        }
    }
}
