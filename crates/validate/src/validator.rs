//! The template validator (§6): I/O example generation plus the
//! validate-then-verify loop over substitutions.

use gtl_taco::{BatchKernel, EvalCache, Lane, TacoProgram};
use gtl_tensor::{Tensor, TensorGen};

use crate::subst::{apply_substitution, enumerate_substitutions, Substitution};
use crate::task::{LiftTask, TaskInstance, ValueMode};

/// How many substitutions one batched evaluation sweep carries. Large
/// enough to amortise the shared loop odometer, small enough that an
/// early verifier accept doesn't leave much wasted work behind.
const LANE_BATCH: usize = 64;

/// One input/output example: concrete inputs and the output the legacy
/// kernel produced on them.
#[derive(Debug, Clone)]
pub struct IoExample {
    /// The instantiated inputs.
    pub instance: TaskInstance,
    /// The kernel's output.
    pub output: Tensor,
}

/// Configuration for example generation.
#[derive(Debug, Clone, Copy)]
pub struct ExampleConfig {
    /// Number of examples.
    pub count: usize,
    /// Value range for the random integer inputs.
    pub lo: i64,
    /// Upper bound (inclusive).
    pub hi: i64,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl Default for ExampleConfig {
    fn default() -> Self {
        ExampleConfig {
            count: 4,
            lo: -5,
            hi: 5,
            seed: 0x5eed,
        }
    }
}

/// Generates I/O examples by running the legacy kernel on random inputs
/// (§6). Examples use the task's default sizes.
///
/// # Errors
///
/// Propagates [`crate::task::TaskError`] if the kernel cannot be run
/// (which indicates a malformed task rather than a bad template).
pub fn generate_examples(
    task: &LiftTask,
    cfg: &ExampleConfig,
) -> Result<Vec<IoExample>, crate::task::TaskError> {
    let sizes = task.default_sizes();
    let mut gen = TensorGen::new(cfg.seed);
    let mut out = Vec::with_capacity(cfg.count);
    for _ in 0..cfg.count {
        let instance = task.instantiate(
            &sizes,
            &mut gen,
            ValueMode::Integers {
                lo: cfg.lo,
                hi: cfg.hi,
            },
        )?;
        let output = task.run_reference(&instance)?;
        out.push(IoExample { instance, output });
    }
    Ok(out)
}

/// Statistics from one validation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationStats {
    /// Substitutions enumerated.
    pub substitutions_tried: u64,
    /// Substitutions that passed all I/O examples (and were handed to the
    /// verifier).
    pub io_passes: u64,
    /// Candidate templates skipped before any evaluation because a
    /// feasibility pre-check proved no substitution could pass (an
    /// output index no RHS access constrains, or a constant-only RHS
    /// against non-constant outputs).
    pub pruned_infeasible: u64,
    /// Candidate templates skipped because an algebraically equivalent
    /// template was already validated (equal canonical fingerprint).
    pub pruned_equivalent: u64,
}

impl ValidationStats {
    /// Folds another run's counters into this one.
    pub fn merge(&mut self, other: &ValidationStats) {
        self.substitutions_tried += other.substitutions_tried;
        self.io_passes += other.io_passes;
        self.pruned_infeasible += other.pruned_infeasible;
        self.pruned_equivalent += other.pruned_equivalent;
    }
}

/// Thread-safe accumulator of [`ValidationStats`] for checkers running
/// on parallel search workers: each worker validates with a private
/// `ValidationStats` and folds it in with [`SharedValidationStats::add`].
#[derive(Debug, Default)]
pub struct SharedValidationStats {
    substitutions_tried: std::sync::atomic::AtomicU64,
    io_passes: std::sync::atomic::AtomicU64,
    pruned_infeasible: std::sync::atomic::AtomicU64,
    pruned_equivalent: std::sync::atomic::AtomicU64,
}

impl SharedValidationStats {
    /// Adds one run's counters.
    pub fn add(&self, stats: &ValidationStats) {
        use std::sync::atomic::Ordering;
        self.substitutions_tried
            .fetch_add(stats.substitutions_tried, Ordering::Relaxed);
        self.io_passes.fetch_add(stats.io_passes, Ordering::Relaxed);
        self.pruned_infeasible
            .fetch_add(stats.pruned_infeasible, Ordering::Relaxed);
        self.pruned_equivalent
            .fetch_add(stats.pruned_equivalent, Ordering::Relaxed);
    }

    /// A consistent copy of the accumulated counters.
    pub fn snapshot(&self) -> ValidationStats {
        use std::sync::atomic::Ordering;
        ValidationStats {
            substitutions_tried: self.substitutions_tried.load(Ordering::Relaxed),
            io_passes: self.io_passes.load(Ordering::Relaxed),
            pruned_infeasible: self.pruned_infeasible.load(Ordering::Relaxed),
            pruned_equivalent: self.pruned_equivalent.load(Ordering::Relaxed),
        }
    }
}

/// The §6 validation loop: enumerate substitutions, test each against the
/// I/O examples, and hand survivors to `verify`; the first substitution
/// the verifier accepts wins. Returns the verified concrete program.
///
/// `verify` realises §7; passing `|_| true` gives the I/O-only behaviour
/// of the C2TACO baseline.
pub fn validate_template(
    template: &TacoProgram,
    task: &LiftTask,
    examples: &[IoExample],
    verify: impl FnMut(&TacoProgram, &Substitution) -> bool,
    stats: &mut ValidationStats,
) -> Option<TacoProgram> {
    validate_template_cached(template, task, examples, verify, stats, &EvalCache::default())
}

/// [`validate_template`] for a checker that holds one [`EvalCache`]
/// across every template it checks. The I/O filter itself does not read
/// the cache: the template is lowered once per call, and its concrete
/// substitutions are never evaluated one by one. The cache stays in the
/// signature for callers that share it with their verifier.
///
/// Substitutions are drained in 64-lane batches (`LANE_BATCH`): the template
/// is lowered once into a [`BatchKernel`] and each I/O example filters a
/// whole batch of [`Lane`]s in a single pass over a shared loop nest,
/// instead of evaluating one substituted program at a time. Survivors are
/// handed to `verify` in enumeration order, so the returned program (and
/// which substitutions the verifier sees) is the same as evaluating the
/// substitutions one at a time would give.
pub fn validate_template_cached(
    template: &TacoProgram,
    task: &LiftTask,
    examples: &[IoExample],
    mut verify: impl FnMut(&TacoProgram, &Substitution) -> bool,
    stats: &mut ValidationStats,
    _cache: &EvalCache,
) -> Option<TacoProgram> {
    let output_name = task.output_name().to_string();
    let subs = enumerate_substitutions(template, task);
    if subs.is_empty() {
        return None;
    }
    let kernel = BatchKernel::new(template);
    for chunk in subs.chunks(LANE_BATCH) {
        stats.substitutions_tried += chunk.len() as u64;
        let lanes: Vec<Lane> = chunk
            .iter()
            .map(|sub| lane_for(&kernel, sub, &output_name))
            .collect();
        // Example-major filtering: each example prunes the batch, so later
        // examples only evaluate lanes that still have a chance.
        let mut alive: Vec<usize> = (0..lanes.len()).collect();
        for ex in examples {
            if alive.is_empty() {
                break;
            }
            let batch: Vec<Lane> = alive.iter().map(|&i| lanes[i].clone()).collect();
            let results = kernel.evaluate_lanes(&batch, &ex.instance.env);
            alive = alive
                .into_iter()
                .zip(results)
                .filter(|(_, r)| matches!(r, Ok(out) if *out == ex.output))
                .map(|(i, _)| i)
                .collect();
        }
        for i in alive {
            stats.io_passes += 1;
            let concrete = apply_substitution(template, &chunk[i], &output_name);
            if verify(&concrete, &chunk[i]) {
                return Some(concrete);
            }
        }
    }
    None
}

/// Builds the [`Lane`] realising one substitution: tensor slots resolve
/// like [`apply_substitution`] (the LHS symbol `a` reused on the RHS binds
/// the output; unbound symbols keep their name and fail analysis, exactly
/// as the substituted program fails it).
///
/// # Panics
///
/// Panics if a constant slot has no binding; [`enumerate_substitutions`]
/// binds every one.
fn lane_for(kernel: &BatchKernel, sub: &Substitution, output: &str) -> Lane {
    let tensors = kernel
        .tensor_slots()
        .iter()
        .map(|s| {
            if s == "a" {
                output.to_string()
            } else {
                sub.tensors.get(s).cloned().unwrap_or_else(|| s.clone())
            }
        })
        .collect();
    let constants = kernel
        .const_slots()
        .iter()
        .map(|id| sub.constants[id])
        .collect();
    Lane { tensors, constants }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::tests_support::dot_task;
    use gtl_taco::parse_program;

    #[test]
    fn examples_are_deterministic() {
        let task = dot_task();
        let cfg = ExampleConfig::default();
        let e1 = generate_examples(&task, &cfg).unwrap();
        let e2 = generate_examples(&task, &cfg).unwrap();
        assert_eq!(e1.len(), cfg.count);
        assert_eq!(e1[0].output, e2[0].output);
    }

    #[test]
    fn validates_correct_template() {
        let task = dot_task();
        let examples = generate_examples(&task, &ExampleConfig::default()).unwrap();
        let template = parse_program("a = b(i) * c(i)").unwrap();
        let mut stats = ValidationStats::default();
        let got = validate_template(&template, &task, &examples, |_, _| true, &mut stats)
            .expect("dot template validates");
        assert_eq!(got.to_string(), "out = a(i) * b(i)");
        assert!(stats.substitutions_tried >= 1);
        assert!(stats.io_passes >= 1);
    }

    #[test]
    fn rejects_wrong_template() {
        let task = dot_task();
        let examples = generate_examples(&task, &ExampleConfig::default()).unwrap();
        let template = parse_program("a = b(i) + c(i)").unwrap();
        let mut stats = ValidationStats::default();
        assert!(validate_template(&template, &task, &examples, |_, _| true, &mut stats)
            .is_none());
    }

    #[test]
    fn verifier_rejection_continues_search() {
        // With a verifier that rejects everything, validation must
        // exhaust all substitutions and fail.
        let task = dot_task();
        let examples = generate_examples(&task, &ExampleConfig::default()).unwrap();
        let template = parse_program("a = b(i) * c(i)").unwrap();
        let mut stats = ValidationStats::default();
        let got = validate_template(&template, &task, &examples, |_, _| false, &mut stats);
        assert!(got.is_none());
        assert!(stats.io_passes >= 2, "b*c and c*b both pass I/O");
    }

    #[test]
    fn shared_stats_accumulate_across_threads() {
        let shared = SharedValidationStats::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let shared = &shared;
                s.spawn(move || {
                    for _ in 0..100 {
                        shared.add(&ValidationStats {
                            substitutions_tried: 2,
                            io_passes: 1,
                            pruned_infeasible: 1,
                            pruned_equivalent: 1,
                        });
                    }
                });
            }
        });
        assert_eq!(
            shared.snapshot(),
            ValidationStats {
                substitutions_tried: 800,
                io_passes: 400,
                pruned_infeasible: 400,
                pruned_equivalent: 400,
            }
        );
    }

    #[test]
    fn dimensionally_unsound_substitutions_skipped() {
        // Template wants a rank-2 tensor; dot task has none.
        let task = dot_task();
        let examples = generate_examples(&task, &ExampleConfig::default()).unwrap();
        let template = parse_program("a = b(i,j) * c(j)").unwrap();
        let mut stats = ValidationStats::default();
        assert!(validate_template(&template, &task, &examples, |_, _| true, &mut stats)
            .is_none());
        assert_eq!(stats.substitutions_tried, 0);
    }
}
