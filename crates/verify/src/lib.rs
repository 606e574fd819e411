//! Bounded equivalence checking of C kernels against lifted TACO
//! programs — the reproduction's substitute for the paper's §7 pipeline
//! (MLIR lowering + CBMC with rational datatypes).
//!
//! # How the substitution preserves the paper's behaviour
//!
//! The paper compiles both programs to a common form and asks CBMC to
//! prove output equality for all inputs up to a bound, *over rational
//! datatypes* (float equality being both hard and undesirable). Over
//! rationals, both the legacy kernel (loops of `+ - * /`) and the TACO
//! einsum candidate compute *rational functions* of their inputs with
//! degree bounded by the expression size. Two distinct rational functions
//! agree on a vanishing fraction of random sample points
//! (Schwartz–Zippel), so differential testing at random points from a
//! large integer range — with all arithmetic carried out in exact
//! rational arithmetic — is a sound-with-high-probability stand-in for
//! bounded model checking, and it exercises exactly the same
//! verify-then-return-to-validation loop. (Integer sample points keep the
//! exact denominators degree-bounded; division inside a kernel still
//! produces genuine fractions.)
//!
//! The error probability per trial is at most `d / |S|` for degree `d`
//! and sample space `S`; with the default configuration (24 trials,
//! 2·10⁶ points per element, kernel degrees ≤ 6) the failure odds are
//! negligible, and every check additionally varies the extent binding so
//! shape-dependent bugs (transpositions, wrong contractions) cannot hide
//! behind square matrices.
//!
//! # Example
//!
//! ```
//! use gtl_cfront::parse_c;
//! use gtl_taco::parse_program;
//! use gtl_validate::{LiftTask, TaskParam, TaskParamKind};
//! use gtl_verify::{verify_candidate, VerifyConfig, VerifyOutcome};
//!
//! let prog = parse_c("void scale(int n, int *x, int *out) {
//!     for (int i = 0; i < n; i++) out[i] = 2 * x[i];
//! }").unwrap();
//! let task = LiftTask {
//!     func: prog.kernel().clone(),
//!     params: vec![
//!         TaskParam { name: "n".into(), kind: TaskParamKind::Size("n".into()) },
//!         TaskParam {
//!             name: "x".into(),
//!             kind: TaskParamKind::ArrayIn { dims: vec!["n".into()], nonzero: false },
//!         },
//!         TaskParam { name: "out".into(), kind: TaskParamKind::ArrayOut { dims: vec!["n".into()] } },
//!     ],
//!     output: 2,
//!     constants: vec![2],
//!     ref_program: Default::default(),
//! };
//! let good = parse_program("out(i) = x(i) * 2").unwrap();
//! assert_eq!(
//!     verify_candidate(&task, &good, &VerifyConfig::default()),
//!     VerifyOutcome::Equivalent
//! );
//! let bad = parse_program("out(i) = x(i) + 2").unwrap();
//! assert!(matches!(
//!     verify_candidate(&task, &bad, &VerifyConfig::default()),
//!     VerifyOutcome::Counterexample(_)
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exhaustive;

pub use exhaustive::{
    verify_exhaustive, verify_exhaustive_cached, ExhaustiveConfig, ExhaustiveOutcome,
};

use gtl_taco::{EvalCache, TacoProgram};
use gtl_tensor::{seed_from_label, Tensor, TensorGen};
use gtl_validate::{LiftTask, TaskError, ValueMode};

/// Configuration of the bounded equivalence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Number of distinct shape bindings exercised.
    pub shape_rounds: usize,
    /// Random rational draws per shape binding.
    pub trials_per_shape: usize,
    /// Magnitude bound of the integer sample range per element.
    pub magnitude: i64,
    /// Base seed; combined with the kernel name for determinism.
    pub seed: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            shape_rounds: 3,
            trials_per_shape: 8,
            magnitude: 1_000_000,
            seed: 0xb0c5,
        }
    }
}

/// A concrete disagreement between the kernel and the candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Which shape round produced it.
    pub shape_round: usize,
    /// The kernel's output.
    pub expected: Tensor,
    /// The candidate's output (`None` when the candidate failed to
    /// evaluate, e.g. division by zero).
    pub actual: Option<Tensor>,
}

/// The verifier's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// All differential trials agreed: equivalent up to the bound, with
    /// Schwartz–Zippel failure probability.
    Equivalent,
    /// A disagreement was found; the candidate is wrong.
    Counterexample(Box<Counterexample>),
    /// The *kernel* could not be exercised (task error) — the query, not
    /// the candidate, is at fault.
    Inconclusive(TaskError),
}

impl VerifyOutcome {
    /// Whether the candidate passed.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, VerifyOutcome::Equivalent)
    }
}

/// Verifies a concrete candidate program (over argument names) against
/// the legacy kernel by multi-shape rational differential testing.
///
/// Convenience wrapper over [`verify_candidate_cached`] with a throwaway
/// cache; the candidate still compiles once per shape round instead of
/// once per trial.
pub fn verify_candidate(
    task: &LiftTask,
    candidate: &TacoProgram,
    cfg: &VerifyConfig,
) -> VerifyOutcome {
    verify_candidate_cached(task, candidate, cfg, &EvalCache::default())
}

/// [`verify_candidate`] through a shared [`EvalCache`]: the candidate is
/// lowered once and every trial of every shape round runs that one
/// kernel, and a checker holding the cache across candidates lowers a
/// recurring candidate only once.
pub fn verify_candidate_cached(
    task: &LiftTask,
    candidate: &TacoProgram,
    cfg: &VerifyConfig,
    cache: &EvalCache,
) -> VerifyOutcome {
    let mut gen = TensorGen::new(cfg.seed ^ seed_from_label(&task.func.name));
    for round in 0..cfg.shape_rounds {
        let sizes = task.sizes_for_round(round);
        for _ in 0..cfg.trials_per_shape {
            let instance = match task.instantiate(
                &sizes,
                &mut gen,
                ValueMode::VerifyPoints {
                    magnitude: cfg.magnitude,
                },
            ) {
                Ok(i) => i,
                Err(e) => return VerifyOutcome::Inconclusive(e),
            };
            let expected = match task.run_reference(&instance) {
                Ok(t) => t,
                Err(e) => return VerifyOutcome::Inconclusive(e),
            };
            match cache.evaluate(candidate, &instance.env) {
                Ok(actual) if actual == expected => {}
                Ok(actual) => {
                    return VerifyOutcome::Counterexample(Box::new(Counterexample {
                        shape_round: round,
                        expected,
                        actual: Some(actual),
                    }))
                }
                Err(_) => {
                    return VerifyOutcome::Counterexample(Box::new(Counterexample {
                        shape_round: round,
                        expected,
                        actual: None,
                    }))
                }
            }
        }
    }
    VerifyOutcome::Equivalent
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_cfront::parse_c;
    use gtl_taco::parse_program;
    use gtl_validate::{TaskParam, TaskParamKind};

    fn gemv_task() -> LiftTask {
        let prog = parse_c(
            "void gemv(int n, int m, int *A, int *x, int *y) {
                for (int i = 0; i < n; i++) {
                    y[i] = 0;
                    for (int j = 0; j < m; j++) y[i] += A[i*m + j] * x[j];
                }
            }",
        )
        .unwrap();
        LiftTask {
            func: prog.kernel().clone(),
            params: vec![
                TaskParam {
                    name: "n".into(),
                    kind: TaskParamKind::Size("n".into()),
                },
                TaskParam {
                    name: "m".into(),
                    kind: TaskParamKind::Size("m".into()),
                },
                TaskParam {
                    name: "A".into(),
                    kind: TaskParamKind::ArrayIn {
                        dims: vec!["n".into(), "m".into()],
                        nonzero: false,
                    },
                },
                TaskParam {
                    name: "x".into(),
                    kind: TaskParamKind::ArrayIn {
                        dims: vec!["m".into()],
                        nonzero: false,
                    },
                },
                TaskParam {
                    name: "y".into(),
                    kind: TaskParamKind::ArrayOut {
                        dims: vec!["n".into()],
                    },
                },
            ],
            output: 4,
            constants: vec![0],
            ref_program: Default::default(),
        }
    }

    #[test]
    fn accepts_correct_gemv() {
        let task = gemv_task();
        let cand = parse_program("y(i) = A(i,j) * x(j)").unwrap();
        assert!(verify_candidate(&task, &cand, &VerifyConfig::default()).is_equivalent());
    }

    #[test]
    fn rejects_transposed_contraction() {
        let task = gemv_task();
        let cand = parse_program("y(i) = A(j,i) * x(i)").unwrap();
        assert!(!verify_candidate(&task, &cand, &VerifyConfig::default()).is_equivalent());
    }

    #[test]
    fn rejects_wrong_operator() {
        let task = gemv_task();
        let cand = parse_program("y(i) = A(i,j) + x(j)").unwrap();
        let out = verify_candidate(&task, &cand, &VerifyConfig::default());
        assert!(matches!(out, VerifyOutcome::Counterexample(_)));
    }

    #[test]
    fn rational_points_separate_near_misses() {
        // out(i) = x(i) vs the true out(i) = x(i) * x(i): these agree on
        // 0/1-valued inputs, which random rational sampling avoids.
        let prog = parse_c(
            "void sq(int n, int *x, int *out) {
                for (int i = 0; i < n; i++) out[i] = x[i] * x[i];
            }",
        )
        .unwrap();
        let task = LiftTask {
            func: prog.kernel().clone(),
            params: vec![
                TaskParam {
                    name: "n".into(),
                    kind: TaskParamKind::Size("n".into()),
                },
                TaskParam {
                    name: "x".into(),
                    kind: TaskParamKind::ArrayIn {
                        dims: vec!["n".into()],
                        nonzero: false,
                    },
                },
                TaskParam {
                    name: "out".into(),
                    kind: TaskParamKind::ArrayOut {
                        dims: vec!["n".into()],
                    },
                },
            ],
            output: 2,
            constants: vec![],
            ref_program: Default::default(),
        };
        let wrong = parse_program("out(i) = x(i)").unwrap();
        assert!(!verify_candidate(&task, &wrong, &VerifyConfig::default()).is_equivalent());
        let right = parse_program("out(i) = x(i) * x(i)").unwrap();
        assert!(verify_candidate(&task, &right, &VerifyConfig::default()).is_equivalent());
    }

    #[test]
    fn division_by_zero_counts_against_candidate() {
        let task = gemv_task();
        let cand = parse_program("y(i) = A(i,j) / x(j)").unwrap();
        assert!(!verify_candidate(&task, &cand, &VerifyConfig::default()).is_equivalent());
    }

    #[test]
    fn deterministic_verdicts() {
        let task = gemv_task();
        let cand = parse_program("y(i) = A(i,j) * x(j)").unwrap();
        let a = verify_candidate(&task, &cand, &VerifyConfig::default());
        let b = verify_candidate(&task, &cand, &VerifyConfig::default());
        assert_eq!(a, b);
    }
}
