//! Exhaustive bounded equivalence checking.
//!
//! The randomised Schwartz–Zippel check in the crate root is the
//! workhorse; this module provides the literal counterpart of CBMC's
//! "all inputs up to a bound": enumerate *every* assignment of a small
//! value set to every input element at tiny extents, and compare the
//! kernel against the candidate on each. Feasible only for small kernels
//! (the point count is |values|^elements), so the checker reports
//! [`ExhaustiveOutcome::TooLarge`] rather than sampling silently.

use gtl_cfront::ArgValue;
use gtl_taco::{EvalCache, TacoProgram};
use gtl_tensor::{Rat, Tensor, TensorGen};
use gtl_validate::{LiftTask, TaskError, TaskParamKind, ValueMode};

use crate::Counterexample;

/// Configuration of the exhaustive check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExhaustiveConfig {
    /// Extent assigned to every size symbol.
    pub extent: usize,
    /// The value set enumerated per input element.
    pub values: Vec<i64>,
    /// Upper bound on enumerated points; beyond this the check refuses.
    pub max_points: u64,
}

impl Default for ExhaustiveConfig {
    fn default() -> Self {
        ExhaustiveConfig {
            extent: 2,
            values: vec![-1, 0, 1],
            max_points: 250_000,
        }
    }
}

/// The exhaustive checker's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExhaustiveOutcome {
    /// Every enumerated input agreed.
    Equivalent {
        /// Number of input points checked.
        points: u64,
    },
    /// A disagreement was found.
    Counterexample(Box<Counterexample>),
    /// The input space exceeds `max_points`; use the randomised checker.
    TooLarge {
        /// The number of points full enumeration would need.
        required: u128,
    },
    /// The task itself could not be exercised.
    Inconclusive(TaskError),
}

impl ExhaustiveOutcome {
    /// Whether the candidate passed.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, ExhaustiveOutcome::Equivalent { .. })
    }
}

/// Exhaustively verifies `candidate` against the kernel for all inputs
/// over the configured value set at tiny extents.
pub fn verify_exhaustive(
    task: &LiftTask,
    candidate: &TacoProgram,
    cfg: &ExhaustiveConfig,
) -> ExhaustiveOutcome {
    verify_exhaustive_cached(task, candidate, cfg, &EvalCache::default())
}

/// [`verify_exhaustive`] through a shared [`EvalCache`]: the candidate is
/// lowered once for the whole sweep (the point count is
/// `|values|^elements`), and each point runs it as one lane.
pub fn verify_exhaustive_cached(
    task: &LiftTask,
    candidate: &TacoProgram,
    cfg: &ExhaustiveConfig,
    cache: &EvalCache,
) -> ExhaustiveOutcome {
    // Fixed tiny sizes.
    let sizes: std::collections::BTreeMap<String, usize> = task
        .size_symbols()
        .into_iter()
        .map(|s| (s.to_string(), cfg.extent))
        .collect();
    // A template instance whose data we overwrite per point.
    let mut gen = TensorGen::new(1);
    let base = match task.instantiate(&sizes, &mut gen, ValueMode::Integers { lo: 1, hi: 1 }) {
        Ok(i) => i,
        Err(e) => return ExhaustiveOutcome::Inconclusive(e),
    };

    // The mutable slots: (param position, element index, must_be_nonzero).
    let mut slots: Vec<(usize, usize, bool)> = Vec::new();
    for (pos, p) in task.params.iter().enumerate() {
        match &p.kind {
            TaskParamKind::ScalarIn { nonzero } => slots.push((pos, 0, *nonzero)),
            TaskParamKind::ArrayIn { dims, nonzero } => {
                let len: usize = dims.iter().map(|_| cfg.extent).product();
                for e in 0..len {
                    slots.push((pos, e, *nonzero));
                }
            }
            TaskParamKind::Size(_) | TaskParamKind::ArrayOut { .. } => {}
        }
    }
    let required = (cfg.values.len() as u128).checked_pow(slots.len() as u32);
    match required {
        Some(r) if r <= cfg.max_points as u128 => {}
        Some(r) => return ExhaustiveOutcome::TooLarge { required: r },
        None => {
            return ExhaustiveOutcome::TooLarge {
                required: u128::MAX,
            }
        }
    }

    let mut choice = vec![0usize; slots.len()];
    let mut points = 0u64;
    loop {
        // Build this point, skipping assignments that violate nonzero
        // constraints (those inputs are outside the kernel's domain).
        let mut valid = true;
        let mut args = base.args.clone();
        let mut env = base.env.clone();
        for ((pos, elem, nonzero), value_idx) in slots.iter().zip(&choice) {
            let v = Rat::from(cfg.values[*value_idx]);
            if *nonzero && v.is_zero() {
                valid = false;
                break;
            }
            let name = &task.params[*pos].name;
            match &mut args[*pos] {
                ArgValue::Scalar(s) => {
                    *s = v;
                    env.insert(name.clone(), Tensor::scalar(v));
                }
                ArgValue::Array(data) => {
                    data[*elem] = v;
                    let t = env.get_mut(name).expect("param bound in env");
                    t.data_mut()[*elem] = v;
                }
            }
        }
        if valid {
            points += 1;
            let instance = gtl_validate::TaskInstance {
                args,
                env,
                output_shape: base.output_shape.clone(),
            };
            let expected = match task.run_reference(&instance) {
                Ok(t) => t,
                Err(e) => return ExhaustiveOutcome::Inconclusive(e),
            };
            match cache.evaluate(candidate, &instance.env) {
                Ok(actual) if actual == expected => {}
                Ok(actual) => {
                    return ExhaustiveOutcome::Counterexample(Box::new(Counterexample {
                        shape_round: 0,
                        expected,
                        actual: Some(actual),
                    }))
                }
                Err(_) => {
                    return ExhaustiveOutcome::Counterexample(Box::new(Counterexample {
                        shape_round: 0,
                        expected,
                        actual: None,
                    }))
                }
            }
        }
        // Advance the odometer.
        let mut done = true;
        for c in choice.iter_mut().rev() {
            *c += 1;
            if *c < cfg.values.len() {
                done = false;
                break;
            }
            *c = 0;
        }
        if done {
            break;
        }
    }
    ExhaustiveOutcome::Equivalent { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_cfront::parse_c;
    use gtl_taco::parse_program;
    use gtl_validate::TaskParam;

    fn dot_task() -> LiftTask {
        let prog = parse_c(
            "void dot(int n, int *a, int *b, int *out) {
                *out = 0;
                for (int i = 0; i < n; i++) *out += a[i] * b[i];
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
                    name: "a".into(),
                    kind: TaskParamKind::ArrayIn {
                        dims: vec!["n".into()],
                        nonzero: false,
                    },
                },
                TaskParam {
                    name: "b".into(),
                    kind: TaskParamKind::ArrayIn {
                        dims: vec!["n".into()],
                        nonzero: false,
                    },
                },
                TaskParam {
                    name: "out".into(),
                    kind: TaskParamKind::ArrayOut { dims: vec![] },
                },
            ],
            output: 3,
            constants: vec![0],
            ref_program: Default::default(),
        }
    }

    #[test]
    fn accepts_true_program_over_all_points() {
        let task = dot_task();
        let good = parse_program("out = a(i) * b(i)").unwrap();
        let outcome = verify_exhaustive(&task, &good, &ExhaustiveConfig::default());
        match outcome {
            ExhaustiveOutcome::Equivalent { points } => {
                // 4 elements over {-1,0,1}: 81 points.
                assert_eq!(points, 81);
            }
            other => panic!("expected equivalence, got {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_operator() {
        let task = dot_task();
        let bad = parse_program("out = a(i) + b(i)").unwrap();
        assert!(matches!(
            verify_exhaustive(&task, &bad, &ExhaustiveConfig::default()),
            ExhaustiveOutcome::Counterexample(_)
        ));
    }

    #[test]
    fn too_large_is_reported() {
        let task = dot_task();
        let good = parse_program("out = a(i) * b(i)").unwrap();
        let cfg = ExhaustiveConfig {
            max_points: 10,
            ..ExhaustiveConfig::default()
        };
        assert!(matches!(
            verify_exhaustive(&task, &good, &cfg),
            ExhaustiveOutcome::TooLarge { required: 81 }
        ));
    }

    #[test]
    fn nonzero_constraints_shrink_the_space() {
        let prog = parse_c(
            "void vdiv(int n, int *a, int *b, int *out) {
                for (int i = 0; i < n; i++) out[i] = a[i] / b[i];
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
                    name: "a".into(),
                    kind: TaskParamKind::ArrayIn {
                        dims: vec!["n".into()],
                        nonzero: false,
                    },
                },
                TaskParam {
                    name: "b".into(),
                    kind: TaskParamKind::ArrayIn {
                        dims: vec!["n".into()],
                        nonzero: true,
                    },
                },
                TaskParam {
                    name: "out".into(),
                    kind: TaskParamKind::ArrayOut {
                        dims: vec!["n".into()],
                    },
                },
            ],
            output: 3,
            constants: vec![],
            ref_program: Default::default(),
        };
        let good = parse_program("out(i) = a(i) / b(i)").unwrap();
        match verify_exhaustive(&task, &good, &ExhaustiveConfig::default()) {
            ExhaustiveOutcome::Equivalent { points } => {
                // 9 a-assignments × 4 nonzero b-assignments.
                assert_eq!(points, 36);
            }
            other => panic!("expected equivalence, got {other:?}"),
        }
    }
}
