//! The independent output check, separate from the lifter's own
//! validation and verification.
//!
//! A `done` solution is evaluated with the TACO tree-walk interpreter
//! and compared with the C tree-walk interpreter running the benchmark
//! kernel, on seeded inputs at sizes the pipeline's I/O examples never
//! use. Neither interpreter is on the lifter's hot path (it validates
//! with `BatchKernel` and runs C as bytecode), so a defect there cannot
//! hide itself here. The solved set is then compared with the committed
//! expected list.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use gtl_benchsuite::Benchmark;
use gtl_cfront::run_kernel;
use gtl_taco::{evaluate_interpreted, parse_program};
use gtl_tensor::{seed_from_label, Tensor, TensorGen};

use crate::stats::Rng;

/// Size bindings drawn per checked solution.
const DRAWS: u64 = 3;

/// The committed list of benchmarks the lifter must solve.
pub fn expected_solved() -> BTreeSet<&'static str> {
    include_str!("../expected_solved.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// Checks `solution` against benchmark `b`'s kernel on fresh seeded
/// inputs.
///
/// # Errors
///
/// Describes the first disagreement, or a solution that fails to parse
/// or evaluate.
pub fn check_solution(b: &Benchmark, solution: &str, seed: u64) -> Result<(), String> {
    let program = parse_program(solution).map_err(|e| format!("solution does not parse: {e}"))?;
    let source = b.parse_source().map_err(|e| e.to_string())?;
    let example_sizes = b.default_sizes();
    let symbols = b.size_symbols();
    let mut rng = Rng::new(seed, seed_from_label(b.name));
    for draw in 0..DRAWS {
        let mut sizes: BTreeMap<&str, usize> =
            symbols.iter().map(|s| (*s, 2 + rng.below(5))).collect();
        if sizes == example_sizes {
            // The examples' binding is excluded: shift one extent.
            if let Some(first) = symbols.first() {
                *sizes.get_mut(first).expect("bound above") += 4;
            }
        }
        let mut gen = TensorGen::new(rng.next_u64());
        let instance = b
            .instantiate(&sizes, &mut gen, -7, 7)
            .map_err(|e| format!("draw {draw}: {e}"))?;
        let executed = run_kernel(source.kernel(), instance.args.clone())
            .map_err(|e| format!("draw {draw}: C interpreter: {e}"))?;
        // The output's slot among the array arguments.
        let slot = b
            .params
            .iter()
            .take(instance.output_index)
            .filter(|p| {
                matches!(
                    p,
                    gtl_benchsuite::ParamSpec::ArrayIn { .. }
                        | gtl_benchsuite::ParamSpec::ArrayOut { .. }
                )
            })
            .count();
        let expected = &executed.arrays[slot];
        let mut env = instance.env.clone();
        env.entry(instance.output_name.clone())
            .or_insert_with(|| Tensor::zeros(instance.output_shape.clone()));
        let got = evaluate_interpreted(&program, &env)
            .map_err(|e| format!("draw {draw}: TACO interpreter: {e}"))?;
        if got.shape() != &instance.output_shape || got.data() != expected.as_slice() {
            return Err(format!(
                "draw {draw} at sizes {sizes:?}: TACO gives {:?}, C gives {:?}",
                got.data(),
                expected
            ));
        }
    }
    Ok(())
}

/// Memoised [`check_solution`] over one run: a solution is checked once
/// per `(benchmark, solution)` pair however often it is served.
pub struct OutputChecker {
    seed: u64,
    suite: HashMap<&'static str, Benchmark>,
    memo: HashMap<(String, String), Result<(), String>>,
}

impl OutputChecker {
    /// A checker drawing its inputs from `seed`.
    pub fn new(seed: u64, benchmarks: &[Benchmark]) -> OutputChecker {
        OutputChecker {
            seed,
            suite: benchmarks.iter().map(|b| (b.name, b.clone())).collect(),
            memo: HashMap::new(),
        }
    }

    /// Checks one `done` answer for benchmark `name`.
    ///
    /// # Errors
    ///
    /// As [`check_solution`], or an unknown benchmark name.
    pub fn check(&mut self, name: &str, solution: &str) -> Result<(), String> {
        let key = (name.to_string(), solution.to_string());
        if let Some(hit) = self.memo.get(&key) {
            return hit.clone();
        }
        let result = match self.suite.get(name) {
            Some(b) => check_solution(b, solution, self.seed),
            None => Err(format!("unknown benchmark `{name}`")),
        };
        self.memo.insert(key, result.clone());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_list_is_the_suite_minus_sa_4d_add() {
        let expected = expected_solved();
        assert_eq!(expected.len(), 76);
        assert!(!expected.contains("sa_4d_add"));
        let names: BTreeSet<&str> = gtl_benchsuite::all_benchmarks()
            .iter()
            .map(|b| b.name)
            .collect();
        assert!(expected.is_subset(&names));
    }

    #[test]
    fn ground_truths_pass_and_wrong_solutions_fail() {
        let gemv = gtl_benchsuite::by_name("blas_gemv").expect("in suite");
        check_solution(&gemv, gemv.ground_truth, 1).expect("ground truth agrees with C");
        let err = check_solution(&gemv, "Result(i) = Mat1(j,i) * Mat2(j)", 1)
            .expect_err("transposed matrix disagrees");
        assert!(err.contains("TACO gives"), "{err}");
        assert!(check_solution(&gemv, "not taco", 1).is_err());
    }

    #[test]
    fn every_ground_truth_passes_the_check() {
        for b in gtl_benchsuite::all_benchmarks() {
            check_solution(&b, b.ground_truth, 42).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        }
    }
}
