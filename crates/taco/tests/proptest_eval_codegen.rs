//! Differential property test: for randomly generated concrete TACO
//! programs, the dense einsum evaluator (`eval.rs`) must agree with the
//! C code generator (`codegen.rs`) — the generated kernel is parsed back
//! by the workspace's C front end and executed by the rational
//! interpreter on the same random inputs.
//!
//! This closes the evaluator/codegen loop the suite-wide
//! `codegen_roundtrip` integration test exercises for the 77 ground
//! truths, but over the *open* program space the search can emit.

use std::collections::BTreeMap;

use gtl_cfront::{parse_c, run_kernel, ArgValue};
use gtl_taco::{
    analyze, evaluate, evaluate_interpreted, generate_c, parse_program, Access, BinOp, EvalCache,
    EvalError, Expr, TacoProgram, TensorEnv,
};
use gtl_tensor::{Rat, RatError, Shape, TensorGen};
use proptest::prelude::*;

/// Fixed, pairwise-distinct extents: aliasing shapes (e.g. a tensor used
/// both as `b(i,j)` and `b(j,i)`) then fail `analyze` and the case is
/// skipped instead of comparing against an ill-formed kernel.
fn extent_of(ix: &str) -> usize {
    match ix {
        "i" => 2,
        "j" => 3,
        "k" => 4,
        _ => 5,
    }
}

fn arb_rhs_access() -> impl Strategy<Value = Access> {
    let idx = prop::sample::select(vec!["i", "j", "k", "l"]);
    // Rank 0–3: rank-3 accesses reach the evaluator's 3-deep summation
    // nests and the unrolled 3-load product path (MTTKRP).
    (
        prop::sample::select(vec!["b", "c", "d", "e"]),
        prop::collection::vec(idx, 0..4),
    )
        .prop_map(|(name, indices)| Access {
            tensor: name.into(),
            indices: indices.into_iter().map(Into::into).collect(),
        })
}

/// LHS accesses use distinct free indices (a repeated output index is
/// not a dense einsum output).
fn arb_lhs_access() -> impl Strategy<Value = Access> {
    prop::sample::select(vec![
        vec![],
        vec!["i"],
        vec!["j"],
        vec!["i", "j"],
        vec!["j", "k"],
    ])
    .prop_map(|indices| Access {
        tensor: "a".into(),
        indices: indices.into_iter().map(Into::into).collect(),
    })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_rhs_access().prop_map(Expr::Access),
        (1i64..9).prop_map(Expr::Const),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (
                prop::sample::select(BinOp::ALL.to_vec()),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
            inner.prop_map(|e| Expr::Neg(Box::new(e))),
        ]
    })
}

fn arb_program() -> impl Strategy<Value = TacoProgram> {
    (arb_lhs_access(), arb_expr()).prop_map(|(lhs, rhs)| TacoProgram::new(lhs, rhs))
}

/// Builds the input environment, or `None` when the program constrains
/// one tensor to two different shapes.
fn build_env(p: &TacoProgram, seed: u64) -> Option<TensorEnv> {
    let mut shapes: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for acc in p.rhs.accesses() {
        let extents: Vec<usize> =
            acc.indices.iter().map(|ix| extent_of(ix.as_str())).collect();
        match shapes.get(acc.tensor.as_str()) {
            Some(prev) if *prev != extents => return None,
            _ => {
                shapes.insert(acc.tensor.as_str().to_string(), extents);
            }
        }
    }
    let mut gen = TensorGen::new(seed);
    let mut env = TensorEnv::new();
    for (name, extents) in shapes {
        env.insert(name, gen.int_tensor(Shape::new(extents), -5, 5));
    }
    Some(env)
}

/// Adversarial value profiles for the evaluator-vs-interpreter
/// differential: each stresses a different arithmetic regime of the
/// production evaluator.
#[derive(Debug, Clone, Copy)]
enum ValueProfile {
    /// Small integers: the pure `i64` fast path.
    SmallInts,
    /// Values near ±3·10¹⁸: any product overflows `i64` (forcing the
    /// per-cell exact-rational fallback) and deep products overflow
    /// `i128` (forcing identical `RatError::Overflow` classification).
    HugeInts,
    /// `{-1, 0, 1}`: zero-rich, so `/` draws hit division by zero.
    TinyWithZeros,
    /// Non-integer rationals: the fast path must bail at conversion and
    /// run the exact engine end to end.
    Fractions,
}

fn arb_profile() -> impl Strategy<Value = ValueProfile> {
    prop::sample::select(vec![
        ValueProfile::SmallInts,
        ValueProfile::HugeInts,
        ValueProfile::TinyWithZeros,
        ValueProfile::Fractions,
    ])
}

/// Builds an environment with the given adversarial value profile, or
/// `None` when the program constrains one tensor to two shapes.
fn build_env_with(p: &TacoProgram, seed: u64, profile: ValueProfile) -> Option<TensorEnv> {
    let base = build_env(p, seed)?; // small ints in [-5, 5]
    let scale = |r: &Rat| match profile {
        ValueProfile::SmallInts => *r,
        ValueProfile::HugeInts => *r * Rat::from(600_000_000_000_000_000i64),
        ValueProfile::TinyWithZeros => {
            // Fold [-5, 5] onto {-1, 0, 1}.
            Rat::from(r.numer().clamp(-1, 1) as i64)
        }
        ValueProfile::Fractions => *r / Rat::from(3),
    };
    Some(
        base.into_iter()
            .map(|(name, t)| (name, t.map(scale)))
            .collect(),
    )
}

proptest! {
    /// The generated C kernel computes exactly what the evaluator does.
    #[test]
    fn generated_c_agrees_with_evaluator(p in arb_program(), seed in 0u64..100_000) {
        let Some(env) = build_env(&p, seed) else { return Ok(()); };
        // The evaluator is the reference; programs it rejects (index
        // aliasing, extent conflicts, division by zero on this draw) are
        // outside the comparison.
        let Ok(expected) = evaluate(&p, &env) else { return Ok(()); };
        let Ok(analysis) = analyze(&p, &env) else { return Ok(()); };

        let kernel = generate_c(&p, "fuzzed");
        let program = parse_c(&kernel.source).unwrap_or_else(|e| {
            panic!("generated C fails to parse: {e}\nfor {p}\n{}", kernel.source)
        });

        let mut args: Vec<ArgValue> = Vec::new();
        for iv in &kernel.size_params {
            let extent = analysis.extents[&iv.as_str().into()];
            args.push(ArgValue::Scalar(Rat::from(extent as i64)));
        }
        for t in &kernel.tensor_params {
            args.push(ArgValue::Array(env[t].data().to_vec()));
        }
        args.push(ArgValue::Array(vec![Rat::ZERO; expected.shape().len()]));

        let result = run_kernel(program.kernel(), args).unwrap_or_else(|e| {
            panic!("generated C failed to run: {e}\nfor {p}\n{}", kernel.source)
        });
        let got = result.arrays.last().expect("output array");
        prop_assert_eq!(
            got.as_slice(),
            expected.data(),
            "codegen disagrees with evaluator for {}\n{}",
            p,
            kernel.source
        );
    }

    /// Lowering is deterministic: the same program yields the same C.
    #[test]
    fn lowering_is_deterministic(p in arb_program()) {
        let a = generate_c(&p, "det");
        let b = generate_c(&p, "det");
        prop_assert_eq!(a.source, b.source);
        prop_assert_eq!(a.size_params, b.size_params);
        prop_assert_eq!(a.tensor_params, b.tensor_params);
    }

    /// The production evaluator agrees with the reference interpreter on
    /// every random program × shape × adversarial environment — including
    /// the exact `EvalError` classification (semantic errors, division by
    /// zero, `i128` overflow) and across the `i64`-fast-path/rational
    /// fallback boundary — through `evaluate` and through an `EvalCache`
    /// on both a miss and a hit.
    #[test]
    fn compiled_agrees_with_interpreter(
        p in arb_program(),
        seed in 0u64..100_000,
        profile in arb_profile(),
    ) {
        let Some(env) = build_env_with(&p, seed, profile) else { return Ok(()); };
        let interpreted = evaluate_interpreted(&p, &env);
        prop_assert_eq!(
            &evaluate(&p, &env), &interpreted,
            "evaluate diverges from interpreter for {} under {:?}",
            p, profile
        );
        let cache = EvalCache::default();
        prop_assert_eq!(&cache.evaluate(&p, &env), &interpreted); // miss
        prop_assert_eq!(&cache.evaluate(&p, &env), &interpreted); // hit
        prop_assert_eq!(cache.stats().hits, 1);
    }
}

/// Fixed adversarial regressions, independent of the random stream: the
/// three error-classification boundaries the production evaluator must
/// place exactly where the interpreter does, checked through `evaluate`
/// and through an `EvalCache` miss and hit.
#[test]
fn compiled_error_classification_matches_interpreter() {
    let cache = EvalCache::default();
    let all_routes = |p: &TacoProgram, env: &TensorEnv| {
        let got = evaluate(p, env);
        assert_eq!(cache.evaluate(p, env), got, "cache miss diverges for {p}");
        assert_eq!(cache.evaluate(p, env), got, "cache hit diverges for {p}");
        got
    };

    // Division by zero mid-sweep.
    let p = parse_program("a(i) = b(i) / c(i)").unwrap();
    let mut env = TensorEnv::new();
    env.insert("b".into(), vec_tensor(&[1, 2]));
    env.insert("c".into(), vec_tensor(&[1, 0]));
    let got = all_routes(&p, &env);
    assert_eq!(got, evaluate_interpreted(&p, &env));
    assert_eq!(got, Err(EvalError::Arithmetic(RatError::DivisionByZero)));

    // i64 overflow → exact fallback (same value), then i128 overflow →
    // same error. Extent-2 summation keeps sum_iters > 1 so the i64
    // fast path is actually entered before the fallback triggers.
    let big = 3_000_000_000_000_000_000i64;
    let p2 = parse_program("a = b(i) * b(i)").unwrap();
    let mut env2 = TensorEnv::new();
    env2.insert("b".into(), vec_tensor(&[big, big]));
    let v = all_routes(&p2, &env2).unwrap();
    assert_eq!(v, evaluate_interpreted(&p2, &env2).unwrap());
    assert_eq!(*v.as_scalar(), Rat::new(2 * (big as i128 * big as i128), 1));

    let p3 = parse_program("a = b(i) * b(i) * b(i) * b(i)").unwrap();
    let got3 = all_routes(&p3, &env2);
    assert_eq!(got3, evaluate_interpreted(&p3, &env2));
    assert_eq!(got3, Err(EvalError::Arithmetic(RatError::Overflow)));
    assert_eq!(cache.stats().hits, 3);
}

fn vec_tensor(data: &[i64]) -> gtl_tensor::Tensor {
    gtl_tensor::Tensor::from_ints(Shape::new(vec![data.len()]), data)
}

/// A fixed regression pair, so a failure here is independent of the
/// random stream.
#[test]
fn known_program_agrees() {
    let p = parse_program("a(i) = b(i,j) * c(j) + 2").unwrap();
    let env = build_env(&p, 7).unwrap();
    let expected = evaluate(&p, &env).unwrap();
    let analysis = analyze(&p, &env).unwrap();
    let kernel = generate_c(&p, "known");
    let program = parse_c(&kernel.source).unwrap();
    let mut args: Vec<ArgValue> = Vec::new();
    for iv in &kernel.size_params {
        args.push(ArgValue::Scalar(Rat::from(analysis.extents[&iv.as_str().into()] as i64)));
    }
    for t in &kernel.tensor_params {
        args.push(ArgValue::Array(env[t].data().to_vec()));
    }
    args.push(ArgValue::Array(vec![Rat::ZERO; expected.shape().len()]));
    let result = run_kernel(program.kernel(), args).unwrap();
    assert_eq!(result.arrays.last().unwrap().as_slice(), expected.data());
}
