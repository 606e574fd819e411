//! Golden search order: the exact sequence of templates each search
//! algorithm sends to its checker, pinned for a few learned grammars.
//!
//! The search engines are tuned for speed (tree representation, penalty
//! evaluation, frontier bookkeeping); none of that may change *which*
//! templates are attempted or in what order, because `jobs = 1` must
//! stay bit-identical to the paper artifact. An always-failing spy
//! checker records every attempted template; the test pins an FNV-1a
//! hash of the sequence (each template's `Debug` form, which keeps the
//! AST's parenthesisation) together with the attempt and node counts.

use gtl_analysis::analyze_kernel;
use gtl_bench::query_for;
use gtl_oracle::{Oracle, OracleQuery, SyntheticOracle};
use std::time::Duration;

use gtl_search::{
    bottom_up_search, top_down_search, CheckOutcome, PenaltyContext, PenaltySettings, SearchBudget,
};
use gtl_taco::{parse_program, preprocess_candidate, TacoProgram};
use gtl_template::{
    any_const, any_repeated_index, generate_bu_grammar, generate_td_grammar, index_variable_count,
    learn_weights, overlay_lhs_dimension, predict_dimension_list, templatize, TdSpec, Template,
    TemplateGrammar,
};

/// Attempt budget per search: large enough to reach deep, penalised
/// regions of the frontier, small enough to keep the test fast.
const ATTEMPTS: u64 = 2_000;

/// The first-round learned grammar and penalty context for a suite
/// benchmark, built exactly as the pipeline builds them.
fn learned(name: &str, bottom_up: bool) -> (TemplateGrammar, PenaltyContext) {
    let b = gtl_benchsuite::by_name(name).expect("known benchmark");
    let query = query_for(&b);
    let raw = SyntheticOracle::default().candidates(&OracleQuery {
        label: &query.label,
        c_source: &query.source,
        ground_truth: query.ground_truth.as_ref(),
    });
    let pool: Vec<Template> = raw
        .iter()
        .filter_map(|l| preprocess_candidate(l))
        .filter_map(|s| parse_program(&s).ok())
        .filter_map(|p| templatize(&p).ok())
        .collect();
    let facts = analyze_kernel(&query.task.func);
    let voted = predict_dimension_list(&pool).unwrap_or_default();
    let dim_list = overlay_lhs_dimension(voted, facts.lhs_dim);
    let spec = TdSpec {
        dim_list: dim_list.clone(),
        n_indices: index_variable_count(&pool).max(1),
        allow_repeated_index: any_repeated_index(&pool),
        include_const: any_const(&pool),
    };
    let mut grammar = if bottom_up {
        generate_bu_grammar(&spec)
    } else {
        generate_td_grammar(&spec)
    };
    learn_weights(&mut grammar, &pool);
    let ctx = PenaltyContext {
        dim_list,
        grammar_has_const: grammar.nts.constant.is_some() || grammar.nts.dim_nts.contains_key(&0),
        live_ops: grammar.live_ops(),
        settings: PenaltySettings::all(),
    };
    (grammar, ctx)
}

/// What one spied search attempted: an order-sensitive FNV-1a hash of
/// the templates, and the engine's counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Trace {
    hash: u64,
    attempts: u64,
    nodes: u64,
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn trace(name: &str, bottom_up: bool) -> Trace {
    let (grammar, ctx) = learned(name, bottom_up);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut spy = |t: &TacoProgram| {
        hash = fnv1a(hash, format!("{t:?}\n").as_bytes());
        CheckOutcome::Failed
    };
    // Only the attempt budget may stop the search: a wall-clock stop on
    // a slow machine would cut the sequence short.
    let budget = SearchBudget {
        max_attempts: ATTEMPTS,
        time_limit: Duration::from_secs(3_600),
        ..SearchBudget::default()
    };
    let out = if bottom_up {
        bottom_up_search(&grammar, &ctx, budget, &mut spy)
    } else {
        top_down_search(&grammar, &ctx, budget, &mut spy)
    };
    Trace {
        hash,
        attempts: out.attempts,
        nodes: out.nodes_expanded,
    }
}

/// `(benchmark, bottom_up, hash, attempts, nodes)`. A mismatch means the
/// search order changed; re-recording is not a fix. `mf_lerp`'s top-down
/// grammar has a `Const` terminal.
const GOLDEN: &[(&str, bool, u64, u64, u64)] = &[
    ("sa_4d_add", false, 0x882e_c3e9_46db_ff08, 2000, 2774),
    ("sa_4d_add", true, 0x299d_3571_10e1_8cf6, 2000, 3540),
    ("blas_gemv", false, 0xc5fb_7fee_71e9_1836, 2000, 3400),
    ("blas_gemv", true, 0x30fb_faf5_597b_8c5f, 108, 175),
    ("art_paren_mul", false, 0x7dee_fd51_8bc7_73d6, 2000, 4064),
    ("art_paren_mul", true, 0x7368_ebb9_bd3b_c707, 2000, 2771),
    ("mf_lerp", false, 0x8604_82fe_dd65_169f, 2000, 14244),
    ("mf_lerp", true, 0x0c18_8f4e_e589_83c9, 2000, 17649),
];

#[test]
fn mf_lerp_grammar_has_a_constant() {
    let (grammar, _) = learned("mf_lerp", false);
    assert!(
        grammar.nts.constant.is_some(),
        "the goldens must cover a Const terminal"
    );
}

#[test]
fn learned_grammar_search_order_is_pinned() {
    let mut mismatches = Vec::new();
    for &(name, bottom_up, hash, attempts, nodes) in GOLDEN {
        let got = trace(name, bottom_up);
        let want = Trace {
            hash,
            attempts,
            nodes,
        };
        if got != want {
            mismatches.push(format!(
                "{name} ({}): got {got:?}, want {want:?}",
                if bottom_up { "bu" } else { "td" }
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "search order changed:\n{}",
        mismatches.join("\n")
    );
}
