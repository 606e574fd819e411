//! Algorithm 2: bottom-up A\* over the tail grammar (§5.2).

use gtl_taco::TacoProgram;
use gtl_template::{GrammarShape, TemplateGrammar};

use crate::driver::{SearchBudget, SearchOutcome, TemplateChecker};
use crate::frontier::{run_sequential, Child, Expand};
use crate::node::{bu_tree_to_program, tree_facts, CostModel, Tree};
use crate::penalty::{bu_penalty, PenaltyContext};

/// The bottom-up completion estimate g(x) of §5.2: the sum, over chain
/// positions not yet filled, of the minimal cost m(d) of adding a tensor
/// of that position's dimension.
fn bu_remaining_cost(
    grammar: &TemplateGrammar,
    costs: &CostModel,
    current_tensors: usize,
) -> f64 {
    let dims = &grammar.nts.position_dims;
    if dims.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for &d in dims.iter().skip(current_tensors) {
        let Some(&nt) = grammar.nts.dim_nts.get(&d) else {
            continue;
        };
        let m = grammar
            .pcfg
            .rules_of(nt)
            .iter()
            .map(|rid| costs.cost(*rid))
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            total += m;
        }
    }
    total
}

/// Runs the bottom-up A\* enumeration of Algorithm 2.
///
/// Dequeued expressions whose tensor count has reached the predicted
/// dimension-list length have their trailing `TAIL` removed
/// (`RemoveTail`) and are passed to the checker; on failure the original
/// (tail re-appended) expression is expanded further. Fully complete
/// chains are always checked.
///
/// # Panics
///
/// Panics if `grammar` is not bottom-up shaped.
pub fn bottom_up_search(
    grammar: &TemplateGrammar,
    ctx: &PenaltyContext,
    budget: SearchBudget,
    checker: &mut dyn TemplateChecker,
) -> SearchOutcome {
    let exp = BuExpand::new(grammar, ctx);
    run_sequential(&exp, budget, checker)
}

/// The bottom-up judgement of a dequeued chain tree (Algorithm 2
/// lines 5–12), shared by the sequential and parallel engines.
pub(crate) struct BuExpand<'a> {
    grammar: &'a TemplateGrammar,
    ctx: &'a PenaltyContext,
    costs: CostModel,
    /// Number of tensors that triggers validation (|tensors(x)| = |L|,
    /// Algorithm 2 line 5). With no prediction (full grammar) every
    /// strippable prefix is validated.
    predicted_rhs: Option<usize>,
}

impl<'a> BuExpand<'a> {
    /// Builds the expander; panics if `grammar` is not bottom-up shaped.
    pub(crate) fn new(grammar: &'a TemplateGrammar, ctx: &'a PenaltyContext) -> BuExpand<'a> {
        assert_eq!(
            grammar.shape,
            GrammarShape::BottomUp,
            "bottom_up_search requires a bottom-up grammar"
        );
        let predicted_rhs = if grammar.nts.position_dims.is_empty() {
            None
        } else {
            Some(grammar.nts.position_dims.len())
        };
        BuExpand {
            grammar,
            ctx,
            costs: CostModel::new(&grammar.pcfg),
            predicted_rhs,
        }
    }
}

impl<'a> Expand<'a> for BuExpand<'a> {
    fn root(&self) -> Tree<'a> {
        Tree::Hole(self.grammar.pcfg.start())
    }

    fn skip(&self, _tree: &Tree<'a>) -> bool {
        false
    }

    // Lines 5–11: when big enough (or complete), strip the tail and
    // validate. Algorithm 2 line 5 gates validation strictly on the
    // predicted tensor count — shorter complete chains are never
    // validated, which is why the bottom-up variant leans entirely on
    // dimension prediction. Without a prediction (full grammar) every
    // strippable prefix is validated instead.
    fn candidate(&self, tree: &Tree<'a>) -> Option<TacoProgram> {
        let facts = tree_facts(tree, self.grammar.nts.op, &self.grammar.nts.tails);
        let ready = match self.predicted_rhs {
            Some(n) => facts.rhs_operand_slots >= n,
            None => true,
        };
        if !ready {
            return None;
        }
        bu_tree_to_program(tree, &self.grammar.nts.tails)
    }

    // Line 12: expand the leftmost nonterminal.
    fn children(&self, tree: &Tree<'a>, cost: f64) -> Vec<Child<'a>> {
        if tree.is_complete() {
            return Vec::new();
        }
        let Some(nt) = tree.leftmost_hole() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for rid in self.grammar.pcfg.rules_of(nt) {
            let rule_cost = self.costs.cost(*rid);
            if rule_cost.is_infinite() {
                continue;
            }
            let rhs = &self.grammar.pcfg.rule(*rid).rhs;
            let child = tree.expand_leftmost(rhs).expect("leftmost hole exists");
            let c = cost + rule_cost;
            let child_facts =
                tree_facts(&child, self.grammar.nts.op, &self.grammar.nts.tails);
            let g = bu_remaining_cost(self.grammar, &self.costs, child_facts.rhs_operand_slots);
            let x = bu_penalty(&child_facts, self.ctx);
            if x.is_infinite() {
                continue;
            }
            out.push(Child {
                tree: child,
                cost: c,
                f: c + g + x,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CheckOutcome;
    use gtl_taco::{parse_program, TacoProgram};
    use gtl_template::{generate_bu_grammar, learn_weights, templatize, TdSpec};

    fn grammar_with(cands: &[&str], dims: Vec<usize>, n_indices: usize) -> TemplateGrammar {
        let templates: Vec<_> = cands
            .iter()
            .map(|s| templatize(&parse_program(s).unwrap()).unwrap())
            .collect();
        let mut g = generate_bu_grammar(&TdSpec {
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
            settings: crate::penalty::PenaltySettings::all(),
        }
    }

    fn accept_only(target: &str) -> impl FnMut(&TacoProgram) -> CheckOutcome {
        let want = parse_program(target).unwrap();
        move |t: &TacoProgram| {
            if *t == want {
                CheckOutcome::Verified(t.clone())
            } else {
                CheckOutcome::Failed
            }
        }
    }

    #[test]
    fn finds_gemv_template() {
        let g = grammar_with(
            &["r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(i)"],
            vec![1, 2, 1],
            2,
        );
        let ctx = ctx_for(&g);
        let mut checker = accept_only("a(i) = b(i,j) * c(j)");
        let out = bottom_up_search(&g, &ctx, SearchBudget::default(), &mut checker);
        assert!(out.solved());
    }

    #[test]
    fn chain_reaches_precedence_shapes() {
        // a*b + c is a precedence-respecting chain.
        let g = grammar_with(
            &["o(i) = x(i) * y(i) + z(i)"],
            vec![1, 1, 1, 1],
            1,
        );
        let ctx = ctx_for(&g);
        let mut checker = accept_only("a(i) = b(i) * c(i) + d(i)");
        let out = bottom_up_search(&g, &ctx, SearchBudget::default(), &mut checker);
        assert!(out.solved());
    }

    #[test]
    fn cannot_reach_balanced_ast() {
        // (b + c) * d is not expressible as a chain: search must fail.
        let g = grammar_with(
            &["o(i) = x(i) + y(i) * z(i)"],
            vec![1, 1, 1, 1],
            1,
        );
        let ctx = ctx_for(&g);
        let mut checker = accept_only("a(i) = (b(i) + c(i)) * d(i)");
        let out = bottom_up_search(
            &g,
            &ctx,
            SearchBudget {
                max_nodes: 50_000,
                max_attempts: 2_000,
                ..SearchBudget::default()
            },
            &mut checker,
        );
        assert!(!out.solved(), "RQ2: bottom-up cannot express balanced ASTs");
    }

    #[test]
    fn validates_at_predicted_size() {
        let g = grammar_with(&["r(i) = m(i,j) * v(j)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        let mut sizes: Vec<usize> = Vec::new();
        let mut spy = |t: &TacoProgram| {
            sizes.push(t.rhs.operands().len());
            CheckOutcome::Failed
        };
        let _ = bottom_up_search(
            &g,
            &ctx,
            SearchBudget {
                max_attempts: 20,
                ..SearchBudget::default()
            },
            &mut spy,
        );
        assert!(!sizes.is_empty());
        assert!(
            sizes.iter().all(|&s| s == 2),
            "validation only at the predicted tensor count: {sizes:?}"
        );
    }

    #[test]
    fn fewer_attempts_than_topdown_on_common_query() {
        // The BU grammar fixes dimension order, so it enumerates fewer
        // templates than TD on the same query (Table 1's attempts gap).
        let cands = [
            "r(i) = m(i,j) * v(j)",
            "r(i) = m(j,i) * v(i)",
            "r(i) = m(i,j) + v(i)",
        ];
        let bu = grammar_with(&cands, vec![1, 2, 1], 2);
        let bu_ctx = ctx_for(&bu);
        let mut bu_count = 0u64;
        let mut bu_spy = |_t: &TacoProgram| {
            bu_count += 1;
            CheckOutcome::Failed
        };
        let budget = SearchBudget {
            max_nodes: 20_000,
            max_attempts: 10_000,
            ..SearchBudget::default()
        };
        let out_bu = bottom_up_search(&bu, &bu_ctx, budget, &mut bu_spy);

        let templates: Vec<_> = cands
            .iter()
            .map(|s| {
                gtl_template::templatize(&parse_program(s).unwrap()).unwrap()
            })
            .collect();
        let mut td = gtl_template::generate_td_grammar(&TdSpec {
            dim_list: vec![1, 2, 1],
            n_indices: 2,
            allow_repeated_index: false,
            include_const: false,
        });
        learn_weights(&mut td, &templates);
        let td_ctx = PenaltyContext {
            dim_list: td.dim_list.clone(),
            grammar_has_const: td.nts.constant.is_some(),
            live_ops: td.live_ops(),
            settings: crate::penalty::PenaltySettings::all(),
        };
        let mut td_count = 0u64;
        let mut td_spy = |_t: &TacoProgram| {
            td_count += 1;
            CheckOutcome::Failed
        };
        let out_td = crate::topdown::top_down_search(&td, &td_ctx, budget, &mut td_spy);
        assert!(
            out_bu.attempts <= out_td.attempts,
            "BU ({}) should enumerate no more templates than TD ({})",
            out_bu.attempts,
            out_td.attempts
        );
    }
}
