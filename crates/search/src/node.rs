//! Partial-template trees: the search states of both A\* algorithms.
//!
//! §4.2.4's refined grammar (`EXPR ::= TENSOR | EXPR OP EXPR`) is
//! ambiguous as a *string* language, but leftmost derivations correspond
//! one-to-one with ASTs — so search states are partial derivation trees
//! whose leaves are either terminals or nonterminal holes. Expanding the
//! leftmost hole with each applicable rule realises line 12 of
//! Algorithms 1 and 2.
//!
//! Terminal leaves borrow their token from the grammar's rules, so a
//! tree costs one allocation per branch and none per tensor access: a
//! search pushes hundreds of thousands of trees, and the checker only
//! ever needs a [`TacoProgram`] for the few it pops complete.

use gtl_grammar::{NtId, Pcfg, RuleId, Sym, TemplateTok};
use gtl_taco::{Access, BinOp, Expr, TacoProgram};
use gtl_template::build_chain_expr;

/// A node of a partial derivation tree over a grammar that outlives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tree<'g> {
    /// An unexpanded nonterminal.
    Hole(NtId),
    /// A terminal leaf, borrowed from the rule that placed it.
    Term(&'g TemplateTok),
    /// The children produced by applying a multi-symbol rule.
    Branch(Vec<Tree<'g>>),
}

impl<'g> Tree<'g> {
    /// Whether the tree contains no holes.
    pub fn is_complete(&self) -> bool {
        match self {
            Tree::Hole(_) => false,
            Tree::Term(_) => true,
            Tree::Branch(cs) => cs.iter().all(Tree::is_complete),
        }
    }

    /// The leftmost hole, if any.
    pub fn leftmost_hole(&self) -> Option<NtId> {
        match self {
            Tree::Hole(n) => Some(*n),
            Tree::Term(_) => None,
            Tree::Branch(cs) => cs.iter().find_map(Tree::leftmost_hole),
        }
    }

    /// All holes, left to right.
    pub fn holes(&self) -> Vec<NtId> {
        let mut out = Vec::new();
        self.collect_holes(&mut out);
        out
    }

    fn collect_holes(&self, out: &mut Vec<NtId>) {
        match self {
            Tree::Hole(n) => out.push(*n),
            Tree::Term(_) => {}
            Tree::Branch(cs) => {
                for c in cs {
                    c.collect_holes(out);
                }
            }
        }
    }

    /// Sums `cost[n]` over the holes, left to right, onto `acc`.
    fn fold_hole_costs(&self, cost: &[f64], acc: f64) -> f64 {
        match self {
            Tree::Hole(n) => acc + cost[n.index()],
            Tree::Term(_) => acc,
            Tree::Branch(cs) => cs.iter().fold(acc, |acc, c| c.fold_hole_costs(cost, acc)),
        }
    }

    /// Replaces the leftmost hole with the RHS of `rule`, returning the
    /// new tree. Returns `None` if there is no hole.
    pub fn expand_leftmost(&self, rule_rhs: &'g [Sym]) -> Option<Tree<'g>> {
        let mut done = false;
        let out = self.expand_inner(rule_rhs, &mut done);
        if done {
            Some(out)
        } else {
            None
        }
    }

    fn expand_inner(&self, rhs: &'g [Sym], done: &mut bool) -> Tree<'g> {
        if *done {
            return self.clone();
        }
        match self {
            Tree::Hole(_) => {
                *done = true;
                subtree_of_rhs(rhs)
            }
            Tree::Term(t) => Tree::Term(t),
            Tree::Branch(cs) => {
                Tree::Branch(cs.iter().map(|c| c.expand_inner(rhs, done)).collect())
            }
        }
    }

    /// Expression depth as the paper counts it (leaves depth 1, index
    /// expressions excluded); holes count as depth-1 leaves.
    pub fn expr_depth(&self) -> usize {
        match self {
            Tree::Hole(_) | Tree::Term(_) => 1,
            Tree::Branch(cs) => {
                // A binary-expression branch is [lhs, OP, rhs]; other
                // branches (program root, chains) are traversed without
                // adding depth for the operator slot.
                if cs.len() == 3 && is_op_slot(&cs[1]) {
                    1 + cs[0].expr_depth().max(cs[2].expr_depth())
                } else {
                    cs.iter().map(Tree::expr_depth).max().unwrap_or(1)
                }
            }
        }
    }
}

/// Whether a middle child marks a binary-expression branch. In top-down
/// trees the middle slot of `EXPR OP EXPR` is either an expanded operator
/// or a still-open `OP` hole; the program root's middle slot is `=` and is
/// therefore excluded.
fn is_op_slot(t: &Tree<'_>) -> bool {
    matches!(t, Tree::Term(TemplateTok::Op(_)) | Tree::Hole(_))
}

/// Builds the subtree for a rule right-hand side.
fn subtree_of_rhs(rhs: &[Sym]) -> Tree<'_> {
    let nodes: Vec<Tree<'_>> = rhs
        .iter()
        .map(|s| match s {
            Sym::Nt(n) => Tree::Hole(*n),
            Sym::T(t) => Tree::Term(t),
        })
        .collect();
    if nodes.len() == 1 {
        nodes.into_iter().next().expect("length checked")
    } else {
        Tree::Branch(nodes)
    }
}

/// Surface facts about a (possibly partial) tree, consumed by the
/// penalty functions.
#[derive(Debug, Clone, Default)]
pub struct TreeFacts<'g> {
    /// Tensor accesses placed so far, in order (LHS first).
    pub accesses: Vec<&'g Access>,
    /// Whether a `Const` terminal is present.
    pub has_const: bool,
    /// Operators placed so far, in order.
    pub ops: Vec<BinOp>,
    /// Total operand slots on the right-hand side: placed accesses,
    /// placed constants and remaining holes that will each produce at
    /// least one operand.
    pub rhs_operand_slots: usize,
    /// Unexpanded operator holes — each may still become any operator,
    /// which the coverage penalties (a5/b2) must account for.
    pub op_holes: usize,
    /// Whether the tree is complete.
    pub complete: bool,
}

/// Extracts penalty-relevant facts. `op_nt` is the operator nonterminal
/// (its holes count as potential operators, not operands); `tails` are
/// the bottom-up `TAIL` nonterminals, whose holes may collapse to ε and
/// therefore promise nothing.
pub fn tree_facts<'g>(tree: &Tree<'g>, op_nt: NtId, tails: &[NtId]) -> TreeFacts<'g> {
    let mut f = TreeFacts {
        complete: tree.is_complete(),
        ..TreeFacts::default()
    };
    // The root is Branch([tensor1, '=', expr]); everything after '=' is
    // RHS. Walk the whole tree but only count operand slots after Eq.
    let mut seen_eq = false;
    walk(tree, op_nt, tails, &mut seen_eq, &mut f);
    f
}

fn walk<'g>(t: &Tree<'g>, op_nt: NtId, tails: &[NtId], seen_eq: &mut bool, f: &mut TreeFacts<'g>) {
    match *t {
        Tree::Term(TemplateTok::Eq) => *seen_eq = true,
        Tree::Term(TemplateTok::Access(a)) => {
            f.accesses.push(a);
            if *seen_eq {
                f.rhs_operand_slots += 1;
            }
        }
        Tree::Term(TemplateTok::ConstSym) => {
            f.has_const = true;
            if *seen_eq {
                f.rhs_operand_slots += 1;
            }
        }
        Tree::Term(TemplateTok::Op(o)) => f.ops.push(*o),
        Tree::Term(TemplateTok::Epsilon) => {}
        Tree::Hole(n) => {
            if n == op_nt {
                f.op_holes += 1;
            } else if *seen_eq && !tails.contains(&n) {
                f.rhs_operand_slots += 1;
            }
        }
        Tree::Branch(ref cs) => {
            for c in cs {
                walk(c, op_nt, tails, &mut *seen_eq, f);
            }
        }
    }
}

/// Conversion failure: the tree was not a well-formed program shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedTree;

impl std::fmt::Display for MalformedTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "derivation tree does not encode a program")
    }
}

impl std::error::Error for MalformedTree {}

/// Converts a complete *top-down* tree into a TACO template program,
/// preserving the derivation's AST structure (so `(b + c) * d` and
/// `b + c * d` stay distinct).
pub fn td_tree_to_program(tree: &Tree<'_>) -> Result<TacoProgram, MalformedTree> {
    let Tree::Branch(parts) = tree else {
        return Err(MalformedTree);
    };
    let [lhs_part, Tree::Term(TemplateTok::Eq), rhs_part] = parts.as_slice() else {
        return Err(MalformedTree);
    };
    let lhs = match lhs_part {
        Tree::Term(TemplateTok::Access(a)) => a.clone(),
        _ => return Err(MalformedTree),
    };
    let mut const_counter = 0u32;
    let rhs = td_expr(rhs_part, &mut const_counter)?;
    Ok(TacoProgram::new(lhs, rhs))
}

fn td_expr(t: &Tree<'_>, consts: &mut u32) -> Result<Expr, MalformedTree> {
    match t {
        Tree::Term(TemplateTok::Access(a)) => Ok(Expr::Access(a.clone())),
        Tree::Term(TemplateTok::ConstSym) => {
            let id = *consts;
            *consts += 1;
            Ok(Expr::ConstSym(id))
        }
        Tree::Branch(cs) => match cs.as_slice() {
            [l, Tree::Term(TemplateTok::Op(op)), r] => Ok(Expr::Binary {
                op: *op,
                lhs: Box::new(td_expr(l, consts)?),
                rhs: Box::new(td_expr(r, consts)?),
            }),
            [single] => td_expr(single, consts),
            _ => Err(MalformedTree),
        },
        _ => Err(MalformedTree),
    }
}

/// Converts a *bottom-up* tree (a tail chain) into a TACO template,
/// stripping an unexpanded trailing `TAIL` hole if present — the paper's
/// `RemoveTail` (Algorithm 2, line 7). `tails` identifies which
/// nonterminals are strippable; any other hole aborts the conversion.
pub fn bu_tree_to_program(tree: &Tree<'_>, tails: &[NtId]) -> Option<TacoProgram> {
    let Tree::Branch(parts) = tree else {
        return None;
    };
    let [lhs_part, Tree::Term(TemplateTok::Eq), rhs_part] = parts.as_slice() else {
        return None;
    };
    let lhs = match lhs_part {
        Tree::Term(TemplateTok::Access(a)) => a.clone(),
        _ => return None,
    };
    let mut leaves = Vec::new();
    let mut ops = Vec::new();
    let mut const_counter = 0u32;
    if !flatten_chain(rhs_part, tails, &mut leaves, &mut ops, &mut const_counter) {
        return None;
    }
    let rhs = build_chain_expr(&leaves, &ops)?;
    Some(TacoProgram::new(lhs, rhs))
}

/// Flattens a BU chain tree. Returns `false` if a non-tail hole remains.
/// A trailing tail hole (the last position) is silently stripped.
fn flatten_chain(
    t: &Tree<'_>,
    tails: &[NtId],
    leaves: &mut Vec<Expr>,
    ops: &mut Vec<BinOp>,
    consts: &mut u32,
) -> bool {
    match t {
        Tree::Term(TemplateTok::Access(a)) => {
            leaves.push(Expr::Access(a.clone()));
            true
        }
        Tree::Term(TemplateTok::ConstSym) => {
            let id = *consts;
            *consts += 1;
            leaves.push(Expr::ConstSym(id));
            true
        }
        Tree::Term(TemplateTok::Op(o)) => {
            ops.push(*o);
            true
        }
        Tree::Term(TemplateTok::Epsilon) | Tree::Term(TemplateTok::Eq) => true,
        // Only a TAIL hole in trailing position (balanced chain so far)
        // may be stripped.
        Tree::Hole(n) => tails.contains(n) && leaves.len() == ops.len() + 1,
        Tree::Branch(cs) => cs
            .iter()
            .all(|c| flatten_chain(c, tails, leaves, ops, consts)),
    }
}

/// Lookup table for rule application: the per-rule cost vector plus
/// heuristic costs per nonterminal.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// `-log2 P[r]` per rule.
    pub rule_cost: Vec<f64>,
    /// `-log2 h(α)` per nonterminal.
    pub heuristic: Vec<f64>,
}

impl CostModel {
    /// Builds the cost model from a grammar.
    pub fn new(pcfg: &Pcfg) -> CostModel {
        CostModel {
            rule_cost: pcfg.costs(),
            heuristic: pcfg.heuristic_costs(),
        }
    }

    /// The cost of applying `rule`.
    pub fn cost(&self, rule: RuleId) -> f64 {
        self.rule_cost[rule.index()]
    }

    /// The heuristic g(x): sum of `-log2 h(α)` over the holes of `tree`,
    /// left to right. Starting from `-0.0`, the neutral element
    /// `Iterator::sum` uses for floats, keeps the result bit-identical to
    /// summing the collected [`Tree::holes`].
    pub fn remaining_cost(&self, tree: &Tree<'_>) -> f64 {
        tree.fold_hole_costs(&self.heuristic, -0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_grammar::Pcfg;

    fn toks() -> (TemplateTok, TemplateTok, TemplateTok) {
        (
            TemplateTok::Access(Access::new("a", &["i"])),
            TemplateTok::Access(Access::new("b", &["i", "j"])),
            TemplateTok::Access(Access::new("c", &["j"])),
        )
    }

    #[test]
    fn expansion_fills_leftmost() {
        let mut g = Pcfg::new();
        let s = g.add_nonterminal("S");
        let e = g.add_nonterminal("E");
        g.set_start(s);
        let tree = Tree::Hole(s);
        let rhs = vec![Sym::Nt(e), Sym::T(TemplateTok::Eq), Sym::Nt(e)];
        let t2 = tree.expand_leftmost(&rhs).unwrap();
        assert_eq!(t2.holes().len(), 2);
        assert_eq!(t2.leftmost_hole(), Some(e));
        // Expanding again touches the left hole only.
        let t3 = t2.expand_leftmost(&[Sym::T(TemplateTok::ConstSym)]).unwrap();
        assert_eq!(t3.holes().len(), 1);
    }

    #[test]
    fn remaining_cost_is_bitwise_the_collected_sum() {
        let mut g = Pcfg::new();
        let nts: Vec<NtId> = ["X", "Y", "Z"].map(|n| g.add_nonterminal(n)).to_vec();
        // 0.1 + 0.2 + 0.3 rounds differently in each association order.
        let costs = CostModel {
            rule_cost: Vec::new(),
            heuristic: vec![0.1, 0.2, 0.3],
        };
        let collected =
            |t: &Tree<'_>| -> f64 { t.holes().iter().map(|n| costs.heuristic[n.index()]).sum() };
        let tree = Tree::Branch(vec![
            Tree::Hole(nts[0]),
            Tree::Branch(vec![
                Tree::Hole(nts[1]),
                Tree::Term(&TemplateTok::Eq),
                Tree::Hole(nts[2]),
            ]),
        ]);
        let complete = Tree::Term(&TemplateTok::Eq);
        for t in [&tree, &complete] {
            assert_eq!(costs.remaining_cost(t).to_bits(), collected(t).to_bits());
        }
    }

    #[test]
    fn complete_td_tree_roundtrip() {
        let (a, b, c) = toks();
        // a(i) = b(i,j) * c(j)
        let tree = Tree::Branch(vec![
            Tree::Term(&a),
            Tree::Term(&TemplateTok::Eq),
            Tree::Branch(vec![
                Tree::Term(&b),
                Tree::Term(&TemplateTok::Op(BinOp::Mul)),
                Tree::Term(&c),
            ]),
        ]);
        assert!(tree.is_complete());
        let p = td_tree_to_program(&tree).unwrap();
        assert_eq!(p.to_string(), "a(i) = b(i,j) * c(j)");
    }

    #[test]
    fn depth_counts_binary_nesting() {
        let (a, b, c) = toks();
        let leaf = |t| Tree::Term(t);
        let mul = |l, r| Tree::Branch(vec![l, Tree::Term(&TemplateTok::Op(BinOp::Mul)), r]);
        let t = Tree::Branch(vec![
            leaf(&a),
            Tree::Term(&TemplateTok::Eq),
            mul(mul(leaf(&b), leaf(&c)), leaf(&b)),
        ]);
        assert_eq!(t.expr_depth(), 3);
    }

    #[test]
    fn facts_count_rhs_only() {
        let (a, b, c) = toks();
        let mut g = Pcfg::new();
        let op = g.add_nonterminal("OP");
        let tree = Tree::Branch(vec![
            Tree::Term(&a),
            Tree::Term(&TemplateTok::Eq),
            Tree::Branch(vec![
                Tree::Term(&b),
                Tree::Term(&TemplateTok::Op(BinOp::Mul)),
                Tree::Term(&c),
            ]),
        ]);
        let f = tree_facts(&tree, op, &[]);
        assert_eq!(f.rhs_operand_slots, 2, "LHS access is not an operand slot");
        assert_eq!(f.accesses.len(), 3);
        assert_eq!(f.ops, vec![BinOp::Mul]);
        assert!(f.complete);
    }

    #[test]
    fn bu_chain_strips_tail() {
        let (a, b, c) = toks();
        let mut g = Pcfg::new();
        let tail = g.add_nonterminal("TAIL2");
        // a(i) = b(i,j) [chain: * c(j), TAIL2-hole]
        let tree = Tree::Branch(vec![
            Tree::Term(&a),
            Tree::Term(&TemplateTok::Eq),
            Tree::Branch(vec![
                Tree::Term(&b),
                Tree::Branch(vec![
                    Tree::Term(&TemplateTok::Op(BinOp::Mul)),
                    Tree::Term(&c),
                    Tree::Hole(tail),
                ]),
            ]),
        ]);
        let p = bu_tree_to_program(&tree, &[tail]).unwrap();
        assert_eq!(p.to_string(), "a(i) = b(i,j) * c(j)");
    }

    #[test]
    fn bu_chain_respects_precedence() {
        let (a, b, c) = toks();
        // a(i) = b + c * b  → Add(b, Mul(c, b))
        let tree = Tree::Branch(vec![
            Tree::Term(&a),
            Tree::Term(&TemplateTok::Eq),
            Tree::Branch(vec![
                Tree::Term(&b),
                Tree::Branch(vec![
                    Tree::Term(&TemplateTok::Op(BinOp::Add)),
                    Tree::Term(&c),
                    Tree::Branch(vec![
                        Tree::Term(&TemplateTok::Op(BinOp::Mul)),
                        Tree::Term(&b),
                        Tree::Term(&TemplateTok::Epsilon),
                    ]),
                ]),
            ]),
        ]);
        let p = bu_tree_to_program(&tree, &[]).unwrap();
        assert_eq!(p.to_string(), "a(i) = b(i,j) + c(j) * b(i,j)");
        match p.rhs {
            Expr::Binary { op, .. } => assert_eq!(op, BinOp::Add),
            other => panic!("expected top-level Add, got {other:?}"),
        }
    }

    #[test]
    fn incomplete_bu_with_inner_hole_rejected() {
        let (a, b, _) = toks();
        let mut g = Pcfg::new();
        let opnt = g.add_nonterminal("OP");
        let tree = Tree::Branch(vec![
            Tree::Term(&a),
            Tree::Term(&TemplateTok::Eq),
            Tree::Branch(vec![
                Tree::Term(&b),
                Tree::Branch(vec![
                    Tree::Hole(opnt), // unexpanded operator: not strippable
                    Tree::Term(&b),
                ]),
            ]),
        ]);
        assert!(bu_tree_to_program(&tree, &[]).is_none());
    }
}
