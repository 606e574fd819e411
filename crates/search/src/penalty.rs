//! The penalty functions X(x) of §5.1 (top-down: a1–a5) and §5.2
//! (bottom-up: b1–b2).
//!
//! Interpretive notes (the paper leaves some wording open; these choices
//! are documented in DESIGN.md):
//!
//! - A template's *length* is its operand count including the LHS, which
//!   equals the dimension-list length when they match.
//! - a2 fires on complete templates of the wrong length and on partial
//!   templates that have already *exceeded* the predicted length (they
//!   cannot shrink).
//! - a5/b2's "operations defined in the grammar" are the operators with
//!   substantial learned weight ([`gtl_template::TemplateGrammar::live_ops`]);
//!   templates with no operator at all are exempt.

use gtl_grammar::TemplateTok;
use gtl_taco::BinOp;

use crate::node::{MalformedTree, Tree, TreeFacts};

/// Which penalty rules are active — the knobs behind Table 2's
/// `Drop(a1)…Drop(b2)` ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PenaltySettings {
    /// a1: bias against long expressions with poor index variety and no
    /// constant (weight 10).
    pub a1: bool,
    /// a2: length must match the dimension list (weight 100).
    pub a2: bool,
    /// a3: tensor symbols alphabetical by first appearance (∞).
    pub a3: bool,
    /// a4: no `+`, `-`, `/` applied to two copies of the same tensor (∞).
    pub a4: bool,
    /// a5: must use at least half the live operators (∞).
    pub a5: bool,
    /// b1: bottom-up alphabetical-order penalty (weight 100).
    pub b1: bool,
    /// b2: bottom-up operator-coverage penalty (∞).
    pub b2: bool,
}

impl PenaltySettings {
    /// Everything enabled (the paper's default).
    pub fn all() -> PenaltySettings {
        PenaltySettings {
            a1: true,
            a2: true,
            a3: true,
            a4: true,
            a5: true,
            b1: true,
            b2: true,
        }
    }

    /// Everything disabled — the `Drop(A)` / `Drop(B)` ablations.
    pub fn none() -> PenaltySettings {
        PenaltySettings {
            a1: false,
            a2: false,
            a3: false,
            a4: false,
            a5: false,
            b1: false,
            b2: false,
        }
    }

    /// Disables one named rule (e.g. `"a3"`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown rule name.
    pub fn drop_rule(mut self, name: &str) -> PenaltySettings {
        match name {
            "a1" => self.a1 = false,
            "a2" => self.a2 = false,
            "a3" => self.a3 = false,
            "a4" => self.a4 = false,
            "a5" => self.a5 = false,
            "b1" => self.b1 = false,
            "b2" => self.b2 = false,
            other => panic!("unknown penalty rule `{other}`"),
        }
        self
    }
}

impl Default for PenaltySettings {
    fn default() -> Self {
        PenaltySettings::all()
    }
}

/// Static context shared by all penalty evaluations for one query.
#[derive(Debug, Clone)]
pub struct PenaltyContext {
    /// The predicted dimension list (may be empty for full grammars).
    pub dim_list: Vec<usize>,
    /// Whether the grammar includes a constant expression (a1's guard).
    pub grammar_has_const: bool,
    /// Operators with substantial learned weight.
    pub live_ops: Vec<BinOp>,
    /// Active rules.
    pub settings: PenaltySettings,
}

impl PenaltyContext {
    fn predicted_len(&self) -> Option<usize> {
        if self.dim_list.is_empty() {
            None
        } else {
            Some(self.dim_list.len())
        }
    }

    /// Minimum distinct operators a complete multi-operand template must
    /// use: half the live set, rounded up.
    fn min_ops(&self) -> usize {
        self.live_ops.len().div_ceil(2)
    }
}

/// Does the sequence of distinct tensor symbols, in order of first
/// appearance, follow the alphabet `a, b, c…`? (a3 / b1.)
fn alphabetical_by_first_appearance(facts: &TreeFacts<'_>) -> bool {
    let mut seen: Vec<&str> = Vec::new();
    for acc in &facts.accesses {
        let name = acc.tensor.as_str();
        if !seen.contains(&name) {
            seen.push(name);
        }
    }
    seen.iter()
        .enumerate()
        .all(|(n, s)| s.as_bytes() == [b'a' + n as u8])
}

/// a1: grammar has constants, expression is long, but the template lacks
/// index variety or a constant (weight 10).
fn a1_violated(facts: &TreeFacts<'_>, ctx: &PenaltyContext) -> bool {
    if !ctx.grammar_has_const {
        return false;
    }
    // "length of x exceeds 3": operand count including the LHS.
    if facts.rhs_operand_slots < 3 {
        return false;
    }
    let tensors_with_i = facts
        .accesses
        .iter()
        .skip(1) // LHS
        .filter(|a| a.indices.iter().any(|ix| ix.as_str() == "i"))
        .count();
    tensors_with_i < 2 || !facts.has_const
}

/// a4: a complete top-down template applying `+`, `-` or `/` to two
/// structurally identical operands (∞).
///
/// Judged on the derivation tree itself, with exactly the verdict the
/// converted program would get ([`crate::node::td_tree_to_program`]):
/// `Err` where conversion fails, and operands compared as the ASTs they
/// convert to. A `Const` leaf never equals another, because conversion
/// numbers every `Const` occurrence with a fresh id.
fn a4_violated(tree: &Tree<'_>) -> Result<bool, MalformedTree> {
    match tree {
        Tree::Branch(parts) => match parts.as_slice() {
            [Tree::Term(TemplateTok::Access(_)), Tree::Term(TemplateTok::Eq), rhs] => {
                self_operation(rhs)
            }
            _ => Err(MalformedTree),
        },
        _ => Err(MalformedTree),
    }
}

/// Whether a well-formed expression subtree contains a bad-operator node
/// over equal operands; `Err` where the subtree is not an expression.
fn self_operation(t: &Tree<'_>) -> Result<bool, MalformedTree> {
    match t {
        Tree::Term(TemplateTok::Access(_) | TemplateTok::ConstSym) => Ok(false),
        Tree::Branch(cs) => match cs.as_slice() {
            [l, Tree::Term(TemplateTok::Op(op)), r] => {
                // Both sides are checked for well-formedness before any
                // verdict, as conversion would.
                let inner = self_operation(l)? | self_operation(r)?;
                let bad_op = matches!(op, BinOp::Add | BinOp::Sub | BinOp::Div);
                Ok(inner || (bad_op && same_operand(l, r)))
            }
            [single] => self_operation(single),
            _ => Err(MalformedTree),
        },
        _ => Err(MalformedTree),
    }
}

/// Equality of two well-formed expression subtrees as converted ASTs:
/// single-child branches are transparent and `Const` leaves are unequal.
fn same_operand(a: &Tree<'_>, b: &Tree<'_>) -> bool {
    match (transparent(a), transparent(b)) {
        (Tree::Term(x), Tree::Term(y)) => x == y && **x != TemplateTok::ConstSym,
        (Tree::Branch(xs), Tree::Branch(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_operand(x, y))
        }
        _ => false,
    }
}

/// Looks through single-child branches, which conversion erases.
fn transparent<'t, 'g>(mut t: &'t Tree<'g>) -> &'t Tree<'g> {
    while let Tree::Branch(cs) = t {
        match cs.as_slice() {
            [single] => t = single,
            _ => break,
        }
    }
    t
}

/// Operator-coverage check shared by a5 and b2: a template with at least
/// one operator position must be able to use at least `min_ops` distinct
/// live operators. Unexpanded operator holes count as potential distinct
/// operators so partial trees are not pruned prematurely.
fn op_coverage_violated(facts: &TreeFacts<'_>, ctx: &PenaltyContext) -> bool {
    if facts.ops.is_empty() && facts.op_holes == 0 {
        return false;
    }
    let mut distinct: Vec<BinOp> = Vec::new();
    for o in &facts.ops {
        if !distinct.contains(o) {
            distinct.push(*o);
        }
    }
    distinct.len() + facts.op_holes < ctx.min_ops()
}

/// The top-down penalty X(x) over (partial or complete) templates
/// (§5.1). `facts` are [`crate::node::tree_facts`] of `tree`; the
/// whole-template rules a4 and a5 judge `tree` once it is complete and
/// encodes a program.
pub fn td_penalty(facts: &TreeFacts<'_>, tree: &Tree<'_>, ctx: &PenaltyContext) -> f64 {
    let s = &ctx.settings;
    let mut x = 0.0f64;
    if s.a1 && a1_violated(facts, ctx) {
        x += 10.0;
    }
    if s.a2 {
        if let Some(len) = ctx.predicted_len() {
            let current = facts.rhs_operand_slots + 1;
            let violated = if facts.complete {
                current != len
            } else {
                current > len
            };
            if violated {
                x += 100.0;
            }
        }
    }
    if s.a3 && !alphabetical_by_first_appearance(facts) {
        return f64::INFINITY;
    }
    if facts.complete {
        if let Ok(self_op) = a4_violated(tree) {
            if s.a4 && self_op {
                return f64::INFINITY;
            }
            if s.a5 && op_coverage_violated(facts, ctx) {
                return f64::INFINITY;
            }
        }
    }
    x
}

/// The bottom-up penalty X(x) (§5.2).
pub fn bu_penalty(facts: &TreeFacts<'_>, ctx: &PenaltyContext) -> f64 {
    let s = &ctx.settings;
    let mut x = 0.0f64;
    if s.b1 && !alphabetical_by_first_appearance(facts) {
        x += 100.0;
    }
    if s.b2 {
        if let Some(len) = ctx.predicted_len() {
            // Fires once the template holds at least the predicted number
            // of tensors yet uses too few operators.
            if facts.rhs_operand_slots + 1 >= len && op_coverage_violated(facts, ctx) {
                return f64::INFINITY;
            }
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_grammar::{NtId, Pcfg};
    use gtl_taco::{parse_program, Access, Expr, TacoProgram};

    use crate::node::{td_tree_to_program, tree_facts};

    /// A parsed template and the terminals its test tree borrows, in
    /// derivation order: LHS, `=`, then the RHS left to right.
    struct Parsed {
        rhs: Expr,
        toks: Vec<TemplateTok>,
    }

    impl Parsed {
        fn new(src: &str) -> Parsed {
            fn push(e: &Expr, toks: &mut Vec<TemplateTok>) {
                match e {
                    Expr::Access(a) => toks.push(TemplateTok::Access(a.clone())),
                    Expr::ConstSym(_) => toks.push(TemplateTok::ConstSym),
                    Expr::Binary { op, lhs, rhs } => {
                        push(lhs, toks);
                        toks.push(TemplateTok::Op(*op));
                        push(rhs, toks);
                    }
                    other => panic!("not a template expression: {other:?}"),
                }
            }
            let p = parse_program(src).unwrap();
            let mut toks = vec![TemplateTok::Access(p.lhs.clone()), TemplateTok::Eq];
            push(&p.rhs, &mut toks);
            Parsed { rhs: p.rhs, toks }
        }

        /// The complete top-down derivation tree of the template.
        fn tree(&self) -> Tree<'_> {
            fn build<'g>(e: &Expr, toks: &mut std::slice::Iter<'g, TemplateTok>) -> Tree<'g> {
                match e {
                    Expr::Binary { lhs, rhs, .. } => {
                        let l = build(lhs, toks);
                        let op = Tree::Term(toks.next().unwrap());
                        Tree::Branch(vec![l, op, build(rhs, toks)])
                    }
                    _ => Tree::Term(toks.next().unwrap()),
                }
            }
            let mut toks = self.toks.iter();
            let lhs = Tree::Term(toks.next().unwrap());
            let eq = Tree::Term(toks.next().unwrap());
            Tree::Branch(vec![lhs, eq, build(&self.rhs, &mut toks)])
        }
    }

    fn op_nt() -> NtId {
        Pcfg::new().add_nonterminal("OP")
    }

    fn td(src: &str, c: &PenaltyContext) -> f64 {
        let parsed = Parsed::new(src);
        let tree = parsed.tree();
        td_penalty(&tree_facts(&tree, op_nt(), &[]), &tree, c)
    }

    fn bu(src: &str, c: &PenaltyContext) -> f64 {
        let parsed = Parsed::new(src);
        bu_penalty(&tree_facts(&parsed.tree(), op_nt(), &[]), c)
    }

    fn ctx(dim_list: Vec<usize>, live: Vec<BinOp>) -> PenaltyContext {
        PenaltyContext {
            dim_list,
            grammar_has_const: true,
            live_ops: live,
            settings: PenaltySettings::all(),
        }
    }

    #[test]
    fn a3_kills_out_of_order_symbols() {
        let c = ctx(vec![1, 1, 1], vec![BinOp::Mul]);
        assert!(td("a(i) = c(i) * b(i)", &c).is_infinite());
    }

    #[test]
    fn a2_penalises_wrong_length() {
        let c = ctx(vec![1, 1, 1], vec![BinOp::Mul]);
        let x = td("a(i) = b(i)", &c);
        assert!((x - 100.0).abs() < 1e-9);
    }

    #[test]
    fn a4_kills_self_subtraction() {
        let c = ctx(vec![1, 1, 1], vec![BinOp::Sub]);
        assert!(td("a(i) = b(i) - b(i)", &c).is_infinite());
        // Self-multiplication is fine (sum of squares).
        let c2 = ctx(vec![0, 1, 1], vec![BinOp::Mul]);
        assert_eq!(td("a = b(i) * b(i)", &c2), 0.0);
    }

    #[test]
    fn a5_requires_op_coverage() {
        // Live ops {+, *}: min 1 distinct → * alone passes.
        let c = ctx(vec![1, 2, 1], vec![BinOp::Add, BinOp::Mul]);
        assert_eq!(td("a(i) = b(i,j) * c(j)", &c), 0.0);
        // Live ops {+,-,*}: min 2 distinct → * alone fails.
        let c3 = ctx(vec![1, 2, 1], vec![BinOp::Add, BinOp::Sub, BinOp::Mul]);
        assert!(td("a(i) = b(i,j) * c(j)", &c3).is_infinite());
    }

    #[test]
    fn a1_bias_on_long_expressions() {
        // 3 RHS operands (length 4), has const in grammar, no const used,
        // and only one tensor uses i.
        let src = "a(i) = b(i) + c(j) + d(j)";
        let mut c = ctx(vec![1, 1, 1, 1], vec![BinOp::Add]);
        assert!(td(src, &c) >= 10.0);
        // Dropping a1 removes the bias.
        c.settings = c.settings.drop_rule("a1");
        assert!(td(src, &c) < 10.0);
    }

    #[test]
    fn b1_soft_alphabetical() {
        let c = ctx(vec![1, 1, 1], vec![BinOp::Mul]);
        assert_eq!(bu("a(i) = c(i) * b(i)", &c), 100.0);
    }

    #[test]
    fn b2_fires_at_predicted_size() {
        let src = "a(i) = b(i) + c(i)";
        // Live {+,-,*,/}: min 2; only + used and size reached.
        let c = ctx(vec![1, 1, 1], BinOp::ALL.to_vec());
        assert!(bu(src, &c).is_infinite());
        // Below predicted size: no penalty.
        let c2 = ctx(vec![1, 1, 1, 1], BinOp::ALL.to_vec());
        assert_eq!(bu(src, &c2), 0.0);
    }

    #[test]
    fn partial_a2_only_when_exceeded() {
        let a = Access::new("a", &["i"]);
        let facts = TreeFacts {
            accesses: vec![&a],
            has_const: false,
            ops: vec![],
            rhs_operand_slots: 1,
            op_holes: 0,
            complete: false,
        };
        // Partial trees are judged on their facts alone.
        let tree = Tree::Hole(op_nt());
        let mut c = ctx(vec![1, 1, 1], vec![BinOp::Mul]);
        c.grammar_has_const = false; // isolate a2 from a1
        assert_eq!(td_penalty(&facts, &tree, &c), 0.0, "can still grow");
        let facts_big = TreeFacts {
            rhs_operand_slots: 4,
            ..facts
        };
        assert!((td_penalty(&facts_big, &tree, &c) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn settings_dropping() {
        let s = PenaltySettings::all().drop_rule("a4");
        assert!(!s.a4);
        assert!(s.a3);
        let mut c = ctx(vec![1, 1, 1], vec![BinOp::Sub]);
        c.settings = s;
        assert!(!td("a(i) = b(i) - b(i)", &c).is_infinite());
    }

    /// The program-level a4 the tree-level check must agree with: scan
    /// the converted AST for a bad operator over equal operands.
    fn a4_violated_program(program: &TacoProgram) -> bool {
        fn scan(e: &Expr) -> bool {
            match e {
                Expr::Binary { op, lhs, rhs } => {
                    let bad_op = matches!(op, BinOp::Add | BinOp::Sub | BinOp::Div);
                    (bad_op && lhs == rhs) || scan(lhs) || scan(rhs)
                }
                Expr::Neg(inner) => scan(inner),
                Expr::Access(_) | Expr::Const(_) | Expr::ConstSym(_) => false,
            }
        }
        scan(&program.rhs)
    }

    /// Random well-formed expression trees from a seeded xorshift64*.
    /// Right operands often copy the left one, at every depth, so equal
    /// operands, with and without `Const`, are common; some nodes sit
    /// under a single-child branch.
    struct Gen {
        state: u64,
        /// Copied operands that contain a `Const` leaf.
        const_copies: usize,
    }

    impl Gen {
        fn below(&mut self, n: usize) -> usize {
            self.state ^= self.state >> 12;
            self.state ^= self.state << 25;
            self.state ^= self.state >> 27;
            (self.state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }

        fn expr<'g>(
            &mut self,
            leaves: &'g [TemplateTok],
            ops: &'g [TemplateTok],
            depth: usize,
        ) -> Tree<'g> {
            let t = if depth == 0 || self.below(4) == 0 {
                Tree::Term(&leaves[self.below(leaves.len())])
            } else {
                let l = self.expr(leaves, ops, depth - 1);
                let r = if self.below(3) == 0 {
                    self.const_copies += usize::from(tree_facts(&l, op_nt(), &[]).has_const);
                    l.clone()
                } else {
                    self.expr(leaves, ops, depth - 1)
                };
                Tree::Branch(vec![l, Tree::Term(&ops[self.below(ops.len())]), r])
            };
            if self.below(8) == 0 {
                Tree::Branch(vec![t])
            } else {
                t
            }
        }
    }

    #[test]
    fn tree_a4_matches_program_a4_on_random_trees() {
        let lhs = TemplateTok::Access(Access::new("a", &["i"]));
        // `b(i)` twice: equal terminals need not share an address.
        let leaves = [
            TemplateTok::Access(Access::new("b", &["i"])),
            TemplateTok::Access(Access::new("b", &["i"])),
            TemplateTok::Access(Access::new("c", &["i", "j"])),
            TemplateTok::ConstSym,
        ];
        let ops = BinOp::ALL.map(TemplateTok::Op);
        let mut gen = Gen {
            state: 0x9e37_79b9_7f4a_7c15,
            const_copies: 0,
        };
        let mut violations = 0;
        for _ in 0..3_000 {
            let rhs = gen.expr(&leaves, &ops, 4);
            let tree = Tree::Branch(vec![Tree::Term(&lhs), Tree::Term(&TemplateTok::Eq), rhs]);
            let program = td_tree_to_program(&tree).expect("generated trees are well-formed");
            let want = a4_violated_program(&program);
            assert_eq!(a4_violated(&tree), Ok(want), "{program}");
            violations += usize::from(want);
        }
        assert!(violations > 100, "only {violations} a4 violations");
        assert!(
            gen.const_copies > 100,
            "only {} copied Const operands",
            gen.const_copies
        );
    }

    #[test]
    fn tree_a4_rejects_what_conversion_rejects() {
        let a = TemplateTok::Access(Access::new("a", &["i"]));
        let b = TemplateTok::Access(Access::new("b", &["i"]));
        let sub = TemplateTok::Op(BinOp::Sub);
        let hole = Tree::Hole(op_nt());
        let malformed = [
            // No `=` at the root.
            Tree::Branch(vec![Tree::Term(&a), Tree::Term(&b)]),
            // An open operand, beside an equal-operand violation.
            Tree::Branch(vec![
                Tree::Term(&a),
                Tree::Term(&TemplateTok::Eq),
                Tree::Branch(vec![
                    Tree::Branch(vec![Tree::Term(&b), Tree::Term(&sub), Tree::Term(&b)]),
                    Tree::Term(&sub),
                    hole.clone(),
                ]),
            ]),
            // A two-child expression branch.
            Tree::Branch(vec![
                Tree::Term(&a),
                Tree::Term(&TemplateTok::Eq),
                Tree::Branch(vec![Tree::Term(&b), Tree::Term(&b)]),
            ]),
            // An operator where an operand belongs.
            Tree::Branch(vec![
                Tree::Term(&a),
                Tree::Term(&TemplateTok::Eq),
                Tree::Term(&sub),
            ]),
        ];
        for tree in &malformed {
            assert!(td_tree_to_program(tree).is_err());
            assert_eq!(a4_violated(tree), Err(MalformedTree), "{tree:?}");
        }
    }
}
