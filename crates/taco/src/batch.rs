//! Batched evaluation: many substitutions of one template in a single
//! pass. This is the crate's one production evaluator: [`crate::evaluate`]
//! and [`crate::EvalCache`] run a concrete program as a single identity
//! lane, and the validator's I/O filter runs a template's substitutions as
//! many lanes at once.
//!
//! Candidate filtering evaluates the *same template* under many
//! substitutions (tensor renamings plus `Const` instantiations) against
//! the same environment. Evaluated one at a time, each substitution would
//! pay for its own lowering, loop-nest setup and stride computation — all
//! for a program that differs from its siblings only in which tensors it
//! reads and which constants it multiplies by.
//!
//! [`BatchKernel`] lowers the template **once** into the fixed-width
//! micro-ISA of [`crate::isa`] and evaluates a whole slice of
//! [`Lane`]s — one per substitution — in a single sweep:
//!
//! - lanes binding the same shapes share one loop odometer and one set of
//!   precomputed stride walks (lanes are grouped by their per-slot shape
//!   signature first);
//! - the register file is substitution-major (structure-of-arrays: one
//!   value per lane per register), so each opcode runs as a tight loop
//!   over lanes;
//! - the checked-`i64` fast path is per-lane: an overflow or a non-integer
//!   input demotes *only that lane* (for only the affected output cell)
//!   to the exact-rational engine, keeping every lane's result —
//!   including its [`EvalError`] classification — bit-identical to
//!   running the substituted program through the reference interpreter
//!   ([`crate::evaluate_interpreted`]);
//! - product-shaped templates (GEMM, TTV, MTTKRP, dot — a pure
//!   multiplication tree) skip the register machine on the fast path and
//!   run unrolled multiply-accumulate inner loops, amortising the
//!   odometer across all lanes.

use std::collections::{BTreeMap, HashMap};

use gtl_tensor::{Rat, Shape, Tensor};

use crate::ast::{Expr, IndexVar, TacoProgram};
use crate::eval::EvalError;
use crate::isa::{Encoder, IsaProgram, Opcode};
use crate::semantics::{record_extent, SemanticError, TensorEnv};

/// One substitution of the template: a concrete tensor name per tensor
/// slot and a concrete value per symbolic-constant slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lane {
    /// Concrete tensor names, aligned with [`BatchKernel::tensor_slots`].
    pub tensors: Vec<String>,
    /// Concrete constant values, aligned with
    /// [`BatchKernel::const_slots`].
    pub constants: Vec<i64>,
}

/// One template access: which tensor slot it reads and with which index
/// variables (strides are resolved per shape group at evaluation time).
#[derive(Debug, Clone)]
struct BatchAccess {
    slot: u32,
    indices: Vec<IndexVar>,
}

/// Per-lane engine choice within one shape group.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Checked-`i64` fast path; `coeff` is the folded constant
    /// coefficient for the product specialisation (1 when unused).
    Int {
        /// Folded product of all constant leaves (product templates).
        coeff: i64,
    },
    /// Exact-rational engine (division, fractional or huge inputs).
    Exact,
}

/// A template lowered once for evaluation under many substitutions.
///
/// ```
/// use gtl_taco::{parse_program, BatchKernel, Lane, TensorEnv};
/// use gtl_tensor::{Rat, Shape, Tensor};
///
/// // The template leaves tensor names symbolic; each lane binds them.
/// let template = parse_program("y(i) = m(i,j) * x(j)").unwrap();
/// let kernel = BatchKernel::new(&template);
/// assert_eq!(kernel.tensor_slots(), ["m", "x"]);
///
/// let mut env = TensorEnv::new();
/// env.insert("mat".into(), Tensor::from_ints(Shape::new(vec![2, 2]), &[1, 2, 3, 4]));
/// env.insert("v".into(), Tensor::from_ints(Shape::new(vec![2]), &[10, 100]));
/// let lanes = vec![
///     Lane { tensors: vec!["mat".into(), "v".into()], constants: vec![] },
///     Lane { tensors: vec!["mat".into(), "v".into()], constants: vec![] },
/// ];
/// let results = kernel.evaluate_lanes(&lanes, &env);
/// assert_eq!(results[0].as_ref().unwrap().data(), &[Rat::from(210), Rat::from(430)]);
/// assert_eq!(results[0], results[1]);
/// ```
#[derive(Debug, Clone)]
pub struct BatchKernel {
    /// Output indices, in LHS order.
    lhs_indices: Vec<IndexVar>,
    /// Summation indices, in RHS first-appearance order.
    summation: Vec<IndexVar>,
    /// Template tensor names, in RHS first-use order (the slot table).
    slot_names: Vec<String>,
    /// Symbolic-constant ids, in RHS first-use order.
    const_syms: Vec<u32>,
    /// Access table, in RHS traversal order.
    accesses: Vec<BatchAccess>,
    /// The lowered instruction stream.
    isa: IsaProgram,
    /// Access ids of the product specialisation, when the template is a
    /// pure multiplication tree with at most three tensor leaves.
    product_loads: Option<Vec<u32>>,
}

impl BatchKernel {
    /// Lowers `template` into the micro-ISA. Infallible: name binding and
    /// shape checking happen per lane at evaluation time, with the same
    /// checks and errors as [`crate::analyze`]. The kernel depends on no
    /// shape, so one lowering serves every environment.
    pub fn new(template: &TacoProgram) -> BatchKernel {
        let mut kernel = BatchKernel {
            lhs_indices: template.lhs.indices.clone(),
            summation: template.summation_indices(),
            slot_names: Vec::new(),
            const_syms: Vec::new(),
            accesses: Vec::new(),
            isa: IsaProgram {
                insts: Vec::new(),
                n_regs: 0,
                imms: Vec::new(),
                n_syms: 0,
                has_div: false,
            },
            product_loads: None,
        };
        let mut enc = Encoder::new();
        kernel.lower(&template.rhs, 0, &mut enc);
        kernel.isa = enc.finish();
        kernel.product_loads = kernel.isa.product_loads();
        kernel
    }

    /// Postorder lowering with depth registers: an expression at depth `d`
    /// leaves its value in register `d`, so the instruction stream is
    /// exactly the interpreter's evaluation order.
    fn lower(&mut self, expr: &Expr, depth: u16, enc: &mut Encoder) {
        match expr {
            Expr::Access(acc) => {
                let name = acc.tensor.as_str();
                let slot = match self.slot_names.iter().position(|n| n == name) {
                    Some(s) => s as u32,
                    None => {
                        self.slot_names.push(name.to_string());
                        (self.slot_names.len() - 1) as u32
                    }
                };
                let access = self.accesses.len() as u32;
                self.accesses.push(BatchAccess {
                    slot,
                    indices: acc.indices.clone(),
                });
                enc.load(depth, access);
            }
            Expr::Const(c) => enc.const_imm(depth, *c),
            Expr::ConstSym(id) => {
                let sym = match self.const_syms.iter().position(|s| s == id) {
                    Some(s) => s,
                    None => {
                        self.const_syms.push(*id);
                        self.const_syms.len() - 1
                    }
                };
                enc.const_sym(depth, sym as u16);
            }
            Expr::Neg(inner) => {
                self.lower(inner, depth, enc);
                enc.neg(depth, depth);
            }
            Expr::Binary { op, lhs, rhs } => {
                self.lower(lhs, depth, enc);
                self.lower(rhs, depth + 1, enc);
                enc.bin(*op, depth, depth, depth + 1);
            }
        }
    }

    /// The template's tensor slots: names in RHS first-use order. A
    /// [`Lane`] binds one concrete tensor name per entry.
    pub fn tensor_slots(&self) -> &[String] {
        &self.slot_names
    }

    /// The template's symbolic-constant slots, in RHS first-use order. A
    /// [`Lane`] binds one `i64` per entry.
    pub fn const_slots(&self) -> &[u32] {
        &self.const_syms
    }

    /// Per-lane semantic analysis: the same walk, checks and error
    /// construction as [`crate::analyze`] on the substituted program (the
    /// access table preserves RHS traversal order, so the *first* error
    /// matches too), with the lane's concrete names in every error.
    fn analyze_lane(
        &self,
        lane: &Lane,
        env: &TensorEnv,
    ) -> Result<BTreeMap<IndexVar, usize>, SemanticError> {
        let mut extents = BTreeMap::new();
        for acc in &self.accesses {
            let name = &lane.tensors[acc.slot as usize];
            let t = env
                .get(name)
                .ok_or_else(|| SemanticError::UnboundTensor { name: name.clone() })?;
            if t.rank() != acc.indices.len() {
                return Err(SemanticError::RankMismatch {
                    name: name.clone(),
                    access_rank: acc.indices.len(),
                    bound_rank: t.rank(),
                });
            }
            for (ix, &extent) in acc.indices.iter().zip(t.shape().extents()) {
                record_extent(&mut extents, ix, extent)?;
            }
        }
        for ix in &self.lhs_indices {
            if !extents.contains_key(ix) {
                return Err(SemanticError::UnconstrainedOutputIndex {
                    index: ix.as_str().to_string(),
                });
            }
        }
        Ok(extents)
    }

    /// Folds every constant leaf into one `i64` coefficient for the
    /// product fast path; `None` (overflow) sends the lane to the exact
    /// engine, which computes the identical value.
    fn fold_coeff(&self, lane: &Lane) -> Option<i64> {
        let mut coeff = 1i64;
        for inst in &self.isa.insts {
            let c = match inst.op {
                Opcode::ConstImm => self.isa.imms[inst.a as usize],
                Opcode::ConstSym => lane.constants[inst.a as usize],
                _ => continue,
            };
            coeff = coeff.checked_mul(c)?;
        }
        Some(coeff)
    }

    /// Evaluates every lane against `env` in one pass.
    ///
    /// Returns one result per lane, in lane order. Each result is
    /// bit-identical — value and [`EvalError`] classification — to
    /// [`crate::evaluate_interpreted`] on the program obtained by
    /// substituting the lane's tensor names and constants into the
    /// template.
    ///
    /// # Panics
    ///
    /// Panics if a lane's `tensors`/`constants` arity does not match
    /// [`BatchKernel::tensor_slots`]/[`BatchKernel::const_slots`]; that is
    /// a caller bug, not a candidate failure.
    pub fn evaluate_lanes(
        &self,
        lanes: &[Lane],
        env: &TensorEnv,
    ) -> Vec<Result<Tensor, EvalError>> {
        struct Group {
            key: Vec<Shape>,
            ids: Vec<usize>,
            extents: BTreeMap<IndexVar, usize>,
        }
        let mut results: Vec<Option<Result<Tensor, EvalError>>> =
            (0..lanes.len()).map(|_| None).collect();
        let mut groups: Vec<Group> = Vec::new();
        for (i, lane) in lanes.iter().enumerate() {
            assert_eq!(
                lane.tensors.len(),
                self.slot_names.len(),
                "lane binds one tensor per slot"
            );
            assert_eq!(
                lane.constants.len(),
                self.const_syms.len(),
                "lane binds one value per constant slot"
            );
            match self.analyze_lane(lane, env) {
                Err(e) => results[i] = Some(Err(EvalError::Semantic(e))),
                Ok(extents) => {
                    let key: Vec<Shape> = lane
                        .tensors
                        .iter()
                        .map(|n| env.get(n).expect("analysis bound every tensor").shape().clone())
                        .collect();
                    match groups.iter_mut().find(|g| g.key == key) {
                        Some(g) => g.ids.push(i),
                        None => groups.push(Group {
                            key,
                            ids: vec![i],
                            extents,
                        }),
                    }
                }
            }
        }
        for g in &groups {
            self.run_group(lanes, &g.ids, &g.extents, env, &mut results);
        }
        results
            .into_iter()
            .map(|r| r.expect("every lane resolved"))
            .collect()
    }

    /// Evaluates the lanes of one shape group: shared odometer, shared
    /// strides, lane-major registers.
    fn run_group(
        &self,
        lanes: &[Lane],
        ids: &[usize],
        extents: &BTreeMap<IndexVar, usize>,
        env: &TensorEnv,
        results: &mut [Option<Result<Tensor, EvalError>>],
    ) {
        // Loop structure: output loops first (later LHS occurrence wins,
        // matching the interpreter), then summation loops.
        let n_out = self.lhs_indices.len();
        let mut slot_of: BTreeMap<&str, u32> = BTreeMap::new();
        for (slot, ix) in self.lhs_indices.iter().enumerate() {
            slot_of.insert(ix.as_str(), slot as u32);
        }
        for (i, ix) in self.summation.iter().enumerate() {
            slot_of.insert(ix.as_str(), (n_out + i) as u32);
        }
        let out_extents: Vec<usize> = self.lhs_indices.iter().map(|ix| extents[ix]).collect();
        let mut loop_extents = out_extents.clone();
        loop_extents.extend(self.summation.iter().map(|ix| extents[ix]));
        let n_loops = loop_extents.len();

        // Shared stride walks: every lane in the group binds the same
        // shape per slot, so one stride table serves them all.
        let first = &lanes[ids[0]];
        let strides: Vec<Vec<(u32, usize)>> = self
            .accesses
            .iter()
            .map(|acc| {
                let t = env
                    .get(&first.tensors[acc.slot as usize])
                    .expect("analysis bound every tensor");
                access_strides(&acc.indices, t.shape().extents(), |ix| slot_of[ix])
            })
            .collect();
        let mut out_updates = vec![Vec::new(); n_out];
        let mut sum_updates = vec![Vec::new(); n_loops - n_out];
        for (a, plan) in strides.iter().enumerate() {
            for &(slot, stride) in plan {
                let slot = slot as usize;
                if slot < n_out {
                    out_updates[slot].push((a as u32, stride));
                } else {
                    sum_updates[slot - n_out].push((a as u32, stride));
                }
            }
        }
        let sum_iters: usize = loop_extents[n_out..].iter().product();
        let nl = ids.len();

        // Per-lane rational data, one slice per access.
        let acc_rats: Vec<Vec<&[Rat]>> = ids
            .iter()
            .map(|&id| {
                self.accesses
                    .iter()
                    .map(|acc| {
                        env.get(&lanes[id].tensors[acc.slot as usize])
                            .expect("analysis bound every tensor")
                            .data()
                    })
                    .collect()
            })
            .collect();

        // The i64 fast path needs a division-free template, a real
        // summation (with none, every element is read once, so converting
        // costs more than it saves), and (per lane) every input element
        // an i64 integer. Conversion is memoised per concrete tensor
        // name, so a tensor shared by many lanes converts once.
        let int_eligible = !self.isa.has_div && sum_iters > 1;
        let mut ints_by_name: HashMap<&str, Option<Vec<i64>>> = HashMap::new();
        if int_eligible {
            for &id in ids {
                for name in &lanes[id].tensors {
                    ints_by_name.entry(name.as_str()).or_insert_with(|| {
                        env.get(name)
                            .expect("analysis bound every tensor")
                            .data()
                            .iter()
                            .map(|r| r.to_i64())
                            .collect()
                    });
                }
            }
        }
        let modes: Vec<Mode> = ids
            .iter()
            .map(|&id| {
                if !int_eligible {
                    return Mode::Exact;
                }
                let lane = &lanes[id];
                if lane
                    .tensors
                    .iter()
                    .any(|n| ints_by_name[n.as_str()].is_none())
                {
                    return Mode::Exact;
                }
                if self.product_loads.is_some() {
                    match self.fold_coeff(lane) {
                        Some(coeff) => Mode::Int { coeff },
                        None => Mode::Exact,
                    }
                } else {
                    Mode::Int { coeff: 1 }
                }
            })
            .collect();
        let acc_ints: Vec<Option<Vec<&[i64]>>> = ids
            .iter()
            .zip(&modes)
            .map(|(&id, mode)| {
                matches!(mode, Mode::Int { .. }).then(|| {
                    self.accesses
                        .iter()
                        .map(|acc| {
                            ints_by_name[lanes[id].tensors[acc.slot as usize].as_str()]
                                .as_deref()
                                .expect("int mode implies integer conversion")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();

        // Product fast-path plan: for every int-mode lane, the folded
        // coefficient and its per-load data slices, resolved once per
        // group. The cell loop below runs out_len × lanes iterations;
        // re-deriving these per iteration (mode match, Option unwrap,
        // slot indexing) costs more than the 8-element inner products
        // it wraps.
        const EMPTY: &[i64] = &[];
        let int_plan: Vec<(usize, i64, [&[i64]; 3])> = self
            .product_loads
            .as_ref()
            .map(|loads| {
                modes
                    .iter()
                    .enumerate()
                    .filter_map(|(pos, mode)| {
                        let Mode::Int { coeff } = *mode else {
                            return None;
                        };
                        let data = acc_ints[pos].as_ref().expect("int lane has data");
                        let mut d = [EMPTY; 3];
                        for (i, &a) in loads.iter().enumerate() {
                            d[i] = data[a as usize];
                        }
                        Some((pos, coeff, d))
                    })
                    .collect()
            })
            .unwrap_or_default();

        // Product specialisation: per-load stride along the innermost
        // summation dimension, shared by the whole group.
        let prod_inner: Option<Vec<usize>> = self.product_loads.as_ref().map(|loads| {
            let inner_slot = (n_loops > n_out).then(|| (n_loops - 1) as u32);
            loads
                .iter()
                .map(|&a| {
                    inner_slot
                        .and_then(|s| {
                            strides[a as usize]
                                .iter()
                                .find(|(slot, _)| *slot == s)
                                .map(|&(_, stride)| stride)
                        })
                        .unwrap_or(0)
                })
                .collect()
        });

        let out_len: usize = out_extents.iter().product();
        let mut state = LoopState {
            counters: vec![0usize; n_loops],
            base_off: vec![0usize; self.accesses.len()],
            sum_off: vec![0usize; self.accesses.len()],
        };
        let n_regs = self.isa.n_regs;
        let mut regs_i = vec![0i64; n_regs * nl];
        let mut regs_r = vec![Rat::ZERO; n_regs * nl];
        let mut outs: Vec<Vec<Rat>> = ids.iter().map(|_| Vec::with_capacity(out_len)).collect();
        let mut lane_err: Vec<Option<EvalError>> = vec![None; nl];
        let mut cell_vals: Vec<Rat> = vec![Rat::ZERO; nl];
        let mut int_alive: Vec<bool> = vec![false; nl];
        let mut int_accs: Vec<i64> = vec![0i64; nl];
        let mut rat_run: Vec<bool> = vec![false; nl];
        let mut rat_accs: Vec<Rat> = vec![Rat::ZERO; nl];

        for _ in 0..out_len {
            // Which lanes attempt the fast path this cell; a mid-cell
            // overflow flips the lane into `rat_run` (per-cell demotion:
            // the exact sweep below recomputes just that cell).
            let mut any_int = false;
            for (pos, mode) in modes.iter().enumerate() {
                int_alive[pos] = matches!(mode, Mode::Int { .. }) && lane_err[pos].is_none();
                any_int |= int_alive[pos];
                rat_run[pos] = matches!(mode, Mode::Exact) && lane_err[pos].is_none();
            }
            if any_int {
                match (&self.product_loads, &prod_inner) {
                    (Some(loads), Some(inner_strides)) => {
                        // Tight multiply-accumulate sweep: the inner
                        // summation dimension runs over local offsets, the
                        // outer dims advance the shared odometer. State
                        // wraps back to zero after the full sweep.
                        let has_sum = n_loops > n_out;
                        let inner = if has_sum { loop_extents[n_loops - 1] } else { 1 };
                        if inner == 0 || sum_iters == 0 {
                            for pos in 0..nl {
                                if int_alive[pos] {
                                    cell_vals[pos] = Rat::ZERO;
                                }
                            }
                        } else {
                            let outer_iters = sum_iters / inner;
                            for acc in int_accs.iter_mut() {
                                *acc = 0;
                            }
                            for _ in 0..outer_iters {
                                // The load offsets depend only on the shared
                                // odometer, never on the lane — resolve them
                                // once per outer step, not once per lane.
                                let mut offs = [0usize; 3];
                                for (i, &a) in loads.iter().enumerate() {
                                    let a = a as usize;
                                    offs[i] = state.base_off[a] + state.sum_off[a];
                                }
                                for &(pos, coeff, d) in &int_plan {
                                    if !int_alive[pos] {
                                        continue;
                                    }
                                    let part = match loads.len() {
                                        1 => inner_product1(
                                            d[0],
                                            offs[0],
                                            inner_strides[0],
                                            coeff,
                                            inner,
                                        ),
                                        2 => inner_product2(
                                            d[0],
                                            offs[0],
                                            inner_strides[0],
                                            d[1],
                                            offs[1],
                                            inner_strides[1],
                                            coeff,
                                            inner,
                                        ),
                                        _ => inner_product3(
                                            d[0],
                                            offs[0],
                                            inner_strides[0],
                                            d[1],
                                            offs[1],
                                            inner_strides[1],
                                            d[2],
                                            offs[2],
                                            inner_strides[2],
                                            coeff,
                                            inner,
                                        ),
                                    };
                                    match part.and_then(|p| int_accs[pos].checked_add(p)) {
                                        Some(v) => int_accs[pos] = v,
                                        None => {
                                            int_alive[pos] = false;
                                            rat_run[pos] = true;
                                        }
                                    }
                                }
                                if has_sum {
                                    advance(
                                        &mut state.counters[n_out..n_loops - 1],
                                        &loop_extents[n_out..n_loops - 1],
                                        &sum_updates[..sum_updates.len() - 1],
                                        &mut state.sum_off,
                                    );
                                }
                            }
                            for pos in 0..nl {
                                if int_alive[pos] {
                                    cell_vals[pos] = Rat::from(int_accs[pos]);
                                }
                            }
                        }
                    }
                    _ => {
                        // Generic SoA sweep over the register machine
                        // (sum_iters > 1 is guaranteed by the gate).
                        for acc in int_accs.iter_mut() {
                            *acc = 0;
                        }
                        for _ in 0..sum_iters {
                            for inst in &self.isa.insts {
                                let d = inst.dst as usize * nl;
                                match inst.op {
                                    Opcode::LoadSlot => {
                                        let a = inst.a as usize;
                                        let off = state.base_off[a] + state.sum_off[a];
                                        for pos in 0..nl {
                                            if int_alive[pos] {
                                                regs_i[d + pos] = acc_ints[pos]
                                                    .as_ref()
                                                    .expect("int lane has data")[a][off];
                                            }
                                        }
                                    }
                                    Opcode::ConstImm => {
                                        let v = self.isa.imms[inst.a as usize];
                                        for pos in 0..nl {
                                            if int_alive[pos] {
                                                regs_i[d + pos] = v;
                                            }
                                        }
                                    }
                                    Opcode::ConstSym => {
                                        let sym = inst.a as usize;
                                        for pos in 0..nl {
                                            if int_alive[pos] {
                                                regs_i[d + pos] = lanes[ids[pos]].constants[sym];
                                            }
                                        }
                                    }
                                    Opcode::Neg => {
                                        let s = inst.a as usize * nl;
                                        for pos in 0..nl {
                                            if !int_alive[pos] {
                                                continue;
                                            }
                                            match regs_i[s + pos].checked_neg() {
                                                Some(v) => regs_i[d + pos] = v,
                                                None => {
                                                    int_alive[pos] = false;
                                                    rat_run[pos] = true;
                                                }
                                            }
                                        }
                                    }
                                    Opcode::Add | Opcode::Sub | Opcode::Mul => {
                                        let a = inst.a as usize * nl;
                                        let b = inst.b as usize * nl;
                                        for pos in 0..nl {
                                            if !int_alive[pos] {
                                                continue;
                                            }
                                            let (x, y) = (regs_i[a + pos], regs_i[b + pos]);
                                            let r = match inst.op {
                                                Opcode::Add => x.checked_add(y),
                                                Opcode::Sub => x.checked_sub(y),
                                                _ => x.checked_mul(y),
                                            };
                                            match r {
                                                Some(v) => regs_i[d + pos] = v,
                                                None => {
                                                    int_alive[pos] = false;
                                                    rat_run[pos] = true;
                                                }
                                            }
                                        }
                                    }
                                    Opcode::Div => unreachable!("i64 mode is division-free"),
                                }
                            }
                            for pos in 0..nl {
                                if !int_alive[pos] {
                                    continue;
                                }
                                match int_accs[pos].checked_add(regs_i[pos]) {
                                    Some(v) => int_accs[pos] = v,
                                    None => {
                                        int_alive[pos] = false;
                                        rat_run[pos] = true;
                                    }
                                }
                            }
                            advance(
                                &mut state.counters[n_out..],
                                &loop_extents[n_out..],
                                &sum_updates,
                                &mut state.sum_off,
                            );
                        }
                        for pos in 0..nl {
                            if int_alive[pos] {
                                cell_vals[pos] = Rat::from(int_accs[pos]);
                            }
                        }
                    }
                }
            }
            // Exact sweep: rational-mode lanes plus any lane the fast
            // path demoted this cell. Strict postorder per iteration, so
            // error classification (and the failing op) matches the
            // interpreter exactly.
            if rat_run.iter().any(|&b| b) {
                if sum_iters == 0 {
                    for pos in 0..nl {
                        if rat_run[pos] {
                            cell_vals[pos] = Rat::ZERO;
                        }
                    }
                } else {
                    for acc in rat_accs.iter_mut() {
                        *acc = Rat::ZERO;
                    }
                    for _ in 0..sum_iters {
                        for inst in &self.isa.insts {
                            let d = inst.dst as usize * nl;
                            match inst.op {
                                Opcode::LoadSlot => {
                                    let a = inst.a as usize;
                                    let off = state.base_off[a] + state.sum_off[a];
                                    for pos in 0..nl {
                                        if rat_run[pos] {
                                            regs_r[d + pos] = acc_rats[pos][a][off];
                                        }
                                    }
                                }
                                Opcode::ConstImm => {
                                    let v = Rat::from(self.isa.imms[inst.a as usize]);
                                    for pos in 0..nl {
                                        if rat_run[pos] {
                                            regs_r[d + pos] = v;
                                        }
                                    }
                                }
                                Opcode::ConstSym => {
                                    let sym = inst.a as usize;
                                    for pos in 0..nl {
                                        if rat_run[pos] {
                                            regs_r[d + pos] =
                                                Rat::from(lanes[ids[pos]].constants[sym]);
                                        }
                                    }
                                }
                                Opcode::Neg => {
                                    let s = inst.a as usize * nl;
                                    for pos in 0..nl {
                                        if rat_run[pos] {
                                            regs_r[d + pos] = -regs_r[s + pos];
                                        }
                                    }
                                }
                                Opcode::Add | Opcode::Sub | Opcode::Mul | Opcode::Div => {
                                    let a = inst.a as usize * nl;
                                    let b = inst.b as usize * nl;
                                    for pos in 0..nl {
                                        if !rat_run[pos] {
                                            continue;
                                        }
                                        let (x, y) = (regs_r[a + pos], regs_r[b + pos]);
                                        let r = match inst.op {
                                            Opcode::Add => x.checked_add(y),
                                            Opcode::Sub => x.checked_sub(y),
                                            Opcode::Mul => x.checked_mul(y),
                                            _ => x.checked_div(y),
                                        };
                                        match r {
                                            Ok(v) => regs_r[d + pos] = v,
                                            Err(e) => {
                                                lane_err[pos] = Some(e.into());
                                                rat_run[pos] = false;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        for pos in 0..nl {
                            if !rat_run[pos] {
                                continue;
                            }
                            match rat_accs[pos].checked_add(regs_r[pos]) {
                                Ok(v) => rat_accs[pos] = v,
                                Err(e) => {
                                    lane_err[pos] = Some(e.into());
                                    rat_run[pos] = false;
                                }
                            }
                        }
                        advance(
                            &mut state.counters[n_out..],
                            &loop_extents[n_out..],
                            &sum_updates,
                            &mut state.sum_off,
                        );
                    }
                    for pos in 0..nl {
                        if rat_run[pos] {
                            cell_vals[pos] = rat_accs[pos];
                        }
                    }
                }
            }
            for pos in 0..nl {
                if lane_err[pos].is_none() {
                    outs[pos].push(cell_vals[pos]);
                }
            }
            advance(
                &mut state.counters[..n_out],
                &loop_extents[..n_out],
                &out_updates,
                &mut state.base_off,
            );
        }

        for (pos, &id) in ids.iter().enumerate() {
            results[id] = Some(match lane_err[pos].take() {
                Some(e) => Err(e),
                None => Ok(Tensor::from_data(
                    Shape::new(out_extents.clone()),
                    std::mem::take(&mut outs[pos]),
                )
                .expect("output length matches shape")),
            });
        }
    }
}

/// The loop nest's mutable state: raw counters plus per-access offsets
/// maintained incrementally (output contribution and summation
/// contribution kept separate, so a summation sweep never disturbs the
/// output position).
struct LoopState {
    counters: Vec<usize>,
    base_off: Vec<usize>,
    sum_off: Vec<usize>,
}

/// Row-major `(loop slot, stride)` pairs for one access: stride of dim
/// `d` is the product of the extents of all later dims, and a repeated
/// index (diagonal access) merges into one pair with the summed stride.
/// The single source of the layout rule shared by the batched engine and
/// the interpreter ([`crate::eval`]).
pub(crate) fn access_strides<S: Copy + PartialEq>(
    indices: &[IndexVar],
    extents: &[usize],
    mut slot_of: impl FnMut(&str) -> S,
) -> Vec<(S, usize)> {
    let mut strides: Vec<(S, usize)> = Vec::with_capacity(indices.len());
    let mut stride = 1usize;
    for (ix, &extent) in indices.iter().zip(extents).rev() {
        let slot = slot_of(ix.as_str());
        match strides.iter_mut().find(|(s, _)| *s == slot) {
            Some((_, st)) => *st += stride,
            None => strides.push((slot, stride)),
        }
        stride *= extent;
    }
    strides.reverse();
    strides
}

/// Advances a row-major odometer one step (rightmost fastest), applying
/// each moved counter's stride deltas to the affected access offsets.
#[inline]
fn advance(
    counters: &mut [usize],
    extents: &[usize],
    updates: &[Vec<(u32, usize)>],
    offs: &mut [usize],
) {
    for slot in (0..counters.len()).rev() {
        counters[slot] += 1;
        if counters[slot] < extents[slot] {
            for &(a, stride) in &updates[slot] {
                offs[a as usize] += stride;
            }
            return;
        }
        counters[slot] = 0;
        for &(a, stride) in &updates[slot] {
            offs[a as usize] -= (extents[slot] - 1) * stride;
        }
    }
}

/// `coeff · Σ_t d[o + t·s]` with checked arithmetic; `None` = fall back.
#[inline]
fn inner_product1(d: &[i64], mut o: usize, s: usize, coeff: i64, n: usize) -> Option<i64> {
    let mut acc = 0i64;
    if coeff == 1 {
        for _ in 0..n {
            acc = acc.checked_add(d[o])?;
            o += s;
        }
    } else {
        for _ in 0..n {
            acc = acc.checked_add(coeff.checked_mul(d[o])?)?;
            o += s;
        }
    }
    Some(acc)
}

/// `coeff · Σ_t d0[o0 + t·s0] · d1[o1 + t·s1]` with checked arithmetic.
#[allow(clippy::too_many_arguments)]
#[inline]
fn inner_product2(
    d0: &[i64],
    mut o0: usize,
    s0: usize,
    d1: &[i64],
    mut o1: usize,
    s1: usize,
    coeff: i64,
    n: usize,
) -> Option<i64> {
    let mut acc = 0i64;
    if coeff == 1 {
        for _ in 0..n {
            acc = acc.checked_add(d0[o0].checked_mul(d1[o1])?)?;
            o0 += s0;
            o1 += s1;
        }
    } else {
        for _ in 0..n {
            acc = acc.checked_add(coeff.checked_mul(d0[o0])?.checked_mul(d1[o1])?)?;
            o0 += s0;
            o1 += s1;
        }
    }
    Some(acc)
}

/// Three-load variant of [`inner_product2`] (MTTKRP shape).
#[allow(clippy::too_many_arguments)]
#[inline]
fn inner_product3(
    d0: &[i64],
    mut o0: usize,
    s0: usize,
    d1: &[i64],
    mut o1: usize,
    s1: usize,
    d2: &[i64],
    mut o2: usize,
    s2: usize,
    coeff: i64,
    n: usize,
) -> Option<i64> {
    let mut acc = 0i64;
    if coeff == 1 {
        for _ in 0..n {
            acc = acc.checked_add(d0[o0].checked_mul(d1[o1])?.checked_mul(d2[o2])?)?;
            o0 += s0;
            o1 += s1;
            o2 += s2;
        }
    } else {
        for _ in 0..n {
            acc = acc.checked_add(
                coeff
                    .checked_mul(d0[o0])?
                    .checked_mul(d1[o1])?
                    .checked_mul(d2[o2])?,
            )?;
            o0 += s0;
            o1 += s1;
            o2 += s2;
        }
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Access, Ident};
    use crate::eval::evaluate_interpreted;
    use crate::parser::parse_program;
    use gtl_tensor::RatError;
    use std::collections::HashMap as Map;

    fn env(entries: &[(&str, Shape, &[i64])]) -> TensorEnv {
        let mut e = TensorEnv::new();
        for (name, shape, data) in entries {
            e.insert(name.to_string(), Tensor::from_ints(shape.clone(), data));
        }
        e
    }

    /// Applies a lane to the template the way the validator does:
    /// rename every tensor by slot, replace every `Const` by its value.
    fn concretize(k: &BatchKernel, t: &TacoProgram, lane: &Lane) -> TacoProgram {
        let names: Map<&str, &str> = k
            .tensor_slots()
            .iter()
            .map(String::as_str)
            .zip(lane.tensors.iter().map(String::as_str))
            .collect();
        let consts: Map<u32, i64> = k
            .const_slots()
            .iter()
            .copied()
            .zip(lane.constants.iter().copied())
            .collect();
        fn walk(e: &Expr, names: &Map<&str, &str>, consts: &Map<u32, i64>) -> Expr {
            match e {
                Expr::Access(acc) => Expr::Access(Access {
                    tensor: Ident::new(names[acc.tensor.as_str()]),
                    indices: acc.indices.clone(),
                }),
                Expr::Const(c) => Expr::Const(*c),
                Expr::ConstSym(id) => Expr::Const(consts[id]),
                Expr::Neg(inner) => Expr::Neg(Box::new(walk(inner, names, consts))),
                Expr::Binary { op, lhs, rhs } => Expr::Binary {
                    op: *op,
                    lhs: Box::new(walk(lhs, names, consts)),
                    rhs: Box::new(walk(rhs, names, consts)),
                },
            }
        }
        TacoProgram {
            lhs: t.lhs.clone(),
            rhs: walk(&t.rhs, &names, &consts),
        }
    }

    /// The batch result of every lane must equal the reference
    /// interpreter on the substituted program — values and error
    /// classification.
    fn assert_lanes_match_scalar(src: &str, lanes: &[Lane], env: &TensorEnv) {
        let t = parse_program(src).unwrap();
        let k = BatchKernel::new(&t);
        let got = k.evaluate_lanes(lanes, env);
        assert_eq!(got.len(), lanes.len());
        for (lane, got) in lanes.iter().zip(&got) {
            let concrete = concretize(&k, &t, lane);
            let want = evaluate_interpreted(&concrete, env);
            assert_eq!(got, &want, "lane {lane:?} diverged from scalar");
        }
    }

    fn lane(tensors: &[&str]) -> Lane {
        Lane {
            tensors: tensors.iter().map(|s| s.to_string()).collect(),
            constants: vec![],
        }
    }

    fn lane_c(tensors: &[&str], constants: &[i64]) -> Lane {
        Lane {
            tensors: tensors.iter().map(|s| s.to_string()).collect(),
            constants: constants.to_vec(),
        }
    }

    #[test]
    fn gemv_lanes_across_shape_groups_match_scalar() {
        let e = env(&[
            ("m1", Shape::new(vec![2, 3]), &[1, 2, 3, 4, 5, 6]),
            ("x1", Shape::new(vec![3]), &[1, 0, 2]),
            ("m2", Shape::new(vec![2, 2]), &[7, 8, 9, 10]),
            ("x2", Shape::new(vec![2]), &[5, -3]),
        ]);
        // Two distinct shape groups plus a duplicate lane.
        let lanes = [
            lane(&["m1", "x1"]),
            lane(&["m2", "x2"]),
            lane(&["m1", "x1"]),
        ];
        assert_lanes_match_scalar("y(i) = m(i,j) * x(j)", &lanes, &e);
    }

    #[test]
    fn const_sym_lanes_match_scalar() {
        let big = 600_000_000_000_000_000i64;
        let e = env(&[
            ("b1", Shape::new(vec![4]), &[1, -2, 3, 4]),
            ("b2", Shape::new(vec![4]), &[big, big, 1, 1]),
        ]);
        let t = "a = b(i) * Const";
        let lanes = [
            lane_c(&["b1"], &[3]),
            lane_c(&["b1"], &[-7]),
            // coeff * big overflows i64 mid-sweep: per-lane demotion.
            lane_c(&["b2"], &[1_000_000]),
            lane_c(&["b2"], &[0]),
        ];
        assert_lanes_match_scalar(t, &lanes, &e);
    }

    #[test]
    fn mttkrp_three_load_product_matches_scalar() {
        let e = env(&[
            ("b", Shape::new(vec![2, 2, 2]), &[1, 2, 3, 4, 5, 6, 7, 8]),
            ("c", Shape::new(vec![2, 3]), &[1, -1, 2, 0, 3, 1]),
            ("d", Shape::new(vec![2, 3]), &[2, 1, 0, -2, 1, 1]),
        ]);
        let lanes = [lane(&["b", "c", "d"]), lane(&["b", "d", "c"])];
        assert_lanes_match_scalar("a(i,j) = b(i,k,l) * c(k,j) * d(l,j)", &lanes, &e);
    }

    #[test]
    fn generic_engine_with_add_and_neg_matches_scalar() {
        let big = 9_000_000_000_000_000_000i64;
        let e = env(&[
            ("b1", Shape::new(vec![2, 3]), &[1, 2, 3, 4, 5, 6]),
            ("c1", Shape::new(vec![3]), &[7, -8, 9]),
            ("bh", Shape::new(vec![2, 3]), &[big, big, big, big, big, big]),
        ]);
        // Addition + negation: not a product, exercises the SoA register
        // machine; the huge lane overflows per cell and demotes alone.
        let lanes = [
            lane(&["b1", "c1"]),
            lane(&["bh", "c1"]),
            lane(&["b1", "c1"]),
        ];
        assert_lanes_match_scalar("a(i) = b(i,j) + -c(j)", &lanes, &e);
    }

    #[test]
    fn division_runs_exact_and_classifies_errors() {
        let e = env(&[
            ("b", Shape::new(vec![2]), &[1, 3]),
            ("c", Shape::new(vec![2]), &[2, 4]),
            ("cz", Shape::new(vec![2]), &[1, 0]),
        ]);
        let lanes = [lane(&["b", "c"]), lane(&["b", "cz"]), lane(&["c", "b"])];
        let t = parse_program("a(i) = b(i) / c(i)").unwrap();
        let k = BatchKernel::new(&t);
        let got = k.evaluate_lanes(&lanes, &e);
        assert_eq!(
            got[1],
            Err(EvalError::Arithmetic(RatError::DivisionByZero)),
            "zero divisor classified"
        );
        assert_lanes_match_scalar("a(i) = b(i) / c(i)", &lanes, &e);
    }

    #[test]
    fn semantic_errors_are_per_lane_and_identical() {
        let e = env(&[
            ("m1", Shape::new(vec![2, 3]), &[1, 2, 3, 4, 5, 6]),
            ("x1", Shape::new(vec![3]), &[1, 0, 2]),
            ("x2", Shape::new(vec![2]), &[5, -3]),
        ]);
        let lanes = [
            lane(&["m1", "x1"]),
            lane(&["m1", "zz"]), // unbound tensor
            lane(&["x1", "m1"]), // rank mismatch
            lane(&["m1", "x2"]), // extent mismatch (j: 3 vs 2)
        ];
        let t = parse_program("y(i) = m(i,j) * x(j)").unwrap();
        let k = BatchKernel::new(&t);
        let got = k.evaluate_lanes(&lanes, &e);
        assert!(got[0].is_ok());
        assert!(matches!(
            got[1],
            Err(EvalError::Semantic(SemanticError::UnboundTensor { .. }))
        ));
        assert!(matches!(
            got[2],
            Err(EvalError::Semantic(SemanticError::RankMismatch { .. }))
        ));
        assert!(matches!(
            got[3],
            Err(EvalError::Semantic(SemanticError::ExtentMismatch { .. }))
        ));
        assert_lanes_match_scalar("y(i) = m(i,j) * x(j)", &lanes, &e);
    }

    #[test]
    fn i128_overflow_classified_like_scalar() {
        let big = 3_000_000_000_000_000_000i64;
        let e = env(&[
            ("bb", Shape::new(vec![2]), &[big, big]),
            ("bs", Shape::new(vec![2]), &[1, 2]),
        ]);
        // Four leaves: no product specialisation; (3e18)^4 overflows i128
        // in the exact engine too, so the lane errors like the scalar.
        let lanes = [lane(&["bb"]), lane(&["bs"])];
        let t = parse_program("a = b(i) * b(i) * b(i) * b(i)").unwrap();
        let k = BatchKernel::new(&t);
        let got = k.evaluate_lanes(&lanes, &e);
        assert_eq!(got[0], Err(EvalError::Arithmetic(RatError::Overflow)));
        assert!(got[1].is_ok());
        assert_lanes_match_scalar("a = b(i) * b(i) * b(i) * b(i)", &lanes, &e);
    }

    #[test]
    fn empty_summation_and_diagonal_access() {
        let e = env(&[
            ("z", Shape::new(vec![0]), &[]),
            ("sq", Shape::new(vec![2, 2]), &[1, 2, 3, 4]),
        ]);
        assert_lanes_match_scalar("a = b(i)", &[lane(&["z"])], &e);
        assert_lanes_match_scalar("a = b(i,i)", &[lane(&["sq"])], &e);
    }

    #[test]
    fn fractional_inputs_demote_only_their_lane() {
        let mut e = TensorEnv::new();
        e.insert(
            "bf".into(),
            Tensor::from_data(
                Shape::new(vec![2]),
                vec![Rat::new(1, 2), Rat::new(1, 3)],
            )
            .unwrap(),
        );
        e.insert("bi".into(), Tensor::from_ints(Shape::new(vec![2]), &[6, 6]));
        e.insert("ci".into(), Tensor::from_ints(Shape::new(vec![2]), &[2, 3]));
        let lanes = [lane(&["bf", "ci"]), lane(&["bi", "ci"])];
        assert_lanes_match_scalar("a = b(i) * c(i)", &lanes, &e);
    }

    #[test]
    fn empty_lane_slice_is_fine() {
        let t = parse_program("a(i) = b(i)").unwrap();
        let k = BatchKernel::new(&t);
        assert!(k.evaluate_lanes(&[], &TensorEnv::new()).is_empty());
    }

    #[test]
    fn huge_product_lanes_demote_and_match_interpreter() {
        // Every partial sum of the two-load product overflows i64, so the
        // lane leaves the fast path in every cell and the exact sweep
        // must produce the interpreter's values.
        let big = 4_000_000_000_000_000_000i64;
        let e = env(&[
            ("m", Shape::new(vec![2, 3]), &[big, big, big, big, big, big]),
            ("x", Shape::new(vec![3]), &[1, 1, 1]),
        ]);
        assert_lanes_match_scalar("y(i) = m(i,j) * x(j)", &[lane(&["m", "x"])], &e);
    }
}
