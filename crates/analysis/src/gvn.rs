//! Dominator-scoped global value numbering (hash-based GVN/CSE).
//!
//! Walks the dominator tree keeping a scoped table of available pure
//! expressions; a recomputation whose dominating twin is available is
//! removed and its uses redirected. This plays two roles in the
//! reproduction:
//!
//! * it is part of the "basic set" of optimizations Jalapeño runs before
//!   ABCD (copy propagation + local/global CSE), which canonicalizes
//!   duplicate constants, repeated `a.length` reads, and repeated `i + 1`
//!   expressions — without it most of ABCD's subsumption opportunities are
//!   hidden behind syntactically distinct values;
//! * it supplies the **congruence classes** the §7.1 extension consults on
//!   demand ("if A and B were congruent, we obtained the desired proof").

use crate::scratch::{CleanupScratch, FnvMap};
use abcd_ir::{BinOp, Block, Function, InstKind, UnOp, Value};
use abcd_ssa::DomTree;

/// A hashable key for pure expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum ExprKey {
    Const(i64),
    BoolConst(bool),
    Unary(UnOp, Value),
    Binary(BinOp, Value, Value),
    Compare(abcd_ir::CmpOp, Value, Value),
    ArrayLen(Value),
}

/// One step of value numbering's dominator-tree walk.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Step {
    Enter(Block),
    /// Undo the log down to this length.
    Exit(usize),
}

/// The result of value numbering: rewrite counts and congruence classes.
#[derive(Clone, Debug, Default)]
pub struct GvnResult {
    /// Instructions removed as redundant.
    pub removed: usize,
    /// Per value: the value it was unified with (itself if never). Queried
    /// by ABCD's §7.1 hook; values past the end are their own leaders.
    leader: Vec<Value>,
}

impl GvnResult {
    pub(crate) fn with_table(leader: Vec<Value>) -> GvnResult {
        GvnResult { removed: 0, leader }
    }

    pub(crate) fn into_table(self) -> Vec<Value> {
        self.leader
    }

    /// Records that `v` is congruent to `leader` (later records win).
    fn unify(&mut self, v: Value, leader: Value) {
        if self.leader.len() <= v.index() {
            let len = self.leader.len();
            self.leader.extend((len..=v.index()).map(Value::new));
        }
        self.leader[v.index()] = leader;
    }

    /// The congruence-class representative of `v` (itself if never unified).
    pub fn leader_of(&self, v: Value) -> Value {
        let mut cur = v;
        while let Some(&next) = self.leader.get(cur.index()) {
            if next == cur {
                break;
            }
            cur = next;
        }
        cur
    }

    /// Are `a` and `b` congruent?
    pub fn congruent(&self, a: Value, b: Value) -> bool {
        self.leader_of(a) == self.leader_of(b)
    }

    /// Points every value straight at its representative, so later
    /// [`leader_of`](GvnResult::leader_of) reads take one hop. The classes
    /// do not change.
    fn flatten(&mut self) {
        for i in 0..self.leader.len() {
            self.leader[i] = self.leader_of(Value::new(i));
        }
    }
}

/// Runs GVN over `func`; rewrites uses and unlinks redundant instructions.
pub fn value_number(func: &mut Function) -> GvnResult {
    value_number_with_tree(func, &DomTree::compute(func))
}

/// [`value_number`] over `func`'s dominator tree `dt`, which GVN leaves
/// valid: it never changes the CFG.
pub fn value_number_with_tree(func: &mut Function, dt: &DomTree) -> GvnResult {
    CleanupScratch::new().value_number(func, dt)
}

/// Records *load congruence* into `gvn` (see
/// [`CleanupScratch::record_load_congruence`]).
pub fn record_load_congruence(func: &Function, gvn: &mut GvnResult) {
    CleanupScratch::new().record_load_congruence(func, gvn);
}

impl CleanupScratch {
    /// [`value_number_with_tree`] on this scratch's tables.
    pub fn value_number(&mut self, func: &mut Function, dt: &DomTree) -> GvnResult {
        let mut gvn = self.fresh_result(func);
        gvn.removed = self.number_into(func, dt, &mut gvn);
        gvn
    }

    /// Value-numbers `func`, recording every unification into `gvn`;
    /// returns the number of instructions removed.
    pub(crate) fn number_into(
        &mut self,
        func: &mut Function,
        dt: &DomTree,
        gvn: &mut GvnResult,
    ) -> usize {
        let CleanupScratch {
            exprs,
            undo,
            walk,
            rename,
            unlink,
            ..
        } = self;
        // Scoped expression table; `undo` logs each block's insertions (a
        // key is only ever inserted where it was absent) so the block's
        // exit removes them.
        exprs.clear();
        undo.clear();
        // Dense rename map: every value starts as its own representative.
        rename.clear();
        rename.extend(func.values());
        unlink.reset(func);
        let mut removed = 0;
        walk.clear();
        walk.push(Step::Enter(func.entry()));

        while let Some(step) = walk.pop() {
            match step {
                Step::Exit(mark) => {
                    for k in undo.drain(mark..) {
                        exprs.remove(&k);
                    }
                }
                Step::Enter(b) => {
                    let mark = undo.len();
                    for pos in 0..func.block(b).insts().len() {
                        let id = func.block(b).insts()[pos];
                        // Rewrite uses through accumulated renames first.
                        func.inst_mut(id).kind.map_uses(|v| rename[v.index()]);
                        let inst = func.inst(id);
                        let key = match inst.kind {
                            InstKind::Const(c) => Some(ExprKey::Const(c)),
                            InstKind::BoolConst(c) => Some(ExprKey::BoolConst(c)),
                            InstKind::Unary { op, arg } => Some(ExprKey::Unary(op, arg)),
                            InstKind::Binary { op, lhs, rhs } => {
                                // Canonicalize commutative operands by index.
                                let (a, c) = if commutative(op) && rhs < lhs {
                                    (rhs, lhs)
                                } else {
                                    (lhs, rhs)
                                };
                                // Div/Rem can trap; still pure *value-wise*,
                                // and replacing with a dominating twin never
                                // adds a trap, so it is safe to unify.
                                Some(ExprKey::Binary(op, a, c))
                            }
                            InstKind::Compare { op, lhs, rhs } => {
                                Some(ExprKey::Compare(op, lhs, rhs))
                            }
                            InstKind::ArrayLen { array } => Some(ExprKey::ArrayLen(array)),
                            InstKind::Copy { arg } => {
                                // Copy propagation: uses of the copy see the
                                // original; the copy itself is removed.
                                let r = inst.result.expect("copy has result");
                                rename[r.index()] = arg;
                                gvn.unify(r, arg);
                                unlink.mark(b, id);
                                removed += 1;
                                None
                            }
                            _ => None,
                        };
                        if let Some(key) = key {
                            let r = inst.result.expect("pure inst has result");
                            if let Some(&canon) = exprs.get(&key) {
                                rename[r.index()] = canon;
                                gvn.unify(r, canon);
                                unlink.mark(b, id);
                                removed += 1;
                            } else {
                                undo.push(key);
                                exprs.insert(key, r);
                            }
                        }
                    }
                    // The terminator sees the renames made so far.
                    if let Some(term) = func.block(b).terminator_opt() {
                        let mut t = term.clone();
                        t.map_uses(|v| rename[v.index()]);
                        func.set_terminator(b, t);
                    }
                    walk.push(Step::Exit(mark));
                    walk.extend(dt.children(b).iter().map(|&c| Step::Enter(c)));
                }
            }
        }

        // φ arguments may reference renamed values defined in
        // non-dominating predecessors; apply the full rename map once at
        // the end.
        func.map_all_uses(|v| rename[v.index()]);
        unlink.sweep(func);
        removed
    }

    /// Records *load congruence* into `gvn`: two loads of the same
    /// `array[index]` with no intervening store or call yield the same
    /// value — in particular, two loads of an array-of-arrays slot yield
    /// the *same array reference*, so their lengths are equal. This is
    /// exactly the congruence ABCD's §7.1 hook consults ("if A and B were
    /// congruent, we obtained the desired proof that x ≤ A.length"):
    /// pure-expression CSE can never supply it because loads read memory.
    ///
    /// The analysis is deliberately block-local (the table resets at block
    /// entry and at every store/call), which keeps it trivially sound in
    /// the presence of loops and joins. No instruction is rewritten —
    /// matching the paper's "we do not encode the results … we consult the
    /// congruence information on demand".
    pub fn record_load_congruence(&mut self, func: &Function, gvn: &mut GvnResult) {
        let table = &mut self.loads;
        for b in func.blocks() {
            reset(table);
            for &id in func.block(b).insts() {
                let inst = func.inst(id);
                match inst.kind {
                    InstKind::Load { array, index } => {
                        // Canonicalize through existing congruence so
                        // renamed indices still match.
                        let key = (gvn.leader_of(array), gvn.leader_of(index));
                        let r = inst.result.expect("load has result");
                        match table.get(&key) {
                            Some(&first) => gvn.unify(r, first),
                            None => {
                                table.insert(key, r);
                            }
                        }
                    }
                    InstKind::Store { .. } | InstKind::Call { .. } => reset(table),
                    _ => {}
                }
            }
        }
        gvn.flatten();
    }
}

/// Empties `table`; clearing one that is already empty would still sweep
/// every bucket of its high-water capacity.
fn reset(table: &mut FnvMap<(Value, Value), Value>) {
    if !table.is_empty() {
        table.clear();
    }
}

fn commutative(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
    )
}

/// Convenience accessor used by ABCD's §7.1 hook: all array-typed values
/// congruent to `array` (excluding itself) whose definition dominates
/// `at_block`. It finds every definition site per call; the driver and
/// translation validation use [`congruent_arrays_in`] instead.
pub fn congruent_arrays(
    func: &Function,
    gvn: &GvnResult,
    dt: &DomTree,
    array: Value,
    at_block: abcd_ir::Block,
) -> Vec<Value> {
    congruent_arrays_in(func, &func.inst_locations(), gvn, dt, array, at_block)
}

/// [`congruent_arrays`] with `func`'s instruction `locations`
/// ([`Function::inst_locations`]) computed once by the caller and shared
/// by every query against the unchanged function.
pub fn congruent_arrays_in(
    func: &Function,
    locations: &[Option<(abcd_ir::Block, usize)>],
    gvn: &GvnResult,
    dt: &DomTree,
    array: Value,
    at_block: abcd_ir::Block,
) -> Vec<Value> {
    let leader = gvn.leader_of(array);
    let mut out = Vec::new();
    for v in func.values() {
        if v == array || !func.value_type(v).is_array() {
            continue;
        }
        if gvn.leader_of(v) != leader {
            continue;
        }
        let ok = match func.value_def(v) {
            abcd_ir::ValueDef::Param(_) => true,
            abcd_ir::ValueDef::Inst(id) => locations[id.index()]
                .map(|(b, _)| dt.dominates(b, at_block))
                .unwrap_or(false),
        };
        if ok {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcd_ir::{CmpOp, FunctionBuilder, Type};

    #[test]
    fn unifies_duplicate_constants_and_lengths() {
        let mut b = FunctionBuilder::new("f", vec![Type::array_of(Type::Int)], Some(Type::Int));
        let a = b.param(0);
        let l1 = b.array_len(a);
        let l2 = b.array_len(a); // redundant
        let c1 = b.iconst(10);
        let c2 = b.iconst(10); // redundant
        let s1 = b.binary(BinOp::Add, l1, c1);
        let s2 = b.binary(BinOp::Add, c2, l2); // commutative twin
        let r = b.binary(BinOp::Sub, s1, s2);
        b.ret(Some(r));
        let mut f = b.finish().unwrap();
        let res = value_number(&mut f);
        assert_eq!(res.removed, 3); // l2, c2, s2
        assert!(res.congruent(l1, l2));
        assert!(res.congruent(s1, s2));
        abcd_ssa::verify_ssa(&f).unwrap();
    }

    #[test]
    fn does_not_unify_across_non_dominating_blocks() {
        let mut b = FunctionBuilder::new("f", vec![Type::Int], Some(Type::Int));
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.compare(CmpOp::Lt, x, zero);
        let (t, e) = (b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to_block(t);
        let a1 = b.binary(BinOp::Add, x, x);
        b.ret(Some(a1));
        b.switch_to_block(e);
        let a2 = b.binary(BinOp::Add, x, x); // same expr, sibling branch
        b.ret(Some(a2));
        let mut f = b.finish().unwrap();
        let res = value_number(&mut f);
        assert_eq!(res.removed, 0);
        assert!(!res.congruent(a1, a2));
    }

    #[test]
    fn copies_are_propagated() {
        let mut b = FunctionBuilder::new("f", vec![Type::Int], Some(Type::Int));
        let x = b.param(0);
        let c = b.copy(x);
        let one = b.iconst(1);
        let y = b.binary(BinOp::Add, c, one);
        b.ret(Some(y));
        let mut f = b.finish().unwrap();
        let res = value_number(&mut f);
        assert_eq!(res.removed, 1);
        // y's lhs is now x directly
        let abcd_ir::ValueDef::Inst(yid) = f.value_def(y) else {
            panic!()
        };
        match f.inst(yid).kind {
            InstKind::Binary { lhs, .. } => assert_eq!(lhs, x),
            _ => panic!(),
        }
    }

    #[test]
    fn congruent_arrays_respects_dominance() {
        // b := copy a  → a and b congruent; query from a later block.
        let mut bld = FunctionBuilder::new("f", vec![Type::array_of(Type::Int)], None);
        let a = bld.param(0);
        let b2 = bld.copy(a);
        let next = bld.new_block();
        bld.jump(next);
        bld.switch_to_block(next);
        bld.ret(None);
        let mut f = bld.finish().unwrap();
        let res = value_number(&mut f);
        let dt = DomTree::compute(&f);
        // b2 was unified into a; congruent set of a contains b2? b2's def
        // is removed, so only the surviving value matters: leader_of(b2)==a.
        assert_eq!(res.leader_of(b2), a);
        let cong = congruent_arrays(&f, &res, &dt, b2, next);
        assert!(cong.contains(&a));
    }
}
