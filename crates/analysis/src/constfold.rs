//! Constant folding on SSA form.
//!
//! Folds arithmetic/comparisons over constant operands into constant
//! definitions, in place (the instruction is rewritten, so no renaming is
//! needed). This mirrors the "constant folding" in Jalapeño's basic
//! optimization set and matters for ABCD: a folded `0 - 1` becomes a `-1`
//! literal, which the inequality graph represents exactly.

use abcd_ir::{BinOp, Block, Function, InstKind, UnOp, Value, ValueDef};

fn const_of(func: &Function, v: Value) -> Option<i64> {
    match func.value_def(v) {
        ValueDef::Inst(id) => match func.inst(id).kind {
            InstKind::Const(c) => Some(c),
            _ => None,
        },
        ValueDef::Param(_) => None,
    }
}

fn bool_of(func: &Function, v: Value) -> Option<bool> {
    match func.value_def(v) {
        ValueDef::Inst(id) => match func.inst(id).kind {
            InstKind::BoolConst(c) => Some(c),
            _ => None,
        },
        ValueDef::Param(_) => None,
    }
}

/// Folds constant expressions; returns the number of instructions rewritten.
/// Runs to a local fixed point (folded results feed later folds because the
/// rewrite happens in program order).
pub fn fold_constants(func: &mut Function) -> usize {
    let mut folded = 0;
    for b in (0..func.block_count()).map(Block::new) {
        for pos in 0..func.block(b).insts().len() {
            let id = func.block(b).insts()[pos];
            let new_kind = match &func.inst(id).kind {
                InstKind::Binary { op, lhs, rhs } => {
                    match (const_of(func, *lhs), const_of(func, *rhs)) {
                        (Some(a), Some(c)) => {
                            let v = match op {
                                BinOp::Add => Some(a.wrapping_add(c)),
                                BinOp::Sub => Some(a.wrapping_sub(c)),
                                BinOp::Mul => Some(a.wrapping_mul(c)),
                                // Division folds only when well-defined.
                                BinOp::Div if c != 0 => Some(a.wrapping_div(c)),
                                BinOp::Rem if c != 0 => Some(a.wrapping_rem(c)),
                                BinOp::And => Some(a & c),
                                BinOp::Or => Some(a | c),
                                BinOp::Xor => Some(a ^ c),
                                BinOp::Shl => Some(a.wrapping_shl(c as u32 & 63)),
                                BinOp::Shr => Some(a.wrapping_shr(c as u32 & 63)),
                                _ => None,
                            };
                            v.map(InstKind::Const)
                        }
                        // Algebraic identities that keep the graph sparse.
                        (None, Some(0)) if matches!(op, BinOp::Add | BinOp::Sub) => {
                            Some(InstKind::Copy { arg: *lhs })
                        }
                        (Some(0), None) if matches!(op, BinOp::Add) => {
                            Some(InstKind::Copy { arg: *rhs })
                        }
                        _ => None,
                    }
                }
                InstKind::Compare { op, lhs, rhs } => {
                    match (const_of(func, *lhs), const_of(func, *rhs)) {
                        (Some(a), Some(c)) => Some(InstKind::BoolConst(op.eval(a, c))),
                        _ => None,
                    }
                }
                InstKind::Unary { op: UnOp::Neg, arg } => {
                    const_of(func, *arg).map(|a| InstKind::Const(a.wrapping_neg()))
                }
                InstKind::Unary { op: UnOp::Not, arg } => {
                    bool_of(func, *arg).map(|a| InstKind::BoolConst(!a))
                }
                _ => None,
            };
            if let Some(kind) = new_kind {
                func.inst_mut(id).kind = kind;
                folded += 1;
            }
        }
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcd_ir::{CmpOp, FunctionBuilder, Terminator, Type};

    #[test]
    fn folds_chain_in_program_order() {
        let mut b = FunctionBuilder::new("f", vec![], Some(Type::Int));
        let zero = b.iconst(0);
        let one = b.iconst(1);
        let m1 = b.binary(BinOp::Sub, zero, one); // 0 - 1 = -1
        let two = b.iconst(2);
        let r = b.binary(BinOp::Mul, m1, two); // -1 * 2 = -2
        b.ret(Some(r));
        let mut f = b.finish().unwrap();
        assert_eq!(fold_constants(&mut f), 2);
        // r's definition is now a constant -2
        let Terminator::Return(Some(rv)) = f.block(f.entry()).terminator() else {
            panic!()
        };
        let abcd_ir::ValueDef::Inst(id) = f.value_def(*rv) else {
            panic!()
        };
        assert_eq!(f.inst(id).kind, InstKind::Const(-2));
    }

    #[test]
    fn folds_comparisons_and_identities() {
        let mut b = FunctionBuilder::new("f", vec![Type::Int], Some(Type::Int));
        let x = b.param(0);
        let three = b.iconst(3);
        let five = b.iconst(5);
        let _c = b.compare(CmpOp::Lt, three, five); // true
        let y = b.binary(BinOp::Add, x, x); // not foldable
        let zero = b.iconst(0);
        let z = b.binary(BinOp::Add, y, zero); // identity → copy
        b.ret(Some(z));
        let mut f = b.finish().unwrap();
        assert_eq!(fold_constants(&mut f), 2);
    }

    #[test]
    fn division_by_zero_not_folded() {
        let mut b = FunctionBuilder::new("f", vec![], Some(Type::Int));
        let one = b.iconst(1);
        let zero = b.iconst(0);
        let q = b.binary(BinOp::Div, one, zero);
        b.ret(Some(q));
        let mut f = b.finish().unwrap();
        assert_eq!(fold_constants(&mut f), 0);
    }
}
