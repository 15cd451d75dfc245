//! Dead-code elimination on SSA form.
//!
//! Removes pure instructions whose results are never used. Run after GVN /
//! constant folding to sweep the redundant definitions they strand.

use crate::scratch::{CleanupScratch, NONE};
use abcd_ir::{Block, Function, ValueDef};

/// Removes unused pure instructions; returns how many were removed.
///
/// π-assignments count as pure: an unused π carries a constraint no check
/// ever consults, so dropping it cannot hide a redundancy.
pub fn eliminate_dead_code(func: &mut Function) -> usize {
    CleanupScratch::new().eliminate_dead_code(func)
}

impl CleanupScratch {
    /// [`eliminate_dead_code`] on this scratch's tables.
    ///
    /// One pass counts every value's uses; unused pure instructions seed a
    /// worklist, and removing one releases its operands, whose definitions
    /// join the worklist when their last use goes. That ends at the fixed
    /// point of deleting unused pure instructions one at a time, the same
    /// set whatever the order.
    pub fn eliminate_dead_code(&mut self, func: &mut Function) -> usize {
        let CleanupScratch {
            uses,
            home,
            worklist,
            unlink,
            ..
        } = self;
        uses.clear();
        uses.resize(func.value_count(), 0);
        home.clear();
        home.resize(func.inst_count(), NONE);
        for b in func.blocks() {
            for &id in func.block(b).insts() {
                home[id.index()] = b.index() as u32;
                func.inst(id).kind.for_each_use(|v| uses[v.index()] += 1);
            }
            if let Some(t) = func.block(b).terminator_opt() {
                t.for_each_use(|v| uses[v.index()] += 1);
            }
        }

        unlink.reset(func);
        worklist.clear();
        for b in func.blocks() {
            for &id in func.block(b).insts() {
                let inst = func.inst(id);
                if inst.result.is_some_and(|r| uses[r.index()] == 0) && inst.kind.is_pure() {
                    unlink.mark(b, id);
                    worklist.push(id);
                }
            }
        }
        let mut removed = 0;
        while let Some(id) = worklist.pop() {
            removed += 1;
            func.inst(id).kind.for_each_use(|v| {
                uses[v.index()] -= 1;
                if uses[v.index()] > 0 {
                    return;
                }
                let ValueDef::Inst(def) = func.value_def(v) else {
                    return;
                };
                let b = home[def.index()];
                if b != NONE && !unlink.is_marked(def) && func.inst(def).kind.is_pure() {
                    unlink.mark(Block::new(b as usize), def);
                    worklist.push(def);
                }
            });
        }
        unlink.sweep(func);
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcd_ir::{BinOp, FunctionBuilder, Type};

    #[test]
    fn removes_unused_chain() {
        let mut b = FunctionBuilder::new("f", vec![Type::Int], Some(Type::Int));
        let x = b.param(0);
        let one = b.iconst(1);
        let dead1 = b.binary(BinOp::Add, x, one);
        let _dead2 = b.binary(BinOp::Mul, dead1, dead1);
        b.ret(Some(x));
        let mut f = b.finish().unwrap();
        assert_eq!(eliminate_dead_code(&mut f), 3); // dead2, dead1, one
        let live: usize = f.blocks().map(|b| f.block(b).insts().len()).sum();
        assert_eq!(live, 0);
    }

    #[test]
    fn removal_releases_operands_across_blocks() {
        // `dead1` lives in the entry block; its only user, in the next
        // block, dies first and releases it.
        let mut b = FunctionBuilder::new("f", vec![Type::Int], Some(Type::Int));
        let x = b.param(0);
        let dead1 = b.binary(BinOp::Add, x, x);
        let next = b.new_block();
        b.jump(next);
        b.switch_to_block(next);
        let _dead2 = b.binary(BinOp::Mul, dead1, x);
        b.ret(Some(x));
        let mut f = b.finish().unwrap();
        assert_eq!(CleanupScratch::new().eliminate_dead_code(&mut f), 2);
        assert!(f.blocks().all(|b| f.block(b).insts().is_empty()));
    }

    #[test]
    fn keeps_side_effects() {
        let mut b = FunctionBuilder::new("f", vec![Type::array_of(Type::Int)], None);
        let a = b.param(0);
        let i = b.iconst(0);
        b.bounds_check(a, i, abcd_ir::CheckKind::Upper);
        let v = b.load(a, i); // result unused, but loads may trap → keep
        let _ = v;
        b.ret(None);
        let mut f = b.finish().unwrap();
        assert_eq!(eliminate_dead_code(&mut f), 0);
        assert_eq!(f.count_checks(), (1, 0, 0));
    }
}
