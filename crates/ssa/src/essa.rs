//! Extended SSA (e-SSA) construction: π-assignment insertion (§3 of the
//! ABCD paper).
//!
//! A π-assignment renames a value at a program point where a constraint on
//! it becomes known: on each out-edge of a conditional branch (constraint
//! class C4) and after each bounds check (class C5). Renaming makes the
//! flow-sensitive constraint flow-insensitive: a constraint on an e-SSA name
//! holds wherever that name is live.
//!
//! **Placement.** Branch πs conceptually live on CFG edges; after critical
//! edges are split (see [`split_critical_edges`](crate::split_critical_edges))
//! every branch target has a single predecessor, so the π can sit at the top
//! of the target block. Check πs sit immediately after their check.
//!
//! **Renaming.** A dominator-tree walk threads each π through the uses it
//! dominates, exactly like SSA renaming; π versions flow into existing
//! φ-arguments on the walked edges, which reproduces the paper's Figure 3
//! (the loop φ `j1 := φ(j0, j4)` picks up the π-derived `j4`). Like the
//! paper — which skips φ-insertion for `limit` in the running example — we
//! do not *create* new φs to merge π versions at joins: a merged π version
//! carries the weakest of the merged constraints, which is useful only in
//! the rare case of identical checks on distinct paths; forgoing it is sound
//! (constraints are only dropped, never invented).

use crate::dom::reset;
use crate::scratch::{ScopedTable, SsaScratch, NONE};
use crate::split::count_preds;
use abcd_ir::{successors, Block, Function, InstKind, PiGuard, Terminator, Type, Value, ValueDef};
use std::convert::Infallible;

/// Statistics returned by [`insert_pi_nodes`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PiStats {
    /// π-assignments inserted for branch out-edges (class C4).
    pub branch_pis: usize,
    /// π-assignments inserted after bounds checks (class C5).
    pub check_pis: usize,
}

/// Converts an SSA-form function to e-SSA by inserting and threading
/// π-assignments. Requires critical edges to be split; branch out-edges
/// whose target has several predecessors are (soundly) skipped. Runs
/// [`SsaScratch::insert_pi_nodes`] on a fresh scratch.
pub fn insert_pi_nodes(func: &mut Function) -> PiStats {
    SsaScratch::new().insert_pi_nodes(func)
}

impl SsaScratch {
    /// Inserts and threads π-assignments (see [`insert_pi_nodes`]). A
    /// function that already holds a π is left alone: e-SSA construction
    /// is idempotent.
    pub fn insert_pi_nodes(&mut self, func: &mut Function) -> PiStats {
        let mut stats = PiStats::default();
        // Idempotence guard: a function already in e-SSA form would otherwise
        // silently receive a second, chained layer of π-assignments.
        let already_essa = func.blocks().any(|b| {
            func.block(b)
                .insts()
                .iter()
                .any(|&id| matches!(func.inst(id).kind, InstKind::Pi { .. }))
        });
        if already_essa {
            return stats;
        }
        self.ensure_tree(func);
        count_preds(func, &mut self.pred_count);

        // ---- Phase A: create π instructions (inputs still the original names).

        // Branch πs: at the top of each branch target.
        for b in 0..func.block_count() {
            let b = Block::new(b);
            let Some(&Terminator::Branch {
                cond,
                then_dst,
                else_dst,
            }) = func.block(b).terminator_opt()
            else {
                continue;
            };
            // The condition must be a direct integer comparison.
            let ValueDef::Inst(def) = func.value_def(cond) else {
                continue;
            };
            let InstKind::Compare { lhs, rhs, .. } = func.inst(def).kind else {
                continue;
            };
            // One π per distinct integer operand (lhs may equal rhs).
            let operands: &[Value] = if rhs != lhs { &[lhs, rhs] } else { &[lhs] };
            for (target, taken) in [(then_dst, true), (else_dst, false)] {
                if self.pred_count[target.index()] != 1 {
                    continue; // unsplit critical edge: skip soundly
                }
                let mut pos = 0;
                for &op in operands {
                    if func.value_type(op) != &Type::Int {
                        continue;
                    }
                    let id = func.create_inst(
                        InstKind::Pi {
                            input: op,
                            guard: PiGuard::Branch { block: b, taken },
                        },
                        Some(Type::Int),
                    );
                    func.insert_inst(target, pos, id);
                    pos += 1;
                    stats.branch_pis += 1;
                }
            }
        }

        // Check πs: immediately after each bounds check, renaming the index.
        for b in 0..func.block_count() {
            let b = Block::new(b);
            let mut pos = 0;
            while pos < func.block(b).insts().len() {
                let id = func.block(b).insts()[pos];
                pos += 1;
                let InstKind::BoundsCheck {
                    site,
                    array,
                    index,
                    kind,
                } = func.inst(id).kind
                else {
                    continue;
                };
                let pi = func.create_inst(
                    InstKind::Pi {
                        input: index,
                        guard: PiGuard::Check { site, array, kind },
                    },
                    Some(Type::Int),
                );
                func.insert_inst(b, pos, pi);
                pos += 1;
                stats.check_pis += 1;
            }
        }

        // ---- Phase B: thread the π versions through dominated uses.
        self.rename_pi_versions(func);
        stats
    }

    /// Dominator-tree renaming walk: every use sees the innermost π version
    /// of its value family that dominates it. φ-arguments are rewritten per
    /// edge.
    fn rename_pi_versions(&mut self, func: &mut Function) {
        let SsaScratch {
            tree,
            value_map: root,
            table,
            ..
        } = self;
        // Family roots: π results belong to the family of their (root) input.
        reset(root, func.value_count(), NONE);
        let root_of = |root: &[u32], v: Value| match root[v.index()] {
            NONE => v.index(),
            r => r as usize,
        };
        // The innermost active version of `v`'s family.
        let current =
            |table: &ScopedTable, root: &[u32], v: Value| table.get(root_of(root, v)).unwrap_or(v);

        let entry = func.entry();
        let walked = table.walk(func.value_count(), tree, entry, |table, b| {
            for pos in 0..func.block(b).insts().len() {
                let id = func.block(b).insts()[pos];
                let inst = func.inst_mut(id);
                // Rewrite uses to the innermost active version. (φ argument
                // rewriting happens on the predecessor's edge below, so skip
                // φs here.)
                if !matches!(inst.kind, InstKind::Phi { .. }) {
                    inst.kind.map_uses(|v| current(table, root, v));
                }
                if let InstKind::Pi { input, .. } = inst.kind {
                    let result = inst.result.expect("pi has result");
                    let r = root_of(root, input);
                    root[result.index()] = r as u32;
                    table.set(r, result);
                }
            }

            // Terminator uses.
            if let Some(term) = func.block(b).terminator_opt() {
                let mut t = term.clone();
                t.map_uses(|v| current(table, root, v));
                func.set_terminator(b, t);
            }

            // φ arguments along each out-edge.
            for s in successors(func, b) {
                for pos in 0..func.block(s).insts().len() {
                    let id = func.block(s).insts()[pos];
                    if let InstKind::Phi { args } = &mut func.inst_mut(id).kind {
                        for (p, v) in args.iter_mut() {
                            if *p == b {
                                *v = current(table, root, *v);
                            }
                        }
                    }
                }
            }
            Ok::<(), Infallible>(())
        });
        let Ok(()) = walked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{promote_locals, split_critical_edges, verify_ssa};
    use abcd_ir::{BinOp, CheckKind, CmpOp, FunctionBuilder, Type};

    /// The paper's single-loop fragment (Figure 3, first `for` loop):
    /// `for (j = st; j < limit; j++) { check a[j]; check a[j+1]; }`
    fn figure3_like() -> Function {
        let mut b = FunctionBuilder::new(
            "f",
            vec![Type::array_of(Type::Int), Type::Int, Type::Int],
            None,
        );
        let a = b.param(0);
        let st = b.param(1);
        let limit = b.param(2);
        let j = b.new_local(Type::Int);
        b.set_local(j, st);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(head);
        b.switch_to_block(head);
        let jv = b.get_local(j);
        let c = b.compare(CmpOp::Lt, jv, limit);
        b.branch(c, body, exit);
        b.switch_to_block(body);
        let jv2 = b.get_local(j);
        b.bounds_check(a, jv2, CheckKind::Upper);
        let _x = b.load(a, jv2);
        let one = b.iconst(1);
        let t = b.binary(BinOp::Add, jv2, one);
        b.bounds_check(a, t, CheckKind::Upper);
        let _y = b.load(a, t);
        let one2 = b.iconst(1);
        let jn = b.binary(BinOp::Add, jv2, one2);
        b.set_local(j, jn);
        b.jump(head);
        b.switch_to_block(exit);
        b.ret(None);
        b.finish().unwrap()
    }

    #[test]
    fn figure3_shape_is_reproduced() {
        let mut f = figure3_like();
        split_critical_edges(&mut f);
        promote_locals(&mut f).unwrap();
        let stats = insert_pi_nodes(&mut f);
        verify_ssa(&f).unwrap();

        // Branch πs: j and limit on both edges of the loop test → 4.
        assert_eq!(stats.branch_pis, 4);
        // Check πs: one per bounds check → 2.
        assert_eq!(stats.check_pis, 2);

        // The load after the first check must use the π version of j,
        // not the φ version (constraint C5 attaches to the π name).
        let text = f.to_string();
        assert!(text.contains("pi"), "{text}");
    }

    #[test]
    fn check_pi_feeds_following_uses_and_backedge_phi() {
        let mut f = figure3_like();
        split_critical_edges(&mut f);
        promote_locals(&mut f).unwrap();
        insert_pi_nodes(&mut f);

        // Find the loop-head φ for j and its backedge argument; that
        // argument must be the increment, whose lhs is a π version (the
        // chained rename of j through branch-π and check-π).
        let mut found = false;
        for b in f.blocks() {
            for &id in f.block(b).insts() {
                if let InstKind::Phi { args } = &f.inst(id).kind {
                    for (_, v) in args {
                        if let abcd_ir::ValueDef::Inst(def) = f.value_def(*v) {
                            if let InstKind::Binary {
                                op: BinOp::Add,
                                lhs,
                                ..
                            } = f.inst(def).kind
                            {
                                // lhs must be π-defined.
                                if let abcd_ir::ValueDef::Inst(d2) = f.value_def(lhs) {
                                    if matches!(f.inst(d2).kind, InstKind::Pi { .. }) {
                                        found = true;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(found, "backedge increment should flow through a π:\n{f}");
    }

    #[test]
    fn non_compare_branches_get_no_pis() {
        let mut b = FunctionBuilder::new("f", vec![Type::Bool], None);
        let c = b.param(0);
        let (t, e) = (b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to_block(t);
        b.ret(None);
        b.switch_to_block(e);
        b.ret(None);
        let mut f = b.finish().unwrap();
        let stats = insert_pi_nodes(&mut f);
        assert_eq!(stats, PiStats::default());
    }

    #[test]
    fn equal_operands_get_single_pi() {
        let mut b = FunctionBuilder::new("f", vec![Type::Int], None);
        let x = b.param(0);
        let c = b.compare(CmpOp::Lt, x, x);
        let (t, e) = (b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to_block(t);
        b.ret(None);
        b.switch_to_block(e);
        b.ret(None);
        let mut f = b.finish().unwrap();
        let stats = insert_pi_nodes(&mut f);
        assert_eq!(stats.branch_pis, 2); // one per edge
        verify_ssa(&f).unwrap();
    }
}
