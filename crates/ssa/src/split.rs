//! CFG normalization: a looping entry and critical edges get blocks of
//! their own.
//!
//! A CFG edge is *critical* when its source has several successors and its
//! target has several predecessors. ABCD needs split edges twice over:
//! π-assignments conceptually live **on** branch out-edges (§3 of the paper),
//! and partial-redundancy elimination inserts compensating checks **on**
//! φ in-edges (§6). After splitting, both kinds of edge own a block.
//!
//! The entry block must have no predecessors: a φ there would have no
//! argument for the function-entry path, and a branch π there would hold
//! its guard on that path too, where nothing established it.

use abcd_ir::{successors, Block, Function, InstKind, Terminator};

/// Normalizes the CFG for SSA construction — splits a looping entry (see
/// [`split_looping_entry`]), then every critical edge — and returns the
/// number of critical edges split.
///
/// For each critical edge `p → s` a fresh block `n` is created with a single
/// `jump s`; `p`'s terminator is retargeted to `n`, and φ-arguments in `s`
/// that named `p` are renamed to `n`.
pub fn split_critical_edges(func: &mut Function) -> usize {
    normalize_cfg(func, &mut Vec::new())
}

/// [`split_critical_edges`] with its predecessor counts in `pred_count`.
pub(crate) fn normalize_cfg(func: &mut Function, pred_count: &mut Vec<u32>) -> usize {
    split_looping_entry(func);
    count_preds(func, pred_count);
    let mut split = 0;

    for b in 0..func.block_count() {
        let b = Block::new(b);
        let Some(&Terminator::Branch {
            cond,
            then_dst,
            else_dst,
        }) = func.block(b).terminator_opt()
        else {
            continue; // jumps/returns have at most one successor
        };

        // Split each target separately; `both same target` splits twice,
        // yielding two distinct edge blocks.
        let mut new_then = then_dst;
        let mut new_else = else_dst;
        if pred_count[then_dst.index()] > 1 || then_dst == else_dst {
            new_then = split_one(func, b, then_dst);
            split += 1;
        }
        if pred_count[else_dst.index()] > 1 || then_dst == else_dst {
            new_else = split_one(func, b, else_dst);
            split += 1;
        }
        if new_then != then_dst || new_else != else_dst {
            func.set_terminator(
                b,
                Terminator::Branch {
                    cond,
                    then_dst: new_then,
                    else_dst: new_else,
                },
            );
        }
    }
    split
}

/// Refills `pred_count` with the number of CFG edges entering each block.
pub(crate) fn count_preds(func: &Function, pred_count: &mut Vec<u32>) {
    crate::dom::reset(pred_count, func.block_count(), 0);
    for b in func.blocks() {
        for s in successors(func, b) {
            pred_count[s.index()] += 1;
        }
    }
}

fn split_one(func: &mut Function, pred: Block, succ: Block) -> Block {
    let n = func.new_block();
    func.set_terminator(n, Terminator::Jump(succ));
    // Rename ONE φ-argument occurrence of `pred` in `succ` to `n` (edges are
    // split one at a time, so each call may only consume one occurrence).
    for pos in 0..func.block(succ).insts().len() {
        let id = func.block(succ).insts()[pos];
        if let InstKind::Phi { args } = &mut func.inst_mut(id).kind {
            if let Some(slot) = args.iter_mut().find(|(p, _)| *p == pred) {
                slot.0 = n;
            }
        }
    }
    n
}

/// Ensures the entry block has no predecessors, splitting it if a back edge
/// targets it. SSA construction requires this: a φ in the entry block would
/// have no argument for the function-entry path, and the interpreter could
/// not evaluate it. Returns the block now holding the old entry's code, or
/// `None` if no split was needed.
pub fn split_looping_entry(func: &mut Function) -> Option<Block> {
    let entry = func.entry();
    if !func.blocks().any(|b| successors(func, b).contains(&entry)) {
        return None;
    }
    // Move the entry's contents into a fresh block.
    let moved = func.new_block();
    let insts = func.block(entry).insts().to_vec();
    let term = func.block(entry).terminator_opt().cloned();
    func.clear_block(entry);
    func.set_block_insts(moved, insts);
    if let Some(t) = term {
        func.set_terminator(moved, t);
    }
    // Retarget every edge that pointed at the entry (including the moved
    // block's own), and rename φ-arguments accordingly.
    for b in func.blocks().collect::<Vec<_>>() {
        if b == entry {
            continue;
        }
        if let Some(t) = func.block(b).terminator_opt() {
            let mut t = t.clone();
            t.map_successors(|d| if d == entry { moved } else { d });
            func.set_terminator(b, t);
        }
        for id in func.block(b).insts().to_vec() {
            if let InstKind::Phi { args } = &mut func.inst_mut(id).kind {
                for (p, _) in args.iter_mut() {
                    if *p == entry {
                        *p = moved;
                    }
                }
            }
        }
    }
    func.set_terminator(entry, Terminator::Jump(moved));
    Some(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcd_ir::{predecessors, verify_function, CmpOp, FunctionBuilder, Type};

    #[test]
    fn looping_entry_is_split() {
        // entry: c = cmp; br c, entry, exit  — entry is its own predecessor.
        let mut b = FunctionBuilder::new("l", vec![Type::Int], None);
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.compare(CmpOp::Lt, x, zero);
        let exit = b.new_block();
        let entry = b.current_block();
        b.branch(c, entry, exit);
        b.switch_to_block(exit);
        b.ret(None);
        let mut f = b.finish().unwrap();

        let moved = split_looping_entry(&mut f).expect("split happened");
        verify_function(&f, None).unwrap();
        assert_eq!(successors(&f, f.entry()).as_slice(), [moved]);
        assert!(predecessors(&f)[f.entry().index()].is_empty());
        // The loop edge now targets the moved block.
        assert!(successors(&f, moved).contains(&moved));
        // Idempotent.
        assert_eq!(split_looping_entry(&mut f), None);
    }

    #[test]
    fn splits_branch_into_join() {
        // entry --(branch)--> {a, join}; a -> join.  Edge entry→join is critical.
        let mut b = FunctionBuilder::new("s", vec![Type::Int], Some(Type::Int));
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.compare(CmpOp::Lt, x, zero);
        let a = b.new_block();
        let join = b.new_block();
        b.branch(c, a, join);
        b.switch_to_block(a);
        b.jump(join);
        b.switch_to_block(join);
        let m = b.phi(vec![(a, zero), (b.func().entry(), x)]);
        b.ret(Some(m));
        let mut f = b.finish().unwrap();

        assert_eq!(split_critical_edges(&mut f), 1);
        verify_function(&f, None).unwrap();
        // The entry's else-successor is now a fresh block that jumps to join.
        let succs = successors(&f, f.entry());
        assert_eq!(succs[0], a);
        let edge_block = succs[1];
        assert_ne!(edge_block, join);
        assert_eq!(successors(&f, edge_block).as_slice(), [join]);
        // Re-splitting does nothing.
        assert_eq!(split_critical_edges(&mut f), 0);
    }

    #[test]
    fn splits_both_edges_of_same_target_branch() {
        let mut b = FunctionBuilder::new("s", vec![Type::Bool], None);
        let c = b.param(0);
        let t = b.new_block();
        b.branch(c, t, t);
        b.switch_to_block(t);
        b.ret(None);
        let mut f = b.finish().unwrap();
        assert_eq!(split_critical_edges(&mut f), 2);
        verify_function(&f, None).unwrap();
        let succs = successors(&f, f.entry());
        assert_ne!(succs[0], succs[1]);
        assert_eq!(successors(&f, succs[0]).as_slice(), [t]);
        assert_eq!(successors(&f, succs[1]).as_slice(), [t]);
    }

    #[test]
    fn loop_backedge_from_branch_is_split() {
        // head -> {body, exit}; body -> head (head has preds entry+body).
        let mut b = FunctionBuilder::new("l", vec![Type::Bool], None);
        let c = b.param(0);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(head);
        b.switch_to_block(head);
        b.branch(c, body, exit);
        b.switch_to_block(body);
        b.jump(head);
        b.switch_to_block(exit);
        b.ret(None);
        let mut f = b.finish().unwrap();
        // No critical edges: head→body (body has 1 pred), head→exit (1 pred).
        assert_eq!(split_critical_edges(&mut f), 0);
    }
}
