//! Control-flow-graph utilities: successors, predecessors, traversal orders.

use crate::entities::Block;
use crate::function::Function;
use crate::inst::Terminator;
use std::fmt;
use std::ops::Deref;

/// The successor blocks of one block — none, one or two — held inline, so
/// asking for them never allocates. Derefs to a slice in terminator order
/// (then-destination before else-destination).
#[derive(Clone, Copy)]
pub struct Successors {
    blocks: [Block; 2],
    len: u8,
}

impl Successors {
    /// The successors as a slice.
    pub fn as_slice(&self) -> &[Block] {
        &self.blocks[..usize::from(self.len)]
    }
}

impl Deref for Successors {
    type Target = [Block];

    fn deref(&self) -> &[Block] {
        self.as_slice()
    }
}

impl IntoIterator for Successors {
    type Item = Block;
    type IntoIter = std::iter::Take<std::array::IntoIter<Block, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().take(usize::from(self.len))
    }
}

impl PartialEq for Successors {
    fn eq(&self, other: &Successors) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Successors {}

impl fmt::Debug for Successors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// The successor blocks of `b`, in terminator order
/// (then-destination before else-destination).
pub fn successors(func: &Function, b: Block) -> Successors {
    match func.block(b).terminator_opt() {
        None | Some(Terminator::Return(_)) => Successors {
            blocks: [b, b],
            len: 0,
        },
        Some(Terminator::Jump(d)) => Successors {
            blocks: [*d, *d],
            len: 1,
        },
        Some(Terminator::Branch {
            then_dst, else_dst, ..
        }) => Successors {
            blocks: [*then_dst, *else_dst],
            len: 2,
        },
    }
}

/// The predecessor lists of every block, indexed by block.
///
/// A block appears twice in a predecessor list if both edges of a branch
/// target it; SSA φ-argument handling relies on such edges having been split
/// (see the critical-edge splitter in `abcd-ssa`).
pub fn predecessors(func: &Function) -> Vec<Vec<Block>> {
    let mut preds = vec![Vec::new(); func.block_count()];
    for b in func.blocks() {
        for s in successors(func, b) {
            preds[s.index()].push(b);
        }
    }
    preds
}

/// Blocks in postorder of a depth-first traversal from the entry.
/// Unreachable blocks are omitted.
pub fn postorder(func: &Function) -> Vec<Block> {
    let mut order = Vec::with_capacity(func.block_count());
    let mut state = vec![0u8; func.block_count()]; // 0 unvisited, 1 on stack, 2 done
    let mut stack = vec![(func.entry(), 0usize)];
    state[func.entry().index()] = 1;
    while let Some(&mut (b, ref mut next)) = stack.last_mut() {
        let succs = successors(func, b);
        if *next < succs.len() {
            let s = succs[*next];
            *next += 1;
            if state[s.index()] == 0 {
                state[s.index()] = 1;
                stack.push((s, 0));
            }
        } else {
            state[b.index()] = 2;
            order.push(b);
            stack.pop();
        }
    }
    order
}

/// Blocks in reverse postorder from the entry (a topological order for
/// acyclic CFGs; the standard iteration order for forward dataflow).
pub fn reverse_postorder(func: &Function) -> Vec<Block> {
    let mut order = postorder(func);
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Type;

    /// Builds the diamond CFG `entry → {a, b} → exit`.
    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d", vec![Type::Bool], None);
        let cond = b.param(0);
        let t = b.new_block();
        let e = b.new_block();
        let exit = b.new_block();
        b.branch(cond, t, e);
        b.switch_to_block(t);
        b.jump(exit);
        b.switch_to_block(e);
        b.jump(exit);
        b.switch_to_block(exit);
        b.ret(None);
        b.finish().unwrap()
    }

    #[test]
    fn diamond_preds_and_succs() {
        let f = diamond();
        let entry = f.entry();
        assert_eq!(successors(&f, entry).len(), 2);
        let preds = predecessors(&f);
        // exit is block 3 and has two predecessors.
        assert_eq!(preds[3].len(), 2);
        assert_eq!(preds[entry.index()].len(), 0);
    }

    #[test]
    fn rpo_starts_at_entry_and_ends_at_exit() {
        let f = diamond();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], f.entry());
        assert_eq!(*rpo.last().unwrap(), Block::new(3));
    }

    #[test]
    fn unreachable_blocks_are_omitted() {
        let mut b = FunctionBuilder::new("u", vec![], None);
        b.ret(None);
        let dead = b.new_block();
        b.switch_to_block(dead);
        b.ret(None);
        let f = b.finish().unwrap();
        assert_eq!(postorder(&f).len(), 1);
    }

    #[test]
    fn postorder_handles_loops() {
        // entry -> head; head -> body|exit; body -> head
        let mut b = FunctionBuilder::new("l", vec![Type::Bool], None);
        let cond = b.param(0);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(head);
        b.switch_to_block(head);
        b.branch(cond, body, exit);
        b.switch_to_block(body);
        b.jump(head);
        b.switch_to_block(exit);
        b.ret(None);
        let f = b.finish().unwrap();
        let po = postorder(&f);
        assert_eq!(po.len(), 4);
        // entry is last in postorder.
        assert_eq!(*po.last().unwrap(), f.entry());
    }
}
