//! Backward liveness of local slots, used to prune φ-placement.
//!
//! Semi-pruned SSA construction only places a φ for a local at a join where
//! the local is live-in; this analysis provides the live-in sets.

use abcd_ir::{Block, Function, InstKind, Local};

/// Per-block live-in information for locals, one bit row per block.
#[derive(Clone, Debug, Default)]
pub struct LocalLiveness {
    /// `u64` words per row.
    words: usize,
    /// Row `b` is the live-in set of block `b`.
    live_in: Vec<u64>,
    /// Dataflow scratch, kept for reuse: live-out, upward-exposed uses
    /// (gen) and definitions (kill) per block.
    live_out: Vec<u64>,
    gen: Vec<u64>,
    kill: Vec<u64>,
}

impl LocalLiveness {
    /// Computes liveness of all locals via iterative backward dataflow.
    pub fn compute(func: &Function) -> LocalLiveness {
        let mut live = LocalLiveness::default();
        live.recompute(func);
        live
    }

    /// Recomputes liveness for `func` in place, reusing every row.
    pub(crate) fn recompute(&mut self, func: &Function) {
        let words = func.local_count().div_ceil(64);
        let len = func.block_count() * words;
        self.words = words;
        for rows in [&mut self.gen, &mut self.kill, &mut self.live_out] {
            crate::dom::reset(rows, len, 0);
        }
        for b in func.blocks() {
            let row = b.index() * words;
            for &id in func.block(b).insts() {
                match &func.inst(id).kind {
                    InstKind::GetLocal { local } => {
                        let (w, bit) = (row + local.index() / 64, 1u64 << (local.index() % 64));
                        if self.kill[w] & bit == 0 {
                            self.gen[w] |= bit;
                        }
                    }
                    InstKind::SetLocal { local, .. } => {
                        self.kill[row + local.index() / 64] |= 1u64 << (local.index() % 64);
                    }
                    _ => {}
                }
            }
        }

        self.live_in.clear();
        self.live_in.extend_from_slice(&self.gen);
        let mut changed = true;
        while changed {
            changed = false;
            // Backward problem: iterate in reverse block order (any order
            // converges; reverse tends to converge fast).
            for b in func.blocks().rev() {
                let row = b.index() * words;
                for s in abcd_ir::successors(func, b) {
                    let succ = s.index() * words;
                    for w in 0..words {
                        self.live_out[row + w] |= self.live_in[succ + w];
                    }
                }
                for w in row..row + words {
                    let v = self.gen[w] | (self.live_out[w] & !self.kill[w]);
                    if v != self.live_in[w] {
                        self.live_in[w] = v;
                        changed = true;
                    }
                }
            }
        }
    }

    /// Is local `l` live at the entry of block `b`?
    pub fn is_live_in(&self, b: Block, l: Local) -> bool {
        let w = b.index() * self.words + l.index() / 64;
        self.live_in[w] & (1u64 << (l.index() % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcd_ir::{CmpOp, FunctionBuilder, Type};

    #[test]
    fn loop_variable_is_live_at_head() {
        // i = 0; while (i < n) { i = i + 1 }  — i live-in at head and body.
        let mut b = FunctionBuilder::new("f", vec![Type::Int], None);
        let n = b.param(0);
        let i = b.new_local(Type::Int);
        let zero = b.iconst(0);
        b.set_local(i, zero);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(head);
        b.switch_to_block(head);
        let iv = b.get_local(i);
        let c = b.compare(CmpOp::Lt, iv, n);
        b.branch(c, body, exit);
        b.switch_to_block(body);
        let iv2 = b.get_local(i);
        let one = b.iconst(1);
        let inc = b.binary(abcd_ir::BinOp::Add, iv2, one);
        b.set_local(i, inc);
        b.jump(head);
        b.switch_to_block(exit);
        b.ret(None);
        let f = b.finish().unwrap();

        let lv = LocalLiveness::compute(&f);
        assert!(lv.is_live_in(head, i));
        assert!(lv.is_live_in(body, i));
        assert!(!lv.is_live_in(f.entry(), i)); // defined before use in entry
        assert!(!lv.is_live_in(exit, i));
    }

    #[test]
    fn dead_after_last_use() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        let l = b.new_local(Type::Int);
        let c = b.iconst(1);
        b.set_local(l, c);
        let next = b.new_block();
        b.jump(next);
        b.switch_to_block(next);
        b.ret(None);
        let f = b.finish().unwrap();
        let lv = LocalLiveness::compute(&f);
        assert!(!lv.is_live_in(next, l));
    }
}
