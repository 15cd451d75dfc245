//! Reusable storage for the cleanup passes.
//!
//! [`CleanupScratch`] owns every table value numbering, dead-code
//! elimination and load congruence need — the scoped expression table and
//! its undo log, the dominator-tree walk stack, the dense rename and use
//! tables, the dead marks — and refills them in place for each function. A
//! scratch reused across functions stops allocating once it has seen the
//! largest one. The congruence-leader table travels with the
//! [`GvnResult`] it fills and comes back through
//! [`recycle`](CleanupScratch::recycle).
//!
//! The free functions ([`cleanup`](crate::cleanup),
//! [`value_number`](crate::value_number),
//! [`eliminate_dead_code`](crate::eliminate_dead_code),
//! [`record_load_congruence`](crate::record_load_congruence)) run the same
//! code on a fresh scratch.

use crate::gvn::{ExprKey, GvnResult, Step};
use abcd_ir::{Block, Fnv1a, Function, InstId, Value};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// A hash map keyed by small, `Copy` keys, hashed with FNV-1a.
pub(crate) type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv1a>>;

/// Reusable tables for the cleanup passes, carried across functions.
#[derive(Debug, Default)]
pub struct CleanupScratch {
    /// Value numbering's scoped table of available expressions.
    pub(crate) exprs: FnvMap<ExprKey, Value>,
    /// The keys each open dominator-tree scope inserted, innermost last.
    pub(crate) undo: Vec<ExprKey>,
    pub(crate) walk: Vec<Step>,
    /// Per value: the value its uses are rewritten to.
    pub(crate) rename: Vec<Value>,
    /// Load congruence's table of the current block's loads.
    pub(crate) loads: FnvMap<(Value, Value), Value>,
    /// Per value: its number of uses (dead-code elimination).
    pub(crate) uses: Vec<u32>,
    /// Per instruction: the block it is linked into, `NONE` if unlinked.
    pub(crate) home: Vec<u32>,
    pub(crate) worklist: Vec<InstId>,
    pub(crate) unlink: Unlinker,
    /// A leader table handed back by [`recycle`](CleanupScratch::recycle).
    spare_leaders: Vec<Value>,
}

/// Marks an unlinked instruction in [`CleanupScratch`]'s `home` table.
pub(crate) const NONE: u32 = u32::MAX;

impl CleanupScratch {
    /// A fresh, empty scratch.
    pub fn new() -> CleanupScratch {
        CleanupScratch::default()
    }

    /// A congruence result for `func` in which every value is its own
    /// leader, on the spare leader table if there is one.
    pub(crate) fn fresh_result(&mut self, func: &Function) -> GvnResult {
        let mut leader = std::mem::take(&mut self.spare_leaders);
        leader.clear();
        leader.extend(func.values());
        GvnResult::with_table(leader)
    }

    /// Takes back the leader table of a [`GvnResult`] the caller is done
    /// with, so the next function's result reuses it.
    pub fn recycle(&mut self, gvn: GvnResult) {
        let table = gvn.into_table();
        if table.capacity() > self.spare_leaders.capacity() {
            self.spare_leaders = table;
        }
    }

    /// Unlinks every listed `(block, instruction)` from `func`, filtering
    /// each touched block once (instead of one linear search per
    /// instruction).
    pub fn unlink_insts(
        &mut self,
        func: &mut Function,
        insts: impl IntoIterator<Item = (Block, InstId)>,
    ) {
        self.unlink.reset(func);
        for (b, id) in insts {
            self.unlink.mark(b, id);
        }
        self.unlink.sweep(func);
    }
}

/// Dead marks per instruction plus the blocks that hold marked ones: the
/// marked instructions leave their blocks in one `retain_insts` filter per
/// touched block.
#[derive(Debug, Default)]
pub(crate) struct Unlinker {
    dead: Vec<bool>,
    dirty: Vec<Block>,
}

impl Unlinker {
    /// Clears every mark, sized for `func`.
    pub(crate) fn reset(&mut self, func: &Function) {
        self.dead.clear();
        self.dead.resize(func.inst_count(), false);
        self.dirty.clear();
    }

    /// Marks `id`, linked into block `b`, for removal.
    pub(crate) fn mark(&mut self, b: Block, id: InstId) {
        self.dead[id.index()] = true;
        if self.dirty.last() != Some(&b) {
            self.dirty.push(b);
        }
    }

    /// Whether `id` is marked.
    pub(crate) fn is_marked(&self, id: InstId) -> bool {
        self.dead[id.index()]
    }

    /// Unlinks every marked instruction.
    pub(crate) fn sweep(&mut self, func: &mut Function) {
        self.dirty.sort_unstable();
        self.dirty.dedup();
        let dead = &self.dead;
        for &b in &self.dirty {
            func.retain_insts(b, |id| !dead[id.index()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcd_ir::{FunctionBuilder, Type};

    #[test]
    fn unlink_insts_keeps_the_order_of_the_rest() {
        let mut b = FunctionBuilder::new("f", vec![], Some(Type::Int));
        let consts: Vec<Value> = (0..4).map(|c| b.iconst(c)).collect();
        let next = b.new_block();
        b.jump(next);
        b.switch_to_block(next);
        b.iconst(9);
        b.ret(Some(consts[1]));
        let mut f = b.finish().unwrap();
        let entry = f.entry();
        let ids = f.block(entry).insts().to_vec();
        let tail = f.block(next).insts()[0];
        let mut scratch = CleanupScratch::new();
        scratch.unlink_insts(&mut f, [(next, tail), (entry, ids[2]), (entry, ids[0])]);
        assert_eq!(f.block(entry).insts(), &[ids[1], ids[3]]);
        assert!(f.block(next).insts().is_empty());
    }
}
