//! Reusable storage for SSA and e-SSA construction.
//!
//! [`SsaScratch`] owns every table the pipeline needs — the dominator tree,
//! frontiers, liveness rows, the per-instruction φ table and the rename
//! tables — as dense, index-keyed `Vec`s that each function refills in
//! place. A scratch reused across functions stops allocating once it has
//! seen the largest one; what still allocates is the IR itself (new
//! instructions, edge blocks, φ argument lists).
//!
//! The free functions ([`split_critical_edges`](crate::split_critical_edges),
//! [`promote_locals`](crate::promote_locals),
//! [`insert_pi_nodes`](crate::insert_pi_nodes)) run the same code on a
//! fresh scratch.

use crate::dom::{reset, DomTree, Frontiers, IdfScratch};
use crate::liveness::LocalLiveness;
use crate::split::{normalize_cfg, split_looping_entry};
use abcd_ir::{Block, Function, Local, Value};

/// Marks an empty slot in the dense tables.
pub(crate) const NONE: u32 = u32::MAX;

/// Reusable tables for SSA and e-SSA construction, carried across
/// functions.
///
/// One function's pipeline is [`normalize`](SsaScratch::normalize), then
/// [`promote_locals`](SsaScratch::promote_locals) and
/// [`insert_pi_nodes`](SsaScratch::insert_pi_nodes). `normalize` builds the function's one
/// dominator tree; the later steps and any caller of
/// [`dom_tree`](SsaScratch::dom_tree) share it, since nothing after
/// normalization changes the reachable CFG. A step run without `normalize`
/// first splits a looping entry and builds the tree itself.
#[derive(Debug, Default)]
pub struct SsaScratch {
    pub(crate) tree: DomTree,
    /// Whether `tree` describes the function being built.
    pub(crate) tree_current: bool,
    pub(crate) pred_count: Vec<u32>,
    pub(crate) live: LocalLiveness,
    pub(crate) frontiers: Frontiers,
    pub(crate) idf: IdfScratch,
    /// `(local, block)` for every block that writes the local.
    pub(crate) defs: Vec<(Local, Block)>,
    /// One local's definition blocks, then its φ blocks.
    pub(crate) def_blocks: Vec<Block>,
    pub(crate) phi_blocks: Vec<Block>,
    /// Per instruction: the local a placed φ defines, `PROMOTED` for a
    /// `get_local`/`set_local` to unlink, `NONE` otherwise.
    pub(crate) inst_tag: Vec<u32>,
    /// Per value: the value a `get_local` result is renamed to (mem2reg),
    /// or the family root of a π result (e-SSA).
    pub(crate) value_map: Vec<u32>,
    pub(crate) table: ScopedTable,
    /// Blocks holding instructions to unlink.
    pub(crate) dirty: Vec<Block>,
}

impl SsaScratch {
    /// A fresh, empty scratch.
    pub fn new() -> SsaScratch {
        SsaScratch::default()
    }

    /// Normalizes `func`'s CFG (see
    /// [`split_critical_edges`](crate::split_critical_edges)) and builds its
    /// dominator tree, which the later steps share. Returns the number of
    /// critical edges split.
    pub fn normalize(&mut self, func: &mut Function) -> usize {
        let split = normalize_cfg(func, &mut self.pred_count);
        self.tree.recompute(func);
        self.tree_current = true;
        split
    }

    /// The dominator tree built by the last [`normalize`](Self::normalize)
    /// (or by the first step that needed one). It stays valid for the
    /// function through promotion, cleanup passes that keep the CFG, and π
    /// insertion.
    pub fn dom_tree(&self) -> &DomTree {
        debug_assert!(
            self.tree_current,
            "no dominator tree built for this function"
        );
        &self.tree
    }

    /// Moves the current dominator tree out, for a caller that keeps it
    /// beyond this scratch's next function. Hand it back with
    /// [`put_dom_tree`](Self::put_dom_tree) to reuse its tables.
    pub fn take_dom_tree(&mut self) -> DomTree {
        debug_assert!(
            self.tree_current,
            "no dominator tree built for this function"
        );
        self.tree_current = false;
        std::mem::take(&mut self.tree)
    }

    /// Returns a tree taken with [`take_dom_tree`](Self::take_dom_tree);
    /// only its tables are reused.
    pub fn put_dom_tree(&mut self, tree: DomTree) {
        self.tree = tree;
        self.tree_current = false;
    }

    /// Makes `tree` describe `func`: unless [`normalize`](Self::normalize)
    /// already built it, splits a looping entry and builds it now.
    pub(crate) fn ensure_tree(&mut self, func: &mut Function) {
        if !self.tree_current {
            split_looping_entry(func);
            self.tree.recompute(func);
            self.tree_current = true;
        }
        debug_assert_eq!(self.tree.block_count(), func.block_count());
    }
}

/// One step of an explicit-stack dominator-tree walk.
#[derive(Clone, Copy, Debug)]
enum Step {
    Enter(Block),
    /// Undo the table back to this length of the undo log.
    Exit(usize),
}

/// A dense key → value table whose updates are scoped to the
/// dominator-tree walk: what a block sets is undone once the walk leaves
/// its subtree. This is the rename stack of SSA construction, stored as
/// one current value per key plus an undo log.
#[derive(Debug, Default)]
pub(crate) struct ScopedTable {
    top: Vec<u32>,
    undo: Vec<(u32, u32)>,
    steps: Vec<Step>,
}

impl ScopedTable {
    /// The innermost value set for `key`, if any.
    pub(crate) fn get(&self, key: usize) -> Option<Value> {
        match self.top[key] {
            NONE => None,
            v => Some(Value::new(v as usize)),
        }
    }

    /// Sets `key` to `value` until the walk leaves the current block.
    pub(crate) fn set(&mut self, key: usize, value: Value) {
        self.undo.push((key as u32, self.top[key]));
        self.top[key] = value.index() as u32;
    }

    /// Walks `tree` in preorder from `entry` over an empty table of `keys`
    /// keys, calling `visit` on each block. Children are entered in
    /// reverse of [`DomTree::children`] order.
    pub(crate) fn walk<E>(
        &mut self,
        keys: usize,
        tree: &DomTree,
        entry: Block,
        mut visit: impl FnMut(&mut ScopedTable, Block) -> Result<(), E>,
    ) -> Result<(), E> {
        reset(&mut self.top, keys, NONE);
        self.undo.clear();
        self.steps.clear();
        self.steps.push(Step::Enter(entry));
        while let Some(step) = self.steps.pop() {
            match step {
                Step::Exit(mark) => {
                    for (key, prev) in self.undo.drain(mark..).rev() {
                        self.top[key as usize] = prev;
                    }
                }
                Step::Enter(b) => {
                    let mark = self.undo.len();
                    visit(self, b)?;
                    self.steps.push(Step::Exit(mark));
                    self.steps
                        .extend(tree.children(b).iter().map(|&c| Step::Enter(c)));
                }
            }
        }
        Ok(())
    }
}
