//! Dominator trees and dominance frontiers.
//!
//! Uses the Cooper–Harvey–Kennedy "engineered" iterative algorithm
//! (*A Simple, Fast Dominance Algorithm*, 2001), which the original Cytron
//! et al. SSA construction the ABCD paper cites ([CFR+91]) predates but is
//! equivalent to and simpler than Lengauer–Tarjan at compiler-IR sizes.
//!
//! Every table is a flat, block-indexed `Vec` that [`DomTree::recompute`]
//! and the frontier computation refill in place, so a tree reused across
//! functions stops allocating once it has seen the largest one.

use abcd_ir::{successors, Block, Function};

/// Marks an unreachable block in the dense tables.
const NONE: u32 = u32::MAX;
/// Marks a block the depth-first walk has entered but not finished.
const OPEN: u32 = u32::MAX - 1;

/// The dominator tree of a function's CFG.
///
/// Only reachable blocks participate; queries about unreachable blocks
/// return `None`/`false`.
#[derive(Clone, Debug, Default)]
pub struct DomTree {
    /// Immediate dominator per block (entry's idom is itself; `NONE` when
    /// unreachable).
    idom: Vec<u32>,
    /// Blocks in reverse postorder.
    rpo: Vec<Block>,
    /// Position of each block in `rpo` (`NONE` when unreachable).
    rpo_index: Vec<u32>,
    /// Children in the dominator tree: block `b`'s are
    /// `child_list[child_start[b]..child_start[b + 1]]`, in reverse
    /// postorder.
    child_start: Vec<u32>,
    child_list: Vec<Block>,
    /// Depth in the dominator tree (entry = 0).
    depth: Vec<u32>,
    /// Construction scratch: predecessors among reachable blocks, in the
    /// same sliced layout as the children.
    pred_start: Vec<u32>,
    pred_list: Vec<Block>,
    /// Construction scratch: the depth-first walk's stack.
    stack: Vec<(Block, u8)>,
}

impl DomTree {
    /// Computes the dominator tree of `func`.
    pub fn compute(func: &Function) -> DomTree {
        let mut tree = DomTree::default();
        tree.recompute(func);
        tree
    }

    /// Recomputes the tree for `func` in place, reusing every table.
    pub(crate) fn recompute(&mut self, func: &Function) {
        let n = func.block_count();
        let entry = func.entry();
        self.compute_rpo(func);

        // Predecessor slices over reachable blocks (an edge from an
        // unreachable block never constrains a dominator).
        let rpo = &self.rpo;
        fill_slices(&mut self.pred_start, &mut self.pred_list, n, || {
            rpo.iter()
                .flat_map(|&p| successors(func, p).into_iter().map(move |s| (s.index(), p)))
        });

        reset(&mut self.idom, n, NONE);
        self.idom[entry.index()] = entry.index() as u32;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in self.rpo.iter().skip(1) {
                // First processed predecessor.
                let mut new_idom = NONE;
                let preds = &self.pred_list[slice(&self.pred_start, b)];
                for &p in preds {
                    if self.idom[p.index()] == NONE {
                        continue;
                    }
                    new_idom = if new_idom == NONE {
                        p.index() as u32
                    } else {
                        intersect(&self.idom, &self.rpo_index, p.index() as u32, new_idom)
                    };
                }
                if new_idom != NONE && self.idom[b.index()] != new_idom {
                    self.idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }

        // Children in reverse postorder; every idom precedes the blocks it
        // dominates there, so one pass fills the depths.
        let (rpo, idom) = (&self.rpo, &self.idom);
        fill_slices(&mut self.child_start, &mut self.child_list, n, || {
            rpo[1..].iter().map(|&b| (idom[b.index()] as usize, b))
        });
        reset(&mut self.depth, n, 0);
        for &b in &self.rpo[1..] {
            self.depth[b.index()] = self.depth[self.idom[b.index()] as usize] + 1;
        }
    }

    /// Fills `rpo` and `rpo_index` by the same depth-first walk as
    /// [`abcd_ir::postorder`], so blocks come out in the same order.
    fn compute_rpo(&mut self, func: &Function) {
        let entry = func.entry();
        reset(&mut self.rpo_index, func.block_count(), NONE);
        self.rpo.clear();
        self.stack.clear();
        self.stack.push((entry, 0));
        self.rpo_index[entry.index()] = OPEN;
        while let Some(&mut (b, ref mut next)) = self.stack.last_mut() {
            let succs = successors(func, b);
            if usize::from(*next) < succs.len() {
                let s = succs[usize::from(*next)];
                *next += 1;
                if self.rpo_index[s.index()] == NONE {
                    self.rpo_index[s.index()] = OPEN;
                    self.stack.push((s, 0));
                }
            } else {
                self.rpo.push(b);
                self.stack.pop();
            }
        }
        self.rpo.reverse();
        for (i, b) in self.rpo.iter().enumerate() {
            self.rpo_index[b.index()] = i as u32;
        }
    }

    /// The number of blocks the tree was computed over.
    pub(crate) fn block_count(&self) -> usize {
        self.idom.len()
    }

    /// The immediate dominator of `b` (`None` for the entry block or
    /// unreachable blocks).
    pub fn idom(&self, b: Block) -> Option<Block> {
        match self.idom[b.index()] {
            p if p == NONE || p as usize == b.index() => None,
            p => Some(Block::new(p as usize)),
        }
    }

    /// Returns `true` if `b` is reachable from the entry.
    pub fn is_reachable(&self, b: Block) -> bool {
        self.idom[b.index()] != NONE
    }

    /// Returns `true` if `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: Block, b: Block) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let mut cur = b.index();
        while self.depth[cur] > self.depth[a.index()] {
            cur = self.idom[cur] as usize;
        }
        cur == a.index()
    }

    /// Returns `true` if `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: Block, b: Block) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Blocks in reverse postorder (reachable only).
    pub fn rpo(&self) -> &[Block] {
        &self.rpo
    }

    /// Children of `b` in the dominator tree.
    pub fn children(&self, b: Block) -> &[Block] {
        &self.child_list[slice(&self.child_start, b)]
    }

    /// A preorder walk of the dominator tree from the entry.
    pub fn preorder(&self) -> Vec<Block> {
        let entry = self.rpo[0];
        let mut out = Vec::with_capacity(self.rpo.len());
        let mut stack = vec![entry];
        while let Some(b) = stack.pop() {
            out.push(b);
            for &c in self.children(b) {
                stack.push(c);
            }
        }
        out
    }

    /// The dominance frontier of every block.
    ///
    /// `DF(b)` is the set of blocks `y` such that `b` dominates a predecessor
    /// of `y` but does not strictly dominate `y` — the classic φ-placement
    /// set of Cytron et al.
    pub fn dominance_frontiers(&self, func: &Function) -> Vec<Vec<Block>> {
        let mut df = Frontiers::default();
        df.recompute(self, func);
        func.blocks().map(|b| df.of(b).to_vec()).collect()
    }
}

fn intersect(idom: &[u32], rpo_index: &[u32], a: u32, b: u32) -> u32 {
    let mut x = a;
    let mut y = b;
    while x != y {
        while rpo_index[x as usize] > rpo_index[y as usize] {
            x = idom[x as usize];
        }
        while rpo_index[y as usize] > rpo_index[x as usize] {
            y = idom[y as usize];
        }
    }
    x
}

/// Clears `v` and refills it with `len` copies of `value`, keeping its
/// capacity.
pub(crate) fn reset<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// Refills a sliced table over `keys` keys: `list[starts[k]..starts[k + 1]]`
/// holds, in order, the items `entries` yields under key `k`. `entries` is
/// called twice, once to count and once to fill.
fn fill_slices<I: Iterator<Item = (usize, Block)>>(
    starts: &mut Vec<u32>,
    list: &mut Vec<Block>,
    keys: usize,
    entries: impl Fn() -> I,
) {
    reset(starts, keys + 1, 0);
    for (k, _) in entries() {
        starts[k + 1] += 1;
    }
    for k in 1..=keys {
        starts[k] += starts[k - 1];
    }
    reset(list, starts[keys] as usize, Block::new(0));
    for (k, item) in entries() {
        list[starts[k] as usize] = item;
        starts[k] += 1;
    }
    // Each start advanced to its slice's end, the next slice's start.
    starts.copy_within(0..keys, 1);
    starts[0] = 0;
}

/// Block `b`'s range in a sliced table.
fn slice(starts: &[u32], b: Block) -> std::ops::Range<usize> {
    starts[b.index()] as usize..starts[b.index() + 1] as usize
}

/// The dominance frontiers of every block, as sorted slices of one flat
/// table that [`Frontiers::recompute`] refills in place.
#[derive(Debug, Default)]
pub(crate) struct Frontiers {
    start: Vec<u32>,
    list: Vec<Block>,
    /// Construction scratch: `(block, frontier member)` pairs.
    pairs: Vec<(Block, Block)>,
}

impl Frontiers {
    /// Recomputes the frontiers of `func`, whose dominator tree is `dt`.
    pub(crate) fn recompute(&mut self, dt: &DomTree, func: &Function) {
        let n = func.block_count();
        let entry = func.entry();
        self.pairs.clear();
        // Every CFG edge p → b out of a reachable block: walk p's dominator
        // chain, adding b until (exclusively) idom(b). The entry block has
        // no strict dominators, so for b == entry the walk runs to the root
        // — which makes a self-looping entry a member of its own frontier,
        // a corner the classic `runner != idom[b]` loop misses because of
        // the `idom(entry) = entry` sentinel.
        for &p in dt.rpo() {
            for b in successors(func, p) {
                let mut runner = p;
                loop {
                    if b != entry && Some(runner) == dt.idom(b) {
                        break;
                    }
                    self.pairs.push((runner, b));
                    if runner == entry {
                        break;
                    }
                    runner = dt
                        .idom(runner)
                        .expect("reachable non-entry block has an idom");
                }
            }
        }
        self.pairs.sort_unstable();
        self.pairs.dedup();
        let pairs = &self.pairs;
        fill_slices(&mut self.start, &mut self.list, n, || {
            pairs.iter().map(|&(runner, b)| (runner.index(), b))
        });
    }

    /// `DF(b)`, sorted.
    pub(crate) fn of(&self, b: Block) -> &[Block] {
        &self.list[slice(&self.start, b)]
    }
}

/// Mark arrays and the worklist for [`iterated_frontier_into`], kept
/// cleared between calls.
#[derive(Debug, Default)]
pub(crate) struct IdfScratch {
    placed: Vec<bool>,
    is_def: Vec<bool>,
    work: Vec<Block>,
}

/// The iterated dominance frontier of a set of blocks — where φs must be
/// placed for a variable defined in exactly those blocks.
pub fn iterated_dominance_frontier(df: &[Vec<Block>], defs: &[Block]) -> Vec<Block> {
    let mut flat = Frontiers::default();
    flat.start.push(0);
    for members in df {
        flat.list.extend_from_slice(members);
        flat.start.push(flat.list.len() as u32);
    }
    let mut out = Vec::new();
    iterated_frontier_into(&flat, defs, &mut IdfScratch::default(), &mut out);
    out
}

/// Writes the iterated dominance frontier of `defs` into `out`, sorted.
pub(crate) fn iterated_frontier_into(
    df: &Frontiers,
    defs: &[Block],
    scratch: &mut IdfScratch,
    out: &mut Vec<Block>,
) {
    let n = df.start.len() - 1;
    if scratch.placed.len() < n {
        scratch.placed.resize(n, false);
        scratch.is_def.resize(n, false);
    }
    out.clear();
    scratch.work.clear();
    for &d in defs {
        scratch.is_def[d.index()] = true;
        scratch.work.push(d);
    }
    while let Some(b) = scratch.work.pop() {
        for &y in df.of(b) {
            if !scratch.placed[y.index()] {
                scratch.placed[y.index()] = true;
                out.push(y);
                if !scratch.is_def[y.index()] {
                    scratch.work.push(y);
                }
            }
        }
    }
    for &d in defs {
        scratch.is_def[d.index()] = false;
    }
    for &y in out.iter() {
        scratch.placed[y.index()] = false;
    }
    out.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcd_ir::{FunctionBuilder, Type};

    /// The classic CFG from the Cooper–Harvey–Kennedy paper (Fig. 4),
    /// adapted: 0 → {1,2}; 1 → 3; 2 → {3,4}; 3 → 5; 4 → 5; 5 exits.
    fn chk_cfg() -> Function {
        let mut b = FunctionBuilder::new("chk", vec![Type::Bool], None);
        let c = b.param(0);
        let bb: Vec<_> = (0..5).map(|_| b.new_block()).collect();
        // entry = bb0 of function; named blocks are bb[0]..bb[4] = 1..5
        b.branch(c, bb[0], bb[1]);
        b.switch_to_block(bb[0]); // 1
        b.jump(bb[2]);
        b.switch_to_block(bb[1]); // 2
        b.branch(c, bb[2], bb[3]);
        b.switch_to_block(bb[2]); // 3
        b.jump(bb[4]);
        b.switch_to_block(bb[3]); // 4
        b.jump(bb[4]);
        b.switch_to_block(bb[4]); // 5
        b.ret(None);
        b.finish().unwrap()
    }

    #[test]
    fn idoms_of_diamondish_cfg() {
        let f = chk_cfg();
        let dt = DomTree::compute(&f);
        let e = f.entry();
        // Blocks 1..=5 in creation order are Block 1..=5.
        assert_eq!(dt.idom(Block::new(1)), Some(e));
        assert_eq!(dt.idom(Block::new(2)), Some(e));
        assert_eq!(dt.idom(Block::new(3)), Some(e)); // joined from 1 and 2
        assert_eq!(dt.idom(Block::new(4)), Some(Block::new(2)));
        assert_eq!(dt.idom(Block::new(5)), Some(e));
        assert!(dt.dominates(e, Block::new(5)));
        assert!(dt.dominates(Block::new(3), Block::new(3)));
        assert!(!dt.strictly_dominates(Block::new(3), Block::new(3)));
        assert!(!dt.dominates(Block::new(2), Block::new(3)));
    }

    #[test]
    fn frontiers_of_diamondish_cfg() {
        let f = chk_cfg();
        let dt = DomTree::compute(&f);
        let df = dt.dominance_frontiers(&f);
        assert_eq!(df[Block::new(1).index()], vec![Block::new(3)]);
        assert_eq!(
            df[Block::new(2).index()],
            vec![Block::new(3), Block::new(5)]
        );
        assert_eq!(df[Block::new(4).index()], vec![Block::new(5)]);
        assert_eq!(df[f.entry().index()], Vec::<Block>::new());
    }

    #[test]
    fn loop_dominators() {
        // entry → head; head → {body, exit}; body → head.
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
        let f = b.finish().unwrap();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(head), Some(f.entry()));
        assert_eq!(dt.idom(body), Some(head));
        assert_eq!(dt.idom(exit), Some(head));
        // The loop head is in the frontier of the body (back edge) and of itself.
        let df = dt.dominance_frontiers(&f);
        assert_eq!(df[body.index()], vec![head]);
        assert_eq!(df[head.index()], vec![head]);
    }

    #[test]
    fn iterated_frontier_propagates() {
        let f = chk_cfg();
        let dt = DomTree::compute(&f);
        let df = dt.dominance_frontiers(&f);
        // A def in block 4 forces φ at 5 only.
        assert_eq!(
            iterated_dominance_frontier(&df, &[Block::new(4)]),
            vec![Block::new(5)]
        );
        // A def in block 1 forces φ at 3, and then (since 3's DF is {5}) at 5.
        assert_eq!(
            iterated_dominance_frontier(&df, &[Block::new(1)]),
            vec![Block::new(3), Block::new(5)]
        );
    }

    #[test]
    fn unreachable_blocks_are_not_dominated() {
        let mut b = FunctionBuilder::new("u", vec![], None);
        b.ret(None);
        let dead = b.new_block();
        b.switch_to_block(dead);
        b.ret(None);
        let f = b.finish().unwrap();
        let dt = DomTree::compute(&f);
        assert!(!dt.is_reachable(dead));
        assert!(!dt.dominates(f.entry(), dead));
        assert_eq!(dt.idom(dead), None);
    }

    #[test]
    fn preorder_visits_all_reachable() {
        let f = chk_cfg();
        let dt = DomTree::compute(&f);
        let pre = dt.preorder();
        assert_eq!(pre.len(), 6);
        assert_eq!(pre[0], f.entry());
    }
}
