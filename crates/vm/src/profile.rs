//! Execution profiles: edge frequencies and per-site check frequencies.
//!
//! ABCD is demand-driven: the paper applies it to *hot* checks known from
//! profiling, and its PRE extension decides profitability by comparing "the
//! cumulative execution frequency of the insertion points with the frequency
//! of the partially redundant check" (§6.1). This module records exactly
//! those frequencies.
//!
//! The interpreter counts into dense `Counters`: entries into each
//! function, traversals of each CFG edge and executions of each
//! `bounds_check`. It does not count blocks. A block runs once per entry
//! into its function at it and once per traversal of an edge into it, so
//! its count is derived from those when the counters are folded into a
//! [`Profile`].

use abcd_ir::{Block, CheckSite, FuncId, Module, Terminator};
use std::collections::HashMap;

/// Dynamic execution counts gathered by the interpreter.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    edge_counts: HashMap<(FuncId, Block, Block), u64>,
    block_counts: HashMap<(FuncId, Block), u64>,
    site_counts: HashMap<(FuncId, CheckSite), u64>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Executions of CFG edge `from → to` in `func`.
    pub fn edge_count(&self, func: FuncId, from: Block, to: Block) -> u64 {
        self.edge_counts
            .get(&(func, from, to))
            .copied()
            .unwrap_or(0)
    }

    /// Executions of block `block` in `func`.
    pub fn block_count(&self, func: FuncId, block: Block) -> u64 {
        self.block_counts.get(&(func, block)).copied().unwrap_or(0)
    }

    /// Dynamic executions of the `bounds_check` at `site` in `func`.
    /// `spec_check` and `trap_if_flagged` executions carrying the same site
    /// are not counted here; [`ExecStats`](crate::ExecStats) counts them.
    pub fn site_count(&self, func: FuncId, site: CheckSite) -> u64 {
        self.site_counts.get(&(func, site)).copied().unwrap_or(0)
    }

    /// All `(func, site)` pairs with their counts, hottest first — the
    /// "hot bounds checks" work-list a demand-driven dynamic optimizer
    /// starts from.
    pub fn hot_sites(&self) -> Vec<((FuncId, CheckSite), u64)> {
        let mut v: Vec<_> = self.site_counts.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Total `bounds_check` executions recorded.
    pub fn total_site_count(&self) -> u64 {
        self.site_counts.values().sum()
    }

    /// Adds `n` executions to the check at `site` in `func`. Public so
    /// profiles can be reconstructed from serialized counts (the `abcdd`
    /// wire protocol ships profiles as plain count triples).
    pub fn add_site_count(&mut self, func: FuncId, site: CheckSite, n: u64) {
        *self.site_counts.entry((func, site)).or_insert(0) += n;
    }

    /// Adds `n` executions to block `block` of `func` (see
    /// [`Profile::add_site_count`]).
    pub fn add_block_count(&mut self, func: FuncId, block: Block, n: u64) {
        *self.block_counts.entry((func, block)).or_insert(0) += n;
    }

    /// Adds `n` traversals of CFG edge `from → to` in `func` (see
    /// [`Profile::add_site_count`]).
    pub fn add_edge_count(&mut self, func: FuncId, from: Block, to: Block, n: u64) {
        *self.edge_counts.entry((func, from, to)).or_insert(0) += n;
    }

    /// All recorded `((func, site), count)` entries, in hash order — sort
    /// before using where determinism matters.
    pub fn site_entries(&self) -> impl Iterator<Item = ((FuncId, CheckSite), u64)> + '_ {
        self.site_counts.iter().map(|(k, c)| (*k, *c))
    }

    /// All recorded `((func, block), count)` entries, in hash order.
    pub fn block_entries(&self) -> impl Iterator<Item = ((FuncId, Block), u64)> + '_ {
        self.block_counts.iter().map(|(k, c)| (*k, *c))
    }

    /// All recorded `((func, from, to), count)` edge entries, in hash order.
    pub fn edge_entries(&self) -> impl Iterator<Item = ((FuncId, Block, Block), u64)> + '_ {
        self.edge_counts.iter().map(|(k, c)| (*k, *c))
    }

    /// Merges another profile into this one (e.g. across multiple runs).
    pub fn merge(&mut self, other: &Profile) {
        for (k, v) in &other.edge_counts {
            *self.edge_counts.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.block_counts {
            *self.block_counts.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.site_counts {
            *self.site_counts.entry(*k).or_insert(0) += v;
        }
    }
}

/// Where one function's counters start in [`Counters`]: `blocks` holds one
/// count of entries per block (only an entry block's can be nonzero);
/// `edges` two per block, the jump or branch-then slot and
/// the branch-else slot; `sites` one per check site.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Slots {
    blocks: usize,
    edges: usize,
    sites: usize,
}

/// The interpreter's dense profile counters, indexed rather than hashed.
///
/// A function's counters are laid out in one shared buffer the first time
/// it is entered and stay there for the life of the interpreter;
/// [`Counters::fold_into`] moves the nonzero ones into a [`Profile`] and
/// zeroes them, so the profile gains one count per event and never an
/// entry with a zero count.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Per function, where its counters start (`usize::MAX`: not entered).
    start: Vec<usize>,
    /// Functions entered so far, in first-entry order.
    entered: Vec<FuncId>,
    counts: Vec<u64>,
}

impl Counters {
    /// The counter slots of `id`, laid out on its first entry.
    pub(crate) fn slots(&mut self, module: &Module, id: FuncId) -> Slots {
        if self.start.is_empty() {
            self.start = vec![usize::MAX; module.function_count()];
        }
        let func = module.function(id);
        let blocks = func.block_count();
        let mut start = self.start[id.index()];
        if start == usize::MAX {
            start = self.counts.len();
            self.counts
                .resize(start + 3 * blocks + func.check_site_count(), 0);
            self.start[id.index()] = start;
            self.entered.push(id);
        }
        Slots {
            blocks: start,
            edges: start + blocks,
            sites: start + 3 * blocks,
        }
    }

    /// Counts one entry into the function at `block`, its entry block.
    /// Every other execution of a block is counted by its in-edge.
    #[inline]
    pub(crate) fn enter(&mut self, at: Slots, block: Block) {
        self.counts[at.blocks + block.index()] += 1;
    }

    /// Counts one traversal of edge slot `2 * from + successor` (successor
    /// 0: jump or branch-then, 1: branch-else).
    #[inline]
    pub(crate) fn edge(&mut self, at: Slots, slot: u32) {
        self.counts[at.edges + slot as usize] += 1;
    }

    /// Counts one `bounds_check` execution at `site`.
    #[inline]
    pub(crate) fn site(&mut self, at: Slots, site: CheckSite) {
        self.counts[at.sites + site.index()] += 1;
    }

    /// Adds every nonzero count to `profile` and zeroes the counters. A
    /// block's count is its entries plus the sum of its in-edge counts.
    pub(crate) fn fold_into(&mut self, module: &Module, profile: &mut Profile) {
        for &id in &self.entered {
            let func = module.function(id);
            let at = self.start[id.index()];
            let n = func.block_count();
            let counts = &mut self.counts[at..at + 3 * n + func.check_site_count()];
            let (blocks, rest) = counts.split_at_mut(n);
            let (edges, sites) = rest.split_at_mut(2 * n);
            for (i, c) in edges.iter_mut().enumerate() {
                if *c > 0 {
                    let from = Block::new(i / 2);
                    let to = match (func.block(from).terminator(), i % 2) {
                        (Terminator::Jump(to), 0) => *to,
                        (Terminator::Branch { then_dst, .. }, 0) => *then_dst,
                        (Terminator::Branch { else_dst, .. }, _) => *else_dst,
                        (t, slot) => unreachable!("{from} has no successor slot {slot}: {t:?}"),
                    };
                    if let Some(count) = blocks.get_mut(to.index()) {
                        *count += *c;
                    }
                    profile.add_edge_count(id, from, to, std::mem::take(c));
                }
            }
            for (b, c) in blocks.iter_mut().enumerate() {
                if *c > 0 {
                    profile.add_block_count(id, Block::new(b), std::mem::take(c));
                }
            }
            for (s, c) in sites.iter_mut().enumerate() {
                if *c > 0 {
                    profile.add_site_count(id, CheckSite::new(s), std::mem::take(c));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_sites_sorted_by_count() {
        let mut p = Profile::new();
        let f = FuncId::new(0);
        p.add_site_count(f, CheckSite::new(1), 3);
        p.add_site_count(f, CheckSite::new(0), 1);
        let hot = p.hot_sites();
        assert_eq!(hot[0], ((f, CheckSite::new(1)), 3));
        assert_eq!(hot[1], ((f, CheckSite::new(0)), 1));
        assert_eq!(p.total_site_count(), 4);
    }

    #[test]
    fn merge_accumulates() {
        let f = FuncId::new(0);
        let (b0, b1) = (Block::new(0), Block::new(1));
        let mut a = Profile::new();
        a.add_edge_count(f, b0, b1, 1);
        let mut b = Profile::new();
        b.add_edge_count(f, b0, b1, 1);
        b.add_block_count(f, b0, 1);
        a.merge(&b);
        assert_eq!(a.edge_count(f, b0, b1), 2);
        assert_eq!(a.block_count(f, b0), 1);
    }
}
