//! Property tests for the dominator machinery: the Cooper–Harvey–Kennedy
//! tree must agree with a naive fixed-point dominator-set computation on
//! random CFGs, and dominance frontiers must satisfy their defining
//! property.
//!
//! Random CFGs come from a fixed-seed SplitMix64 stream, so the corpus is
//! deterministic and the suite needs no external crates.

use abcd_ir::{Block, Function, FunctionBuilder, SplitMix64, Type};
use abcd_ssa::DomTree;
use std::collections::HashSet;

/// A random CFG shape: block count in `[1, max_n)` and up to `max_edges`
/// random (source, target) byte pairs.
fn cfg_shape(rng: &mut SplitMix64, max_n: u64, max_edges: u64) -> (usize, Vec<(u8, u8)>) {
    let n = 1 + (rng.next_u64() % (max_n - 1)) as usize;
    let e = (rng.next_u64() % (max_edges + 1)) as usize;
    let edges = (0..e)
        .map(|_| (rng.next_u64() as u8, rng.next_u64() as u8))
        .collect();
    (n, edges)
}

/// Builds a random CFG with `n` blocks; each block ends in a return, jump,
/// or branch to targets drawn from `edges`.
fn build_cfg(n: usize, edges: &[(u8, u8)]) -> Function {
    let mut b = FunctionBuilder::new("g", vec![Type::Bool], None);
    let cond = b.param(0);
    let blocks: Vec<Block> = std::iter::once(b.current_block())
        .chain((1..n).map(|_| b.new_block()))
        .collect();

    // Group the requested edges per source block.
    let mut out: Vec<Vec<Block>> = vec![Vec::new(); n];
    for (s, t) in edges {
        let s = *s as usize % n;
        let t = *t as usize % n;
        if out[s].len() < 2 {
            out[s].push(blocks[t]);
        }
    }
    for (i, &blk) in blocks.iter().enumerate() {
        b.switch_to_block(blk);
        match out[i].as_slice() {
            [] => b.ret(None),
            [d] => b.jump(*d),
            [d1, d2] => b.branch(cond, *d1, *d2),
            _ => unreachable!(),
        }
    }
    b.finish().expect("random CFG verifies")
}

/// Naive dominators: dom(entry) = {entry}; dom(b) = {b} ∪ ⋂ dom(preds).
fn naive_dominators(func: &Function) -> Vec<Option<HashSet<Block>>> {
    let n = func.block_count();
    let preds = abcd_ir::predecessors(func);
    let entry = func.entry();
    let mut dom: Vec<Option<HashSet<Block>>> = vec![None; n];
    dom[entry.index()] = Some([entry].into_iter().collect());
    let mut changed = true;
    while changed {
        changed = false;
        for b in func.blocks() {
            if b == entry {
                continue;
            }
            let mut inter: Option<HashSet<Block>> = None;
            for p in &preds[b.index()] {
                if let Some(dp) = &dom[p.index()] {
                    inter = Some(match inter {
                        None => dp.clone(),
                        Some(acc) => acc.intersection(dp).copied().collect(),
                    });
                }
            }
            if let Some(mut set) = inter {
                set.insert(b);
                if dom[b.index()].as_ref() != Some(&set) {
                    dom[b.index()] = Some(set);
                    changed = true;
                }
            }
        }
    }
    dom
}

#[test]
fn chk_agrees_with_naive_dominators() {
    let mut rng = SplitMix64::new(0xd0b1_0001);
    for _ in 0..192 {
        let (n, edges) = cfg_shape(&mut rng, 12, 20);
        let func = build_cfg(n, &edges);
        let dt = DomTree::compute(&func);
        let naive = naive_dominators(&func);

        for a in func.blocks() {
            for b in func.blocks() {
                let fast = dt.dominates(a, b);
                let slow = naive[b.index()]
                    .as_ref()
                    .map(|s| s.contains(&a))
                    .unwrap_or(false);
                assert_eq!(fast, slow, "dominates({a:?},{b:?}) fast={fast} slow={slow}");
            }
        }
        // idom is the unique closest strict dominator.
        for b in func.blocks() {
            if let Some(idom) = dt.idom(b) {
                assert!(dt.strictly_dominates(idom, b));
                // every other strict dominator of b dominates idom
                for d in func.blocks() {
                    if d != b && dt.strictly_dominates(d, b) {
                        assert!(dt.dominates(d, idom));
                    }
                }
            }
        }
    }
}

#[test]
fn dominance_frontier_matches_definition() {
    let mut rng = SplitMix64::new(0xd0b1_0002);
    for _ in 0..192 {
        let (n, edges) = cfg_shape(&mut rng, 10, 16);
        let func = build_cfg(n, &edges);
        let dt = DomTree::compute(&func);
        let df = dt.dominance_frontiers(&func);
        let preds = abcd_ir::predecessors(&func);

        for b in func.blocks() {
            if !dt.is_reachable(b) {
                continue;
            }
            for y in func.blocks() {
                if !dt.is_reachable(y) {
                    continue;
                }
                // y ∈ DF(b) ⇔ b dominates a predecessor of y and b does not
                // strictly dominate y.
                let in_df = df[b.index()].contains(&y);
                let expected = preds[y.index()]
                    .iter()
                    .any(|p| dt.is_reachable(*p) && dt.dominates(b, *p))
                    && !dt.strictly_dominates(b, y);
                assert_eq!(in_df, expected, "DF({b:?}) vs {y:?}");
            }
        }
    }
}

#[test]
fn critical_edge_split_leaves_no_critical_edges() {
    let mut rng = SplitMix64::new(0xd0b1_0003);
    for _ in 0..192 {
        let (n, edges) = cfg_shape(&mut rng, 10, 16);
        let mut func = build_cfg(n, &edges);
        abcd_ssa::split_critical_edges(&mut func);
        abcd_ir::verify_function(&func, None).expect("still verifies");
        let preds = abcd_ir::predecessors(&func);
        for b in func.blocks() {
            let succs = abcd_ir::successors(&func, b);
            if succs.len() > 1 {
                for s in succs {
                    assert!(
                        preds[s.index()].len() <= 1,
                        "critical edge {b:?} -> {s:?} survived"
                    );
                }
            }
        }
    }
}
