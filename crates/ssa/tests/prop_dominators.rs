//! Property tests for the dominator machinery and the tables built on it:
//! the Cooper–Harvey–Kennedy tree must agree with a naive fixed-point
//! dominator-set computation on random CFGs, dominance frontiers must
//! satisfy their defining property, iterated frontiers must be the fixpoint
//! of frontiers over a def set, local liveness must agree with a path
//! search, and the one tree SSA construction carries from CFG normalization
//! to the analysis must equal a fresh one.
//!
//! Random CFGs come from a fixed-seed SplitMix64 stream, so the corpus is
//! deterministic and the suite needs no external crates.

use abcd_ir::{Block, Function, FunctionBuilder, InstKind, Local, SplitMix64, Type};
use abcd_ssa::{iterated_dominance_frontier, DomTree, LocalLiveness, SsaScratch};
use std::collections::{BTreeSet, HashSet};

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
    build_cfg_with_locals(n, edges, None)
}

/// [`build_cfg`], plus (given an rng) up to four int locals and up to four
/// random `get_local`/`set_local` sites per block.
fn build_cfg_with_locals(
    n: usize,
    edges: &[(u8, u8)],
    mut sites: Option<&mut SplitMix64>,
) -> Function {
    let mut b = FunctionBuilder::new("g", vec![Type::Bool, Type::Int], None);
    let cond = b.param(0);
    let x = b.param(1);
    let locals: Vec<Local> = match sites.as_deref_mut() {
        Some(rng) => (0..1 + rng.next_u64() % 4)
            .map(|_| b.new_local(Type::Int))
            .collect(),
        None => Vec::new(),
    };
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
        if let Some(rng) = sites.as_deref_mut() {
            for _ in 0..rng.next_u64() % 5 {
                let l = locals[(rng.next_u64() % locals.len() as u64) as usize];
                if rng.next_u64().is_multiple_of(2) {
                    b.get_local(l);
                } else {
                    b.set_local(l, x);
                }
            }
        }
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

/// The first access to `l` in `b`: `Some(true)` for a read, `Some(false)`
/// for a write, `None` if the block does not touch it.
fn first_access(func: &Function, b: Block, l: Local) -> Option<bool> {
    func.block(b)
        .insts()
        .iter()
        .find_map(|&id| match func.inst(id).kind {
            InstKind::GetLocal { local } if local == l => Some(true),
            InstKind::SetLocal { local, .. } if local == l => Some(false),
            _ => None,
        })
}

/// Naive liveness: `l` is live into `b` iff some path from the top of `b`
/// reads `l` before writing it.
fn naive_live_in(func: &Function, b: Block, l: Local) -> bool {
    let mut seen = HashSet::new();
    let mut stack = vec![b];
    while let Some(c) = stack.pop() {
        if !seen.insert(c) {
            continue;
        }
        match first_access(func, c, l) {
            Some(read) => {
                if read {
                    return true;
                }
            }
            None => stack.extend(abcd_ir::successors(func, c)),
        }
    }
    false
}

#[test]
fn liveness_agrees_with_path_search() {
    let mut rng = SplitMix64::new(0xd0b1_0004);
    for _ in 0..192 {
        let (n, edges) = cfg_shape(&mut rng, 10, 16);
        let func = build_cfg_with_locals(n, &edges, Some(&mut rng));
        let live = LocalLiveness::compute(&func);
        for b in func.blocks() {
            for l in (0..func.local_count()).map(Local::new) {
                assert_eq!(
                    live.is_live_in(b, l),
                    naive_live_in(&func, b, l),
                    "live-in of {l:?} at {b:?}\n{func}"
                );
            }
        }
    }
}

#[test]
fn iterated_frontier_is_the_frontier_fixpoint() {
    let mut rng = SplitMix64::new(0xd0b1_0005);
    for _ in 0..192 {
        let (n, edges) = cfg_shape(&mut rng, 10, 16);
        let func = build_cfg_with_locals(n, &edges, Some(&mut rng));
        let df = DomTree::compute(&func).dominance_frontiers(&func);
        // The def sets SSA construction asks about — each local's writing
        // blocks — plus one random block subset.
        let mut def_sets: Vec<Vec<Block>> = (0..func.local_count())
            .map(|l| {
                func.blocks()
                    .filter(|&b| {
                        func.block(b).insts().iter().any(|&id| {
                            matches!(func.inst(id).kind, InstKind::SetLocal { local, .. } if local.index() == l)
                        })
                    })
                    .collect()
            })
            .collect();
        def_sets.push(
            func.blocks()
                .filter(|_| rng.next_u64().is_multiple_of(3))
                .collect(),
        );
        for defs in def_sets {
            // J = DF(defs ∪ J), iterated to its fixpoint.
            let mut fix: BTreeSet<Block> = BTreeSet::new();
            loop {
                let next: BTreeSet<Block> = defs
                    .iter()
                    .chain(fix.iter())
                    .flat_map(|b| df[b.index()].iter().copied())
                    .collect();
                if next == fix {
                    break;
                }
                fix = next;
            }
            let idf = iterated_dominance_frontier(&df, &defs);
            assert_eq!(
                idf,
                fix.into_iter().collect::<Vec<_>>(),
                "IDF of {defs:?}\n{func}"
            );
        }
    }
}

/// Every function SSA construction sees: the benchsuite kernels and a
/// generated corpus, in locals form.
fn pipeline_inputs() -> Vec<Function> {
    let sources = abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|b| b.source.to_string())
        .chain(abcd_loadgen::corpus(1, 24));
    sources
        .flat_map(|src| {
            let module = abcd_frontend::compile(&src).expect("program compiles");
            module
                .functions()
                .map(|(_, f)| f.clone())
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn carried_tree_equals_a_fresh_one_at_graph_build() {
    let mut scratch = SsaScratch::new();
    let mut functions = 0;
    for mut func in pipeline_inputs() {
        // The driver's prepare stages, in order, on one warm scratch.
        scratch.normalize(&mut func);
        scratch
            .promote_locals(&mut func)
            .expect("frontend guarantees definite assignment");
        abcd_analysis::cleanup_with_tree(&mut func, scratch.dom_tree());
        scratch.insert_pi_nodes(&mut func);
        let carried = scratch.take_dom_tree();
        let fresh = DomTree::compute(&func);
        for b in func.blocks() {
            assert_eq!(
                carried.is_reachable(b),
                fresh.is_reachable(b),
                "{b:?} in {}",
                func.name()
            );
            assert_eq!(carried.idom(b), fresh.idom(b), "{b:?} in {}", func.name());
        }
        assert_eq!(carried.rpo(), fresh.rpo(), "{}", func.name());
        scratch.put_dom_tree(carried);
        functions += 1;
    }
    assert!(functions > 60, "{functions}");
}

#[test]
fn normalization_splits_a_looping_entry() {
    // bb0: br c, bb0, bb1 — the entry is its own predecessor.
    let mut func = build_cfg(2, &[(0, 0), (0, 1)]);
    let edges = abcd_ssa::split_critical_edges(&mut func);
    abcd_ir::verify_function(&func, None).expect("still verifies");
    let preds = abcd_ir::predecessors(&func);
    assert!(preds[func.entry().index()].is_empty());
    // The moved loop block's self edge is critical once the entry jumps in.
    assert_eq!(edges, 1);
}
