//! Structure golden for the inequality graphs.
//!
//! `tests/golden/graphs.txt` pins one FNV-1a digest per (program, problem)
//! over every benchsuite kernel and every `abcd_loadgen::corpus(3, 24)`
//! program. The digest covers every function of the module in the e-SSA
//! form the driver analyzes (CFG normalization, local promotion, cleanup,
//! π insertion): its whole-function graph and the graph of each of its
//! blocks, each rendered through the public accessors as every vertex in
//! id order with its potential, its max flag and its in-edges (source and
//! weight) in order. Any change to which vertices a graph interns, in what
//! order, or which edges it holds shows here.
//!
//! On a mismatch the test prints the recomputed file; after an intended
//! change to graph construction, replace the golden file with that output.

use abcd::cache::fnv1a64;
use abcd::{InequalityGraph, Problem, VertexId};
use abcd_ir::Module;
use abcd_ssa::SsaScratch;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("../../../tests/golden/graphs.txt");

/// Every program the golden covers, by a stable label.
fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|b| (b.name.to_string(), b.source.to_string()))
        .collect();
    for (i, src) in abcd_loadgen::corpus(3, 24).into_iter().enumerate() {
        out.push((format!("corpus{i}"), src));
    }
    out
}

/// The driver's e-SSA path under the default options.
fn to_essa(module: &mut Module, ssa: &mut SsaScratch) {
    for (_, func) in module.functions_mut() {
        ssa.normalize(func);
        ssa.promote_locals(func)
            .expect("frontend guarantees definite assignment");
        abcd_analysis::cleanup_with_tree(func, ssa.dom_tree());
        ssa.insert_pi_nodes(func);
    }
}

/// Appends every vertex of `g` in id order, with its potential, max flag
/// and in-edges.
fn render(g: &InequalityGraph, out: &mut String) {
    for id in (0..g.vertex_count()).map(VertexId::from_index) {
        let _ = write!(
            out,
            "{} {:?} {}:",
            g.vertex(id),
            g.potential(id),
            u8::from(g.is_max(id))
        );
        for e in g.in_edges(id) {
            let _ = write!(out, " {}/{}", e.src.index(), e.weight);
        }
        out.push('\n');
    }
}

fn recompute() -> String {
    let mut ssa = SsaScratch::new();
    let mut out = String::new();
    for (label, src) in programs() {
        let mut module = abcd_frontend::compile(&src).expect("golden program compiles");
        to_essa(&mut module, &mut ssa);
        for (name, problem) in [("upper", Problem::Upper), ("lower", Problem::Lower)] {
            let mut text = String::new();
            for (_, func) in module.functions() {
                let _ = writeln!(text, "fn {}", func.name());
                render(&InequalityGraph::build(func, problem, None), &mut text);
                for b in func.blocks() {
                    let _ = writeln!(text, "block {b}");
                    render(&InequalityGraph::build(func, problem, Some(b)), &mut text);
                }
            }
            let _ = writeln!(out, "{label} {name} {:016x}", fnv1a64(text.as_bytes()));
        }
    }
    out
}

#[test]
fn graph_structure_matches_the_golden_digests() {
    let actual = recompute();
    if actual != GOLDEN {
        println!("---- recomputed tests/golden/graphs.txt ----\n{actual}---- end ----");
        for (a, g) in actual.lines().zip(GOLDEN.lines()) {
            assert_eq!(a, g, "first differing golden line");
        }
        assert_eq!(
            actual.lines().count(),
            GOLDEN.lines().count(),
            "golden line count"
        );
    }
}
