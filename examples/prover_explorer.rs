//! A look inside the algorithm: dump the e-SSA form, the inequality graph,
//! and the per-check `demandProve` verdicts for the paper's running example
//! (Figure 3/4 of the paper, the first loop of bidirectional bubble sort).
//!
//!     cargo run --example prover_explorer

use abcd::{
    ConstraintLog, DemandProver, InequalityGraph, Optimizer, Problem, Stage, Vertex, VertexId,
};
use abcd_frontend::compile;
use abcd_ir::CheckKind;

const SRC: &str = r#"
    fn fragment(a: int[]) {
        let limit: int = a.length;
        let st: int = 0 - 1;
        while (st < limit) {
            st = st + 1;
            limit = limit - 1;
            for (let j: int = st; j < limit; j = j + 1) {
                let x: int = a[j];
                let y: int = a[j + 1];
                if (x > y) {
                    a[j] = y;
                    a[j + 1] = x;
                }
            }
        }
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut module = compile(SRC)?;
    // The optimizer's own preparation, so the dump is what ABCD analyzes.
    Optimizer::new()
        .run_to(&mut module, Stage::InsertPi)
        .map_err(|e| e.to_string())?;
    let id = module
        .function_by_name("fragment")
        .expect("function exists");
    let func = module.function(id).clone();

    println!("==== e-SSA form (Figure 3 analogue) ====\n{func}\n");

    let graph = InequalityGraph::build(&func, Problem::Upper, None);
    println!("==== inequality graph (Figure 4 analogue) ====");
    println!(
        "{} vertices, {} edges; an edge `u -({{w}})-> v` means v <= u + w",
        graph.vertex_count(),
        graph.edge_count()
    );
    for v in 0..graph.vertex_count() {
        let vid = VertexId::from_index(v);
        let edges = graph.in_edges(vid);
        if edges.is_empty() {
            continue;
        }
        let max = if graph.is_max(vid) { "  [max/φ]" } else { "" };
        print!("  {}{max} <= ", graph.vertex(vid));
        for (i, e) in edges.iter().enumerate() {
            if i > 0 {
                print!(", ");
            }
            print!("{} + {}", graph.vertex(e.src), e.weight);
        }
        println!();
    }

    println!("\n==== demandProve per upper-bound check ====");
    let mut log = ConstraintLog::default();
    log.record(&func);
    for check in log.checks().iter().filter(|c| c.kind == CheckKind::Upper) {
        let (site, array, index) = (check.site, check.array, check.index);
        let mut prover = DemandProver::new(&graph, Vertex::ArrayLen(array));
        let proven = prover.demand_prove(Vertex::Value(index), -1);
        println!(
            "  {site}: prove {index} - len({array}) <= -1  =>  {}  ({} steps)",
            if proven { "REDUNDANT" } else { "needed" },
            prover.steps
        );
    }
    Ok(())
}
