//! Micro-benchmark: `demandProve` throughput (§5).
//!
//! Measures (a) single-check queries on the benchmark suite's inequality
//! graphs and (b) scaling on synthetic deep-chain graphs, backing the
//! paper's claim that a query touches a near-constant number of vertices
//! rather than the whole program.
//!
//! Run with: `cargo bench -p abcd-bench --bench solver`

use abcd::{ConstraintLog, DemandProver, InequalityGraph, Optimizer, Problem, Stage, Vertex};
use abcd_bench::micro::bench;
use abcd_ir::{CheckKind, Function, Module, Value};

/// `module` in the e-SSA form the driver analyzes.
fn to_essa(mut module: Module) -> Module {
    Optimizer::new()
        .run_to(&mut module, Stage::InsertPi)
        .unwrap();
    module
}

fn essa_function(src: &str) -> Function {
    let m = to_essa(abcd_frontend::compile(src).unwrap());
    let (_, f) = m.functions().next().unwrap();
    f.clone()
}

/// A deep chain of `i := i ± c` copies between the guard and the check.
fn chain_source(depth: usize) -> String {
    let mut body = String::from(
        "fn f(a: int[]) -> int {
            let s: int = 0;
            for (let i: int = 0; i < a.length; i = i + 1) {
                let j0: int = i;\n",
    );
    for d in 1..=depth {
        let op = if d % 2 == 0 { "+" } else { "-" };
        let prev = d - 1;
        body.push_str(&format!(
            "                let j{d}: int = j{prev} {op} 1;\n"
        ));
    }
    // The net offset is 0 or −1 depending on parity; index with the last.
    body.push_str(&format!(
        "                if (j{depth} >= 0) {{ if (j{depth} < a.length) {{ s = s + a[j{depth}]; }} }}
            }}
            return s;
        }}"
    ));
    body
}

/// The `(array, index)` of every upper check of `f`, in block-major order.
fn upper_checks(f: &Function) -> Vec<(Value, Value)> {
    let mut log = ConstraintLog::default();
    log.record(f);
    log.checks()
        .iter()
        .filter(|check| check.kind == CheckKind::Upper)
        .map(|check| (check.array, check.index))
        .collect()
}

fn bench_suite_queries() {
    for bench_prog in abcd_benchsuite::BENCHMARKS.iter().take(5) {
        let m = to_essa(bench_prog.compile().unwrap());
        // Analyze every upper check of every function, fresh prover each
        // iteration (worst case: no cross-check memoization).
        let funcs: Vec<Function> = m.functions().map(|(_, f)| f.clone()).collect();
        let prepared: Vec<(InequalityGraph, Vec<(Value, Value)>)> = funcs
            .iter()
            .map(|f| {
                (
                    InequalityGraph::build(f, Problem::Upper, None),
                    upper_checks(f),
                )
            })
            .collect();
        bench(&format!("demand_prove/suite/{}", bench_prog.name), || {
            let mut proved = 0usize;
            for (g, checks) in &prepared {
                for (array, index) in checks {
                    let mut p = DemandProver::new(g, Vertex::ArrayLen(*array));
                    if p.demand_prove(Vertex::Value(*index), -1) {
                        proved += 1;
                    }
                }
            }
            proved
        });
    }
}

fn bench_chain_scaling() {
    for depth in [4usize, 16, 64, 256] {
        let f = essa_function(&chain_source(depth));
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (array, index) = upper_checks(&f)[0];
        bench(&format!("demand_prove/chain_depth/{depth}"), || {
            let mut p = DemandProver::new(&g, Vertex::ArrayLen(array));
            p.demand_prove(Vertex::Value(index), -1)
        });
    }
}

fn bench_graph_construction() {
    let bench_prog = abcd_benchsuite::by_name("db").unwrap();
    let m = to_essa(bench_prog.compile().unwrap());
    let funcs: Vec<Function> = m.functions().map(|(_, f)| f.clone()).collect();
    bench("inequality_graph/build_db", || {
        funcs
            .iter()
            .map(|f| InequalityGraph::build(f, Problem::Upper, None).edge_count())
            .sum::<usize>()
    });
}

/// Demand-driven vs. exhaustive cost on the same graphs — the §5 trade-off
/// the paper's design hinges on.
fn bench_demand_vs_exhaustive() {
    use abcd::ExhaustiveDistances;
    for name in ["db", "jess", "biDirBubbleSort"] {
        let bench_prog = abcd_benchsuite::by_name(name).unwrap();
        let m = to_essa(bench_prog.compile().unwrap());
        // Largest function by check count.
        let func = m
            .functions()
            .map(|(_, f)| f.clone())
            .max_by_key(|f| f.count_checks().0)
            .unwrap();
        let g = InequalityGraph::build(&func, Problem::Upper, None);
        let (array, index) = upper_checks(&func)[0];

        bench(
            &format!("demand_vs_exhaustive/demand_one_check/{name}"),
            || {
                let mut p = DemandProver::new(&g, Vertex::ArrayLen(array));
                p.demand_prove(Vertex::Value(index), -1)
            },
        );
        bench(
            &format!("demand_vs_exhaustive/exhaustive_one_source/{name}"),
            || ExhaustiveDistances::compute(&g, Vertex::ArrayLen(array)).steps,
        );
    }
}

fn main() {
    bench_suite_queries();
    bench_chain_scaling();
    bench_graph_construction();
    bench_demand_vs_exhaustive();
}
