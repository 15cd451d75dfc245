//! Micro-benchmark: full-pipeline compile-time cost — what a JIT pays:
//! the driver's preparation through π insertion (SSA, cleanup, e-SSA), and
//! the complete ABCD pass, per benchmark program. The paper's pitch is that this must be cheap enough
//! for dynamic compilation.
//!
//! Run with: `cargo bench -p abcd-bench --bench pipeline`
//!
//! With `BENCH_PIPELINE_JSON=path` set, the run additionally persists its
//! numbers — including the suite's solver-step total and the per-phase
//! allocation counts from the counting global allocator — as a JSON
//! document (the committed `BENCH_pipeline.json` perf trajectory,
//! schema `abcd-bench-pipeline/3`). The `phases.steady_prove.allocs`
//! entry is the headline: a warm prover re-deriving every verdict in the
//! suite performs **zero** heap allocations (`tests/alloc_gate.rs` is the
//! assertion-backed twin of this number).

use abcd::{
    ConstraintLog, DemandProver, InequalityGraph, Optimizer, OptimizerOptions, Problem,
    ScratchPool, Stage, Vertex,
};
use abcd_bench::micro::bench;
use abcd_ir::{CheckKind, Module, Value};
use std::sync::{Arc, OnceLock};

#[global_allocator]
static ALLOC: abcd_alloc::CountingAlloc = abcd_alloc::CountingAlloc;

/// The process-wide warm scratch pool every driver measurement shares —
/// the same steady-state `abcdd` reaches after its first request, which is
/// the regime the trajectory tracks.
fn shared_pool() -> Arc<ScratchPool> {
    static POOL: OnceLock<Arc<ScratchPool>> = OnceLock::new();
    Arc::clone(POOL.get_or_init(|| Arc::new(ScratchPool::new())))
}

/// Runs the driver's preparation of `module` through π insertion on the
/// shared pool: the e-SSA form the prover analyzes.
fn to_essa(module: &mut Module) {
    Optimizer::new()
        .with_scratch_pool(shared_pool())
        .run_to(module, Stage::InsertPi)
        .unwrap();
}

/// Wall time plus the allocation count of one additional iteration.
///
/// `bench` runs its calibration loop first, so by the time the counted
/// iteration executes, every lazy global (interner, benchsuite sources) is
/// warm and the count is reproducible run to run.
fn counted<R>(name: &str, mut f: impl FnMut() -> R) -> (f64, u64) {
    let ns = bench(name, &mut f);
    let before = abcd_alloc::snapshot();
    std::hint::black_box(f());
    (ns, abcd_alloc::delta(before).allocs)
}

fn bench_essa(results: &mut Vec<(String, f64, u64)>) {
    for b in abcd_benchsuite::BENCHMARKS.iter().take(6) {
        let module = b.compile().unwrap();
        let name = format!("pipeline/to_essa/{}", b.name);
        let (ns, allocs) = counted(&name, || {
            let mut m = module.clone();
            to_essa(&mut m);
            m.function_count()
        });
        results.push((name, ns, allocs));
    }
}

fn bench_full_abcd(results: &mut Vec<(String, f64, u64)>) {
    for b in abcd_benchsuite::BENCHMARKS {
        let module = b.compile().unwrap();
        let name = format!("pipeline/abcd_full/{}", b.name);
        let (ns, allocs) = counted(&name, || {
            let mut m = module.clone();
            let report = Optimizer::new()
                .with_scratch_pool(shared_pool())
                .optimize_module(&mut m, None);
            report.checks_removed_fully()
        });
        results.push((name, ns, allocs));
    }
}

fn bench_abcd_without_pre(results: &mut Vec<(String, f64, u64)>) {
    let b = abcd_benchsuite::by_name("biDirBubbleSort").unwrap();
    let module = b.compile().unwrap();
    let opts = OptimizerOptions {
        pre: false,
        classify_local: false,
        ..OptimizerOptions::default()
    };
    let (ns, allocs) = counted("pipeline/abcd_minimal_bidir", || {
        let mut m = module.clone();
        Optimizer::with_options(opts)
            .with_scratch_pool(shared_pool())
            .optimize_module(&mut m, None)
            .checks_removed_fully()
    });
    results.push(("pipeline/abcd_minimal_bidir".to_string(), ns, allocs));
}

/// Sequential vs. parallel driver on the whole suite. On a host with fewer
/// CPUs than the thread count these rows *document a regression* — extra
/// workers only add contention — which is why `mjc`/`abcdd` now clamp their
/// worker counts through [`abcd::clamp_jobs`]. The rows stay oversubscribed
/// on purpose so the cost remains visible in the trajectory.
fn bench_parallel_driver(results: &mut Vec<(String, f64, u64)>) {
    for threads in [1usize, 2, 4] {
        let name = format!("pipeline/abcd_suite_threads/{threads}");
        let (ns, allocs) = counted(&name, || {
            let mut removed = 0usize;
            for b in abcd_benchsuite::BENCHMARKS {
                let mut m = b.compile().unwrap();
                let opt = Optimizer::new()
                    .with_threads(threads)
                    .with_scratch_pool(shared_pool());
                removed += opt.optimize_module(&mut m, None).checks_removed_fully();
            }
            removed
        });
        results.push((name, ns, allocs));
    }
}

/// The suite's solver-step total under the default options —
/// deterministic, so the CI gate pins it exactly (as does
/// `tests/regressions.rs`).
fn suite_solver_steps() -> u64 {
    let mut steps = 0u64;
    for b in abcd_benchsuite::BENCHMARKS {
        let mut m = b.compile().unwrap();
        steps += Optimizer::new()
            .with_scratch_pool(shared_pool())
            .optimize_module(&mut m, None)
            .steps();
    }
    steps
}

/// A function's constraint graphs plus its check queries, prepared once so
/// the steady-state phase below measures *only* re-proving.
struct PreparedFn {
    upper: InequalityGraph,
    lower: InequalityGraph,
    arrays: Vec<Value>,
    checks: Vec<(Value, Value, CheckKind)>,
}

fn prepare_suite() -> Vec<PreparedFn> {
    let mut prepared = Vec::new();
    for b in abcd_benchsuite::BENCHMARKS {
        let mut module = b.compile().unwrap();
        to_essa(&mut module);
        let mut log = ConstraintLog::default();
        for (_, func) in module.functions() {
            log.record(func);
            let checks: Vec<_> = log
                .checks()
                .iter()
                .map(|c| (c.array, c.index, c.kind))
                .collect();
            if checks.is_empty() {
                continue;
            }
            let mut arrays: Vec<Value> = checks
                .iter()
                .filter(|(_, _, k)| matches!(k, CheckKind::Upper | CheckKind::Both))
                .map(|&(a, _, _)| a)
                .collect();
            arrays.sort_unstable();
            arrays.dedup();
            prepared.push(PreparedFn {
                upper: InequalityGraph::build(func, Problem::Upper, None),
                lower: InequalityGraph::build(func, Problem::Lower, None),
                arrays,
                checks,
            });
        }
    }
    prepared
}

/// The four pipeline phases with wall time and allocation counts:
/// `compile`, `essa`, `optimize` (all allocate — they build fresh IR each
/// iteration), and `steady_prove`, where warm provers
/// re-derive every verdict of every benchsuite kernel with **zero** heap
/// allocations.
fn bench_phases() -> Vec<(&'static str, f64, u64)> {
    let mut phases = Vec::new();

    let (ns, allocs) = counted("pipeline/phase/compile", || {
        let mut functions = 0usize;
        for b in abcd_benchsuite::BENCHMARKS {
            functions += b.compile().unwrap().function_count();
        }
        functions
    });
    phases.push(("compile", ns, allocs));

    let modules: Vec<_> = abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|b| b.compile().unwrap())
        .collect();
    let (ns, allocs) = counted("pipeline/phase/essa", || {
        let mut functions = 0usize;
        for module in &modules {
            let mut m = module.clone();
            to_essa(&mut m);
            functions += m.function_count();
        }
        functions
    });
    phases.push(("essa", ns, allocs));

    let (ns, allocs) = counted("pipeline/phase/optimize", || {
        let mut removed = 0usize;
        for module in &modules {
            let mut m = module.clone();
            removed += Optimizer::new()
                .with_scratch_pool(shared_pool())
                .optimize_module(&mut m, None)
                .checks_removed_fully();
        }
        removed
    });
    phases.push(("optimize", ns, allocs));

    let prepared = prepare_suite();
    let mut provers: Vec<(Vec<DemandProver>, DemandProver)> = prepared
        .iter()
        .map(|p| {
            let uppers = p
                .arrays
                .iter()
                .map(|&a| DemandProver::new(&p.upper, Vertex::ArrayLen(a)))
                .collect();
            (uppers, DemandProver::new(&p.lower, Vertex::Const(0)))
        })
        .collect();
    let (ns, allocs) = counted("pipeline/phase/steady_prove", || {
        let mut proven = 0usize;
        for (p, (uppers, lower)) in prepared.iter().zip(provers.iter_mut()) {
            // Forget verdicts, keep capacity: each iteration re-traverses.
            for u in uppers.iter_mut() {
                u.reset_memo();
            }
            lower.reset_memo();
            for &(array, index, kind) in &p.checks {
                if matches!(kind, CheckKind::Upper | CheckKind::Both) {
                    let i = p.arrays.binary_search(&array).unwrap();
                    if uppers[i].demand_prove(Vertex::Value(index), -1) {
                        proven += 1;
                    }
                }
                if matches!(kind, CheckKind::Lower | CheckKind::Both)
                    && lower.demand_prove(Vertex::Value(index), 0)
                {
                    proven += 1;
                }
            }
        }
        proven
    });
    phases.push(("steady_prove", ns, allocs));

    phases
}

/// Renders the committed perf-trajectory document (schema 3). Wall times
/// vary by host, so the schema separates them from the deterministic
/// quantities the CI gate pins exactly: solver-step totals and the
/// zero-allocation steady-prove count.
fn render_json(
    results: &[(String, f64, u64)],
    suite_solver_steps: u64,
    phases: &[(&'static str, f64, u64)],
) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "{{\"schema\":\"abcd-bench-pipeline/3\",\"host_cpus\":{host_cpus},\
         \"notes\":{{\"parallel\":\"abcd_suite_threads rows beyond host_cpus \
         document the oversubscription regression (extra workers only add \
         contention); mjc/abcdd clamp worker counts to the available \
         parallelism via abcd::clamp_jobs\"}},\
         \"suite_solver_steps\":{suite_solver_steps},\"phases\":{{"
    );
    for (i, (name, ns, allocs)) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"ns\":{ns:.0},\"allocs\":{allocs}}}"
        ));
    }
    out.push_str("},\"benchmarks\":{");
    for (i, (name, ns, allocs)) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"ns\":{ns:.0},\"allocs\":{allocs}}}",
            abcd::json_escape(name)
        ));
    }
    out.push_str("}}\n");
    out
}

fn main() {
    let mut results = Vec::new();
    bench_essa(&mut results);
    bench_full_abcd(&mut results);
    bench_abcd_without_pre(&mut results);
    bench_parallel_driver(&mut results);
    let phases = bench_phases();
    if let Ok(path) = std::env::var("BENCH_PIPELINE_JSON") {
        let json = render_json(&results, suite_solver_steps(), &phases);
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
