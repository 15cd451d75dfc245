//! Experiment E3 — the analysis-effort numbers of §8: "The average number
//! of analysis steps (i.e., invocations of the recursive procedure prove)
//! was less than 10 per analyzed check" and "the time to analyze one bounds
//! check ranged from 0 to 35 milliseconds, and averaged around 4ms" (on a
//! 166 MHz PowerPC; we report microseconds on modern hardware — the shape
//! to check is *small and flat*, not the absolute value).
//!
//! Run with: `cargo run --release -p abcd-bench --bin table_effort`

use abcd::{
    ConstraintLog, ExhaustiveDistances, InequalityGraph, Optimizer, OptimizerOptions, Problem,
    Scope, Stage, Vertex,
};
use abcd_bench::{evaluate_all, print_incident_summary};

/// Vertex relaxations an exhaustive single-source pass would spend on the
/// graphs the demand prover solved under `options`: one pass per distinct
/// array-length source (plus the constant-0 source for lower checks), per
/// function — the exhaustive alternative §5 rejects for JIT use.
fn exhaustive_steps(bench: &abcd_benchsuite::Benchmark, options: OptimizerOptions) -> u64 {
    let mut module = bench.compile().unwrap();
    Optimizer::with_options(options)
        .run_to(&mut module, Stage::InsertPi)
        .unwrap();
    let mut log = ConstraintLog::default();
    let mut steps = 0;
    for (_, func) in module.functions() {
        log.record(func);
        let mut arrays: Vec<_> = log.checks().iter().map(|check| check.array).collect();
        arrays.sort_unstable();
        arrays.dedup();
        if arrays.is_empty() {
            continue;
        }
        let (mut upper, mut lower) = (InequalityGraph::default(), InequalityGraph::default());
        upper.fill(&log, Problem::Upper, Scope::Function);
        lower.fill(&log, Problem::Lower, Scope::Function);
        for a in arrays {
            steps += ExhaustiveDistances::compute(&upper, Vertex::ArrayLen(a)).steps;
        }
        steps += ExhaustiveDistances::compute(&lower, Vertex::Const(0)).steps;
    }
    steps
}

fn main() {
    let options = OptimizerOptions {
        validate: true,
        ..OptimizerOptions::default()
    };
    let results = evaluate_all(options);

    println!("Analysis effort per bounds check (demand-driven vs. exhaustive)");
    println!("{:-<92}", "");
    println!(
        "{:<18} {:>8} {:>9} {:>12} {:>10} {:>10} {:>12}",
        "benchmark", "checks", "steps", "steps/check", "+PRE", "µs/check", "exhaustive"
    );
    println!("{:-<92}", "");
    let mut total_steps = 0u64;
    let mut total_checks = 0usize;
    for r in &results {
        let checks = r.report.checks_analyzed();
        let steps = r.report.steps();
        let us = if checks > 0 {
            r.report.analysis_time().as_secs_f64() * 1e6 / checks as f64
        } else {
            0.0
        };
        total_steps += steps;
        total_checks += checks;
        let ex = exhaustive_steps(abcd_benchsuite::by_name(r.name).unwrap(), options);
        println!(
            "{:<18} {:>8} {:>9} {:>12.2} {:>10} {:>10.2} {:>12}",
            r.name,
            checks,
            steps,
            r.report.steps_per_check(),
            r.report.pre_steps(),
            us,
            ex
        );
    }
    println!("{:-<92}", "");
    let avg = if total_checks > 0 {
        total_steps as f64 / total_checks as f64
    } else {
        0.0
    };
    println!("suite average: {avg:.2} steps/check   (paper: fewer than 10)");
    println!(
        "(the exhaustive column is the per-source batch cost the paper's §5\n\
         rejects for dynamic compilation; demand-driven work is per hot check)"
    );
    print_incident_summary(&results);

    abcd_bench::emit_cli_metrics(options);
}
