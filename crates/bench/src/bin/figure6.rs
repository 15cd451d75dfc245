//! Experiment E1 — reproduces **Figure 6** of the paper: the fraction of
//! dynamic upper-bound checks removed per benchmark, with the local/global
//! split for the five SPEC-like programs, plus the suite average (the
//! paper's headline "45% of dynamic bound check instructions").
//!
//! Run with: `cargo run --release -p abcd-bench --bin figure6`
//!
//! Pass `--metrics` (and/or `--metrics-out FILE`, `--jobs N`) to also emit
//! the `abcd-bench-metrics/2` JSON: per-pass timings, solver step and memo
//! counters per benchmark, fail-open incident counters, and the measured
//! sequential-vs-parallel wall-clock comparison of the optimize phase.

use abcd::OptimizerOptions;
use abcd_bench::{bar, evaluate_all, local_global_split, print_incident_summary};
use abcd_benchsuite::Group;

fn main() {
    // Translation validation on: every elimination in the figure is
    // independently re-proven, and the incident summary below records the
    // (expected-zero) reinstatement count in the run's trajectory.
    let options = OptimizerOptions {
        validate: true,
        ..OptimizerOptions::default()
    };
    let results = evaluate_all(options);

    println!("Figure 6: dynamic upper-bound checks removed (this reproduction)");
    println!("{:-<78}", "");
    println!(
        "{:<18} {:>10} {:>10} {:>8}  {:<24}",
        "benchmark", "baseline", "removed", "%", "(local # / global #)"
    );
    println!("{:-<78}", "");

    let mut fractions = Vec::new();
    for (bench, r) in abcd_benchsuite::BENCHMARKS.iter().zip(&results) {
        let before = r.baseline.dynamic_upper_checks();
        let after = r.optimized.dynamic_upper_checks();
        let removed = before.saturating_sub(after);
        let frac = r.upper_removed_fraction();
        fractions.push(frac);
        let split = if r.group == Group::Spec {
            // The paper splits the SPEC bars into local and global parts.
            let (l, g) = local_global_split(bench, options, r);
            format!("local {l} / global {g}")
        } else {
            String::new()
        };
        println!(
            "{:<18} {:>10} {:>10} {:>7.1}%  {} {}",
            r.name,
            before,
            removed,
            frac * 100.0,
            bar(frac, 20),
            split
        );
    }
    println!("{:-<78}", "");
    let avg = fractions.iter().sum::<f64>() / fractions.len() as f64;
    println!(
        "{:<18} {:>32.1}%  (paper: ~45% average)",
        "AVERAGE",
        avg * 100.0
    );
    print_incident_summary(&results);

    abcd_bench::emit_cli_metrics(options);
}
