//! Experiment A1 (ablation, beyond the paper's tables but grounded in its
//! §9 comparisons): ABCD vs. the exhaustive value-range baseline, and ABCD
//! with individual features disabled — PRE (§6), the GVN hook (§7.1), and
//! the pre-cleanup "basic set".
//!
//! Run with: `cargo run --release -p abcd-bench --bin table_ablation`

use abcd::{Optimizer, OptimizerOptions, Stage};
use abcd_bench::{evaluate, evaluate_with_versioning, print_incident_summary};
use abcd_benchsuite::BENCHMARKS;
use abcd_vm::Vm;

/// Dynamic upper-removal fraction for the value-range baseline, run on
/// the e-SSA form ABCD analyzes under `options`.
fn range_baseline(bench: &abcd_benchsuite::Benchmark, options: OptimizerOptions) -> f64 {
    let baseline_module = bench.compile().unwrap();
    let mut vm = Vm::new(&baseline_module);
    vm.call_by_name("main", &[]).unwrap();
    let before = vm.stats().dynamic_upper_checks();

    let mut module = bench.compile().unwrap();
    Optimizer::with_options(options)
        .run_to(&mut module, Stage::InsertPi)
        .unwrap();
    for (_, f) in module.functions_mut() {
        abcd_analysis::eliminate_checks_by_range(f);
    }
    let mut vm = Vm::new(&module);
    vm.call_by_name("main", &[]).unwrap();
    let after = vm.stats().dynamic_upper_checks();
    if before == 0 {
        0.0
    } else {
        1.0 - after as f64 / before as f64
    }
}

fn main() {
    let full = OptimizerOptions {
        validate: true,
        ..OptimizerOptions::default()
    };
    let no_pre = OptimizerOptions { pre: false, ..full };
    let no_gvn = OptimizerOptions {
        gvn_hook: false,
        ..full
    };
    let no_cleanup = OptimizerOptions {
        cleanup: false,
        gvn_hook: false, // the hook needs the cleanup's value numbering
        ..full
    };
    let interproc = OptimizerOptions {
        interprocedural: true,
        ..full
    };

    println!("Ablation: % of dynamic upper-bound checks removed");
    println!("{:-<98}", "");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10} {:>9}",
        "benchmark", "ABCD", "-PRE", "-GVN", "-cleanup", "range-only", "+IPA", "+VER"
    );
    println!("{:-<98}", "");
    let mut sums = [0.0f64; 7];
    let mut full_results = Vec::with_capacity(BENCHMARKS.len());
    for b in BENCHMARKS {
        let rf = evaluate(b, full);
        let f = rf.upper_removed_fraction() * 100.0;
        full_results.push(rf);
        let p = evaluate(b, no_pre).upper_removed_fraction() * 100.0;
        let g = evaluate(b, no_gvn).upper_removed_fraction() * 100.0;
        let c = evaluate(b, no_cleanup).upper_removed_fraction() * 100.0;
        let r = range_baseline(b, full) * 100.0;
        let ipa = evaluate(b, interproc).upper_removed_fraction() * 100.0;
        let ver = evaluate_with_versioning(b, full).upper_removed_fraction() * 100.0;
        sums[0] += f;
        sums[1] += p;
        sums[2] += g;
        sums[3] += c;
        sums[4] += r;
        sums[5] += ipa;
        sums[6] += ver;
        println!(
            "{:<18} {:>9.1}% {:>9.1}% {:>9.1}% {:>11.1}% {:>11.1}% {:>9.1}% {:>8.1}%",
            b.name, f, p, g, c, r, ipa, ver
        );
    }
    println!("{:-<98}", "");
    let n = BENCHMARKS.len() as f64;
    println!(
        "{:<18} {:>9.1}% {:>9.1}% {:>9.1}% {:>11.1}% {:>11.1}% {:>9.1}% {:>8.1}%",
        "AVERAGE",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n,
        sums[3] / n,
        sums[4] / n,
        sums[5] / n,
        sums[6] / n
    );
    println!();
    println!("Notes: the range baseline removes fully redundant checks only (the");
    println!("paper's §9 positioning); -cleanup shows how much ABCD relies on the");
    println!("host compiler's basic optimizations to canonicalize constraints;");
    println!("+IPA enables the closed-world interprocedural parameter facts that");
    println!("address the paper's stated intraprocedural limitation; +VER adds");
    println!("guarded function versioning (the [MMS98]-style code duplication the");
    println!("paper also lists as missing), which is unconditionally sound.");
    print_incident_summary(&full_results);

    abcd_bench::emit_cli_metrics(full);
}
