//! Experiment A1 (ablation, beyond the paper's tables but grounded in its
//! §9 comparisons): ABCD vs. the exhaustive value-range baseline, and ABCD
//! with individual features disabled — PRE (§6), the GVN hook (§7.1), and
//! the pre-cleanup "basic set" — and with interprocedural parameter facts
//! added, together with that extension's static size and model cycles.
//!
//! Run with: `cargo run --release -p abcd-bench --bin table_ablation`

use abcd::{Optimizer, OptimizerOptions, Stage};
use abcd_bench::{evaluate, print_incident_summary};
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
    println!("{:-<88}", "");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "benchmark", "ABCD", "-PRE", "-GVN", "-cleanup", "range-only", "+IPA"
    );
    println!("{:-<88}", "");
    let mut sums = [0.0f64; 6];
    let mut full_results = Vec::with_capacity(BENCHMARKS.len());
    let mut ipa_results = Vec::with_capacity(BENCHMARKS.len());
    for b in BENCHMARKS {
        let rf = evaluate(b, full);
        let ri = evaluate(b, interproc);
        let row = [
            rf.upper_removed_fraction() * 100.0,
            evaluate(b, no_pre).upper_removed_fraction() * 100.0,
            evaluate(b, no_gvn).upper_removed_fraction() * 100.0,
            evaluate(b, no_cleanup).upper_removed_fraction() * 100.0,
            range_baseline(b, full) * 100.0,
            ri.upper_removed_fraction() * 100.0,
        ];
        full_results.push(rf);
        ipa_results.push(ri);
        for (sum, x) in sums.iter_mut().zip(row) {
            *sum += x;
        }
        print_row(b.name, row);
    }
    println!("{:-<88}", "");
    let n = BENCHMARKS.len() as f64;
    print_row("AVERAGE", sums.map(|s| s / n));
    println!();
    println!("Notes: the range baseline removes fully redundant checks only (the");
    println!("paper's §9 positioning); -cleanup shows how much ABCD relies on the");
    println!("host compiler's basic optimizations to canonicalize constraints;");
    println!("+IPA adds interprocedural parameter facts, verified at every call");
    println!("site, that address the paper's stated intraprocedural limitation.");
    println!("Each function whose facts pay gets a check-free fast body for the");
    println!("module's own calls and a guarded entry, the [MMS98]-style code");
    println!("duplication the paper lists as missing, for every other caller.");

    println!();
    println!("+IPA against ABCD alone: static size (instructions) and model cycles");
    println!("{:-<88}", "");
    println!(
        "{:<18} {:>10} {:>10} {:>8} {:>12} {:>12} {:>9}",
        "benchmark", "size", "+IPA", "growth", "cycles", "+IPA", "ratio"
    );
    println!("{:-<88}", "");
    let (mut growth_sum, mut ratio_sum) = (0.0, 0.0);
    for (rf, ri) in full_results.iter().zip(&ipa_results) {
        let (size, ipa_size) = (rf.optimized_size, ri.optimized_size);
        let (cycles, ipa_cycles) = (rf.optimized.cycles, ri.optimized.cycles);
        let growth = (ipa_size as f64 / size as f64 - 1.0) * 100.0;
        let ratio = ipa_cycles as f64 / cycles as f64;
        growth_sum += growth;
        ratio_sum += ratio;
        let name = rf.name;
        println!("{name:<18} {size:>10} {ipa_size:>10} {growth:>7.1}% {cycles:>12} {ipa_cycles:>12} {ratio:>9.3}");
    }
    println!("{:-<88}", "");
    let (growth, ratio) = (growth_sum / n, ratio_sum / n);
    println!("{:<18}{:22} {growth:>7.1}%{ratio:>36.3}", "AVERAGE", "");
    print_incident_summary(&full_results);

    abcd_bench::emit_cli_metrics(full);
}

/// One row of the removal table: a name and six percentages.
fn print_row(name: &str, row: [f64; 6]) {
    let [f, p, g, c, r, ipa] = row;
    println!("{name:<18} {f:>9.1}% {p:>9.1}% {g:>9.1}% {c:>11.1}% {r:>11.1}% {ipa:>9.1}%");
}
