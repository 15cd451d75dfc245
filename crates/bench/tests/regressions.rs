//! Regression locks on the headline experiment numbers: if an algorithm
//! change silently degrades Figure 6 or the §8 effort bound, these fail
//! long before anyone re-reads `EXPERIMENTS.md`.

use abcd::OptimizerOptions;
use abcd_bench::{evaluate, evaluate_with_versioning};

#[test]
fn bidir_bubble_sort_stays_fully_optimized() {
    let b = abcd_benchsuite::by_name("biDirBubbleSort").unwrap();
    let r = evaluate(b, OptimizerOptions::default());
    assert_eq!(
        r.upper_removed_fraction(),
        1.0,
        "the paper's Figure 1 claim regressed"
    );
    assert_eq!(r.lower_removed_fraction(), 1.0);
    assert_eq!(r.optimized.dynamic_checks_total(), 0);
}

#[test]
fn steps_per_check_stays_in_the_papers_bound() {
    for name in ["db", "jess", "bubbleSort", "array"] {
        let b = abcd_benchsuite::by_name(name).unwrap();
        let r = evaluate(b, OptimizerOptions::default());
        assert!(
            r.report.steps_per_check() < 10.0,
            "{name}: {} steps/check (paper: fewer than 10)",
            r.report.steps_per_check()
        );
        // The separate PRE pass may add work for failed checks, but never
        // more than a small multiple of the primary traversal.
        assert!(
            r.report.pre_steps() <= 4 * r.report.steps().max(1),
            "{name}: PRE pass exploded: {} vs {}",
            r.report.pre_steps(),
            r.report.steps()
        );
    }
}

#[test]
fn hanoi_remains_the_hard_case_intraprocedurally() {
    let b = abcd_benchsuite::by_name("hanoi").unwrap();
    let r = evaluate(b, OptimizerOptions::default());
    let frac = r.upper_removed_fraction();
    assert!(
        frac > 0.15 && frac < 0.5,
        "hanoi moved out of its expected band: {frac}"
    );
    // …and versioning is what rescues it.
    let v = evaluate_with_versioning(b, OptimizerOptions::default());
    assert!(
        v.upper_removed_fraction() > frac + 0.15,
        "versioning no longer helps hanoi: {} vs {}",
        v.upper_removed_fraction(),
        frac
    );
}

#[test]
fn every_benchmark_shows_positive_speedup() {
    for b in abcd_benchsuite::BENCHMARKS {
        let r = evaluate(b, OptimizerOptions::default());
        assert!(
            r.speedup() > 1.0,
            "{}: speedup {} not positive",
            b.name,
            r.speedup()
        );
        assert!(
            r.upper_removed_fraction() >= 0.15,
            "{}: only {:.1}% upper checks removed",
            b.name,
            r.upper_removed_fraction() * 100.0
        );
    }
}

#[test]
fn bytemark_keeps_the_largest_partial_redundancy() {
    let mut best_name = "";
    let mut best = 0.0f64;
    for b in abcd_benchsuite::BENCHMARKS {
        let r = evaluate(b, OptimizerOptions::default());
        let frac = r.static_partial_fraction();
        if frac > best {
            best = frac;
            best_name = b.name;
        }
    }
    assert_eq!(
        best_name, "bytemark",
        "the paper's partial-redundancy outlier moved (now {best_name} at {best:.2})"
    );
}

/// Suite-wide solver-step total under the default options, summed over
/// `FunctionReport::steps` — deterministic, so the gate below pins it
/// exactly to catch traversal regressions before the wall-clock numbers
/// in `BENCH_pipeline.json` drift.
fn suite_steps() -> u64 {
    use abcd::Optimizer;
    let mut steps = 0u64;
    for b in abcd_benchsuite::BENCHMARKS {
        let mut m = b.compile().unwrap();
        let report = Optimizer::new().optimize_module(&mut m, None);
        steps += report.functions.iter().map(|f| f.steps).sum::<u64>();
    }
    steps
}

#[test]
fn demand_step_count_stays_flat() {
    // Any solver change that makes the demand prover traverse more (or
    // less) moves this total; `tools/bench_gate.py` pins the same number
    // in BENCH_pipeline.json.
    assert_eq!(suite_steps(), 2314, "demand prover suite steps moved");
}
