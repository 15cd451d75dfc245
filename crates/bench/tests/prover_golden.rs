//! Observable-behaviour golden for the provers.
//!
//! `tests/golden/prover_runs.txt` pins one line per optimizer run over
//! every benchsuite kernel and six `abcd_loadgen::corpus(3, 24)` programs
//! (one per helper count), each without a profile and with its training
//! profile (collected as `abcd_bench::evaluate` does: `main` of the
//! baseline module on a fresh VM), each under the default options, under
//! `validate: true` and under `fuel_per_query: Some(8)`.
//!
//! Each run records FNV-1a digests of the optimized IR, of the
//! deterministic `abcd-metrics` JSON and of the deterministic
//! `abcd-trace` JSONL (which carries every `demandProve` event of every
//! primary and PRE query, in order), plus the module's primary and PRE
//! step totals. Any change to what the demand prover or its PRE mode
//! decides, how much it walks, what it memoizes or what it records shows
//! here.
//!
//! On a mismatch the test prints the recomputed file; after an intended
//! change to the provers' observables, replace the golden file with that
//! output.

use abcd::cache::fnv1a64;
use abcd::{module_metrics_json, module_trace_jsonl, Optimizer, OptimizerOptions, RunInfo};
use abcd_bench::baseline_options;
use abcd_ir::Module;
use abcd_vm::{Profile, Vm};
use std::fmt::Write as _;
use std::time::Duration;

const GOLDEN: &str = include_str!("../../../tests/golden/prover_runs.txt");

/// Every program the golden covers, by a stable label.
fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|b| (b.name.to_string(), b.source.to_string()))
        .collect();
    // One program per helper count of the corpus shape (1 to 6 helpers).
    let corpus = abcd_loadgen::corpus(3, 24);
    for i in [0, 4, 8, 12, 16, 23] {
        out.push((format!("corpus{i}"), corpus[i].clone()));
    }
    out
}

fn compile(src: &str) -> Module {
    abcd_frontend::compile(src).expect("golden program compiles")
}

/// The option sets each program runs under. `verify_ir` defaults to on in
/// debug builds only, so it is pinned: the golden must not depend on the
/// build profile.
fn option_sets() -> [(&'static str, OptimizerOptions); 3] {
    let base = OptimizerOptions {
        verify_ir: false,
        ..OptimizerOptions::default()
    };
    [
        ("default", base),
        (
            "validate",
            OptimizerOptions {
                validate: true,
                ..base
            },
        ),
        (
            "fuel8",
            OptimizerOptions {
                fuel_per_query: Some(8),
                ..base
            },
        ),
    ]
}

/// The training run as `abcd_bench::evaluate` makes it: `main` of the
/// module under the baseline options (every check kept).
fn train(src: &str) -> Profile {
    let mut baseline = compile(src);
    let options = baseline_options(option_sets()[0].1);
    Optimizer::with_options(options).optimize_module(&mut baseline, None);
    let mut vm = Vm::new(&baseline);
    vm.call_by_name("main", &[])
        .expect("training run completes");
    vm.into_profile()
}

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// Optimizes `src` once untraced and once traced, and renders the run.
fn run(src: &str, options: OptimizerOptions, profile: Option<&Profile>) -> String {
    let mut module = compile(src);
    let report = Optimizer::with_options(options)
        .with_threads(1)
        .optimize_module(&mut module, profile);
    let metrics = module_metrics_json(&report, RunInfo::new(1, Duration::ZERO).deterministic());

    let mut traced_module = compile(src);
    let traced = Optimizer::with_options(options)
        .with_threads(1)
        .with_trace(true)
        .optimize_module(&mut traced_module, profile);
    let trace = module_trace_jsonl(&traced, 1, true);
    // Tracing only records: the traced run must decide and walk the same.
    assert_eq!(traced_module.to_string(), module.to_string());
    assert_eq!(
        (traced.steps(), traced.pre_steps()),
        (report.steps(), report.pre_steps())
    );

    format!(
        "ir={} metrics={} trace={} steps={} pre_steps={}",
        digest(&module.to_string()),
        digest(&metrics),
        digest(&trace),
        report.steps(),
        report.pre_steps(),
    )
}

fn recompute() -> String {
    let mut out = String::new();
    for (label, src) in programs() {
        let profile = train(&src);
        for (profile_label, profile) in [("none", None), ("train", Some(&profile))] {
            for (options_label, options) in option_sets() {
                let _ = writeln!(
                    out,
                    "{label} {profile_label} {options_label} {}",
                    run(&src, options, profile)
                );
            }
        }
    }
    out
}

#[test]
fn prover_observables_match_the_golden_runs() {
    let actual = recompute();
    if actual != GOLDEN {
        println!("---- recomputed tests/golden/prover_runs.txt ----\n{actual}---- end ----");
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
