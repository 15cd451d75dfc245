//! Golden for the parameter-fact paths: interprocedural inference and
//! function versioning.
//!
//! `tests/golden/facts_runs.txt` pins one line per run over every
//! benchsuite kernel and every `abcd_loadgen::corpus(3, 24)` program:
//!
//! * `ipa` and `ipa+validate`: the module optimized with
//!   `interprocedural: true` (without and with translation validation),
//!   as FNV-1a digests of the optimized IR and of the deterministic
//!   `abcd-metrics` JSON, plus every function's `param_facts_used`;
//! * `version`: the module optimized under the default options and then
//!   passed through `version_functions(.., None, 0)`, as digests of the
//!   resulting module IR and of the `VersioningReport`.
//!
//! Any change to which facts the fixpoint verifies, how the analysis uses
//! them, or which guards versioning emits shows here.
//!
//! On a mismatch the test prints the recomputed file; after an intended
//! change to these paths, replace the golden file with that output.

use abcd::cache::fnv1a64;
use abcd::{module_metrics_json, version_functions, Optimizer, OptimizerOptions, RunInfo};
use abcd_ir::Module;
use std::fmt::Write as _;
use std::time::Duration;

const GOLDEN: &str = include_str!("../../../tests/golden/facts_runs.txt");

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

fn compile(src: &str) -> Module {
    abcd_frontend::compile(src).expect("golden program compiles")
}

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// `verify_ir` defaults to on in debug builds only, so it is pinned: the
/// golden must not depend on the build profile.
fn base() -> OptimizerOptions {
    OptimizerOptions {
        verify_ir: false,
        ..OptimizerOptions::default()
    }
}

/// One interprocedural run, rendered.
fn ipa(src: &str, validate: bool) -> String {
    let mut module = compile(src);
    let options = OptimizerOptions {
        interprocedural: true,
        validate,
        ..base()
    };
    let report = Optimizer::with_options(options)
        .with_threads(1)
        .optimize_module(&mut module, None);
    let metrics = module_metrics_json(&report, RunInfo::new(1, Duration::ZERO).deterministic());
    let facts: Vec<String> = report
        .functions
        .iter()
        .map(|f| f.param_facts_used.to_string())
        .collect();
    format!(
        "ir={} metrics={} facts={}",
        digest(&module.to_string()),
        digest(&metrics),
        facts.join(","),
    )
}

/// One default run followed by versioning, rendered.
fn version(src: &str) -> String {
    let mut module = compile(src);
    Optimizer::with_options(base())
        .with_threads(1)
        .optimize_module(&mut module, None);
    let report = version_functions(&mut module, None, 0);
    format!(
        "ir={} report={} versioned={}",
        digest(&module.to_string()),
        digest(&format!("{report:?}")),
        report.count(),
    )
}

fn recompute() -> String {
    let mut out = String::new();
    for (label, src) in programs() {
        let _ = writeln!(out, "{label} ipa {}", ipa(&src, false));
        let _ = writeln!(out, "{label} ipa+validate {}", ipa(&src, true));
        let _ = writeln!(out, "{label} version {}", version(&src));
    }
    out
}

#[test]
fn parameter_fact_paths_match_the_golden_runs() {
    let actual = recompute();
    if actual != GOLDEN {
        println!("---- recomputed tests/golden/facts_runs.txt ----\n{actual}---- end ----");
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
