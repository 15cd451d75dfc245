//! Differential guarantee of the parallel driver (PR: parallel batch
//! optimization): for every benchsuite program, optimizing with a worker
//! pool produces **byte-identical** IR, identical per-check outcomes, and
//! identical dynamic check counts to the sequential driver.

use abcd::{CheckOutcome, ModuleReport, Optimizer, OptimizerOptions};
use abcd_ir::{CheckKind, CheckSite, Module};
use abcd_vm::{ExecStats, Profile, Vm};

/// Canonical printed form of a module — the byte-identity witness.
fn dump(m: &Module) -> String {
    m.functions().map(|(_, f)| format!("{f}\n")).collect()
}

fn run_main(m: &Module) -> ExecStats {
    let mut vm = Vm::new(m);
    vm.call_by_name("main", &[]).expect("benchmark runs");
    *vm.stats()
}

/// Training run on the unoptimized module, as a JIT would have collected.
fn train(bench: &abcd_benchsuite::Benchmark) -> Profile {
    let m = bench.compile().expect("benchmark compiles");
    let mut vm = Vm::new(&m);
    vm.call_by_name("main", &[]).expect("training run");
    vm.into_profile()
}

type FunctionOutcomes = (
    std::sync::Arc<str>,
    Vec<(CheckSite, CheckKind, CheckOutcome)>,
);

fn outcomes(r: &ModuleReport) -> Vec<FunctionOutcomes> {
    r.functions
        .iter()
        .map(|f| (f.name.clone(), f.outcomes.clone()))
        .collect()
}

fn assert_equivalent(
    name: &str,
    threads: usize,
    options: OptimizerOptions,
    profile: Option<&Profile>,
    bench: &abcd_benchsuite::Benchmark,
) {
    let mut seq = bench.compile().unwrap();
    let seq_report = Optimizer::with_options(options).optimize_module(&mut seq, profile);

    let mut par = bench.compile().unwrap();
    let par_report = Optimizer::with_options(options)
        .with_threads(threads)
        .optimize_module(&mut par, profile);

    assert_eq!(
        dump(&seq),
        dump(&par),
        "{name}: IR differs between sequential and {threads}-thread runs"
    );
    assert_eq!(
        outcomes(&seq_report),
        outcomes(&par_report),
        "{name}: per-check outcomes differ at {threads} threads"
    );

    let s1 = run_main(&seq);
    let s2 = run_main(&par);
    assert_eq!(
        s1.dynamic_checks_total(),
        s2.dynamic_checks_total(),
        "{name}: dynamic check totals differ at {threads} threads"
    );
    assert_eq!(s1, s2, "{name}: dynamic stats differ at {threads} threads");
}

/// All 15 benchsuite programs, profile-driven (the configuration the
/// experiments use), at 2 and 4 workers.
#[test]
fn parallel_driver_is_byte_identical_on_benchsuite() {
    for bench in abcd_benchsuite::BENCHMARKS {
        let profile = train(bench);
        for threads in [2usize, 4] {
            assert_equivalent(
                bench.name,
                threads,
                OptimizerOptions::default(),
                Some(&profile),
                bench,
            );
        }
    }
}

/// Profile-less runs and the non-default pass mix must be deterministic
/// too (merge_checks exercises the §7.2 rewrite path).
#[test]
fn parallel_driver_matches_without_profile_and_with_merging() {
    let options = OptimizerOptions {
        merge_checks: true,
        ..OptimizerOptions::default()
    };
    for name in ["db", "jess", "biDirBubbleSort", "matmult"] {
        let Some(bench) = abcd_benchsuite::by_name(name) else {
            continue;
        };
        assert_equivalent(name, 3, options, None, bench);
    }
}

/// Interprocedural mode runs prepare and analyze as two parallel phases
/// around the sequential fact fixpoint; it must stay equivalent as well.
#[test]
fn parallel_driver_matches_interprocedural() {
    let options = OptimizerOptions {
        interprocedural: true,
        ..OptimizerOptions::default()
    };
    for name in ["db", "sieve", "array"] {
        let Some(bench) = abcd_benchsuite::by_name(name) else {
            continue;
        };
        assert_equivalent(name, 4, options, None, bench);
    }
}

/// The full fail-open layer — per-pass IR verification, translation
/// validation, solver fuel budgets — must not break parallel determinism:
/// a pool run stays byte-identical to the sequential one with every new
/// knob enabled at once.
#[test]
fn parallel_driver_matches_with_fail_open_layer_enabled() {
    let options = OptimizerOptions {
        verify_ir: true,
        validate: true,
        fuel_per_query: Some(64),
        fuel_per_function: Some(512),
        ..OptimizerOptions::default()
    };
    for name in ["db", "bytemark", "qsort", "dhrystone"] {
        let bench = abcd_benchsuite::by_name(name).unwrap();
        let profile = train(bench);
        assert_equivalent(name, 4, options, Some(&profile), bench);
    }
}

/// Thread counts beyond the function count (and 0 = "sequential") are
/// clamped, not crashed; reports still merge in function order.
#[test]
fn thread_count_edge_cases() {
    let bench = abcd_benchsuite::by_name("array").unwrap();
    for threads in [0usize, 1, 64] {
        assert_equivalent("array", threads, OptimizerOptions::default(), None, bench);
    }
}

/// Deterministic traces are part of the differential guarantee: with
/// timestamps zeroed, a pool run's `abcd-trace/4` document is
/// byte-identical to the sequential one after the header line (the header
/// legitimately embeds the thread count).
#[test]
fn parallel_trace_is_byte_identical_after_the_header() {
    for name in ["db", "sieve", "array", "qsort"] {
        let bench = abcd_benchsuite::by_name(name).unwrap();
        let mut seq = bench.compile().unwrap();
        let seq_report = Optimizer::new()
            .with_trace(true)
            .optimize_module(&mut seq, None);
        let mut par = bench.compile().unwrap();
        let par_report = Optimizer::new()
            .with_trace(true)
            .with_threads(4)
            .optimize_module(&mut par, None);
        let seq_trace = abcd::module_trace_jsonl(&seq_report, 1, true);
        let par_trace = abcd::module_trace_jsonl(&par_report, 4, true);
        let tail = |t: &str| t.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(
            tail(&seq_trace),
            tail(&par_trace),
            "{name}: trace spans differ between sequential and 4-thread runs"
        );
    }
}

/// The metrics JSON from a parallel run carries the worker count and a
/// measured wall time, alongside solver and memo counters.
#[test]
fn metrics_json_reports_parallel_run() {
    let bench = abcd_benchsuite::by_name("db").unwrap();
    let mut m = bench.compile().unwrap();
    let started = std::time::Instant::now();
    let report = Optimizer::new()
        .with_threads(2)
        .optimize_module(&mut m, None);
    let json = abcd::module_metrics_json(&report, abcd::RunInfo::new(2, started.elapsed()));
    assert!(json.starts_with("{\"schema\":\"abcd-metrics/8\""), "{json}");
    assert!(json.contains("\"threads\":2"), "{json}");
    assert!(json.contains("\"memo_hits\":"), "{json}");
    assert!(json.contains("\"graph\":"), "{json}");
    assert!(json.contains("\"times_us\":"), "{json}");
    // Solver effort is attributed: total steps appear in the totals object.
    assert!(
        json.contains(&format!("\"steps\":{}", report.steps())),
        "{json}"
    );
}
