//! Fault-injection suite (PR: fail-open optimizer): under any single
//! injected fault — a pass panic, forced solver-budget exhaustion, or a
//! deterministic constraint-graph corruption — the optimizer must still
//! produce a module that runs and is VM-differentially indistinguishable
//! from the unoptimized program. Fail open, never miscompile.

use abcd::{CheckOutcome, FaultPlan, Incident, ModuleReport, Optimizer, OptimizerOptions, Stage};
use abcd_ir::Module;

/// Every stage a `panic:FUNC:PASS` fault can target: those the driver
/// runs, `split_critical_edges` on.
fn driver_stages() -> impl Iterator<Item = Stage> {
    Stage::all().filter(|s| *s >= Stage::SplitCriticalEdges)
}

/// The full fail-open configuration: per-pass IR verification plus
/// translation validation, so a corrupted graph's wrong eliminations are
/// reinstated before the differential oracle ever sees them.
fn fail_open_options() -> OptimizerOptions {
    OptimizerOptions {
        verify_ir: true,
        validate: true,
        ..OptimizerOptions::default()
    }
}

fn optimize_with_plan(
    bench: &abcd_benchsuite::Benchmark,
    options: OptimizerOptions,
    plan: &str,
    threads: usize,
) -> (Module, ModuleReport) {
    let mut module = bench.compile().expect("benchmark compiles");
    let optimizer = Optimizer::with_options(options)
        .with_threads(threads)
        .with_fault_plan(FaultPlan::parse(plan).expect("plan parses"));
    let report = optimizer.optimize_module(&mut module, None);
    (module, report)
}

/// Canonical printed form of a module — the byte-identity witness.
fn dump(m: &Module) -> String {
    m.functions().map(|(_, f)| format!("{f}\n")).collect()
}

fn assert_clean(bench: &abcd_benchsuite::Benchmark, plan: &str, faulted: &Module) {
    let reference = bench.compile().unwrap();
    if let Some(div) = abcd::oracle::differential(&reference, faulted, "main") {
        panic!(
            "{name} under fault plan `{plan}` diverged from the unoptimized \
             program: {div}",
            name = bench.name
        );
    }
}

/// A panic injected into any pipeline stage of any function degrades to
/// "ship that function unoptimized": the module still runs and agrees with
/// the unoptimized reference, and the report carries a `PassPanic`
/// incident naming the pass.
#[test]
fn injected_pass_panics_are_contained_and_differentially_clean() {
    let mut fired: Vec<Stage> = Vec::new();
    for name in ["db", "qsort", "sieve"] {
        let bench = abcd_benchsuite::by_name(name).unwrap();
        for pass in driver_stages() {
            let plan = format!("panic:*:{pass}");
            let (module, report) = optimize_with_plan(bench, fail_open_options(), &plan, 1);
            let hit = report
                .incidents()
                .any(|i| matches!(i, Incident::PassPanic { pass: p, .. } if *p == pass));
            if hit {
                fired.push(pass);
                assert!(
                    report.degraded_incident_count() > 0,
                    "{name}: a pass panic must count as degraded"
                );
            } else {
                // Only stages that run conditionally may fail to trip the
                // fault: PRE runs only when a full proof fails first.
                assert_eq!(
                    pass,
                    Stage::Pre,
                    "{name}: no PassPanic incident recorded for `{plan}`"
                );
            }
            assert_clean(bench, &plan, &module);
        }
    }
    for pass in driver_stages() {
        assert!(
            fired.contains(&pass),
            "fault `panic:*:{pass}` never fired on any benchmark"
        );
    }
}

/// Forced budget exhaustion is the most conservative degradation: every
/// check stays in place, every analyzed site reports `Kept`, and the only
/// incidents are (non-degraded) `BudgetExhausted` ones.
#[test]
fn forced_fuel_exhaustion_keeps_every_check() {
    for name in ["db", "qsort", "bubbleSort"] {
        let bench = abcd_benchsuite::by_name(name).unwrap();
        let (module, report) = optimize_with_plan(bench, fail_open_options(), "fuel:*", 1);
        assert_eq!(
            report.checks_removed_fully(),
            0,
            "{name}: fuel exhaustion must never eliminate a check"
        );
        assert_eq!(report.checks_hoisted(), 0, "{name}: nor hoist one");
        assert!(
            report.incident_count() > 0,
            "{name}: exhaustion must be visible in the report"
        );
        for incident in report.incidents() {
            assert!(
                matches!(incident, Incident::BudgetExhausted { .. }),
                "{name}: unexpected incident {incident}"
            );
            assert!(
                !incident.is_degraded(),
                "{name}: running out of budget is not a malfunction"
            );
        }
        for f in &report.functions {
            for (site, _, outcome) in &f.outcomes {
                assert!(
                    matches!(outcome, CheckOutcome::Kept | CheckOutcome::Skipped),
                    "{name}/{fname}: site {site:?} escaped exhaustion as {outcome:?}",
                    fname = f.name
                );
            }
        }
        assert_clean(bench, "fuel:*", &module);
    }
}

/// Edge perturbation corrupts the constraint system itself — the one fault
/// that could silently miscompile. Per-pass verification rolls back
/// structurally bad transforms and translation validation reinstates any
/// elimination the clean graph cannot re-justify, so the shipped module
/// must agree with the unoptimized program for every seed.
#[test]
fn perturbed_constraint_graphs_never_ship_a_miscompilation() {
    for name in ["qsort", "mpeg", "dhrystone", "bytemark"] {
        let bench = abcd_benchsuite::by_name(name).unwrap();
        for seed in 0..8u64 {
            let plan = format!("edge:*:{seed}");
            let (module, _) = optimize_with_plan(bench, fail_open_options(), &plan, 1);
            assert_clean(bench, &plan, &module);
        }
    }
}

/// Panic isolation is per function: sabotaging `part`'s solver leaves the
/// other functions of qsort exactly as optimized as in a fault-free run.
#[test]
fn pass_panic_isolates_the_faulty_function() {
    let bench = abcd_benchsuite::by_name("qsort").unwrap();
    let (faulted_module, faulted) =
        optimize_with_plan(bench, fail_open_options(), "panic:part:solve", 1);
    let (_, clean) = optimize_with_plan(bench, fail_open_options(), "", 1);

    let find = |r: &ModuleReport, name: &str| {
        r.functions
            .iter()
            .find(|f| &*f.name == name)
            .cloned()
            .unwrap_or_else(|| panic!("no report for `{name}`"))
    };

    let part = find(&faulted, "part");
    assert_eq!(
        part.removed_fully(),
        0,
        "the panicking function must ship unoptimized"
    );
    assert!(
        part.incidents.iter().any(|i| matches!(
            i,
            Incident::PassPanic {
                pass: Stage::Solve,
                ..
            }
        )),
        "the panic must be attributed to the solve stage"
    );

    // A fault-free qsort does eliminate checks in `part` — the fault is
    // what suppressed them — while the untouched functions are unaffected.
    assert!(find(&clean, "part").removed_fully() > 0);
    for name in ["qsort", "main"] {
        let a = find(&faulted, name);
        let b = find(&clean, name);
        assert_eq!(
            a.outcomes, b.outcomes,
            "`{name}` was not sabotaged and must optimize identically"
        );
    }
    assert_clean(bench, "panic:part:solve", &faulted_module);
}

/// Faults are keyed by function name, never by thread or timing, so a
/// sabotaged parallel run stays byte-identical to the sequential one.
#[test]
fn faulted_runs_stay_byte_identical_in_parallel() {
    for (name, plan) in [
        ("qsort", "panic:*:solve"),
        ("mpeg", "edge:*:2"),
        ("db", "fuel:*"),
        ("bytemark", "edge:*:0,panic:main:pre"),
    ] {
        let bench = abcd_benchsuite::by_name(name).unwrap();
        let (seq_module, seq) = optimize_with_plan(bench, fail_open_options(), plan, 1);
        let (par_module, par) = optimize_with_plan(bench, fail_open_options(), plan, 4);
        assert_eq!(
            dump(&seq_module),
            dump(&par_module),
            "{name}: IR differs between sequential and parallel runs under `{plan}`"
        );
        let outcomes = |r: &ModuleReport| {
            r.functions
                .iter()
                .map(|f| (f.name.clone(), f.outcomes.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            outcomes(&seq),
            outcomes(&par),
            "{name}: outcomes differ between sequential and parallel runs under `{plan}`"
        );
    }
}

/// Real (tiny) fuel budgets — not just the forced-exhaustion fault — also
/// degrade conservatively: fewer or equal eliminations, never a panic, and
/// a differentially clean module.
#[test]
fn tiny_real_budgets_degrade_conservatively() {
    let bench = abcd_benchsuite::by_name("bubbleSort").unwrap();
    let unlimited = optimize_with_plan(bench, fail_open_options(), "", 1).1;
    for fuel in [0u64, 1, 4, 16] {
        let options = OptimizerOptions {
            fuel_per_query: Some(fuel),
            ..fail_open_options()
        };
        let (module, report) = optimize_with_plan(bench, options, "", 1);
        assert!(
            report.checks_removed_fully() <= unlimited.checks_removed_fully(),
            "fuel {fuel}: budgets can only lose eliminations"
        );
        assert_clean(bench, "(fuel budget)", &module);
    }
}
