//! Integration tests for the paper's §7 extensions: the on-demand GVN
//! congruence hook (§7.1), the lower-bound dual and unsigned check merging
//! (§7.2), and the demand-driven hot-check selection.

use abcd::{CheckOutcome, Optimizer, OptimizerOptions};
use abcd_frontend::compile;
use abcd_vm::{RtVal, Vm};

/// §7.1: the check on `row2[i]` is only provable because `row1` and `row2`
/// are loads of the same slot of `m` — value-numbering congruence that no
/// rewriting CSE supplies (loads read memory).
const GVN_HOOK: &str = r#"
    fn f(m: int[][], k: int, i: int) -> int {
        let row1: int[] = m[k];
        let n: int = row1.length;
        let row2: int[] = m[k];
        if (i >= 0) {
            if (i < n) {
                return row2[i];
            }
        }
        return 0;
    }
"#;

#[test]
fn gvn_hook_proves_via_congruent_array() {
    let with_hook = {
        let mut m = compile(GVN_HOOK).unwrap();
        Optimizer::new().optimize_module(&mut m, None)
    };
    let without_hook = {
        let mut m = compile(GVN_HOOK).unwrap();
        let opts = OptimizerOptions {
            gvn_hook: false,
            ..OptimizerOptions::default()
        };
        Optimizer::with_options(opts).optimize_module(&mut m, None)
    };
    // The hook removes strictly more upper checks.
    assert!(
        with_hook.checks_removed_fully() > without_hook.checks_removed_fully(),
        "with: {:#?}\nwithout: {:#?}",
        with_hook.functions[0].outcomes,
        without_hook.functions[0].outcomes
    );
    // And at least one removal is attributed to congruence.
    let via = with_hook.functions[0]
        .outcomes
        .iter()
        .filter(|(_, _, o)| {
            matches!(
                o,
                CheckOutcome::RemovedFully {
                    via_congruence: true,
                    ..
                }
            )
        })
        .count();
    assert!(via >= 1, "{:#?}", with_hook.functions[0].outcomes);
}

#[test]
fn gvn_hook_result_is_sound() {
    let baseline = compile(GVN_HOOK).unwrap();
    let mut optimized = compile(GVN_HOOK).unwrap();
    Optimizer::new().optimize_module(&mut optimized, None);

    for (k, i) in [(0i64, 0i64), (1, 2), (1, 5), (0, -1)] {
        let run = |m: &abcd_ir::Module| {
            let mut vm = Vm::new(m);
            // m = [[10, 20, 30], [40, 50, 60]]
            let r0 = vm.alloc_int_array(&[10, 20, 30]);
            let r1 = vm.alloc_int_array(&[40, 50, 60]);
            let outer = vm.alloc_ref_array(&[r0, r1]);
            vm.call_by_name("f", &[outer, RtVal::Int(k), RtVal::Int(i)])
        };
        let a = run(&baseline);
        let b = run(&optimized);
        match (&a, &b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "k={k} i={i}"),
            (Err(e1), Err(e2)) => assert_eq!(
                format!("{:?}", e1.kind),
                format!("{:?}", e2.kind),
                "k={k} i={i}"
            ),
            other => panic!("divergence k={k} i={i}: {other:?}"),
        }
    }
}

#[test]
fn merged_unsigned_checks_preserve_semantics_and_save_cycles() {
    let src = r#"
        fn get(a: int[], i: int) -> int { return a[i]; }
    "#;
    let plain = compile(src).unwrap();
    let mut merged = compile(src).unwrap();
    let opts = OptimizerOptions {
        merge_checks: true,
        ..OptimizerOptions::default()
    };
    let report = Optimizer::with_options(opts).optimize_module(&mut merged, None);
    assert_eq!(report.functions[0].checks_merged, 1);

    // In-bounds: same result, fewer check executions.
    let mut vm1 = Vm::new(&plain);
    let a1 = vm1.alloc_int_array(&[9, 8, 7]);
    assert_eq!(
        vm1.call_by_name("get", &[a1, RtVal::Int(2)]).unwrap(),
        Some(RtVal::Int(7))
    );
    let mut vm2 = Vm::new(&merged);
    let a2 = vm2.alloc_int_array(&[9, 8, 7]);
    assert_eq!(
        vm2.call_by_name("get", &[a2, RtVal::Int(2)]).unwrap(),
        Some(RtVal::Int(7))
    );
    assert_eq!(vm1.stats().dynamic_checks_total(), 2);
    assert_eq!(vm2.stats().dynamic_checks_total(), 1);
    assert!(vm2.stats().cycles < vm1.stats().cycles);

    // Out-of-bounds on both sides still traps.
    for bad in [-1i64, 3] {
        let mut vm = Vm::new(&merged);
        let a = vm.alloc_int_array(&[9, 8, 7]);
        assert!(
            vm.call_by_name("get", &[a, RtVal::Int(bad)]).is_err(),
            "{bad}"
        );
    }
}

#[test]
fn hot_threshold_skips_cold_checks() {
    let src = r#"
        fn f(a: int[]) -> int {
            let s: int = 0;
            for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
            // cold tail access, executed once
            if (a.length > 0) { s = s + a[0]; }
            return s;
        }
        fn main() -> int {
            let a: int[] = new int[64];
            let t: int = 0;
            for (let r: int = 0; r < 10; r = r + 1) { t = t + f(a); }
            return t;
        }
    "#;
    // Train.
    let train = compile(src).unwrap();
    let mut vm = Vm::new(&train);
    vm.call_by_name("main", &[]).unwrap();
    let profile = vm.into_profile();

    let mut module = compile(src).unwrap();
    let opts = OptimizerOptions {
        hot_threshold: Some(100),
        ..OptimizerOptions::default()
    };
    let report = Optimizer::with_options(opts).optimize_module(&mut module, Some(&profile));
    let f_report = report.functions.iter().find(|fr| &*fr.name == "f").unwrap();
    let skipped = f_report
        .outcomes
        .iter()
        .filter(|(_, _, o)| matches!(o, CheckOutcome::Skipped))
        .count();
    assert!(skipped >= 2, "{:#?}", f_report.outcomes); // the cold a[0] pair
    assert!(f_report.removed_fully() >= 2); // the hot loop pair
}

/// Hot-threshold edge: with no profile at all, a threshold is inert —
/// everything is analyzed and the output is byte-identical to the
/// unthresholded run.
#[test]
fn hot_threshold_without_profile_is_inert() {
    let src = r#"
        fn f(a: int[]) -> int {
            let s: int = 0;
            for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
            return s;
        }
        fn main() -> int { return 0; }
    "#;
    let baseline = {
        let mut m = compile(src).unwrap();
        Optimizer::new().optimize_module(&mut m, None);
        m.to_string()
    };
    let mut m = compile(src).unwrap();
    let opts = OptimizerOptions {
        hot_threshold: Some(1_000_000),
        ..OptimizerOptions::default()
    };
    let report = Optimizer::with_options(opts).optimize_module(&mut m, None);
    assert_eq!(m.to_string(), baseline);
    assert!(
        !report
            .functions
            .iter()
            .flat_map(|f| &f.outcomes)
            .any(|(_, _, o)| matches!(o, CheckOutcome::Skipped)),
        "nothing may be skipped without a profile"
    );
}

/// Hot-threshold edge: threshold 0 means every site (even never-executed
/// ones) counts as hot — byte-identical to the unthresholded run.
#[test]
fn hot_threshold_zero_analyzes_everything() {
    let src = r#"
        fn f(a: int[]) -> int {
            let s: int = 0;
            for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
            return s;
        }
        fn main() -> int {
            let a: int[] = new int[4];
            return f(a);
        }
    "#;
    let train = compile(src).unwrap();
    let mut vm = Vm::new(&train);
    vm.call_by_name("main", &[]).unwrap();
    let profile = vm.into_profile();

    let baseline = {
        let mut m = compile(src).unwrap();
        Optimizer::new().optimize_module(&mut m, Some(&profile));
        m.to_string()
    };
    let mut m = compile(src).unwrap();
    let opts = OptimizerOptions {
        hot_threshold: Some(0),
        ..OptimizerOptions::default()
    };
    let report = Optimizer::with_options(opts).optimize_module(&mut m, Some(&profile));
    assert_eq!(m.to_string(), baseline);
    assert!(report.checks_removed_fully() > 0);
}

/// Hot-threshold edge: when every check in the module is cold, the whole
/// pipeline is skipped and the module ships byte-identical to its input,
/// with every check reported `Skipped`.
#[test]
fn all_cold_module_is_byte_identical_to_input() {
    let src = r#"
        fn f(a: int[]) -> int {
            let s: int = 0;
            for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
            return s;
        }
        fn main() -> int {
            let a: int[] = new int[2];
            return f(a);
        }
    "#;
    let train = compile(src).unwrap();
    let mut vm = Vm::new(&train);
    vm.call_by_name("main", &[]).unwrap();
    let profile = vm.into_profile();

    let mut m = compile(src).unwrap();
    let input = m.to_string();
    let opts = OptimizerOptions {
        hot_threshold: Some(1_000_000), // hotter than any trained count
        ..OptimizerOptions::default()
    };
    let report = Optimizer::with_options(opts).optimize_module(&mut m, Some(&profile));
    assert_eq!(
        m.to_string(),
        input,
        "all-cold functions must ship untouched"
    );
    assert_eq!(report.checks_removed_fully(), 0);
    for f in &report.functions {
        for (site, kind, outcome) in &f.outcomes {
            assert!(
                matches!(outcome, CheckOutcome::Skipped),
                "{}: {site:?} {kind:?} {outcome:?}",
                f.name
            );
        }
    }
}

#[test]
fn upper_only_mode_keeps_lower_checks() {
    let src = "fn f(a: int[]) -> int {
        let s: int = 0;
        for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
        return s;
    }";
    let mut module = compile(src).unwrap();
    let opts = OptimizerOptions {
        lower: false,
        ..OptimizerOptions::default()
    };
    Optimizer::with_options(opts).optimize_module(&mut module, None);
    let id = module.function_by_name("f").unwrap();
    let (checks, _, _) = module.function(id).count_checks();
    assert_eq!(checks, 1); // the lower check remains
}
