//! Trap-semantics coverage (PR: fail-open optimizer): optimization must
//! preserve *failure* behavior exactly — which access traps, with which
//! variant and observable data — not just the happy path. The VM
//! differential oracle is the witness, and the last test shows the oracle
//! has teeth: a hand-falsified "optimization" (deleting an unprovable
//! check) is reported as a divergence.

use abcd::oracle::{differential, run_entry, Divergence};
use abcd::{Optimizer, OptimizerOptions};
use abcd_ir::{InstKind, Module};
use abcd_vm::{RtVal, TrapKind};

fn optimized(source: &str) -> (Module, abcd::ModuleReport) {
    let mut module = abcd_frontend::compile(source).expect("program compiles");
    let report = Optimizer::with_options(OptimizerOptions {
        verify_ir: true,
        validate: true,
        ..OptimizerOptions::default()
    })
    .optimize_module(&mut module, None);
    (module, report)
}

fn assert_preserved(source: &str) -> Module {
    let reference = abcd_frontend::compile(source).unwrap();
    let (module, _) = optimized(source);
    if let Some(div) = differential(&reference, &module, "main") {
        panic!("optimization changed observable behavior: {div}\nsource:\n{source}");
    }
    module
}

/// Boundary accesses around both ends of an array: the first and last
/// element are fine; one past either end traps — identically before and
/// after optimization, including the trap's index/length data.
#[test]
fn boundary_accesses_trap_identically() {
    // In bounds: a[0] and a[len-1].
    let module = assert_preserved(
        "fn main() -> int {
             let a: int[] = new int[4];
             a[0] = 7;
             a[a.length - 1] = 9;
             return a[0] + a[3];
         }",
    );
    assert!(run_entry(&module, "main").result.is_ok());

    // One past the end: a[len].
    let module = assert_preserved(
        "fn main() -> int {
             let a: int[] = new int[4];
             let i: int = a.length;
             return a[i];
         }",
    );
    let trap = run_entry(&module, "main").result.unwrap_err();
    assert!(
        matches!(
            trap.kind,
            TrapKind::BoundsCheckFailed {
                index: 4,
                len: 4,
                ..
            }
        ),
        "expected upper-bound trap, got {:?}",
        trap.kind
    );

    // One before the start: a[-1].
    let module = assert_preserved(
        "fn main() -> int {
             let a: int[] = new int[4];
             let i: int = 0 - 1;
             return a[i];
         }",
    );
    let trap = run_entry(&module, "main").result.unwrap_err();
    assert!(
        matches!(
            trap.kind,
            TrapKind::BoundsCheckFailed {
                index: -1,
                len: 4,
                ..
            }
        ),
        "expected lower-bound trap, got {:?}",
        trap.kind
    );
}

/// A loop that overruns by one (`i <= length`): ABCD correctly refuses to
/// remove the check, and the retained check traps at exactly the same
/// iteration with the same data as in the unoptimized program.
#[test]
fn retained_checks_preserve_the_trapping_iteration() {
    let source = "fn main() -> int {
             let a: int[] = new int[8];
             let s: int = 0;
             for (let i: int = 0; i <= a.length; i = i + 1) {
                 s = s + a[i];
             }
             return s;
         }";
    let module = assert_preserved(source);
    let trap = run_entry(&module, "main").result.unwrap_err();
    assert!(
        matches!(
            trap.kind,
            TrapKind::BoundsCheckFailed {
                index: 8,
                len: 8,
                ..
            }
        ),
        "got {:?}",
        trap.kind
    );
}

/// The §6 compare/trap split under an *actually failing* hoisted check: the
/// compensating `SpecCheck` sets the flag, and the demoted residual
/// `TrapIfFlagged` re-validates before trapping — so the program still
/// traps with full bounds-check fidelity (variant, index, length) even
/// though the hot-path check was hoisted out of the loop.
#[test]
fn hoisted_checks_keep_trap_fidelity() {
    // The §6 shape from the paper (unknown bound `n` feeding a scanned
    // limit), driven past the end of the array so the hoisted check fails.
    let source = "fn scan(a: int[], n: int) -> int {
             let limit: int = n;
             let st: int = 0 - 1;
             let s: int = 0;
             while (st < limit) {
                 st = st + 1;
                 limit = limit - 1;
                 for (let j: int = st; j < limit; j = j + 1) {
                     s = s + a[j];
                 }
             }
             return s;
         }
         fn main() -> int {
             let a: int[] = new int[4];
             return scan(a, 100);
         }";
    let reference = abcd_frontend::compile(source).unwrap();
    let (module, report) = optimized(source);
    assert!(
        report.checks_hoisted() > 0,
        "the loop-invariant check was expected to be PRE-hoisted"
    );
    assert!(differential(&reference, &module, "main").is_none());
    let trap = run_entry(&module, "main").result.unwrap_err();
    assert!(
        matches!(
            trap.kind,
            TrapKind::BoundsCheckFailed {
                index: 4,
                len: 4,
                ..
            }
        ),
        "residual trap lost fidelity: {:?}",
        trap.kind
    );
}

/// Recursion runs on the interpreter's frame stack, not the host's, so the
/// call-depth limit (10,000) is what stops it, even on a 2 MiB thread (the
/// default size of a spawned thread). `main` runs at depth 0, so `f(9_999)`
/// reaches depth 10,000 and returns, and `f(10_000)` goes one deeper and
/// traps — before and after optimization alike.
#[test]
fn deep_recursion_traps_at_the_depth_limit_not_the_host_stack() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            for n in [9_999, 10_000] {
                let source = format!(
                    "fn f(n: int) -> int {{ if (n <= 0) {{ return 0; }} return f(n - 1) + 1; }}
                     fn main() -> int {{ return f({n}); }}"
                );
                let reference = abcd_frontend::compile(&source).unwrap();
                let module = assert_preserved(&source);
                let f = reference.function_by_name("f").unwrap();
                for m in [&reference, &module] {
                    let result = run_entry(m, "main").result;
                    if n == 9_999 {
                        assert_eq!(result, Ok(Some(RtVal::Int(9_999))));
                    } else {
                        let trap = result.unwrap_err();
                        assert_eq!(trap.kind, TrapKind::CallDepthExceeded);
                        assert_eq!(trap.func, f);
                    }
                }
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

/// A self-looping entry block reaches the optimizer from IR text (`mjc`
/// and abcdd's `ir` field). CFG normalization moves the entry's code into a
/// fresh block, so the loop's branch πs land on split edges instead of the
/// top of the entry, where they would read values defined later in the
/// block and assert their guard on the function-entry path. The optimized
/// module stays well-formed and traps exactly where the original does.
#[test]
fn self_looping_entry_keeps_its_trap() {
    let text = "func @main(v0: int) -> int {
bb0:
    v1: int = const 3
    v2: int[] = newarray int, v1
    v3: int = const 0
    v4: bool = cmp.lt v0, v3
    br v4, bb0, bb1
bb1:
    check.upper v2[v0] @ck0
    v5: int = load v2[v0]
    ret v5
}
";
    let reference = abcd_ir::parse_module(text).expect("IR parses");
    let mut module = reference.clone();
    let report = Optimizer::with_options(OptimizerOptions {
        verify_ir: true,
        validate: true,
        ..OptimizerOptions::default()
    })
    .optimize_module(&mut module, None);
    assert!(report.incidents().next().is_none(), "{report:?}");
    for (_, func) in module.functions() {
        abcd_ir::verify_function(func, Some(&module)).expect("optimized IR verifies");
        abcd_ssa::verify_ssa(func).expect("optimized IR is in SSA form");
    }
    for m in [&reference, &module] {
        let trap = abcd_vm::Vm::new(m)
            .call_by_name("main", &[RtVal::Int(5)])
            .expect_err("index 5 of a 3-element array traps");
        assert!(
            matches!(
                trap.kind,
                TrapKind::BoundsCheckFailed {
                    site,
                    index: 5,
                    len: 3,
                } if site.index() == 0
            ),
            "expected bounds check ck0 to fail, got {:?}",
            trap.kind
        );
    }
}

/// `f`'s two array parameters have equal lengths at its only call, so the
/// interprocedural fixpoint keeps both `LenLe { a, b }` and `LenLe { a: b,
/// b: a }`, and the analysis of `f` assumes both. Together they close the
/// cycle len(a) → len(b) → len(a), which passes no φ: §4's harmless
/// cycles all do, so this one bounds nothing. The check on the unrelated
/// array `c` must stay, and trap as `bounds check ck1` whether `main`
/// calls `f` or a caller outside the module does, with arrays of unequal
/// length.
#[test]
fn equal_length_facts_prove_nothing_about_a_third_array() {
    let source = "fn f(a: int[], b: int[], i: int) -> int {
             let c: int[] = new int[3];
             if (i >= 0) { if (i < a.length) { return c[i]; } }
             return 0;
         }
         fn main() -> int { return f(new int[10], new int[10], 9); }";
    let expect_ck1 = |trap: abcd_vm::Trap, mode: &str| {
        assert!(
            matches!(
                trap.kind,
                TrapKind::BoundsCheckFailed {
                    site,
                    index: 9,
                    len: 3,
                } if site.index() == 1
            ),
            "{mode}: expected bounds check ck1 to fail, got {:?}",
            trap.kind
        );
    };
    let reference = abcd_frontend::compile(source).unwrap();
    expect_ck1(
        run_entry(&reference, "main").result.unwrap_err(),
        "reference",
    );

    let ipa = interprocedural(source);
    expect_ck1(run_entry(&ipa, "main").result.unwrap_err(), "--ipa");
    let mut vm = abcd_vm::Vm::new(&ipa);
    let (a, b) = (vm.alloc_int_array(&[0; 10]), vm.alloc_int_array(&[0; 2]));
    let trap = vm.call_by_name("f", &[a, b, RtVal::Int(9)]).unwrap_err();
    expect_ck1(trap, "--ipa, f called directly");
}

/// `source` optimized with interprocedural parameter facts.
fn interprocedural(source: &str) -> Module {
    let mut module = abcd_frontend::compile(source).expect("program compiles");
    Optimizer::with_options(OptimizerOptions {
        interprocedural: true,
        verify_ir: true,
        validate: true,
        ..OptimizerOptions::default()
    })
    .optimize_module(&mut module, None);
    module
}

/// Under interprocedural mode a guarded function traps in its `$fast` or
/// `$slow` body, not in the function of the same id: the oracle compares
/// the source function, so it accepts the correct module.
#[test]
fn oracle_accepts_a_trap_raised_in_a_guarded_body() {
    let source = "fn g(a: int[], i: int) -> int { let c: int[] = new int[2]; return a[i] + c[i]; }
fn main() -> int { let a: int[] = new int[8]; return g(a, 5); }";
    let module = interprocedural(source);
    let trap = run_entry(&module, "main").result.unwrap_err();
    assert_eq!(module.function(trap.func).name(), "g$fast", "{module}");
    let reference = abcd_frontend::compile(source).unwrap();
    if let Some(div) = differential(&reference, &module, "main") {
        panic!("a correct --ipa module diverged: {div}\n{module}");
    }
}

/// Calls `name(a, i)` on an `len`-element array `a`, as a caller outside
/// the module would, and returns its trap.
fn call_directly(module: &Module, name: &str, len: usize, i: i64) -> TrapKind {
    let mut vm = abcd_vm::Vm::new(module);
    let a = vm.alloc_int_array(&vec![0; len]);
    vm.call_by_name(name, &[a, RtVal::Int(i)])
        .expect_err("the direct call traps")
        .kind
}

/// `name` assumes parameter facts that the module's own calls satisfy;
/// called directly with `(a, i)` that break them, it must trap as in the
/// unoptimized module (same site, index and length), never reach an
/// unchecked access: its entry tests the facts and falls back to the
/// body analyzed without them.
fn assert_entry_is_guarded(source: &str, name: &str, len: usize, i: i64) {
    let module = interprocedural(source);
    assert!(
        module.function_by_name(&format!("{name}$fast")).is_some(),
        "`{name}` has no fast body, so this test checks nothing\n{module}"
    );
    let reference = abcd_frontend::compile(source).unwrap();
    let want = call_directly(&reference, name, len, i);
    assert!(
        matches!(want, TrapKind::BoundsCheckFailed { .. }),
        "{want:?}"
    );
    assert_eq!(call_directly(&module, name, len, i), want, "{module}");
}

#[test]
fn direct_call_breaking_verified_facts_traps_at_the_original_site() {
    assert_entry_is_guarded(
        "fn get(a: int[], i: int) -> int { return a[i]; }
         fn main() -> int {
             let a: int[] = new int[8];
             return get(a, 3) + get(a, 0);
         }",
        "get",
        3,
        100,
    );
}

/// `walk`'s only call site is its own, so it is no root: it assumes
/// `i ≥ 0` and `i ≤ a.length − 1`, which nothing inside the module
/// checks, since `main` never calls it.
#[test]
fn self_recursive_function_main_never_calls_has_a_guarded_entry() {
    assert_entry_is_guarded(
        "fn walk(a: int[], i: int) -> int {
             if (i + 1 < a.length) { return a[i] + walk(a, i + 1); }
             return 0;
         }
         fn main() -> int { return 0; }",
        "walk",
        4,
        -5,
    );
}

#[test]
fn mutually_recursive_pair_main_never_calls_has_guarded_entries() {
    let source = "fn ping(a: int[], i: int) -> int {
             if (i + 1 < a.length) { return a[i] + pong(a, i + 1); }
             return 0;
         }
         fn pong(a: int[], i: int) -> int {
             if (i + 1 < a.length) { return a[i] + ping(a, i + 1); }
             return 0;
         }
         fn main() -> int { return 0; }";
    assert_entry_is_guarded(source, "ping", 4, -5);
    assert_entry_is_guarded(source, "pong", 4, -5);
}

/// The oracle has teeth: delete an unprovable bounds check by hand (the
/// miscompilation a buggy optimizer would commit) and the differential
/// reports it — the sabotaged module raises the unchecked-access variant
/// where the reference raised a proper bounds-check trap.
#[test]
fn oracle_catches_a_wrongly_eliminated_check() {
    let source = "fn main() -> int {
             let a: int[] = new int[4];
             let i: int = a.length;
             return a[i];
         }";
    let reference = abcd_frontend::compile(source).unwrap();
    let mut sabotaged = abcd_frontend::compile(source).unwrap();
    let ids: Vec<_> = sabotaged.functions().map(|(id, _)| id).collect();
    let mut removed = 0usize;
    for id in ids {
        let func = sabotaged.function_mut(id);
        let checks: Vec<_> = func
            .blocks()
            .flat_map(|b| {
                func.block(b)
                    .insts()
                    .iter()
                    .filter(|&&i| matches!(func.inst(i).kind, InstKind::BoundsCheck { .. }))
                    .map(move |&i| (b, i))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (b, i) in checks {
            func.remove_inst(b, i);
            removed += 1;
        }
    }
    assert!(removed > 0, "test needs a check to falsify");

    match differential(&reference, &sabotaged, "main") {
        Some(Divergence::Result {
            reference: want,
            candidate: got,
        }) => {
            assert!(matches!(
                want.result.as_ref().unwrap_err().kind,
                TrapKind::BoundsCheckFailed { .. }
            ));
            assert!(matches!(
                got.result.as_ref().unwrap_err().kind,
                TrapKind::UncheckedAccessOutOfBounds { .. }
            ));
        }
        other => panic!("oracle missed the miscompilation: {other:?}"),
    }
}
