//! Integration-level semantics tests for the interpreter: cost accounting,
//! profiles across calls, output ordering, and trap behaviors that the unit
//! tests in `interp.rs` don't cover.

use abcd_frontend::compile;
use abcd_ir::{FunctionBuilder, Module, Type};
use abcd_vm::{CostModel, RtVal, TrapKind, Vm, VmOptions, MAX_ARRAY_LEN};

#[test]
fn cycles_accumulate_per_cost_model() {
    let m = compile("fn f(x: int) -> int { return x + 1; }").unwrap();
    let mut vm = Vm::new(&m);
    vm.call_by_name("f", &[RtVal::Int(1)]).unwrap();
    let first = vm.stats().cycles;
    assert!(first > 0);
    vm.call_by_name("f", &[RtVal::Int(2)]).unwrap();
    assert_eq!(
        vm.stats().cycles,
        first * 2,
        "stats accumulate across calls"
    );
}

#[test]
fn custom_cost_model_changes_cycles_not_results() {
    let m = compile("fn f(a: int[]) -> int { return a[0] * a[1]; }").unwrap();
    let expensive = VmOptions {
        cost: CostModel {
            mul: 100,
            ..CostModel::default()
        },
        ..VmOptions::default()
    };
    let mut vm1 = Vm::new(&m);
    let a1 = vm1.alloc_int_array(&[6, 7]);
    let r1 = vm1.call_by_name("f", &[a1]).unwrap();
    let mut vm2 = Vm::with_options(&m, expensive);
    let a2 = vm2.alloc_int_array(&[6, 7]);
    let r2 = vm2.call_by_name("f", &[a2]).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(r1, Some(RtVal::Int(42)));
    assert!(vm2.stats().cycles > vm1.stats().cycles + 90);
}

#[test]
fn output_preserves_program_order_across_calls() {
    let m = compile(
        "fn emit(x: int) { print(x); print(x * 10); }
         fn main() -> int { emit(1); emit(2); print(99); return 0; }",
    )
    .unwrap();
    let mut vm = Vm::new(&m);
    vm.call_by_name("main", &[]).unwrap();
    assert_eq!(vm.output(), &[1, 10, 2, 20, 99]);
}

#[test]
fn profile_aggregates_sites_across_function_calls() {
    let m = compile(
        "fn touch(a: int[], i: int) -> int { return a[i]; }
         fn main() -> int {
             let a: int[] = new int[4];
             let s: int = 0;
             for (let r: int = 0; r < 5; r = r + 1) { s = s + touch(a, r % 4); }
             return s;
         }",
    )
    .unwrap();
    let mut vm = Vm::new(&m);
    vm.call_by_name("main", &[]).unwrap();
    let touch = m.function_by_name("touch").unwrap();
    let hot = vm.profile().hot_sites();
    // touch has 2 sites (lower+upper), each executed 5 times.
    let touch_counts: Vec<u64> = hot
        .iter()
        .filter(|((f, _), _)| *f == touch)
        .map(|(_, c)| *c)
        .collect();
    assert_eq!(touch_counts, vec![5, 5]);
}

#[test]
fn call_depth_limit_traps_cleanly() {
    let m = compile("fn spin(n: int) -> int { return spin(n + 1); }").unwrap();
    let mut vm = Vm::with_options(
        &m,
        VmOptions {
            call_depth_limit: 50,
            ..VmOptions::default()
        },
    );
    let err = vm.call_by_name("spin", &[RtVal::Int(0)]).unwrap_err();
    assert_eq!(err.kind, TrapKind::CallDepthExceeded);
}

#[test]
fn step_limit_trap_names_the_spinning_function() {
    let m = compile(
        "fn inner() -> int { let s: int = 0; while (true) { s = s + 1; } return s; }
         fn main() -> int { return inner(); }",
    )
    .unwrap();
    let mut vm = Vm::with_options(
        &m,
        VmOptions {
            step_limit: 500,
            ..VmOptions::default()
        },
    );
    let err = vm.call_by_name("main", &[]).unwrap_err();
    assert_eq!(err.kind, TrapKind::StepLimitExceeded);
    assert_eq!(err.func, m.function_by_name("inner").unwrap());
}

#[test]
fn array_longer_than_the_cap_traps() {
    let m = compile("fn f(n: int) -> int { let a: int[] = new int[n]; return a.length; }").unwrap();
    for n in [MAX_ARRAY_LEN + 1, 100_000_000_000, i64::MAX] {
        let mut vm = Vm::new(&m);
        let err = vm.call_by_name("f", &[RtVal::Int(n)]).unwrap_err();
        assert_eq!(err.kind, TrapKind::ArrayTooLarge(n));
        assert!(err.to_string().contains(&n.to_string()), "{err}");
    }
    assert_eq!(
        Vm::new(&m).call_by_name("f", &[RtVal::Int(3)]).unwrap(),
        Some(RtVal::Int(3))
    );
}

#[test]
fn allocation_cycle_charge_saturates() {
    // A per-element cost whose product with the length overflows u64.
    let m = compile("fn f(n: int) -> int { let a: int[] = new int[n]; return a.length; }").unwrap();
    let mut vm = Vm::with_options(
        &m,
        VmOptions {
            cost: CostModel {
                alloc_per_elem: u64::MAX / 2,
                ..CostModel::default()
            },
            ..VmOptions::default()
        },
    );
    vm.call_by_name("f", &[RtVal::Int(4)]).unwrap();
    assert_eq!(vm.stats().cycles, u64::MAX);
}

#[test]
fn wrapping_arithmetic_matches_rust_semantics() {
    let m = compile(
        "fn f(x: int) -> int { return x + 1; }
         fn g(x: int) -> int { return x * 2; }
         fn h(x: int, y: int) -> int { return x % y; }",
    )
    .unwrap();
    let mut vm = Vm::new(&m);
    assert_eq!(
        vm.call_by_name("f", &[RtVal::Int(i64::MAX)]).unwrap(),
        Some(RtVal::Int(i64::MIN))
    );
    assert_eq!(
        vm.call_by_name("g", &[RtVal::Int(i64::MAX)]).unwrap(),
        Some(RtVal::Int(-2))
    );
    // Rust-style remainder: sign follows the dividend.
    assert_eq!(
        vm.call_by_name("h", &[RtVal::Int(-7), RtVal::Int(3)])
            .unwrap(),
        Some(RtVal::Int(-1))
    );
}

#[test]
fn shifts_mask_their_amount() {
    let m = compile(
        "fn shl(x: int, s: int) -> int { return x << s; }
         fn shr(x: int, s: int) -> int { return x >> s; }",
    )
    .unwrap();
    let mut vm = Vm::new(&m);
    // Shift of 64 is masked to 0, like Rust's wrapping_shl.
    assert_eq!(
        vm.call_by_name("shl", &[RtVal::Int(5), RtVal::Int(64)])
            .unwrap(),
        Some(RtVal::Int(5))
    );
    // Arithmetic right shift preserves sign.
    assert_eq!(
        vm.call_by_name("shr", &[RtVal::Int(-8), RtVal::Int(1)])
            .unwrap(),
        Some(RtVal::Int(-4))
    );
}

#[test]
fn collect_profile_off_records_nothing() {
    let m = compile("fn f(a: int[]) -> int { return a[0]; }").unwrap();
    let mut vm = Vm::with_options(
        &m,
        VmOptions {
            collect_profile: false,
            ..VmOptions::default()
        },
    );
    let a = vm.alloc_int_array(&[7]);
    vm.call_by_name("f", &[a]).unwrap();
    assert_eq!(vm.profile().total_site_count(), 0);
    // …but stats still count.
    assert_eq!(vm.stats().dynamic_checks_total(), 2);
}

#[test]
fn read_int_array_reflects_stores() {
    let m = compile("fn put(a: int[], i: int, v: int) { a[i] = v; }").unwrap();
    let mut vm = Vm::new(&m);
    let a = vm.alloc_int_array(&[0, 0, 0]);
    vm.call_by_name("put", &[a, RtVal::Int(1), RtVal::Int(42)])
        .unwrap();
    assert_eq!(vm.read_int_array(a), vec![0, 42, 0]);
}

/// Runs `f` and returns its panic message, or `None` if it returned.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .err()
        .map(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
}

#[test]
fn unterminated_block_fails_only_when_executed() {
    // f(c) returns 7 unless c, in which case it jumps into a block that
    // has an instruction but no terminator.
    let mut b = FunctionBuilder::new("f", vec![Type::Bool], Some(Type::Int));
    let (done, dead) = (b.new_block(), b.new_block());
    let c = b.param(0);
    b.branch(c, dead, done);
    b.switch_to_block(done);
    let seven = b.iconst(7);
    b.ret(Some(seven));
    b.switch_to_block(dead);
    let _ = b.iconst(1);
    let mut m = Module::new();
    m.add_function(b.finish_unverified());

    let mut vm = Vm::new(&m);
    assert_eq!(
        vm.call_by_name("f", &[RtVal::Bool(false)]).unwrap(),
        Some(RtVal::Int(7))
    );
    let msg = panic_message(|| {
        let _ = Vm::new(&m).call_by_name("f", &[RtVal::Bool(true)]);
    });
    assert!(
        msg.as_deref()
            .is_some_and(|m| m.contains("missing terminator")),
        "{msg:?}"
    );
}

#[test]
fn phi_without_an_argument_for_an_untaken_edge_fails_only_when_taken() {
    // join's φ has an argument for the edge from `one` only.
    let mut b = FunctionBuilder::new("f", vec![Type::Bool], Some(Type::Int));
    let (one, two, join) = (b.new_block(), b.new_block(), b.new_block());
    let c = b.param(0);
    b.branch(c, one, two);
    b.switch_to_block(one);
    let x1 = b.iconst(1);
    b.jump(join);
    b.switch_to_block(two);
    let _ = b.iconst(2);
    b.jump(join);
    b.switch_to_block(join);
    let p = b.phi(vec![(one, x1)]);
    b.ret(Some(p));
    let mut m = Module::new();
    m.add_function(b.finish_unverified());

    let mut vm = Vm::new(&m);
    assert_eq!(
        vm.call_by_name("f", &[RtVal::Bool(true)]).unwrap(),
        Some(RtVal::Int(1))
    );
    let msg = panic_message(|| {
        let _ = Vm::new(&m).call_by_name("f", &[RtVal::Bool(false)]);
    });
    assert!(
        msg.as_deref().is_some_and(|m| m.contains("lacks arg")),
        "{msg:?}"
    );
}
