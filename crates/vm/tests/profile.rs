//! Profile equivalence: the interpreter counts into dense per-function
//! counters and folds them into the [`Profile`] when the top-level call
//! returns. These tests pin that the folded profile holds exactly the
//! entries and counts of counting every event as it happens: one entry per
//! executed block, CFG edge and `bounds_check` site, none with a zero count.

use abcd_frontend::compile;
use abcd_ir::{BinOp, Block, CheckSite, CmpOp, FuncId, FunctionBuilder, Module, Type};
use abcd_vm::{ExecStats, Profile, RtVal, TrapKind, Vm, VmOptions};
use std::collections::BTreeMap;

type Blocks = Vec<((FuncId, Block), u64)>;
type Edges = Vec<((FuncId, Block, Block), u64)>;
type Sites = Vec<((FuncId, CheckSite), u64)>;

/// Every entry of `p`, sorted.
fn entries(p: &Profile) -> (Blocks, Edges, Sites) {
    let mut blocks: Blocks = p.block_entries().collect();
    let mut edges: Edges = p.edge_entries().collect();
    let mut sites: Sites = p.site_entries().collect();
    blocks.sort_unstable();
    edges.sort_unstable();
    sites.sort_unstable();
    (blocks, edges, sites)
}

/// Flow conservation: every block other than a function's entry is
/// entered only along a CFG edge, so its count is the sum of its in-edge
/// counts; and the profile's site total is the `bounds_check` total.
fn assert_consistent(module: &Module, profile: &Profile, stats: &ExecStats) {
    let mut in_edges: BTreeMap<(FuncId, Block), u64> = BTreeMap::new();
    for ((f, _, to), n) in profile.edge_entries() {
        *in_edges.entry((f, to)).or_default() += n;
    }
    let entered: BTreeMap<(FuncId, Block), u64> = profile
        .block_entries()
        .filter(|((f, b), _)| *b != module.function(*f).entry())
        .collect();
    assert_eq!(entered, in_edges, "block counts ≠ in-edge sums");
    let (blocks, edges, sites) = entries(profile);
    assert!(blocks.iter().all(|(_, n)| *n > 0));
    assert!(edges.iter().all(|(_, n)| *n > 0));
    assert!(sites.iter().all(|(_, n)| *n > 0));
    assert_eq!(profile.total_site_count(), stats.checks.iter().sum::<u64>());
}

/// `f(n)` counts `i` up to `n`; the loop body branches on `i`'s parity to
/// the same block along both the then and the else slot.
fn parity_loop() -> (Module, [Block; 5]) {
    let mut b = FunctionBuilder::new("f", vec![Type::Int], Some(Type::Int));
    let n = b.param(0);
    let i = b.new_local(Type::Int);
    let zero = b.iconst(0);
    let one = b.iconst(1);
    b.set_local(i, zero);
    let entry = b.current_block();
    let (head, body, join, exit) = (b.new_block(), b.new_block(), b.new_block(), b.new_block());
    b.jump(head);
    b.switch_to_block(head);
    let iv = b.get_local(i);
    let more = b.compare(CmpOp::Lt, iv, n);
    b.branch(more, body, exit);
    b.switch_to_block(body);
    let iv = b.get_local(i);
    let low = b.binary(BinOp::And, iv, one);
    let even = b.compare(CmpOp::Eq, low, zero);
    b.branch(even, join, join);
    b.switch_to_block(join);
    let iv = b.get_local(i);
    let inc = b.binary(BinOp::Add, iv, one);
    b.set_local(i, inc);
    b.jump(head);
    b.switch_to_block(exit);
    let out = b.get_local(i);
    b.ret(Some(out));
    let mut m = Module::new();
    m.add_function(b.finish().unwrap());
    (m, [entry, head, body, join, exit])
}

#[test]
fn branch_with_equal_successors_sums_both_slots_into_one_edge() {
    let (m, [entry, head, body, join, exit]) = parity_loop();
    let f = FuncId::new(0);
    let mut vm = Vm::new(&m);
    // Five iterations: the then slot taken for i = 0, 2, 4, the else slot
    // for i = 1, 3.
    assert_eq!(vm.call(f, &[RtVal::Int(5)]).unwrap(), Some(RtVal::Int(5)));
    let (blocks, edges, sites) = entries(vm.profile());
    assert_eq!(
        blocks,
        vec![
            ((f, entry), 1),
            ((f, head), 6),
            ((f, body), 5),
            ((f, join), 5),
            ((f, exit), 1),
        ]
    );
    assert_eq!(
        edges,
        vec![
            ((f, entry, head), 1),
            ((f, head, body), 5),
            ((f, head, exit), 1),
            ((f, body, join), 5),
            ((f, join, head), 5),
        ]
    );
    assert!(sites.is_empty());
    assert_consistent(&m, vm.profile(), vm.stats());
}

const SUM: &str = "fn sum(a: int[], n: int) -> int {
    let s: int = 0;
    for (let i: int = 0; i < n; i = i + 1) { s = s + a[i]; }
    return s;
}";

#[test]
fn trapping_call_keeps_the_counts_up_to_the_trap() {
    let m = compile(SUM).unwrap();
    let mut vm = Vm::new(&m);
    let a = vm.alloc_int_array(&[1, 2, 3]);
    let err = vm.call_by_name("sum", &[a, RtVal::Int(5)]).unwrap_err();
    assert!(matches!(
        err.kind,
        TrapKind::BoundsCheckFailed {
            index: 3,
            len: 3,
            ..
        }
    ));
    // i = 0, 1, 2 pass both checks; i = 3 passes the lower one and fails
    // the upper one, which is counted before it traps.
    let sum = m.function_by_name("sum").unwrap();
    let counts: Vec<u64> = vm.profile().hot_sites().iter().map(|(_, n)| *n).collect();
    assert_eq!(counts, vec![4, 4]);
    assert_eq!(vm.profile().block_count(sum, m.function(sum).entry()), 1);
    assert_consistent(&m, vm.profile(), vm.stats());
}

fn doubled<K: Copy>(entries: &[(K, u64)]) -> Vec<(K, u64)> {
    entries.iter().map(|&(k, n)| (k, 2 * n)).collect()
}

#[test]
fn successive_calls_accumulate() {
    let m = compile(SUM).unwrap();
    let run = |calls: u64| {
        let mut vm = Vm::new(&m);
        let a = vm.alloc_int_array(&[4, 5, 6]);
        for _ in 0..calls {
            vm.call_by_name("sum", &[a, RtVal::Int(3)]).unwrap();
        }
        assert_consistent(&m, vm.profile(), vm.stats());
        entries(vm.profile())
    };
    let (b1, e1, s1) = run(1);
    let (b2, e2, s2) = run(2);
    assert_eq!(b2, doubled(&b1));
    assert_eq!(e2, doubled(&e1));
    assert_eq!(s2, doubled(&s1));
    assert_eq!(s1.len(), 2);
}

#[test]
fn profile_off_records_no_entries() {
    let m = compile(
        "fn touch(a: int[], i: int) -> int { return a[i]; }
         fn main() -> int {
             let a: int[] = new int[4];
             let s: int = 0;
             for (let r: int = 0; r < 5; r = r + 1) { s = s + touch(a, r % 4); }
             return s + touch(a, 9);
         }",
    )
    .unwrap();
    let mut vm = Vm::with_options(
        &m,
        VmOptions {
            collect_profile: false,
            ..VmOptions::default()
        },
    );
    assert!(vm.call_by_name("main", &[]).is_err());
    let (blocks, edges, sites) = entries(vm.profile());
    assert!(blocks.is_empty() && edges.is_empty() && sites.is_empty());
    assert_eq!(vm.stats().checks.iter().sum::<u64>(), 12);
}

#[test]
fn recursive_activations_share_their_function_counters() {
    // fact(n) = n <= 1 ? 1 : n * fact(n - 1)
    let fact = FuncId::new(0);
    let mut b = FunctionBuilder::new("fact", vec![Type::Int], Some(Type::Int));
    let n = b.param(0);
    let one = b.iconst(1);
    let c = b.compare(CmpOp::Le, n, one);
    let entry = b.current_block();
    let (base, rec) = (b.new_block(), b.new_block());
    b.branch(c, base, rec);
    b.switch_to_block(base);
    b.ret(Some(one));
    b.switch_to_block(rec);
    let nm1 = b.binary(BinOp::Sub, n, one);
    let r = b.call(fact, vec![nm1], Some(Type::Int)).unwrap();
    let p = b.binary(BinOp::Mul, n, r);
    b.ret(Some(p));
    let mut m = Module::new();
    m.add_function(b.finish().unwrap());

    let mut vm = Vm::new(&m);
    assert_eq!(
        vm.call(fact, &[RtVal::Int(5)]).unwrap(),
        Some(RtVal::Int(120))
    );
    let (blocks, edges, _) = entries(vm.profile());
    assert_eq!(
        blocks,
        vec![((fact, entry), 5), ((fact, base), 1), ((fact, rec), 4)]
    );
    assert_eq!(
        edges,
        vec![((fact, entry, base), 1), ((fact, entry, rec), 4)]
    );
    assert_consistent(&m, vm.profile(), vm.stats());
}

/// Flow conservation over every §8 kernel, in the locals form the front
/// end emits and in e-SSA form (φs, πs and split critical edges).
#[test]
fn every_benchsuite_kernel_profile_is_consistent() {
    for bench in abcd_benchsuite::BENCHMARKS {
        let locals = bench.compile().expect("benchmark compiles");
        let mut essa = locals.clone();
        abcd_ssa::module_to_essa(&mut essa).unwrap();
        for m in [&locals, &essa] {
            let mut vm = Vm::new(m);
            vm.call_by_name("main", &[]).unwrap();
            assert!(vm.profile().total_site_count() > 0, "{}", bench.name);
            assert_consistent(m, vm.profile(), vm.stats());
        }
    }
}
