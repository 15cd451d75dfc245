//! The allocation gates, the executable form of the allocation claims in
//! `DESIGN.md` §5i.
//!
//! The steady-state prove gate: once a prover's buffers are warm (one
//! reserve pass over every query), re-deriving every verdict of every
//! benchsuite kernel must perform **zero** heap allocations.
//!
//! Protocol per function:
//!
//! 1. build the upper/lower graphs and their provers (the per-function
//!    *reserve* — allocation here is expected and unmeasured);
//! 2. pass 1: answer every check query, warming the memo tables to their
//!    high-water capacity;
//! 3. `reset_memo()`: forget the verdicts but keep every buffer — the next
//!    pass re-traverses for real, it does not just replay memo hits;
//! 4. pass 2 under the counting allocator: assert 0 allocations and
//!    byte-identical verdicts.
//!
//! The VM gate: running every kernel's `main` on a fresh interpreter, in
//! checked and in optimized form, stays within a quarter of the calibrated
//! allocation total. What is left to allocate is the program's own arrays,
//! output growth, the interpreter's stores reaching their high-water size
//! and first-seen profile entries; an allocation per instruction, block or
//! call would multiply the total by hundreds.
//!
//! The IR text gate: deriving the cache key of every benchsuite function
//! (locals form, e-SSA form with its value and block holes, and optimized)
//! allocates at most the two canonical numbering maps, whatever the
//! function's size, and printing a function into a `String` reserved to
//! its length allocates nothing. A `fmt` call or hash map per operand
//! would show as thousands.

use abcd::cache::{canonical_text_hash, key_from_text_hash};
use abcd::{DemandProver, InequalityGraph, Optimizer, Problem, Vertex};
use abcd_ir::{CheckKind, InstKind, Value};
use std::sync::{Mutex, PoisonError};

#[global_allocator]
static ALLOC: abcd_alloc::CountingAlloc = abcd_alloc::CountingAlloc;

/// The allocation counter is process-wide, so the gates take turns, each
/// holding this lock from its first allocation to its last measurement.
static COUNTER: Mutex<()> = Mutex::new(());

/// The VM gate's calibrated total: 15 kernels, checked and optimized, each
/// run once on a fresh `Vm` (before dense profile counters and the
/// explicit frame stack, 417,485).
const VM_RUN_ALLOCS: u64 = 919;

/// Stages 1–3 of the driver pipeline, minus the optional cleanup: the
/// e-SSA form the constraint graphs are defined over.
fn to_essa(func: &mut abcd_ir::Function) {
    abcd_ssa::split_critical_edges(func);
    abcd_ssa::promote_locals(func).expect("frontend guarantees definite assignment");
    abcd_ssa::insert_pi_nodes(func);
}

#[test]
fn steady_state_prove_allocates_nothing() {
    let _turn = COUNTER.lock().unwrap_or_else(PoisonError::into_inner);
    let mut gated_queries = 0u64;
    let mut gated_functions = 0u64;
    for bench in abcd_benchsuite::BENCHMARKS {
        let mut module = bench.compile().expect("benchmark compiles");
        for (_, func) in module.functions_mut() {
            to_essa(func);
            let mut checks: Vec<(Value, Value, CheckKind)> = Vec::new();
            for b in func.blocks() {
                for &id in func.block(b).insts() {
                    if let InstKind::BoundsCheck {
                        array, index, kind, ..
                    } = func.inst(id).kind
                    {
                        checks.push((array, index, kind));
                    }
                }
            }
            if checks.is_empty() {
                continue;
            }
            gated_functions += 1;
            // Distinct arrays, so every upper prover exists before the
            // measured pass (prover construction is part of the reserve).
            let mut arrays: Vec<Value> = checks
                .iter()
                .filter(|(_, _, k)| matches!(k, CheckKind::Upper | CheckKind::Both))
                .map(|&(a, _, _)| a)
                .collect();
            arrays.sort_unstable();
            arrays.dedup();
            let upper = InequalityGraph::build(func, Problem::Upper, None);
            let lower = InequalityGraph::build(func, Problem::Lower, None);
            let mut upper_provers: Vec<DemandProver> = arrays
                .iter()
                .map(|&a| DemandProver::new(&upper, Vertex::ArrayLen(a)))
                .collect();
            let mut lower_prover = DemandProver::new(&lower, Vertex::Const(0));
            let run = |ups: &mut [DemandProver], low: &mut DemandProver| -> u64 {
                let mut proven = 0;
                for &(array, index, kind) in &checks {
                    if matches!(kind, CheckKind::Upper | CheckKind::Both) {
                        let i = arrays.binary_search(&array).expect("prover exists");
                        if ups[i].demand_prove(Vertex::Value(index), -1) {
                            proven += 1;
                        }
                    }
                    if matches!(kind, CheckKind::Lower | CheckKind::Both)
                        && low.demand_prove(Vertex::Value(index), 0)
                    {
                        proven += 1;
                    }
                }
                proven
            };
            // Pass 1: the reserve — warms every table to its final size.
            let warm = run(&mut upper_provers, &mut lower_prover);
            // Forget verdicts, keep capacity: pass 2 does real work.
            for p in upper_provers.iter_mut() {
                p.reset_memo();
            }
            lower_prover.reset_memo();
            // Pass 2: the measured steady state.
            let before = abcd_alloc::snapshot();
            let again = run(&mut upper_provers, &mut lower_prover);
            let d = abcd_alloc::delta(before);
            assert_eq!(
                d.allocs,
                0,
                "{}/{}: allocated {} times ({} bytes) re-proving {} checks in steady state",
                bench.name,
                func.name(),
                d.allocs,
                d.bytes,
                checks.len(),
            );
            assert_eq!(warm, again, "verdicts changed across the reset");
            gated_queries += u64::try_from(checks.len()).unwrap();
        }
    }
    // The gate must have exercised real work on every kernel.
    assert!(
        gated_functions >= 15 && gated_queries > 100,
        "gate coverage collapsed: {gated_functions} functions, {gated_queries} queries"
    );
}

#[test]
fn vm_run_allocations_stay_within_the_calibrated_total() {
    let _turn = COUNTER.lock().unwrap_or_else(PoisonError::into_inner);
    let mut modules = Vec::new();
    for bench in abcd_benchsuite::BENCHMARKS {
        let checked = bench.compile().expect("benchmark compiles");
        let mut optimized = checked.clone();
        Optimizer::new().optimize_module(&mut optimized, None);
        modules.push((bench.name, checked));
        modules.push((bench.name, optimized));
    }
    let mut total = 0;
    let mut per_run = Vec::new();
    for (name, module) in &modules {
        let before = abcd_alloc::snapshot();
        let mut vm = abcd_vm::Vm::new(module);
        vm.call_by_name("main", &[]).expect("benchmark runs");
        let allocs = abcd_alloc::delta(before).allocs;
        drop(vm);
        total += allocs;
        per_run.push((*name, allocs));
    }
    assert!(
        total <= VM_RUN_ALLOCS * 5 / 4,
        "running the benchsuite allocated {total} times, calibrated {VM_RUN_ALLOCS}: {per_run:?}"
    );
}

#[test]
fn key_derivation_and_printing_allocate_only_the_numbering() {
    let _turn = COUNTER.lock().unwrap_or_else(PoisonError::into_inner);
    let mut modules = Vec::new();
    for bench in abcd_benchsuite::BENCHMARKS {
        let locals = bench.compile().expect("benchmark compiles");
        let mut essa = locals.clone();
        for (_, func) in essa.functions_mut() {
            to_essa(func);
        }
        let mut optimized = locals.clone();
        Optimizer::new().optimize_module(&mut optimized, None);
        modules.extend([
            (bench.name, locals),
            (bench.name, essa),
            (bench.name, optimized),
        ]);
    }
    let mut functions = 0;
    for (name, module) in &modules {
        for (_, func) in module.functions() {
            functions += 1;
            let before = abcd_alloc::snapshot();
            let key = key_from_text_hash(canonical_text_hash(func), 1, 2, 3);
            let d = abcd_alloc::delta(before);
            assert!(
                d.allocs <= 2,
                "{name}/{}: deriving key {key} allocated {} times ({} bytes)",
                func.name(),
                d.allocs,
                d.bytes,
            );

            let expected = func.to_string();
            let mut text = String::with_capacity(expected.len());
            let before = abcd_alloc::snapshot();
            abcd_ir::print_function(func, &mut text);
            let d = abcd_alloc::delta(before);
            assert_eq!(text, expected);
            assert_eq!(
                d.allocs,
                0,
                "{name}/{}: printing {} bytes allocated {} times",
                func.name(),
                text.len(),
                d.allocs,
            );
        }
    }
    assert!(
        functions >= 45,
        "gate coverage collapsed: {functions} functions"
    );
}
