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
//!
//! The warm-replay gate: once an in-memory cache holds every benchsuite
//! function and one hit pass has memoized every parse, one more
//! `optimize_module` pass over the 15 kernels stays within a quarter of
//! the calibrated allocation total. A hit clones the memoized function;
//! re-parsing the cached text on every hit would multiply the total.
//!
//! The SSA gate: once an `SsaScratch` has built e-SSA for every input,
//! building it again — CFG normalization, local promotion and π insertion
//! over the 15 kernels and a 24-module generated corpus — stays within a
//! quarter of the calibrated allocation total. The scratch's tables are
//! reused, so what allocates is the IR the construction creates (edge
//! blocks, φs and πs, φ argument lists) and the verifier's marks; a
//! per-function dominator tree, hash map or cloned instruction list would
//! multiply the total.
//!
//! The front-end gate: compiling the 15 kernels and the same generated
//! corpus from source stays within a quarter of the calibrated total.
//! Tokens, AST nodes and names allocate nothing of their own, so what is
//! left is the IR being built (one allocation per arena, block lists,
//! call arguments, array types) and the one verification per function;
//! a `String` per identifier, a `Box` per AST node or a hash map per
//! block would multiply the total.
//!
//! The canonical-form gate: once a `CanonScratch` has renumbered every
//! e-SSA and optimized benchsuite function, renumbering them again in
//! place allocates nothing.
//!
//! The graph-construction gate: once a `ConstraintLog` and two graph
//! shells have seen every input, walking each e-SSA function of the 15
//! kernels and the generated corpus once (which also lists its bounds
//! checks), assuming every candidate parameter fact in the log, and
//! filling its upper and lower graphs, whole and for every block,
//! allocates nothing.
//!
//! The cleanup gate: once a `CleanupScratch` has cleaned up every SSA
//! function of the 15 kernels and the generated corpus, cleaning them up
//! again — constant folding, value numbering, dead-code elimination and
//! load congruence, the leader table handed back after each — allocates
//! nothing, and every result equals the free functions' on a fresh
//! scratch.
//!
//! Every gate runs on its test's thread and counts that thread's
//! allocations only (`abcd_alloc::thread_snapshot`), so the test harness's
//! other threads, and the gates running beside it, cannot land in a
//! window.

use abcd::cache::{canonical_text_hash, key_from_text_hash, DEFAULT_CACHE_BYTES};
use abcd::interproc::candidate_facts;
use abcd::{
    AnalysisCache, ConstraintLog, DemandProver, InequalityGraph, Optimizer, ParamFact, Problem,
    Scope, Stage, Vertex,
};
use abcd_ir::{CanonScratch, CheckKind, Function, Module, Value};
use abcd_ssa::{DomTree, SsaScratch};
use std::sync::Arc;

#[global_allocator]
static ALLOC: abcd_alloc::CountingAlloc = abcd_alloc::CountingAlloc;

/// The VM gate's calibrated total: 15 kernels, checked and optimized, each
/// run once on a fresh `Vm` (before dense profile counters and the
/// explicit frame stack, 417,485).
const VM_RUN_ALLOCS: u64 = 919;

/// The warm-replay gate's calibrated total: one `optimize_module` pass
/// over the 15 kernels (46 functions), every function a memoized cache
/// hit (12,465 when every hit re-parsed the cached text).
const WARM_REPLAY_ALLOCS: u64 = 4_266;

/// The SSA gate's calibrated total: one warm split + promote + π pass over
/// the 15 kernels and `abcd_loadgen::corpus(1, 24)` (154 functions, 10,392
/// instructions), 0.33 allocations per instruction. The same pass through
/// the free functions, a fresh scratch per call, allocates 12,347 times;
/// before the scratch it allocated 114,557 times (11.0 per instruction).
const WARM_SSA_ALLOCS: u64 = 3_458;

/// The front-end gate's calibrated total: compiling the 15 kernels and
/// `abcd_loadgen::corpus(1, 24)` from source (39 modules, 154 functions,
/// 10,392 emitted instructions), 0.69 allocations per instruction. With a
/// `String` per identifier token, a `Box` per AST node and a hash map per
/// block scope it was 35,907 (3.46 per instruction).
const FRONTEND_ALLOCS: u64 = 7_214;

/// The e-SSA form the driver's constraint graphs are defined over.
fn to_essa(module: &mut Module) {
    Optimizer::new()
        .run_to(module, Stage::InsertPi)
        .expect("benchmark prepares");
}

#[test]
fn steady_state_prove_allocates_nothing() {
    let mut gated_queries = 0u64;
    let mut gated_functions = 0u64;
    for bench in abcd_benchsuite::BENCHMARKS {
        let mut module = bench.compile().expect("benchmark compiles");
        to_essa(&mut module);
        let mut log = ConstraintLog::default();
        for (_, func) in module.functions() {
            log.record(func);
            let checks: Vec<_> = log
                .checks()
                .iter()
                .map(|c| (c.array, c.index, c.kind))
                .collect();
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
            let before = abcd_alloc::thread_snapshot();
            let again = run(&mut upper_provers, &mut lower_prover);
            let d = abcd_alloc::thread_delta(before);
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
        let before = abcd_alloc::thread_snapshot();
        let mut vm = abcd_vm::Vm::new(module);
        vm.call_by_name("main", &[]).expect("benchmark runs");
        let allocs = abcd_alloc::thread_delta(before).allocs;
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
    let mut modules = Vec::new();
    for bench in abcd_benchsuite::BENCHMARKS {
        let locals = bench.compile().expect("benchmark compiles");
        let mut essa = locals.clone();
        to_essa(&mut essa);
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
            let before = abcd_alloc::thread_snapshot();
            let key = key_from_text_hash(canonical_text_hash(func), 1, 2, 3);
            let d = abcd_alloc::thread_delta(before);
            assert!(
                d.allocs <= 2,
                "{name}/{}: deriving key {key} allocated {} times ({} bytes)",
                func.name(),
                d.allocs,
                d.bytes,
            );

            let expected = func.to_string();
            let mut text = String::with_capacity(expected.len());
            let before = abcd_alloc::thread_snapshot();
            abcd_ir::print_function(func, &mut text);
            let d = abcd_alloc::thread_delta(before);
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

#[test]
fn warm_replay_allocations_stay_within_the_calibrated_total() {
    let cache = Arc::new(AnalysisCache::in_memory(DEFAULT_CACHE_BYTES));
    let optimizer = Optimizer::new().with_cache(Arc::clone(&cache));
    let inputs: Vec<_> = abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|bench| bench.compile().expect("benchmark compiles"))
        .collect();
    // Pass 1 stores every function; pass 2 hits and memoizes every parse.
    for _ in 0..2 {
        for input in &inputs {
            optimizer.optimize_module(&mut input.clone(), None);
        }
    }
    let mut modules = inputs.clone();
    let mut reports = Vec::with_capacity(modules.len());
    let before = abcd_alloc::thread_snapshot();
    for module in &mut modules {
        reports.push(optimizer.optimize_module(module, None));
    }
    let total = abcd_alloc::thread_delta(before).allocs;
    let functions: usize = reports.iter().map(|r| r.functions.len()).sum();
    let replayed: usize = reports.iter().map(|r| r.functions_from_cache()).sum();
    assert!(
        functions >= 45 && replayed == functions,
        "gate coverage collapsed: {replayed} of {functions} functions replayed"
    );
    assert!(
        total <= WARM_REPLAY_ALLOCS * 5 / 4,
        "a warm replay of the benchsuite allocated {total} times, calibrated {WARM_REPLAY_ALLOCS}"
    );
}

#[test]
fn warm_ssa_construction_stays_within_the_calibrated_total() {
    let inputs: Vec<Module> = abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|bench| bench.compile().expect("benchmark compiles"))
        .chain(
            abcd_loadgen::corpus(1, 24)
                .iter()
                .map(|src| abcd_frontend::compile(src).expect("corpus module compiles")),
        )
        .collect();
    let mut scratch = SsaScratch::new();
    let mut build = |modules: &mut [Module]| {
        for module in modules {
            for (_, func) in module.functions_mut() {
                scratch.normalize(func);
                scratch
                    .promote_locals(func)
                    .expect("frontend guarantees definite assignment");
                scratch.insert_pi_nodes(func);
            }
        }
    };
    // Warm-up: the scratch's tables reach the inputs' high-water sizes.
    build(&mut inputs.clone());
    let mut modules = inputs.clone();
    let before = abcd_alloc::thread_snapshot();
    build(&mut modules);
    let total = abcd_alloc::thread_delta(before).allocs;

    let (mut functions, mut insts) = (0u64, 0u64);
    for (_, func) in inputs.iter().flat_map(Module::functions) {
        functions += 1;
        insts += func
            .blocks()
            .map(|b| func.block(b).insts().len() as u64)
            .sum::<u64>();
    }
    let per_inst = total as f64 / insts as f64;
    println!(
        "SSA construction: {total} allocations over {functions} functions, \
         {insts} instructions ({per_inst:.2} per instruction)"
    );
    assert!(
        functions >= 120 && insts > 5_000,
        "gate coverage collapsed: {functions} functions, {insts} instructions"
    );
    assert!(
        total <= WARM_SSA_ALLOCS * 5 / 4,
        "warm SSA construction allocated {total} times ({per_inst:.2} per input \
         instruction), calibrated {WARM_SSA_ALLOCS}"
    );
}

/// The MJ sources of the 15 kernels and `abcd_loadgen::corpus(1, 24)`.
fn sources() -> Vec<String> {
    abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|bench| bench.source.to_string())
        .chain(abcd_loadgen::corpus(1, 24))
        .collect()
}

#[test]
fn front_end_stays_within_the_calibrated_total() {
    let sources = sources();
    // Warm-up: any one-time lazy initialization is paid before the window.
    for src in &sources {
        abcd_frontend::compile(src).expect("source compiles");
    }
    let mut modules = Vec::with_capacity(sources.len());
    let before = abcd_alloc::thread_snapshot();
    for src in &sources {
        modules.push(abcd_frontend::compile(src).expect("source compiles"));
    }
    let total = abcd_alloc::thread_delta(before).allocs;

    let (mut functions, mut insts) = (0u64, 0u64);
    for (_, func) in modules.iter().flat_map(Module::functions) {
        functions += 1;
        insts += func
            .blocks()
            .map(|b| func.block(b).insts().len() as u64)
            .sum::<u64>();
    }
    let per_inst = total as f64 / insts as f64;
    println!(
        "front end: {total} allocations over {} modules, {functions} functions, \
         {insts} emitted instructions ({per_inst:.2} per instruction)",
        sources.len()
    );
    assert!(
        functions >= 120 && insts > 5_000,
        "gate coverage collapsed: {functions} functions, {insts} instructions"
    );
    assert!(
        total <= FRONTEND_ALLOCS * 5 / 4,
        "the front end allocated {total} times ({per_inst:.2} per emitted instruction), \
         calibrated {FRONTEND_ALLOCS}"
    );
}

#[test]
fn warm_in_place_canonicalization_allocates_nothing() {
    let mut inputs: Vec<(&str, Function)> = Vec::new();
    for bench in abcd_benchsuite::BENCHMARKS {
        let locals = bench.compile().expect("benchmark compiles");
        let mut optimized = locals.clone();
        Optimizer::new().optimize_module(&mut optimized, None);
        let mut essa = locals.clone();
        to_essa(&mut essa);
        inputs.extend(essa.functions().map(|(_, f)| (bench.name, f.clone())));
        inputs.extend(optimized.functions().map(|(_, f)| (bench.name, f.clone())));
    }
    let mut scratch = CanonScratch::default();
    // Warm-up: the maps reach the largest function's sizes.
    for (_, func) in &inputs {
        func.clone().canonicalize_in_place(&mut scratch);
    }
    let mut renumbered: Vec<Function> = inputs.iter().map(|(_, f)| f.clone()).collect();
    for ((name, input), func) in inputs.iter().zip(&mut renumbered) {
        let before = abcd_alloc::thread_snapshot();
        func.canonicalize_in_place(&mut scratch);
        let d = abcd_alloc::thread_delta(before);
        assert_eq!(
            d.allocs,
            0,
            "{name}/{}: renumbering in place allocated {} times ({} bytes)",
            input.name(),
            d.allocs,
            d.bytes
        );
        assert_eq!(
            func.to_string(),
            abcd_ir::canonicalize(input).to_string(),
            "{name}/{}",
            input.name()
        );
    }
    assert!(
        inputs.len() >= 90,
        "gate coverage collapsed: {} functions",
        inputs.len()
    );
}

#[test]
fn warm_graph_construction_allocates_nothing() {
    let mut modules: Vec<Module> = abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|bench| bench.compile().expect("benchmark compiles"))
        .chain(
            abcd_loadgen::corpus(1, 24)
                .iter()
                .map(|src| abcd_frontend::compile(src).expect("corpus module compiles")),
        )
        .collect();
    for module in &mut modules {
        to_essa(module);
    }
    let functions: Vec<&Function> = modules
        .iter()
        .flat_map(Module::functions)
        .map(|(_, f)| f)
        .collect();
    let facts: Vec<Vec<ParamFact>> = functions
        .iter()
        .map(|f| candidate_facts(f.param_types()))
        .collect();
    let mut log = ConstraintLog::default();
    let mut shells = [InequalityGraph::default(), InequalityGraph::default()];
    // One walk per function, its candidate facts assumed; both problems,
    // whole and per block. Returns the edges filled plus the checks
    // listed, so the measured pass is seen to do the same work.
    let construct = |log: &mut ConstraintLog, shells: &mut [InequalityGraph; 2]| -> usize {
        let mut edges = 0;
        for (func, facts) in functions.iter().zip(&facts) {
            log.record(func);
            log.assume(facts, func);
            edges += log.checks().len();
            for (graph, problem) in shells.iter_mut().zip([Problem::Upper, Problem::Lower]) {
                graph.fill(log, problem, Scope::Function);
                edges += graph.edge_count();
                for b in func.blocks() {
                    graph.fill(log, problem, Scope::Block(b));
                    edges += graph.edge_count();
                }
            }
        }
        edges
    };
    // Warm-up: the log and the shells reach the inputs' high-water sizes.
    let warm = construct(&mut log, &mut shells);
    let before = abcd_alloc::thread_snapshot();
    let again = construct(&mut log, &mut shells);
    let d = abcd_alloc::thread_delta(before);
    assert_eq!(warm, again, "the measured pass filled different graphs");
    assert!(
        functions.len() >= 120 && again > 10_000,
        "gate coverage collapsed: {} functions, {again} edges",
        functions.len()
    );
    assert_eq!(
        d.allocs,
        0,
        "warm graph construction allocated {} times ({} bytes) over {} functions",
        d.allocs,
        d.bytes,
        functions.len()
    );
}

/// A digest of `gvn`'s congruence classes over `func`'s values.
fn classes_digest(func: &Function, gvn: &abcd_analysis::GvnResult) -> u64 {
    let mut h = abcd_ir::Fnv1a::new();
    for v in func.values() {
        h.write(&gvn.leader_of(v).index().to_le_bytes());
    }
    h.finish()
}

#[test]
fn warm_cleanup_allocates_nothing() {
    let mut inputs: Vec<(Function, DomTree)> = Vec::new();
    let mut ssa = SsaScratch::new();
    for src in sources() {
        let mut module = abcd_frontend::compile(&src).expect("source compiles");
        for (_, func) in module.functions_mut() {
            ssa.normalize(func);
            ssa.promote_locals(func)
                .expect("frontend guarantees definite assignment");
            inputs.push((func.clone(), ssa.dom_tree().clone()));
        }
    }
    let mut scratch = abcd_analysis::CleanupScratch::new();
    // Warm-up: the scratch's tables reach the inputs' high-water sizes.
    for (func, dt) in &inputs {
        let mut func = func.clone();
        let (_, mut gvn) = scratch.cleanup(&mut func, dt);
        scratch.record_load_congruence(&func, &mut gvn);
        scratch.recycle(gvn);
    }
    let mut funcs: Vec<Function> = inputs.iter().map(|(f, _)| f.clone()).collect();
    let mut results = Vec::with_capacity(funcs.len());
    let before = abcd_alloc::thread_snapshot();
    for (func, (_, dt)) in funcs.iter_mut().zip(&inputs) {
        let (stats, mut gvn) = scratch.cleanup(func, dt);
        scratch.record_load_congruence(func, &mut gvn);
        results.push((stats, classes_digest(func, &gvn)));
        scratch.recycle(gvn);
    }
    let d = abcd_alloc::thread_delta(before);

    // The warm scratch does what the free functions do on a fresh one.
    let mut removed = 0;
    for (((input, _), func), &(stats, classes)) in inputs.iter().zip(&funcs).zip(&results) {
        let mut fresh = input.clone();
        let (fresh_stats, mut gvn) = abcd_analysis::cleanup(&mut fresh);
        abcd_analysis::record_load_congruence(&fresh, &mut gvn);
        assert_eq!(stats, fresh_stats, "{}", input.name());
        assert_eq!(func.to_string(), fresh.to_string(), "{}", input.name());
        assert_eq!(classes, classes_digest(&fresh, &gvn), "{}", input.name());
        removed += stats.value_numbered + stats.dce_removed;
    }
    assert!(
        inputs.len() >= 120 && removed > 500,
        "gate coverage collapsed: {} functions, {removed} instructions removed",
        inputs.len()
    );
    assert_eq!(
        d.allocs,
        0,
        "warm cleanup allocated {} times ({} bytes) over {} functions",
        d.allocs,
        d.bytes,
        inputs.len()
    );
}
