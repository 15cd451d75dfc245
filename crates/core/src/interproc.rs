//! Optional interprocedural extension: verified parameter facts behind
//! guarded entries.
//!
//! The paper's evaluation is purely intraprocedural and names that as its
//! main limitation ("We do not use any interprocedural summary information
//! … results should be considered a lower bound"); it also names code
//! duplication \[MMS98\] as a step it did not take. This module implements
//! both as one opt-in pass of the driver
//! ([`OptimizerOptions::interprocedural`](crate::OptimizerOptions)):
//!
//! 1. **Candidates.** For every non-root function, guess difference facts
//!    about its parameters — `p ≥ 0`, `p ≤ A.length − 1`, and
//!    `A.length ≤ B.length` for parameter arrays — the same constraint
//!    classes ABCD already reasons about (C2/C5-shaped, Table 1). A root
//!    is `main` or a function with no call site in the module.
//! 2. **Optimistic fixpoint.** Assume all candidates, then repeatedly
//!    *verify* each fact at every call site by running `demandProve` in the
//!    caller's graph (itself filled with the caller's currently-assumed
//!    facts) on the actual arguments; drop facts that fail anywhere and
//!    repeat until stable. The set shrinks monotonically, so this
//!    terminates; every surviving fact of `f`, `V(f)`, holds at each call
//!    of `f` in the module whose caller's own facts hold.
//! 3. **Use.** The driver analyzes a function with facts twice: once with
//!    `V(f)` as rows of its [`ConstraintLog`] ([`ConstraintLog::assume`]),
//!    giving the *fast* body, and once without, giving the *slow* body —
//!    exactly what the default options emit.
//! 4. **Guarded entries.** `f` keeps both bodies if `V(f)` changed its
//!    fast body, or if it calls a function that keeps both (the least such
//!    set). Then `f` itself becomes a dispatcher that tests every fact of
//!    `V(f)` on its actual arguments and calls `f$fast` or `f$slow`. Calls
//!    in slow bodies go to the dispatcher: a slow body runs when its own
//!    facts failed, and with them the facts its call sites were verified
//!    under. Every other call goes straight to the fast body, so internal
//!    calls never pay the guard. Any other `f` keeps one body, equal to
//!    its slow body: its facts changed nothing, and it calls no fast body.
//!
//! A fast body therefore runs only where its facts hold, whoever calls it:
//! a caller outside the module reaches `f` by name or id, which is the
//! dispatcher.
//!
//! What a fact means is defined once, by [`ParamFact`]'s Table 1 relation:
//! the same `(problem, u, v, c)` tuple is a log row in the callee, the
//! query proven at each call site in the caller, and the comparison the
//! dispatcher runs.

use crate::graph::{ConstraintLog, InequalityGraph, Problem, Scope, Vertex};
use crate::report::FunctionReport;
use crate::solver::DemandProver;
use abcd_ir::{CmpOp, FuncId, Function, FunctionBuilder, InstId, InstKind, Module, Type, Value};
use std::collections::HashMap;

/// A fact about a function's parameters, indexed by parameter position.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParamFact {
    /// `param ≥ 0`
    NonNegative {
        /// Position of an integer parameter.
        param: usize,
    },
    /// `param ≤ array.length − 1` (a valid index)
    WithinBounds {
        /// Position of an integer parameter.
        param: usize,
        /// Position of an array parameter.
        array: usize,
    },
    /// `param ≤ array.length` (a valid *exclusive* bound, the common shape
    /// of loop limits: `for (i = 0; i < param; …) a[i]`)
    AtMostLen {
        /// Position of an integer parameter.
        param: usize,
        /// Position of an array parameter.
        array: usize,
    },
    /// `a.length ≤ b.length`
    LenLe {
        /// Position of the shorter array parameter.
        a: usize,
        /// Position of the longer array parameter.
        b: usize,
    },
}

impl ParamFact {
    /// The fact as a Table 1 relation over the values `param` maps each
    /// parameter position to: `(problem, u, v, c)` states `v ≤ u + c` in
    /// the upper problem, `v ≥ u + c` in the lower one. The only code that
    /// gives a fact its meaning.
    pub(crate) fn relation(self, param: impl Fn(usize) -> Value) -> (Problem, Vertex, Vertex, i64) {
        let value = |i| Vertex::Value(param(i));
        let len = |i| Vertex::ArrayLen(param(i));
        match self {
            ParamFact::NonNegative { param } => (Problem::Lower, Vertex::Const(0), value(param), 0),
            ParamFact::WithinBounds { param, array } => {
                (Problem::Upper, len(array), value(param), -1)
            }
            ParamFact::AtMostLen { param, array } => (Problem::Upper, len(array), value(param), 0),
            ParamFact::LenLe { a, b } => (Problem::Upper, len(b), len(a), 0),
        }
    }
}

/// The verified facts for every function in a module.
#[derive(Clone, Debug, Default)]
pub struct ModuleFacts {
    facts: HashMap<FuncId, Vec<ParamFact>>,
}

impl ModuleFacts {
    /// The facts verified for `func` (empty for roots).
    pub fn of(&self, func: FuncId) -> &[ParamFact] {
        self.facts.get(&func).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of verified facts.
    pub fn len(&self) -> usize {
        self.facts.values().map(Vec::len).sum()
    }

    /// Whether no facts survived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// All candidate facts for a parameter list, the optimistic start of the
/// fixpoint.
pub fn candidate_facts(param_types: &[Type]) -> Vec<ParamFact> {
    let mut c = Vec::new();
    for (i, ti) in param_types.iter().enumerate() {
        if *ti == Type::Int {
            c.push(ParamFact::NonNegative { param: i });
            for (j, tj) in param_types.iter().enumerate() {
                if tj.is_array() {
                    c.push(ParamFact::WithinBounds { param: i, array: j });
                    c.push(ParamFact::AtMostLen { param: i, array: j });
                }
            }
        } else if ti.is_array() {
            for (j, tj) in param_types.iter().enumerate() {
                if i != j && tj.is_array() {
                    c.push(ParamFact::LenLe { a: i, b: j });
                }
            }
        }
    }
    c
}

/// Infers parameter facts for a module whose functions are already in
/// e-SSA form (the driver prepares them first).
pub fn infer_param_facts(module: &Module) -> ModuleFacts {
    // Call sites per callee: (caller, actual arguments).
    let mut call_sites: HashMap<FuncId, Vec<(FuncId, Vec<Value>)>> = HashMap::new();
    for (caller, func) in module.functions() {
        for b in func.blocks() {
            for &id in func.block(b).insts() {
                if let InstKind::Call { func: callee, args } = &func.inst(id).kind {
                    call_sites
                        .entry(*callee)
                        .or_default()
                        .push((caller, args.clone()));
                }
            }
        }
    }

    // Optimistic candidate set for every non-root function.
    let mut facts: HashMap<FuncId, Vec<ParamFact>> = HashMap::new();
    for (id, func) in module.functions() {
        if func.name() == "main" || !call_sites.contains_key(&id) {
            continue; // root: externally callable, assume nothing
        }
        let c = candidate_facts(func.param_types());
        if !c.is_empty() {
            facts.insert(id, c);
        }
    }

    // Fixpoint: drop any fact that fails verification at some call site.
    let mut current = ModuleFacts { facts };
    loop {
        let mut next = ModuleFacts::default();
        let mut dropped = false;

        // Caller graphs under the *current* assumptions, built once per
        // iteration for every caller that hosts a call site (borrowed, not
        // cloned, by the verification queries below).
        let mut caller_graphs: HashMap<(FuncId, Problem), InequalityGraph> = HashMap::new();
        let mut log = ConstraintLog::default();
        for sites in call_sites.values() {
            for (caller, _) in sites {
                if caller_graphs.contains_key(&(*caller, Problem::Upper)) {
                    continue;
                }
                let f = module.function(*caller);
                log.record(f);
                log.assume(current.of(*caller), f);
                for problem in [Problem::Upper, Problem::Lower] {
                    let mut g = InequalityGraph::default();
                    g.fill(&log, problem, Scope::Function);
                    caller_graphs.insert((*caller, problem), g);
                }
            }
        }

        for (callee, cand) in &current.facts {
            let sites = call_sites.get(callee).map_or(&[][..], Vec::as_slice);
            let mut kept = Vec::new();
            'facts: for fact in cand {
                for (caller, args) in sites {
                    // The fact, stated over the actual arguments, proven in
                    // the caller's graph of its problem.
                    let (problem, u, v, c) = fact.relation(|i| args[i]);
                    let graph = &caller_graphs[&(*caller, problem)];
                    if !DemandProver::new(graph, u).demand_prove(v, c) {
                        dropped = true;
                        continue 'facts;
                    }
                }
                kept.push(*fact);
            }
            if !kept.is_empty() {
                next.facts.insert(*callee, kept);
            }
        }

        if !dropped {
            return next;
        }
        current = next;
    }
}

/// A function's analysis without facts: its slow body and report.
pub(crate) type SlowBody = (Function, FunctionReport);

/// Gives every function whose facts pay a guarded entry, and returns one
/// report per function of the resulting module, in its order.
///
/// `module` holds each function as analyzed under its facts, and
/// `analyzed` its report, plus, for a function with facts, its slow
/// body. A function with facts is *versioned* if they changed its body,
/// or if it calls a versioned function: the least such set, so a
/// recursive function whose facts change nothing stays single. The fast
/// and slow bodies of a versioned `f`, renamed `f$fast` and `f$slow`, are
/// appended in that order, and `f` becomes their dispatcher, which
/// reports no checks. Any other function keeps the body it has and its
/// report: that body equals its slow body, if it has one.
pub(crate) fn guard_entries(
    module: &mut Module,
    facts: &ModuleFacts,
    analyzed: Vec<(FunctionReport, Option<SlowBody>)>,
) -> Vec<FunctionReport> {
    let n = module.function_count();
    let callees: Vec<Vec<FuncId>> = module.functions().map(|(_, f)| calls_of(f)).collect();
    // Versioned: the functions whose facts changed their body, then, to a
    // fixpoint, every function with facts that calls a versioned one.
    let mut versioned: Vec<bool> = module
        .functions()
        .zip(&analyzed)
        .map(|((_, fast), (_, slow))| {
            slow.as_ref()
                .is_some_and(|(slow, _)| slow.to_string() != fast.to_string())
        })
        .collect();
    let mut grew = true;
    while grew {
        grew = false;
        for f in 0..n {
            if !versioned[f] && analyzed[f].1.is_some() {
                versioned[f] = callees[f].iter().any(|g| versioned[g.index()]);
                grew |= versioned[f];
            }
        }
    }

    // The k-th versioned function's fast and slow bodies get ids n + 2k
    // and n + 2k + 1. Every body in the module now (fast or single) calls
    // the fast body of a versioned callee; slow bodies keep calling the
    // dispatcher.
    let mut fast_of: Vec<Option<FuncId>> = vec![None; n];
    let mut next = n;
    for (f, fast) in fast_of.iter_mut().enumerate() {
        if versioned[f] {
            *fast = Some(FuncId::new(next));
            next += 2;
        }
    }
    for (_, func) in module.functions_mut() {
        for i in 0..func.inst_count() {
            if let InstKind::Call { func: callee, .. } = &mut func.inst_mut(InstId::new(i)).kind {
                *callee = fast_of[callee.index()].unwrap_or(*callee);
            }
        }
    }

    let mut reports = Vec::with_capacity(next);
    let mut bodies = Vec::with_capacity(next - n);
    for (f, (report, slow)) in analyzed.into_iter().enumerate() {
        let (Some(fast_id), Some((mut slow, mut slow_report))) = (fast_of[f], slow) else {
            reports.push(report);
            continue;
        };
        let id = FuncId::new(f);
        let slow_id = FuncId::new(fast_id.index() + 1);
        let entry = build_dispatcher(module.function(id), facts.of(id), fast_id, slow_id);
        // A traced run traces the dispatcher as a function without checks.
        let mut entry_report = FunctionReport::new(entry.name_arc());
        entry_report.trace = report.trace.as_ref().map(|_| Box::default());
        reports.push(entry_report);
        let mut fast = module.replace_function(id, entry);
        let mut fast_report = report;
        for (body, report, suffix) in [
            (&mut fast, &mut fast_report, "fast"),
            (&mut slow, &mut slow_report, "slow"),
        ] {
            body.set_name(format!("{}${suffix}", body.name()));
            report.name = body.name_arc();
        }
        bodies.push((fast, fast_report));
        bodies.push((slow, slow_report));
    }
    for (body, report) in bodies {
        module.add_function(body);
        reports.push(report);
    }
    debug_assert_eq!(abcd_ir::verify_module(module).map_err(|e| e.0), Ok(()));
    reports
}

/// The function a name belongs to in the source module: `f` for the
/// `f$fast` and `f$slow` bodies of a guarded entry, any other name as it
/// is (MJ identifiers cannot hold `$`).
pub fn source_name(name: &str) -> &str {
    name.strip_suffix("$fast")
        .or_else(|| name.strip_suffix("$slow"))
        .unwrap_or(name)
}

/// The functions `func` calls.
fn calls_of(func: &Function) -> Vec<FuncId> {
    func.blocks()
        .flat_map(|b| func.block(b).insts())
        .filter_map(|&id| match func.inst(id).kind {
            InstKind::Call { func, .. } => Some(func),
            _ => None,
        })
        .collect()
}

/// Builds `fn f(params…) { if (guards) { return f$fast(…) } return f$slow(…) }`
/// as a guard chain: each failing fact jumps straight to the slow body.
fn build_dispatcher(
    original: &Function,
    facts: &[ParamFact],
    fast_id: FuncId,
    slow_id: FuncId,
) -> Function {
    let params: Vec<Type> = original.param_types().to_vec();
    let ret = original.ret_type().cloned();
    let mut b = FunctionBuilder::new(original.name_arc(), params.clone(), ret.clone());
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

    // The guards define values in blocks printed after the calls' blocks;
    // renumbering in print order makes the text parse back to itself.
    abcd_ir::canonicalize(&b.finish().expect("dispatcher verifies"))
}

/// Emits the (side-effect-free) runtime test for one fact: its relation
/// `v ≤ u + c` (upper) / `v ≥ u + c` (lower) over the actual arguments, as
/// one comparison of `v` against `u` — no arithmetic that could wrap.
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
    use crate::stage::essa_module as prepared;

    #[test]
    fn verified_constant_arguments_survive() {
        let m = prepared(
            "fn get(a: int[], i: int) -> int { return a[i]; }
             fn main() -> int {
                 let a: int[] = new int[8];
                 return get(a, 3) + get(a, 0);
             }",
        );
        let facts = infer_param_facts(&m);
        let get = m.function_by_name("get").unwrap();
        assert!(facts.of(get).contains(&ParamFact::NonNegative { param: 1 }));
        assert!(facts
            .of(get)
            .contains(&ParamFact::WithinBounds { param: 1, array: 0 }));
    }

    #[test]
    fn violating_call_site_kills_fact() {
        let m = prepared(
            "fn get(a: int[], i: int) -> int { return a[i]; }
             fn main(x: int) -> int {
                 let a: int[] = new int[8];
                 return get(a, x);       // x unconstrained
             }",
        );
        let facts = infer_param_facts(&m);
        let get = m.function_by_name("get").unwrap();
        assert!(facts.of(get).is_empty(), "{:?}", facts.of(get));
    }

    #[test]
    fn recursion_keeps_facts_that_recur_soundly() {
        // walk(a, i) recurses with i+1 only under i+1 < a.length, and is
        // entered with 0: both facts survive the recursive site.
        let m = prepared(
            "fn walk(a: int[], i: int) -> int {
                 let v: int = a[i];
                 if (i + 1 < a.length) { return v + walk(a, i + 1); }
                 return v;
             }
             fn main() -> int {
                 let a: int[] = new int[16];
                 if (a.length > 0) { return walk(a, 0); }
                 return 0;
             }",
        );
        let facts = infer_param_facts(&m);
        let walk = m.function_by_name("walk").unwrap();
        assert!(
            facts
                .of(walk)
                .contains(&ParamFact::WithinBounds { param: 1, array: 0 }),
            "{:?}",
            facts.of(walk)
        );
        assert!(facts
            .of(walk)
            .contains(&ParamFact::NonNegative { param: 1 }));
    }

    #[test]
    fn len_relation_between_array_params() {
        let m = prepared(
            "fn copy(dst: int[], src: int[]) {
                 for (let i: int = 0; i < src.length; i = i + 1) { dst[i] = src[i]; }
             }
             fn main() -> int {
                 let a: int[] = new int[8];
                 let b: int[] = new int[8];
                 copy(a, b);
                 return a[0];
             }",
        );
        let facts = infer_param_facts(&m);
        let copy = m.function_by_name("copy").unwrap();
        // len(src) ≤ len(dst): both are 8.
        assert!(
            facts.of(copy).contains(&ParamFact::LenLe { a: 1, b: 0 }),
            "{:?}",
            facts.of(copy)
        );
    }

    #[test]
    fn roots_get_no_facts() {
        let m = prepared(
            "fn helper(a: int[], i: int) -> int { return a[i]; }
             fn main() -> int { return 0; }",
        );
        // helper has no call sites → root-like → no facts.
        let facts = infer_param_facts(&m);
        assert!(facts.is_empty());
    }

    /// `src` through the driver with interprocedural facts.
    fn optimized(src: &str) -> (Module, Vec<FunctionReport>) {
        let mut m = abcd_frontend::compile(src).unwrap();
        let options = crate::OptimizerOptions {
            interprocedural: true,
            ..crate::OptimizerOptions::default()
        };
        let report = crate::Optimizer::with_options(options).optimize_module(&mut m, None);
        abcd_ir::verify_module(&m).unwrap();
        (m, report.functions)
    }

    /// The callee of the one call in `func`.
    fn callee(m: &Module, func: &str) -> String {
        let f = m.function(m.function_by_name(func).unwrap());
        m.function(calls_of(f)[0]).name().to_string()
    }

    #[test]
    fn parameter_bounded_loop_gets_a_guarded_entry() {
        let (m, reports) = optimized(
            "fn scan(a: int[], n: int) -> int {
                 let s: int = 0;
                 for (let i: int = 0; i < n; i = i + 1) { s = s + a[i]; }
                 return s;
             }
             fn main() -> int { let a: int[] = new int[8]; return scan(a, a.length); }",
        );
        let names: Vec<&str> = m.functions().map(|(_, f)| f.name()).collect();
        assert_eq!(names, ["scan", "main", "scan$fast", "scan$slow"]);
        let report_names: Vec<&str> = reports.iter().map(|r| &*r.name).collect();
        assert_eq!(report_names, names);
        // The dispatcher reports no checks; the fast body removes more.
        assert_eq!(reports[0].checks_total, 0);
        assert!(reports[2].removed_fully() > reports[3].removed_fully());
        assert!(reports[2].param_facts_used > 0);
        assert_eq!(reports[3].param_facts_used, 0);
        // `main` calls the fast body; the guard picks either.
        assert_eq!(callee(&m, "main"), "scan$fast");
        let fast = m.function(m.function_by_name("scan$fast").unwrap());
        let slow = m.function(m.function_by_name("scan$slow").unwrap());
        assert!(fast.count_checks().0 < slow.count_checks().0);
    }

    #[test]
    fn caller_of_a_guarded_function_gets_one_too() {
        // `outer` has no check its facts could remove, but its call's
        // facts were verified under them: its slow body must call the
        // guarded entry of `inner`, its fast body the fast one.
        let (m, _) = optimized(
            "fn inner(a: int[], i: int) -> int { return a[i]; }
             fn outer(a: int[], i: int) -> int { return inner(a, i); }
             fn main() -> int { let a: int[] = new int[8]; return outer(a, 3); }",
        );
        assert_eq!(callee(&m, "main"), "outer$fast");
        assert_eq!(callee(&m, "outer$fast"), "inner$fast");
        assert_eq!(callee(&m, "outer$slow"), "inner");
    }

    #[test]
    fn recursion_whose_facts_change_nothing_keeps_one_body() {
        let src = "fn count(a: int[], n: int) -> int {
                 if (n <= 0) { return 0; }
                 return 1 + count(a, n - 1);
             }
             fn main() -> int { let a: int[] = new int[4]; return count(a, a.length); }";
        let m = prepared(src);
        let count = m.function_by_name("count").unwrap();
        assert!(!infer_param_facts(&m).of(count).is_empty());
        let (m, reports) = optimized(src);
        assert_eq!(m.function_count(), 2, "{m}");
        assert_eq!(callee(&m, "count"), "count");
        assert_eq!(reports.len(), 2);
    }
}
