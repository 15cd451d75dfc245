//! Optional interprocedural extension: parameter-fact inference.
//!
//! The paper's evaluation is purely intraprocedural and names that as its
//! main limitation ("We do not use any interprocedural summary information
//! … results should be considered a lower bound"). This module implements
//! the natural ABCD-flavored summary scheme as an opt-in extension
//! ([`OptimizerOptions::interprocedural`](crate::OptimizerOptions)):
//!
//! 1. **Candidates.** For every non-root function, guess difference facts
//!    about its parameters — `p ≥ 0`, `p ≤ A.length − 1`, and
//!    `A.length ≤ B.length` for parameter arrays — the same constraint
//!    classes ABCD already reasons about (C2/C5-shaped, Table 1).
//! 2. **Optimistic fixpoint.** Assume all candidates, then repeatedly
//!    *verify* each fact at every call site by running `demandProve` in the
//!    caller's graph (itself filled with the caller's currently-assumed
//!    facts) on the actual arguments; drop facts that fail anywhere and
//!    repeat until stable. The set shrinks monotonically, so this
//!    terminates; by induction over the call tree (roots assume nothing),
//!    every surviving fact holds on all executions entered through a root.
//! 3. **Use.** The surviving facts become rows of the callee's
//!    [`ConstraintLog`] ([`ConstraintLog::assume`]) when its own checks
//!    are analyzed, so its whole-function graphs carry them as edges.
//!
//! What a fact means is defined once, by [`ParamFact`]'s Table 1 relation:
//! the same `(problem, u, v, c)` tuple is a log row in the callee, the
//! query proven at each call site in the caller, and (in
//! [`crate::versioning`]) the runtime guard of a fast version.
//!
//! **Closed-world caveat**: a function is a *root* (gets no assumed facts)
//! if it is named `main` or has no call site inside the module. With the
//! extension enabled, only executions entered through roots are covered —
//! calling an assumed function directly with violating arguments is outside
//! the contract. This is why the option defaults to off, keeping the
//! paper-faithful behavior.

use crate::graph::{ConstraintLog, InequalityGraph, Problem, Scope, Vertex};
use crate::solver::DemandProver;
use abcd_ir::{FuncId, InstKind, Module, Type, Value};
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

/// All candidate facts for a parameter list — the vocabulary both the
/// interprocedural fixpoint and function versioning draw from. Stronger
/// facts precede weaker ones about the same parameters, so greedy
/// minimizers keep the weakest sufficient guard.
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
}
