//! Behavioral tests of the demand prover that cut across modules:
//! memoization/subsumption economics, π-chain reasoning depth, and the
//! PRE prover's recursive salvage.

use abcd::{
    ConstraintLog, DemandProver, ExhaustiveDistances, InequalityGraph, Optimizer, OptimizerOptions,
    PreOutcome, PreProver, Problem, Stage, Vertex,
};
use abcd_ir::{CheckKind, Function, Value};

/// The first function of `src` in the driver's e-SSA form without
/// cleanup, whose value numbering would merge the tests' repeated
/// constants.
fn essa(src: &str) -> Function {
    let mut m = abcd_frontend::compile(src).unwrap();
    let options = OptimizerOptions {
        cleanup: false,
        ..OptimizerOptions::default()
    };
    Optimizer::with_options(options)
        .run_to(&mut m, Stage::InsertPi)
        .unwrap();
    let (_, f) = m.functions().next().unwrap();
    f.clone()
}

/// The `(array, index)` of every `kind` check of `f`, in block-major order.
fn checks_of(f: &Function, kind: CheckKind) -> Vec<(Value, Value)> {
    let mut log = ConstraintLog::default();
    log.record(f);
    let of_kind = log.checks().iter().filter(|c| c.kind == kind);
    of_kind.map(|c| (c.array, c.index)).collect()
}

#[test]
fn memo_subsumption_makes_repeat_queries_cheap() {
    let f = essa(
        "fn f(a: int[]) -> int {
            let s: int = 0;
            for (let i: int = 0; i < a.length; i = i + 1) {
                s = s + a[i] + a[i] + a[i] + a[i];
            }
            return s;
        }",
    );
    let g = InequalityGraph::build(&f, Problem::Upper, None);
    let checks = checks_of(&f, CheckKind::Upper);
    assert_eq!(checks.len(), 4);
    let (array, _) = checks[0];
    let mut p = DemandProver::new(&g, Vertex::ArrayLen(array));

    assert!(p.demand_prove(Vertex::Value(checks[0].1), -1));
    let first = p.steps;
    for (_, idx) in &checks[1..] {
        assert!(p.demand_prove(Vertex::Value(*idx), -1));
    }
    let rest = p.steps - first;
    // The later queries ride the memo: strictly cheaper per check than the
    // first (they are subsumed π-chains of the proven one).
    assert!(
        rest < first * 3,
        "memo ineffective: first={first}, rest-of-3={rest}"
    );
}

#[test]
fn long_pi_chains_prove_with_linear_steps() {
    // i, i-1, i-2, … i-6 all checked: each proof is a short walk, not a
    // re-exploration of the whole graph.
    let f = essa(
        "fn f(a: int[], i: int) -> int {
            let s: int = 0;
            if (i >= 6) {
                if (i < a.length) {
                    s = a[i] + a[i-1] + a[i-2] + a[i-3] + a[i-4] + a[i-5] + a[i-6];
                }
            }
            return s;
        }",
    );
    let g = InequalityGraph::build(&f, Problem::Upper, None);
    let checks = checks_of(&f, CheckKind::Upper);
    assert_eq!(checks.len(), 7);
    let (array, _) = checks[0];
    let mut p = DemandProver::new(&g, Vertex::ArrayLen(array));
    for (_, idx) in &checks {
        assert!(p.demand_prove(Vertex::Value(*idx), -1), "{f}");
    }
    assert!(
        p.steps < 40 * checks.len() as u64,
        "steps blew up: {}",
        p.steps
    );

    // Lower bounds hold too (i ≥ 6 covers the −6 offset exactly).
    let gl = InequalityGraph::build(&f, Problem::Lower, None);
    let mut pl = DemandProver::new(&gl, Vertex::Const(0));
    for (_, index) in checks_of(&f, CheckKind::Lower) {
        assert!(pl.demand_prove(Vertex::Value(index), 0), "{f}");
    }
}

#[test]
fn off_by_one_over_the_guard_fails_exactly() {
    // i ≥ 6 proves a[i−6] but must NOT prove a[i−7].
    let f = essa(
        "fn f(a: int[], i: int) -> int {
            if (i >= 6) {
                if (i < a.length) {
                    return a[i - 7];
                }
            }
            return 0;
        }",
    );
    let gl = InequalityGraph::build(&f, Problem::Lower, None);
    let mut pl = DemandProver::new(&gl, Vertex::Const(0));
    let lower = checks_of(&f, CheckKind::Lower)
        .last()
        .map(|&(_, index)| index);
    assert!(!pl.demand_prove(Vertex::Value(lower.unwrap()), 0), "{f}");
    // The exhaustive solver agrees: the distance is exactly one too weak.
    let ex = ExhaustiveDistances::compute(&gl, Vertex::Const(0));
    assert_eq!(ex.distance(&gl, Vertex::Value(lower.unwrap())), Some(1));
}

#[test]
fn pre_salvage_recurses_through_nested_phis() {
    // Both the inner and outer loops carry `limit`; the single unknown is
    // its initial value, so one compensating check at the entry edge fixes
    // the innermost check — found through two levels of φ.
    let f = essa(
        "fn f(a: int[], n: int) -> int {
            let limit: int = n;
            let s: int = 0;
            for (let r: int = 0; r < 3; r = r + 1) {
                for (let j: int = 0; j < limit; j = j + 1) {
                    s = s + a[j];
                }
                limit = limit - 1;
            }
            return s;
        }",
    );
    let g = InequalityGraph::build(&f, Problem::Upper, None);
    let (array, index) = checks_of(&f, CheckKind::Upper)[0];
    let mut pre = PreProver::new(&g, Vertex::ArrayLen(array), None);
    match pre.demand_prove(Vertex::Value(index), -1) {
        PreOutcome::ProvenWithInsertions(points) => {
            assert_eq!(points.len(), 1, "{points:?}\n{f}");
        }
        other => panic!("expected salvage, got {other:?}\n{f}"),
    }
}

#[test]
fn unrelated_array_does_not_leak_constraints() {
    // The guard is on b.length; checks on a must stay.
    let f = essa(
        "fn f(a: int[], b: int[], i: int) -> int {
            if (i >= 0) {
                if (i < b.length) {
                    return a[i];
                }
            }
            return 0;
        }",
    );
    let g = InequalityGraph::build(&f, Problem::Upper, None);
    let (array, index) = checks_of(&f, CheckKind::Upper)[0];
    let mut p = DemandProver::new(&g, Vertex::ArrayLen(array));
    assert!(!p.demand_prove(Vertex::Value(index), -1), "{f}");
    // …but the same index against b would be fine.
    let b_param = f.param(1);
    let mut pb = DemandProver::new(&g, Vertex::ArrayLen(b_param));
    assert!(pb.demand_prove(Vertex::Value(index), -1), "{f}");
}

#[test]
fn equality_guard_proves_both_directions_without_cycles() {
    // i == n-1 with n = a.length: both `a[i]` (upper via equality) and the
    // graph's acyclicity (no φ-free cycle from the == encoding) hold.
    let f = essa(
        "fn f(a: int[], i: int) -> int {
            let n: int = a.length;
            if (i == n - 1) {
                if (i >= 0) {
                    return a[i];
                }
            }
            return 0;
        }",
    );
    let g = InequalityGraph::build(&f, Problem::Upper, None);
    let (array, index) = checks_of(&f, CheckKind::Upper)[0];
    let mut p = DemandProver::new(&g, Vertex::ArrayLen(array));
    assert!(p.demand_prove(Vertex::Value(index), -1), "{f}");
    // And mirrored operands:
    let f2 = essa(
        "fn f(a: int[], i: int) -> int {
            let n: int = a.length;
            if (n - 1 == i) {
                if (0 <= i) {
                    return a[i];
                }
            }
            return 0;
        }",
    );
    let g2 = InequalityGraph::build(&f2, Problem::Upper, None);
    let (array2, index2) = checks_of(&f2, CheckKind::Upper)[0];
    let mut p2 = DemandProver::new(&g2, Vertex::ArrayLen(array2));
    assert!(p2.demand_prove(Vertex::Value(index2), -1), "{f2}");
}
