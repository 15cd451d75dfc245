//! An exhaustive (non-demand-driven) distance solver for the inequality
//! graph — the alternative §5 of the paper sketches before rejecting it for
//! JIT use ("An exhaustive algorithm analyzes all bounds checks in the
//! program, which in the context of shortest paths means computing the
//! single-source shortest-path problem for each array-length vertex").
//!
//! The generalized distance of §4 is the value of the equation system
//!
//! ```text
//! D(source) = 0
//! D(v)      = max over in-edges (D(u) + w)   if v is a max (φ) vertex
//! D(v)      = min over in-edges (D(u) + w)   otherwise
//! ```
//!
//! under the *finite hyperpath* semantics. That is the **least fixpoint**
//! of the (monotone) system, computed here by Kleene iteration from ⊥:
//!
//! 1. vertices with no edge path from the source (or from a constant axiom)
//!    are unconstrained — pinned at `+∞` up front, so they act as the
//!    identity at min vertices and poison max vertices, as they should;
//! 2. everything else starts at `−∞` and rises monotonically; a value that
//!    is still rising after `|V| + 2` rounds can only be fed by a cycle
//!    with positive gain — the paper's *amplifying* cycle — and is pinned
//!    at `+∞` (re-iterating until no new pins appear);
//! 3. the §4 consistency invariant (every cycle passes a φ; no φ-free
//!    cycles, which the graph builder enforces for a function's own
//!    constraints) guarantees `−∞` is never a self-justifying fixpoint, so
//!    surviving `−∞` means "no derivation", reported as unconstrained.
//!    (Assumed parameter facts can close a φ-free cycle; the demand
//!    prover refutes through one, and this oracle is not run on graphs
//!    with assumed facts.)
//!
//! Besides reproducing the paper's cost comparison (work proportional to
//! the whole graph instead of to the queried check), this solver is an
//! independent oracle: the differential tests require every
//! `demandProve` verdict to equal the exhaustive one, on the benchsuite
//! and on random programs.

use crate::graph::{InequalityGraph, Problem, Vertex, VertexId};

/// Sentinel for "unconstrained" (no bounding hyperpath from the source).
const INF: i64 = i64::MAX / 4;
/// Kleene bottom ("no derivation found yet").
const BOT: i64 = i64::MIN / 4;

/// Distances from one source vertex to every vertex of the graph.
#[derive(Clone, Debug)]
pub struct ExhaustiveDistances {
    dist: Vec<i64>,
    source_vertex: Vertex,
    source_potential: Option<i64>,
    problem: Problem,
    /// Vertex relaxations performed (the cost metric to compare with
    /// [`DemandProver::steps`](crate::DemandProver)).
    pub steps: u64,
}

impl ExhaustiveDistances {
    /// Runs the single-source computation for `source` over `graph`.
    pub fn compute(graph: &InequalityGraph, source: Vertex) -> ExhaustiveDistances {
        let n = graph.vertex_count();
        let src = graph.lookup(source);
        let source_potential = src.and_then(|s| graph.potential(s));
        let mut this = ExhaustiveDistances {
            dist: vec![BOT; n],
            source_vertex: source,
            source_potential,
            problem: graph.problem(),
            steps: 0,
        };
        if n == 0 {
            return this;
        }

        // Axioms: the source, and — when the source is a constant —
        // every constant-potential vertex (exact numeric relation,
        // computed in i128 so adversarial constants saturate instead of
        // wrapping).
        let mut axiom = vec![false; n];
        if let Some(s) = src {
            this.dist[s.index()] = 0;
            axiom[s.index()] = true;
        }
        if let Some(pa) = source_potential {
            for (v, is_axiom) in axiom.iter_mut().enumerate() {
                if let Some(pv) = graph.potential(VertexId::from_index(v)) {
                    let rel = (pv as i128 - pa as i128).clamp(BOT as i128 + 1, INF as i128);
                    this.dist[v] = this.dist[v].max(rel as i64);
                    *is_axiom = true;
                }
            }
        }

        // Step 1: plain edge reachability from the axioms over a forward
        // adjacency built from the in-edges; everything not reached
        // carries no constraint at all.
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for v in 0..n {
            for e in graph.in_edges(VertexId::from_index(v)) {
                out[e.src.index()].push(v);
            }
        }
        let mut reach = axiom.clone();
        let mut work: Vec<usize> = (0..n).filter(|&v| axiom[v]).collect();
        while let Some(v) = work.pop() {
            for &w in &out[v] {
                if !reach[w] {
                    reach[w] = true;
                    work.push(w);
                }
            }
        }
        for v in 0..n {
            if !reach[v] && !axiom[v] {
                this.dist[v] = INF;
            }
        }

        // Steps 2–3: Kleene from below with amplification pinning.
        // ⊥ participates as a genuine −∞: max ignores not-yet-derived
        // inputs (and converges upward as they appear), min is dragged to
        // ⊥ by them (and rises together with them) — exactly the monotone
        // Kleene step.
        let relax = |dist: &[i64], v: usize| -> i64 {
            let vid = VertexId::from_index(v);
            let is_max = graph.is_max(vid);
            let mut val = if is_max { BOT } else { INF };
            for e in graph.in_edges(vid) {
                let via = add(dist[e.src.index()], e.weight);
                val = if is_max { val.max(via) } else { val.min(via) };
            }
            val
        };
        let active =
            |v: usize| !axiom[v] && reach[v] && !graph.in_edges(VertexId::from_index(v)).is_empty();
        let mut pinned = vec![false; n];
        loop {
            let mut changed_last = false;
            for _ in 0..n + 2 {
                changed_last = false;
                for (v, &is_pinned) in pinned.iter().enumerate() {
                    if is_pinned || !active(v) {
                        continue;
                    }
                    let val = relax(&this.dist, v);
                    this.steps += 1;
                    if val > this.dist[v] {
                        this.dist[v] = val;
                        changed_last = true;
                    }
                }
                if !changed_last {
                    break;
                }
            }
            if !changed_last {
                break;
            }
            // Still rising after |V|+2 rounds: pin every vertex that an
            // extra round would still improve (amplifying cycles).
            let mut pinned_any = false;
            for (v, is_pinned) in pinned.iter_mut().enumerate() {
                if *is_pinned || !active(v) {
                    continue;
                }
                if relax(&this.dist, v) > this.dist[v] {
                    this.dist[v] = INF;
                    *is_pinned = true;
                    pinned_any = true;
                }
            }
            if !pinned_any {
                break;
            }
        }

        // Step 4: downward correction (narrowing). The from-below sweep
        // over-pins: a positive-gain cycle that a parallel edge clamps at a
        // min vertex (`x ≤ x_prev + 1` next to `x ≤ limit`) rises by one
        // per trip, so its fixpoint is O(weight) rounds away while the
        // round bound is O(|V|) — the pinning pass then widens the whole
        // cycle to `INF` even though it converges. The pinned table is a
        // post-fixpoint (every coordinate ≥ the least fixpoint), so
        // re-applying the equations downward only removes widening
        // overshoot and every intermediate table stays sound; genuinely
        // amplifying cycles keep `INF` because their φ max holds them up.
        for _ in 0..n + 2 {
            let mut changed = false;
            for v in 0..n {
                if !active(v) {
                    continue;
                }
                let val = relax(&this.dist, v);
                this.steps += 1;
                if val < this.dist[v] {
                    this.dist[v] = val;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        this
    }

    /// The distance to `v`, or `None` if `v` is unconstrained (no bounding
    /// hyperpath from the source, or an amplifying cycle).
    pub fn distance(&self, graph: &InequalityGraph, v: Vertex) -> Option<i64> {
        let id = graph.lookup(v)?;
        let d = self.dist[id.index()];
        (d < INF && d > BOT).then_some(d)
    }

    /// Is `target − source ≤ c` implied? (The exhaustive analogue of
    /// `DemandProver::demand_prove`.)
    pub fn proves(&self, graph: &InequalityGraph, target: Vertex, c: i64) -> bool {
        if target == self.source_vertex {
            return c >= 0;
        }
        // Constant targets against constant sources resolve numerically
        // (in i128 — near-i64::MAX constants must not wrap).
        if let (Vertex::Const(k), Some(pa)) = (target, self.source_potential) {
            let pk = match self.problem {
                Problem::Upper => k as i128,
                Problem::Lower => -(k as i128),
            };
            if pk - pa as i128 <= c as i128 {
                return true;
            }
        }
        match self.distance(graph, target) {
            Some(d) => d <= c,
            None => false,
        }
    }
}

/// Sentinel-aware addition. A finite sum that collides with the sentinel
/// range saturates, which is conservative: `INF` keeps the check, and
/// `BOT + 1` over-claims the distance only upward.
fn add(a: i64, b: i64) -> i64 {
    if a >= INF {
        INF
    } else if a <= BOT {
        BOT
    } else {
        (a as i128 + b as i128).clamp(BOT as i128 + 1, INF as i128) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Problem;
    use crate::solver::DemandProver;
    use crate::stage::essa;
    use abcd_ir::{CheckKind, Function};

    fn checks(f: &Function) -> Vec<(abcd_ir::Value, abcd_ir::Value, CheckKind)> {
        let mut log = crate::ConstraintLog::default();
        log.record(f);
        log.checks()
            .iter()
            .map(|c| (c.array, c.index, c.kind))
            .collect()
    }

    /// On a battery of shapes, the demand prover must never prove anything
    /// the exhaustive solver refutes (soundness cross-validation); on these
    /// specific programs the two agree exactly.
    #[test]
    fn agrees_with_demand_prover_on_suite_shapes() {
        let sources = [
            "fn f(a: int[]) -> int {
                let s: int = 0;
                for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
                return s;
            }",
            "fn f(a: int[], i: int) -> int {
                if (0 <= i) { if (i < a.length) { return a[i]; } }
                return 0;
            }",
            "fn f(a: int[], n: int) -> int {
                let s: int = 0;
                for (let i: int = 0; i < n; i = i + 1) { s = s + a[i]; }
                return s;
            }",
            "fn f(a: int[]) -> int {
                let limit: int = a.length;
                let s: int = 0;
                while (limit > 0) {
                    limit = limit - 1;
                    s = s + a[limit];
                }
                return s;
            }",
            "fn f() -> int { let a: int[] = new int[10]; return a[9] + a[0]; }",
            "fn f(a: int[]) {
                let limit: int = a.length;
                let st: int = 0 - 1;
                while (st < limit) {
                    st = st + 1;
                    limit = limit - 1;
                    for (let j: int = st; j < limit; j = j + 1) {
                        let x: int = a[j];
                        let y: int = a[j + 1];
                    }
                }
            }",
        ];
        for src in sources {
            let f = essa(src);
            for problem in [Problem::Upper, Problem::Lower] {
                let g = InequalityGraph::build(&f, problem, None);
                for (array, index, _) in checks(&f) {
                    let (source, c) = match problem {
                        Problem::Upper => (Vertex::ArrayLen(array), -1),
                        Problem::Lower => (Vertex::Const(0), 0),
                    };
                    let mut demand = DemandProver::new(&g, source);
                    let d = demand.demand_prove(Vertex::Value(index), c);
                    let ex = ExhaustiveDistances::compute(&g, source);
                    let e = ex.proves(&g, Vertex::Value(index), c);
                    assert_eq!(d, e, "{problem:?} disagreement on {index} in\n{src}\n{f}");
                }
            }
        }
    }

    #[test]
    fn distance_matches_paper_figure4() {
        // The paper computes distance(A.length, j2) = −2 in Figure 4.
        let f = essa(
            "fn f(a: int[]) {
                let limit: int = a.length;
                let st: int = 0 - 1;
                while (st < limit) {
                    st = st + 1;
                    limit = limit - 1;
                    for (let j: int = st; j < limit; j = j + 1) {
                        let x: int = a[j];
                    }
                }
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (array, index, _) = checks(&f)
            .into_iter()
            .find(|(_, _, k)| *k == CheckKind::Upper)
            .unwrap();
        let ex = ExhaustiveDistances::compute(&g, Vertex::ArrayLen(array));
        assert_eq!(
            ex.distance(&g, Vertex::Value(index)),
            Some(-2),
            "paper's Figure 4 distance\n{f}"
        );
        assert!(ex.proves(&g, Vertex::Value(index), -1));
    }

    #[test]
    fn interdependent_phis_settle_at_weakest_entry() {
        // Two φs feeding each other through zero-weight π/check chains must
        // settle at max of their entries, not be declared amplifying.
        let f = essa(
            "fn f(a: int[], x: int) -> int {
                let s: int = 0;
                a[x] = 1;
                for (let i: int = 0; i < a.length; i = i + 1) {
                    if (x < 0) { x = 1; }
                    s = s + a[x];
                }
                return s;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Lower, None);
        let lower_checks: Vec<_> = checks(&f)
            .into_iter()
            .filter(|(_, _, k)| *k == CheckKind::Lower)
            .collect();
        let ex = ExhaustiveDistances::compute(&g, Vertex::Const(0));
        let mut demand = DemandProver::new(&g, Vertex::Const(0));
        for (_, index, _) in lower_checks {
            assert_eq!(
                demand.demand_prove(Vertex::Value(index), 0),
                ex.proves(&g, Vertex::Value(index), 0),
                "lower disagreement on {index}\n{f}"
            );
        }
    }

    #[test]
    fn clamped_cycle_narrows_back_from_the_widening_pin() {
        // Regression (found by the engine-parity sweep on the `mpeg`
        // kernel): a constant-bound loop over a constant-size allocation
        // forms a +1-gain cycle clamped by a parallel min edge (`i ≤ 63`).
        // The fixpoint climb is O(bound) rounds, the sweep's round budget
        // is O(|V|), so the pinning pass used to widen the whole cycle to
        // INF and refute a check the demand prover proves via potentials.
        // The downward-correction rounds must recover the exact fixpoint.
        let f = essa(
            "fn f() -> int {
                let a: int[] = new int[64];
                let s: int = 0;
                for (let i: int = 0; i < 64; i = i + 1) { s = s + a[i]; }
                return s;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (array, index, _) = checks(&f)
            .into_iter()
            .find(|(_, _, k)| *k == CheckKind::Upper)
            .unwrap();
        let source = Vertex::ArrayLen(array);
        let mut demand = DemandProver::new(&g, source);
        assert!(demand.demand_prove(Vertex::Value(index), -1), "{f}");
        let ex = ExhaustiveDistances::compute(&g, source);
        assert!(
            ex.proves(&g, Vertex::Value(index), -1),
            "sweep must agree with the demand prover on the clamped cycle\n{f}"
        );
    }

    #[test]
    fn amplifying_cycle_yields_unbounded_distance() {
        // j grows without a length bound: its φ must be +∞ in the upper
        // problem (the amplification pin), never a finite value.
        let f = essa(
            "fn f(a: int[], n: int) -> int {
                let s: int = 0;
                for (let j: int = 0; j < n; j = j + 1) { s = s + a[j]; }
                return s;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (array, index, _) = checks(&f)
            .into_iter()
            .find(|(_, _, k)| *k == CheckKind::Upper)
            .unwrap();
        let ex = ExhaustiveDistances::compute(&g, Vertex::ArrayLen(array));
        assert!(!ex.proves(&g, Vertex::Value(index), -1));
        // ... while the lower problem proves j ≥ 0 (negative cycle broken
        // at the φ, per §4's consistency argument).
        let gl = InequalityGraph::build(&f, Problem::Lower, None);
        let exl = ExhaustiveDistances::compute(&gl, Vertex::Const(0));
        let (_, lower_index, _) = checks(&f)
            .into_iter()
            .find(|(_, _, k)| *k == CheckKind::Lower)
            .unwrap();
        assert!(exl.proves(&gl, Vertex::Value(lower_index), 0), "{f}");
    }

    #[test]
    fn exhaustive_work_scales_with_graph_not_query() {
        let f = essa(
            "fn f(a: int[]) -> int {
                let s: int = 0;
                for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
                return s;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (array, index, _) = checks(&f)[0];
        let ex = ExhaustiveDistances::compute(&g, Vertex::ArrayLen(array));
        let mut demand = DemandProver::new(&g, Vertex::ArrayLen(array));
        demand.demand_prove(Vertex::Value(index), -1);
        assert!(
            ex.steps > demand.steps,
            "exhaustive {} vs demand {}",
            ex.steps,
            demand.steps
        );
    }
}
