//! The demand-driven constraint solver: one Figure 5 `demandProve`
//! traversal, run in one of two modes.
//!
//! `demandProve(G, t)` asks whether the distance from a source vertex `a`
//! (an array length, or the constant 0 for lower-bound checks) to a target
//! `b` (the checked index) is at most `c`. The traversal walks **backwards**
//! along in-edges from `b` towards `a`, adjusting the allowed slack `c` by
//! each edge weight:
//!
//! * reaching `a` with `c ≥ 0` proves the traversed path (True);
//! * a vertex with no constraints refutes it (False);
//! * re-visiting an active vertex detects a cycle: if the current slack is
//!   *smaller* than when the vertex was first entered, the cycle has
//!   positive weight — an *amplifying* cycle (an induction variable
//!   incremented in a loop) — and the path is refuted; otherwise the cycle
//!   is harmless and reports `Reduced` — provided a max (φ) vertex lies on
//!   it, as §4 assumes of every cycle; a φ-free cycle, which assumed
//!   parameter facts can close, refutes the path;
//! * results merge with **meet** at max (φ) vertices — all paths must prove
//!   — and **join** at min vertices — any path suffices — over the lattice
//!   `True > Reduced > False`.
//!
//! The traversal — fuel gate, memo probe, the source, potential,
//! unconstrained and cycle leaves, the active set, the trace events and
//! the rule for what may be memoized — exists once, in `Prover::prove`.
//! A [`Mode`] supplies only the verdict type, the memo probe and the
//! in-edge merge:
//!
//! * [`Demand`] (Figure 5, [`DemandProver`]) returns a [`Lattice`] and
//!   short-circuits at max and min vertices. Its memo uses subsumption: a
//!   difference proven with a smaller bound proves every weaker query, and
//!   one refuted with a larger bound refutes every stronger query.
//! * [`Pre`] (§6.1, [`PreProver`]) collects insertion points: a `False`
//!   verdict carries, when possible, the φ in-edges where compensating
//!   checks would make the query provable — the edges are "discovered
//!   during backtracking" of the same traversal. Its memo matches slacks
//!   exactly (subsumption is unsound for insertion sets).

use crate::graph::{InEdge, InequalityGraph, Vertex, VertexId};
use crate::trace::ProveEvent;
use abcd_ir::{Block, Value};

/// The three-point result lattice (`True > Reduced > False`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Lattice {
    /// The difference was refuted on some path.
    False,
    /// A harmless (non-amplifying) cycle was reduced.
    Reduced,
    /// The difference holds.
    True,
}

impl Lattice {
    /// Meet (greatest lower bound): used at max/φ vertices.
    pub fn meet(self, other: Lattice) -> Lattice {
        self.min(other)
    }

    /// Join (least upper bound): used at min vertices.
    pub fn join(self, other: Lattice) -> Lattice {
        self.max(other)
    }

    /// Stable lower-case name, used by the trace schema.
    pub fn name(self) -> &'static str {
        match self {
            Lattice::False => "false",
            Lattice::Reduced => "reduced",
            Lattice::True => "true",
        }
    }
}

/// A single compensating-check insertion point discovered by the PRE
/// extension: insert `check A[arg + δ]` at the end of `pred` (the φ
/// in-edge), where δ is derived from `c_prime` by the driver.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InsertionPoint {
    /// The predecessor block owning the failing φ in-edge (critical edges
    /// are split, so this block *is* the edge).
    pub pred: Block,
    /// The failing φ argument — the compensating check's base index.
    pub arg: Value,
    /// The remaining difference query at the insertion point:
    /// the check must establish `arg − a ≤ c_prime` (solver domain).
    pub c_prime: i64,
}

/// Result of a PRE-collecting query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PreOutcome {
    /// Fully redundant — no insertions needed.
    Proven,
    /// Partially redundant — redundant once checks are inserted at all the
    /// given points.
    ProvenWithInsertions(Vec<InsertionPoint>),
    /// Not provable even with insertions.
    Failed,
}

/// Sentinel for "this verdict depends on no active ancestor" — it is a
/// context-free fact about the constraint system and safe to memoize.
const NO_DEP: u32 = u32::MAX;

/// Reusable dense state for a [`Prover`] — the per-worker scratch the
/// zero-allocation prove path is built on. Every table is indexed by
/// `VertexId` and sized once per function ([`attach`](Self::attach));
/// clearing between functions is O(touched vertices), and clearing the
/// active set between queries is O(1) (an epoch bump).
#[derive(Debug)]
pub struct ProverScratch<V> {
    /// memo[v] = (c, verdict) entries, consulted by [`Mode::probe`].
    memo: Vec<Vec<(i64, V)>>,
    /// Vertices holding at least one memo entry (bounds the reset walk).
    touched: Vec<u32>,
    /// Active DFS entry slack, valid where `mark == epoch`.
    active_c: Vec<i64>,
    /// Active DFS stack depth, valid where `mark == epoch`.
    active_d: Vec<u32>,
    mark: Vec<u32>,
    /// Current query's epoch; 0 is never current, so stale marks are inert.
    epoch: u32,
}

impl<V> Default for ProverScratch<V> {
    fn default() -> Self {
        ProverScratch {
            memo: Vec::new(),
            touched: Vec::new(),
            active_c: Vec::new(),
            active_d: Vec::new(),
            mark: Vec::new(),
            epoch: 0,
        }
    }
}

impl<V> ProverScratch<V> {
    /// Sizes the tables for a graph of `n` vertices and clears leftovers
    /// from the previous function. Growth allocates (that is the
    /// per-function reserve); re-attachment at steady-state sizes does not.
    fn attach(&mut self, n: usize) {
        self.reset_memo();
        if self.memo.len() < n {
            self.memo.resize_with(n, Vec::new);
        }
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.active_c.resize(n, 0);
            self.active_d.resize(n, 0);
        }
    }

    /// Invalidates the whole active set in O(1).
    fn begin_query(&mut self) {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Drops every memoized verdict while keeping each buffer's capacity,
    /// so subsequent queries re-traverse without allocating — what the
    /// allocation gate uses to prove the warm path is allocation-free even
    /// on memo misses.
    pub fn reset_memo(&mut self) {
        for &v in &self.touched {
            self.memo[v as usize].clear();
        }
        self.touched.clear();
    }
}

/// The scratch of a [`DemandProver`].
pub type DemandScratch = ProverScratch<Lattice>;
/// The scratch of a [`PreProver`], pooled across functions like
/// [`DemandScratch`]. (The PRE mode returns owned [`InsertionPoint`] sets
/// by design and is therefore outside the zero-allocation gate.)
pub type PreScratch = ProverScratch<PreVerdict>;

/// What one traversal mode contributes to the shared `Prover::prove`.
pub trait Mode: Sized {
    /// What one `prove` call returns.
    type Verdict: Clone;
    /// A verdict carrying nothing but `lat` (the leaves' answers).
    fn leaf(lat: Lattice) -> Self::Verdict;
    /// The verdict's lattice point.
    fn lattice(verdict: &Self::Verdict) -> Lattice;
    /// Lines 3–5: the memoized verdict of a vertex (its `(c, verdict)`
    /// entries) that answers slack `c`, if any.
    fn probe(entries: &[(i64, Self::Verdict)], c: i64) -> Option<Self::Verdict>;
    /// Lines 12–18: visits the in-edges of `v` (entered with slack `c` at
    /// stack depth `depth`) and merges their verdicts. Returns the verdict
    /// and the depth of the shallowest active ancestor it depends on.
    fn merge(
        p: &mut Prover<'_, Self>,
        v: VertexId,
        c: i64,
        edges: &[InEdge],
        depth: u32,
    ) -> (Self::Verdict, u32);
}

/// A demand-driven prover for one `(graph, source)` pair, in mode `M`.
///
/// The memo table persists across queries against the same source (e.g. all
/// checks of the same array), which is how the paper's "fewer than 10
/// analysis steps per check" arises in practice.
///
/// # Memo soundness across queries
///
/// A verdict computed while an ancestor vertex is still on the active
/// DFS stack (a cycle was closed below it) is valid only *relative to that
/// ancestor's pending resolution*: a `Reduced` obtained by hitting an
/// active vertex may collapse to `False` once the ancestor's other in-edges
/// refute it. Since the memo table outlives the traversal (and the whole
/// prover is shared across every check with the same source), caching such
/// context-dependent verdicts is unsound. `prove` therefore tracks, for
/// every sub-result, the shallowest active ancestor it depended on, and
/// only memoizes verdicts that are self-contained (depend on no ancestor
/// above the vertex itself).
#[derive(Debug)]
pub struct Prover<'g, M: Mode> {
    graph: &'g InequalityGraph,
    source: Option<VertexId>,
    source_vertex: Vertex,
    mode: M,
    /// Dense memo/active tables, possibly donated by a
    /// [`crate::ScratchArena`] and reclaimable via [`Prover::into_scratch`].
    scratch: ProverScratch<M::Verdict>,
    /// Per-query fuel allowance (`u64::MAX` = unbudgeted). Every query
    /// starts with a fresh allowance of this many steps, so one query's
    /// spend never starves the next.
    query_fuel: u64,
    /// Step count at which the *current* query's fuel runs out; derived
    /// from `query_fuel` at the start of every query.
    fuel_stop: u64,
    /// Did the current query trip its budget? Post-exhaustion verdicts are
    /// conservative placeholders, not genuine refutations, so while this is
    /// set nothing may enter the memo table.
    exhausted_in_query: bool,
    /// Did the current query hit an `i64` overflow while accumulating path
    /// weights? Overflow verdicts are conservative (`False`, the check
    /// stays) and — like exhaustion — never enter the memo table.
    overflow_in_query: bool,
    /// One more than the stack depth of the deepest active max (φ)
    /// vertex; 0 while none is active.
    max_depth: u32,
    /// Invocations of `prove` — the paper's "analysis steps".
    pub steps: u64,
    /// Queries answered from the memo table.
    pub memo_hits: u64,
    /// Queries that had to traverse (memo misses at interned vertices).
    pub memo_misses: u64,
    /// Queries that tripped their fuel budget (fail-open: the check stays).
    pub exhausted_queries: u64,
    /// Traversal recorder: `None` (the default) keeps the hot path a
    /// single untaken branch per record point — no allocation, no
    /// formatting. [`Prover::enable_trace`] arms it.
    trace: Option<Vec<ProveEvent>>,
}

/// The Figure 5 prover: is `target − source ≤ c`?
pub type DemandProver<'g> = Prover<'g, Demand>;
/// The §6.1 PRE-collecting prover: which φ in-edges would make
/// `target − source ≤ c` provable?
pub type PreProver<'g, 'f> = Prover<'g, Pre<'f>>;

impl<'g, M: Mode> Prover<'g, M> {
    fn with_mode(
        graph: &'g InequalityGraph,
        source: Vertex,
        mode: M,
        mut scratch: ProverScratch<M::Verdict>,
    ) -> Self {
        scratch.attach(graph.vertex_count());
        Prover {
            graph,
            source: graph.lookup(source),
            source_vertex: source,
            mode,
            scratch,
            query_fuel: u64::MAX,
            fuel_stop: u64::MAX,
            exhausted_in_query: false,
            overflow_in_query: false,
            max_depth: 0,
            steps: 0,
            memo_hits: 0,
            memo_misses: 0,
            exhausted_queries: 0,
            trace: None,
        }
    }

    /// Retires the prover, handing its scratch back for reuse (typically
    /// into a [`crate::ScratchArena`]).
    pub fn into_scratch(self) -> ProverScratch<M::Verdict> {
        self.scratch
    }

    /// Drops memoized verdicts while keeping every buffer's capacity, so
    /// subsequent queries re-traverse without allocating (see
    /// [`ProverScratch::reset_memo`]).
    pub fn reset_memo(&mut self) {
        self.scratch.reset_memo();
    }

    /// Budgets every subsequent query: each may spend at most `fuel` solver
    /// steps of its own before it is cut off with a conservative `False`
    /// (the check stays in place — fail-open). The allowance is re-armed at
    /// the start of each query, so query N's spend cannot starve query N+1.
    pub fn set_query_fuel(&mut self, fuel: u64) {
        self.query_fuel = fuel;
        self.fuel_stop = self.steps.saturating_add(fuel);
    }

    /// Did the most recent `demand_prove` trip its fuel budget?
    pub fn last_query_exhausted(&self) -> bool {
        self.exhausted_in_query
    }

    /// Did the most recent `demand_prove` answer conservatively because a
    /// path-weight accumulation overflowed `i64`?
    pub fn last_query_overflowed(&self) -> bool {
        self.overflow_in_query
    }

    /// Arms the traversal recorder: subsequent queries append their events
    /// to an internal buffer drained by [`Prover::take_trace`].
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Drains the recorded events. On a prover that never had tracing
    /// enabled this returns a `Vec` with capacity 0 — the structural
    /// witness that the disabled path never allocated.
    pub fn take_trace(&mut self) -> Vec<ProveEvent> {
        match &mut self.trace {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// The `steps` field; stays only for the frozen benchmark replay.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Arms a query and runs it from `target`. `None` when `target` occurs
    /// in no constraint; a query that trips its fuel answers `False`.
    fn query(&mut self, target: Vertex, c: i64) -> Option<M::Verdict> {
        self.exhausted_in_query = false;
        self.overflow_in_query = false;
        self.fuel_stop = self.steps.saturating_add(self.query_fuel);
        let t = self.graph.lookup(target)?;
        self.scratch.begin_query();
        let (verdict, _) = self.prove(t, c, 0);
        if self.exhausted_in_query {
            self.exhausted_queries += 1;
            return Some(M::leaf(Lattice::False)); // conservative: keep the check
        }
        Some(verdict)
    }

    fn record(&mut self, event: impl FnOnce(String) -> ProveEvent, v: VertexId) {
        if let Some(buf) = &mut self.trace {
            buf.push(event(self.graph.vertex(v).to_string()));
        }
    }

    /// One traversal step. Returns the verdict together with the depth of
    /// the shallowest *active ancestor* the verdict depends on ([`NO_DEP`]
    /// when it depends on none). Only verdicts whose dependency is not
    /// shallower than the vertex's own stack position are memoized; the
    /// rest are valid only within the enclosing traversal.
    fn prove(&mut self, v: VertexId, c: i64, d: u32) -> (M::Verdict, u32) {
        // Fuel gate: past the budget every verdict is a conservative False
        // ("cannot prove"), which keeps the check — never unsound, never an
        // unbounded walk.
        if self.steps >= self.fuel_stop {
            self.exhausted_in_query = true;
            if let Some(buf) = &mut self.trace {
                buf.push(ProveEvent::Fuel { d });
            }
            return (M::leaf(Lattice::False), NO_DEP);
        }
        self.steps += 1;

        // Lines 3–5: the memo.
        if let Some(hit) = M::probe(&self.scratch.memo[v.0 as usize], c) {
            self.memo_hits += 1;
            let verdict = M::lattice(&hit).name();
            self.record(|v| ProveEvent::MemoHit { v, c, d, verdict }, v);
            return (hit, NO_DEP);
        }
        // Line 6: reached the source with enough slack.
        if Some(v) == self.source && c >= 0 {
            self.record(|v| ProveEvent::Source { v, c, d }, v);
            return (M::leaf(Lattice::True), NO_DEP);
        }
        // Fall through: the source may itself be constrained (only
        // possible for constant sources; array lengths have no in-edges).
        // Constants compare numerically against constant sources.
        if let (Some(pv), Some(pa)) = (
            self.graph.potential(v),
            self.source.and_then(|s| self.graph.potential(s)),
        ) {
            let proven = pv as i128 - pa as i128 <= c as i128;
            self.record(|v| ProveEvent::Potential { v, c, d, proven }, v);
            let l = if proven {
                Lattice::True
            } else {
                Lattice::False
            };
            return (M::leaf(l), NO_DEP);
        }
        // Line 7: no constraint bounds v. (`self.graph` is a shared
        // reference copied out of `self`, so `edges` borrows the graph for
        // `'g` — not `self` — and the recursive calls stay legal without
        // cloning the edge list.)
        let edges: &'g [InEdge] = self.graph.in_edges(v);
        if edges.is_empty() {
            self.record(|v| ProveEvent::Unconstrained { v, c, d }, v);
            return (M::leaf(Lattice::False), NO_DEP);
        }
        // Lines 8–11: cycle detection. The verdict is relative to the
        // ancestor's entry slack, so it depends on that ancestor's depth.
        // (Cycles are never salvaged by insertion.)
        let at = v.0 as usize;
        if self.scratch.mark[at] == self.scratch.epoch {
            let (entry_c, ad) = (self.scratch.active_c[at], self.scratch.active_d[at]);
            let amplifying = c < entry_c;
            self.record(
                |v| ProveEvent::Cycle {
                    v,
                    c,
                    entry_c,
                    amplifying,
                    d,
                },
                v,
            );
            // §4: every cycle of a consistent system passes a max (φ)
            // vertex, which is what makes a non-amplifying one harmless. A
            // cycle without one (assumed facts can close `len(a) ≤ len(b)
            // ≤ len(a)`) bounds nothing, so it refutes like a dead end.
            let through_max = self.max_depth > ad;
            let l = if amplifying || !through_max {
                Lattice::False
            } else {
                Lattice::Reduced
            };
            return (M::leaf(l), ad);
        }
        self.memo_misses += 1;
        // Lines 12–18: recurse over in-edges, merging per vertex kind.
        self.scratch.mark[at] = self.scratch.epoch;
        self.scratch.active_c[at] = c;
        self.scratch.active_d[at] = d;
        self.record(|v| ProveEvent::Visit { v, c, d }, v);
        let outer_max = self.max_depth;
        if self.graph.is_max(v) {
            self.max_depth = d + 1;
        }
        let (result, dep) = M::merge(self, v, c, edges, d);
        self.max_depth = outer_max;
        self.scratch.mark[at] = 0;
        let verdict = M::lattice(&result).name();
        self.record(|v| ProveEvent::Resolved { v, d, verdict }, v);
        if dep >= d && !self.exhausted_in_query && !self.overflow_in_query {
            // Self-contained: any cycle the sub-traversal closed bottoms
            // out at this vertex, which is now fully resolved. (Verdicts
            // tainted by fuel exhaustion or arithmetic overflow are
            // placeholders, not facts, and must not outlive the query.)
            let slot = &mut self.scratch.memo[at];
            if slot.is_empty() {
                self.scratch.touched.push(v.0);
            }
            slot.push((c, result.clone()));
            (result, NO_DEP)
        } else {
            // Depends on an ancestor still on the stack — valid only in
            // this traversal context; do not memoize.
            (result, dep)
        }
    }

    /// Proves in-edge `e` with the slack left after its weight, or `None`
    /// (flagging the overflow) when that slack leaves the `i64` range —
    /// adversarial constants can do that; the edge then refutes
    /// conservatively (the check stays) and the driver records an
    /// incident.
    fn prove_edge(&mut self, e: &InEdge, c: i64, depth: u32) -> Option<(i64, M::Verdict, u32)> {
        let Some(slack) = c.checked_sub(e.weight) else {
            self.overflow_in_query = true;
            return None;
        };
        let (r, d) = self.prove(e.src, slack, depth + 1);
        Some((slack, r, d))
    }
}

/// Figure 5's mode: a [`Lattice`] verdict, a subsuming memo, and merges
/// that short-circuit.
#[derive(Clone, Copy, Debug)]
pub struct Demand;

impl Mode for Demand {
    type Verdict = Lattice;

    fn leaf(lat: Lattice) -> Lattice {
        lat
    }

    fn lattice(verdict: &Lattice) -> Lattice {
        *verdict
    }

    fn probe(entries: &[(i64, Lattice)], c: i64) -> Option<Lattice> {
        entries.iter().find_map(|&(c2, l)| match l {
            Lattice::True | Lattice::Reduced if c2 <= c => Some(l),
            Lattice::False if c2 >= c => Some(l),
            _ => None,
        })
    }

    fn merge(
        p: &mut DemandProver<'_>,
        v: VertexId,
        c: i64,
        edges: &[InEdge],
        depth: u32,
    ) -> (Lattice, u32) {
        let is_max = p.graph.is_max(v);
        let mut result = if is_max {
            Lattice::True
        } else {
            Lattice::False
        };
        let mut dep = NO_DEP;
        for e in edges {
            let (r, d) = match p.prove_edge(e, c, depth) {
                Some((_, r, d)) => (r, d),
                None => (Lattice::False, NO_DEP),
            };
            dep = dep.min(d);
            result = if is_max {
                result.meet(r)
            } else {
                result.join(r)
            };
            if (is_max && result == Lattice::False) || (!is_max && result == Lattice::True) {
                break; // short-circuit
            }
        }
        (result, dep)
    }
}

impl<'g> DemandProver<'g> {
    /// Creates a prover for queries from `source` (e.g. `ArrayLen(a)` for
    /// upper-bound checks, `Const(0)` for lower-bound checks).
    pub fn new(graph: &'g InequalityGraph, source: Vertex) -> Self {
        Self::with_scratch(graph, source, DemandScratch::default())
    }

    /// Like [`DemandProver::new`], reusing a donated scratch: warm tables
    /// make prover construction and the queries themselves allocation-free.
    pub fn with_scratch(
        graph: &'g InequalityGraph,
        source: Vertex,
        scratch: DemandScratch,
    ) -> Self {
        Self::with_mode(graph, source, Demand, scratch)
    }

    /// `demandProve`: is `target − source ≤ c` implied by the constraint
    /// system? (Figure 5: returns true iff the result is `True` or
    /// `Reduced`.)
    pub fn demand_prove(&mut self, target: Vertex, c: i64) -> bool {
        match self.query(target, c) {
            Some(l) => l != Lattice::False,
            // A value with no constraints at all can still be the source
            // itself, or a constant comparable by potentials.
            None => self.trivial(target, c).unwrap_or(false),
        }
    }

    /// Source/constant fast path for vertices missing from the graph.
    fn trivial(&self, target: Vertex, c: i64) -> Option<bool> {
        if target == self.source_vertex {
            return Some(c >= 0);
        }
        // Comparisons run in i128: constants near the i64 boundary must
        // not wrap.
        let pot = |v: Vertex| match (v, self.graph.problem()) {
            (Vertex::Const(k), crate::graph::Problem::Upper) => Some(k as i128),
            (Vertex::Const(k), crate::graph::Problem::Lower) => Some(-(k as i128)),
            _ => None,
        };
        match (pot(target), pot(self.source_vertex)) {
            (Some(pv), Some(pa)) => Some(pv - pa <= c as i128),
            _ => None,
        }
    }
}

/// The §6.1 mode: verdicts carry insertion points, the memo matches
/// slacks exactly, and min vertices price salvages with `freq`.
pub struct Pre<'f> {
    /// Edge-frequency oracle for choosing the cheapest salvage at min
    /// vertices (block execution counts from the profile; `None` = count
    /// insertion points).
    freq: Option<&'f dyn Fn(Block) -> u64>,
}

/// A [`Pre`]-mode verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PreVerdict {
    lat: Lattice,
    /// Meaningful when `lat == False`: insertion points that would flip the
    /// result to proven.
    ins: Option<Vec<InsertionPoint>>,
}

const PRE_FAILED: PreVerdict = PreVerdict {
    lat: Lattice::False,
    ins: None,
};

impl Pre<'_> {
    fn cost(&self, points: &[InsertionPoint]) -> u64 {
        match self.freq {
            Some(f) => points.iter().map(|p| f(p.pred)).sum(),
            None => points.len() as u64,
        }
    }
}

impl Mode for Pre<'_> {
    type Verdict = PreVerdict;

    fn leaf(lat: Lattice) -> PreVerdict {
        PreVerdict { lat, ins: None }
    }

    fn lattice(verdict: &PreVerdict) -> Lattice {
        verdict.lat
    }

    fn probe(entries: &[(i64, PreVerdict)], c: i64) -> Option<PreVerdict> {
        entries
            .iter()
            .find(|(c2, _)| *c2 == c)
            .map(|(_, r)| r.clone())
    }

    fn merge(
        p: &mut Prover<'_, Self>,
        v: VertexId,
        c: i64,
        edges: &[InEdge],
        depth: u32,
    ) -> (PreVerdict, u32) {
        if p.graph.is_max(v) {
            pre_max(p, v, c, edges, depth)
        } else {
            pre_min(p, c, edges, depth)
        }
    }
}

/// Max (φ) vertex: all arguments must prove; failing arguments may be
/// compensated on their in-edge. Per the paper, a direct insertion at a φ
/// in-edge is considered "exactly when some of the φ-node's arguments were
/// proven and some were not"; where a failing argument is itself
/// salvageable deeper, the deeper set is used.
fn pre_max(
    p: &mut PreProver<'_, '_>,
    v: VertexId,
    c: i64,
    edges: &[InEdge],
    depth: u32,
) -> (PreVerdict, u32) {
    let mut lat = Lattice::True;
    let mut proven_args = 0usize;
    let mut salvages: Vec<Vec<InsertionPoint>> = Vec::new();
    let mut direct_needed: Vec<(VertexId, i64)> = Vec::new();
    let mut dep = NO_DEP;
    for e in edges {
        // Overflowed slack refutes the argument and cannot be salvaged by
        // insertion (the compensating check's `c_prime` would not be
        // representable either).
        let Some((slack, r, d)) = p.prove_edge(e, c, depth) else {
            return (PRE_FAILED, dep);
        };
        dep = dep.min(d);
        match r.lat {
            Lattice::True | Lattice::Reduced => {
                proven_args += 1;
                lat = lat.meet(r.lat);
            }
            Lattice::False => match r.ins.filter(|i| !i.is_empty()) {
                Some(ins) => salvages.push(ins),
                None => direct_needed.push((e.src, slack)),
            },
        }
    }
    if direct_needed.is_empty() && salvages.is_empty() {
        return (Pre::leaf(lat), dep); // all arguments proven
    }
    // Direct insertion at this φ's in-edges is allowed only in the paper's
    // mixed case: at least one argument proven outright.
    if !direct_needed.is_empty() && proven_args == 0 {
        return (PRE_FAILED, dep);
    }
    let mut ins: Vec<InsertionPoint> = Vec::new();
    for (arg, c_prime) in direct_needed {
        // Only value arguments of a value φ can be compensated with an
        // index expression, and only over a recorded φ in-edge. The same
        // argument value may arrive over several edges; all of them must
        // be compensated for the φ to become proven.
        let (Vertex::Value(u), Vertex::Value(phi)) = (p.graph.vertex(arg), p.graph.vertex(v))
        else {
            return (PRE_FAILED, dep);
        };
        let before = ins.len();
        ins.extend(p.graph.phi_pred(phi, u).map(|pred| InsertionPoint {
            pred,
            arg: u,
            c_prime,
        }));
        if ins.len() == before {
            return (PRE_FAILED, dep);
        }
    }
    for s in salvages {
        ins.extend(s);
    }
    ins.sort_by_key(|p| (p.pred, p.arg, p.c_prime));
    ins.dedup();
    let verdict = PreVerdict {
        lat: Lattice::False,
        ins: Some(ins),
    };
    (verdict, dep)
}

/// Min vertex: any in-edge suffices; choose the cheapest salvage among
/// failing alternatives.
fn pre_min(p: &mut PreProver<'_, '_>, c: i64, edges: &[InEdge], depth: u32) -> (PreVerdict, u32) {
    let mut lat = Lattice::False;
    let mut best: Option<Vec<InsertionPoint>> = None;
    let mut dep = NO_DEP;
    for e in edges {
        // Overflowed slack: this alternative refutes (join with False is a
        // no-op); other in-edges may still prove the vertex.
        let Some((_, r, d)) = p.prove_edge(e, c, depth) else {
            continue;
        };
        dep = dep.min(d);
        lat = lat.join(r.lat);
        if lat == Lattice::True {
            return (Pre::leaf(Lattice::True), dep);
        }
        if r.lat == Lattice::False {
            if let Some(ins) = r.ins.filter(|i| !i.is_empty()) {
                if best
                    .as_ref()
                    .is_none_or(|b| p.mode.cost(&ins) < p.mode.cost(b))
                {
                    best = Some(ins);
                }
            }
        }
    }
    let ins = if lat == Lattice::False { best } else { None };
    (PreVerdict { lat, ins }, dep)
}

impl<'g, 'f> PreProver<'g, 'f> {
    /// Creates a PRE-collecting prover.
    pub fn new(
        graph: &'g InequalityGraph,
        source: Vertex,
        freq: Option<&'f dyn Fn(Block) -> u64>,
    ) -> Self {
        Self::with_scratch(graph, source, freq, PreScratch::default())
    }

    /// Like [`PreProver::new`], reusing donated (capacity-warm) tables.
    pub fn with_scratch(
        graph: &'g InequalityGraph,
        source: Vertex,
        freq: Option<&'f dyn Fn(Block) -> u64>,
        scratch: PreScratch,
    ) -> Self {
        Self::with_mode(graph, source, Pre { freq }, scratch)
    }

    /// Runs the query; see [`PreOutcome`].
    pub fn demand_prove(&mut self, target: Vertex, c: i64) -> PreOutcome {
        match self.query(target, c) {
            Some(PreVerdict {
                lat: Lattice::True | Lattice::Reduced,
                ..
            }) => PreOutcome::Proven,
            Some(PreVerdict { ins: Some(ins), .. }) if !ins.is_empty() => {
                PreOutcome::ProvenWithInsertions(ins)
            }
            _ => PreOutcome::Failed,
        }
    }
}

/// The one query engine's name; stays only for the frozen benchmark replay.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ProverBackend {
    /// Figure 5's demand-driven DFS.
    #[default]
    Demand,
}

impl ProverBackend {
    /// Returns `self`; stays only for the frozen benchmark replay.
    pub fn resolve(self, _graph: &InequalityGraph) -> ProverBackend {
        self
    }
}

/// [`DemandProver`] by its old name; stays only for the frozen benchmark replay.
pub type AnyProver<'g> = DemandProver<'g>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Problem;
    use abcd_frontend::compile;
    use abcd_ir::{CheckKind, Function, InstKind};
    use abcd_ssa::module_to_essa;

    fn essa(src: &str) -> Function {
        let mut m = compile(src).unwrap();
        module_to_essa(&mut m).unwrap();
        let id = m.functions().next().unwrap().0;
        m.function(id).clone()
    }

    /// All upper-bound checks of `f` with (array, index) values.
    fn upper_checks(f: &Function) -> Vec<(abcd_ir::Value, abcd_ir::Value)> {
        let mut out = Vec::new();
        for b in f.blocks() {
            for &id in f.block(b).insts() {
                if let InstKind::BoundsCheck {
                    array,
                    index,
                    kind: CheckKind::Upper,
                    ..
                } = f.inst(id).kind
                {
                    out.push((array, index));
                }
            }
        }
        out
    }

    #[test]
    fn loop_bounded_by_length_proves() {
        // for (i = 0; i < a.length; i++) a[i] — the canonical case.
        let f = essa(
            "fn f(a: int[]) -> int {
                let s: int = 0;
                for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
                return s;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let checks = upper_checks(&f);
        assert_eq!(checks.len(), 1);
        let (a, i) = checks[0];
        let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
        assert!(p.demand_prove(Vertex::Value(i), -1), "{f}");
        assert!(p.steps > 0);

        // Lower bound too: i starts at 0 and increments.
        let gl = InequalityGraph::build(&f, Problem::Lower, None);
        let mut pl = DemandProver::new(&gl, Vertex::Const(0));
        assert!(pl.demand_prove(Vertex::Value(i), 0), "{f}");
    }

    #[test]
    fn unbounded_index_does_not_prove() {
        let f = essa("fn f(a: int[], i: int) -> int { return a[i]; }");
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (a, i) = upper_checks(&f)[0];
        let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
        assert!(!p.demand_prove(Vertex::Value(i), -1));
    }

    #[test]
    fn guarded_index_proves() {
        let f = essa(
            "fn f(a: int[], i: int) -> int {
                if (i < a.length) { if (i >= 0) { return a[i]; } }
                return 0;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (a, i) = upper_checks(&f)[0];
        let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
        assert!(p.demand_prove(Vertex::Value(i), -1), "{f}");
        let gl = InequalityGraph::build(&f, Problem::Lower, None);
        let mut pl = DemandProver::new(&gl, Vertex::Const(0));
        assert!(pl.demand_prove(Vertex::Value(i), 0), "{f}");
    }

    #[test]
    fn reversed_guard_also_proves() {
        // `a.length > i` is the swapped form.
        let f = essa(
            "fn f(a: int[], i: int) -> int {
                if (a.length > i) { if (0 <= i) { return a[i]; } }
                return 0;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (a, i) = upper_checks(&f)[0];
        let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
        assert!(p.demand_prove(Vertex::Value(i), -1), "{f}");
        let gl = InequalityGraph::build(&f, Problem::Lower, None);
        let mut pl = DemandProver::new(&gl, Vertex::Const(0));
        assert!(pl.demand_prove(Vertex::Value(i), 0), "{f}");
    }

    #[test]
    fn amplifying_cycle_without_bound_fails() {
        // i grows without a length test: cannot prove.
        let f = essa(
            "fn f(a: int[], n: int) -> int {
                let s: int = 0;
                for (let i: int = 0; i < n; i = i + 1) { s = s + a[i]; }
                return s;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (a, i) = upper_checks(&f)[0];
        let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
        assert!(!p.demand_prove(Vertex::Value(i), -1));
        // ... but the lower bound still proves (starts at 0, increments).
        let gl = InequalityGraph::build(&f, Problem::Lower, None);
        let mut pl = DemandProver::new(&gl, Vertex::Const(0));
        assert!(pl.demand_prove(Vertex::Value(i), 0));
    }

    #[test]
    fn check_subsumption_within_block() {
        // a[i] then a[i-1]: second upper check subsumed by the first;
        // (and first lower check subsumes the second's dual — see §7.2).
        let f = essa(
            "fn f(a: int[], i: int) -> int {
                let x: int = a[i];
                let y: int = a[i - 1];
                return x + y;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let checks = upper_checks(&f);
        assert_eq!(checks.len(), 2);
        let (a, second) = checks[1];
        let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
        assert!(
            p.demand_prove(Vertex::Value(second), -1),
            "a[i-1] after a[i] must prove:\n{f}"
        );
        // The first one is NOT redundant.
        let (_, first) = checks[0];
        assert!(!p.demand_prove(Vertex::Value(first), -1));
    }

    #[test]
    fn constant_index_against_allocation_proves() {
        let f = essa(
            "fn f() -> int {
                let a: int[] = new int[10];
                return a[9] + a[0];
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let checks = upper_checks(&f);
        let (a, i9) = checks[0];
        let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
        assert!(
            p.demand_prove(Vertex::Value(i9), -1),
            "a[9] of new int[10]:\n{f}"
        );
    }

    #[test]
    fn constant_index_too_large_fails() {
        let f = essa(
            "fn f() -> int {
                let a: int[] = new int[10];
                return a[10];
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (a, i) = upper_checks(&f)[0];
        let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
        assert!(!p.demand_prove(Vertex::Value(i), -1));
    }

    #[test]
    fn memo_reduces_steps_on_repeated_queries() {
        let f = essa(
            "fn f(a: int[]) -> int {
                let s: int = 0;
                for (let i: int = 0; i < a.length; i = i + 1) {
                    s = s + a[i] + a[i] + a[i];
                }
                return s;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let checks = upper_checks(&f);
        assert_eq!(checks.len(), 3);
        let (a, _) = checks[0];
        let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
        for (_, i) in &checks {
            assert!(p.demand_prove(Vertex::Value(*i), -1));
        }
        let total = p.steps;
        // The paper reports < 10 steps per check on average; with memoization
        // across a function's checks we stay well under that here.
        assert!(total < 10 * checks.len() as u64, "steps = {total}");
    }

    #[test]
    fn lattice_algebra() {
        use Lattice::*;
        assert_eq!(True.meet(Reduced), Reduced);
        assert_eq!(True.meet(False), False);
        assert_eq!(Reduced.meet(False), False);
        assert_eq!(True.join(False), True);
        assert_eq!(Reduced.join(False), Reduced);
        assert!(False < Reduced && Reduced < True);
    }

    #[test]
    fn lattice_meet_join_laws() {
        use Lattice::*;
        let all = [False, Reduced, True];
        for a in all {
            // Idempotence and identity/absorbing elements.
            assert_eq!(a.meet(a), a);
            assert_eq!(a.join(a), a);
            assert_eq!(a.meet(True), a);
            assert_eq!(a.join(False), a);
            assert_eq!(a.meet(False), False);
            assert_eq!(a.join(True), True);
            for b in all {
                // Commutativity and absorption.
                assert_eq!(a.meet(b), b.meet(a));
                assert_eq!(a.join(b), b.join(a));
                assert_eq!(a.meet(a.join(b)), a);
                assert_eq!(a.join(a.meet(b)), a);
                for c in all {
                    // Associativity.
                    assert_eq!(a.meet(b).meet(c), a.meet(b.meet(c)));
                    assert_eq!(a.join(b).join(c), a.join(b.join(c)));
                }
            }
        }
    }

    /// §4: every cycle of a consistent system passes a max (φ) vertex.
    /// Two assumed facts can close one that does not, `a ≤ b ≤ a` (the
    /// `LenLe` pair over two equal-length arrays); it bounds nothing, so a
    /// query that reaches it must fail, in both modes. Through a φ the same
    /// cycle is the harmless kind and reduces.
    #[test]
    fn a_cycle_without_a_max_vertex_refutes() {
        use abcd_ir::Value;
        let f = essa("fn f() -> int { return 0; }");
        let mut g = InequalityGraph::build(&f, Problem::Upper, None);
        let (src, t, a, b) = (
            Vertex::Value(Value::new(100)),
            Vertex::Value(Value::new(101)),
            Vertex::Value(Value::new(102)),
            Vertex::Value(Value::new(103)),
        );
        g.assume_fact(a, t, -1); // t ≤ a − 1
        g.assume_fact(b, a, 0); // a ≤ b
        g.assume_fact(a, b, 0); // b ≤ a (closes the cycle)
        assert!(!DemandProver::new(&g, src).demand_prove(t, -1));
        assert_eq!(
            PreProver::new(&g, src, None).demand_prove(t, -1),
            PreOutcome::Failed
        );
        g.mark_max(a);
        assert!(DemandProver::new(&g, src).demand_prove(t, -1));
    }

    /// Regression: verdicts derived while an ancestor vertex is still on
    /// the active stack must not be memoized.
    ///
    /// System (all edge weights 0, upper problem):
    ///
    /// ```text
    ///   u (max/φ)  in-edges: [m, i]     (cycle arg first)
    ///   m (min)    in-edges: [u, x]     (cycle edge first)
    ///   i, x       no in-edges (unbounded)
    /// ```
    ///
    /// Query 1, `prove(u)`: exploring `m` hits active `u` → harmless cycle
    /// → `Reduced`; joined with `x`'s `False` that makes `m = Reduced`.
    /// Back at `u`, the `i` argument refutes, so `u = False` — correct.
    /// But the old solver also memoized `m = Reduced`, a verdict valid
    /// only under the hypothesis that `u` proves (it does not). Query 2,
    /// `prove(m)`, then answered `Reduced` from the memo and the driver
    /// would have removed a check on `m` even though nothing bounds it.
    #[test]
    fn stale_cycle_verdicts_are_not_memoized() {
        use abcd_ir::Value;
        // Start from a trivial function's (essentially empty) graph and
        // hand-craft the cyclic system with synthetic values.
        let f = essa("fn f() -> int { return 0; }");
        let mut g = InequalityGraph::build(&f, Problem::Upper, None);
        let (src, u, m, i, x) = (
            Vertex::Value(Value::new(100)),
            Vertex::Value(Value::new(101)),
            Vertex::Value(Value::new(102)),
            Vertex::Value(Value::new(103)),
            Vertex::Value(Value::new(104)),
        );
        // In-edge insertion order is query exploration order.
        g.assume_fact(m, u, 0); // u ≤ m (cycle arg, explored first)
        g.assume_fact(i, u, 0); // u ≤ i (refuting arg, explored second)
        g.assume_fact(u, m, 0); // m ≤ u (closes the cycle)
        g.assume_fact(x, m, 0); // m ≤ x (unbounded alternative)
        g.mark_max(u);

        let mut p = DemandProver::new(&g, src);
        // Query 1: u is unprovable (the i argument is unbounded).
        assert!(!p.demand_prove(u, 0));
        // Query 2: m is just as unprovable — no path reaches the source.
        // With unconditional memoization this returned true via the stale
        // `Reduced` cached for m during query 1.
        assert!(
            !p.demand_prove(m, 0),
            "stale cycle verdict reused from memo"
        );

        // Same shape through the PRE prover (exact-match memo, same bug).
        let mut pp = PreProver::new(&g, src, None);
        assert_eq!(pp.demand_prove(u, 0), PreOutcome::Failed);
        assert_eq!(
            pp.demand_prove(m, 0),
            PreOutcome::Failed,
            "stale cycle verdict reused from PRE memo"
        );
    }

    /// Self-contained cycle verdicts (the cycle bottoms out at the queried
    /// vertex itself) are still memoized — query 2 must be answered from
    /// the memo without re-traversal.
    #[test]
    fn self_contained_verdicts_still_memoized() {
        let f = essa(
            "fn f(a: int[]) -> int {
                let s: int = 0;
                for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
                return s;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (a, i) = upper_checks(&f)[0];
        let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
        assert!(p.demand_prove(Vertex::Value(i), -1));
        let steps_first = p.steps;
        assert!(p.demand_prove(Vertex::Value(i), -1));
        assert_eq!(
            p.steps,
            steps_first + 1,
            "second identical query must be a single memo hit"
        );
        assert!(p.memo_hits >= 1);
    }

    /// The subsumption memo must give the same answers regardless of query
    /// order: probing a vertex with decreasing then increasing bounds (and
    /// the reverse) agrees pointwise with a fresh prover per query.
    #[test]
    fn memo_subsumption_is_order_insensitive() {
        let f = essa(
            "fn f(a: int[], i: int) -> int {
                if (i < a.length) { if (i >= 0) { return a[i]; } }
                return 0;
            }",
        );
        for problem in [Problem::Upper, Problem::Lower] {
            let g = InequalityGraph::build(&f, problem, None);
            let (a, idx) = upper_checks(&f)[0];
            let source = match problem {
                Problem::Upper => Vertex::ArrayLen(a),
                Problem::Lower => Vertex::Const(0),
            };
            let range: Vec<i64> = (-4..=4).collect();
            let fresh: Vec<bool> = range
                .iter()
                .map(|&c| DemandProver::new(&g, source).demand_prove(Vertex::Value(idx), c))
                .collect();
            // Monotonicity: a weaker bound can only become easier to prove.
            for w in fresh.windows(2) {
                assert!(
                    w[1] || !w[0],
                    "provability must be monotone in c: {fresh:?}"
                );
            }
            let mut decreasing = DemandProver::new(&g, source);
            // Evaluate eagerly from the largest c down, then restore order.
            let mut dec: Vec<bool> = range
                .iter()
                .rev()
                .map(|&c| decreasing.demand_prove(Vertex::Value(idx), c))
                .collect();
            dec.reverse();
            let mut increasing = DemandProver::new(&g, source);
            let inc: Vec<bool> = range
                .iter()
                .map(|&c| increasing.demand_prove(Vertex::Value(idx), c))
                .collect();
            assert_eq!(
                fresh, dec,
                "{problem:?}: decreasing-c order changed answers"
            );
            assert_eq!(
                fresh, inc,
                "{problem:?}: increasing-c order changed answers"
            );
        }
    }

    /// Constant-vs-constant queries in both problems: the Lower encoding
    /// negates potentials (`x ↦ −x`), so `demand_prove(t, c)` asks
    /// `t ≥ source − c`. Exercises both the graph-interned potential fast
    /// path and the `trivial` fallback for un-interned vertices.
    #[test]
    fn constant_vs_constant_sign_mapping() {
        // x := 3 and y := 5 intern Const(3) and Const(5) in the graph.
        let f = essa(
            "fn f() -> int {
                let x: int = 3;
                let y: int = 5;
                return x + y;
            }",
        );
        for (interned, label) in [(true, "interned"), (false, "trivial")] {
            let (t3, s5) = if interned {
                (Vertex::Const(3), Vertex::Const(5))
            } else {
                // Constants absent from the graph take the `trivial` path.
                (Vertex::Const(30), Vertex::Const(50))
            };
            let (tv, sv) = if interned { (3i64, 5i64) } else { (30, 50) };

            // Upper: t − s ≤ c.
            let gu = InequalityGraph::build(&f, Problem::Upper, None);
            if interned {
                assert!(gu.lookup(t3).is_some(), "Const({tv}) should be interned");
            }
            let mut pu = DemandProver::new(&gu, s5);
            assert!(pu.demand_prove(t3, tv - sv), "{label}: t − s ≤ t−s");
            assert!(pu.demand_prove(t3, tv - sv + 1));
            assert!(!pu.demand_prove(t3, tv - sv - 1), "{label}: bound is tight");

            // Lower: t ≥ s − c, i.e. (−t) − (−s) ≤ c.
            let gl = InequalityGraph::build(&f, Problem::Lower, None);
            let mut pl = DemandProver::new(&gl, s5);
            assert!(pl.demand_prove(t3, sv - tv), "{label}: t ≥ s − (s−t)");
            assert!(pl.demand_prove(t3, sv - tv + 1));
            assert!(!pl.demand_prove(t3, sv - tv - 1), "{label}: bound is tight");
            // And with the roles swapped the signs flip: s ≥ t − c holds
            // already at c = t − s (negative slack needed is none).
            let mut pl2 = DemandProver::new(&gl, t3);
            assert!(pl2.demand_prove(s5, 0), "{label}: 5 ≥ 3 needs no slack");
            assert!(!pl2.demand_prove(s5, tv - sv - 1));
        }
    }

    #[test]
    fn pre_prover_finds_paper_section6_insertion() {
        // §6 of the paper: the running example (Figure 3) with the
        // `limit := a.length` assignment replaced by an unknown initial
        // value. The check `a[j]` becomes partially redundant: the φ for
        // `limit` at the while-head has a proven argument (the decremented
        // loop-carried `limit3`, via a harmless negative cycle) and a
        // failing one (`limit0` from the entry edge), so ABCD inserts a
        // compensating check on the entry edge.
        let f = essa(
            "fn f(a: int[], n: int) -> int {
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
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (a, j) = upper_checks(&f)[0];
        // Fully redundant? No (limit's origin is unknown).
        let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
        assert!(!p.demand_prove(Vertex::Value(j), -1));
        // Partially redundant: one insertion point, on the φ in-edge
        // carrying the initial limit.
        let mut pp = PreProver::new(&g, Vertex::ArrayLen(a), None);
        match pp.demand_prove(Vertex::Value(j), -1) {
            PreOutcome::ProvenWithInsertions(ins) => {
                assert_eq!(ins.len(), 1, "{ins:?}\n{f}");
                // The paper's compensating check is `check a[limit0 − 2]`
                // (distance from limit0 to j2 is −2), i.e. the remaining
                // query at limit0 is c′ = +1: limit0 − a.length ≤ 1.
                assert_eq!(ins[0].c_prime, 1, "{ins:?}\n{f}");
            }
            other => panic!("expected insertions, got {other:?}\n{f}"),
        }
    }

    #[test]
    fn pre_prover_reports_failed_when_unsalvageable() {
        let f = essa("fn f(a: int[], i: int) -> int { return a[i]; }");
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (a, i) = upper_checks(&f)[0];
        let mut pp = PreProver::new(&g, Vertex::ArrayLen(a), None);
        assert_eq!(pp.demand_prove(Vertex::Value(i), -1), PreOutcome::Failed);
    }

    /// A zero-fuel query must fail conservatively (check stays) and flag
    /// exhaustion — and a refueled retry of the *same* query must succeed,
    /// proving the memo was not poisoned by the cut-off traversal.
    #[test]
    fn fuel_exhaustion_is_conservative_and_memo_clean() {
        let f = essa(
            "fn f(a: int[]) -> int {
                let s: int = 0;
                for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
                return s;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let (a, i) = upper_checks(&f)[0];
        let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
        p.set_query_fuel(0);
        assert!(
            !p.demand_prove(Vertex::Value(i), -1),
            "no fuel → not proven"
        );
        assert!(p.last_query_exhausted());
        assert_eq!(p.exhausted_queries, 1);
        // Refuel: the genuine verdict must come back (nothing False was
        // memoized during the starved attempt).
        p.set_query_fuel(u64::MAX - p.steps);
        assert!(
            p.demand_prove(Vertex::Value(i), -1),
            "refueled query proves"
        );
        assert!(!p.last_query_exhausted());

        // Same contract for the PRE prover.
        let mut pp = PreProver::new(&g, Vertex::ArrayLen(a), None);
        pp.set_query_fuel(0);
        assert_eq!(pp.demand_prove(Vertex::Value(i), -1), PreOutcome::Failed);
        assert!(pp.last_query_exhausted());
        pp.set_query_fuel(u64::MAX - pp.steps);
        assert_eq!(pp.demand_prove(Vertex::Value(i), -1), PreOutcome::Proven);
    }

    /// A partially-starved traversal (fuel > 0 but below the query's need)
    /// must also stay conservative and leave later queries untainted.
    #[test]
    fn partial_fuel_starvation_does_not_taint_memo() {
        let f = essa(
            "fn f(a: int[]) -> int {
                let s: int = 0;
                for (let i: int = 0; i < a.length; i = i + 1) {
                    s = s + a[i] + a[i + 0];
                }
                return s;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let checks = upper_checks(&f);
        let (a, i) = checks[0];
        // How much does an unbudgeted proof cost?
        let full_steps = {
            let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
            assert!(p.demand_prove(Vertex::Value(i), -1));
            p.steps
        };
        // Starve every strictly-smaller budget, then refuel and re-prove.
        for fuel in 0..full_steps {
            let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
            p.set_query_fuel(fuel);
            assert!(
                !p.demand_prove(Vertex::Value(i), -1),
                "budget {fuel} < {full_steps} must not prove"
            );
            assert!(p.last_query_exhausted());
            p.set_query_fuel(u64::MAX - p.steps);
            assert!(
                p.demand_prove(Vertex::Value(i), -1),
                "refuel after budget {fuel} must prove (memo poisoned?)"
            );
        }
    }

    /// Regression (per-query fuel): the budget is an allowance for *each*
    /// query, not a shared pool — query N's spend must not starve query
    /// N+1. The old implementation armed `fuel_stop` once in
    /// `set_query_fuel`, so a budget sized for one query silently failed
    /// every query after the first.
    #[test]
    fn query_fuel_is_per_query_not_shared() {
        let f = essa(
            "fn f(a: int[]) -> int {
                let s: int = 0;
                for (let i: int = 0; i < a.length; i = i + 1) {
                    s = s + a[i] + a[i + 0];
                }
                return s;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let checks = upper_checks(&f);
        assert_eq!(checks.len(), 2);
        let a = checks[0].0;
        // Cost of each query on its own (fresh prover, no memo reuse).
        let solo_cost = |idx: abcd_ir::Value| {
            let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
            assert!(p.demand_prove(Vertex::Value(idx), -1));
            p.steps
        };
        let max_cost = solo_cost(checks[0].1).max(solo_cost(checks[1].1));

        // One shared prover, the budget set ONCE, sized for a single
        // query: both queries must still prove (each gets its own
        // allowance).
        let mut p = DemandProver::new(&g, Vertex::ArrayLen(a));
        p.set_query_fuel(max_cost);
        for &(_, idx) in &checks {
            assert!(
                p.demand_prove(Vertex::Value(idx), -1),
                "a later query was starved by an earlier query's spend"
            );
            assert!(!p.last_query_exhausted());
        }

        // Same contract for the PRE prover.
        let mut pp = PreProver::new(&g, Vertex::ArrayLen(a), None);
        pp.set_query_fuel(max_cost.max(64));
        for &(_, idx) in &checks {
            assert_eq!(
                pp.demand_prove(Vertex::Value(idx), -1),
                PreOutcome::Proven,
                "PRE query starved by an earlier query's spend"
            );
        }
    }

    /// Regression (overflow audit): near-`i64::MAX` constants in the
    /// constraint system must not wrap during path-weight accumulation —
    /// the prover answers conservatively (check stays) and raises the
    /// overflow flag instead.
    #[test]
    fn near_i64_max_constants_fail_conservatively() {
        use abcd_ir::Value;
        let f = essa("fn f() -> int { return 0; }");
        let mut g = InequalityGraph::build(&f, Problem::Upper, None);
        let (src, t, u) = (
            Vertex::Value(Value::new(200)),
            Vertex::Value(Value::new(201)),
            Vertex::Value(Value::new(202)),
        );
        // Two chained edges whose weights sum far outside i64: slack
        // adjustment t → u → src would compute c − MAX−… twice.
        g.assume_fact(u, t, i64::MAX - 1); // t ≤ u + (MAX−1)
        g.assume_fact(src, u, i64::MAX - 1); // u ≤ src + (MAX−1)
        let mut p = DemandProver::new(&g, src);
        assert!(
            !p.demand_prove(t, -2),
            "overflowing derivation must refute conservatively"
        );
        assert!(p.last_query_overflowed());
        // A follow-up benign query is unaffected (no tainted memo): the
        // direct one-edge derivation still proves.
        assert!(p.demand_prove(u, i64::MAX - 1));
        assert!(!p.last_query_overflowed());

        // PreProver: same conservative contract.
        let mut pp = PreProver::new(&g, src, None);
        assert_eq!(pp.demand_prove(t, -2), PreOutcome::Failed);
        assert!(pp.last_query_overflowed());
    }
}
