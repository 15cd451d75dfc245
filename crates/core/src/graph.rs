//! The inequality graph (§4 of the paper).
//!
//! Vertices are e-SSA values, symbolic array lengths, and integer constants.
//! A directed edge `u → v` with weight `c` encodes the difference constraint
//! `v ≤ u + c`. φ-defined vertices are **max** vertices (a value merged from
//! several control-flow paths is bounded by the *weakest* incoming
//! constraint); all other vertices are **min** vertices (along one path the
//! *strongest* constraint applies). This max/min split is what turns the
//! graph into a hypergraph and the distance computation into the generalized
//! shortest path of §4.
//!
//! **Upper and lower problems.** The paper derives the lower-bound problem
//! as the dual (§7.2). We reuse one solver by the standard negation trick:
//! the lower system `v ≥ u + c` maps through `x ↦ −x` onto `(−v) ≤ (−u) − c`,
//! so [`Problem::Lower`] graphs store edge weights already negated, constant
//! vertices carry potential `−k`, and the source vertex of a lower-bound
//! query is the constant `0` (§7.2: "the source vertex … is the lower bound,
//! which in Java is the constant 0").
//!
//! **One constraint log, many graphs.** Construction is two steps. A
//! [`ConstraintLog`] walks a function's IR once and records every Table 1
//! fact `v ≤ u + c` (upper) / `v ≥ u + c` (lower) as a triple `(u, v, c)`
//! tagged with the problems it holds in and, for a C5 edge, the check site
//! that establishes it. The facts sit in block-major instruction order with
//! per-block offsets, next to the φ rows, the max marks and the exact
//! values of constants and constant-length arrays; a branch π's partner is
//! resolved during the walk, in the π's own block. The same walk lists the
//! function's bounds checks ([`ConstraintLog::checks`]), so the analyses
//! that query them never walk the IR again.
//!
//! Assumed parameter facts (the interprocedural extension, see
//! [`crate::interproc`]) are rows of the same log:
//! [`ConstraintLog::assume`] appends them, each confined to its problem,
//! after the last block. A whole-function fill therefore includes them
//! and a block fill never does; a second `assume` replaces them.
//!
//! [`InequalityGraph::fill`] then replays the log for one problem and
//! one [`Scope`]: the whole function, one block's facts (the Figure 6
//! local/global split), or the whole function minus the C5 edges of some
//! check sites (translation validation). The fill alone applies the
//! problem's negation, so the Table 1 match exists once and the lower
//! graph is read off the same facts as the upper one — one constraint set
//! read in two directions, as §7.2 derives it.

use crate::interproc::ParamFact;
use abcd_ir::{
    Block, CheckKind, CheckSite, CmpOp, Function, InstId, InstKind, PiGuard, Terminator, Type,
    Value, ValueDef,
};
use std::fmt;

/// Which bounds-check problem a graph encodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Problem {
    /// `index ≤ A.length − 1` (§2–§6 of the paper).
    #[default]
    Upper,
    /// `index ≥ 0`, encoded in negated form (§7.2).
    Lower,
}

impl Problem {
    /// The problems a check of `kind` must prove, in query order.
    pub(crate) fn of_check(kind: CheckKind) -> &'static [Problem] {
        match kind {
            CheckKind::Upper => &[Problem::Upper],
            CheckKind::Lower => &[Problem::Lower],
            CheckKind::Both => &[Problem::Upper, Problem::Lower],
        }
    }

    /// A check on `array[index]` as the difference query
    /// `index − source ≤ c`, returned as `(source, c)`: upper asks it from
    /// `len(array)` with `c = −1`, lower from the constant `0` with `c = 0`.
    pub fn check_query(self, array: Value) -> (Vertex, i64) {
        match self {
            Problem::Upper => (Vertex::ArrayLen(array), -1),
            Problem::Lower => (Vertex::Const(0), 0),
        }
    }

    /// Stable lower-case name, used by the trace schema.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Problem::Upper => "upper",
            Problem::Lower => "lower",
        }
    }
}

/// A vertex of the inequality graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Vertex {
    /// An (integer-typed) e-SSA value.
    Value(Value),
    /// The symbolic length of the array held in an (array-typed) value.
    ArrayLen(Value),
    /// An integer constant.
    Const(i64),
}

impl fmt::Display for Vertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vertex::Value(v) => write!(f, "{v}"),
            Vertex::ArrayLen(v) => write!(f, "len({v})"),
            Vertex::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Dense vertex id inside one graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VertexId(pub(crate) u32);

impl VertexId {
    /// Creates a vertex id from a raw index (must be `< vertex_count()`).
    pub fn from_index(index: usize) -> VertexId {
        VertexId(u32::try_from(index).expect("vertex index overflow"))
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An in-edge: constraint `target ≤ src + weight` (in solver domain).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InEdge {
    /// Source vertex (the constraining one).
    pub src: VertexId,
    /// Weight in solver domain.
    pub weight: i64,
}

/// FxHash-style mix of one vertex — cheap, and good enough for the
/// open-addressed vertex table (distinct vertices differ in low bits).
fn vertex_hash(v: Vertex) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let (tag, payload) = match v {
        Vertex::Value(x) => (1u64, x.index() as u64),
        Vertex::ArrayLen(x) => (2, x.index() as u64),
        Vertex::Const(c) => (3, c as u64),
    };
    (payload ^ tag.rotate_left(32)).wrapping_mul(K)
}

/// Open-addressed `Vertex → VertexId` lookup: a power-of-two slot array of
/// vertex indices probed linearly, with the vertex arena itself as the key
/// store. Replaces the old `HashMap<Vertex, VertexId>` (SipHash, per-entry
/// boxes) with two cache lines of work per lookup and zero steady-state
/// allocation once capacity is reserved.
#[derive(Clone, Debug, Default)]
struct VertexTable {
    /// Slot values are vertex indices; `EMPTY` marks a free slot.
    slots: Vec<u32>,
}

const EMPTY_SLOT: u32 = u32::MAX;

impl VertexTable {
    /// Finds `v`'s id, or the slot where it should be inserted.
    fn probe(&self, v: Vertex, vertices: &[Vertex]) -> Result<VertexId, usize> {
        debug_assert!(!self.slots.is_empty());
        let mask = self.slots.len() - 1;
        let mut i = vertex_hash(v) as usize & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY_SLOT {
                return Err(i);
            }
            if vertices[s as usize] == v {
                return Ok(VertexId(s));
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `id` (for a vertex just pushed to `vertices`), growing and
    /// rehashing at 7/8 load.
    fn insert(&mut self, slot: usize, id: u32, vertices: &[Vertex]) {
        self.slots[slot] = id;
        let len = vertices.len();
        if len * 8 >= self.slots.len() * 7 {
            self.grow(vertices);
        }
    }

    /// Doubles capacity and rehashes every live vertex.
    fn grow(&mut self, vertices: &[Vertex]) {
        let cap = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(cap, EMPTY_SLOT);
        let mask = cap - 1;
        for (idx, &v) in vertices.iter().enumerate() {
            let mut i = vertex_hash(v) as usize & mask;
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            self.slots[i] = idx as u32;
        }
    }

    /// Empties the table, sized so `expected` vertices fit without a
    /// rehash. Clearing costs time proportional to that size, not to the
    /// largest graph the table ever held.
    fn reset(&mut self, expected: usize) {
        let cap = (expected * 8 / 7 + 1).next_power_of_two().max(16);
        self.slots.clear();
        self.slots.resize(cap, EMPTY_SLOT);
    }
}

/// One entry of a [`ConstraintLog`].
#[derive(Clone, Copy, Debug)]
enum Fact {
    /// `v ≤ u + c` in the upper problem, `v ≥ u + c` in the lower one;
    /// `only` confines it to one problem, and a C5 edge carries the check
    /// site whose π guard establishes it.
    Edge {
        u: Vertex,
        v: Vertex,
        c: i64,
        only: Option<Problem>,
        site: Option<CheckSite>,
    },
    /// `v` is a max (φ) vertex.
    Max(Vertex),
    /// A φ row: `(φ result, φ argument, predecessor)`.
    PhiArg(Value, Value, Block),
}

/// Which facts of a [`ConstraintLog`] a fill replays.
#[derive(Clone, Copy, Debug)]
pub enum Scope<'a> {
    /// Every fact of the function, assumed parameter facts included.
    Function,
    /// Only the facts of one block's instructions: a check this graph
    /// proves is *local* (the Figure 6 split). Assumed facts belong to no
    /// block.
    Block(Block),
    /// Every fact except the C5 edges of these check sites, so translation
    /// validation can re-prove an eliminated check without the fact it
    /// (or any other unvalidated elimination) would have established.
    Excluding(&'a [CheckSite]),
}

/// One bounds check of a function, as its [`ConstraintLog`] lists it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LoggedCheck {
    /// The block holding the check.
    pub block: Block,
    /// The check instruction.
    pub inst: InstId,
    /// Its stable site id.
    pub site: CheckSite,
    /// The array it guards.
    pub array: Value,
    /// The index it tests.
    pub index: Value,
    /// Which bounds it tests.
    pub kind: CheckKind,
}

/// Every Table 1 fact of one function, recorded by one walk of its IR in
/// block-major instruction order, with the exact values of its constants
/// and constant-length arrays, plus the parameter facts assumed for it and
/// its bounds checks. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct ConstraintLog {
    facts: Vec<Fact>,
    /// Block `b`'s facts are `facts[block_off[b]..block_off[b + 1]]`; the
    /// assumed facts follow the last block's.
    block_off: Vec<usize>,
    /// The function's bounds checks, in block-major order.
    checks: Vec<LoggedCheck>,
    /// Exact values, dense by value index: a constant-defined value's
    /// constant and a constant-length allocation's length. A vertex whose
    /// runtime value is a known constant k gets potential k (upper) / −k
    /// (lower); the solver compares two known potentials numerically,
    /// which is how `new int[10]` proves `a[9]` without equality edges.
    raw_value: Vec<Option<i64>>,
    raw_len: Vec<Option<i64>>,
}

impl ConstraintLog {
    /// Records the e-SSA-form function `func` into this log, replacing its
    /// previous contents and reusing every buffer's capacity.
    pub fn record(&mut self, func: &Function) {
        self.facts.clear();
        self.block_off.clear();
        self.checks.clear();
        self.raw_value.clear();
        self.raw_len.clear();
        self.raw_value.resize(func.value_count(), None);
        self.raw_len.resize(func.value_count(), None);
        for b in func.blocks() {
            self.block_off.push(self.facts.len());
            for &id in func.block(b).insts() {
                self.record_inst(func, b, id);
            }
        }
        self.block_off.push(self.facts.len());
    }

    /// Assumes `facts` about the parameters of `func` (the function this
    /// log recorded): each becomes a row confined to its problem, after the
    /// last block's facts, replacing the rows of any previous `assume`.
    /// The caller answers for the facts' validity: verified at every call
    /// site, or guarded at run time.
    pub fn assume(&mut self, facts: &[ParamFact], func: &Function) {
        self.facts
            .truncate(self.block_off.last().copied().unwrap_or(0));
        for fact in facts {
            let (problem, u, v, c) = fact.relation(|i| func.param(i));
            self.edge(u, v, c, Some(problem), None);
        }
    }

    /// The function's bounds checks, in block-major order.
    pub fn checks(&self) -> &[LoggedCheck] {
        &self.checks
    }

    /// The exact value of `v`, where the log knows it.
    fn exact(&self, v: Vertex) -> Option<i64> {
        match v {
            Vertex::Const(k) => Some(k),
            Vertex::Value(x) => self.raw_value.get(x.index()).copied().flatten(),
            Vertex::ArrayLen(x) => self.raw_len.get(x.index()).copied().flatten(),
        }
    }

    /// Logs a fact, confined to the problem `only` names and established by
    /// the check `site` names, if any.
    fn edge(
        &mut self,
        u: Vertex,
        v: Vertex,
        c: i64,
        only: Option<Problem>,
        site: Option<CheckSite>,
    ) {
        self.facts.push(Fact::Edge {
            u,
            v,
            c,
            only,
            site,
        });
    }

    /// Logs a fact that holds in both problems.
    fn fact(&mut self, u: Vertex, v: Vertex, c: i64) {
        self.edge(u, v, c, None, None);
    }

    /// Logs the Table 1 facts of one instruction of `block`.
    fn record_inst(&mut self, func: &Function, block: Block, id: InstId) {
        let inst = func.inst(id);
        let result = inst.result;
        match &inst.kind {
            // C2: x := c  ⇒  x ≤ c (upper) / x ≥ c (lower). Exactness is
            // captured by the vertex potential, not a reverse edge: a
            // reverse edge would form a φ-free cycle, violating the §4
            // consistency invariant (every cycle is broken by a max vertex).
            InstKind::Const(c) => {
                let x = result.expect("const has result");
                self.raw_value[x.index()] = Some(*c);
                self.fact(Vertex::Const(*c), Vertex::Value(x), 0);
            }
            // C1: x := A.length ⇒ x ≤ A.length (upper) / x ≥ A.length ≥ 0.
            InstKind::ArrayLen { array } => {
                let x = Vertex::Value(result.expect("arraylen has result"));
                self.fact(Vertex::ArrayLen(*array), x, 0);
            }
            // C3: x := y ± c.
            InstKind::Binary { op, lhs, rhs } => {
                let x = Vertex::Value(result.expect("binary has result"));
                match op {
                    abcd_ir::BinOp::Add => {
                        if let Some(c) = konst(func, *rhs) {
                            self.fact(Vertex::Value(*lhs), x, c);
                        } else if let Some(c) = konst(func, *lhs) {
                            self.fact(Vertex::Value(*rhs), x, c);
                        }
                    }
                    abcd_ir::BinOp::Sub => {
                        // `x := y − i64::MIN` yields no (representable)
                        // constraint; skip it rather than wrap.
                        if let Some(nc) = konst(func, *rhs).and_then(i64::checked_neg) {
                            self.fact(Vertex::Value(*lhs), x, nc);
                        }
                    }
                    _ => {} // other operators generate no constraints
                }
            }
            // Copies are equalities; each graph keeps its direction.
            InstKind::Copy { arg } => {
                let x = result.expect("copy has result");
                if func.value_type(x) == &Type::Int {
                    self.fact(Vertex::Value(*arg), Vertex::Value(x), 0);
                } else if func.value_type(x).is_array() {
                    // Copying an array reference copies its length.
                    self.fact(Vertex::ArrayLen(*arg), Vertex::ArrayLen(x), 0);
                }
            }
            // Allocation bounds the length expression by the array length:
            // L ≤ len(x) (upper) / L ≥ len(x) (lower) — the direction that
            // lets `i < n` guards prove checks on `new int[n]`. (The reverse
            // direction would create a φ-free cycle; exact constant lengths
            // are handled via vertex potentials instead.)
            InstKind::NewArray { len, .. } => {
                let x = result.expect("newarray has result");
                self.raw_len[x.index()] = konst(func, *len);
                self.fact(Vertex::ArrayLen(x), Vertex::Value(*len), 0);
            }
            // Control-flow merge: x ≤ max(args) (upper) / x ≥ min(args).
            InstKind::Phi { args } => {
                let x = result.expect("phi has result");
                if func.value_type(x) == &Type::Int {
                    for &(pred, v) in args {
                        self.fact(Vertex::Value(v), Vertex::Value(x), 0);
                        self.facts.push(Fact::PhiArg(x, v, pred));
                    }
                    self.facts.push(Fact::Max(Vertex::Value(x)));
                } else if func.value_type(x).is_array() {
                    // len(φ(a,b)) is bounded by the weakest of len(a), len(b).
                    for (_, v) in args {
                        self.fact(Vertex::ArrayLen(*v), Vertex::ArrayLen(x), 0);
                    }
                    self.facts.push(Fact::Max(Vertex::ArrayLen(x)));
                }
            }
            // C4 and C5 constraints attach to π results.
            InstKind::Pi { input, guard } => {
                let x = result.expect("pi has result");
                // Identity: the π is a copy of its input.
                self.fact(Vertex::Value(*input), Vertex::Value(x), 0);
                match *guard {
                    // C5: a passed check establishes x ≤ A.length − 1
                    // (upper) and x ≥ 0 (lower), as its kind asks.
                    PiGuard::Check { array, kind, site } => {
                        let (x, site) = (Vertex::Value(x), Some(site));
                        if matches!(kind, CheckKind::Upper | CheckKind::Both) {
                            self.edge(Vertex::ArrayLen(array), x, -1, Some(Problem::Upper), site);
                        }
                        if matches!(kind, CheckKind::Lower | CheckKind::Both) {
                            self.edge(Vertex::Const(0), x, 0, Some(Problem::Lower), site);
                        }
                    }
                    PiGuard::Branch { block: from, taken } => {
                        self.record_branch(func, block, from, taken, *input, x);
                    }
                }
            }
            InstKind::BoundsCheck {
                site,
                array,
                index,
                kind,
            } => self.checks.push(LoggedCheck {
                block,
                inst: id,
                site: *site,
                array: *array,
                index: *index,
                kind: *kind,
            }),
            _ => {}
        }
    }

    /// Logs the C4 fact of a branch-guarded π in `block`: the comparison of
    /// the branch, oriented by the taken edge, relates the π results of its
    /// two operands (Table 1).
    fn record_branch(
        &mut self,
        func: &Function,
        block: Block,
        from: Block,
        taken: bool,
        input: Value,
        result: Value,
    ) {
        let Some(Terminator::Branch { cond, .. }) = func.block(from).terminator_opt() else {
            return;
        };
        let ValueDef::Inst(cid) = func.value_def(*cond) else {
            return;
        };
        let InstKind::Compare { op, lhs, rhs } = func.inst(cid).kind else {
            return;
        };
        // Orient: the relation that holds on this edge, as `me op other`.
        let op = if taken { op } else { op.negated() };
        let (op, other) = if input == lhs {
            (op, rhs)
        } else if input == rhs {
            (op.swapped(), lhs)
        } else {
            return; // π of an unrelated value: no constraint
        };
        let me = Vertex::Value(result);
        // Each π emits only the constraints that bound *itself* (its
        // partner's π emits the rest), so the pair of πs materializes the
        // full Table 1 row without duplicate edges.
        let (c, only) = match op {
            CmpOp::Lt => (-1, Problem::Upper), // me ≤ p − 1
            CmpOp::Le => (0, Problem::Upper),  // me ≤ p
            CmpOp::Gt => (1, Problem::Lower),  // me ≥ p + 1
            CmpOp::Ge => (0, Problem::Lower),  // me ≥ p
            // Equality would need edges in *both* directions between the
            // two πs — a φ-free 2-cycle the solver must never see (§4
            // consistency). Bounding each π by the *other side's raw
            // operand* keeps both directions acyclic: raw operands are
            // defined before the branch, so no edge can lead back.
            CmpOp::Eq => return self.fact(Vertex::Value(other), me, 0),
            CmpOp::Ne => return,
        };
        // The partner vertex: the other operand's π on the same edge (it
        // sits in this π's block), or the raw operand if it has none (e.g.
        // it is constant-defined).
        let partner = find_partner_pi(func, block, from, taken, other).unwrap_or(other);
        self.edge(Vertex::Value(partner), me, c, Some(only), None);
    }
}

/// The constant `v` is defined as, if any.
fn konst(func: &Function, v: Value) -> Option<i64> {
    match func.value_def(v) {
        ValueDef::Inst(i) => match func.inst(i).kind {
            InstKind::Const(c) => Some(c),
            _ => None,
        },
        ValueDef::Param(_) => None,
    }
}

/// The sparse, program-point-independent constraint system of one function.
///
/// # Memory layout
///
/// The graph is stored struct-of-arrays: per-vertex attributes live in
/// dense `VertexId`-indexed vectors, the vertex lookup is an
/// open-addressed `VertexTable`, and edges are appended to an
/// insertion-ordered flat log (`building`) that `refresh` packs into a
/// CSR of in-edges. The provers read the CSR slices; nothing on the prove
/// path chases per-vertex `Vec`s or hashes a key.
///
/// The default graph is an empty shell: pool shells and
/// [`fill`](Self::fill) them to reuse capacity across functions.
#[derive(Clone, Debug, Default)]
pub struct InequalityGraph {
    problem: Problem,
    vertices: Vec<Vertex>,
    table: VertexTable,
    /// Flat `(dst, edge)` log in insertion order, from which
    /// [`refresh`](Self::refresh) derives the CSR.
    building: Vec<(u32, InEdge)>,
    /// CSR in-edge offsets (`vertex_count() + 1` entries once finalized).
    csr_off: Vec<u32>,
    /// CSR-packed in-edges, vertex-major.
    csr: Vec<InEdge>,
    is_max: Vec<bool>,
    /// Solver-domain potential of constant vertices.
    potential: Vec<Option<i64>>,
    /// `(φ result, φ argument, seq, predecessor)` rows, sorted by
    /// `(result, argument, seq)` once finalized; `seq` preserves the
    /// insertion order of duplicate pairs so lookups are deterministic.
    phi: Vec<(Value, Value, u32, Block)>,
    /// Counting-sort scratch for the CSR derivation, reused across
    /// refreshes (and across functions when the graph shell is pooled).
    counts: Vec<u32>,
}

impl InequalityGraph {
    /// Builds the inequality graph of an e-SSA-form function.
    ///
    /// When `only_block` is given, only constraints generated by instructions
    /// of that block are added — used to classify a removal as *local*
    /// (provable inside one basic block) for the Figure 6 split.
    pub fn build(func: &Function, problem: Problem, only_block: Option<Block>) -> Self {
        let mut log = ConstraintLog::default();
        log.record(func);
        let mut g = InequalityGraph::default();
        let scope = only_block.map_or(Scope::Function, Scope::Block);
        g.fill(&log, problem, scope);
        g
    }

    /// Rebuilds this graph in place as the graph of `problem` over the
    /// facts of `log` in `scope`, reusing every buffer's capacity. Costs
    /// time proportional to the facts in scope: a block's graph never
    /// touches the rest of the function.
    pub fn fill(&mut self, log: &ConstraintLog, problem: Problem, scope: Scope<'_>) {
        let (facts, excluded) = match scope {
            Scope::Function => (&log.facts[..], &[][..]),
            Scope::Block(b) => (
                &log.facts[log.block_off[b.index()]..log.block_off[b.index() + 1]],
                &[][..],
            ),
            Scope::Excluding(sites) => (&log.facts[..], sites),
        };
        self.problem = problem;
        self.vertices.clear();
        self.table.reset(2 * facts.len() + 1);
        self.building.clear();
        self.is_max.clear();
        self.potential.clear();
        self.phi.clear();
        for fact in facts {
            match *fact {
                Fact::Edge {
                    u,
                    v,
                    c,
                    only,
                    site,
                } => {
                    if only.is_none_or(|p| p == problem)
                        && !site.is_some_and(|s| excluded.contains(&s))
                    {
                        self.add_fact(u, v, c, log);
                    }
                }
                Fact::Max(v) => {
                    let id = self.intern(v, log);
                    self.is_max[id.0 as usize] = true;
                }
                Fact::PhiArg(x, arg, pred) => {
                    let seq = u32::try_from(self.phi.len()).expect("phi table overflow");
                    self.phi.push((x, arg, seq, pred));
                }
            }
        }
        self.refresh();
    }

    /// (Re)derives the in-edge CSR and the sorted φ table from the edge
    /// log. O(V + E), allocation-free once capacities are warm.
    fn refresh(&mut self) {
        // Stable counting sort of the log by destination: each vertex's
        // in-edges keep their insertion order.
        let by_dst = self.building.iter().map(|&(dst, _)| dst as usize);
        counting_offsets(
            by_dst,
            self.vertices.len(),
            &mut self.counts,
            &mut self.csr_off,
        );
        let unset = InEdge {
            src: VertexId(0),
            weight: 0,
        };
        self.csr.clear();
        self.csr.resize(self.building.len(), unset);
        for &(dst, edge) in &self.building {
            let pos = &mut self.counts[dst as usize];
            self.csr[*pos as usize] = edge;
            *pos += 1;
        }
        // φ rows sort by (result, argument, seq): deterministic, duplicate
        // pairs keep their insertion order, lookups binary-search a range.
        self.phi.sort_unstable_by_key(|&(x, a, seq, _)| (x, a, seq));
    }

    /// The problem this graph encodes.
    pub fn problem(&self) -> Problem {
        self.problem
    }

    /// The vertex id for `v`, if it occurs in any constraint.
    pub fn lookup(&self, v: Vertex) -> Option<VertexId> {
        if self.vertices.is_empty() {
            return None;
        }
        self.table.probe(v, &self.vertices).ok()
    }

    /// The vertex behind an id.
    pub fn vertex(&self, id: VertexId) -> Vertex {
        self.vertices[id.0 as usize]
    }

    /// In-edges of `v` (constraints bounding `v`), as a CSR slice.
    pub fn in_edges(&self, v: VertexId) -> &[InEdge] {
        let lo = self.csr_off[v.0 as usize] as usize;
        let hi = self.csr_off[v.0 as usize + 1] as usize;
        &self.csr[lo..hi]
    }

    /// Is `v` a max (φ) vertex?
    pub fn is_max(&self, v: VertexId) -> bool {
        self.is_max[v.0 as usize]
    }

    /// Solver-domain potential of `v` (known only for constants).
    pub fn potential(&self, v: VertexId) -> Option<i64> {
        self.potential[v.0 as usize]
    }

    /// The predecessor blocks whose φ in-edges carry `arg` into `phi`
    /// (empty if `phi` is not a φ result or `arg` not one of its
    /// arguments), in φ-argument order. Binary search over the sorted flat
    /// φ table — no per-pair `Vec`s, no hashing.
    pub fn phi_pred(&self, phi: Value, arg: Value) -> impl Iterator<Item = Block> + '_ {
        let lo = self
            .phi
            .partition_point(|&(x, a, _, _)| (x, a) < (phi, arg));
        let hi = self
            .phi
            .partition_point(|&(x, a, _, _)| (x, a) <= (phi, arg));
        self.phi[lo..hi].iter().map(|&(_, _, _, b)| b)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.csr.len()
    }

    /// Appends this graph as Graphviz text, as `mjc graph` prints it: a `;`
    /// comment naming the problem and `function`, then a `digraph` with one
    /// node per vertex in id order (double-circled for a max vertex) and
    /// one edge `u -> v`, labeled `w`, per constraint `v ≤ u + w`.
    pub fn write_dot(&self, function: &str, out: &mut String) {
        use std::fmt::Write as _;
        let problem = self.problem();
        let _ = writeln!(out, "; inequality graph ({problem:?}) of @{function}");
        let _ = writeln!(out, "digraph \"{function}\" {{");
        for id in (0..self.vertex_count()).map(VertexId::from_index) {
            let (v, label) = (id.index(), self.vertex(id));
            let double = if self.is_max(id) { "double" } else { "" };
            let _ = writeln!(out, "  n{v} [label=\"{label}\", shape={double}circle];");
            for InEdge { src, weight } in self.in_edges(id) {
                let _ = writeln!(out, "  n{} -> n{v} [label=\"{weight}\"];", src.index());
            }
        }
        out.push_str("}\n");
    }

    /// Fault injection: deterministically strengthens one edge by
    /// `1..=max_delta` (solver domain). Strengthening fabricates an
    /// unjustified fact, the *dangerous* direction — proofs get easier, so
    /// a wrong elimination becomes possible and translation validation must
    /// catch it. No-op on an edgeless graph.
    pub(crate) fn perturb_random_edge(&mut self, rng: &mut abcd_ir::SplitMix64, max_delta: i64) {
        let total = self.edge_count();
        if total == 0 {
            return;
        }
        let pick = (rng.next_u64() % total as u64) as usize;
        let delta = 1 + (rng.next_u64() % max_delta.max(1) as u64) as i64;
        // Only the CSR is read by the provers, and no refresh follows a
        // perturbation.
        self.csr[pick].weight -= delta;
    }

    // ---- construction --------------------------------------------------

    /// The id of `v`, interning it (with the exact value `log` knows for
    /// it as its potential) if it is new.
    fn intern(&mut self, v: Vertex, log: &ConstraintLog) -> VertexId {
        if self.table.slots.is_empty() {
            self.table.reset(0);
        }
        let slot = match self.table.probe(v, &self.vertices) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        // `from_index` rejects indices past u32::MAX with a clean panic
        // instead of the old silent `as u32` truncation, which would have
        // aliased distinct vertices (the driver's panic isolation converts
        // this into a fail-open PassPanic incident).
        let id = VertexId::from_index(self.vertices.len());
        self.vertices.push(v);
        self.table.insert(slot, id.0, &self.vertices);
        self.is_max.push(false);
        // A constant whose negation does not exist gets no potential at
        // all (conservative: potential-less vertices prove nothing).
        self.potential
            .push(log.exact(v).and_then(|k| match self.problem {
                Problem::Upper => Some(k),
                Problem::Lower => k.checked_neg(),
            }));
        // Every array length is non-negative; in the lower problem this is
        // the edge form of "array length ≥ 0" the paper mentions in §4.
        if let (Vertex::ArrayLen(_), Problem::Lower) = (v, self.problem) {
            let zero = self.intern(Vertex::Const(0), log);
            self.building.push((
                id.0,
                InEdge {
                    src: zero,
                    weight: 0,
                },
            ));
        }
        id
    }

    /// Adds the solver-domain edge for the *fact* `v ≤ u + c` (Upper) or
    /// `v ≥ u + c` (Lower).
    ///
    /// Self-edges are dropped: `v ≤ v + c` is either vacuous (`c ≥ 0`) or
    /// marks an infeasible path (`c < 0` from a never-true comparison like
    /// `x < x`), and either way it would form a φ-free cycle, violating the
    /// §4 consistency invariant the solver's `Reduced` handling relies on.
    ///
    /// `−i64::MIN` does not exist, so the lower graph drops a fact of that
    /// weight. Dropping is conservative: fewer facts, fewer proofs — edges
    /// into max vertices are always the weight-0 φ identities, so a dropped
    /// edge can only make proofs harder, never easier.
    fn add_fact(&mut self, u: Vertex, v: Vertex, c: i64, log: &ConstraintLog) {
        if u == v {
            return;
        }
        let weight = match self.problem {
            Problem::Upper => c,
            Problem::Lower => match c.checked_neg() {
                Some(w) => w,
                None => return,
            },
        };
        let us = self.intern(u, log);
        let vs = self.intern(v, log);
        self.building.push((vs.0, InEdge { src: us, weight }));
    }

    /// Adds the fact `v ≤ u + c` (upper graph) / `v ≥ u + c` (lower graph)
    /// to a built graph, so solver tests can hand-craft systems without
    /// running the full frontend.
    #[cfg(test)]
    pub(crate) fn assume_fact(&mut self, u: Vertex, v: Vertex, c: i64) {
        self.add_fact(u, v, c, &ConstraintLog::default());
        self.refresh();
    }

    /// Marks `v` as a max (φ) vertex, so solver tests can hand-craft
    /// cyclic systems without running the full frontend.
    #[cfg(test)]
    pub(crate) fn mark_max(&mut self, v: Vertex) {
        let before = self.vertices.len();
        let id = self.intern(v, &ConstraintLog::default());
        self.is_max[id.0 as usize] = true;
        // Interning after a build may add vertices (tests hand-crafting
        // systems); re-derive the CSR so its offsets cover them.
        if self.vertices.len() != before {
            self.refresh();
        }
    }
}

/// Counting-sort offsets of `keys` (each `< n`): key `k`'s slots are
/// `off[k]..off[k + 1]`. Leaves `counts` as the scatter cursor, a copy of
/// `off[..n]`.
fn counting_offsets(
    keys: impl Iterator<Item = usize>,
    n: usize,
    counts: &mut Vec<u32>,
    off: &mut Vec<u32>,
) {
    counts.clear();
    counts.resize(n, 0);
    for k in keys {
        counts[k] += 1;
    }
    off.clear();
    let mut acc = 0u32;
    for &count in counts.iter() {
        off.push(acc);
        acc += count;
    }
    off.push(acc);
    counts.copy_from_slice(&off[..n]);
}

/// Finds the π in `block` guarded by the same branch edge that renames
/// `operand`.
fn find_partner_pi(
    func: &Function,
    block: Block,
    from: Block,
    taken: bool,
    operand: Value,
) -> Option<Value> {
    for &id in func.block(block).insts() {
        if let InstKind::Pi {
            input,
            guard: PiGuard::Branch { block: b, taken: t },
        } = &func.inst(id).kind
        {
            if *b == from && *t == taken && *input == operand {
                return func.inst(id).result;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{essa, essa_module};

    #[test]
    fn const_assignment_creates_edge_from_constant() {
        let f = essa("fn f() -> int { let x: int = 7; return x; }");
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let c7 = g.lookup(Vertex::Const(7)).expect("const vertex");
        // some value vertex has an in-edge from Const(7) with weight 0
        let found = (0..g.vertex_count())
            .map(VertexId::from_index)
            .any(|v| g.in_edges(v).iter().any(|e| e.src == c7 && e.weight == 0));
        assert!(found);
        assert_eq!(g.potential(c7), Some(7));
    }

    #[test]
    fn lower_graph_negates_potentials() {
        let f = essa("fn f() -> int { let x: int = 7; return x; }");
        let g = InequalityGraph::build(&f, Problem::Lower, None);
        let c7 = g.lookup(Vertex::Const(7)).expect("const vertex");
        assert_eq!(g.potential(c7), Some(-7));
    }

    #[test]
    fn phi_vertices_are_max() {
        let f = essa(
            "fn f(n: int) -> int {
                let i: int = 0;
                while (i < n) { i = i + 1; }
                return i;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        let max_count = (0..g.vertex_count())
            .map(VertexId::from_index)
            .filter(|v| g.is_max(*v))
            .count();
        assert!(max_count >= 1, "loop φ must be a max vertex");
    }

    #[test]
    fn check_pi_gets_minus_one_edge_from_array_len() {
        let f = essa("fn f(a: int[], i: int) -> int { return a[i]; }");
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        // Find an edge with weight −1 from an ArrayLen vertex.
        let mut found = false;
        for v in (0..g.vertex_count()).map(VertexId::from_index) {
            for e in g.in_edges(v) {
                if e.weight == -1 {
                    if let Vertex::ArrayLen(_) = g.vertex(e.src) {
                        found = true;
                    }
                }
            }
        }
        assert!(found, "C5 edge missing");
    }

    #[test]
    fn branch_pi_constraint_relates_both_pis() {
        // if (i < n) { ... } gives π(i) ≤ π(n) − 1 on the taken edge.
        let f = essa(
            "fn f(a: int[], i: int) -> int {
                if (i < a.length) { return a[i]; }
                return 0;
            }",
        );
        let g = InequalityGraph::build(&f, Problem::Upper, None);
        // Expect at least one −1-weight edge between two Value vertices
        // (π(n) → π(i)).
        let mut found = false;
        for v in (0..g.vertex_count()).map(VertexId::from_index) {
            for e in g.in_edges(v) {
                if e.weight == -1
                    && matches!(g.vertex(e.src), Vertex::Value(_))
                    && matches!(g.vertex(v), Vertex::Value(_))
                {
                    found = true;
                }
            }
        }
        assert!(found, "C4 edge missing:\n{f}");
    }

    #[test]
    fn lower_graph_gives_array_len_nonnegativity() {
        let f = essa("fn f(a: int[]) -> int { return a.length; }");
        let g = InequalityGraph::build(&f, Problem::Lower, None);
        let zero = g.lookup(Vertex::Const(0)).expect("const 0");
        let mut found = false;
        for v in (0..g.vertex_count()).map(VertexId::from_index) {
            if let Vertex::ArrayLen(_) = g.vertex(v) {
                if g.in_edges(v).iter().any(|e| e.src == zero) {
                    found = true;
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn block_filter_restricts_constraints() {
        let f = essa(
            "fn f(a: int[], i: int) -> int {
                if (i < a.length) { return a[i]; }
                return 0;
            }",
        );
        let full = InequalityGraph::build(&f, Problem::Upper, None);
        let entry_only = InequalityGraph::build(&f, Problem::Upper, Some(f.entry()));
        assert!(entry_only.edge_count() < full.edge_count());
    }

    #[test]
    fn excluding_a_site_drops_exactly_its_c5_edges() {
        let f = essa("fn f(a: int[], i: int) -> int { return a[i]; }");
        let checks: Vec<(CheckSite, CheckKind)> = f
            .blocks()
            .flat_map(|b| f.block(b).insts())
            .filter_map(|&id| match f.inst(id).kind {
                InstKind::BoundsCheck { site, kind, .. } => Some((site, kind)),
                _ => None,
            })
            .collect();
        let sites: Vec<CheckSite> = checks.iter().map(|&(site, _)| site).collect();
        let mut log = ConstraintLog::default();
        log.record(&f);
        for problem in [Problem::Upper, Problem::Lower] {
            let c5 = checks
                .iter()
                .filter(|&&(_, kind)| Problem::of_check(kind).contains(&problem))
                .count();
            assert!(c5 > 0, "{problem:?}: no check guards this problem");
            let mut full = InequalityGraph::default();
            full.fill(&log, problem, Scope::Function);
            let mut cut = InequalityGraph::default();
            cut.fill(&log, problem, Scope::Excluding(&sites));
            assert_eq!(cut.edge_count() + c5, full.edge_count(), "{problem:?}");
        }
    }

    /// Every vertex in id order with its potential, max flag and in-edges.
    fn render(g: &InequalityGraph) -> String {
        let mut out = String::new();
        for id in (0..g.vertex_count()).map(VertexId::from_index) {
            out += &format!("{} {:?} {}:", g.vertex(id), g.potential(id), g.is_max(id));
            for e in g.in_edges(id) {
                out += &format!(" {}/{}", e.src.index(), e.weight);
            }
            out.push('\n');
        }
        out
    }

    /// The log lists exactly the function's `BoundsCheck` instructions, in
    /// block-major order, for every kernel and generated-corpus function.
    #[test]
    fn check_list_matches_the_bounds_checks_in_block_major_order() {
        let sources = abcd_benchsuite::BENCHMARKS
            .iter()
            .map(|b| b.source.to_string())
            .chain(abcd_loadgen::corpus(1, 24));
        let mut log = ConstraintLog::default();
        let (mut functions, mut checks) = (0, 0);
        for src in sources {
            let m = essa_module(&src);
            for (_, f) in m.functions() {
                let mut expected = Vec::new();
                for b in f.blocks() {
                    for &inst in f.block(b).insts() {
                        if let InstKind::BoundsCheck {
                            site,
                            array,
                            index,
                            kind,
                        } = f.inst(inst).kind
                        {
                            expected.push(LoggedCheck {
                                block: b,
                                inst,
                                site,
                                array,
                                index,
                                kind,
                            });
                        }
                    }
                }
                log.record(f);
                assert_eq!(log.checks(), &expected[..], "{}", f.name());
                functions += 1;
                checks += expected.len();
            }
        }
        assert!(
            functions >= 120 && checks > 500,
            "{functions} functions, {checks} checks"
        );
    }

    const THREE_PARAMS: &str = "fn f(a: int[], b: int[], i: int) -> int {
        if (i < b.length) { return a[i] + b[i]; }
        return 0;
    }";

    /// Assumed facts are rows of the log: a whole-function or excluding
    /// fill holds exactly what assuming each fact on the finished graph
    /// did (same vertex ids, potentials and in-edge order), and no block
    /// fill ever sees them.
    #[test]
    fn assumed_rows_fill_function_and_excluding_scopes_but_never_blocks() {
        let f = essa(THREE_PARAMS);
        let facts = crate::interproc::candidate_facts(f.param_types());
        let sites: Vec<CheckSite> = {
            let mut log = ConstraintLog::default();
            log.record(&f);
            log.checks().iter().map(|c| c.site).collect()
        };
        let (mut plain, mut assumed) = (ConstraintLog::default(), ConstraintLog::default());
        plain.record(&f);
        assumed.record(&f);
        assumed.assume(&facts, &f);
        for problem in [Problem::Upper, Problem::Lower] {
            let rows = facts
                .iter()
                .filter(|fact| fact.relation(|i| f.param(i)).0 == problem)
                .count();
            assert!(rows > 0, "{problem:?}: no fact confined to this problem");
            for scope in [Scope::Function, Scope::Excluding(&sites)] {
                let mut by_hand = InequalityGraph::default();
                by_hand.fill(&plain, problem, scope);
                let before = by_hand.edge_count();
                for fact in &facts {
                    let (p, u, v, c) = fact.relation(|i| f.param(i));
                    if p == problem {
                        by_hand.assume_fact(u, v, c);
                    }
                }
                let mut g = InequalityGraph::default();
                g.fill(&assumed, problem, scope);
                assert_eq!(g.edge_count(), before + rows, "{problem:?} {scope:?}");
                assert_eq!(render(&g), render(&by_hand), "{problem:?} {scope:?}");
            }
            for b in f.blocks() {
                let (mut with, mut without) =
                    (InequalityGraph::default(), InequalityGraph::default());
                with.fill(&assumed, problem, Scope::Block(b));
                without.fill(&plain, problem, Scope::Block(b));
                assert_eq!(render(&with), render(&without), "{problem:?} block {b}");
            }
        }
    }

    /// A second `assume` replaces the first set of rows: a refill sees the
    /// latest facts only.
    #[test]
    fn a_second_assume_replaces_the_first() {
        let f = essa(THREE_PARAMS);
        let facts = crate::interproc::candidate_facts(f.param_types());
        let mut log = ConstraintLog::default();
        log.record(&f);
        log.assume(&facts, &f);
        for trial in [&facts[1..2], &[][..], &facts[..]] {
            log.assume(trial, &f);
            let mut fresh = ConstraintLog::default();
            fresh.record(&f);
            fresh.assume(trial, &f);
            for problem in [Problem::Upper, Problem::Lower] {
                let (mut g, mut expected) =
                    (InequalityGraph::default(), InequalityGraph::default());
                g.fill(&log, problem, Scope::Function);
                expected.fill(&fresh, problem, Scope::Function);
                assert_eq!(render(&g), render(&expected), "{trial:?} {problem:?}");
            }
        }
    }

    /// A log and a graph shell reused across functions fill exactly what
    /// fresh ones do: no state of the previous function survives.
    #[test]
    fn reused_log_and_shell_match_a_fresh_build() {
        let big = essa(
            "fn f(a: int[], n: int) -> int {
                let s: int = 0;
                let b: int[] = new int[10];
                for (let i: int = 0; i < n; i = i + 1) {
                    if (i < a.length) { s = s + a[i] + b[i]; }
                }
                return s;
            }",
        );
        let small = essa("fn f(a: int[], i: int) -> int { return a[i]; }");
        let mut log = ConstraintLog::default();
        log.record(&big);
        let mut g = InequalityGraph::default();
        g.fill(&log, Problem::Lower, Scope::Function);
        log.record(&small);
        for (problem, block) in [
            (Problem::Upper, None),
            (Problem::Lower, Some(small.entry())),
        ] {
            g.fill(&log, problem, block.map_or(Scope::Function, Scope::Block));
            let fresh = InequalityGraph::build(&small, problem, block);
            assert_eq!(format!("{g:?}"), format!("{fresh:?}"));
        }
    }

    /// Satellite guard: vertex indexes past u32::MAX must be rejected
    /// cleanly (a descriptive panic the driver's isolation catches), never
    /// silently truncated into an aliased id.
    #[test]
    #[should_panic(expected = "vertex index overflow")]
    fn vertex_index_overflow_is_rejected() {
        let _ = VertexId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn vertex_index_boundary_is_accepted() {
        assert_eq!(
            VertexId::from_index(u32::MAX as usize).index(),
            u32::MAX as usize
        );
    }

    /// Non-negatable constants (−i64::MIN) drop their edge/potential
    /// instead of wrapping.
    #[test]
    fn lower_graph_drops_non_negatable_facts() {
        let f = essa("fn f() -> int { return 0; }");
        let mut g = InequalityGraph::build(&f, Problem::Lower, None);
        let edges_before = g.edge_count();
        g.assume_fact(
            Vertex::Value(Value::new(900)),
            Vertex::Value(Value::new(901)),
            i64::MIN,
        );
        assert_eq!(g.edge_count(), edges_before, "edge must be dropped");
        // Interning Const(i64::MIN) itself (weight 0 is fine) must yield a
        // vertex without a potential — `−i64::MIN` does not exist.
        g.assume_fact(Vertex::Const(i64::MIN), Vertex::Value(Value::new(902)), 0);
        let c = g.lookup(Vertex::Const(i64::MIN)).expect("interned");
        assert_eq!(g.potential(c), None, "potential must be dropped");
    }

    /// Satellite guard: φ-edge ordering is deterministic. The φ table is a
    /// sorted flat vec rebuilt per function; rebuilding the same function
    /// must reproduce the same `(result, arg) → predecessors` sequences,
    /// and a value arriving over several edges keeps insertion order.
    #[test]
    fn phi_edge_ordering_is_deterministic() {
        let src = "fn f(a: int[], n: int) -> int {
                let s: int = 0;
                let i: int = 0;
                while (i < n) {
                    if (i < a.length) { s = s + a[i]; }
                    i = i + 1;
                }
                return s;
            }";
        let f = essa(src);
        let g1 = InequalityGraph::build(&f, Problem::Upper, None);
        let g2 = InequalityGraph::build(&essa(src), Problem::Upper, None);
        // Enumerate every φ pair through the public accessor and compare
        // the predecessor sequences order-sensitively.
        let mut phis: Vec<Value> = Vec::new();
        let mut values: Vec<Value> = Vec::new();
        for v in (0..g1.vertex_count()).map(VertexId::from_index) {
            if let Vertex::Value(x) = g1.vertex(v) {
                values.push(x);
                if g1.is_max(v) {
                    phis.push(x);
                }
            }
        }
        let mut pairs: Vec<(Value, Value)> = Vec::new();
        for &x in &phis {
            for &a in &values {
                pairs.push((x, a));
            }
        }
        let mut nonempty = 0;
        for (x, a) in pairs {
            let p1: Vec<Block> = g1.phi_pred(x, a).collect();
            let p2: Vec<Block> = g2.phi_pred(x, a).collect();
            assert_eq!(p1, p2, "φ predecessors differ across rebuilds");
            nonempty += usize::from(!p1.is_empty());
        }
        assert!(nonempty >= 2, "loop φs must have recorded predecessors");
    }
}
