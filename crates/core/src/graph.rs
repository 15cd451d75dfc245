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

use abcd_ir::{
    Block, CheckKind, CheckSite, CmpOp, Function, InstId, InstKind, PiGuard, Terminator, Type,
    Value, ValueDef,
};
use std::fmt;

/// Which bounds-check problem a graph encodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Problem {
    /// `index ≤ A.length − 1` (§2–§6 of the paper).
    Upper,
    /// `index ≥ 0`, encoded in negated form (§7.2).
    Lower,
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

    fn reset(&mut self) {
        if self.slots.is_empty() {
            self.slots.resize(16, EMPTY_SLOT);
        } else {
            self.slots.fill(EMPTY_SLOT);
        }
    }
}

/// The sparse, program-point-independent constraint system of one function.
///
/// # Memory layout
///
/// The graph is stored struct-of-arrays: per-vertex attributes live in
/// dense `VertexId`-indexed vectors, the vertex lookup is an
/// open-addressed [`VertexTable`], and edges are kept twice — an
/// insertion-ordered flat log (`building`, the source of truth every
/// mutation appends to) and CSR-packed in/out adjacency derived from it by
/// [`refresh`](Self::refresh). The provers read the CSR slices;
/// nothing on the prove path chases per-vertex `Vec`s or hashes a key.
#[derive(Clone, Debug)]
pub struct InequalityGraph {
    problem: Problem,
    vertices: Vec<Vertex>,
    table: VertexTable,
    /// Flat `(dst, edge)` log in canonical (vertex-major, insertion-stable)
    /// order. Appends from `assume_fact` trigger a CSR refresh.
    building: Vec<(u32, InEdge)>,
    /// CSR in-edge offsets (`vertex_count() + 1` entries once finalized).
    csr_off: Vec<u32>,
    /// CSR-packed in-edges, vertex-major.
    csr: Vec<InEdge>,
    /// CSR out-neighbor offsets (same indexing).
    out_off: Vec<u32>,
    /// CSR-packed out-neighbors (destination vertex ids), source-major —
    /// what the exhaustive solver's reachability pass walks.
    out_dst: Vec<u32>,
    /// Whether the CSR views are current with `building`.
    finalized: bool,
    is_max: Vec<bool>,
    /// Solver-domain potential of constant vertices.
    potential: Vec<Option<i64>>,
    /// Defining block of each vertex (for the local/global split of Fig. 6);
    /// `None` for constants and parameters.
    def_block: Vec<Option<Block>>,
    /// `(φ result, φ argument, seq, predecessor)` rows, sorted by
    /// `(result, argument, seq)` once finalized; `seq` preserves the
    /// insertion order of duplicate pairs so lookups are deterministic.
    phi: Vec<(Value, Value, u32, Block)>,
    /// Raw (unsigned-by-problem) exact constant values, dense by value
    /// index: constant-defined values and constant-length allocations.
    raw_value: Vec<Option<i64>>,
    raw_len: Vec<Option<i64>>,
    /// Check sites whose C5 edges are suppressed during construction.
    /// Translation validation builds graphs this way: an eliminated check's
    /// own π guard must not participate in re-justifying the elimination.
    excluded_sites: Vec<CheckSite>,
    /// Counting-sort scratch for the CSR derivations, reused across
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
        Self::build_excluding(func, problem, only_block, Vec::new())
    }

    /// Like [`InequalityGraph::build`], but suppresses the C5 edges of the
    /// given check sites. Translation validation uses this to re-prove an
    /// eliminated check *without* assuming the very fact that check (or any
    /// other still-unvalidated elimination) would have established — the
    /// removed checks' π guards survive in the IR and would otherwise make
    /// every elimination circularly self-justifying.
    pub fn build_excluding(
        func: &Function,
        problem: Problem,
        only_block: Option<Block>,
        excluded_sites: Vec<CheckSite>,
    ) -> Self {
        let mut g = InequalityGraph::empty(problem);
        g.rebuild_excluding(func, problem, only_block, &excluded_sites);
        g
    }

    /// An empty graph shell. Storage is reserved lazily; pool shells with
    /// [`rebuild_excluding`](Self::rebuild_excluding) to reuse capacity
    /// across functions.
    pub(crate) fn empty(problem: Problem) -> Self {
        InequalityGraph {
            problem,
            vertices: Vec::new(),
            table: VertexTable::default(),
            building: Vec::new(),
            csr_off: Vec::new(),
            csr: Vec::new(),
            out_off: Vec::new(),
            out_dst: Vec::new(),
            finalized: false,
            is_max: Vec::new(),
            potential: Vec::new(),
            def_block: Vec::new(),
            phi: Vec::new(),
            raw_value: Vec::new(),
            raw_len: Vec::new(),
            excluded_sites: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Rebuilds this graph in place for a new function, reusing every
    /// buffer's capacity (the pooled-shell path of the driver's scratch
    /// arena). Equivalent to [`build_excluding`](Self::build_excluding).
    pub(crate) fn rebuild_excluding(
        &mut self,
        func: &Function,
        problem: Problem,
        only_block: Option<Block>,
        excluded_sites: &[CheckSite],
    ) {
        self.problem = problem;
        self.vertices.clear();
        self.table.reset();
        self.building.clear();
        self.csr_off.clear();
        self.csr.clear();
        self.out_off.clear();
        self.out_dst.clear();
        self.finalized = false;
        self.is_max.clear();
        self.potential.clear();
        self.def_block.clear();
        self.phi.clear();
        self.excluded_sites.clear();
        self.excluded_sites.extend_from_slice(excluded_sites);
        // Prepass: exact potentials, dense by value index. A vertex whose
        // runtime value is a known constant k gets potential k (upper) /
        // −k (lower); the solver compares two known potentials
        // numerically, which is how `new int[10]` proves `a[9]` without
        // equality edges.
        self.raw_value.clear();
        self.raw_len.clear();
        self.raw_value.resize(func.value_count(), None);
        self.raw_len.resize(func.value_count(), None);
        for b in func.blocks() {
            for &id in func.block(b).insts() {
                let inst = func.inst(id);
                if let InstKind::Const(c) = &inst.kind {
                    if let Some(r) = inst.result {
                        self.raw_value[r.index()] = Some(*c);
                    }
                }
            }
        }
        for b in func.blocks() {
            for &id in func.block(b).insts() {
                let inst = func.inst(id);
                if let InstKind::NewArray { len, .. } = &inst.kind {
                    if let (Some(r), Some(k)) = (inst.result, self.raw_value[len.index()]) {
                        self.raw_len[r.index()] = Some(k);
                    }
                }
            }
        }
        let locations = func.inst_locations();
        for b in func.blocks() {
            if let Some(ob) = only_block {
                if b != ob {
                    continue;
                }
            }
            for &id in func.block(b).insts() {
                self.add_constraints_for(func, b, id, &locations);
            }
        }
        self.refresh();
    }

    /// (Re)derives the CSR in/out views and the sorted φ table from the
    /// edge log, and rewrites the log itself into canonical (vertex-major,
    /// insertion-stable) order so indices into the log and the CSR agree.
    /// O(V + E), allocation-free once capacities are warm.
    fn refresh(&mut self) {
        let n = self.vertices.len();
        // In-edges: stable counting sort of the log by destination.
        self.counts.clear();
        self.counts.resize(n, 0);
        for &(dst, _) in &self.building {
            self.counts[dst as usize] += 1;
        }
        self.csr_off.clear();
        let mut acc = 0u32;
        for i in 0..n {
            self.csr_off.push(acc);
            acc += self.counts[i];
        }
        self.csr_off.push(acc);
        self.csr.clear();
        self.csr.resize(
            self.building.len(),
            InEdge {
                src: VertexId(0),
                weight: 0,
            },
        );
        // Reuse `counts` as the scatter cursor.
        self.counts.copy_from_slice(&self.csr_off[..n]);
        for &(dst, edge) in &self.building {
            let pos = self.counts[dst as usize];
            self.counts[dst as usize] = pos + 1;
            self.csr[pos as usize] = edge;
        }
        // Canonicalize the log to CSR order so flat indices agree between
        // the two views (what lets fault perturbation mutate both in
        // lockstep). Per-vertex insertion order is preserved: the counting
        // sort is stable.
        self.building.clear();
        for v in 0..n {
            let (lo, hi) = (self.csr_off[v] as usize, self.csr_off[v + 1] as usize);
            for i in lo..hi {
                self.building.push((v as u32, self.csr[i]));
            }
        }
        // Out-neighbors: counting sort of the canonical log by source.
        self.counts.clear();
        self.counts.resize(n, 0);
        for &(_, edge) in &self.building {
            self.counts[edge.src.index()] += 1;
        }
        self.out_off.clear();
        let mut acc = 0u32;
        for i in 0..n {
            self.out_off.push(acc);
            acc += self.counts[i];
        }
        self.out_off.push(acc);
        self.out_dst.clear();
        self.out_dst.resize(self.building.len(), 0);
        self.counts.copy_from_slice(&self.out_off[..n]);
        for &(dst, edge) in &self.building {
            let pos = self.counts[edge.src.index()];
            self.counts[edge.src.index()] = pos + 1;
            self.out_dst[pos as usize] = dst;
        }
        // φ rows sort by (result, argument, seq): deterministic, duplicate
        // pairs keep their insertion order, lookups binary-search a range.
        self.phi.sort_unstable_by_key(|&(x, a, seq, _)| (x, a, seq));
        self.finalized = true;
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
        debug_assert!(self.finalized, "graph read before CSR refresh");
        let lo = self.csr_off[v.0 as usize] as usize;
        let hi = self.csr_off[v.0 as usize + 1] as usize;
        &self.csr[lo..hi]
    }

    /// Out-neighbors of `v` (vertices `v` constrains), as a CSR slice of
    /// destination ids — the adjacency the exhaustive solver's
    /// reachability pass walks without rebuilding per-vertex vectors.
    pub fn out_neighbors(&self, v: VertexId) -> &[u32] {
        debug_assert!(self.finalized, "graph read before CSR refresh");
        let lo = self.out_off[v.0 as usize] as usize;
        let hi = self.out_off[v.0 as usize + 1] as usize;
        &self.out_dst[lo..hi]
    }

    /// Is `v` a max (φ) vertex?
    pub fn is_max(&self, v: VertexId) -> bool {
        self.is_max[v.0 as usize]
    }

    /// Solver-domain potential of `v` (known only for constants).
    pub fn potential(&self, v: VertexId) -> Option<i64> {
        self.potential[v.0 as usize]
    }

    /// The block whose instruction defined `v` (None for constants/params).
    pub fn def_block(&self, v: VertexId) -> Option<Block> {
        self.def_block[v.0 as usize]
    }

    /// The predecessor blocks whose φ in-edges carry `arg` into `phi`
    /// (empty if `phi` is not a φ result or `arg` not one of its
    /// arguments), in φ-argument order. Binary search over the sorted flat
    /// φ table — no per-pair `Vec`s, no hashing.
    pub fn phi_pred(&self, phi: Value, arg: Value) -> impl Iterator<Item = Block> + '_ {
        debug_assert!(self.finalized, "graph read before CSR refresh");
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
        self.building.len()
    }

    /// Adds an *assumed* fact `v ≤ u + c` (upper graph) / `v ≥ u + c`
    /// (lower graph) to the system — used by the interprocedural extension
    /// to inject verified parameter facts (see [`crate::interproc`]).
    ///
    /// The caller is responsible for the fact's validity; like every edge,
    /// it must not create a φ-free cycle (facts about parameters cannot:
    /// parameter vertices have no out-edges leading back to array lengths
    /// or constants).
    pub fn assume_fact(&mut self, u: Vertex, v: Vertex, c: i64) {
        // `−i64::MIN` does not exist; dropping the edge is conservative
        // (fewer facts, fewer proofs — edges into max vertices are always
        // the weight-0 φ identities, so a dropped edge can only make
        // proofs harder, never easier).
        let weight = match self.problem {
            Problem::Upper => c,
            Problem::Lower => match c.checked_neg() {
                Some(w) => w,
                None => return,
            },
        };
        if u == v {
            return;
        }
        let us = self.intern(u);
        let vs = self.intern(v);
        self.building.push((vs.0, InEdge { src: us, weight }));
        // Facts arrive after construction, so keep the CSR views current.
        self.refresh();
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
        // The canonical log and the CSR share flat indices (vertex-major
        // order); mutate both so later refreshes keep the perturbation.
        self.csr[pick].weight -= delta;
        self.building[pick].1.weight -= delta;
    }

    // ---- construction --------------------------------------------------

    fn intern(&mut self, v: Vertex) -> VertexId {
        if self.table.slots.is_empty() {
            self.table.reset();
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
        // Raw exact values come from the dense prepass tables; synthetic
        // vertices interned after a build (solver tests, assumed facts) sit
        // past the prepass range and simply have no known value.
        let raw = match v {
            Vertex::Const(k) => Some(k),
            Vertex::Value(x) => self.raw_value.get(x.index()).copied().flatten(),
            Vertex::ArrayLen(x) => self.raw_len.get(x.index()).copied().flatten(),
        };
        // A constant whose negation does not exist gets no potential at
        // all (conservative: potential-less vertices prove nothing).
        self.potential.push(raw.and_then(|k| match self.problem {
            Problem::Upper => Some(k),
            Problem::Lower => k.checked_neg(),
        }));
        self.def_block.push(None);
        // Every array length is non-negative; in the lower problem this is
        // the edge form of "array length ≥ 0" the paper mentions in §4.
        if let (Vertex::ArrayLen(_), Problem::Lower) = (v, self.problem) {
            let zero = self.intern(Vertex::Const(0));
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
    fn add_fact(&mut self, u: Vertex, v: Vertex, c: i64, def_block: Option<Block>) {
        if u == v {
            return;
        }
        // See `assume_fact` for why a non-negatable weight drops the edge.
        let weight = match self.problem {
            Problem::Upper => c,
            Problem::Lower => match c.checked_neg() {
                Some(w) => w,
                None => return,
            },
        };
        let us = self.intern(u);
        let vs = self.intern(v);
        self.building.push((vs.0, InEdge { src: us, weight }));
        if self.def_block[vs.0 as usize].is_none() {
            self.def_block[vs.0 as usize] = def_block;
        }
    }

    /// Marks `v` as a max (φ) vertex. Crate-visible so solver tests can
    /// hand-craft cyclic systems without running the full frontend.
    pub(crate) fn mark_max(&mut self, v: Vertex) {
        let was_finalized = self.finalized;
        let before = self.vertices.len();
        let id = self.intern(v);
        self.is_max[id.0 as usize] = true;
        // Interning after a build may add vertices (tests hand-crafting
        // systems); re-derive the CSR views so their offsets cover them.
        if was_finalized && self.vertices.len() != before {
            self.refresh();
        }
    }

    fn add_constraints_for(
        &mut self,
        func: &Function,
        block: Block,
        id: InstId,
        locations: &[Option<(Block, usize)>],
    ) {
        let inst = func.inst(id);
        let result = inst.result;
        let db = Some(block);
        match &inst.kind {
            // C2: x := c  ⇒  x ≤ c (upper) / x ≥ c (lower). Exactness is
            // captured by the vertex potential, not a reverse edge: a
            // reverse edge would form a φ-free cycle, violating the §4
            // consistency invariant (every cycle is broken by a max vertex).
            InstKind::Const(c) => {
                let x = Vertex::Value(result.expect("const has result"));
                self.add_fact(Vertex::Const(*c), x, 0, db);
            }
            // C1: x := A.length ⇒ x ≤ A.length (upper) / x ≥ A.length ≥ 0.
            InstKind::ArrayLen { array } => {
                let x = Vertex::Value(result.expect("arraylen has result"));
                self.add_fact(Vertex::ArrayLen(*array), x, 0, db);
            }
            // C3: x := y ± c.
            InstKind::Binary { op, lhs, rhs } => {
                let x = Vertex::Value(result.expect("binary has result"));
                let konst = |v: Value| -> Option<i64> {
                    match func.value_def(v) {
                        ValueDef::Inst(i) => match func.inst(i).kind {
                            InstKind::Const(c) => Some(c),
                            _ => None,
                        },
                        ValueDef::Param(_) => None,
                    }
                };
                match op {
                    abcd_ir::BinOp::Add => {
                        if let Some(c) = konst(*rhs) {
                            self.add_fact(Vertex::Value(*lhs), x, c, db);
                        } else if let Some(c) = konst(*lhs) {
                            self.add_fact(Vertex::Value(*rhs), x, c, db);
                        }
                    }
                    abcd_ir::BinOp::Sub => {
                        // `x := y − i64::MIN` yields no (representable)
                        // constraint; skip it rather than wrap.
                        if let Some(nc) = konst(*rhs).and_then(i64::checked_neg) {
                            self.add_fact(Vertex::Value(*lhs), x, nc, db);
                        }
                    }
                    _ => {} // other operators generate no constraints
                }
            }
            // Copies are equalities; each graph keeps its direction.
            InstKind::Copy { arg } => {
                let x = result.expect("copy has result");
                if func.value_type(x) == &Type::Int {
                    self.add_fact(Vertex::Value(*arg), Vertex::Value(x), 0, db);
                } else if func.value_type(x).is_array() {
                    // Copying an array reference copies its length.
                    self.add_fact(Vertex::ArrayLen(*arg), Vertex::ArrayLen(x), 0, db);
                }
            }
            // Allocation bounds the length expression by the array length:
            // L ≤ len(x) (upper) / L ≥ len(x) (lower) — the direction that
            // lets `i < n` guards prove checks on `new int[n]`. (The reverse
            // direction would create a φ-free cycle; exact constant lengths
            // are handled via vertex potentials instead.)
            InstKind::NewArray { len, .. } => {
                let x = result.expect("newarray has result");
                self.add_fact(Vertex::ArrayLen(x), Vertex::Value(*len), 0, db);
            }
            // Control-flow merge: x ≤ max(args) (upper) / x ≥ min(args).
            InstKind::Phi { args } => {
                let x = result.expect("phi has result");
                if func.value_type(x) == &Type::Int {
                    for (pred, v) in args {
                        self.add_fact(Vertex::Value(*v), Vertex::Value(x), 0, db);
                        let seq = u32::try_from(self.phi.len()).expect("phi table overflow");
                        self.phi.push((x, *v, seq, *pred));
                    }
                    self.mark_max(Vertex::Value(x));
                } else if func.value_type(x).is_array() {
                    // len(φ(a,b)) is bounded by the weakest of len(a), len(b).
                    for (_, v) in args {
                        self.add_fact(Vertex::ArrayLen(*v), Vertex::ArrayLen(x), 0, db);
                    }
                    self.mark_max(Vertex::ArrayLen(x));
                }
            }
            // C4 and C5 constraints attach to π results.
            InstKind::Pi { input, guard } => {
                let x = result.expect("pi has result");
                // Identity: the π is a copy of its input.
                self.add_fact(Vertex::Value(*input), Vertex::Value(x), 0, db);
                match guard {
                    PiGuard::Check { array, kind, site } => match (kind, self.problem) {
                        _ if self.excluded_sites.contains(site) => {}
                        (CheckKind::Upper | CheckKind::Both, Problem::Upper) => {
                            // x ≤ A.length − 1
                            self.add_fact(Vertex::ArrayLen(*array), Vertex::Value(x), -1, db);
                        }
                        (CheckKind::Lower | CheckKind::Both, Problem::Lower) => {
                            // x ≥ 0
                            self.add_fact(Vertex::Const(0), Vertex::Value(x), 0, db);
                        }
                        _ => {}
                    },
                    PiGuard::Branch { block: from, taken } => {
                        self.add_branch_constraint(func, *from, *taken, *input, x, db, locations);
                    }
                }
            }
            _ => {}
        }
    }

    /// Emits the C4 constraint for a branch-guarded π: the comparison of the
    /// branch, oriented by the taken edge, relates the π results of its two
    /// operands (Table 1).
    #[allow(clippy::too_many_arguments)]
    fn add_branch_constraint(
        &mut self,
        func: &Function,
        from: Block,
        taken: bool,
        input: Value,
        result: Value,
        db: Option<Block>,
        locations: &[Option<(Block, usize)>],
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
        // Orient: the relation that holds on this edge.
        let op = if taken { op } else { op.negated() };
        let (my_side_is_lhs, other) = if input == lhs {
            (true, rhs)
        } else if input == rhs {
            (false, lhs)
        } else {
            return; // π of an unrelated value: no constraint
        };
        // The partner vertex: the other operand's π on the same edge, or the
        // raw operand if it has none (e.g. it is constant-defined).
        let my_block = locations
            .get(match func.value_def(result) {
                ValueDef::Inst(i) => i.index(),
                ValueDef::Param(_) => return,
            })
            .copied()
            .flatten()
            .map(|(b, _)| b);
        let partner = my_block
            .and_then(|b| find_partner_pi(func, b, from, taken, other))
            .map(Vertex::Value)
            .unwrap_or(Vertex::Value(other));
        let me = Vertex::Value(result);

        // The fact on this edge is `lhs' op rhs'` where lhs'/rhs' are the
        // edge-renamed (π) versions of the operands. Each π emits only the
        // constraints that bound *itself* (its partner's π emits the rest),
        // so the pair of πs materializes the full Table 1 row without
        // duplicate edges.
        if my_side_is_lhs {
            // fact: me op partner
            match (op, self.problem) {
                (CmpOp::Lt, Problem::Upper) => self.add_fact(partner, me, -1, db), // me ≤ p − 1
                (CmpOp::Le, Problem::Upper) => self.add_fact(partner, me, 0, db),  // me ≤ p
                (CmpOp::Gt, Problem::Lower) => self.add_fact(partner, me, 1, db),  // me ≥ p + 1
                (CmpOp::Ge, Problem::Lower) => self.add_fact(partner, me, 0, db),  // me ≥ p
                // Equality would need edges in *both* directions between the
                // two πs — a φ-free 2-cycle the solver must never see (§4
                // consistency). Bounding each π by the *other side's raw
                // operand* keeps both directions acyclic: raw operands are
                // defined before the branch, so no edge can lead back.
                (CmpOp::Eq, _) => self.add_fact(Vertex::Value(other), me, 0, db),
                _ => {}
            }
        } else {
            // fact: partner op me
            match (op, self.problem) {
                (CmpOp::Gt, Problem::Upper) => self.add_fact(partner, me, -1, db), // me ≤ p − 1
                (CmpOp::Ge, Problem::Upper) => self.add_fact(partner, me, 0, db),  // me ≤ p
                (CmpOp::Lt, Problem::Lower) => self.add_fact(partner, me, 1, db),  // me ≥ p + 1
                (CmpOp::Le, Problem::Lower) => self.add_fact(partner, me, 0, db),  // me ≥ p
                (CmpOp::Eq, _) => self.add_fact(Vertex::Value(other), me, 0, db),
                _ => {}
            }
        }
    }
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
    use abcd_frontend::compile;
    use abcd_ssa::module_to_essa;

    fn essa(src: &str) -> Function {
        let mut m = compile(src).unwrap();
        module_to_essa(&mut m).unwrap();
        let id = m.functions().next().unwrap().0;
        m.function(id).clone()
    }

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
