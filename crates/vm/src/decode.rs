//! The decoded form the interpreter runs on.
//!
//! The first time a [`Vm`](crate::Vm) enters a function it appends the
//! function to one flat op array. Only instructions that compute
//! something become ops; their operands are `u32` register indices (a
//! value's register is its index) and every block ends in one terminator
//! op. Three kinds of instruction compute nothing at run time and get no
//! op:
//!
//! * a φ, whose value travels on the CFG edge instead, as one move of the
//!   parallel move list that the edge's jump or branch carries;
//! * a π or copy whose operand chain ends in a value that is not itself a
//!   π or copy. SSA makes such an instruction a pure rename, so its
//!   register becomes an *alias*: every operand that names it names the
//!   end of the chain instead;
//! * a constant, which writes the same value every time. The function's
//!   constant table lists each constant's register and value, and every
//!   new register window starts out holding them. That is exact as long
//!   as each constant's definition dominates its uses, which the front
//!   end and the optimizer guarantee and `abcd_ssa::verify_dominance`
//!   checks for IR from elsewhere.
//!
//! A block whose last op would be a `compare` and whose `branch` tests
//! that compare's register decodes the two as one [`OpKind::CmpBranch`],
//! which writes the register (other ops may read it) and then transfers.
//!
//! These *folded* instructions still execute as far as [`ExecStats`] and
//! the step budget can tell. The op that follows them in their block (the
//! terminator, if none does) carries a `weight`: its own instruction
//! (none for a terminator) plus the folded ones just before it, and its
//! `cost` is the sum of their cycle costs as [`CostModel::cost_of`] priced
//! them; a fused compare-and-branch carries both runs. The interpreter
//! charges both at once; `first` lets its cold path replay the run one
//! instruction at a time when the step budget runs out inside it.
//!
//! Everything an op refers to by position lives in one `u32` side table:
//! per function its alias table, block start table and constant table,
//! per call its argument list and per CFG edge an edge record,
//!
//! ```text
//! [target pc, target block, edge counter slot, head, (dst, src)*]
//! ```
//!
//! whose `head` is the number of moves, with [`STAGED`] set when a move
//! reads a register an earlier move of the list writes (the list then
//! runs through staging registers, keeping its parallel semantics), or
//! [`FAULTY`] when some φ of the target has no argument for the edge; a
//! faulty record ends in the index of the function's alias table instead
//! of moves. An edge on a cycle of instruction-free blocks has the head
//! [`SPIN`]: walking such a cycle runs nothing and charges nothing, so
//! the interpreter counts those transfers instead of steps.
//!
//! Malformed IR decodes without complaint, to ops that fail only if
//! executed: an unterminated block ends in [`Fault::MissingTerminator`],
//! a function whose entry block starts with a φ enters through
//! [`Fault::PhiInEntry`], a [`FAULTY`] edge replays the φ lookup that
//! finds the missing argument, and a cycle of copies keeps its ops.
//!
//! [`ExecStats`]: crate::ExecStats

use crate::cost::CostModel;
use crate::value::RtVal;
use abcd_ir::{
    BinOp, Block, CheckKind, CheckSite, CmpOp, FuncId, Function, InstId, InstKind, Module,
    Terminator, UnOp, Value,
};

/// A register: an index into the active frame's register window.
pub(crate) type Reg = u32;

/// The `value` of a `return` without a value.
pub(crate) const NO_REG: Reg = u32::MAX;

/// Edge-record `head` flag: the moves run through staging registers.
pub(crate) const STAGED: u32 = 1 << 31;

/// Edge-record `head`: some φ of the target lacks an argument for the
/// edge, so taking it panics.
pub(crate) const FAULTY: u32 = u32::MAX;

/// Constant-table register flag: the constant is a `bool`.
const BOOL: u32 = 1 << 31;

/// The register and value of each entry of the constant table at
/// `side[at.0..at.1]`.
pub(crate) fn constants(
    side: &[u32],
    at: (usize, usize),
) -> impl Iterator<Item = (Reg, RtVal)> + '_ {
    side[at.0..at.1].chunks_exact(3).map(|c| {
        let val = if c[0] & BOOL != 0 {
            RtVal::Bool(c[1] != 0)
        } else {
            RtVal::Int((u64::from(c[1]) | u64::from(c[2]) << 32) as i64)
        };
        (c[0] & !BOOL, val)
    })
}

/// Edge-record `head`: the edge lies on a cycle of instruction-free
/// blocks (and, its target having no φ, carries no moves).
pub(crate) const SPIN: u32 = 1 << 30;

/// Why an op panics when executed.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fault {
    /// The entry block starts with a φ, which has no incoming edge.
    PhiInEntry,
    /// The block has no terminator.
    MissingTerminator,
}

/// One decoded operation.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OpKind {
    Neg {
        dst: Reg,
        arg: Reg,
    },
    Not {
        dst: Reg,
        arg: Reg,
    },
    Binary {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    Compare {
        op: CmpOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    /// `inst` is the `new_array` instruction, which holds the element type.
    NewArray {
        dst: Reg,
        len: Reg,
        inst: InstId,
    },
    ArrayLen {
        dst: Reg,
        array: Reg,
    },
    Load {
        dst: Reg,
        array: Reg,
        index: Reg,
    },
    Store {
        array: Reg,
        index: Reg,
        value: Reg,
    },
    BoundsCheck {
        site: CheckSite,
        array: Reg,
        index: Reg,
        kind: CheckKind,
    },
    SpecCheck {
        site: CheckSite,
        array: Reg,
        index: Reg,
        kind: CheckKind,
    },
    TrapIfFlagged {
        site: CheckSite,
        array: Reg,
        index: Reg,
        kind: CheckKind,
    },
    /// A π or a copy whose operand chain cycles, so it has no alias.
    Copy {
        dst: Reg,
        src: Reg,
    },
    /// `args` is the side-table index of `[n, arg*]`.
    Call {
        dst: Reg,
        callee: u32,
        args: u32,
    },
    Output {
        arg: Reg,
    },
    GetLocal {
        dst: Reg,
        local: u32,
    },
    SetLocal {
        local: u32,
        value: Reg,
    },
    /// `edge` is the side-table index of the edge record.
    Jump {
        edge: u32,
    },
    Branch {
        cond: Reg,
        then_edge: u32,
        else_edge: u32,
    },
    /// A `Compare` and the `Branch` on its result: writes `dst`, which
    /// other ops may read, and then transfers.
    CmpBranch {
        op: CmpOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
        then_edge: u32,
        else_edge: u32,
    },
    /// `value` is [`NO_REG`] for a `return` without a value.
    Return {
        value: Reg,
    },
    Fail(Fault),
}

/// An op and what executing it charges.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Op {
    pub(crate) kind: OpKind,
    /// Model cycles of the instructions the op stands for.
    pub(crate) cost: u64,
    /// Instructions the op stands for: its own (none for a terminator)
    /// plus the folded ones just before it.
    pub(crate) weight: u32,
    /// When `weight` is not 0, the first of those instructions, as its
    /// ordinal in the function's instructions taken in block order.
    pub(crate) first: u32,
}

/// What a frame needs to know about a decoded function.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Decoded {
    /// Where execution starts.
    pub(crate) entry: usize,
    /// Register window size: one register per value, plus one that
    /// receives the results no value is named for.
    pub(crate) regs: usize,
    pub(crate) params: usize,
    pub(crate) locals: usize,
    pub(crate) sites: usize,
    /// Where the function's constant table lies in the side table.
    pub(crate) consts: (usize, usize),
}

/// The decoded functions of one module, filled in as they are entered.
#[derive(Debug, Default)]
pub(crate) struct Code {
    pub(crate) ops: Vec<Op>,
    pub(crate) side: Vec<u32>,
    funcs: Vec<Option<Decoded>>,
}

fn reg(v: Value) -> Reg {
    v.index() as Reg
}

fn index(i: usize) -> u32 {
    u32::try_from(i).expect("decoded code exceeds u32 indices")
}

/// Where a function's alias table starts in the side table, and how many
/// values it covers. Entry `v` of the table is the register that holds
/// value `v`: the end of `v`'s π/copy chain, `v` itself for every other
/// value.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Aliases {
    at: usize,
    len: usize,
}

impl Aliases {
    /// The alias table of `func` at side-table index `at`.
    pub(crate) fn new(at: usize, func: &Function) -> Aliases {
        Aliases {
            at,
            len: func.value_count(),
        }
    }

    /// The register that holds `v` (out-of-range values of malformed IR
    /// keep their index).
    pub(crate) fn reg(self, side: &[u32], v: Value) -> Reg {
        if v.index() < self.len {
            side[self.at + v.index()]
        } else {
            reg(v)
        }
    }
}

/// Returns the end of `v`'s chain in `table`, where `table[x] == x` ends a
/// chain and any other entry is the operand of a π or copy, and points
/// every entry on the way straight at that end. Each member of a cycle
/// (malformed IR) is made the end of its own chain, so its op stays.
fn resolve(table: &mut [u32], v: usize) -> u32 {
    let mut end = v;
    let mut hops = 0;
    while table[end] as usize != end {
        end = table[end] as usize;
        hops += 1;
        if hops > table.len() {
            // More hops than entries: `end` lies on a cycle.
            let start = end;
            loop {
                let next = table[end] as usize;
                table[end] = index(end);
                end = next;
                if end == start {
                    break;
                }
            }
            return resolve(table, v);
        }
    }
    let mut x = v;
    while x != end {
        let next = table[x] as usize;
        table[x] = index(end);
        x = next;
    }
    index(end)
}

impl Code {
    /// Function `id`, decoded on its first entry.
    pub(crate) fn enter(&mut self, module: &Module, cost: &CostModel, id: FuncId) -> Decoded {
        if self.funcs.is_empty() {
            self.funcs = vec![None; module.function_count()];
        }
        if let Some(d) = self.funcs[id.index()] {
            return d;
        }
        let d = self.decode(module.function(id), cost);
        self.funcs[id.index()] = Some(d);
        d
    }

    fn decode(&mut self, func: &Function, cost: &CostModel) -> Decoded {
        let phi_in_entry = func
            .block(func.entry())
            .insts()
            .first()
            .is_some_and(|&id| matches!(func.inst(id).kind, InstKind::Phi { .. }));
        // Both buffers grow by at most one allocation per function.
        let mut side = func.value_count() + func.block_count();
        // Does an edge join two instruction-free blocks? The front end
        // never makes one, but where one exists `flag_spins` needs
        // scratch.
        let idle_edges = func.blocks().any(|b| {
            idle(func, b)
                && successors(func, b)
                    .into_iter()
                    .flatten()
                    .any(|to| idle(func, to))
        });
        if idle_edges {
            side += 2 * func.block_count();
        }
        for b in func.blocks() {
            let block = func.block(b);
            for &id in block.insts() {
                match &func.inst(id).kind {
                    InstKind::Call { args, .. } => side += 1 + args.len(),
                    InstKind::Const(_) | InstKind::BoolConst(_) => side += 3,
                    _ => {}
                }
            }
            for to in successors(func, b).into_iter().flatten() {
                let phis = (to.index() < func.block_count()).then(|| {
                    func.block(to)
                        .insts()
                        .iter()
                        .take_while(|&&id| matches!(func.inst(id).kind, InstKind::Phi { .. }))
                        .count()
                });
                side += 5 + 2 * phis.unwrap_or(0);
            }
        }
        self.side.reserve(side);
        let aliases = self.aliases(func);
        // Block start table: each block is its unfolded instructions plus
        // one terminator, less the compare a branch fuses with, so every
        // start is known before any edge is decoded.
        let starts = self.side.len();
        let base = self.ops.len() + usize::from(phi_in_entry);
        let mut pc = base;
        for b in func.blocks() {
            self.side.push(index(pc));
            let insts = func.block(b).insts();
            pc += 1 + insts
                .iter()
                .filter(|&&id| !self.folds(aliases, func, id))
                .count()
                - usize::from(self.fuses(aliases, func, b));
        }
        self.ops.reserve(pc - self.ops.len());
        let consts = self.consts(func);
        let entry = if phi_in_entry {
            self.ops.push(Op {
                kind: OpKind::Fail(Fault::PhiInEntry),
                cost: 0,
                weight: 0,
                first: 0,
            });
            base - 1
        } else {
            self.side[starts + func.entry().index()] as usize
        };
        let discard = index(func.value_count());
        let mut ordinal = 0;
        for b in func.blocks() {
            // The folded run so far: instruction count and cycles.
            let (mut weight, mut cycles) = (0, 0u64);
            for &id in func.block(b).insts() {
                let inst = func.inst(id);
                weight += 1;
                cycles = cycles.saturating_add(cost.cost_of(&inst.kind));
                ordinal += 1;
                if self.folds(aliases, func, id) {
                    continue;
                }
                let dst = inst.result.map_or(discard, reg);
                let kind = self.decode_inst(aliases, &inst.kind, dst, id);
                self.ops.push(Op {
                    kind,
                    cost: cycles,
                    weight,
                    first: ordinal - weight,
                });
                (weight, cycles) = (0, 0);
            }
            let kind = match func.block(b).terminator_opt() {
                None => OpKind::Fail(Fault::MissingTerminator),
                Some(Terminator::Jump(to)) => OpKind::Jump {
                    edge: self.edge(func, aliases, starts, b, *to, 0),
                },
                Some(Terminator::Branch {
                    cond,
                    then_dst,
                    else_dst,
                }) => {
                    let then_edge = self.edge(func, aliases, starts, b, *then_dst, 0);
                    let else_edge = self.edge(func, aliases, starts, b, *else_dst, 1);
                    if self.fuses(aliases, func, b) {
                        // The compare's run and this branch's are one run.
                        let cmp = self.ops.pop().expect("a fused compare");
                        let OpKind::Compare { op, dst, lhs, rhs } = cmp.kind else {
                            unreachable!("a branch fuses only with a compare");
                        };
                        weight += cmp.weight;
                        cycles = cycles.saturating_add(cmp.cost);
                        OpKind::CmpBranch {
                            op,
                            dst,
                            lhs,
                            rhs,
                            then_edge,
                            else_edge,
                        }
                    } else {
                        OpKind::Branch {
                            cond: aliases.reg(&self.side, *cond),
                            then_edge,
                            else_edge,
                        }
                    }
                }
                Some(Terminator::Return(v)) => OpKind::Return {
                    value: v.map_or(NO_REG, |v| aliases.reg(&self.side, v)),
                },
            };
            self.ops.push(Op {
                kind,
                cost: cycles,
                weight,
                first: ordinal - weight,
            });
        }
        debug_assert_eq!(self.ops.len(), pc);
        if idle_edges {
            self.flag_spins(func, starts);
        }
        Decoded {
            entry,
            regs: func.value_count() + 1,
            params: func.param_count(),
            locals: func.local_count(),
            sites: func.check_site_count(),
            consts,
        }
    }

    /// Appends `func`'s constant table and returns where it lies: one
    /// `[register, low half, high half]` entry per constant, with
    /// [`BOOL`] set in the register of a `bool` one.
    fn consts(&mut self, func: &Function) -> (usize, usize) {
        let at = self.side.len();
        for b in func.blocks() {
            for &id in func.block(b).insts() {
                let inst = func.inst(id);
                let (r, val) = match (&inst.kind, inst.result) {
                    (InstKind::Const(val), Some(v)) => (reg(v), *val),
                    (InstKind::BoolConst(val), Some(v)) => (reg(v) | BOOL, i64::from(*val)),
                    _ => continue,
                };
                self.side.extend([r, val as u32, (val >> 32) as u32]);
            }
        }
        (at, self.side.len())
    }

    /// Appends `func`'s alias table.
    fn aliases(&mut self, func: &Function) -> Aliases {
        let aliases = Aliases::new(self.side.len(), func);
        self.side.extend((0..aliases.len).map(index));
        let table = &mut self.side[aliases.at..];
        for b in func.blocks() {
            for &id in func.block(b).insts() {
                let inst = func.inst(id);
                if let (InstKind::Pi { input: src, .. } | InstKind::Copy { arg: src }, Some(dst)) =
                    (&inst.kind, inst.result)
                {
                    if src.index() < table.len() {
                        table[dst.index()] = reg(*src);
                    }
                }
            }
        }
        for v in 0..table.len() {
            resolve(table, v);
        }
        aliases
    }

    /// Does instruction `id` get no op of its own: is it a φ, a constant,
    /// or a π or copy whose register is an alias?
    fn folds(&self, aliases: Aliases, func: &Function, id: InstId) -> bool {
        let inst = func.inst(id);
        match inst.kind {
            InstKind::Phi { .. } | InstKind::Const(_) | InstKind::BoolConst(_) => true,
            InstKind::Pi { .. } | InstKind::Copy { .. } => inst
                .result
                .is_some_and(|v| aliases.reg(&self.side, v) != reg(v)),
            _ => false,
        }
    }

    /// Does block `b` end in a `branch` on the result of a `compare` that
    /// is the block's last unfolded instruction, so that the two decode to
    /// one [`OpKind::CmpBranch`]?
    fn fuses(&self, aliases: Aliases, func: &Function, b: Block) -> bool {
        let block = func.block(b);
        let Some(Terminator::Branch { cond, .. }) = block.terminator_opt() else {
            return false;
        };
        let last = block
            .insts()
            .iter()
            .rev()
            .find(|&&id| !self.folds(aliases, func, id));
        last.is_some_and(|&id| {
            let inst = func.inst(id);
            matches!(inst.kind, InstKind::Compare { .. })
                && inst
                    .result
                    .is_some_and(|v| aliases.reg(&self.side, *cond) == reg(v))
        })
    }

    fn decode_inst(&mut self, aliases: Aliases, kind: &InstKind, dst: Reg, id: InstId) -> OpKind {
        let reg = |v: &Value| aliases.reg(&self.side, *v);
        match kind {
            InstKind::Phi { .. } | InstKind::Const(_) | InstKind::BoolConst(_) => {
                unreachable!("φs and constants fold")
            }
            InstKind::Unary { op, arg } => match op {
                UnOp::Neg => OpKind::Neg { dst, arg: reg(arg) },
                UnOp::Not => OpKind::Not { dst, arg: reg(arg) },
            },
            InstKind::Binary { op, lhs, rhs } => OpKind::Binary {
                op: *op,
                dst,
                lhs: reg(lhs),
                rhs: reg(rhs),
            },
            InstKind::Compare { op, lhs, rhs } => OpKind::Compare {
                op: *op,
                dst,
                lhs: reg(lhs),
                rhs: reg(rhs),
            },
            InstKind::NewArray { len, .. } => OpKind::NewArray {
                dst,
                len: reg(len),
                inst: id,
            },
            InstKind::ArrayLen { array } => OpKind::ArrayLen {
                dst,
                array: reg(array),
            },
            InstKind::Load { array, index } => OpKind::Load {
                dst,
                array: reg(array),
                index: reg(index),
            },
            InstKind::Store {
                array,
                index,
                value,
            } => OpKind::Store {
                array: reg(array),
                index: reg(index),
                value: reg(value),
            },
            InstKind::BoundsCheck {
                site,
                array,
                index,
                kind,
            } => OpKind::BoundsCheck {
                site: *site,
                array: reg(array),
                index: reg(index),
                kind: *kind,
            },
            InstKind::SpecCheck {
                site,
                array,
                index,
                kind,
            } => OpKind::SpecCheck {
                site: *site,
                array: reg(array),
                index: reg(index),
                kind: *kind,
            },
            InstKind::TrapIfFlagged {
                site,
                array,
                index,
                kind,
            } => OpKind::TrapIfFlagged {
                site: *site,
                array: reg(array),
                index: reg(index),
                kind: *kind,
            },
            InstKind::Pi { input: src, .. } | InstKind::Copy { arg: src } => {
                OpKind::Copy { dst, src: reg(src) }
            }
            InstKind::Call { func, args } => {
                let at = index(self.side.len());
                self.side.push(index(args.len()));
                for &a in args {
                    let r = aliases.reg(&self.side, a);
                    self.side.push(r);
                }
                OpKind::Call {
                    dst,
                    callee: index(func.index()),
                    args: at,
                }
            }
            InstKind::Output { arg } => OpKind::Output { arg: reg(arg) },
            InstKind::GetLocal { local } => OpKind::GetLocal {
                dst,
                local: index(local.index()),
            },
            InstKind::SetLocal { local, value } => OpKind::SetLocal {
                local: index(local.index()),
                value: reg(value),
            },
        }
    }

    /// Sets the `head` of every edge record on a cycle of instruction-free
    /// blocks to [`SPIN`]. No instruction and no φ move runs on such a
    /// cycle, so the step budget never shrinks there, and a branch on it
    /// tests the same register value every time round. Uses two entries
    /// per block past the end of the side table as scratch.
    fn flag_spins(&mut self, func: &Function, starts: usize) {
        let n = func.block_count();
        let scratch = self.side.len();
        self.side.resize(scratch + 2 * n, 0);
        let mut query = 0;
        for b in func.blocks().filter(|&b| idle(func, b)) {
            // An instruction-free block's one op is its terminator.
            let edges = match self.ops[self.side[starts + b.index()] as usize].kind {
                OpKind::Jump { edge } => [Some(edge), None],
                OpKind::Branch {
                    then_edge,
                    else_edge,
                    ..
                } => [Some(then_edge), Some(else_edge)],
                _ => [None, None],
            };
            for at in edges.into_iter().flatten().map(|e| e as usize) {
                let to = self.side[at + 1];
                if !idle(func, Block::new(to as usize)) {
                    continue;
                }
                // The edge is on a cycle if its target reaches `b` through
                // instruction-free blocks: a depth-first search whose
                // marks are `query` and whose stack holds each block once.
                query += 1;
                let (seen, stack) = self.side[scratch..].split_at_mut(n);
                (seen[to as usize], stack[0]) = (query, to);
                let mut top = 1;
                let mut cycle = false;
                while top > 0 {
                    top -= 1;
                    let x = Block::new(stack[top] as usize);
                    if x == b {
                        cycle = true;
                        break;
                    }
                    for y in successors(func, x).into_iter().flatten() {
                        if idle(func, y) && seen[y.index()] != query {
                            (seen[y.index()], stack[top]) = (query, index(y.index()));
                            top += 1;
                        }
                    }
                }
                if cycle {
                    debug_assert_eq!(self.side[at + 3], 0, "an instruction-free target has no φ");
                    self.side[at + 3] = SPIN;
                }
            }
        }
        self.side.truncate(scratch);
    }

    /// Appends the record of edge `from → to`, `from`'s successor `slot`,
    /// and returns its side-table index.
    fn edge(
        &mut self,
        func: &Function,
        aliases: Aliases,
        starts: usize,
        from: Block,
        to: Block,
        slot: usize,
    ) -> u32 {
        let at = self.side.len();
        let known = to.index() < func.block_count();
        let pc = if known {
            self.side[starts + to.index()]
        } else {
            u32::MAX
        };
        self.side
            .extend([pc, index(to.index()), index(2 * from.index() + slot), 0]);
        if !known {
            self.side[at + 3] = FAULTY;
            self.side.push(index(aliases.at));
            return index(at);
        }
        let mut head = 0;
        for &id in func.block(to).insts() {
            let inst = func.inst(id);
            let InstKind::Phi { args } = &inst.kind else {
                break; // φs form a prefix
            };
            let arg = args.iter().find(|(p, _)| *p == from);
            let (Some(dst), Some(&(_, src))) = (inst.result, arg) else {
                head = FAULTY;
                break;
            };
            let src = aliases.reg(&self.side, src);
            if self.side[at + 4..].chunks_exact(2).any(|m| m[0] == src) {
                head |= STAGED;
            }
            self.side.extend([reg(dst), src]);
            head += 1;
        }
        if head == FAULTY {
            self.side.truncate(at + 4);
            self.side.push(index(aliases.at));
        }
        self.side[at + 3] = head;
        index(at)
    }
}

/// Is `b` a block of `func` with no instruction, not even a φ?
fn idle(func: &Function, b: Block) -> bool {
    b.index() < func.block_count() && func.block(b).insts().is_empty()
}

/// The successors of `b`, by successor slot.
fn successors(func: &Function, b: Block) -> [Option<Block>; 2] {
    match func.block(b).terminator_opt() {
        Some(Terminator::Jump(to)) => [Some(*to), None],
        Some(Terminator::Branch {
            then_dst, else_dst, ..
        }) => [Some(*then_dst), Some(*else_dst)],
        _ => [None, None],
    }
}
