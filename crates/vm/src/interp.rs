//! The interpreter.
//!
//! Executes every IR form — locals form, SSA, e-SSA, and ABCD-optimized
//! code (including the speculative `spec_check`/`trap_if_flagged` pair) —
//! which is what makes each compiler pass differentially testable.
//!
//! It runs on the decoded form of the `decode` module, not on the
//! `Function` arena: the first time a function is entered it is decoded,
//! once per `Vm`, into ops with resolved registers and precomputed cycle
//! costs. Only instructions that compute something are dispatched: φs
//! become parallel move lists on the CFG edges, which a jump or branch
//! runs as it transfers, πs and copies become register aliases, and
//! constants are written into each new frame's registers when it opens. A
//! compare and the branch on it are one op. Each op charges its *weight*,
//! its own instructions plus the folded ones before them, so
//! [`ExecStats`], the step budget and the profile read as if every
//! instruction ran on its own; when the budget runs out inside a folded
//! run, a cold path charges the run one instruction at a time and traps
//! where the budget does. A loop of blocks that hold only their
//! terminators charges nothing, so it traps after more consecutive
//! transfers around it than its function has blocks instead. Decoding is
//! lazy because a caller may build a fresh `Vm` per call over a large
//! module and enter only a few of its functions.
//!
//! Execution allocates nothing per instruction, block or call; what
//! allocates is decoding, a few times per entered function. Calls run on
//! an explicit frame stack whose frames own windows of one reused
//! register, local and flag store, so recursion depth is bounded by
//! [`VmOptions::call_depth_limit`] and not by the host thread's stack.
//! Profile events bump dense per-function counters, one per call entry,
//! CFG edge and check executed, that are folded into the hashed
//! [`Profile`] once, when the top-level call returns or traps; block
//! counts are derived then, from entries and in-edges.

use crate::cost::CostModel;
use crate::decode::{
    constants, Aliases, Code, Decoded, Fault, OpKind, Reg, FAULTY, NO_REG, SPIN, STAGED,
};
use crate::profile::{Counters, Profile, Slots};
use crate::trap::{Trap, TrapKind};
use crate::value::{Heap, RtVal, MAX_ARRAY_LEN};
use abcd_ir::{Block, CheckKind, FuncId, Function, InstKind, Module, Value};

/// Interpreter configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmOptions {
    /// Abort with [`TrapKind::StepLimitExceeded`] after this many
    /// instructions (guards generated test programs against divergence).
    /// A loop that runs no instruction at all, a cycle of blocks that
    /// hold only their terminators, spends no budget; it traps the same
    /// way, whatever the limit, once it has made more consecutive
    /// transfers along the cycle than its function has blocks, and
    /// charges nothing.
    pub step_limit: u64,
    /// Maximum call depth: the called function runs at depth 0, and a call
    /// that would run deeper than this traps with
    /// [`TrapKind::CallDepthExceeded`].
    pub call_depth_limit: usize,
    /// The cycle cost model.
    pub cost: CostModel,
    /// Record edge/block/site frequencies into the [`Profile`].
    pub collect_profile: bool,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            step_limit: 500_000_000,
            call_depth_limit: 10_000,
            cost: CostModel::default(),
            collect_profile: true,
        }
    }
}

/// Aggregate dynamic execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed (terminators excluded).
    pub insts: u64,
    /// Model cycles (see [`CostModel`]).
    pub cycles: u64,
    /// `bounds_check` executions by kind `[lower, upper, both]`.
    pub checks: [u64; 3],
    /// `spec_check` executions by kind `[lower, upper, both]`.
    pub spec_checks: [u64; 3],
    /// `trap_if_flagged` executions.
    pub trap_tests: u64,
}

impl ExecStats {
    /// Dynamic *upper*-bound check executions, the unit of the paper's
    /// Figure 6 (compensating `spec_check`s count, residual flag tests do
    /// not — the expensive compare is what was hoisted).
    pub fn dynamic_upper_checks(&self) -> u64 {
        self.checks[1] + self.spec_checks[1]
    }

    /// Dynamic lower-bound check executions (including compensating ones).
    pub fn dynamic_lower_checks(&self) -> u64 {
        self.checks[0] + self.spec_checks[0]
    }

    /// All dynamic check executions of any kind.
    pub fn dynamic_checks_total(&self) -> u64 {
        self.checks.iter().sum::<u64>() + self.spec_checks.iter().sum::<u64>()
    }
}

fn kind_index(kind: CheckKind) -> usize {
    match kind {
        CheckKind::Lower => 0,
        CheckKind::Upper => 1,
        CheckKind::Both => 2,
    }
}

/// An interpreter instance: module + heap + accumulated statistics.
///
/// # Example
///
/// ```
/// use abcd_ir::{FunctionBuilder, Module, Type, BinOp};
/// use abcd_vm::{Vm, RtVal};
///
/// let mut m = Module::new();
/// let mut b = FunctionBuilder::new("double", vec![Type::Int], Some(Type::Int));
/// let two = b.iconst(2);
/// let r = b.binary(BinOp::Mul, b.param(0), two);
/// b.ret(Some(r));
/// m.add_function(b.finish()?);
///
/// let mut vm = Vm::new(&m);
/// let out = vm.call_by_name("double", &[RtVal::Int(21)])?;
/// assert_eq!(out, Some(RtVal::Int(42)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Vm<'m> {
    module: &'m Module,
    options: VmOptions,
    heap: Heap,
    stats: ExecStats,
    profile: Profile,
    counters: Counters,
    code: Code,
    stack: Stack,
    output: Vec<i64>,
    steps_left: u64,
}

/// A function activation. The active frame lives in the interpreter loop;
/// suspended callers wait on [`Stack::frames`].
#[derive(Clone, Copy, Debug)]
struct Frame {
    func: FuncId,
    /// The next op to execute.
    pc: usize,
    /// Where this frame's windows start in the register, local and flag
    /// stores.
    regs: usize,
    locals: usize,
    flags: usize,
    /// For a suspended caller: the register that receives the callee's
    /// result.
    dst: Reg,
}

/// The call stack: suspended frames and one register, local and flag
/// store that every frame owns a window of. All of it is reused from call
/// to call, so execution itself allocates nothing once the stores have
/// reached their high-water size.
#[derive(Debug, Default)]
struct Stack {
    frames: Vec<Frame>,
    regs: Vec<Option<RtVal>>,
    locals: Vec<Option<RtVal>>,
    flags: Vec<bool>,
}

impl Stack {
    fn clear(&mut self) {
        self.frames.clear();
        self.regs.clear();
        self.locals.clear();
        self.flags.clear();
    }

    /// Opens a frame for `id`, decoded as `func` with side table `side`,
    /// whose arguments are the registers from `regs` to the end of the
    /// store, at the depth of the suspended frames. The frame's registers
    /// start out holding the function's constants.
    fn open(
        &mut self,
        func: Decoded,
        side: &[u32],
        depth_limit: usize,
        id: FuncId,
        regs: usize,
    ) -> Result<Frame, Trap> {
        if self.frames.len() > depth_limit {
            return Err(Trap {
                kind: TrapKind::CallDepthExceeded,
                func: id,
            });
        }
        assert_eq!(self.regs.len() - regs, func.params, "call arity mismatch");
        let frame = Frame {
            func: id,
            pc: func.entry,
            regs,
            locals: self.locals.len(),
            flags: self.flags.len(),
            dst: 0,
        };
        self.regs.resize(regs + func.regs, None);
        for (r, v) in constants(side, func.consts) {
            self.regs[regs + r as usize] = Some(v);
        }
        self.locals.resize(frame.locals + func.locals, None);
        self.flags.resize(frame.flags + func.sites, false);
        Ok(frame)
    }

    /// Releases the windows of `frame`, the innermost one.
    fn close(&mut self, frame: &Frame) {
        self.regs.truncate(frame.regs);
        self.locals.truncate(frame.locals);
        self.flags.truncate(frame.flags);
    }

    /// Runs the moves of the edge record at `side[at..]` in the window at
    /// `base`, as one parallel assignment.
    fn moves(&mut self, side: &[u32], at: usize, base: usize, func: &Function) {
        let head = side[at + 3];
        if head == FAULTY {
            let from = Block::new(side[at + 2] as usize / 2);
            let to = Block::new(side[at + 1] as usize);
            let reg = |v| Aliases::new(side[at + 4] as usize, func).reg(side, v);
            phi_fault(func, &self.regs[base..], reg, from, to);
        }
        let n = (head & !STAGED) as usize;
        let moves = side[at + 4..at + 4 + 2 * n].chunks_exact(2);
        let regs = &mut self.regs;
        if head & STAGED == 0 {
            for m in moves {
                let v = regs[base + m[1] as usize].expect("phi argument unset");
                regs[base + m[0] as usize] = Some(v);
            }
        } else {
            // Read every source before writing any destination: the
            // staging registers sit past the end of the innermost window.
            let top = regs.len();
            for m in moves.clone() {
                let v = regs[base + m[1] as usize].expect("phi argument unset");
                regs.push(Some(v));
            }
            for (k, m) in moves.enumerate() {
                regs[base + m[0] as usize] = regs[top + k];
            }
            regs.truncate(top);
        }
    }
}

/// Panics as evaluating the φs of `to` on entry from `from` does, reading
/// each argument from the register `reg` names for it: the edge decoded
/// as [`FAULTY`] because one of them has no argument for it.
#[cold]
fn phi_fault(
    func: &Function,
    regs: &[Option<RtVal>],
    reg: impl Fn(Value) -> Reg,
    from: Block,
    to: Block,
) -> ! {
    for &id in func.block(to).insts() {
        let inst = func.inst(id);
        let InstKind::Phi { args } = &inst.kind else {
            break;
        };
        let (_, v) = args
            .iter()
            .find(|(p, _)| *p == from)
            .unwrap_or_else(|| panic!("phi {id} lacks arg for pred {from}"));
        regs[reg(*v) as usize].expect("phi argument unset");
        inst.result.expect("phi result");
    }
    unreachable!("edge {from} -> {to} decoded as faulty, yet every phi has an argument")
}

impl<'m> Vm<'m> {
    /// Creates an interpreter with default options.
    pub fn new(module: &'m Module) -> Self {
        Vm::with_options(module, VmOptions::default())
    }

    /// Creates an interpreter with explicit options.
    pub fn with_options(module: &'m Module, options: VmOptions) -> Self {
        Vm {
            module,
            options,
            heap: Heap::default(),
            stats: ExecStats::default(),
            profile: Profile::new(),
            counters: Counters::default(),
            code: Code::default(),
            stack: Stack::default(),
            output: Vec::new(),
            steps_left: options.step_limit,
        }
    }

    /// Allocates an integer array initialized from `data` and returns a
    /// reference usable as a call argument.
    pub fn alloc_int_array(&mut self, data: &[i64]) -> RtVal {
        let r = self.heap.alloc(&abcd_ir::Type::Int, data.len());
        for (i, v) in data.iter().enumerate() {
            self.heap.get_mut(r).data[i] = RtVal::Int(*v);
        }
        RtVal::Ref(r)
    }

    /// Allocates an `int[][]` whose rows are the given (array-reference)
    /// values — a convenience for calling functions that take nested
    /// arrays.
    ///
    /// # Panics
    ///
    /// Panics if any element is not an array reference.
    pub fn alloc_ref_array(&mut self, rows: &[RtVal]) -> RtVal {
        let r = self
            .heap
            .alloc(&abcd_ir::Type::array_of(abcd_ir::Type::Int), rows.len());
        for (i, v) in rows.iter().enumerate() {
            let _ = v.as_ref(); // validate
            self.heap.get_mut(r).data[i] = *v;
        }
        RtVal::Ref(r)
    }

    /// Reads back an integer array (for assertions in tests/examples).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an array of integers.
    pub fn read_int_array(&self, v: RtVal) -> Vec<i64> {
        self.heap
            .get(v.as_ref())
            .data
            .iter()
            .map(|e| e.as_int())
            .collect()
    }

    /// Calls a function by name.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if execution traps.
    ///
    /// # Panics
    ///
    /// Panics if no function has that name.
    pub fn call_by_name(&mut self, name: &str, args: &[RtVal]) -> Result<Option<RtVal>, Trap> {
        let id = self
            .module
            .function_by_name(name)
            .unwrap_or_else(|| panic!("no function named {name}"));
        self.call(id, args)
    }

    /// Calls a function by id. The profile gains this call's counts when
    /// it returns, whether with a value or a trap.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if execution traps.
    pub fn call(&mut self, func: FuncId, args: &[RtVal]) -> Result<Option<RtVal>, Trap> {
        let out = self.run(func, args);
        if self.options.collect_profile {
            self.counters.fold_into(self.module, &mut self.profile);
        }
        out
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The profile accumulated so far.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Consumes the interpreter, returning the profile.
    pub fn into_profile(self) -> Profile {
        self.profile
    }

    /// Values emitted by `output` instructions, in order.
    pub fn output(&self) -> &[i64] {
        &self.output
    }

    /// Runs `entry` to completion on the explicit frame stack: a call
    /// suspends the caller's frame and a return resumes it, so the host
    /// stack stays flat however deep the program recurses.
    fn run(&mut self, entry: FuncId, args: &[RtVal]) -> Result<Option<RtVal>, Trap> {
        let Vm {
            module,
            options,
            heap,
            stats,
            counters,
            code,
            stack,
            output,
            steps_left,
            ..
        } = self;
        let module: &Module = module;
        let profiling = options.collect_profile;
        let trap = |kind: TrapKind, func: FuncId| Trap { kind, func };

        // A panic in an earlier call may have left frames behind.
        stack.clear();
        stack.regs.extend(args.iter().map(|&a| Some(a)));
        let decoded = code.enter(module, &options.cost, entry);
        let mut fr = stack.open(decoded, &code.side, options.call_depth_limit, entry, 0)?;
        let mut func: &Function = module.function(entry);
        let mut slots = Slots::default();
        if profiling {
            slots = counters.slots(module, entry);
            counters.enter(slots, func.entry());
        }
        // Consecutive transfers along `SPIN` edges.
        let mut spins = 0;

        macro_rules! get {
            ($r:expr, $what:literal) => {
                stack.regs[fr.regs + $r as usize].expect($what)
            };
            ($r:expr) => {
                get!($r, "use of unset value")
            };
        }
        macro_rules! set {
            ($r:expr, $v:expr) => {{
                let v = $v;
                stack.regs[fr.regs + $r as usize] = Some(v);
            }};
        }
        macro_rules! check_trap {
            ($site:expr, $index:expr, $len:expr) => {
                Err(trap(
                    TrapKind::BoundsCheckFailed {
                        site: $site,
                        index: $index,
                        len: $len,
                    },
                    fr.func,
                ))
            };
        }
        // Takes the edge whose record starts at `side[$edge]`. Along a
        // cycle of instruction-free blocks nothing changes, so more
        // consecutive `SPIN` transfers than the function has blocks
        // repeat a block in the same state: the program never halts.
        macro_rules! transfer {
            ($edge:expr) => {{
                let at = $edge as usize;
                let head = code.side[at + 3];
                if head == SPIN {
                    spins += 1;
                    if spins > func.block_count() {
                        return Err(trap(TrapKind::StepLimitExceeded, fr.func));
                    }
                } else {
                    spins = 0;
                }
                if profiling {
                    counters.edge(slots, code.side[at + 2]);
                }
                if head & !SPIN != 0 {
                    stack.moves(&code.side, at, fr.regs, func);
                }
                fr.pc = code.side[at] as usize;
            }};
        }

        loop {
            let op = code.ops[fr.pc];
            fr.pc += 1;
            // Charges the instructions the op stands for, its own and the
            // folded ones before it; a budget too small for all of them
            // replays them one at a time.
            macro_rules! step {
                () => {
                    let weight = u64::from(op.weight);
                    if *steps_left < weight {
                        out_of_steps(func, &options.cost, op.first, steps_left, stats);
                        return Err(trap(TrapKind::StepLimitExceeded, fr.func));
                    }
                    *steps_left -= weight;
                    stats.insts += weight;
                    stats.cycles = stats.cycles.saturating_add(op.cost);
                };
            }
            match op.kind {
                OpKind::Neg { dst, arg } => {
                    step!();
                    set!(dst, RtVal::Int(get!(arg).as_int().wrapping_neg()));
                }
                OpKind::Not { dst, arg } => {
                    step!();
                    set!(dst, RtVal::Bool(!get!(arg).as_bool()));
                }
                OpKind::Binary { op, dst, lhs, rhs } => {
                    step!();
                    let a = get!(lhs).as_int();
                    let b = get!(rhs).as_int();
                    use abcd_ir::BinOp::*;
                    let v = match op {
                        Add => a.wrapping_add(b),
                        Sub => a.wrapping_sub(b),
                        Mul => a.wrapping_mul(b),
                        Div => {
                            if b == 0 {
                                return Err(trap(TrapKind::DivisionByZero, fr.func));
                            }
                            a.wrapping_div(b)
                        }
                        Rem => {
                            if b == 0 {
                                return Err(trap(TrapKind::DivisionByZero, fr.func));
                            }
                            a.wrapping_rem(b)
                        }
                        And => a & b,
                        Or => a | b,
                        Xor => a ^ b,
                        Shl => a.wrapping_shl(b as u32 & 63),
                        Shr => a.wrapping_shr(b as u32 & 63),
                    };
                    set!(dst, RtVal::Int(v));
                }
                OpKind::Compare { op, dst, lhs, rhs } => {
                    step!();
                    set!(
                        dst,
                        RtVal::Bool(op.eval(get!(lhs).as_int(), get!(rhs).as_int()))
                    );
                }
                OpKind::NewArray { dst, len, inst } => {
                    step!();
                    let n = get!(len).as_int();
                    if n < 0 {
                        return Err(trap(TrapKind::NegativeArrayLength(n), fr.func));
                    }
                    if n > MAX_ARRAY_LEN {
                        return Err(trap(TrapKind::ArrayTooLarge(n), fr.func));
                    }
                    stats.cycles = stats
                        .cycles
                        .saturating_add(options.cost.alloc_per_elem.saturating_mul(n as u64));
                    let InstKind::NewArray { elem, .. } = &func.inst(inst).kind else {
                        unreachable!("new_array op decoded from {inst}");
                    };
                    set!(dst, RtVal::Ref(heap.alloc(elem, n as usize)));
                }
                OpKind::ArrayLen { dst, array } => {
                    step!();
                    set!(dst, RtVal::Int(heap.len_of(get!(array).as_ref()) as i64));
                }
                OpKind::Load { dst, array, index } => {
                    step!();
                    let r = get!(array).as_ref();
                    let i = get!(index).as_int();
                    let len = heap.len_of(r) as i64;
                    if i < 0 || i >= len {
                        return Err(trap(
                            TrapKind::UncheckedAccessOutOfBounds { index: i, len },
                            fr.func,
                        ));
                    }
                    set!(dst, heap.get(r).data[i as usize]);
                }
                OpKind::Store {
                    array,
                    index,
                    value,
                } => {
                    step!();
                    let r = get!(array).as_ref();
                    let i = get!(index).as_int();
                    let len = heap.len_of(r) as i64;
                    if i < 0 || i >= len {
                        return Err(trap(
                            TrapKind::UncheckedAccessOutOfBounds { index: i, len },
                            fr.func,
                        ));
                    }
                    heap.get_mut(r).data[i as usize] = get!(value);
                }
                OpKind::BoundsCheck {
                    site,
                    array,
                    index,
                    kind,
                } => {
                    step!();
                    let i = get!(index).as_int();
                    let len = heap.len_of(get!(array).as_ref()) as i64;
                    stats.checks[kind_index(kind)] += 1;
                    if profiling {
                        counters.site(slots, site);
                    }
                    if violates(kind, i, len) {
                        return check_trap!(site, i, len);
                    }
                }
                OpKind::SpecCheck {
                    site,
                    array,
                    index,
                    kind,
                } => {
                    step!();
                    let i = get!(index).as_int();
                    let len = heap.len_of(get!(array).as_ref()) as i64;
                    stats.spec_checks[kind_index(kind)] += 1;
                    if violates(kind, i, len) {
                        stack.flags[fr.flags + site.index()] = true;
                    }
                }
                OpKind::TrapIfFlagged {
                    site,
                    array,
                    index,
                    kind,
                } => {
                    step!();
                    stats.trap_tests += 1;
                    if stack.flags[fr.flags + site.index()] {
                        // Re-validate at the original exception point
                        // (the speculative failure may be spurious).
                        let i = get!(index).as_int();
                        let len = heap.len_of(get!(array).as_ref()) as i64;
                        if violates(kind, i, len) {
                            return check_trap!(site, i, len);
                        }
                    }
                }
                OpKind::Copy { dst, src } => {
                    step!();
                    set!(dst, get!(src));
                }
                OpKind::Call { dst, callee, args } => {
                    step!();
                    // The arguments become the callee's parameter
                    // registers, which start where the store ends.
                    let base = stack.regs.len();
                    let at = args as usize + 1;
                    for &a in &code.side[at..at + code.side[at - 1] as usize] {
                        let v = get!(a);
                        stack.regs.push(Some(v));
                    }
                    stack.frames.push(Frame { dst, ..fr });
                    let callee = FuncId::new(callee as usize);
                    let decoded = code.enter(module, &options.cost, callee);
                    fr = stack.open(decoded, &code.side, options.call_depth_limit, callee, base)?;
                    func = module.function(callee);
                    if profiling {
                        slots = counters.slots(module, callee);
                        counters.enter(slots, func.entry());
                    }
                }
                OpKind::Output { arg } => {
                    step!();
                    output.push(get!(arg).as_int());
                }
                OpKind::GetLocal { dst, local } => {
                    step!();
                    set!(
                        dst,
                        stack.locals[fr.locals + local as usize]
                            .expect("read of uninitialized local")
                    );
                }
                OpKind::SetLocal { local, value } => {
                    step!();
                    stack.locals[fr.locals + local as usize] = Some(get!(value));
                }
                OpKind::Jump { edge } => {
                    step!();
                    transfer!(edge)
                }
                OpKind::Branch {
                    cond,
                    then_edge,
                    else_edge,
                } => {
                    step!();
                    if get!(cond, "branch cond unset").as_bool() {
                        transfer!(then_edge)
                    } else {
                        transfer!(else_edge)
                    }
                }
                OpKind::CmpBranch {
                    op,
                    dst,
                    lhs,
                    rhs,
                    then_edge,
                    else_edge,
                } => {
                    step!();
                    let taken = op.eval(get!(lhs).as_int(), get!(rhs).as_int());
                    set!(dst, RtVal::Bool(taken));
                    if taken {
                        transfer!(then_edge)
                    } else {
                        transfer!(else_edge)
                    }
                }
                OpKind::Return { value } => {
                    step!();
                    let out = (value != NO_REG).then(|| get!(value, "return value unset"));
                    stack.close(&fr);
                    let Some(caller) = stack.frames.pop() else {
                        return Ok(out);
                    };
                    fr = caller;
                    func = module.function(fr.func);
                    if profiling {
                        slots = counters.slots(module, fr.func);
                    }
                    if let Some(v) = out {
                        set!(fr.dst, v);
                    }
                }
                OpKind::Fail(Fault::PhiInEntry) => panic!("phi in entry block"),
                OpKind::Fail(Fault::MissingTerminator) => {
                    step!();
                    panic!("block missing terminator")
                }
            }
        }
    }
}

/// Charges the instructions of `func` from ordinal `first` on (counted in
/// block order) one at a time, as far as the step budget `left` pays for
/// them plus the one that exceeds it, and empties the budget.
#[cold]
fn out_of_steps(
    func: &Function,
    cost: &CostModel,
    first: u32,
    left: &mut u64,
    stats: &mut ExecStats,
) {
    let mut at = first as usize;
    for b in func.blocks() {
        let insts = func.block(b).insts();
        if at < insts.len() {
            for &id in &insts[at..=at + *left as usize] {
                stats.insts += 1;
                stats.cycles = stats
                    .cycles
                    .saturating_add(cost.cost_of(&func.inst(id).kind));
            }
            *left = 0;
            return;
        }
        at -= insts.len();
    }
    unreachable!("a folded run lies in its function")
}

/// Does `index` violate `kind` for an array of length `len`?
fn violates(kind: CheckKind, index: i64, len: i64) -> bool {
    match kind {
        CheckKind::Lower => index < 0,
        CheckKind::Upper => index >= len,
        CheckKind::Both => (index as u64) >= (len as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::Op;
    use abcd_ir::{BinOp, CheckSite, CmpOp, FunctionBuilder, PiGuard, Terminator, Type};

    /// sum(a) with full checks, in locals form.
    fn checked_sum_module() -> Module {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("sum", vec![Type::array_of(Type::Int)], Some(Type::Int));
        let a = b.param(0);
        let acc = b.new_local(Type::Int);
        let i = b.new_local(Type::Int);
        let zero = b.iconst(0);
        b.set_local(acc, zero);
        b.set_local(i, zero);
        let (head, body, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.jump(head);
        b.switch_to_block(head);
        let iv = b.get_local(i);
        let len = b.array_len(a);
        let c = b.compare(CmpOp::Lt, iv, len);
        b.branch(c, body, exit);
        b.switch_to_block(body);
        let iv2 = b.get_local(i);
        b.bounds_check(a, iv2, CheckKind::Lower);
        b.bounds_check(a, iv2, CheckKind::Upper);
        let x = b.load(a, iv2);
        let av = b.get_local(acc);
        let s = b.binary(BinOp::Add, av, x);
        b.set_local(acc, s);
        let one = b.iconst(1);
        let inc = b.binary(BinOp::Add, iv2, one);
        b.set_local(i, inc);
        b.jump(head);
        b.switch_to_block(exit);
        let out = b.get_local(acc);
        b.ret(Some(out));
        m.add_function(b.finish().unwrap());
        m
    }

    #[test]
    fn checked_sum_runs_in_locals_form() {
        let m = checked_sum_module();
        let mut vm = Vm::new(&m);
        let arr = vm.alloc_int_array(&[1, 2, 3, 4]);
        let r = vm.call_by_name("sum", &[arr]).unwrap();
        assert_eq!(r, Some(RtVal::Int(10)));
        assert_eq!(vm.stats().checks, [4, 4, 0]);
        assert_eq!(vm.stats().dynamic_upper_checks(), 4);
    }

    #[test]
    fn same_result_after_ssa_and_essa() {
        let m = checked_sum_module();
        let mut m2 = m.clone();
        abcd_ssa::module_to_essa(&mut m2).unwrap();

        let mut vm1 = Vm::new(&m);
        let a1 = vm1.alloc_int_array(&[5, -3, 7]);
        let r1 = vm1.call_by_name("sum", &[a1]).unwrap();

        let mut vm2 = Vm::new(&m2);
        let a2 = vm2.alloc_int_array(&[5, -3, 7]);
        let r2 = vm2.call_by_name("sum", &[a2]).unwrap();

        assert_eq!(r1, r2);
        assert_eq!(vm1.stats().checks, vm2.stats().checks);
    }

    #[test]
    fn failing_check_traps_with_site() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", vec![Type::array_of(Type::Int)], None);
        let a = b.param(0);
        let i = b.iconst(9);
        b.bounds_check(a, i, CheckKind::Upper);
        let _ = b.load(a, i);
        b.ret(None);
        m.add_function(b.finish().unwrap());
        let mut vm = Vm::new(&m);
        let arr = vm.alloc_int_array(&[1, 2]);
        let err = vm.call_by_name("f", &[arr]).unwrap_err();
        assert!(matches!(
            err.kind,
            TrapKind::BoundsCheckFailed {
                index: 9,
                len: 2,
                ..
            }
        ));
    }

    /// `f(a, i)`: a `spec_check` at site 0 that always fails (index 100),
    /// its residual `trap_if_flagged` on `i`, then `a[i]`. The builder has
    /// no spec helpers (only the optimizer emits them), so the pair is
    /// appended through the low-level function API.
    fn spec_module() -> Module {
        let mut b = FunctionBuilder::new(
            "f",
            vec![Type::array_of(Type::Int), Type::Int],
            Some(Type::Int),
        );
        let a = b.param(0);
        let orig_index = b.param(1);
        let site = CheckSite::new(0);
        let hoisted = b.iconst(100); // always-failing compensating index
        let spec = InstKind::SpecCheck {
            site,
            array: a,
            index: hoisted,
            kind: CheckKind::Upper,
        };
        let residual = InstKind::TrapIfFlagged {
            site,
            array: a,
            index: orig_index,
            kind: CheckKind::Upper,
        };
        let mut raw = b.finish_unverified();
        raw.new_check_site();
        let entry = raw.entry();
        let s = raw.create_inst(spec, None);
        raw.append_inst(entry, s);
        let t = raw.create_inst(residual, None);
        raw.append_inst(entry, t);
        let l = raw.create_inst(
            InstKind::Load {
                array: a,
                index: orig_index,
            },
            Some(Type::Int),
        );
        raw.append_inst(entry, l);
        let lv = raw.inst(l).result.unwrap();
        raw.set_terminator(entry, Terminator::Return(Some(lv)));
        let mut m = Module::new();
        m.add_function(raw);
        m
    }

    #[test]
    fn spec_check_defers_to_residual_trap() {
        // spec_check (fails, sets flag) … trap_if_flagged re-validates:
        // with an in-bounds index at the original point, execution continues;
        // with an out-of-bounds one it traps there.
        let m = spec_module();

        // Spurious speculative failure: original index in bounds → no trap.
        let mut vm = Vm::new(&m);
        let arr = vm.alloc_int_array(&[7, 8]);
        let r = vm.call_by_name("f", &[arr, RtVal::Int(1)]).unwrap();
        assert_eq!(r, Some(RtVal::Int(8)));
        assert_eq!(vm.stats().spec_checks, [0, 1, 0]);
        assert_eq!(vm.stats().trap_tests, 1);

        // Genuine failure: original index out of bounds → trap at residual.
        let mut vm = Vm::new(&m);
        let arr = vm.alloc_int_array(&[7, 8]);
        let err = vm.call_by_name("f", &[arr, RtVal::Int(5)]).unwrap_err();
        assert!(matches!(
            err.kind,
            TrapKind::BoundsCheckFailed { index: 5, .. }
        ));
    }

    #[test]
    fn spec_check_is_not_a_profiled_site() {
        // Profile site counts are `bounds_check` executions only.
        let m = spec_module();
        let mut vm = Vm::new(&m);
        let arr = vm.alloc_int_array(&[7, 8]);
        vm.call_by_name("f", &[arr, RtVal::Int(1)]).unwrap();
        assert_eq!(vm.stats().spec_checks, [0, 1, 0]);
        let f = m.function_by_name("f").unwrap();
        assert_eq!(vm.profile().site_count(f, CheckSite::new(0)), 0);
        assert_eq!(vm.profile().total_site_count(), 0);
        assert_eq!(vm.profile().block_count(f, Block::new(0)), 1);
    }

    #[test]
    fn unchecked_oob_access_is_distinguished() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", vec![Type::array_of(Type::Int)], Some(Type::Int));
        let a = b.param(0);
        let i = b.iconst(5);
        let x = b.load(a, i); // no check!
        b.ret(Some(x));
        m.add_function(b.finish().unwrap());
        let mut vm = Vm::new(&m);
        let arr = vm.alloc_int_array(&[1]);
        let err = vm.call_by_name("f", &[arr]).unwrap_err();
        assert!(matches!(
            err.kind,
            TrapKind::UncheckedAccessOutOfBounds { index: 5, len: 1 }
        ));
    }

    #[test]
    fn merged_unsigned_check_covers_both_bounds() {
        assert!(violates(CheckKind::Both, -1, 4));
        assert!(violates(CheckKind::Both, 4, 4));
        assert!(!violates(CheckKind::Both, 0, 4));
        assert!(!violates(CheckKind::Both, 3, 4));
        assert!(violates(CheckKind::Lower, -1, 4));
        assert!(!violates(CheckKind::Lower, 0, 4));
        assert!(violates(CheckKind::Upper, 4, 4));
        assert!(!violates(CheckKind::Upper, 3, 4));
    }

    #[test]
    fn profile_records_edges_and_sites() {
        let m = checked_sum_module();
        let mut vm = Vm::new(&m);
        let arr = vm.alloc_int_array(&[1, 2, 3]);
        vm.call_by_name("sum", &[arr]).unwrap();
        let f = m.function_by_name("sum").unwrap();
        let hot = vm.profile().hot_sites();
        assert_eq!(hot.len(), 2); // lower + upper sites
        assert_eq!(hot[0].1, 3); // each executed once per element
                                 // Loop head executed 4 times (3 iterations + exit test).
        assert_eq!(vm.profile().block_count(f, Block::new(1)), 4);
    }

    #[test]
    fn phi_moves_on_an_edge_assign_in_parallel() {
        // swap(n): (a, b) = (1, 2), then n times (a, b) = (b, a); returns
        // 10a + b. The back edge's moves `a <- b, b <- a` read a register
        // an earlier move writes, so they must run as one assignment.
        let mut b = FunctionBuilder::new("swap", vec![Type::Int], Some(Type::Int));
        let n = b.param(0);
        let (x, y, zero) = (b.iconst(1), b.iconst(2), b.iconst(0));
        let entry = b.current_block();
        let (head, body, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.jump(head);
        b.switch_to_block(head);
        let a = b.phi(vec![(entry, x)]);
        let bv = b.phi(vec![(entry, y), (body, a)]);
        let i = b.phi(vec![(entry, zero)]);
        let c = b.compare(CmpOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to_block(body);
        let one = b.iconst(1);
        let i1 = b.binary(BinOp::Add, i, one);
        b.jump(head);
        b.switch_to_block(exit);
        let ten = b.iconst(10);
        let t = b.binary(BinOp::Mul, a, ten);
        let r = b.binary(BinOp::Add, t, bv);
        b.ret(Some(r));
        let mut f = b.finish_unverified();
        let phis = f.block(head).insts().to_vec();
        for (id, arg) in [(phis[0], bv), (phis[2], i1)] {
            let InstKind::Phi { args } = &mut f.inst_mut(id).kind else {
                unreachable!()
            };
            args.push((body, arg));
        }
        abcd_ir::verify_function(&f, None).unwrap();
        let mut m = Module::new();
        m.add_function(f);
        for (n, expected) in [(0, 12), (1, 21), (2, 12), (3, 21)] {
            let mut vm = Vm::new(&m);
            let r = vm.call_by_name("swap", &[RtVal::Int(n)]).unwrap();
            assert_eq!(r, Some(RtVal::Int(expected)), "n={n}");
        }
    }

    /// `f(a)`: the entry block makes two constants and jumps to a block of
    /// φ, φ, π, π-of-π, copy, an upper bounds check on `a`, a copy and a
    /// `return`. Every instruction of that block but the check folds, into
    /// the check or into the `return`.
    fn folded_block_module() -> Module {
        folded_module(false)
    }

    /// [`folded_block_module`], but with `cmp_branch` its folded block
    /// ends in a constant, a compare of the returned copy with it, a π of
    /// the compare and a branch on the π instead of the `return`. The
    /// branch fuses with the compare, and the constant and the π fold into
    /// the fused op. Both branch targets are instruction-free and return.
    fn folded_module(cmp_branch: bool) -> Module {
        let mut b = FunctionBuilder::new("f", vec![Type::array_of(Type::Int)], Some(Type::Int));
        let a = b.param(0);
        let (zero, one) = (b.iconst(0), b.iconst(1));
        let entry = b.current_block();
        let body = b.new_block();
        b.jump(body);
        b.switch_to_block(body);
        let x = b.phi(vec![(entry, zero)]);
        let y = b.phi(vec![(entry, one)]);
        let site = CheckSite::new(0);
        let guard = PiGuard::Check {
            site,
            array: a,
            kind: CheckKind::Upper,
        };
        let p = b.pi(x, guard.clone());
        let q = b.pi(p, guard.clone());
        let c = b.copy(q);
        b.bounds_check(a, c, CheckKind::Upper);
        let r = b.copy(y);
        if cmp_branch {
            let five = b.iconst(5);
            let lt = b.compare(CmpOp::Lt, r, five);
            let cond = b.pi(lt, guard);
            let (yes, no) = (b.new_block(), b.new_block());
            b.branch(cond, yes, no);
            b.switch_to_block(yes);
            b.ret(Some(r));
            b.switch_to_block(no);
            b.ret(Some(five));
        } else {
            b.ret(Some(r));
        }
        let mut m = Module::new();
        m.add_function(b.finish_unverified());
        m
    }

    /// The first function of `m`, decoded.
    fn decoded(m: &Module) -> Code {
        let mut code = Code::default();
        code.enter(m, &CostModel::default(), FuncId::new(0));
        code
    }

    /// The ops of `code`, one list per block (each ends in its terminator).
    fn block_ops(code: &Code) -> Vec<Vec<Op>> {
        let mut blocks = vec![Vec::new()];
        for op in &code.ops {
            blocks.last_mut().unwrap().push(*op);
            if matches!(
                op.kind,
                OpKind::Jump { .. }
                    | OpKind::Branch { .. }
                    | OpKind::CmpBranch { .. }
                    | OpKind::Return { .. }
                    | OpKind::Fail(_)
            ) {
                blocks.push(Vec::new());
            }
        }
        blocks.pop();
        blocks
    }

    #[test]
    fn a_folded_block_decodes_to_its_check_and_terminator() {
        let m = folded_block_module();
        let blocks = block_ops(&decoded(&m));
        let weights: Vec<Vec<u32>> = blocks
            .iter()
            .map(|ops| ops.iter().map(|op| op.weight).collect())
            .collect();
        // Entry: the jump carries the two constants; body: the check
        // carries the φ, φ, π, π and copy before it, the `return` the copy
        // before it.
        assert_eq!(weights, [vec![2], vec![6, 1]]);
        assert!(matches!(blocks[1][0].kind, OpKind::BoundsCheck { .. }));
        // φ 1 + φ 1 + π 0 + π 0 + copy 1 + upper check 2.
        assert_eq!(blocks[1][0].cost, 5);
    }

    #[test]
    fn step_limits_inside_folded_runs_trap_as_one_instruction_at_a_time() {
        let (entry, body, yes) = (Block::new(0), Block::new(1), Block::new(2));
        for (m, path) in [
            (folded_module(false), &[entry, body][..]),
            (folded_module(true), &[entry, body, yes][..]),
        ] {
            assert_step_limits_exact(&m, path, RtVal::Int(1));
        }
    }

    /// Runs the first function of `m` on `[7]` under every step limit up
    /// to one past its instruction count, where it runs the blocks of
    /// `path` and returns `result`, and checks that each limit gives the
    /// trap, `ExecStats` and profile of running one instruction at a time.
    fn assert_step_limits_exact(m: &Module, path: &[Block], result: RtVal) {
        let f = FuncId::new(0);
        let func = m.function(f);
        // The instructions as they execute, one at a time, and how many
        // of them run before each block of the path is entered.
        let run: Vec<&InstKind> = path
            .iter()
            .flat_map(|&b| func.block(b).insts())
            .map(|&id| &func.inst(id).kind)
            .collect();
        let before: Vec<usize> = path
            .iter()
            .scan(0, |n, &b| {
                let at = *n;
                *n += func.block(b).insts().len();
                Some(at)
            })
            .collect();
        let cost = CostModel::default();
        for limit in 0..=run.len() as u64 + 1 {
            // A budget of `limit` instructions lets that many run; the next
            // one traps, counted.
            let executed = (limit as usize + 1).min(run.len());
            let completed = (limit as usize).min(run.len());
            let upper = run[..completed]
                .iter()
                .filter(|k| matches!(k, InstKind::BoundsCheck { .. }))
                .count() as u64;
            let expected = ExecStats {
                insts: executed as u64,
                cycles: run[..executed].iter().map(|k| cost.cost_of(k)).sum(),
                checks: [0, upper, 0],
                ..ExecStats::default()
            };
            let mut vm = Vm::with_options(
                m,
                VmOptions {
                    step_limit: limit,
                    ..VmOptions::default()
                },
            );
            let arr = vm.alloc_int_array(&[7]);
            let out = vm.call(f, &[arr]);
            if (limit as usize) < run.len() {
                let trap = out.unwrap_err();
                assert_eq!(trap.kind, TrapKind::StepLimitExceeded, "limit {limit}");
                assert_eq!(trap.func, f);
            } else {
                assert_eq!(out.unwrap(), Some(result), "limit {limit}");
            }
            assert_eq!(vm.stats(), &expected, "limit {limit}");
            let profile = vm.profile();
            assert_eq!(profile.block_count(f, path[0]), 1);
            for k in 1..path.len() {
                let entered = u64::from(limit as usize >= before[k]);
                assert_eq!(profile.block_count(f, path[k]), entered, "limit {limit}");
                assert_eq!(profile.edge_count(f, path[k - 1], path[k]), entered);
            }
            assert_eq!(
                profile.site_count(f, CheckSite::new(0)),
                expected.checks[1],
                "limit {limit}"
            );
        }
    }

    #[test]
    fn a_back_edge_move_reading_an_aliased_pi_still_assigns_in_parallel() {
        // swap(n) as in the test above, but the back edge carries πs of the
        // two φs: `a <- π(b), b <- π(a)`. The πs alias `b` and `a`, so the
        // moves read registers an earlier move writes.
        let mut b = FunctionBuilder::new("swap", vec![Type::Int], Some(Type::Int));
        let n = b.param(0);
        let (x, y, zero) = (b.iconst(1), b.iconst(2), b.iconst(0));
        let entry = b.current_block();
        let (head, body, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.jump(head);
        b.switch_to_block(head);
        let a = b.phi(vec![(entry, x)]);
        let bv = b.phi(vec![(entry, y)]);
        let i = b.phi(vec![(entry, zero)]);
        let c = b.compare(CmpOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to_block(body);
        let taken = PiGuard::Branch {
            block: head,
            taken: true,
        };
        let (pa, pb) = (b.pi(a, taken.clone()), b.pi(bv, taken));
        let one = b.iconst(1);
        let i1 = b.binary(BinOp::Add, i, one);
        b.jump(head);
        b.switch_to_block(exit);
        let ten = b.iconst(10);
        let t = b.binary(BinOp::Mul, a, ten);
        let r = b.binary(BinOp::Add, t, bv);
        b.ret(Some(r));
        let mut f = b.finish_unverified();
        let phis = f.block(head).insts().to_vec();
        for (id, arg) in [(phis[0], pb), (phis[1], pa), (phis[2], i1)] {
            let InstKind::Phi { args } = &mut f.inst_mut(id).kind else {
                unreachable!()
            };
            args.push((body, arg));
        }
        abcd_ir::verify_function(&f, None).unwrap();
        let mut m = Module::new();
        m.add_function(f);
        let code = decoded(&m);
        let back_edge = block_ops(&code)[body.index()]
            .iter()
            .find_map(|op| match op.kind {
                OpKind::Jump { edge } => Some(edge as usize),
                _ => None,
            })
            .unwrap();
        assert_ne!(code.side[back_edge + 3] & STAGED, 0, "moves must be staged");
        for (n, expected) in [(0, 12), (1, 21), (2, 12), (3, 21)] {
            let mut vm = Vm::new(&m);
            let r = vm.call_by_name("swap", &[RtVal::Int(n)]).unwrap();
            assert_eq!(r, Some(RtVal::Int(expected)), "n={n}");
        }
    }

    #[test]
    fn a_copy_cycle_keeps_its_ops() {
        // Malformed: `v1 = copy v2; v2 = copy v1`. Neither chain ends, so
        // neither register can alias the other; decoding still terminates.
        let b = FunctionBuilder::new("f", vec![], Some(Type::Int));
        let mut f = b.finish_unverified();
        let entry = f.entry();
        let c1 = f.create_inst(InstKind::Copy { arg: Value::new(0) }, Some(Type::Int));
        let v1 = f.inst(c1).result.unwrap();
        let c2 = f.create_inst(InstKind::Copy { arg: v1 }, Some(Type::Int));
        let v2 = f.inst(c2).result.unwrap();
        f.inst_mut(c1).kind = InstKind::Copy { arg: v2 };
        f.append_inst(entry, c1);
        f.append_inst(entry, c2);
        f.set_terminator(entry, Terminator::Return(Some(v2)));
        let mut m = Module::new();
        m.add_function(f);
        let ops = block_ops(&decoded(&m));
        let copies: Vec<(Reg, Reg)> = ops[0]
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Copy { dst, src } => Some((dst, src)),
                _ => None,
            })
            .collect();
        let (r1, r2) = (v1.index() as Reg, v2.index() as Reg);
        assert_eq!(copies, [(r1, r2), (r2, r1)]);
    }

    #[test]
    fn an_essa_loop_decodes_to_no_phi_pi_or_constant_op() {
        let mut m = checked_sum_module();
        abcd_ssa::module_to_essa(&mut m).unwrap();
        let func = m.function(FuncId::new(0));
        let count = |pick: fn(&InstKind) -> bool| {
            func.blocks()
                .flat_map(|b| func.block(b).insts())
                .filter(|&&id| pick(&func.inst(id).kind))
                .count()
        };
        assert!(count(|k| matches!(k, InstKind::Phi { .. })) > 0);
        assert!(count(|k| matches!(k, InstKind::Pi { .. })) > 0);
        assert!(count(|k| matches!(k, InstKind::Const(_))) > 0);
        let blocks = block_ops(&decoded(&m));
        assert_eq!(blocks.len(), func.block_count());
        // The loop head: φs, the length, the compare and the branch on it,
        // which fuse.
        let head = &blocks[1];
        assert!(matches!(
            head.last().unwrap().kind,
            OpKind::CmpBranch { .. }
        ));
        assert!(!head[..head.len() - 1]
            .iter()
            .any(|op| matches!(op.kind, OpKind::Compare { .. } | OpKind::Branch { .. })));
        for (b, ops) in func.blocks().zip(&blocks) {
            // πs alias their inputs, φs travel on the edges and constants
            // are preloaded, so only the other instructions get ops, plus
            // the terminator unless it fused with a compare; every
            // instruction is still charged, exactly once.
            let computing = func
                .block(b)
                .insts()
                .iter()
                .filter(|&&id| {
                    !matches!(
                        func.inst(id).kind,
                        InstKind::Phi { .. }
                            | InstKind::Pi { .. }
                            | InstKind::Copy { .. }
                            | InstKind::Const(_)
                            | InstKind::BoolConst(_)
                    )
                })
                .count();
            let fused = ops
                .iter()
                .filter(|op| matches!(op.kind, OpKind::CmpBranch { .. }))
                .count();
            assert_eq!(ops.len(), computing + 1 - fused, "{b}");
            let weight: u32 = ops.iter().map(|op| op.weight).sum();
            assert_eq!(weight as usize, func.block(b).insts().len(), "{b}");
        }
    }

    #[test]
    fn an_instruction_free_jump_cycle_traps_without_charging() {
        // main() { bb0: jump bb1; bb1: jump bb1 }: no instruction ever
        // runs, so only the cycle rule stops it.
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", vec![], Some(Type::Int));
        let l = b.new_block();
        b.jump(l);
        b.switch_to_block(l);
        b.jump(l);
        m.add_function(b.finish().unwrap());
        let mut vm = Vm::new(&m);
        let err = vm.call_by_name("main", &[]).unwrap_err();
        assert_eq!(err.kind, TrapKind::StepLimitExceeded);
        assert_eq!(vm.stats(), &ExecStats::default());
    }

    #[test]
    fn an_instruction_free_branch_cycle_traps_only_when_taken() {
        // f(c) { bb0: jump bb1; bb1: br c, bb2, bb3; bb2: jump bb1;
        // bb3: ret }: bb1 and bb2 form a cycle that `c` keeps or leaves.
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", vec![Type::Bool], None);
        let c = b.param(0);
        let (head, back, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.jump(head);
        b.switch_to_block(head);
        b.branch(c, back, exit);
        b.switch_to_block(back);
        b.jump(head);
        b.switch_to_block(exit);
        b.ret(None);
        m.add_function(b.finish().unwrap());
        let mut vm = Vm::new(&m);
        let err = vm.call_by_name("f", &[RtVal::Bool(true)]).unwrap_err();
        assert_eq!(err.kind, TrapKind::StepLimitExceeded);
        assert_eq!(vm.stats(), &ExecStats::default());
        let mut vm = Vm::new(&m);
        assert_eq!(vm.call_by_name("f", &[RtVal::Bool(false)]), Ok(None));
        let f = FuncId::new(0);
        assert_eq!(vm.profile().block_count(f, exit), 1);
        assert_eq!(vm.profile().block_count(f, back), 0);
    }

    #[test]
    fn block_counts_derive_from_entries_and_in_edges() {
        // fact(n) recurses n - 1 times: its entry block runs once per
        // call, though no edge enters it.
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("fact", vec![Type::Int], Some(Type::Int));
        let n = b.param(0);
        let one = b.iconst(1);
        let c = b.compare(CmpOp::Le, n, one);
        let (base, rec) = (b.new_block(), b.new_block());
        b.branch(c, base, rec);
        b.switch_to_block(base);
        b.ret(Some(one));
        b.switch_to_block(rec);
        let nm1 = b.binary(BinOp::Sub, n, one);
        let r = b.call(FuncId::new(0), vec![nm1], Some(Type::Int)).unwrap();
        let p = b.binary(BinOp::Mul, n, r);
        b.ret(Some(p));
        m.add_function(b.finish().unwrap());
        let f = FuncId::new(0);
        let mut vm = Vm::new(&m);
        assert_eq!(vm.call(f, &[RtVal::Int(5)]), Ok(Some(RtVal::Int(120))));
        let profile = vm.profile();
        assert_eq!(profile.block_count(f, Block::new(0)), 5);
        assert_eq!(profile.block_count(f, base), 1);
        assert_eq!(profile.block_count(f, rec), 4);
        assert_eq!(profile.edge_count(f, Block::new(0), rec), 4);

        // A trap in the middle of a block: the block was entered, so it
        // counts, and a second call adds to the counts of the first.
        let m = checked_sum_module();
        let sum = FuncId::new(0);
        let mut vm = Vm::with_options(
            &m,
            VmOptions {
                step_limit: 8,
                ..VmOptions::default()
            },
        );
        let arr = vm.alloc_int_array(&[1, 2, 3]);
        let err = vm.call(sum, &[arr]).unwrap_err();
        assert_eq!(err.kind, TrapKind::StepLimitExceeded);
        let profile = vm.profile();
        // Three instructions of the entry, three of the loop head, then
        // the body's lower check; its upper check is the ninth, which
        // traps.
        assert_eq!(vm.stats().insts, 9);
        assert_eq!(profile.block_count(sum, Block::new(0)), 1);
        assert_eq!(profile.block_count(sum, Block::new(1)), 1);
        assert_eq!(profile.block_count(sum, Block::new(2)), 1);
        assert_eq!(profile.site_count(sum, CheckSite::new(0)), 1);
        assert_eq!(profile.site_count(sum, CheckSite::new(1)), 0);
        // The budget is spent, so the next call traps in its entry block.
        let arr = vm.alloc_int_array(&[]);
        let err = vm.call(sum, &[arr]).unwrap_err();
        assert_eq!(err.kind, TrapKind::StepLimitExceeded);
        assert_eq!(vm.profile().block_count(sum, Block::new(0)), 2);
        assert_eq!(vm.profile().block_count(sum, Block::new(1)), 1);
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("spin", vec![], None);
        let l = b.new_block();
        b.jump(l);
        b.switch_to_block(l);
        let _ = b.iconst(0);
        b.jump(l);
        m.add_function(b.finish().unwrap());
        let mut vm = Vm::with_options(
            &m,
            VmOptions {
                step_limit: 1000,
                ..VmOptions::default()
            },
        );
        let err = vm.call_by_name("spin", &[]).unwrap_err();
        assert_eq!(err.kind, TrapKind::StepLimitExceeded);
    }

    #[test]
    fn division_by_zero_traps() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("d", vec![Type::Int], Some(Type::Int));
        let zero = b.iconst(0);
        let q = b.binary(BinOp::Div, b.param(0), zero);
        b.ret(Some(q));
        m.add_function(b.finish().unwrap());
        let mut vm = Vm::new(&m);
        let err = vm.call_by_name("d", &[RtVal::Int(1)]).unwrap_err();
        assert_eq!(err.kind, TrapKind::DivisionByZero);
    }

    #[test]
    fn recursive_calls_work() {
        // fact(n) = n <= 1 ? 1 : n * fact(n - 1)
        let mut m = Module::new();
        let fact_id = abcd_ir::FuncId::new(0);
        let mut b = FunctionBuilder::new("fact", vec![Type::Int], Some(Type::Int));
        let n = b.param(0);
        let one = b.iconst(1);
        let c = b.compare(CmpOp::Le, n, one);
        let (base, rec) = (b.new_block(), b.new_block());
        b.branch(c, base, rec);
        b.switch_to_block(base);
        b.ret(Some(one));
        b.switch_to_block(rec);
        let one2 = b.iconst(1);
        let nm1 = b.binary(BinOp::Sub, n, one2);
        let r = b.call(fact_id, vec![nm1], Some(Type::Int)).unwrap();
        let p = b.binary(BinOp::Mul, n, r);
        b.ret(Some(p));
        m.add_function(b.finish().unwrap());
        abcd_ir::verify_module(&m).unwrap();
        let mut vm = Vm::new(&m);
        let r = vm.call_by_name("fact", &[RtVal::Int(10)]).unwrap();
        assert_eq!(r, Some(RtVal::Int(3_628_800)));
    }

    #[test]
    fn negative_array_length_traps() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", vec![Type::Int], None);
        let n = b.param(0);
        let _ = b.new_array(Type::Int, n);
        b.ret(None);
        m.add_function(b.finish().unwrap());
        let mut vm = Vm::new(&m);
        let err = vm.call_by_name("f", &[RtVal::Int(-4)]).unwrap_err();
        assert_eq!(err.kind, TrapKind::NegativeArrayLength(-4));
    }
}
