//! The interpreter.
//!
//! Executes every IR form — locals form, SSA, e-SSA, and ABCD-optimized
//! code (including the speculative `spec_check`/`trap_if_flagged` pair) —
//! which is what makes each compiler pass differentially testable.
//!
//! Execution allocates nothing per instruction, block or call. Calls run
//! on an explicit frame stack whose frames own windows of one reused
//! register, local and flag store, so recursion depth is bounded by
//! [`VmOptions::call_depth_limit`] and not by the host thread's stack.
//! Profile events bump dense per-function counters that are folded into
//! the hashed [`Profile`] once, when the top-level call returns or traps.

use crate::cost::CostModel;
use crate::profile::{Counters, Profile, Slots};
use crate::trap::{Trap, TrapKind};
use crate::value::{Heap, RtVal};
use abcd_ir::{Block, CheckKind, FuncId, Function, InstKind, Module, Terminator, UnOp, Value};

/// Interpreter configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmOptions {
    /// Abort with [`TrapKind::StepLimitExceeded`] after this many
    /// instructions (guards generated test programs against divergence).
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
    stack: Stack,
    output: Vec<i64>,
    steps_left: u64,
}

/// A function activation. The active frame lives in the interpreter loop;
/// suspended callers wait on [`Stack::frames`].
#[derive(Clone, Copy, Debug)]
struct Frame {
    func: FuncId,
    block: Block,
    /// Index of the next instruction of `block` to execute.
    pos: usize,
    /// Where this frame's windows start in the register, local and flag
    /// stores.
    regs: usize,
    locals: usize,
    flags: usize,
    /// For a suspended caller: the value that receives the callee's result.
    dst: Option<Value>,
}

/// The call stack: suspended frames, one register, local and flag store
/// that every frame owns a window of, and the φ staging buffer. All of it
/// is reused from call to call, so execution itself allocates nothing once
/// the stores have reached their high-water size.
#[derive(Debug, Default)]
struct Stack {
    frames: Vec<Frame>,
    regs: Vec<Option<RtVal>>,
    locals: Vec<Option<RtVal>>,
    flags: Vec<bool>,
    phis: Vec<(Value, RtVal)>,
}

impl Stack {
    fn clear(&mut self) {
        self.frames.clear();
        self.regs.clear();
        self.locals.clear();
        self.flags.clear();
    }

    /// Opens a frame for `id` whose arguments are the registers from
    /// `regs` to the end of the store, at the depth of the suspended frames.
    fn open(
        &mut self,
        module: &Module,
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
        let func = module.function(id);
        assert_eq!(
            self.regs.len() - regs,
            func.param_count(),
            "call arity mismatch"
        );
        let frame = Frame {
            func: id,
            block: func.entry(),
            pos: 0,
            regs,
            locals: self.locals.len(),
            flags: self.flags.len(),
            dst: None,
        };
        self.regs.resize(regs + func.value_count(), None);
        self.locals.resize(frame.locals + func.local_count(), None);
        self.flags
            .resize(frame.flags + func.check_site_count(), false);
        Ok(frame)
    }

    /// Releases the windows of `frame`, the innermost one.
    fn close(&mut self, frame: &Frame) {
        self.regs.truncate(frame.regs);
        self.locals.truncate(frame.locals);
        self.flags.truncate(frame.flags);
    }
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
        let mut fr = stack.open(module, options.call_depth_limit, entry, 0)?;
        let mut func: &Function = module.function(entry);
        let mut slots = Slots::default();
        if profiling {
            slots = counters.slots(module, entry);
            counters.block(slots, fr.block);
        }
        let mut came_from: Option<Block> = None;

        macro_rules! get {
            ($v:expr, $what:literal) => {
                stack.regs[fr.regs + $v.index()].expect($what)
            };
            ($v:expr) => {
                get!($v, "use of unset value")
            };
        }

        'blocks: loop {
            let insts = func.block(fr.block).insts();
            if fr.pos == 0 {
                // Phase 1: φs evaluate in parallel against pre-transfer state.
                stack.phis.clear();
                for &id in insts {
                    let inst = func.inst(id);
                    let InstKind::Phi { args } = &inst.kind else {
                        break; // φs form a prefix
                    };
                    let from = came_from.expect("phi in entry block");
                    let (_, v) = args
                        .iter()
                        .find(|(p, _)| *p == from)
                        .unwrap_or_else(|| panic!("phi {id} lacks arg for pred {from}"));
                    let val = get!(v, "phi argument unset");
                    stack.phis.push((inst.result.expect("phi result"), val));
                }
                for &(r, v) in &stack.phis {
                    stack.regs[fr.regs + r.index()] = Some(v);
                }
            }

            // Phase 2: straight-line execution, resumed after a call.
            while let Some(&id) = insts.get(fr.pos) {
                fr.pos += 1;
                let inst = func.inst(id);
                bump(stats, steps_left, &options.cost, &inst.kind, fr.func)?;
                let result: Option<RtVal> = match &inst.kind {
                    InstKind::Phi { .. } => continue,
                    InstKind::Const(c) => Some(RtVal::Int(*c)),
                    InstKind::BoolConst(c) => Some(RtVal::Bool(*c)),
                    InstKind::Unary { op, arg } => Some(match op {
                        UnOp::Neg => RtVal::Int(get!(*arg).as_int().wrapping_neg()),
                        UnOp::Not => RtVal::Bool(!get!(*arg).as_bool()),
                    }),
                    InstKind::Binary { op, lhs, rhs } => {
                        let a = get!(*lhs).as_int();
                        let b = get!(*rhs).as_int();
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
                        Some(RtVal::Int(v))
                    }
                    InstKind::Compare { op, lhs, rhs } => Some(RtVal::Bool(
                        op.eval(get!(*lhs).as_int(), get!(*rhs).as_int()),
                    )),
                    InstKind::NewArray { elem, len } => {
                        let n = get!(*len).as_int();
                        if n < 0 {
                            return Err(trap(TrapKind::NegativeArrayLength(n), fr.func));
                        }
                        stats.cycles = stats
                            .cycles
                            .saturating_add(options.cost.alloc_per_elem * n as u64);
                        Some(RtVal::Ref(heap.alloc(elem, n as usize)))
                    }
                    InstKind::ArrayLen { array } => {
                        Some(RtVal::Int(heap.len_of(get!(*array).as_ref()) as i64))
                    }
                    InstKind::Load { array, index } => {
                        let r = get!(*array).as_ref();
                        let i = get!(*index).as_int();
                        let len = heap.len_of(r) as i64;
                        if i < 0 || i >= len {
                            return Err(trap(
                                TrapKind::UncheckedAccessOutOfBounds { index: i, len },
                                fr.func,
                            ));
                        }
                        Some(heap.get(r).data[i as usize])
                    }
                    InstKind::Store {
                        array,
                        index,
                        value,
                    } => {
                        let r = get!(*array).as_ref();
                        let i = get!(*index).as_int();
                        let len = heap.len_of(r) as i64;
                        if i < 0 || i >= len {
                            return Err(trap(
                                TrapKind::UncheckedAccessOutOfBounds { index: i, len },
                                fr.func,
                            ));
                        }
                        heap.get_mut(r).data[i as usize] = get!(*value);
                        None
                    }
                    InstKind::BoundsCheck {
                        site,
                        array,
                        index,
                        kind,
                    } => {
                        let i = get!(*index).as_int();
                        let len = heap.len_of(get!(*array).as_ref()) as i64;
                        stats.checks[kind_index(*kind)] += 1;
                        if profiling {
                            counters.site(slots, *site);
                        }
                        if violates(*kind, i, len) {
                            return Err(trap(
                                TrapKind::BoundsCheckFailed {
                                    site: *site,
                                    index: i,
                                    len,
                                },
                                fr.func,
                            ));
                        }
                        None
                    }
                    InstKind::SpecCheck {
                        site,
                        array,
                        index,
                        kind,
                    } => {
                        let i = get!(*index).as_int();
                        let len = heap.len_of(get!(*array).as_ref()) as i64;
                        stats.spec_checks[kind_index(*kind)] += 1;
                        if violates(*kind, i, len) {
                            stack.flags[fr.flags + site.index()] = true;
                        }
                        None
                    }
                    InstKind::TrapIfFlagged {
                        site,
                        array,
                        index,
                        kind,
                    } => {
                        stats.trap_tests += 1;
                        if stack.flags[fr.flags + site.index()] {
                            // Re-validate at the original exception point
                            // (the speculative failure may be spurious).
                            let i = get!(*index).as_int();
                            let len = heap.len_of(get!(*array).as_ref()) as i64;
                            if violates(*kind, i, len) {
                                return Err(trap(
                                    TrapKind::BoundsCheckFailed {
                                        site: *site,
                                        index: i,
                                        len,
                                    },
                                    fr.func,
                                ));
                            }
                        }
                        None
                    }
                    InstKind::Pi { input, .. } => Some(get!(*input)),
                    InstKind::Copy { arg } => Some(get!(*arg)),
                    InstKind::Call { func: callee, args } => {
                        // The arguments become the callee's parameter
                        // registers, which start where the store ends.
                        let base = stack.regs.len();
                        for a in args {
                            let v = get!(*a);
                            stack.regs.push(Some(v));
                        }
                        stack.frames.push(Frame {
                            dst: inst.result,
                            ..fr
                        });
                        fr = stack.open(module, options.call_depth_limit, *callee, base)?;
                        func = module.function(*callee);
                        if profiling {
                            slots = counters.slots(module, *callee);
                            counters.block(slots, fr.block);
                        }
                        came_from = None;
                        continue 'blocks;
                    }
                    InstKind::Output { arg } => {
                        output.push(get!(*arg).as_int());
                        None
                    }
                    InstKind::GetLocal { local } => Some(
                        stack.locals[fr.locals + local.index()]
                            .expect("read of uninitialized local"),
                    ),
                    InstKind::SetLocal { local, value } => {
                        stack.locals[fr.locals + local.index()] = Some(get!(*value));
                        None
                    }
                };
                if let (Some(r), Some(v)) = (inst.result, result) {
                    stack.regs[fr.regs + r.index()] = Some(v);
                }
            }

            // Phase 3: control transfer.
            let (next, slot) = match func.block(fr.block).terminator() {
                Terminator::Jump(d) => (*d, 0),
                Terminator::Branch {
                    cond,
                    then_dst,
                    else_dst,
                } => {
                    if get!(*cond, "branch cond unset").as_bool() {
                        (*then_dst, 0)
                    } else {
                        (*else_dst, 1)
                    }
                }
                Terminator::Return(v) => {
                    let out = v.map(|v| get!(v, "return value unset"));
                    stack.close(&fr);
                    let Some(caller) = stack.frames.pop() else {
                        return Ok(out);
                    };
                    fr = caller;
                    func = module.function(fr.func);
                    if profiling {
                        slots = counters.slots(module, fr.func);
                    }
                    if let (Some(r), Some(v)) = (fr.dst, out) {
                        stack.regs[fr.regs + r.index()] = Some(v);
                    }
                    continue 'blocks;
                }
            };
            if profiling {
                counters.edge(slots, fr.block, slot);
                counters.block(slots, next);
            }
            came_from = Some(fr.block);
            fr.block = next;
            fr.pos = 0;
        }
    }
}

/// Accounts one instruction execution; errors out when the step budget is
/// exhausted.
#[inline]
fn bump(
    stats: &mut ExecStats,
    steps_left: &mut u64,
    cost: &CostModel,
    kind: &InstKind,
    func: FuncId,
) -> Result<(), Trap> {
    stats.insts += 1;
    stats.cycles = stats.cycles.saturating_add(cost.cost_of(kind));
    if *steps_left == 0 {
        return Err(Trap {
            kind: TrapKind::StepLimitExceeded,
            func,
        });
    }
    *steps_left -= 1;
    Ok(())
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
    use abcd_ir::{BinOp, CheckSite, CmpOp, FunctionBuilder, Type};

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
