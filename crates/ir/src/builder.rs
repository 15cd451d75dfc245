//! An ergonomic, type-inferring builder for [`Function`]s.

use crate::entities::{Block, CheckSite, FuncId, Local, Value};
use crate::function::Function;
use crate::inst::{BinOp, CheckKind, CmpOp, InstKind, PiGuard, Terminator, UnOp};
use crate::types::Type;
use crate::verify::{verify_function, VerifyError};

/// Builds a [`Function`] one instruction at a time.
///
/// The builder maintains a *current block*; instruction methods append to it
/// and return the result [`Value`]. Result types are inferred from operands,
/// so misuse (e.g. loading from a non-array) panics immediately at build time
/// rather than verifying later.
///
/// # Example
///
/// ```
/// use abcd_ir::{FunctionBuilder, Type, BinOp, CmpOp};
///
/// // fn add_clamped(a: int, b: int) -> int { let s = a + b; if s < 0 { 0 } else { s } }
/// let mut b = FunctionBuilder::new("add_clamped", vec![Type::Int, Type::Int], Some(Type::Int));
/// let s = b.binary(BinOp::Add, b.param(0), b.param(1));
/// let zero = b.iconst(0);
/// let neg = b.compare(CmpOp::Lt, s, zero);
/// let (t, e) = (b.new_block(), b.new_block());
/// b.branch(neg, t, e);
/// b.switch_to_block(t);
/// b.ret(Some(zero));
/// b.switch_to_block(e);
/// b.ret(Some(s));
/// let f = b.finish().unwrap();
/// assert_eq!(f.block_count(), 3);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: Block,
}

/// Storage that [`FunctionBuilder::new_in`] builds in and
/// [`FunctionBuilder::finish_in`] hands back: building many functions
/// through one `BuildArena` grows each arena to the largest function once,
/// and every finished function gets exactly-sized arenas (one allocation
/// each) instead of the growth steps of its own.
#[derive(Debug, Default)]
pub struct BuildArena {
    shell: Option<Function>,
}

impl FunctionBuilder {
    /// Starts building a function; the current block is the entry block.
    pub fn new(
        name: impl Into<std::sync::Arc<str>>,
        param_types: Vec<Type>,
        ret_type: Option<Type>,
    ) -> Self {
        let func = Function::new(name, param_types, ret_type);
        let current = func.entry();
        FunctionBuilder { func, current }
    }

    /// [`FunctionBuilder::new`], building in `arena`'s storage.
    pub fn new_in(
        arena: &mut BuildArena,
        name: impl Into<std::sync::Arc<str>>,
        param_types: Vec<Type>,
        ret_type: Option<Type>,
    ) -> Self {
        let func = match arena.shell.take() {
            Some(mut shell) => {
                shell.reset(name.into(), param_types, ret_type);
                shell
            }
            None => Function::new(name, param_types, ret_type),
        };
        let current = func.entry();
        FunctionBuilder { func, current }
    }

    /// The value of the `index`-th parameter.
    pub fn param(&self, index: usize) -> Value {
        self.func.param(index)
    }

    /// Creates a new (empty, unterminated) block without switching to it.
    pub fn new_block(&mut self) -> Block {
        self.func.new_block()
    }

    /// Makes `b` the current block.
    pub fn switch_to_block(&mut self, b: Block) {
        self.current = b;
    }

    /// The block instructions are currently appended to.
    pub fn current_block(&self) -> Block {
        self.current
    }

    /// Read access to the function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }

    /// Declares a local slot (pre-SSA form).
    pub fn new_local(&mut self, ty: Type) -> Local {
        self.func.new_local(ty)
    }

    fn push(&mut self, kind: InstKind, ty: Option<Type>) -> Option<Value> {
        let id = self.func.create_inst(kind, ty);
        self.func.append_inst(self.current, id);
        self.func.inst(id).result
    }

    fn value_ty(&self, v: Value) -> &Type {
        self.func.value_type(v)
    }

    /// Appends an integer constant.
    pub fn iconst(&mut self, value: i64) -> Value {
        self.push(InstKind::Const(value), Some(Type::Int)).unwrap()
    }

    /// Appends a boolean constant.
    pub fn bconst(&mut self, value: bool) -> Value {
        self.push(InstKind::BoolConst(value), Some(Type::Bool))
            .unwrap()
    }

    /// Appends a unary operation.
    ///
    /// # Panics
    ///
    /// Panics if the operand type does not match the operator.
    pub fn unary(&mut self, op: UnOp, arg: Value) -> Value {
        let ty = match op {
            UnOp::Neg => Type::Int,
            UnOp::Not => Type::Bool,
        };
        assert_eq!(self.value_ty(arg), &ty, "unary operand type mismatch");
        self.push(InstKind::Unary { op, arg }, Some(ty)).unwrap()
    }

    /// Appends a binary arithmetic operation (operands must be `int`).
    pub fn binary(&mut self, op: BinOp, lhs: Value, rhs: Value) -> Value {
        assert_eq!(self.value_ty(lhs), &Type::Int, "binary lhs must be int");
        assert_eq!(self.value_ty(rhs), &Type::Int, "binary rhs must be int");
        self.push(InstKind::Binary { op, lhs, rhs }, Some(Type::Int))
            .unwrap()
    }

    /// Appends a comparison (operands must be `int`).
    pub fn compare(&mut self, op: CmpOp, lhs: Value, rhs: Value) -> Value {
        assert_eq!(self.value_ty(lhs), &Type::Int, "compare lhs must be int");
        assert_eq!(self.value_ty(rhs), &Type::Int, "compare rhs must be int");
        self.push(InstKind::Compare { op, lhs, rhs }, Some(Type::Bool))
            .unwrap()
    }

    /// Appends an array allocation.
    pub fn new_array(&mut self, elem: Type, len: Value) -> Value {
        assert_eq!(self.value_ty(len), &Type::Int, "array length must be int");
        let ty = Type::array_of(elem.clone());
        self.push(InstKind::NewArray { elem, len }, Some(ty))
            .unwrap()
    }

    /// Appends an array-length read (constraint class C1).
    pub fn array_len(&mut self, array: Value) -> Value {
        assert!(self.value_ty(array).is_array(), "array_len of non-array");
        self.push(InstKind::ArrayLen { array }, Some(Type::Int))
            .unwrap()
    }

    /// Appends an (unchecked) array load.
    pub fn load(&mut self, array: Value, index: Value) -> Value {
        let elem = self
            .value_ty(array)
            .elem()
            .expect("load from non-array")
            .clone();
        assert_eq!(self.value_ty(index), &Type::Int, "index must be int");
        self.push(InstKind::Load { array, index }, Some(elem))
            .unwrap()
    }

    /// Appends an (unchecked) array store.
    pub fn store(&mut self, array: Value, index: Value, value: Value) {
        let elem = self.value_ty(array).elem().expect("store to non-array");
        assert_eq!(self.value_ty(index), &Type::Int, "index must be int");
        assert_eq!(self.value_ty(value), elem, "stored value type mismatch");
        self.push(
            InstKind::Store {
                array,
                index,
                value,
            },
            None,
        );
    }

    /// Appends a bounds check with a freshly allocated site, returning the
    /// site id.
    pub fn bounds_check(&mut self, array: Value, index: Value, kind: CheckKind) -> CheckSite {
        assert!(self.value_ty(array).is_array(), "check of non-array");
        assert_eq!(
            self.value_ty(index),
            &Type::Int,
            "checked index must be int"
        );
        let site = self.func.new_check_site();
        self.push(
            InstKind::BoundsCheck {
                site,
                array,
                index,
                kind,
            },
            None,
        );
        site
    }

    /// Appends a φ-instruction with the given `(predecessor, value)` args.
    /// All argument values must share one type, which becomes the result type.
    pub fn phi(&mut self, args: Vec<(Block, Value)>) -> Value {
        let ty = self.value_ty(args.first().expect("phi needs arguments").1);
        for (_, v) in &args {
            assert_eq!(self.value_ty(*v), ty, "phi argument type mismatch");
        }
        let ty = ty.clone();
        self.push(InstKind::Phi { args }, Some(ty)).unwrap()
    }

    /// Appends a π-assignment renaming `input` under `guard`.
    pub fn pi(&mut self, input: Value, guard: PiGuard) -> Value {
        let ty = self.value_ty(input).clone();
        self.push(InstKind::Pi { input, guard }, Some(ty)).unwrap()
    }

    /// Appends a copy.
    pub fn copy(&mut self, arg: Value) -> Value {
        let ty = self.value_ty(arg).clone();
        self.push(InstKind::Copy { arg }, Some(ty)).unwrap()
    }

    /// Appends a direct call. `ret_ty` must match the callee's return type
    /// (the module-level verifier checks this).
    pub fn call(&mut self, func: FuncId, args: Vec<Value>, ret_ty: Option<Type>) -> Option<Value> {
        self.push(InstKind::Call { func, args }, ret_ty)
    }

    /// Appends an output (print) of `arg`.
    pub fn output(&mut self, arg: Value) {
        self.push(InstKind::Output { arg }, None);
    }

    /// Appends a read of local `l`.
    pub fn get_local(&mut self, l: Local) -> Value {
        let ty = self.func.local_type(l).clone();
        self.push(InstKind::GetLocal { local: l }, Some(ty))
            .unwrap()
    }

    /// Appends a write of `value` to local `l`.
    pub fn set_local(&mut self, l: Local, value: Value) {
        assert_eq!(
            self.value_ty(value),
            self.func.local_type(l),
            "set_local type mismatch"
        );
        self.push(InstKind::SetLocal { local: l, value }, None);
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jump(&mut self, dst: Block) {
        self.func
            .set_terminator(self.current, Terminator::Jump(dst));
    }

    /// Terminates the current block with a conditional branch.
    pub fn branch(&mut self, cond: Value, then_dst: Block, else_dst: Block) {
        assert_eq!(
            self.value_ty(cond),
            &Type::Bool,
            "branch condition not bool"
        );
        self.func.set_terminator(
            self.current,
            Terminator::Branch {
                cond,
                then_dst,
                else_dst,
            },
        );
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Value>) {
        self.func
            .set_terminator(self.current, Terminator::Return(value));
    }

    /// Finishes construction, verifying the function.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] if the function is malformed (e.g. an
    /// unterminated reachable block).
    pub fn finish(self) -> Result<Function, VerifyError> {
        verify_function(&self.func, None)?;
        Ok(self.func)
    }

    /// Finishes construction without verification (the caller verifies),
    /// moving the function into exactly-sized arenas and returning the
    /// builder's storage to `arena`.
    pub fn finish_in(mut self, arena: &mut BuildArena) -> Function {
        let func = self.func.take_compact();
        arena.shell = Some(self.func);
        func
    }

    /// Finishes construction without verification (for tests that build
    /// intentionally malformed functions).
    pub fn finish_unverified(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_checked_array_sum_loop() {
        // fn sum(a: int[]) -> int
        let mut b = FunctionBuilder::new("sum", vec![Type::array_of(Type::Int)], Some(Type::Int));
        let a = b.param(0);
        let acc = b.new_local(Type::Int);
        let i = b.new_local(Type::Int);
        let zero = b.iconst(0);
        b.set_local(acc, zero);
        b.set_local(i, zero);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
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
        let elt = b.load(a, iv2);
        let acc_v = b.get_local(acc);
        let sum = b.binary(BinOp::Add, acc_v, elt);
        b.set_local(acc, sum);
        let one = b.iconst(1);
        let inc = b.binary(BinOp::Add, iv2, one);
        b.set_local(i, inc);
        b.jump(head);

        b.switch_to_block(exit);
        let out = b.get_local(acc);
        b.ret(Some(out));

        let f = b.finish().expect("verifies");
        assert_eq!(f.check_site_count(), 2);
        assert_eq!(f.count_checks(), (2, 0, 0));
    }

    #[test]
    fn arena_builds_match_fresh_builds() {
        let build = |b: &mut FunctionBuilder, k: i64| {
            let x = b.param(0);
            let c = b.iconst(k);
            let s = b.binary(BinOp::Add, x, c);
            let next = b.new_block();
            b.jump(next);
            b.switch_to_block(next);
            b.ret(Some(s));
        };
        let mut arena = BuildArena::default();
        for k in 0..3 {
            let mut fresh = FunctionBuilder::new("f", vec![Type::Int], Some(Type::Int));
            build(&mut fresh, k);
            let mut reused =
                FunctionBuilder::new_in(&mut arena, "f", vec![Type::Int], Some(Type::Int));
            build(&mut reused, k);
            let reused = reused.finish_in(&mut arena);
            verify_function(&reused, None).unwrap();
            assert_eq!(reused.to_string(), fresh.finish().unwrap().to_string());
            assert_eq!(reused.inst_count(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "load from non-array")]
    fn load_from_int_panics() {
        let mut b = FunctionBuilder::new("bad", vec![Type::Int], None);
        let p = b.param(0);
        let _ = b.load(p, p);
    }

    #[test]
    #[should_panic(expected = "branch condition not bool")]
    fn branch_on_int_panics() {
        let mut b = FunctionBuilder::new("bad", vec![Type::Int], None);
        let p = b.param(0);
        let t = b.new_block();
        let e = b.new_block();
        b.branch(p, t, e);
    }

    #[test]
    fn phi_infers_type() {
        let mut b = FunctionBuilder::new("p", vec![Type::Int, Type::Int], Some(Type::Int));
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        let x = b.param(0);
        let y = b.param(1);
        let c = b.compare(CmpOp::Lt, x, y);
        b.branch(c, t, e);
        b.switch_to_block(t);
        b.jump(j);
        b.switch_to_block(e);
        b.jump(j);
        b.switch_to_block(j);
        let m = b.phi(vec![(t, x), (e, y)]);
        b.ret(Some(m));
        let f = b.finish().unwrap();
        assert_eq!(*f.value_type(m), Type::Int);
    }
}
