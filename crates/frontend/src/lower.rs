//! Lowering MJ ASTs to the (pre-SSA, locals-form) IR.
//!
//! Every array read or write lowers to an explicit **lower** bounds check,
//! an **upper** bounds check, and an unchecked access — the same shape a
//! Java bytecode frontend presents to the Jalapeño optimizer. ABCD (and the
//! baselines) then remove checks; nothing else ever does.
//!
//! Names resolve without hashing: variables through one scope stack of
//! `(name, local)` entries that blocks truncate back to their mark on exit,
//! functions through a table indexed by [`Name`].

use crate::ast::*;
use crate::error::{FrontendError, Pos};
use abcd_ir::{
    BinOp, Block, BuildArena, CheckKind, CmpOp, FuncId, Function, FunctionBuilder, Local, Module,
    Type, UnOp, Value,
};

/// A function's lowered signature.
struct Sig {
    params: Vec<Type>,
    ret: Option<Type>,
}

/// Lowers a parsed program to an IR module (locals form, checks inserted).
///
/// # Errors
///
/// Returns the first type or name-resolution error.
pub fn lower(program: &Program<'_>) -> Result<Module, FrontendError> {
    // Pass 1: collect signatures (enables mutual recursion).
    let decls = program.functions();
    let mut sigs = Vec::with_capacity(decls.len());
    let mut by_name = vec![None; program.name_count()];
    for (i, f) in decls.iter().enumerate() {
        let slot = &mut by_name[f.name.index()];
        if slot.is_some() {
            return Err(FrontendError::Type {
                pos: f.pos,
                message: format!("duplicate function `{}`", program.name(f.name)),
            });
        }
        *slot = Some(FuncId::new(i));
        sigs.push(Sig {
            params: program.params(f).iter().map(|p| lower_type(p.ty)).collect(),
            ret: f.ret.map(lower_type),
        });
    }

    // Pass 2: lower bodies, reusing one scope stack and loop stack.
    let mut module = Module::new();
    let mut scratch = Scratch::default();
    for (decl, sig) in decls.iter().zip(&sigs) {
        let lowerer = Lowerer::new(program, &sigs, &by_name, decl, sig, &mut scratch)?;
        module.add_function(lowerer.run(decl)?);
    }
    // The one verification of each function, with its calls checked
    // against the module's signatures.
    abcd_ir::verify_module(&module).map_err(|(name, e)| FrontendError::Type {
        pos: Pos { line: 0, col: 0 },
        message: format!("internal: lowered function `{name}` failed verification: {e}"),
    })?;
    Ok(module)
}

fn lower_type(t: TypeAst) -> Type {
    let mut ty = match t.scalar {
        Scalar::Int => Type::Int,
        Scalar::Bool => Type::Bool,
    };
    for _ in 0..t.rank {
        ty = Type::array_of(ty);
    }
    ty
}

/// Lowering state that outlives one function.
#[derive(Default)]
struct Scratch {
    /// Visible variables, innermost last; a block truncates it back to
    /// its entry length on exit.
    scope: Vec<(Name, Local)>,
    /// (break target, continue target) for the innermost loops.
    loops: Vec<(Block, Block)>,
    /// The builder's storage, handed from function to function.
    arena: BuildArena,
}

struct Lowerer<'a> {
    program: &'a Program<'a>,
    sigs: &'a [Sig],
    by_name: &'a [Option<FuncId>],
    b: FunctionBuilder,
    scratch: &'a mut Scratch,
    /// Whether the current block already has a terminator.
    terminated: bool,
    ret: Option<&'a Type>,
}

impl<'a> Lowerer<'a> {
    fn new(
        program: &'a Program<'a>,
        sigs: &'a [Sig],
        by_name: &'a [Option<FuncId>],
        decl: &FnDecl,
        sig: &'a Sig,
        scratch: &'a mut Scratch,
    ) -> Result<Self, FrontendError> {
        let mut b = FunctionBuilder::new_in(
            &mut scratch.arena,
            program.name(decl.name),
            sig.params.clone(),
            sig.ret.clone(),
        );

        // Bind parameters as mutable locals (MJ parameters are assignable).
        scratch.scope.clear();
        scratch.loops.clear();
        for (i, (param, ty)) in program.params(decl).iter().zip(&sig.params).enumerate() {
            if scratch.scope.iter().any(|&(n, _)| n == param.name) {
                return Err(FrontendError::Type {
                    pos: decl.pos,
                    message: format!("duplicate parameter `{}`", program.name(param.name)),
                });
            }
            let l = b.new_local(ty.clone());
            let pv = b.param(i);
            b.set_local(l, pv);
            scratch.scope.push((param.name, l));
        }

        Ok(Lowerer {
            program,
            sigs,
            by_name,
            b,
            scratch,
            terminated: false,
            ret: sig.ret.as_ref(),
        })
    }

    fn run(mut self, decl: &FnDecl) -> Result<Function, FrontendError> {
        self.stmts(decl.body)?;
        if !self.terminated {
            // Fall-through termination: void functions return; value
            // functions return the type's default (0 / false). Functions
            // returning arrays must end in an explicit return.
            match self.ret {
                None => self.b.ret(None),
                Some(Type::Int) => {
                    let z = self.b.iconst(0);
                    self.b.ret(Some(z));
                }
                Some(Type::Bool) => {
                    let z = self.b.bconst(false);
                    self.b.ret(Some(z));
                }
                Some(t) => {
                    return Err(FrontendError::Type {
                        pos: decl.pos,
                        message: format!(
                            "function `{}` returning {t} may fall off the end",
                            self.program.name(decl.name)
                        ),
                    })
                }
            }
        }
        Ok(self.b.finish_in(&mut self.scratch.arena))
    }

    // ---- helpers ------------------------------------------------------

    fn lookup(&self, name: Name, pos: Pos) -> Result<Local, FrontendError> {
        match self.scratch.scope.iter().rev().find(|&&(n, _)| n == name) {
            Some(&(_, l)) => Ok(l),
            None => Err(FrontendError::Type {
                pos,
                message: format!("unknown variable `{}`", self.program.name(name)),
            }),
        }
    }

    fn ty(&self, v: Value) -> &Type {
        self.b.func().value_type(v)
    }

    fn expect(&self, v: Value, want: &Type, pos: Pos, what: &str) -> Result<(), FrontendError> {
        let got = self.ty(v);
        if got != want {
            return Err(FrontendError::Type {
                pos,
                message: format!("{what} has type {got}, expected {want}"),
            });
        }
        Ok(())
    }

    /// Evaluates `array` and checks that it is an array.
    fn array(&mut self, array: ExprId, pos: Pos) -> Result<Value, FrontendError> {
        let a = self.expr(array)?;
        if !self.ty(a).is_array() {
            return Err(FrontendError::Type {
                pos,
                message: format!("cannot index into {}", self.ty(a)),
            });
        }
        Ok(a)
    }

    /// Switches to a fresh, unterminated block.
    fn switch(&mut self, block: Block) {
        self.b.switch_to_block(block);
        self.terminated = false;
    }

    fn jump(&mut self, dst: Block) {
        if !self.terminated {
            self.b.jump(dst);
            self.terminated = true;
        }
    }

    // ---- statements ---------------------------------------------------

    fn stmts(&mut self, body: List<StmtId>) -> Result<(), FrontendError> {
        let mark = self.scratch.scope.len();
        for &s in self.program.body(body) {
            if self.terminated {
                // Unreachable code after return/break: Java rejects it; we
                // simply stop lowering the rest of the block.
                break;
            }
            self.stmt(s)?;
        }
        self.scratch.scope.truncate(mark);
        Ok(())
    }

    fn stmt(&mut self, id: StmtId) -> Result<(), FrontendError> {
        let pos = self.program.stmt_pos(id);
        match *self.program.stmt(id) {
            Stmt::Let { name, ty, init } => {
                let want = lower_type(ty);
                let v = self.expr(init)?;
                self.expect(v, &want, pos, "initializer")?;
                let l = self.b.new_local(want);
                self.b.set_local(l, v);
                self.scratch.scope.push((name, l));
                Ok(())
            }
            Stmt::Assign { name, value } => {
                let l = self.lookup(name, pos)?;
                let v = self.expr(value)?;
                self.expect(v, self.b.func().local_type(l), pos, "assigned value")?;
                self.b.set_local(l, v);
                Ok(())
            }
            Stmt::Store {
                array,
                index,
                value,
            } => {
                let a = self.array(array, pos)?;
                let i = self.expr(index)?;
                self.expect(i, &Type::Int, pos, "array index")?;
                let v = self.expr(value)?;
                let elem = self.ty(a).elem().expect("checked above");
                self.expect(v, elem, pos, "stored value")?;
                self.b.bounds_check(a, i, CheckKind::Lower);
                self.b.bounds_check(a, i, CheckKind::Upper);
                self.b.store(a, i, v);
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr(cond)?;
                self.expect(c, &Type::Bool, pos, "if condition")?;
                let then_b = self.b.new_block();
                let else_b = self.b.new_block();
                let join = self.b.new_block();
                self.b.branch(c, then_b, else_b);
                self.terminated = true;

                self.switch(then_b);
                self.stmts(then_body)?;
                self.jump(join);

                self.switch(else_b);
                self.stmts(else_body)?;
                self.jump(join);

                self.switch(join);
                Ok(())
            }
            Stmt::While { cond, body } => {
                let head = self.b.new_block();
                let body_b = self.b.new_block();
                let exit = self.b.new_block();
                self.jump(head);
                self.switch(head);
                let c = self.expr(cond)?;
                self.expect(c, &Type::Bool, pos, "while condition")?;
                self.b.branch(c, body_b, exit);
                self.terminated = true;

                self.scratch.loops.push((exit, head));
                self.switch(body_b);
                self.stmts(body)?;
                self.jump(head);
                self.scratch.loops.pop();

                self.switch(exit);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                // Scope for the induction variable.
                let mark = self.scratch.scope.len();
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                let head = self.b.new_block();
                let body_b = self.b.new_block();
                let step_b = self.b.new_block();
                let exit = self.b.new_block();
                self.jump(head);
                self.switch(head);
                match cond {
                    Some(c) => {
                        let cv = self.expr(c)?;
                        self.expect(cv, &Type::Bool, pos, "for condition")?;
                        self.b.branch(cv, body_b, exit);
                    }
                    None => self.b.jump(body_b),
                }
                self.terminated = true;

                self.scratch.loops.push((exit, step_b));
                self.switch(body_b);
                self.stmts(body)?;
                self.jump(step_b);
                self.scratch.loops.pop();

                self.switch(step_b);
                if let Some(step) = step {
                    self.stmt(step)?;
                }
                self.jump(head);

                self.scratch.scope.truncate(mark);
                self.switch(exit);
                Ok(())
            }
            Stmt::Return(value) => {
                match (value, self.ret) {
                    (None, None) => self.b.ret(None),
                    (Some(e), Some(want)) => {
                        let v = self.expr(e)?;
                        self.expect(v, want, pos, "return value")?;
                        self.b.ret(Some(v));
                    }
                    (None, Some(t)) => {
                        return Err(FrontendError::Type {
                            pos,
                            message: format!("missing return value of type {t}"),
                        })
                    }
                    (Some(_), None) => {
                        return Err(FrontendError::Type {
                            pos,
                            message: "void function returns a value".into(),
                        })
                    }
                }
                self.terminated = true;
                Ok(())
            }
            Stmt::Break => {
                let (exit, _) = *self.scratch.loops.last().ok_or(FrontendError::Type {
                    pos,
                    message: "`break` outside a loop".into(),
                })?;
                self.b.jump(exit);
                self.terminated = true;
                Ok(())
            }
            Stmt::Continue => {
                let (_, cont) = *self.scratch.loops.last().ok_or(FrontendError::Type {
                    pos,
                    message: "`continue` outside a loop".into(),
                })?;
                self.b.jump(cont);
                self.terminated = true;
                Ok(())
            }
            Stmt::Print(value) => {
                let v = self.expr(value)?;
                self.expect(v, &Type::Int, pos, "printed value")?;
                self.b.output(v);
                Ok(())
            }
            Stmt::Expr(expr) => match *self.program.expr(expr) {
                Expr::Call { name, args } => {
                    self.call(
                        name,
                        args,
                        self.program.expr_pos(expr),
                        /*allow_void=*/ true,
                    )?;
                    Ok(())
                }
                _ => Err(FrontendError::Type {
                    pos,
                    message: "only calls may be used as statements".into(),
                }),
            },
        }
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self, id: ExprId) -> Result<Value, FrontendError> {
        let pos = self.program.expr_pos(id);
        match *self.program.expr(id) {
            Expr::Int(i) => Ok(self.b.iconst(i)),
            Expr::Bool(v) => Ok(self.b.bconst(v)),
            Expr::Var(name) => {
                let l = self.lookup(name, pos)?;
                Ok(self.b.get_local(l))
            }
            Expr::Neg(inner) => {
                let v = self.expr(inner)?;
                self.expect(v, &Type::Int, pos, "negation operand")?;
                Ok(self.b.unary(UnOp::Neg, v))
            }
            Expr::Not(inner) => {
                let v = self.expr(inner)?;
                self.expect(v, &Type::Bool, pos, "`!` operand")?;
                Ok(self.b.unary(UnOp::Not, v))
            }
            Expr::Length(inner) => {
                let v = self.expr(inner)?;
                if !self.ty(v).is_array() {
                    return Err(FrontendError::Type {
                        pos,
                        message: format!("`.length` of non-array {}", self.ty(v)),
                    });
                }
                Ok(self.b.array_len(v))
            }
            Expr::Index { array, index } => {
                let a = self.array(array, pos)?;
                let i = self.expr(index)?;
                self.expect(i, &Type::Int, pos, "array index")?;
                self.b.bounds_check(a, i, CheckKind::Lower);
                self.b.bounds_check(a, i, CheckKind::Upper);
                Ok(self.b.load(a, i))
            }
            Expr::NewArray { elem, len, len2 } => {
                let n = self.expr(len)?;
                self.expect(n, &Type::Int, pos, "array length")?;
                let outer = self.b.new_array(lower_type(elem), n);
                if let Some(len2) = len2 {
                    // new T[n][m]: fill each row. The generated stores are
                    // in-bounds by construction, so no checks are emitted
                    // (they would be pure noise for the optimizer study).
                    let m = self.expr(len2)?;
                    self.expect(m, &Type::Int, pos, "inner array length")?;
                    if elem.rank == 0 {
                        return Err(FrontendError::Type {
                            pos,
                            message: "two-dimensional `new` needs an array element type".into(),
                        });
                    }
                    let inner_ty = lower_type(TypeAst {
                        rank: elem.rank - 1,
                        ..elem
                    });
                    let i = self.b.new_local(Type::Int);
                    let zero = self.b.iconst(0);
                    self.b.set_local(i, zero);
                    let head = self.b.new_block();
                    let body = self.b.new_block();
                    let done = self.b.new_block();
                    self.jump(head);
                    self.switch(head);
                    let iv = self.b.get_local(i);
                    let c = self.b.compare(CmpOp::Lt, iv, n);
                    self.b.branch(c, body, done);
                    self.terminated = true;
                    self.switch(body);
                    let iv2 = self.b.get_local(i);
                    let row = self.b.new_array(inner_ty, m);
                    self.b.store(outer, iv2, row);
                    let one = self.b.iconst(1);
                    let inc = self.b.binary(BinOp::Add, iv2, one);
                    self.b.set_local(i, inc);
                    self.jump(head);
                    self.switch(done);
                }
                Ok(outer)
            }
            Expr::Call { name, args } => {
                let v = self.call(name, args, pos, /*allow_void=*/ false)?;
                Ok(v.expect("non-void enforced by call"))
            }
            Expr::Binary { op, lhs, rhs } => self.binary(op, lhs, rhs, pos),
        }
    }

    fn call(
        &mut self,
        name: Name,
        args: List<ExprId>,
        pos: Pos,
        allow_void: bool,
    ) -> Result<Option<Value>, FrontendError> {
        let Some(id) = self.by_name[name.index()] else {
            return Err(FrontendError::Type {
                pos,
                message: format!("unknown function `{}`", self.program.name(name)),
            });
        };
        let sig = &self.sigs[id.index()];
        let args = self.program.args(args);
        if args.len() != sig.params.len() {
            return Err(FrontendError::Type {
                pos,
                message: format!(
                    "`{}` expects {} arguments, found {}",
                    self.program.name(name),
                    sig.params.len(),
                    args.len()
                ),
            });
        }
        let mut argv = Vec::with_capacity(args.len());
        for (&a, want) in args.iter().zip(&sig.params) {
            let v = self.expr(a)?;
            self.expect(v, want, self.program.expr_pos(a), "call argument")?;
            argv.push(v);
        }
        if sig.ret.is_none() && !allow_void {
            return Err(FrontendError::Type {
                pos,
                message: format!(
                    "void function `{}` used as a value",
                    self.program.name(name)
                ),
            });
        }
        Ok(self.b.call(id, argv, sig.ret.clone()))
    }

    fn binary(
        &mut self,
        op: BinOpAst,
        lhs: ExprId,
        rhs: ExprId,
        pos: Pos,
    ) -> Result<Value, FrontendError> {
        // Short-circuit forms lower to control flow through a temporary.
        if matches!(op, BinOpAst::LogicalAnd | BinOpAst::LogicalOr) {
            let tmp = self.b.new_local(Type::Bool);
            let l = self.expr(lhs)?;
            self.expect(l, &Type::Bool, pos, "logical operand")?;
            let rhs_b = self.b.new_block();
            let short_b = self.b.new_block();
            let join = self.b.new_block();
            if op == BinOpAst::LogicalAnd {
                self.b.branch(l, rhs_b, short_b);
            } else {
                self.b.branch(l, short_b, rhs_b);
            }
            self.terminated = true;

            self.switch(short_b);
            let konst = self.b.bconst(op == BinOpAst::LogicalOr);
            self.b.set_local(tmp, konst);
            self.jump(join);

            self.switch(rhs_b);
            let r = self.expr(rhs)?;
            self.expect(r, &Type::Bool, pos, "logical operand")?;
            self.b.set_local(tmp, r);
            self.jump(join);

            self.switch(join);
            return Ok(self.b.get_local(tmp));
        }

        let l = self.expr(lhs)?;
        let r = self.expr(rhs)?;
        self.expect(l, &Type::Int, pos, "operand")?;
        self.expect(r, &Type::Int, pos, "operand")?;
        let v = match op {
            BinOpAst::Add => self.b.binary(BinOp::Add, l, r),
            BinOpAst::Sub => self.b.binary(BinOp::Sub, l, r),
            BinOpAst::Mul => self.b.binary(BinOp::Mul, l, r),
            BinOpAst::Div => self.b.binary(BinOp::Div, l, r),
            BinOpAst::Rem => self.b.binary(BinOp::Rem, l, r),
            BinOpAst::And => self.b.binary(BinOp::And, l, r),
            BinOpAst::Or => self.b.binary(BinOp::Or, l, r),
            BinOpAst::Xor => self.b.binary(BinOp::Xor, l, r),
            BinOpAst::Shl => self.b.binary(BinOp::Shl, l, r),
            BinOpAst::Shr => self.b.binary(BinOp::Shr, l, r),
            BinOpAst::Lt => self.b.compare(CmpOp::Lt, l, r),
            BinOpAst::Le => self.b.compare(CmpOp::Le, l, r),
            BinOpAst::Gt => self.b.compare(CmpOp::Gt, l, r),
            BinOpAst::Ge => self.b.compare(CmpOp::Ge, l, r),
            BinOpAst::Eq => self.b.compare(CmpOp::Eq, l, r),
            BinOpAst::Ne => self.b.compare(CmpOp::Ne, l, r),
            BinOpAst::LogicalAnd | BinOpAst::LogicalOr => unreachable!("handled above"),
        };
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use abcd_vm::{RtVal, Vm};

    fn compile(src: &str) -> Module {
        lower(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn every_index_gets_two_checks() {
        let m = compile("fn f(a: int[]) -> int { return a[3] + a[4]; }");
        let f = m.function(m.function_by_name("f").unwrap());
        assert_eq!(f.count_checks(), (4, 0, 0));
        assert_eq!(f.check_site_count(), 4);
    }

    #[test]
    fn bubble_sort_sorts() {
        let src = r#"
            fn sort(a: int[]) {
                for (let i: int = 0; i < a.length - 1; i = i + 1) {
                    for (let j: int = 0; j < a.length - 1 - i; j = j + 1) {
                        if (a[j] > a[j + 1]) {
                            let t: int = a[j];
                            a[j] = a[j + 1];
                            a[j + 1] = t;
                        }
                    }
                }
            }
        "#;
        let m = compile(src);
        let mut vm = Vm::new(&m);
        let arr = vm.alloc_int_array(&[5, 1, 4, 2, 3]);
        vm.call_by_name("sort", &[arr]).unwrap();
        assert_eq!(vm.read_int_array(arr), vec![1, 2, 3, 4, 5]);
        assert!(vm.stats().dynamic_upper_checks() > 0);
    }

    #[test]
    fn short_circuit_avoids_rhs() {
        // rhs would trap (a[9]) if evaluated.
        let src = r#"
            fn f(a: int[]) -> int {
                if (false && a[9] == 0) { return 1; }
                return 2;
            }
        "#;
        let m = compile(src);
        let mut vm = Vm::new(&m);
        let arr = vm.alloc_int_array(&[1]);
        assert_eq!(vm.call_by_name("f", &[arr]).unwrap(), Some(RtVal::Int(2)));
    }

    #[test]
    fn two_dimensional_new_allocates_rows() {
        let src = r#"
            fn f() -> int {
                let m: int[][] = new int[3][5];
                m[2][4] = 7;
                return m[2][4] + m[0].length;
            }
        "#;
        let m = compile(src);
        let mut vm = Vm::new(&m);
        assert_eq!(vm.call_by_name("f", &[]).unwrap(), Some(RtVal::Int(12)));
    }

    #[test]
    fn break_and_continue_flow() {
        let src = r#"
            fn f() -> int {
                let s: int = 0;
                for (let i: int = 0; i < 10; i = i + 1) {
                    if (i == 3) { continue; }
                    if (i == 6) { break; }
                    s = s + i;
                }
                return s;
            }
        "#;
        let m = compile(src);
        let mut vm = Vm::new(&m);
        // 0+1+2+4+5 = 12
        assert_eq!(vm.call_by_name("f", &[]).unwrap(), Some(RtVal::Int(12)));
    }

    #[test]
    fn recursion_and_calls() {
        let src = r#"
            fn fib(n: int) -> int {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() -> int { return fib(10); }
        "#;
        let m = compile(src);
        let mut vm = Vm::new(&m);
        assert_eq!(vm.call_by_name("main", &[]).unwrap(), Some(RtVal::Int(55)));
    }

    #[test]
    fn type_errors_are_reported() {
        let bad = [
            "fn f() { let x: int = true; }",
            "fn f() { y = 1; }",
            "fn f(a: int) -> int { return a[0]; }",
            "fn f() -> int { return g(); }",
            "fn f() { break; }",
            "fn f(a: int[]) { print(a); }",
            "fn f() -> int[] { let x: int = 0; }",
            "fn g() {} fn f() -> int { return g(); }",
        ];
        for src in bad {
            let p = parse(src).unwrap();
            assert!(lower(&p).is_err(), "should reject: {src}");
        }
    }

    #[test]
    fn params_are_assignable() {
        let src = "fn f(x: int) -> int { x = x + 1; return x; }";
        let m = compile(src);
        let mut vm = Vm::new(&m);
        assert_eq!(
            vm.call_by_name("f", &[RtVal::Int(4)]).unwrap(),
            Some(RtVal::Int(5))
        );
    }

    #[test]
    fn shadowing_in_inner_scope() {
        let src = r#"
            fn f() -> int {
                let x: int = 1;
                if (true) { let x: int = 2; print(x); }
                return x;
            }
        "#;
        let m = compile(src);
        let mut vm = Vm::new(&m);
        assert_eq!(vm.call_by_name("f", &[]).unwrap(), Some(RtVal::Int(1)));
        assert_eq!(vm.output(), &[2]);
    }

    #[test]
    fn whole_pipeline_to_essa_executes_identically() {
        let src = r#"
            fn sum(a: int[]) -> int {
                let s: int = 0;
                for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
                return s;
            }
        "#;
        let m = compile(src);
        let mut m2 = m.clone();
        abcd_ssa::module_to_essa(&mut m2).unwrap();
        let mut vm1 = Vm::new(&m);
        let a1 = vm1.alloc_int_array(&[2, 4, 8]);
        let mut vm2 = Vm::new(&m2);
        let a2 = vm2.alloc_int_array(&[2, 4, 8]);
        assert_eq!(
            vm1.call_by_name("sum", &[a1]).unwrap(),
            vm2.call_by_name("sum", &[a2]).unwrap()
        );
    }
}
