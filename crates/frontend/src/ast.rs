//! The MJ abstract syntax tree, stored flat.
//!
//! A [`Program`] owns one `Vec` per node kind — functions, parameters,
//! statements, expressions — plus two pools that hold the children of
//! blocks and argument lists contiguously. Nodes refer to each other by
//! dense ids ([`StmtId`], [`ExprId`]) and to their children by [`List`]
//! ranges into the pools, so a whole program is a handful of allocations
//! and drops in as many frees. Identifiers are [`Name`]s: ids into the
//! program's name table, which borrows the source text.

use crate::error::Pos;
use std::marker::PhantomData;

macro_rules! id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        pub struct $name(u32);

        impl $name {
            fn new(index: usize) -> $name {
                $name(u32::try_from(index).expect("program too large"))
            }

            /// The dense index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

id! {
    /// An identifier: an index into the program's name table. Equal
    /// spellings are equal names.
    Name
}

id! {
    /// A statement of the program.
    StmtId
}

id! {
    /// An expression of the program.
    ExprId
}

/// A contiguous run of `T`s in one of the program's pools.
#[derive(Clone, Copy, Debug)]
pub struct List<T> {
    start: u32,
    len: u32,
    of: PhantomData<T>,
}

impl<T: Copy> List<T> {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// Number of elements.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// The scalar at the bottom of a type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scalar {
    /// `int`
    Int,
    /// `bool`
    Bool,
}

/// A source type annotation: a scalar under `rank` levels of `[]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TypeAst {
    /// The element type at the bottom.
    pub scalar: Scalar,
    /// Array nesting depth (`0` for a scalar, `2` for `int[][]`).
    pub rank: u32,
}

impl TypeAst {
    /// The array type whose elements are `self`.
    pub fn array_of(self) -> TypeAst {
        TypeAst {
            rank: self.rank + 1,
            ..self
        }
    }
}

/// A function parameter.
#[derive(Clone, Copy, Debug)]
pub struct Param {
    /// Parameter name.
    pub name: Name,
    /// Declared type.
    pub ty: TypeAst,
}

/// A function declaration.
#[derive(Clone, Copy, Debug)]
pub struct FnDecl {
    /// Name.
    pub name: Name,
    /// Parameters, in order.
    pub params: List<Param>,
    /// Return type, if any.
    pub ret: Option<TypeAst>,
    /// Body.
    pub body: List<StmtId>,
    /// Position of the `fn` keyword.
    pub pos: Pos,
}

/// A statement.
#[derive(Clone, Copy, Debug)]
pub enum Stmt {
    /// `let name: ty = init;` (the initializer is mandatory, which
    /// enforces definite assignment).
    Let {
        /// Variable name.
        name: Name,
        /// Declared type.
        ty: TypeAst,
        /// Initializer.
        init: ExprId,
    },
    /// `name = value;`
    Assign {
        /// Target variable.
        name: Name,
        /// Assigned value.
        value: ExprId,
    },
    /// `array[index] = value;`
    Store {
        /// Array expression.
        array: ExprId,
        /// Index expression.
        index: ExprId,
        /// Stored value.
        value: ExprId,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition.
        cond: ExprId,
        /// Then-branch.
        then_body: List<StmtId>,
        /// Else-branch (possibly empty).
        else_body: List<StmtId>,
    },
    /// `while (cond) { .. }`
    While {
        /// Condition.
        cond: ExprId,
        /// Loop body.
        body: List<StmtId>,
    },
    /// `for (init; cond; step) { .. }` — sugar retained in the AST so the
    /// lowering can mirror the paper's loop shapes exactly.
    For {
        /// Initializer (a `Let` or `Assign`), if any.
        init: Option<StmtId>,
        /// Condition (defaults to `true`).
        cond: Option<ExprId>,
        /// Step statement, if any.
        step: Option<StmtId>,
        /// Loop body.
        body: List<StmtId>,
    },
    /// `return e?;`
    Return(Option<ExprId>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `print(e);` (the value must be `int`).
    Print(ExprId),
    /// An expression evaluated for its side effects (a call).
    Expr(ExprId),
}

/// A binary operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum BinOpAst {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    LogicalAnd,
    LogicalOr,
}

/// An expression.
#[derive(Clone, Copy, Debug)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// Variable reference.
    Var(Name),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOpAst,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// Unary negation `-e`.
    Neg(ExprId),
    /// Logical not `!e`.
    Not(ExprId),
    /// Array indexing `a[i]` (lowered with lower+upper bounds checks).
    Index {
        /// Array expression.
        array: ExprId,
        /// Index expression.
        index: ExprId,
    },
    /// `a.length`
    Length(ExprId),
    /// `new int[n]` / `new int[n][m]` (the 2-D form lowers to a loop that
    /// allocates inner rows).
    NewArray {
        /// Element type of the outermost dimension.
        elem: TypeAst,
        /// Length of the outermost dimension.
        len: ExprId,
        /// Optional second dimension.
        len2: Option<ExprId>,
    },
    /// Function call `f(a, b)`.
    Call {
        /// Callee name.
        name: Name,
        /// Arguments.
        args: List<ExprId>,
    },
}

/// A whole program: its functions and every node they own, in flat
/// tables. `'src` is the source text the name table borrows.
#[derive(Clone, Debug, Default)]
pub struct Program<'src> {
    names: Vec<&'src str>,
    functions: Vec<FnDecl>,
    params: Vec<Param>,
    stmts: Vec<(Stmt, Pos)>,
    exprs: Vec<(Expr, Pos)>,
    bodies: Vec<StmtId>,
    args: Vec<ExprId>,
}

impl<'src> Program<'src> {
    /// Functions in source order.
    pub fn functions(&self) -> &[FnDecl] {
        &self.functions
    }

    /// The parameters of `decl`.
    pub fn params(&self, decl: &FnDecl) -> &[Param] {
        &self.params[decl.params.range()]
    }

    /// The statements of a block, in order.
    pub fn body(&self, list: List<StmtId>) -> &[StmtId] {
        &self.bodies[list.range()]
    }

    /// The arguments of a call, in order.
    pub fn args(&self, list: List<ExprId>) -> &[ExprId] {
        &self.args[list.range()]
    }

    /// Statement `id`.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.index()].0
    }

    /// Where statement `id` starts.
    pub fn stmt_pos(&self, id: StmtId) -> Pos {
        self.stmts[id.index()].1
    }

    /// Expression `id`.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.index()].0
    }

    /// The position diagnostics report for expression `id`.
    pub fn expr_pos(&self, id: ExprId) -> Pos {
        self.exprs[id.index()].1
    }

    /// The spelling of `name`.
    pub fn name(&self, name: Name) -> &'src str {
        self.names[name.index()]
    }

    /// Number of distinct names: the size of a dense table indexed by
    /// [`Name::index`].
    pub fn name_count(&self) -> usize {
        self.names.len()
    }

    // ---- construction (the parser) --------------------------------------

    pub(crate) fn add_name(&mut self, text: &'src str) -> Name {
        self.names.push(text);
        Name::new(self.names.len() - 1)
    }

    pub(crate) fn add_function(&mut self, decl: FnDecl) {
        self.functions.push(decl);
    }

    pub(crate) fn add_stmt(&mut self, stmt: Stmt, pos: Pos) -> StmtId {
        self.stmts.push((stmt, pos));
        StmtId::new(self.stmts.len() - 1)
    }

    pub(crate) fn add_expr(&mut self, expr: Expr, pos: Pos) -> ExprId {
        self.exprs.push((expr, pos));
        ExprId::new(self.exprs.len() - 1)
    }

    /// Moves `pending[mark..]` into the parameter pool as one list.
    pub(crate) fn add_params(&mut self, pending: &mut Vec<Param>, mark: usize) -> List<Param> {
        pool(&mut self.params, pending, mark)
    }

    /// Moves `pending[mark..]` into the block pool as one list.
    pub(crate) fn add_body(&mut self, pending: &mut Vec<StmtId>, mark: usize) -> List<StmtId> {
        pool(&mut self.bodies, pending, mark)
    }

    /// Moves `pending[mark..]` into the argument pool as one list.
    pub(crate) fn add_args(&mut self, pending: &mut Vec<ExprId>, mark: usize) -> List<ExprId> {
        pool(&mut self.args, pending, mark)
    }
}

/// Nested blocks interleave their children on the parser's pending stack;
/// a finished block moves its run to the end of the pool, contiguously.
fn pool<T: Copy>(pool: &mut Vec<T>, pending: &mut Vec<T>, mark: usize) -> List<T> {
    let start = pool.len();
    pool.extend(pending.drain(mark..));
    List {
        start: u32::try_from(start).expect("program too large"),
        len: (pool.len() - start) as u32,
        of: PhantomData,
    }
}
