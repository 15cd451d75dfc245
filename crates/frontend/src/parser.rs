//! Recursive-descent parser for MJ.

use crate::ast::*;
use crate::error::{FrontendError, Pos};
use crate::token::{lex, Keyword, Span, Spanned, Sym, Token};
use abcd_ir::Fnv1a;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Parses MJ source text into an AST that borrows its identifiers from
/// `src`.
///
/// # Errors
///
/// Returns the first lexical or syntax error.
pub fn parse(src: &str) -> Result<Program<'_>, FrontendError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        src,
        tokens,
        pos: 0,
        program: Program::default(),
        names: NameTable::default(),
        pending_stmts: Vec::new(),
        pending_exprs: Vec::new(),
        pending_params: Vec::new(),
    };
    p.program()?;
    Ok(p.program)
}

/// Identifiers are short, so FNV-1a hashes them faster than SipHash; the
/// table is private to one parse.
type NameTable<'src> = HashMap<&'src str, Name, BuildHasherDefault<Fnv1a>>;

struct Parser<'src> {
    src: &'src str,
    tokens: Vec<Spanned>,
    pos: usize,
    program: Program<'src>,
    names: NameTable<'src>,
    /// Children of the blocks, calls and signatures being parsed; each
    /// moves into the program's pools as one list when it closes.
    pending_stmts: Vec<StmtId>,
    pending_exprs: Vec<ExprId>,
    pending_params: Vec<Param>,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> Token {
        self.tokens[self.pos].token
    }

    /// The token after the next; only asked after a token other than
    /// `Eof`, which is always last.
    fn peek2(&self) -> Token {
        self.tokens[self.pos + 1].token
    }

    fn peek_pos(&self) -> Pos {
        self.tokens[self.pos].pos
    }

    fn bump(&mut self) -> Token {
        let t = self.peek();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, FrontendError> {
        Self::err_at(self.peek_pos(), message)
    }

    /// A parse error at `pos`: the position of a token already bumped.
    fn err_at<T>(pos: Pos, message: impl Into<String>) -> Result<T, FrontendError> {
        Err(FrontendError::Parse {
            pos,
            message: message.into(),
        })
    }

    /// `t` as diagnostics quote it.
    fn shown(&self, t: Token) -> impl std::fmt::Display + 'src {
        t.display(self.src)
    }

    fn expect_sym(&mut self, s: Sym) -> Result<(), FrontendError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            self.err(format!(
                "expected {s:?}, found `{}`",
                self.shown(self.peek())
            ))
        }
    }

    fn expect_kw(&mut self, k: Keyword) -> Result<(), FrontendError> {
        if self.peek() == Token::Keyword(k) {
            self.bump();
            Ok(())
        } else {
            self.err(format!(
                "expected {k:?}, found `{}`",
                self.shown(self.peek())
            ))
        }
    }

    fn eat_sym(&mut self, s: Sym) -> bool {
        if self.peek() == Token::Sym(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// The name spelled by `span`, entered into the table on first use.
    fn name(&mut self, span: Span) -> Name {
        let text = span.text(self.src);
        if let Some(&name) = self.names.get(text) {
            return name;
        }
        let name = self.program.add_name(text);
        self.names.insert(text, name);
        name
    }

    fn ident(&mut self) -> Result<Name, FrontendError> {
        match self.peek() {
            Token::Ident(span) => {
                self.bump();
                Ok(self.name(span))
            }
            t => self.err(format!("expected identifier, found `{}`", self.shown(t))),
        }
    }

    fn program(&mut self) -> Result<(), FrontendError> {
        while self.peek() != Token::Eof {
            self.function()?;
        }
        Ok(())
    }

    fn function(&mut self) -> Result<(), FrontendError> {
        let pos = self.peek_pos();
        self.expect_kw(Keyword::Fn)?;
        let name = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mark = self.pending_params.len();
        if self.peek() != Token::Sym(Sym::RParen) {
            loop {
                let pname = self.ident()?;
                self.expect_sym(Sym::Colon)?;
                let ty = self.type_ast()?;
                self.pending_params.push(Param { name: pname, ty });
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let params = self.program.add_params(&mut self.pending_params, mark);
        self.expect_sym(Sym::RParen)?;
        let ret = if self.eat_sym(Sym::Arrow) {
            Some(self.type_ast()?)
        } else {
            None
        };
        let body = self.block()?;
        self.program.add_function(FnDecl {
            name,
            params,
            ret,
            body,
            pos,
        });
        Ok(())
    }

    /// Consumes `[]` pairs after a type, wrapping `ty` once per pair.
    fn array_suffixes(&mut self, mut ty: TypeAst) -> TypeAst {
        while self.peek() == Token::Sym(Sym::LBracket) && self.peek2() == Token::Sym(Sym::RBracket)
        {
            self.bump();
            self.bump();
            ty = ty.array_of();
        }
        ty
    }

    fn scalar(t: Token) -> Option<TypeAst> {
        let scalar = match t {
            Token::Keyword(Keyword::Int) => Scalar::Int,
            Token::Keyword(Keyword::Bool) => Scalar::Bool,
            _ => return None,
        };
        Some(TypeAst { scalar, rank: 0 })
    }

    fn type_ast(&mut self) -> Result<TypeAst, FrontendError> {
        let pos = self.peek_pos();
        let t = self.bump();
        match Self::scalar(t) {
            Some(ty) => Ok(self.array_suffixes(ty)),
            None => Self::err_at(pos, format!("expected type, found `{}`", self.shown(t))),
        }
    }

    fn block(&mut self) -> Result<List<StmtId>, FrontendError> {
        self.expect_sym(Sym::LBrace)?;
        let mark = self.pending_stmts.len();
        while self.peek() != Token::Sym(Sym::RBrace) {
            let s = self.stmt()?;
            self.pending_stmts.push(s);
        }
        self.expect_sym(Sym::RBrace)?;
        Ok(self.program.add_body(&mut self.pending_stmts, mark))
    }

    /// A statement usable in `for` headers: `let` or assignment (no `;`).
    fn simple_stmt(&mut self) -> Result<StmtId, FrontendError> {
        let pos = self.peek_pos();
        if self.peek() == Token::Keyword(Keyword::Let) {
            self.bump();
            let name = self.ident()?;
            self.expect_sym(Sym::Colon)?;
            let ty = self.type_ast()?;
            self.expect_sym(Sym::Assign)?;
            let init = self.expr()?;
            return Ok(self.program.add_stmt(Stmt::Let { name, ty, init }, pos));
        }
        // assignment or store
        let target = self.expr()?;
        let assign = self.peek() == Token::Sym(Sym::Assign);
        let stmt = match *self.program.expr(target) {
            Expr::Var(name) if assign => {
                self.bump();
                let value = self.expr()?;
                Stmt::Assign { name, value }
            }
            Expr::Index { array, index } if assign => {
                self.bump();
                let value = self.expr()?;
                Stmt::Store {
                    array,
                    index,
                    value,
                }
            }
            _ => Stmt::Expr(target),
        };
        Ok(self.program.add_stmt(stmt, pos))
    }

    fn stmt(&mut self) -> Result<StmtId, FrontendError> {
        let pos = self.peek_pos();
        let stmt = match self.peek() {
            Token::Keyword(Keyword::If) => {
                self.bump();
                self.expect_sym(Sym::LParen)?;
                let cond = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                let then_body = self.block()?;
                let else_body = if self.peek() == Token::Keyword(Keyword::Else) {
                    self.bump();
                    if self.peek() == Token::Keyword(Keyword::If) {
                        let mark = self.pending_stmts.len();
                        let nested = self.stmt()?;
                        self.pending_stmts.push(nested);
                        self.program.add_body(&mut self.pending_stmts, mark)
                    } else {
                        self.block()?
                    }
                } else {
                    let mark = self.pending_stmts.len();
                    self.program.add_body(&mut self.pending_stmts, mark)
                };
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                }
            }
            Token::Keyword(Keyword::While) => {
                self.bump();
                self.expect_sym(Sym::LParen)?;
                let cond = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                let body = self.block()?;
                Stmt::While { cond, body }
            }
            Token::Keyword(Keyword::For) => {
                self.bump();
                self.expect_sym(Sym::LParen)?;
                let init = if self.peek() == Token::Sym(Sym::Semi) {
                    None
                } else {
                    Some(self.simple_stmt()?)
                };
                self.expect_sym(Sym::Semi)?;
                let cond = if self.peek() == Token::Sym(Sym::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_sym(Sym::Semi)?;
                let step = if self.peek() == Token::Sym(Sym::RParen) {
                    None
                } else {
                    Some(self.simple_stmt()?)
                };
                self.expect_sym(Sym::RParen)?;
                let body = self.block()?;
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                }
            }
            Token::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.peek() == Token::Sym(Sym::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_sym(Sym::Semi)?;
                Stmt::Return(value)
            }
            Token::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_sym(Sym::Semi)?;
                Stmt::Break
            }
            Token::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_sym(Sym::Semi)?;
                Stmt::Continue
            }
            Token::Keyword(Keyword::Print) => {
                self.bump();
                self.expect_sym(Sym::LParen)?;
                let value = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                self.expect_sym(Sym::Semi)?;
                Stmt::Print(value)
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect_sym(Sym::Semi)?;
                return Ok(s);
            }
        };
        Ok(self.program.add_stmt(stmt, pos))
    }

    fn expr(&mut self) -> Result<ExprId, FrontendError> {
        self.binary_expr(0)
    }

    /// Precedence-climbing binary expression parser.
    fn binary_expr(&mut self, min_level: u8) -> Result<ExprId, FrontendError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, level) = match self.peek() {
                Token::Sym(Sym::OrOr) => (BinOpAst::LogicalOr, 1),
                Token::Sym(Sym::AndAnd) => (BinOpAst::LogicalAnd, 2),
                Token::Sym(Sym::Pipe) => (BinOpAst::Or, 3),
                Token::Sym(Sym::Caret) => (BinOpAst::Xor, 4),
                Token::Sym(Sym::Amp) => (BinOpAst::And, 5),
                Token::Sym(Sym::EqEq) => (BinOpAst::Eq, 6),
                Token::Sym(Sym::Ne) => (BinOpAst::Ne, 6),
                Token::Sym(Sym::Lt) => (BinOpAst::Lt, 7),
                Token::Sym(Sym::Le) => (BinOpAst::Le, 7),
                Token::Sym(Sym::Gt) => (BinOpAst::Gt, 7),
                Token::Sym(Sym::Ge) => (BinOpAst::Ge, 7),
                Token::Sym(Sym::Shl) => (BinOpAst::Shl, 8),
                Token::Sym(Sym::Shr) => (BinOpAst::Shr, 8),
                Token::Sym(Sym::Plus) => (BinOpAst::Add, 9),
                Token::Sym(Sym::Minus) => (BinOpAst::Sub, 9),
                Token::Sym(Sym::Star) => (BinOpAst::Mul, 10),
                Token::Sym(Sym::Slash) => (BinOpAst::Div, 10),
                Token::Sym(Sym::Percent) => (BinOpAst::Rem, 10),
                _ => break,
            };
            if level < min_level {
                break;
            }
            let pos = self.peek_pos();
            self.bump();
            let rhs = self.binary_expr(level + 1)?;
            lhs = self.program.add_expr(Expr::Binary { op, lhs, rhs }, pos);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<ExprId, FrontendError> {
        let pos = self.peek_pos();
        match self.peek() {
            Token::Sym(Sym::Minus) => {
                self.bump();
                let inner = self.unary_expr()?;
                Ok(self.program.add_expr(Expr::Neg(inner), pos))
            }
            Token::Sym(Sym::Bang) => {
                self.bump();
                let inner = self.unary_expr()?;
                Ok(self.program.add_expr(Expr::Not(inner), pos))
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<ExprId, FrontendError> {
        let mut e = self.primary_expr()?;
        loop {
            let pos = self.peek_pos();
            if self.eat_sym(Sym::LBracket) {
                let index = self.expr()?;
                self.expect_sym(Sym::RBracket)?;
                e = self.program.add_expr(Expr::Index { array: e, index }, pos);
            } else if self.peek() == Token::Sym(Sym::Dot) {
                self.bump();
                self.expect_kw(Keyword::Length)?;
                e = self.program.add_expr(Expr::Length(e), pos);
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<ExprId, FrontendError> {
        let pos = self.peek_pos();
        let expr = match self.bump() {
            Token::Int(i) => Expr::Int(i),
            Token::Keyword(Keyword::True) => Expr::Bool(true),
            Token::Keyword(Keyword::False) => Expr::Bool(false),
            Token::Keyword(Keyword::New) => {
                // new <base-type> [len] ([len2])? ([])*
                let base_pos = self.peek_pos();
                let t = self.bump();
                let Some(base) = Self::scalar(t) else {
                    return Self::err_at(
                        base_pos,
                        format!(
                            "expected element type after `new`, found `{}`",
                            self.shown(t)
                        ),
                    );
                };
                self.expect_sym(Sym::LBracket)?;
                let len = self.expr()?;
                self.expect_sym(Sym::RBracket)?;
                let mut len2 = None;
                if self.peek() == Token::Sym(Sym::LBracket)
                    && self.peek2() != Token::Sym(Sym::RBracket)
                {
                    self.bump();
                    len2 = Some(self.expr()?);
                    self.expect_sym(Sym::RBracket)?;
                }
                // trailing `[]` pairs add array nesting to the element type
                let mut elem = self.array_suffixes(base);
                if len2.is_some() {
                    // `new int[n][m]`: element type of the outer array is T[].
                    elem = elem.array_of();
                }
                Expr::NewArray { elem, len, len2 }
            }
            Token::Sym(Sym::LParen) => {
                let e = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                return Ok(e);
            }
            Token::Ident(span) => {
                let name = self.name(span);
                if self.eat_sym(Sym::LParen) {
                    let mark = self.pending_exprs.len();
                    if self.peek() != Token::Sym(Sym::RParen) {
                        loop {
                            let arg = self.expr()?;
                            self.pending_exprs.push(arg);
                            if !self.eat_sym(Sym::Comma) {
                                break;
                            }
                        }
                    }
                    let args = self.program.add_args(&mut self.pending_exprs, mark);
                    self.expect_sym(Sym::RParen)?;
                    Expr::Call { name, args }
                } else {
                    Expr::Var(name)
                }
            }
            t => {
                return Self::err_at(
                    pos,
                    format!("expected expression, found `{}`", self.shown(t)),
                )
            }
        };
        Ok(self.program.add_expr(expr, pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_stmt<'p>(p: &'p Program<'_>) -> &'p Stmt {
        p.stmt(p.body(p.functions()[0].body)[0])
    }

    #[test]
    fn parses_bubble_sort_skeleton() {
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
        let p = parse(src).unwrap();
        assert_eq!(p.functions().len(), 1);
        let f = &p.functions()[0];
        assert_eq!(p.name(f.name), "sort");
        assert_eq!(p.params(f).len(), 1);
        assert!(f.ret.is_none());
    }

    #[test]
    fn equal_spellings_are_one_name() {
        let p = parse("fn f(x: int) -> int { return x; }").unwrap();
        let f = &p.functions()[0];
        let Stmt::Return(Some(e)) = *first_stmt(&p) else {
            panic!()
        };
        let Expr::Var(used) = *p.expr(e) else {
            panic!()
        };
        assert_eq!(used, p.params(f)[0].name);
        assert_eq!(p.name_count(), 2);
    }

    #[test]
    fn parses_types_and_new() {
        let src = r#"
            fn f() -> int[][] {
                let m: int[][] = new int[3][4];
                let v: int[] = new int[10];
                let b: bool = true && !false || 1 < 2;
                return m;
            }
        "#;
        let p = parse(src).unwrap();
        let int = |rank| TypeAst {
            scalar: Scalar::Int,
            rank,
        };
        assert_eq!(p.functions()[0].ret, Some(int(2)));
        let Stmt::Let { ty, init, .. } = *first_stmt(&p) else {
            panic!()
        };
        assert_eq!(ty, int(2));
        let Expr::NewArray { elem, len2, .. } = *p.expr(init) else {
            panic!()
        };
        assert_eq!(elem, int(1));
        assert!(len2.is_some());
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse("fn f() -> int { return 1 + 2 * 3; }").unwrap();
        let Stmt::Return(Some(e)) = *first_stmt(&p) else {
            panic!()
        };
        let Expr::Binary { op, rhs, .. } = *p.expr(e) else {
            panic!()
        };
        assert_eq!(op, BinOpAst::Add);
        assert!(matches!(
            p.expr(rhs),
            Expr::Binary {
                op: BinOpAst::Mul,
                ..
            }
        ));
    }

    #[test]
    fn else_if_chains() {
        let src = "fn f(x: int) -> int { if (x < 0) { return 0; } else if (x < 10) { return 1; } else { return 2; } }";
        let p = parse(src).unwrap();
        let Stmt::If { else_body, .. } = *first_stmt(&p) else {
            panic!()
        };
        assert_eq!(else_body.len(), 1);
        assert!(matches!(p.stmt(p.body(else_body)[0]), Stmt::If { .. }));
    }

    #[test]
    fn nested_blocks_keep_their_own_statements() {
        let p = parse("fn f() { while (true) { print(1); print(2); } print(3); }").unwrap();
        let body = p.body(p.functions()[0].body);
        assert_eq!(body.len(), 2);
        let Stmt::While { body: inner, .. } = *p.stmt(body[0]) else {
            panic!()
        };
        assert_eq!(inner.len(), 2);
        assert!(matches!(p.stmt(body[1]), Stmt::Print(_)));
    }

    #[test]
    fn store_statement_parses() {
        let p = parse("fn f(a: int[][]) { a[0][1] = 5; }").unwrap();
        let Stmt::Store { array, .. } = *first_stmt(&p) else {
            panic!("expected store")
        };
        assert!(matches!(p.expr(array), Expr::Index { .. }));
    }

    #[test]
    fn call_arguments_are_pooled_in_order() {
        let p = parse("fn f() { g(1, h(2, 3), 4); }").unwrap();
        let Stmt::Expr(call) = *first_stmt(&p) else {
            panic!()
        };
        let Expr::Call { args, .. } = *p.expr(call) else {
            panic!()
        };
        let ints: Vec<_> = p
            .args(args)
            .iter()
            .map(|&a| match *p.expr(a) {
                Expr::Int(i) => i,
                Expr::Call { args, .. } => 10 * args.len() as i64,
                _ => panic!(),
            })
            .collect();
        assert_eq!(ints, [1, 20, 4]);
    }

    #[test]
    fn missing_semi_is_reported() {
        let err = parse("fn f() { let x: int = 1 }").unwrap_err();
        assert!(matches!(err, FrontendError::Parse { .. }));
    }

    #[test]
    fn break_continue_parse() {
        let p = parse("fn f() { while (true) { break; continue; } }").unwrap();
        let Stmt::While { body, .. } = *first_stmt(&p) else {
            panic!()
        };
        let body = p.body(body);
        assert!(matches!(p.stmt(body[0]), Stmt::Break));
        assert!(matches!(p.stmt(body[1]), Stmt::Continue));
    }
}
