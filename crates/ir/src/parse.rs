//! A parser for the textual IR format produced by the `Display` impls —
//! the inverse of `print.rs`.
//!
//! Round-tripping (`parse(func.to_string())`) is guaranteed by property
//! tests; the format is handy for writing IR-level tests and for pasting
//! optimizer dumps back into a reproducible harness.
//!
//! The grammar is line-oriented:
//!
//! ```text
//! func @name(v0: int[], v1: int) -> int {
//!   locals loc0: int, loc1: int[][]
//! bb0:
//!     v2: int = const 3
//!     v3: int = add v2, v2
//!     check.upper v0[v3] @ck0
//!     v4: int = pi v3, [checked.upper v0 @ck0]
//!     br v5, bb1, bb2
//! ...
//! }
//! ```
//!
//! Value names in the text are arbitrary (`v17` may appear before `v9`);
//! the parser renumbers them densely in definition order.

use crate::entities::{Block, CheckSite, FuncId, Local, Value};
use crate::function::Function;
use crate::inst::{BinOp, CheckKind, CmpOp, InstKind, PiGuard, Terminator, UnOp};
use crate::module::Module;
use crate::types::Type;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A failure while parsing textual IR.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseIrError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseIrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseIrError {}

/// Parses a whole module (one or more `func` definitions).
///
/// # Errors
///
/// Returns the first syntax error with its line number.
pub fn parse_module(text: &str) -> Result<Module, ParseIrError> {
    let mut module = Module::new();
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim_end()))
        .collect();
    let mut i = 0;
    while i < lines.len() {
        let (_, l) = lines[i];
        if l.trim().is_empty() {
            i += 1;
            continue;
        }
        let (func, consumed) = parse_function(&lines[i..])?;
        module.add_function(func);
        i += consumed;
    }
    Ok(module)
}

/// Parses a single function (convenience wrapper).
///
/// # Errors
///
/// Returns the first syntax error.
pub fn parse_function_text(text: &str) -> Result<Function, ParseIrError> {
    let module = parse_module(text)?;
    if module.function_count() != 1 {
        return Err(ParseIrError {
            line: 1,
            message: format!("expected 1 function, found {}", module.function_count()),
        });
    }
    Ok(module.function(FuncId::new(0)).clone())
}

// ---------------------------------------------------------------------

struct P<'a> {
    line_no: usize,
    rest: &'a str,
}

impl<'a> P<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseIrError> {
        Err(ParseIrError {
            line: self.line_no,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if let Some(r) = self.rest.strip_prefix(token) {
            self.rest = r;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseIrError> {
        if self.eat(token) {
            Ok(())
        } else {
            self.err(format!("expected `{token}` at `{}`", self.rest))
        }
    }

    /// An identifier; `$` is allowed because the optimizer names the bodies
    /// behind a guarded entry `f$fast` and `f$slow`.
    fn ident(&mut self) -> Result<&'a str, ParseIrError> {
        self.skip_ws();
        let end = self
            .rest
            .find(|c: char| !c.is_ascii_alphanumeric() && !"_.$".contains(c))
            .unwrap_or(self.rest.len());
        if end == 0 {
            return self.err(format!("expected identifier at `{}`", self.rest));
        }
        let (id, r) = self.rest.split_at(end);
        self.rest = r;
        Ok(id)
    }

    fn int(&mut self) -> Result<i64, ParseIrError> {
        self.skip_ws();
        let neg = self.rest.starts_with('-');
        let body = if neg { &self.rest[1..] } else { self.rest };
        let end = body
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(body.len());
        if end == 0 {
            return self.err(format!("expected integer at `{}`", self.rest));
        }
        let digits = &body[..end];
        let consumed = end + usize::from(neg);
        // The magnitude parses unsigned so `-9223372036854775808` (i64::MIN,
        // whose magnitude is one past i64::MAX) is in range.
        let magnitude = digits.parse::<u64>().ok();
        let v = match magnitude {
            Some(m) if neg => 0i64.checked_sub_unsigned(m),
            Some(m) => i64::try_from(m).ok(),
            None => None,
        };
        let Some(v) = v else {
            return self.err(format!("integer `{digits}` out of range"));
        };
        self.rest = &self.rest[consumed..];
        Ok(v)
    }

    fn index_of(&mut self, prefix: &str) -> Result<usize, ParseIrError> {
        self.skip_ws();
        let id = self.ident()?;
        match id
            .strip_prefix(prefix)
            .and_then(|n| n.parse::<usize>().ok())
        {
            Some(n) => Ok(n),
            None => self.err(format!("expected `{prefix}N`, found `{id}`")),
        }
    }

    fn ty(&mut self) -> Result<Type, ParseIrError> {
        self.skip_ws();
        let mut t = if self.eat("int") {
            Type::Int
        } else if self.eat("bool") {
            Type::Bool
        } else {
            return self.err(format!("expected type at `{}`", self.rest));
        };
        while self.eat("[]") {
            t = Type::array_of(t);
        }
        Ok(t)
    }
}

/// Parses one function starting at `lines[0]`; returns it and the number of
/// lines consumed (through the closing `}`).
fn parse_function(lines: &[(usize, &str)]) -> Result<(Function, usize), ParseIrError> {
    // --- header ---
    let (ln, header) = lines[0];
    let mut p = P {
        line_no: ln,
        rest: header.trim(),
    };
    p.expect("func")?;
    p.expect("@")?;
    let name = p.ident()?.to_string();
    p.expect("(")?;
    let mut params: Vec<Type> = Vec::new();
    loop {
        p.skip_ws();
        if p.eat(")") {
            break;
        }
        if !params.is_empty() {
            p.expect(",")?;
        }
        let _ = p.index_of("v")?;
        p.expect(":")?;
        params.push(p.ty()?);
    }
    let ret = if p.eat("->") { Some(p.ty()?) } else { None };
    p.expect("{")?;

    // --- pre-scan: map text value names to dense ids in definition order,
    //     find max check site, and collect blocks. ---
    let mut value_map: HashMap<usize, Value> = HashMap::new();
    for (i, _) in params.iter().enumerate() {
        // params are printed as v0..vN in order
        value_map.insert(i, Value::new(i));
    }
    let mut next_value = params.len();
    let mut block_names: Vec<usize> = Vec::new();
    let mut end = None;
    for (offset, (_, line)) in lines.iter().enumerate().skip(1) {
        let t = line.trim();
        if t == "}" {
            end = Some(offset);
            break;
        }
        if let Some(b) = t.strip_suffix(':') {
            if let Some(n) = b.strip_prefix("bb").and_then(|s| s.parse::<usize>().ok()) {
                block_names.push(n);
                continue;
            }
        }
        // definition lines look like `vN: TYPE = ...`
        if let Some(vtxt) = t.strip_prefix('v') {
            if let Some(colon) = vtxt.find(':') {
                if let Ok(n) = vtxt[..colon].parse::<usize>() {
                    if value_map.contains_key(&n) {
                        return Err(ParseIrError {
                            line: lines[offset].0,
                            message: format!("v{n} defined twice"),
                        });
                    }
                    value_map.insert(n, Value::new(next_value));
                    next_value += 1;
                }
            }
        }
    }
    let Some(end) = end else {
        return Err(ParseIrError {
            line: ln,
            message: "missing closing `}`".into(),
        });
    };

    // Blocks are renumbered densely in appearance order.
    let mut block_map: HashMap<usize, Block> = HashMap::new();
    let mut func = Function::new(name, params, ret);
    for (i, n) in block_names.iter().enumerate() {
        let b = if i == 0 {
            func.entry()
        } else {
            func.new_block()
        };
        if block_map.insert(*n, b).is_some() {
            return Err(ParseIrError {
                line: ln,
                message: format!("bb{n} defined twice"),
            });
        }
    }

    // --- main pass ---
    let mut current: Option<Block> = None;
    let mut max_site: Option<usize> = None;
    for (line_no, raw) in lines.iter().take(end).skip(1) {
        let t = raw.trim();
        if t.is_empty() {
            continue;
        }
        let mut p = P {
            line_no: *line_no,
            rest: t,
        };
        if let Some(b) = t.strip_suffix(':') {
            if let Some(n) = b.strip_prefix("bb").and_then(|s| s.parse::<usize>().ok()) {
                current = Some(block_map[&n]);
                continue;
            }
        }
        if t.starts_with("locals") {
            p.expect("locals")?;
            loop {
                let n = p.index_of("loc")?;
                p.expect(":")?;
                let ty = p.ty()?;
                let l = func.new_local(ty);
                if l.index() != n {
                    return p.err("locals must be declared densely in order");
                }
                if !p.eat(",") {
                    break;
                }
            }
            continue;
        }
        let Some(block) = current else {
            return p.err("instruction outside a block");
        };
        parse_line(
            &mut p,
            &mut func,
            block,
            &value_map,
            &block_map,
            &mut max_site,
        )?;
    }
    if let Some(m) = max_site {
        while func.check_site_count() <= m {
            func.new_check_site();
        }
    }
    Ok((func, end + 1))
}

#[allow(clippy::too_many_arguments)]
fn parse_line(
    p: &mut P,
    func: &mut Function,
    block: Block,
    values: &HashMap<usize, Value>,
    blocks: &HashMap<usize, Block>,
    max_site: &mut Option<usize>,
) -> Result<(), ParseIrError> {
    let val = |p: &P, n: usize| -> Result<Value, ParseIrError> {
        values.get(&n).copied().ok_or(ParseIrError {
            line: p.line_no,
            message: format!("undefined value v{n}"),
        })
    };
    let blk = |p: &P, n: usize| -> Result<Block, ParseIrError> {
        blocks.get(&n).copied().ok_or(ParseIrError {
            line: p.line_no,
            message: format!("undefined block bb{n}"),
        })
    };
    macro_rules! value {
        () => {{
            let n = p.index_of("v")?;
            val(p, n)?
        }};
    }
    macro_rules! block_ref {
        () => {{
            let n = p.index_of("bb")?;
            blk(p, n)?
        }};
    }
    macro_rules! site {
        () => {{
            p.expect("@")?;
            let n = p.index_of("ck")?;
            *max_site = Some(max_site.map_or(n, |m: usize| m.max(n)));
            CheckSite::new(n)
        }};
    }

    // Terminators.
    if p.eat("jump") {
        func.set_terminator(block, Terminator::Jump(block_ref!()));
        return Ok(());
    }
    if p.eat("br") {
        let cond = value!();
        p.expect(",")?;
        let then_dst = block_ref!();
        p.expect(",")?;
        let else_dst = block_ref!();
        func.set_terminator(
            block,
            Terminator::Branch {
                cond,
                then_dst,
                else_dst,
            },
        );
        return Ok(());
    }
    if p.eat("ret") {
        p.skip_ws();
        let v = if p.rest.is_empty() {
            None
        } else {
            Some(value!())
        };
        func.set_terminator(block, Terminator::Return(v));
        return Ok(());
    }

    // Result-less instructions.
    if p.eat("store") {
        let array = value!();
        p.expect("[")?;
        let index = value!();
        p.expect("]")?;
        p.expect("=")?;
        let value = value!();
        let id = func.create_inst(
            InstKind::Store {
                array,
                index,
                value,
            },
            None,
        );
        func.append_inst(block, id);
        return Ok(());
    }
    for (prefix, spec) in [("check.", 0u8), ("spec_check.", 1), ("trap_if_flagged.", 2)] {
        if p.eat(prefix) {
            let kind = parse_check_kind(p)?;
            let array = value!();
            p.expect("[")?;
            let index = value!();
            p.expect("]")?;
            let site = site!();
            let k = match spec {
                0 => InstKind::BoundsCheck {
                    site,
                    array,
                    index,
                    kind,
                },
                1 => InstKind::SpecCheck {
                    site,
                    array,
                    index,
                    kind,
                },
                _ => InstKind::TrapIfFlagged {
                    site,
                    array,
                    index,
                    kind,
                },
            };
            let id = func.create_inst(k, None);
            func.append_inst(block, id);
            return Ok(());
        }
    }
    if p.eat("output") {
        let arg = value!();
        let id = func.create_inst(InstKind::Output { arg }, None);
        func.append_inst(block, id);
        return Ok(());
    }
    if p.eat("set") {
        let n = p.index_of("loc")?;
        p.expect("=")?;
        let value = value!();
        let id = func.create_inst(
            InstKind::SetLocal {
                local: Local::new(n),
                value,
            },
            None,
        );
        func.append_inst(block, id);
        return Ok(());
    }
    if p.rest.trim_start().starts_with("call") {
        // void call
        p.expect("call")?;
        let (callee, args) = parse_call_tail(p, values)?;
        let id = func.create_inst(InstKind::Call { func: callee, args }, None);
        func.append_inst(block, id);
        return Ok(());
    }

    // Valued instruction: `vN: TYPE = <kind>`.
    let _ = p.index_of("v")?;
    p.expect(":")?;
    let ty = p.ty()?;
    p.expect("=")?;

    let kind: InstKind = if p.eat("const") {
        InstKind::Const(p.int()?)
    } else if p.eat("bconst") {
        p.skip_ws();
        if p.eat("true") {
            InstKind::BoolConst(true)
        } else if p.eat("false") {
            InstKind::BoolConst(false)
        } else {
            return p.err("expected true/false");
        }
    } else if p.eat("Neg") {
        InstKind::Unary {
            op: UnOp::Neg,
            arg: value!(),
        }
    } else if p.eat("Not") {
        InstKind::Unary {
            op: UnOp::Not,
            arg: value!(),
        }
    } else if p.eat("cmp.") {
        let op = parse_cmp(p)?;
        let lhs = value!();
        p.expect(",")?;
        let rhs = value!();
        InstKind::Compare { op, lhs, rhs }
    } else if p.eat("newarray") {
        let elem = p.ty()?;
        p.expect(",")?;
        InstKind::NewArray {
            elem,
            len: value!(),
        }
    } else if p.eat("arraylen") {
        InstKind::ArrayLen { array: value!() }
    } else if p.eat("load") {
        let array = value!();
        p.expect("[")?;
        let index = value!();
        p.expect("]")?;
        InstKind::Load { array, index }
    } else if p.eat("phi") {
        let mut args = Vec::new();
        loop {
            p.expect("[")?;
            let b = block_ref!();
            p.expect(":")?;
            let v = value!();
            p.expect("]")?;
            args.push((b, v));
            if !p.eat(",") {
                break;
            }
        }
        InstKind::Phi { args }
    } else if p.eat("pi") {
        let input = value!();
        p.expect(",")?;
        p.expect("[")?;
        let guard = if p.eat("branch") {
            let b = block_ref!();
            let taken = if p.eat("taken") {
                true
            } else if p.eat("fallthrough") {
                false
            } else {
                return p.err("expected taken/fallthrough");
            };
            PiGuard::Branch { block: b, taken }
        } else if p.eat("checked.") {
            let kind = parse_check_kind(p)?;
            let array = value!();
            let site = site!();
            PiGuard::Check { site, array, kind }
        } else {
            return p.err("expected branch/checked guard");
        };
        p.expect("]")?;
        InstKind::Pi { input, guard }
    } else if p.eat("copy") {
        InstKind::Copy { arg: value!() }
    } else if p.eat("call") {
        let (callee, args) = parse_call_tail(p, values)?;
        InstKind::Call { func: callee, args }
    } else if p.eat("get") {
        InstKind::GetLocal {
            local: Local::new(p.index_of("loc")?),
        }
    } else {
        // binary ops by mnemonic
        let mn = p.ident()?;
        let op = match mn {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "rem" => BinOp::Rem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::Shr,
            other => return p.err(format!("unknown instruction `{other}`")),
        };
        let lhs = value!();
        p.expect(",")?;
        let rhs = value!();
        InstKind::Binary { op, lhs, rhs }
    };

    let id = func.create_inst(kind, Some(ty));
    func.append_inst(block, id);
    Ok(())
}

fn parse_check_kind(p: &mut P) -> Result<CheckKind, ParseIrError> {
    if p.eat("lower") {
        Ok(CheckKind::Lower)
    } else if p.eat("upper") {
        Ok(CheckKind::Upper)
    } else if p.eat("both") {
        Ok(CheckKind::Both)
    } else {
        p.err("expected lower/upper/both")
    }
}

fn parse_cmp(p: &mut P) -> Result<CmpOp, ParseIrError> {
    for (s, op) in [
        ("eq", CmpOp::Eq),
        ("ne", CmpOp::Ne),
        ("le", CmpOp::Le),
        ("lt", CmpOp::Lt),
        ("ge", CmpOp::Ge),
        ("gt", CmpOp::Gt),
    ] {
        if p.eat(s) {
            return Ok(op);
        }
    }
    p.err("expected comparison mnemonic")
}

fn parse_call_tail(
    p: &mut P,
    values: &HashMap<usize, Value>,
) -> Result<(FuncId, Vec<Value>), ParseIrError> {
    let n = p.index_of("fn")?;
    p.expect("(")?;
    let mut args = Vec::new();
    loop {
        p.skip_ws();
        if p.eat(")") {
            break;
        }
        if !args.is_empty() {
            p.expect(",")?;
        }
        let vn = p.index_of("v")?;
        let v = values.get(&vn).copied().ok_or(ParseIrError {
            line: p.line_no,
            message: format!("undefined value v{vn}"),
        })?;
        args.push(v);
    }
    Ok((FuncId::new(n), args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::verify::verify_function;

    #[test]
    fn round_trips_a_checked_loop() {
        let mut b = FunctionBuilder::new("sum", vec![Type::array_of(Type::Int)], Some(Type::Int));
        let a = b.param(0);
        let acc = b.new_local(Type::Int);
        let zero = b.iconst(0);
        b.set_local(acc, zero);
        let (head, body, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.jump(head);
        b.switch_to_block(head);
        let len = b.array_len(a);
        let c = b.compare(CmpOp::Lt, zero, len);
        b.branch(c, body, exit);
        b.switch_to_block(body);
        b.bounds_check(a, zero, CheckKind::Upper);
        let x = b.load(a, zero);
        let av = b.get_local(acc);
        let s = b.binary(BinOp::Add, av, x);
        b.set_local(acc, s);
        b.jump(exit);
        b.switch_to_block(exit);
        let out = b.get_local(acc);
        b.ret(Some(out));
        let f = b.finish().unwrap();

        let text = f.to_string();
        let parsed = parse_function_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        verify_function(&parsed, None).unwrap();
        assert_eq!(parsed.to_string(), text, "round trip not stable");
        assert_eq!(parsed.check_site_count(), f.check_site_count());
        assert_eq!(parsed.local_count(), f.local_count());
    }

    #[test]
    fn parses_phis_and_pis() {
        let text = "\
func @f(v0: int[], v1: int) -> int {
bb0:
    v2: bool = cmp.lt v1, v1
    br v2, bb1, bb2
bb1:
    v3: int = pi v1, [branch bb0 taken]
    jump bb3
bb2:
    v4: int = pi v1, [branch bb0 fallthrough]
    jump bb3
bb3:
    v5: int = phi [bb1: v3], [bb2: v4]
    check.upper v0[v5] @ck2
    v6: int = pi v5, [checked.upper v0 @ck2]
    v7: int = load v0[v6]
    ret v7
}
";
        let f = parse_function_text(text).unwrap();
        verify_function(&f, None).unwrap();
        // site ids up to ck2 must be allocated
        assert_eq!(f.check_site_count(), 3);
        assert_eq!(f.to_string(), text.trim_end());
    }

    #[test]
    fn constants_at_the_i64_extremes_round_trip() {
        for c in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX] {
            let text =
                format!("func @k() -> int {{\nbb0:\n    v0: int = const {c}\n    ret v0\n}}");
            let f = parse_function_text(&text).unwrap_or_else(|e| panic!("{c}: {e}"));
            assert_eq!(f.to_string(), text, "print ∘ parse at {c}");
            let printed = f.to_string();
            let again = parse_function_text(&printed).unwrap();
            assert_eq!(
                again.inst(again.block(again.entry()).insts()[0]).kind,
                InstKind::Const(c)
            );
        }
    }

    #[test]
    fn constants_past_the_i64_range_are_rejected() {
        for lit in [
            "-9223372036854775809",
            "9223372036854775808",
            "99999999999999999999",
        ] {
            let text =
                format!("func @k() -> int {{\nbb0:\n    v0: int = const {lit}\n    ret v0\n}}");
            let err = parse_function_text(&text).unwrap_err();
            assert!(err.message.contains("out of range"), "{lit}: {err}");
        }
    }

    #[test]
    fn renumbers_sparse_value_names() {
        let text = "\
func @g() -> int {
bb0:
    v17: int = const 4
    v9: int = add v17, v17
    ret v9
}
";
        let f = parse_function_text(text).unwrap();
        verify_function(&f, None).unwrap();
        // dense ids: v0 (const), v1 (add)
        assert_eq!(f.value_count(), 2);
    }

    #[test]
    fn module_with_calls_round_trips() {
        let text = "\
func @callee(v0: int) -> int {
bb0:
    ret v0
}

func @caller(v0: int) -> int {
bb0:
    v1: int = call fn0(v0)
    call fn0(v1)
    ret v1
}
";
        let m = parse_module(text).unwrap();
        assert_eq!(m.function_count(), 2);
        crate::verify::verify_module(&m).unwrap();
        assert_eq!(m.to_string().trim_end(), text.trim_end());
    }

    #[test]
    fn versioned_function_names_round_trip() {
        let text = "\
func @f$fast(v0: int) -> int {
bb0:
    ret v0
}

func @f$slow(v0: int) -> int {
bb0:
    v1: int = call fn0(v0)
    ret v1
}
";
        let m = parse_module(text).unwrap();
        assert!(m.function_by_name("f$fast").is_some());
        assert_eq!(m.to_string().trim_end(), text.trim_end());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "\
func @f() {
bb0:
    v1: int = frobnicate v0
    ret
}
";
        let err = parse_function_text(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("frobnicate"));
    }

    #[test]
    fn undefined_value_is_reported() {
        let text = "\
func @f() {
bb0:
    output v5
    ret
}
";
        let err = parse_function_text(text).unwrap_err();
        assert!(err.message.contains("undefined value"));
    }

    #[test]
    fn duplicate_definition_is_reported() {
        let text = "\
func @f() {
bb0:
    v1: int = const 1
    v1: int = const 2
    ret
}
";
        let err = parse_function_text(text).unwrap_err();
        assert!(err.message.contains("defined twice"));
    }
}
