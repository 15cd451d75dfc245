//! The IR printer: one byte-level writer behind `Display`, cached IR text
//! and cache keys.
//!
//! The printer is generic over where the text goes (a [`Sink`]: a
//! `String`, a running [`Fnv1a`] hash, a `fmt::Formatter`) and over how
//! values and blocks are numbered: the identity for `Display`, the dense
//! canonical numbering for [`print_canonical`](crate::print_canonical).
//! It writes `&str` pieces straight into the sink — no `fmt` machinery,
//! no allocation — so hashing a function's text costs one pass over it.

use crate::entities::{Block, CheckSite, Local, Value};
use crate::function::{BlockData, Function};
use crate::inst::{CheckKind, InstKind, PiGuard, Terminator};
use crate::module::Module;
use crate::types::Type;
use std::fmt;

/// A destination for printed IR text.
pub trait Sink {
    /// Appends `s`.
    fn put(&mut self, s: &str);
}

impl Sink for String {
    #[inline]
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

/// A running 64-bit FNV-1a hash — dependency-free, stable across
/// platforms and runs. As a [`Sink`] it hashes printed text without
/// materializing it.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of the empty input.
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Resumes a hash whose state so far is `state` (a prior
    /// [`finish`](Fnv1a::finish)), so more bytes extend the same stream.
    pub const fn from_state(state: u64) -> Fnv1a {
        Fnv1a(state)
    }

    /// Feeds `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// As a [`Hasher`](std::hash::Hasher), for hash maps keyed by short
/// strings.
impl std::hash::Hasher for Fnv1a {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        Fnv1a::write(self, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Sink for Fnv1a {
    #[inline]
    fn put(&mut self, s: &str) {
        self.write(s.as_bytes());
    }
}

/// Adapts a `fmt::Formatter` for `Display`, keeping the first error.
/// Pieces are gathered in a stack buffer so the formatter (a dynamic
/// call per write) sees a few hundred bytes at a time.
struct FmtSink<'a, 'b> {
    f: &'a mut fmt::Formatter<'b>,
    buf: [u8; 512],
    len: usize,
    result: fmt::Result,
}

impl<'a, 'b> FmtSink<'a, 'b> {
    fn new(f: &'a mut fmt::Formatter<'b>) -> Self {
        FmtSink {
            f,
            buf: [0; 512],
            len: 0,
            result: Ok(()),
        }
    }

    fn write(&mut self, s: &str) {
        if self.result.is_ok() {
            self.result = self.f.write_str(s);
        }
    }

    fn flush(&mut self) {
        let len = std::mem::take(&mut self.len);
        // The buffer only ever holds whole `&str` pieces.
        let text = std::str::from_utf8(&self.buf[..len]).expect("whole UTF-8 pieces");
        if self.result.is_ok() {
            self.result = self.f.write_str(text);
        }
    }

    fn finish(mut self) -> fmt::Result {
        self.flush();
        self.result
    }
}

impl Sink for FmtSink<'_, '_> {
    #[inline]
    fn put(&mut self, s: &str) {
        if self.len + s.len() > self.buf.len() {
            self.flush();
            if s.len() > self.buf.len() {
                self.write(s);
                return;
            }
        }
        self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
    }
}

/// How the printer names values and blocks.
pub(crate) trait Numbering {
    /// The printed number of value `v`.
    fn value(&self, v: Value) -> u32;
    /// The printed number of block `b`.
    fn block(&self, b: Block) -> u32;
}

/// Every entity prints under its own index (`Display`).
struct Identity;

impl Numbering for Identity {
    #[inline]
    fn value(&self, v: Value) -> u32 {
        v.index() as u32
    }

    #[inline]
    fn block(&self, b: Block) -> u32 {
        b.index() as u32
    }
}

/// Does the printer emit block `data`? Never-filled blocks (builder
/// scratch) are skipped, and nothing reachable may target them.
pub(crate) fn is_printed(data: &BlockData) -> bool {
    !data.insts().is_empty() || data.terminator_opt().is_some()
}

/// Prints `func` into `out` — exactly the text `func.to_string()` gives.
pub fn print_function(func: &Function, out: &mut impl Sink) {
    Printer {
        func,
        num: &Identity,
        out,
    }
    .function();
}

/// Prints `func` under `num` (the canonical printer's entry point).
pub(crate) fn print_numbered(func: &Function, num: &impl Numbering, out: &mut impl Sink) {
    Printer { func, num, out }.function();
}

struct Printer<'a, N, S> {
    func: &'a Function,
    num: &'a N,
    out: &'a mut S,
}

/// Each writer returns the printer, so one line of IR text reads as one
/// chain of pieces.
impl<N: Numbering, S: Sink> Printer<'_, N, S> {
    fn s(&mut self, s: &str) -> &mut Self {
        self.out.put(s);
        self
    }

    /// `prefix` followed by the decimal digits of `n`.
    fn num(&mut self, prefix: &str, n: u64) -> &mut Self {
        const DIGITS: &str = "0123456789";
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut n = n;
        loop {
            i -= 1;
            digits[i] = (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out.put(prefix);
        for &d in &digits[i..] {
            let d = usize::from(d);
            self.out.put(&DIGITS[d..d + 1]);
        }
        self
    }

    fn v(&mut self, v: Value) -> &mut Self {
        let n = self.num.value(v);
        self.num("v", n.into())
    }

    fn b(&mut self, b: Block) -> &mut Self {
        let n = self.num.block(b);
        self.num("bb", n.into())
    }

    fn ty(&mut self, ty: &Type) -> &mut Self {
        match ty {
            Type::Int => self.s("int"),
            Type::Bool => self.s("bool"),
            Type::Array(e) => self.ty(e).s("[]"),
        }
    }

    /// `op.kind array[index] @site`: every check-like instruction.
    fn check(
        &mut self,
        op: &str,
        kind: CheckKind,
        array: Value,
        index: Value,
        site: CheckSite,
    ) -> &mut Self {
        self.s(op)
            .s(".")
            .s(kind.mnemonic())
            .s(" ")
            .v(array)
            .s("[")
            .v(index)
            .s("] ")
            .num("@ck", site.index() as u64)
    }

    fn function(&mut self) {
        let func = self.func;
        self.s("func @").s(func.name()).s("(");
        for (i, ty) in func.param_types().iter().enumerate() {
            if i > 0 {
                self.s(", ");
            }
            self.num("v", i as u64).s(": ").ty(ty);
        }
        self.s(")");
        if let Some(rt) = func.ret_type() {
            self.s(" -> ").ty(rt);
        }
        self.s(" {\n");
        if func.local_count() > 0 {
            self.s("  locals ");
            for i in 0..func.local_count() {
                if i > 0 {
                    self.s(", ");
                }
                self.num("loc", i as u64)
                    .s(": ")
                    .ty(func.local_type(Local::new(i)));
            }
            self.s("\n");
        }
        for b in func.blocks() {
            let data = func.block(b);
            if !is_printed(data) {
                continue;
            }
            self.b(b).s(":\n");
            for &id in data.insts() {
                let inst = func.inst(id);
                self.s("    ");
                if let Some(r) = inst.result {
                    self.v(r).s(": ").ty(func.value_type(r)).s(" = ");
                }
                self.kind(&inst.kind).s("\n");
            }
            if let Some(t) = data.terminator_opt() {
                self.s("    ");
                match *t {
                    Terminator::Jump(d) => self.s("jump ").b(d),
                    Terminator::Branch {
                        cond,
                        then_dst,
                        else_dst,
                    } => self
                        .s("br ")
                        .v(cond)
                        .s(", ")
                        .b(then_dst)
                        .s(", ")
                        .b(else_dst),
                    Terminator::Return(None) => self.s("ret"),
                    Terminator::Return(Some(v)) => self.s("ret ").v(v),
                };
                self.s("\n");
            }
        }
        self.s("}");
    }

    fn kind(&mut self, kind: &InstKind) -> &mut Self {
        match *kind {
            InstKind::Const(c) => self
                .s("const ")
                .num(if c < 0 { "-" } else { "" }, c.unsigned_abs()),
            InstKind::BoolConst(c) => self.s(if c { "bconst true" } else { "bconst false" }),
            InstKind::Unary { op, arg } => self.s(op.mnemonic()).s(" ").v(arg),
            InstKind::Binary { op, lhs, rhs } => self.s(op.mnemonic()).s(" ").v(lhs).s(", ").v(rhs),
            InstKind::Compare { op, lhs, rhs } => {
                self.s("cmp.").s(op.mnemonic()).s(" ").v(lhs).s(", ").v(rhs)
            }
            InstKind::NewArray { ref elem, len } => self.s("newarray ").ty(elem).s(", ").v(len),
            InstKind::ArrayLen { array } => self.s("arraylen ").v(array),
            InstKind::Load { array, index } => self.s("load ").v(array).s("[").v(index).s("]"),
            InstKind::Store {
                array,
                index,
                value,
            } => self.s("store ").v(array).s("[").v(index).s("] = ").v(value),
            InstKind::BoundsCheck {
                site,
                array,
                index,
                kind,
            } => self.check("check", kind, array, index, site),
            InstKind::SpecCheck {
                site,
                array,
                index,
                kind,
            } => self.check("spec_check", kind, array, index, site),
            InstKind::TrapIfFlagged {
                site,
                array,
                index,
                kind,
            } => self.check("trap_if_flagged", kind, array, index, site),
            InstKind::Phi { ref args } => {
                self.s("phi ");
                for (i, &(b, v)) in args.iter().enumerate() {
                    if i > 0 {
                        self.s(", ");
                    }
                    self.s("[").b(b).s(": ").v(v).s("]");
                }
                self
            }
            InstKind::Pi { input, ref guard } => {
                self.s("pi ").v(input).s(", ");
                match *guard {
                    PiGuard::Branch { block, taken } => self.s("[branch ").b(block).s(if taken {
                        " taken]"
                    } else {
                        " fallthrough]"
                    }),
                    PiGuard::Check { site, array, kind } => self
                        .s("[checked.")
                        .s(kind.mnemonic())
                        .s(" ")
                        .v(array)
                        .num(" @ck", site.index() as u64)
                        .s("]"),
                }
            }
            InstKind::Copy { arg } => self.s("copy ").v(arg),
            InstKind::Call { func, ref args } => {
                self.num("call fn", func.index() as u64).s("(");
                for (i, &a) in args.iter().enumerate() {
                    if i > 0 {
                        self.s(", ");
                    }
                    self.v(a);
                }
                self.s(")")
            }
            InstKind::Output { arg } => self.s("output ").v(arg),
            InstKind::GetLocal { local } => self.num("get loc", local.index() as u64),
            InstKind::SetLocal { local, value } => {
                self.num("set loc", local.index() as u64).s(" = ").v(value)
            }
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sink = FmtSink::new(f);
        print_function(self, &mut sink);
        sink.finish()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sink = FmtSink::new(f);
        for (i, (_, func)) in self.functions().enumerate() {
            if i > 0 {
                sink.put("\n\n");
            }
            print_function(func, &mut sink);
        }
        sink.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpOp;

    #[test]
    fn display_contains_checks_and_terminators() {
        let mut b = FunctionBuilder::new("show", vec![Type::array_of(Type::Int)], Some(Type::Int));
        let a = b.param(0);
        let i = b.iconst(3);
        b.bounds_check(a, i, CheckKind::Upper);
        let x = b.load(a, i);
        let c = b.compare(CmpOp::Lt, x, i);
        let (t, e) = (b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to_block(t);
        b.ret(Some(x));
        b.switch_to_block(e);
        b.ret(Some(i));
        let f = b.finish().unwrap();
        let text = f.to_string();
        assert!(text.contains("check.upper v0[v1] @ck0"), "{text}");
        assert!(text.contains("br v3, bb1, bb2"), "{text}");
        assert!(text.contains("-> int"), "{text}");
    }

    #[test]
    fn every_sink_sees_the_same_text() {
        let mut b = FunctionBuilder::new("sinks", vec![Type::Int], Some(Type::Int));
        let p = b.param(0);
        let m = b.iconst(i64::MIN);
        let s = b.binary(crate::BinOp::Sub, p, m);
        b.ret(Some(s));
        let f = b.finish().unwrap();
        let mut text = String::new();
        print_function(&f, &mut text);
        assert_eq!(text, f.to_string());
        let mut h = Fnv1a::new();
        print_function(&f, &mut h);
        let mut whole = Fnv1a::new();
        whole.write(text.as_bytes());
        assert_eq!(h.finish(), whole.finish());
        assert!(text.contains("const -9223372036854775808"), "{text}");
    }
}
