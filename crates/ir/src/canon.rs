//! Canonical renumbering of functions.
//!
//! After optimization a function's value and block id spaces have holes:
//! deleted instructions leave unreferenced arena slots, and builder scratch
//! blocks may never have been filled. The printed text then carries the
//! gaps (`v7` missing, `bb1` skipped), and — because the IR parser
//! renumbers densely — `parse(print(f))` prints *differently* from `f`.
//!
//! [`canonicalize`] rebuilds the function with values numbered densely in
//! definition order and blocks numbered densely in appearance order
//! (never-filled blocks dropped), exactly the numbering the parser
//! produces. On canonical functions `print` and `parse` are mutual
//! inverses byte-for-byte, which is what makes printed IR usable as a
//! content-addressed cache payload: `print(parse(text)) == text`.
//!
//! One numbering pass — two dense maps, values and blocks — serves
//! [`canonicalize`], [`print_canonical`] (the canonical text without the
//! rebuild) and [`is_canonical`] (is the numbering the identity?).

use crate::entities::{Block, Value};
use crate::function::Function;
use crate::inst::{InstKind, PiGuard};
use crate::print::{is_printed, print_numbered, Numbering, Sink};

/// Marks an entity the canonical numbering does not reach.
const UNNUMBERED: u32 = u32::MAX;

/// Walks `func` in canonical order: each printed block with its dense
/// number, then each result it defines with its dense number (parameters
/// keep `0..param_count`). Never-filled blocks are skipped.
fn number(
    func: &Function,
    mut on_block: impl FnMut(Block, u32),
    mut on_value: impl FnMut(Value, u32),
) {
    let mut next_value = func.param_count() as u32;
    let mut next_block = 0u32;
    for b in func.blocks() {
        let data = func.block(b);
        if !is_printed(data) {
            continue;
        }
        on_block(b, next_block);
        next_block += 1;
        for &id in data.insts() {
            if let Some(r) = func.inst(id).result {
                on_value(r, next_value);
                next_value += 1;
            }
        }
    }
}

/// The canonical numbering of one function: dense maps from old value and
/// block indices to the numbers the parser would assign.
struct Canonical {
    values: Vec<u32>,
    blocks: Vec<u32>,
}

impl Canonical {
    fn of(func: &Function) -> Canonical {
        let mut values = vec![UNNUMBERED; func.value_count()];
        let mut blocks = vec![UNNUMBERED; func.block_count()];
        for (i, slot) in values.iter_mut().take(func.param_count()).enumerate() {
            *slot = i as u32;
        }
        number(
            func,
            |b, n| blocks[b.index()] = n,
            |v, n| values[v.index()] = n,
        );
        Canonical { values, blocks }
    }
}

impl Numbering for Canonical {
    #[inline]
    fn value(&self, v: Value) -> u32 {
        let n = self.values[v.index()];
        assert!(n != UNNUMBERED, "{v} is not defined in a printed block");
        n
    }

    #[inline]
    fn block(&self, b: Block) -> u32 {
        let n = self.blocks[b.index()];
        assert!(n != UNNUMBERED, "{b} is never filled");
        n
    }
}

/// Returns `func` rebuilt with dense, parser-identical numbering: values
/// in definition order (parameters first), blocks in appearance order with
/// never-filled blocks removed, instructions re-created in program order.
/// Locals, parameter/return types, and the check-site count are preserved.
///
/// The result is semantically identical to `func` (same CFG, same
/// instruction sequence, same operands up to renaming) and printing it is
/// a fixpoint of `parse` ∘ `print`.
pub fn canonicalize(func: &Function) -> Function {
    let num = Canonical::of(func);
    let mut out = Function::new(
        func.name_symbol(),
        func.param_types().to_vec(),
        func.ret_type().cloned(),
    );
    for i in 0..func.local_count() {
        out.new_local(func.local_type(crate::Local::new(i)).clone());
    }
    while out.check_site_count() < func.check_site_count() {
        out.new_check_site();
    }
    // Every block exists before any is filled: terminators and φs refer
    // forward. The entry block is the first printed one.
    let printed = num.blocks.iter().filter(|&&n| n != UNNUMBERED).count();
    for _ in 1..printed {
        out.new_block();
    }
    for b in func.blocks().filter(|&b| is_printed(func.block(b))) {
        let nb = Block::new(num.block(b) as usize);
        let data = func.block(b);
        let mut ids = Vec::with_capacity(data.insts().len());
        for &id in data.insts() {
            let inst = func.inst(id);
            let mut kind = inst.kind.clone();
            kind.map_uses(|v| Value::new(num.value(v) as usize));
            match &mut kind {
                InstKind::Phi { args } => {
                    for (b, _) in args.iter_mut() {
                        *b = Block::new(num.block(*b) as usize);
                    }
                }
                InstKind::Pi {
                    guard: PiGuard::Branch { block, .. },
                    ..
                } => *block = Block::new(num.block(*block) as usize),
                _ => {}
            }
            let nid = out.create_inst(kind, inst.result.map(|r| func.value_type(r).clone()));
            // create_inst allocates results in creation order, which is the
            // numbering's order — the two must agree.
            debug_assert_eq!(
                out.inst(nid).result.map(Value::index),
                inst.result.map(|r| num.value(r) as usize)
            );
            ids.push(nid);
        }
        out.set_block_insts(nb, ids);
        if let Some(term) = data.terminator_opt() {
            let mut t = term.clone();
            t.map_uses(|v| Value::new(num.value(v) as usize));
            t.map_successors(|s| Block::new(num.block(s) as usize));
            out.set_terminator(nb, t);
        }
    }
    out
}

/// Prints `canonicalize(func)` into `out` without building it: the same
/// printer, under the canonical numbering. Streamed into an
/// [`Fnv1a`](crate::Fnv1a), this is a cache key's text component. Its
/// only allocations are the two numbering maps.
pub fn print_canonical(func: &Function, out: &mut impl Sink) {
    print_numbered(func, &Canonical::of(func), out);
}

/// Is `func` already in canonical form — does the canonical numbering map
/// every printed value and block to itself? One pass, no allocation;
/// equivalent to `canonicalize(func).to_string() == func.to_string()`.
pub fn is_canonical(func: &Function) -> bool {
    let (mut blocks_fixed, mut values_fixed) = (true, true);
    number(
        func,
        |b, n| blocks_fixed &= b.index() == n as usize,
        |v, n| values_fixed &= v.index() == n as usize,
    );
    blocks_fixed && values_fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::ValueDef;
    use crate::inst::{BinOp, CheckKind};
    use crate::parse::parse_function_text;
    use crate::types::Type;
    use crate::verify::verify_function;

    /// A function with value holes (removed insts) and a never-filled block.
    fn holey() -> Function {
        let mut b = FunctionBuilder::new("h", vec![Type::array_of(Type::Int)], Some(Type::Int));
        let a = b.param(0);
        let i = b.iconst(2);
        let dead = b.binary(BinOp::Add, i, i); // will be unlinked
        b.bounds_check(a, i, CheckKind::Upper);
        let x = b.load(a, i);
        let _scratch = b.new_block(); // never filled
        let exit = b.new_block();
        b.jump(exit);
        b.switch_to_block(exit);
        let s = b.binary(BinOp::Add, x, i);
        b.ret(Some(s));
        let mut f = b.finish().unwrap();
        // Unlink the dead add, leaving a hole in the value space.
        let entry = f.entry();
        let dead_id = match f.value_def(dead) {
            ValueDef::Inst(id) => id,
            _ => unreachable!(),
        };
        assert!(f.remove_inst(entry, dead_id));
        f
    }

    #[test]
    fn canonical_print_is_a_parse_fixpoint() {
        let f = holey();
        let canon = canonicalize(&f);
        verify_function(&canon, None).unwrap();
        let text = canon.to_string();
        let reparsed = parse_function_text(&text).unwrap();
        assert_eq!(reparsed.to_string(), text, "print∘parse not a fixpoint");
        assert!(is_canonical(&canon));
        // The original, holey function is *not* canonical.
        assert!(!is_canonical(&f));
    }

    #[test]
    fn canonicalize_is_idempotent_and_preserves_shape() {
        let f = holey();
        let c1 = canonicalize(&f);
        let c2 = canonicalize(&c1);
        assert_eq!(c1.to_string(), c2.to_string());
        assert_eq!(c1.check_site_count(), f.check_site_count());
        assert_eq!(c1.local_count(), f.local_count());
        assert_eq!(c1.count_checks(), f.count_checks());
        // Dense: every value is either a param or a linked instruction.
        assert_eq!(c1.value_count(), f.value_count() - 1); // dead add gone
    }

    #[test]
    fn phis_and_back_edges_survive() {
        let text = "\
func @loop(v0: int[]) -> int {
bb0:
    v1: int = const 0
    jump bb1
bb1:
    v2: int = phi [bb0: v1], [bb2: v4]
    v3: bool = cmp.lt v2, v1
    br v3, bb2, bb3
bb2:
    v4: int = add v2, v2
    jump bb1
bb3:
    ret v2
}
";
        let f = parse_function_text(text).unwrap();
        let canon = canonicalize(&f);
        verify_function(&canon, None).unwrap();
        assert_eq!(canon.to_string(), text.trim_end());
    }
}
