//! Canonical renumbering of functions.
//!
//! After optimization a function's value and block id spaces have holes:
//! deleted instructions leave unreferenced arena slots, and builder scratch
//! blocks may never have been filled. The printed text then carries the
//! gaps (`v7` missing, `bb1` skipped), and — because the IR parser
//! renumbers densely — `parse(print(f))` prints *differently* from `f`.
//!
//! [`Function::canonicalize_in_place`] renumbers the function's own
//! arenas: values densely in definition order and blocks densely in
//! appearance order (never-filled blocks dropped), instructions in program
//! order with unlinked ones dropped — exactly the numbering the parser
//! produces. On canonical functions `print` and `parse` are mutual
//! inverses byte-for-byte, which is what makes printed IR usable as a
//! content-addressed cache payload: `print(parse(text)) == text`.
//!
//! One numbering pass — dense maps for values and blocks — serves the
//! renumbering, [`canonicalize`] (the same on a copy), [`print_canonical`]
//! (the canonical text without touching the function) and
//! [`is_canonical`] (is the numbering the identity?).

use crate::entities::{Block, InstId, Value};
use crate::function::{Function, ValueDef};
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

/// The canonical numbering of one function: dense maps from old value,
/// block and instruction indices to the numbers the parser would assign.
/// Reusable: [`Function::canonicalize_in_place`] refills the maps in
/// place, so a warm `CanonScratch` makes renumbering allocation-free.
#[derive(Clone, Debug, Default)]
pub struct CanonScratch {
    values: Vec<u32>,
    blocks: Vec<u32>,
    insts: Vec<u32>,
}

impl CanonScratch {
    /// Fills the value and block maps for `func`; the instruction map
    /// only when `insts` is set (printing needs no instruction numbers).
    fn fill(&mut self, func: &Function, insts: bool) {
        reset(&mut self.values, func.value_count());
        reset(&mut self.blocks, func.block_count());
        for (i, slot) in self.values.iter_mut().take(func.param_count()).enumerate() {
            *slot = i as u32;
        }
        number(
            func,
            |b, n| self.blocks[b.index()] = n,
            |v, n| self.values[v.index()] = n,
        );
        if insts {
            reset(&mut self.insts, func.inst_count());
            let mut next = 0u32;
            for data in func.blocks.iter().filter(|d| is_printed(d)) {
                for &id in data.insts() {
                    self.insts[id.index()] = next;
                    next += 1;
                }
            }
        }
    }
}

fn reset(map: &mut Vec<u32>, len: usize) {
    map.clear();
    map.resize(len, UNNUMBERED);
}

fn value_number(values: &[u32], v: Value) -> Value {
    let n = values[v.index()];
    assert!(n != UNNUMBERED, "{v} is not defined in a printed block");
    Value::new(n as usize)
}

fn block_number(blocks: &[u32], b: Block) -> Block {
    let n = blocks[b.index()];
    assert!(n != UNNUMBERED, "{b} is never filled");
    Block::new(n as usize)
}

impl Numbering for CanonScratch {
    #[inline]
    fn value(&self, v: Value) -> u32 {
        value_number(&self.values, v).index() as u32
    }

    #[inline]
    fn block(&self, b: Block) -> u32 {
        block_number(&self.blocks, b).index() as u32
    }
}

/// Gives every `UNNUMBERED` slot of `map` the next number after the
/// numbered ones, turning it into a permutation of `0..map.len()`, and
/// returns how many slots were numbered before.
fn complete(map: &mut [u32]) -> usize {
    let kept = map.iter().filter(|&&n| n != UNNUMBERED).count();
    let unnumbered = map.iter_mut().filter(|n| **n == UNNUMBERED);
    for (next, n) in (kept as u32..).zip(unnumbered) {
        *n = next;
    }
    kept
}

/// Moves `items[i]` to `items[to[i]]` for every `i`, by swaps along the
/// permutation's cycles. Consumes `to` (it ends as the identity).
fn permute<T>(items: &mut [T], to: &mut [u32]) {
    for i in 0..items.len() {
        loop {
            let j = to[i] as usize;
            if j == i {
                break;
            }
            items.swap(i, j);
            to.swap(i, j);
        }
    }
}

impl Function {
    /// Renumbers the function into canonical form in its own arenas:
    /// values in definition order (parameters first), blocks in appearance
    /// order with never-filled blocks removed, instructions in program
    /// order with unlinked ones removed. Locals, parameter/return types,
    /// and the check-site count are preserved.
    ///
    /// The result is semantically identical (same CFG, same instruction
    /// sequence, same operands up to renaming) and printing it is a
    /// fixpoint of `parse` ∘ `print`. The maps live in `scratch`; once it
    /// has seen a function this large, renumbering allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a printed instruction or terminator uses a value that no
    /// printed block defines, or targets a never-filled block. The
    /// function is then left partly renumbered.
    pub fn canonicalize_in_place(&mut self, scratch: &mut CanonScratch) {
        scratch.fill(self, true);
        let CanonScratch {
            values,
            blocks,
            insts,
        } = scratch;

        // Operands, results, block lists and terminators of everything
        // that stays, under the new numbers.
        for (data, _) in self
            .blocks
            .iter_mut()
            .zip(blocks.iter())
            .filter(|(_, &n)| n != UNNUMBERED)
        {
            for id in &mut data.insts {
                let inst = &mut self.insts[id.index()];
                inst.kind.map_uses(|v| value_number(values, v));
                match &mut inst.kind {
                    InstKind::Phi { args } => {
                        for (b, _) in args.iter_mut() {
                            *b = block_number(blocks, *b);
                        }
                    }
                    InstKind::Pi {
                        guard: PiGuard::Branch { block, .. },
                        ..
                    } => *block = block_number(blocks, *block),
                    _ => {}
                }
                inst.result = inst.result.map(|r| value_number(values, r));
                *id = InstId::new(insts[id.index()] as usize);
            }
            if let Some(term) = &mut data.term {
                term.map_uses(|v| value_number(values, v));
                term.map_successors(|s| block_number(blocks, s));
            }
        }

        // Reorder the arenas; what nothing printed refers to sorts last
        // and is cut off.
        let kept_insts = complete(insts);
        permute(&mut self.insts, insts);
        self.insts.truncate(kept_insts);
        let kept_values = complete(values);
        permute(&mut self.value_types, values);
        self.value_types.truncate(kept_values);
        self.values.truncate(kept_values);
        for (i, inst) in self.insts.iter().enumerate() {
            if let Some(r) = inst.result {
                self.values[r.index()] = ValueDef::Inst(InstId::new(i));
            }
        }
        let mut map = blocks.iter();
        self.blocks
            .retain(|_| map.next().is_some_and(|&n| n != UNNUMBERED));
    }
}

/// Returns a copy of `func` in canonical form: the clone, renumbered by
/// [`Function::canonicalize_in_place`].
pub fn canonicalize(func: &Function) -> Function {
    let mut out = func.clone();
    out.canonicalize_in_place(&mut CanonScratch::default());
    out
}

/// Prints `canonicalize(func)` into `out` without building it: the same
/// printer, under the canonical numbering. Streamed into an
/// [`Fnv1a`](crate::Fnv1a), this is a cache key's text component. Its
/// only allocations are the two numbering maps.
pub fn print_canonical(func: &Function, out: &mut impl Sink) {
    let mut num = CanonScratch::default();
    num.fill(func, false);
    print_numbered(func, &num, out);
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
    fn in_place_renumbering_reorders_the_arenas() {
        // An instruction created last but placed first (as PRE and π
        // insertion do), next to a hole and a never-filled block.
        let mut f = holey();
        let entry = f.entry();
        let late = f.create_inst(InstKind::Const(7), Some(Type::Int));
        f.insert_inst(entry, 0, late);
        let expected = canonicalize(&f).to_string();
        let mut scratch = CanonScratch::default();
        f.canonicalize_in_place(&mut scratch);
        assert_eq!(f.to_string(), expected);
        verify_function(&f, None).unwrap();
        assert!(is_canonical(&f));
        // Dense arenas: instruction ids run in program order, every value
        // is a parameter or the result of a linked instruction.
        let order: Vec<usize> = f
            .blocks()
            .flat_map(|b| f.block(b).insts().to_vec())
            .map(InstId::index)
            .collect();
        assert_eq!(order, (0..f.inst_count()).collect::<Vec<_>>());
        assert_eq!(f.block_count(), 2);
        for v in f.values().skip(f.param_count()) {
            let ValueDef::Inst(id) = f.value_def(v) else {
                panic!("{v} is not an instruction result")
            };
            assert_eq!(f.inst(id).result, Some(v));
        }
        // Renumbering a canonical function changes nothing.
        f.canonicalize_in_place(&mut scratch);
        assert_eq!(f.to_string(), expected);
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
