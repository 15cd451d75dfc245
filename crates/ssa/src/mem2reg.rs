//! SSA construction: promotion of local slots to SSA values.
//!
//! This is the classic Cytron et al. algorithm the paper assumes has already
//! run ([CFR+91]): φ-instructions are placed at the iterated dominance
//! frontier of each local's definition blocks (pruned by liveness), then a
//! dominator-tree walk renames `get_local`/`set_local` into pure value flow.

use crate::dom::{iterated_frontier_into, reset};
use crate::scratch::{SsaScratch, NONE};
use abcd_ir::{successors, Block, Function, InstKind, Local, Value, VerifyError};
use std::error::Error;
use std::fmt;

/// An SSA-construction failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SsaError {
    /// A local is read on a path where it was never written.
    ///
    /// The frontend enforces definite assignment, so this indicates a
    /// malformed hand-built function.
    UndefinedLocal {
        /// The offending local.
        local: Local,
        /// The block containing the read (or needing the φ argument).
        block: Block,
    },
    /// The input function failed structural verification.
    Malformed(VerifyError),
}

impl fmt::Display for SsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsaError::UndefinedLocal { local, block } => {
                write!(f, "local {local} read before any write in {block}")
            }
            SsaError::Malformed(e) => write!(f, "malformed input function: {e}"),
        }
    }
}

impl Error for SsaError {}

impl From<VerifyError> for SsaError {
    fn from(e: VerifyError) -> Self {
        SsaError::Malformed(e)
    }
}

/// Promotes every local slot to SSA values, placing pruned φs and removing
/// all `get_local`/`set_local` instructions.
///
/// Critical edges should be split first (see
/// [`split_critical_edges`](crate::split_critical_edges)) so that later
/// passes can attribute φ-arguments to unique edges. Runs
/// [`SsaScratch::promote_locals`] on a fresh scratch.
///
/// # Errors
///
/// Returns [`SsaError::UndefinedLocal`] if any path reads an unwritten local,
/// or [`SsaError::Malformed`] if the input fails structural verification.
pub fn promote_locals(func: &mut Function) -> Result<(), SsaError> {
    SsaScratch::new().promote_locals(func)
}

/// The `inst_tag` of a `get_local`/`set_local` to unlink.
const PROMOTED: u32 = NONE - 1;

impl SsaScratch {
    /// Promotes every local slot to SSA values, placing pruned φs and
    /// removing all `get_local`/`set_local` instructions (see
    /// [`promote_locals`]).
    ///
    /// # Errors
    ///
    /// As [`promote_locals`]. The function is verified before and after.
    pub fn promote_locals(&mut self, func: &mut Function) -> Result<(), SsaError> {
        abcd_ir::verify_function(func, None)?;
        if func.local_count() == 0 {
            return Ok(());
        }
        // A φ can never live in the entry block (there is no incoming edge
        // for the function-entry path): the tree is built after a looping
        // entry is split.
        self.ensure_tree(func);
        let SsaScratch {
            tree,
            live,
            frontiers,
            idf,
            defs,
            def_blocks,
            phi_blocks,
            inst_tag,
            value_map: rename,
            table,
            dirty,
            ..
        } = self;
        live.recompute(func);
        frontiers.recompute(tree, func);

        // 1. Definition blocks per local, sorted by local, then block.
        defs.clear();
        for b in func.blocks() {
            for &id in func.block(b).insts() {
                if let InstKind::SetLocal { local, .. } = func.inst(id).kind {
                    defs.push((local, b));
                }
            }
        }
        defs.sort_unstable();
        defs.dedup();

        // 2. φ placement at liveness-pruned iterated dominance frontiers.
        reset(inst_tag, func.inst_count(), NONE);
        for group in defs.chunk_by(|a, b| a.0 == b.0) {
            let local = group[0].0;
            def_blocks.clear();
            def_blocks.extend(group.iter().map(|&(_, b)| b));
            iterated_frontier_into(frontiers, def_blocks, idf, phi_blocks);
            for &b in phi_blocks.iter() {
                if !tree.is_reachable(b) || !live.is_live_in(b, local) {
                    continue;
                }
                let ty = func.local_type(local).clone();
                let id = func.create_inst(InstKind::Phi { args: Vec::new() }, Some(ty));
                func.insert_inst(b, 0, id);
                debug_assert_eq!(id.index(), inst_tag.len());
                inst_tag.push(local.index() as u32);
            }
        }

        // 3. Renaming walk over the dominator tree.
        reset(rename, func.value_count(), NONE);
        let resolve = |rename: &[u32], v: Value| match rename[v.index()] {
            NONE => v,
            r => Value::new(r as usize),
        };
        dirty.clear();
        let entry = func.entry();
        table.walk(func.local_count(), tree, entry, |table, b| {
            let mut promoted = false;
            for pos in 0..func.block(b).insts().len() {
                let id = func.block(b).insts()[pos];
                let tag = inst_tag[id.index()];
                // φs placed by step 2 define their local.
                if tag < PROMOTED {
                    let result = func.inst(id).result.expect("phi has result");
                    table.set(tag as usize, result);
                    continue;
                }
                // Rewrite uses first (operands refer to earlier defs).
                func.inst_mut(id).kind.map_uses(|v| resolve(rename, v));
                match func.inst(id).kind {
                    InstKind::GetLocal { local } => {
                        let cur = table
                            .get(local.index())
                            .ok_or(SsaError::UndefinedLocal { local, block: b })?;
                        let result = func.inst(id).result.expect("get_local has result");
                        rename[result.index()] = cur.index() as u32;
                    }
                    InstKind::SetLocal { local, value } => table.set(local.index(), value),
                    _ => continue,
                }
                inst_tag[id.index()] = PROMOTED;
                promoted = true;
            }
            if promoted {
                dirty.push(b);
            }

            // Rewrite terminator uses.
            if let Some(term) = func.block(b).terminator_opt() {
                let mut t = term.clone();
                t.map_uses(|v| resolve(rename, v));
                func.set_terminator(b, t);
            }

            // Fill φ arguments of successors for this edge. Placed φs lead
            // their block.
            for s in successors(func, b) {
                for pos in 0..func.block(s).insts().len() {
                    let id = func.block(s).insts()[pos];
                    let tag = inst_tag[id.index()];
                    if tag >= PROMOTED {
                        break;
                    }
                    let local = Local::new(tag as usize);
                    let cur = table
                        .get(local.index())
                        .ok_or(SsaError::UndefinedLocal { local, block: s })?;
                    if let InstKind::Phi { args } = &mut func.inst_mut(id).kind {
                        args.push((b, cur));
                    }
                }
            }
            Ok::<(), SsaError>(())
        })?;

        // 4. Unlink the promoted instructions, one filter per block.
        for &b in dirty.iter() {
            func.retain_insts(b, |id| inst_tag[id.index()] != PROMOTED);
        }

        // Unreachable blocks were never renamed (stale locals ops, and their
        // out-edges would confuse φ/predecessor agreement): clear them.
        for b in 0..func.block_count() {
            let b = Block::new(b);
            if !tree.is_reachable(b) {
                func.clear_block(b);
            }
        }

        abcd_ir::verify_function(func, None)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcd_ir::{BinOp, CheckKind, CmpOp, FunctionBuilder, Terminator, Type};

    /// i = 0; s = 0; while (i < n) { s = s + i; i = i + 1 } return s;
    fn loop_func() -> Function {
        let mut b = FunctionBuilder::new("f", vec![Type::Int], Some(Type::Int));
        let n = b.param(0);
        let i = b.new_local(Type::Int);
        let s = b.new_local(Type::Int);
        let zero = b.iconst(0);
        b.set_local(i, zero);
        b.set_local(s, zero);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(head);
        b.switch_to_block(head);
        let iv = b.get_local(i);
        let c = b.compare(CmpOp::Lt, iv, n);
        b.branch(c, body, exit);
        b.switch_to_block(body);
        let sv = b.get_local(s);
        let iv2 = b.get_local(i);
        let sum = b.binary(BinOp::Add, sv, iv2);
        b.set_local(s, sum);
        let one = b.iconst(1);
        let inc = b.binary(BinOp::Add, iv2, one);
        b.set_local(i, inc);
        b.jump(head);
        b.switch_to_block(exit);
        let out = b.get_local(s);
        b.ret(Some(out));
        b.finish().unwrap()
    }

    fn count_kind(f: &Function, pred: impl Fn(&InstKind) -> bool) -> usize {
        f.blocks()
            .flat_map(|b| f.block(b).insts().to_vec())
            .filter(|&id| pred(&f.inst(id).kind))
            .count()
    }

    #[test]
    fn loop_gets_two_phis_at_head() {
        let mut f = loop_func();
        promote_locals(&mut f).unwrap();
        assert_eq!(count_kind(&f, |k| matches!(k, InstKind::Phi { .. })), 2);
        assert_eq!(
            count_kind(&f, |k| matches!(k, InstKind::GetLocal { .. })),
            0
        );
        assert_eq!(
            count_kind(&f, |k| matches!(k, InstKind::SetLocal { .. })),
            0
        );
        crate::verify_ssa(&f).unwrap();
    }

    #[test]
    fn phi_args_name_correct_predecessors() {
        let mut f = loop_func();
        promote_locals(&mut f).unwrap();
        let head = Block::new(1);
        for &id in f.block(head).insts() {
            if let InstKind::Phi { args } = &f.inst(id).kind {
                let mut preds: Vec<Block> = args.iter().map(|(p, _)| *p).collect();
                preds.sort();
                assert_eq!(preds, vec![f.entry(), Block::new(2)]);
            }
        }
    }

    #[test]
    fn straightline_needs_no_phi() {
        let mut b = FunctionBuilder::new("f", vec![Type::Int], Some(Type::Int));
        let x = b.param(0);
        let l = b.new_local(Type::Int);
        b.set_local(l, x);
        let v = b.get_local(l);
        let one = b.iconst(1);
        let y = b.binary(BinOp::Add, v, one);
        b.set_local(l, y);
        let out = b.get_local(l);
        b.ret(Some(out));
        let mut f = b.finish().unwrap();
        promote_locals(&mut f).unwrap();
        assert_eq!(count_kind(&f, |k| matches!(k, InstKind::Phi { .. })), 0);
        // return now uses the add directly
        match f.block(f.entry()).terminator() {
            Terminator::Return(Some(v)) => assert_eq!(*v, y),
            t => panic!("unexpected terminator {t:?}"),
        }
    }

    #[test]
    fn dead_local_in_branch_gets_no_phi() {
        // if (p) { t = 1 } return 0;  — t dead at join, pruning kills the φ.
        let mut b = FunctionBuilder::new("f", vec![Type::Bool], Some(Type::Int));
        let p = b.param(0);
        let t = b.new_local(Type::Int);
        let (then_b, join) = (b.new_block(), b.new_block());
        b.branch(p, then_b, join);
        b.switch_to_block(then_b);
        let one = b.iconst(1);
        b.set_local(t, one);
        b.jump(join);
        b.switch_to_block(join);
        let zero = b.iconst(0);
        b.ret(Some(zero));
        let mut f = b.finish().unwrap();
        promote_locals(&mut f).unwrap();
        assert_eq!(count_kind(&f, |k| matches!(k, InstKind::Phi { .. })), 0);
    }

    #[test]
    fn undefined_read_is_reported() {
        let mut b = FunctionBuilder::new("f", vec![], Some(Type::Int));
        let l = b.new_local(Type::Int);
        let v = b.get_local(l);
        b.ret(Some(v));
        let mut f = b.finish().unwrap();
        assert!(matches!(
            promote_locals(&mut f),
            Err(SsaError::UndefinedLocal { .. })
        ));
    }

    #[test]
    fn checks_survive_promotion() {
        let mut b = FunctionBuilder::new("f", vec![Type::array_of(Type::Int)], Some(Type::Int));
        let a = b.param(0);
        let l = b.new_local(Type::Int);
        let zero = b.iconst(0);
        b.set_local(l, zero);
        let iv = b.get_local(l);
        b.bounds_check(a, iv, CheckKind::Upper);
        let x = b.load(a, iv);
        b.ret(Some(x));
        let mut f = b.finish().unwrap();
        promote_locals(&mut f).unwrap();
        assert_eq!(f.count_checks(), (1, 0, 0));
    }
}
