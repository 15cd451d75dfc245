//! SSA-form verification: definitions dominate uses, no locals remain.
//! The dominance half holds in locals form too, and [`verify_dominance`]
//! checks it alone.

use crate::dom::DomTree;
use abcd_ir::{Block, Function, InstId, InstKind, Value, ValueDef};
use std::error::Error;
use std::fmt;

/// A violation of SSA form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SsaViolation {
    /// A use is not dominated by its definition.
    UseNotDominated {
        /// The used value.
        value: Value,
        /// Block containing the use.
        use_block: Block,
    },
    /// A `get_local`/`set_local` survives in supposed SSA form.
    LocalOpRemains(InstId),
    /// A value is used but its defining instruction is not linked into any
    /// block.
    UnlinkedDef(Value),
}

impl fmt::Display for SsaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsaViolation::UseNotDominated { value, use_block } => {
                write!(
                    f,
                    "use of {value} in {use_block} not dominated by its definition"
                )
            }
            SsaViolation::LocalOpRemains(id) => write!(f, "locals op {id} remains in SSA form"),
            SsaViolation::UnlinkedDef(v) => write!(f, "{v} is used but its definition is unlinked"),
        }
    }
}

impl Error for SsaViolation {}

/// Verifies that `func` is in SSA (or e-SSA) form:
///
/// * no `get_local`/`set_local` instructions remain,
/// * every non-φ use is dominated by its definition,
/// * every φ argument's definition dominates the end of the corresponding
///   predecessor block.
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_ssa(func: &Function) -> Result<(), SsaViolation> {
    check(func, false)
}

/// Verifies that every value's definition dominates its uses, as
/// [`verify_ssa`] does, but accepts `get_local`/`set_local`, so locals-form
/// IR passes. An interpreter may then hold a value from its definition on
/// without tracking whether it has been set.
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_dominance(func: &Function) -> Result<(), SsaViolation> {
    check(func, true)
}

fn check(func: &Function, locals: bool) -> Result<(), SsaViolation> {
    let dt = DomTree::compute(func);
    let locations = func.inst_locations();

    // def position per value: (block, pos); params at (entry, before-all).
    let def_pos = |v: Value| -> Option<(Block, isize)> {
        match func.value_def(v) {
            ValueDef::Param(_) => Some((func.entry(), -1)),
            ValueDef::Inst(id) => locations[id.index()].map(|(b, p)| (b, p as isize)),
        }
    };

    let check_use = |v: Value, use_block: Block, use_pos: isize| -> Result<(), SsaViolation> {
        let (db, dp) = def_pos(v).ok_or(SsaViolation::UnlinkedDef(v))?;
        let ok = if db == use_block {
            dp < use_pos
        } else {
            dt.strictly_dominates(db, use_block)
        };
        if ok {
            Ok(())
        } else {
            Err(SsaViolation::UseNotDominated {
                value: v,
                use_block,
            })
        }
    };

    for b in func.blocks() {
        if !dt.is_reachable(b) {
            continue;
        }
        for (pos, &id) in func.block(b).insts().iter().enumerate() {
            let inst = func.inst(id);
            match &inst.kind {
                InstKind::GetLocal { .. } | InstKind::SetLocal { .. } if !locals => {
                    return Err(SsaViolation::LocalOpRemains(id));
                }
                InstKind::Phi { args } => {
                    // Each argument is a use at the end of its predecessor.
                    for (p, v) in args {
                        check_use(*v, *p, isize::MAX)?;
                    }
                }
                kind => {
                    let mut result: Result<(), SsaViolation> = Ok(());
                    kind.for_each_use(|v| {
                        if result.is_ok() {
                            result = check_use(v, b, pos as isize);
                        }
                    });
                    result?;
                }
            }
        }
        if let Some(term) = func.block(b).terminator_opt() {
            let mut result: Result<(), SsaViolation> = Ok(());
            term.for_each_use(|v| {
                if result.is_ok() {
                    result = check_use(v, b, isize::MAX);
                }
            });
            result?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcd_ir::{CmpOp, FunctionBuilder, Type};

    #[test]
    fn use_before_def_in_other_branch_rejected() {
        // then-block defines y; else-block uses y: not dominated.
        let mut b = FunctionBuilder::new("f", vec![Type::Int], Some(Type::Int));
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.compare(CmpOp::Lt, x, zero);
        let (t, e) = (b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to_block(t);
        let y = b.copy(x);
        b.ret(Some(y));
        b.switch_to_block(e);
        b.ret(Some(y)); // violation
        let f = b.finish().unwrap();
        assert!(matches!(
            verify_ssa(&f),
            Err(SsaViolation::UseNotDominated { .. })
        ));
    }

    #[test]
    fn locals_rejected() {
        let mut b = FunctionBuilder::new("f", vec![Type::Int], None);
        let l = b.new_local(Type::Int);
        let x = b.param(0);
        b.set_local(l, x);
        b.ret(None);
        let f = b.finish().unwrap();
        assert!(matches!(
            verify_ssa(&f),
            Err(SsaViolation::LocalOpRemains(_))
        ));
    }

    #[test]
    fn dominance_alone_accepts_locals_but_not_a_use_before_its_def() {
        let mut b = FunctionBuilder::new("f", vec![Type::Int], None);
        let l = b.new_local(Type::Int);
        let x = b.param(0);
        b.set_local(l, x);
        b.ret(None);
        let f = b.finish().unwrap();
        assert_eq!(verify_dominance(&f), Ok(()));

        // `v1 = add v0, v0` moved before `v0 = const 1`.
        let mut b = FunctionBuilder::new("g", vec![], Some(Type::Int));
        let one = b.iconst(1);
        let sum = b.binary(abcd_ir::BinOp::Add, one, one);
        b.ret(Some(sum));
        let mut f = b.finish().unwrap();
        let entry = f.entry();
        let add = f.block(entry).insts()[1];
        f.remove_inst(entry, add);
        f.insert_inst(entry, 0, add);
        assert!(matches!(
            verify_dominance(&f),
            Err(SsaViolation::UseNotDominated { value, .. }) if value == one
        ));
    }

    #[test]
    fn valid_ssa_accepted() {
        let mut b = FunctionBuilder::new("f", vec![Type::Int], Some(Type::Int));
        let x = b.param(0);
        let one = b.iconst(1);
        let y = b.binary(abcd_ir::BinOp::Add, x, one);
        b.ret(Some(y));
        let f = b.finish().unwrap();
        assert_eq!(verify_ssa(&f), Ok(()));
    }
}
