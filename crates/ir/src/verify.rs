//! Structural and type verification of functions and modules.
//!
//! The verifier checks everything that does not require dominance
//! information: block termination, operand existence, operand/result typing,
//! φ-argument/predecessor agreement, and call signatures. SSA dominance
//! ("every use is dominated by its definition") is checked by
//! `abcd_ssa::verify_ssa`, which owns the dominator tree.

use crate::cfg::successors;
use crate::entities::{Block, InstId, Value};
use crate::function::Function;
use crate::inst::{BinOp, InstKind, Terminator, UnOp};
use crate::module::Module;
use crate::types::Type;
use std::error::Error;
use std::fmt;

/// A verification failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// A reachable block has no terminator.
    UnterminatedBlock(Block),
    /// A terminator or φ references a block that does not exist.
    BadBlockRef(Block),
    /// An instruction references a value that does not exist.
    BadValueRef(InstId),
    /// A terminator references a value that does not exist.
    BadTerminatorValueRef(Block),
    /// An operand has the wrong type.
    TypeMismatch {
        /// Offending instruction.
        inst: InstId,
        /// Human-readable explanation.
        detail: String,
    },
    /// A φ-instruction's predecessors disagree with the CFG.
    PhiPredecessorMismatch(InstId),
    /// A φ appears after a non-φ instruction in its block.
    PhiNotAtBlockStart(InstId),
    /// An instruction's result presence disagrees with its kind.
    BadResult(InstId),
    /// A local slot reference is out of range.
    BadLocalRef(InstId),
    /// A call's arguments or return type disagree with the callee signature.
    BadCall {
        /// Offending call instruction.
        inst: InstId,
        /// Human-readable explanation.
        detail: String,
    },
    /// A call references a function id that does not exist in the module.
    BadFuncRef(InstId),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnterminatedBlock(b) => write!(f, "reachable block {b} not terminated"),
            VerifyError::BadBlockRef(b) => write!(f, "reference to nonexistent block {b}"),
            VerifyError::BadValueRef(i) => write!(f, "{i} references a nonexistent value"),
            VerifyError::BadTerminatorValueRef(b) => {
                write!(f, "the terminator of {b} references a nonexistent value")
            }
            VerifyError::TypeMismatch { inst, detail } => {
                write!(f, "type mismatch at {inst}: {detail}")
            }
            VerifyError::PhiPredecessorMismatch(i) => {
                write!(f, "phi {i} arguments disagree with CFG predecessors")
            }
            VerifyError::PhiNotAtBlockStart(i) => write!(f, "phi {i} not at block start"),
            VerifyError::BadResult(i) => write!(f, "{i} result presence disagrees with its kind"),
            VerifyError::BadLocalRef(i) => write!(f, "{i} references a nonexistent local"),
            VerifyError::BadCall { inst, detail } => write!(f, "bad call at {inst}: {detail}"),
            VerifyError::BadFuncRef(i) => write!(f, "{i} calls a nonexistent function"),
        }
    }
}

impl Error for VerifyError {}

fn expect_ty(
    func: &Function,
    inst: InstId,
    v: Value,
    want: &Type,
    what: &str,
) -> Result<(), VerifyError> {
    if func.value_type(v) != want {
        return Err(VerifyError::TypeMismatch {
            inst,
            detail: format!("{what} is {}, expected {want}", func.value_type(v)),
        });
    }
    Ok(())
}

fn expect_array(func: &Function, inst: InstId, v: Value) -> Result<&Type, VerifyError> {
    func.value_type(v)
        .elem()
        .ok_or_else(|| VerifyError::TypeMismatch {
            inst,
            detail: format!("expected array, found {}", func.value_type(v)),
        })
}

/// Dense CFG facts the verifier needs: which blocks the entry reaches, and
/// how many CFG edges enter each block (from any terminated block).
struct CfgMarks {
    reachable: Vec<bool>,
    in_edges: Vec<u32>,
}

impl CfgMarks {
    /// Successor references to nonexistent blocks are skipped here; the
    /// per-block terminator check reports them as [`VerifyError::BadBlockRef`].
    fn compute(func: &Function) -> CfgMarks {
        let n = func.block_count();
        let mut in_edges = vec![0u32; n];
        for b in func.blocks() {
            for s in successors(func, b) {
                if let Some(count) = in_edges.get_mut(s.index()) {
                    *count += 1;
                }
            }
        }
        let mut reachable = vec![false; n];
        let mut stack = vec![func.entry()];
        reachable[func.entry().index()] = true;
        while let Some(b) = stack.pop() {
            for s in successors(func, b) {
                if let Some(seen @ false) = reachable.get_mut(s.index()) {
                    *seen = true;
                    stack.push(s);
                }
            }
        }
        CfgMarks {
            reachable,
            in_edges,
        }
    }
}

/// Verifies a single function.
///
/// If `module` is provided, call instructions are checked against callee
/// signatures; otherwise calls are only structurally checked.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify_function(func: &Function, module: Option<&Module>) -> Result<(), VerifyError> {
    let block_count = func.block_count();
    let value_count = func.value_count();
    let cfg = CfgMarks::compute(func);

    for b in func.blocks() {
        let data = func.block(b);
        if cfg.reachable[b.index()] && data.terminator_opt().is_none() {
            return Err(VerifyError::UnterminatedBlock(b));
        }

        // Block structure: φs form a prefix.
        let mut seen_non_phi = false;
        for &id in data.insts() {
            let inst = func.inst(id);
            if matches!(inst.kind, InstKind::Phi { .. }) {
                if seen_non_phi {
                    return Err(VerifyError::PhiNotAtBlockStart(id));
                }
            } else {
                seen_non_phi = true;
            }

            // Every used value exists.
            let mut bad = false;
            inst.kind.for_each_use(|v| bad |= v.index() >= value_count);
            if bad {
                return Err(VerifyError::BadValueRef(id));
            }

            verify_inst(func, module, b, id, &cfg.in_edges)?;
        }

        if let Some(term) = data.terminator_opt() {
            let mut bad_val = false;
            term.for_each_use(|v| bad_val |= v.index() >= value_count);
            if bad_val {
                return Err(VerifyError::BadTerminatorValueRef(b));
            }
            match term {
                Terminator::Jump(d) => {
                    if d.index() >= block_count {
                        return Err(VerifyError::BadBlockRef(*d));
                    }
                }
                Terminator::Branch {
                    cond,
                    then_dst,
                    else_dst,
                } => {
                    for d in [then_dst, else_dst] {
                        if d.index() >= block_count {
                            return Err(VerifyError::BadBlockRef(*d));
                        }
                    }
                    if func.value_type(*cond) != &Type::Bool {
                        return Err(VerifyError::TypeMismatch {
                            inst: InstId::new(0),
                            detail: format!(
                                "branch condition in {b} is {}, expected bool",
                                func.value_type(*cond)
                            ),
                        });
                    }
                }
                Terminator::Return(v) => match (v, func.ret_type()) {
                    (None, None) => {}
                    (Some(v), Some(rt)) => {
                        if func.value_type(*v) != rt {
                            return Err(VerifyError::TypeMismatch {
                                inst: InstId::new(0),
                                detail: format!(
                                    "return value in {b} is {}, expected {rt}",
                                    func.value_type(*v)
                                ),
                            });
                        }
                    }
                    _ => {
                        return Err(VerifyError::TypeMismatch {
                            inst: InstId::new(0),
                            detail: format!("return arity mismatch in {b}"),
                        })
                    }
                },
            }
        }
    }
    Ok(())
}

fn verify_inst(
    func: &Function,
    module: Option<&Module>,
    block: Block,
    id: InstId,
    in_edges: &[u32],
) -> Result<(), VerifyError> {
    let inst = func.inst(id);
    let has_result = inst.result.is_some();
    let wants_result = !matches!(
        inst.kind,
        InstKind::Store { .. }
            | InstKind::BoundsCheck { .. }
            | InstKind::SpecCheck { .. }
            | InstKind::TrapIfFlagged { .. }
            | InstKind::Output { .. }
            | InstKind::SetLocal { .. }
            | InstKind::Call { .. } // calls may be void or valued
    );
    if wants_result != has_result && !matches!(inst.kind, InstKind::Call { .. }) {
        return Err(VerifyError::BadResult(id));
    }

    let result_ty = |want: &Type| -> Result<(), VerifyError> {
        match inst.result {
            Some(r) if func.value_type(r) == want => Ok(()),
            _ => Err(VerifyError::BadResult(id)),
        }
    };

    match &inst.kind {
        InstKind::Const(_) => result_ty(&Type::Int)?,
        InstKind::BoolConst(_) => result_ty(&Type::Bool)?,
        InstKind::Unary { op, arg } => {
            let ty = match op {
                UnOp::Neg => Type::Int,
                UnOp::Not => Type::Bool,
            };
            expect_ty(func, id, *arg, &ty, "unary operand")?;
            result_ty(&ty)?;
        }
        InstKind::Binary { op: _, lhs, rhs } => {
            // All BinOps are int → int → int.
            let _ = BinOp::Add;
            expect_ty(func, id, *lhs, &Type::Int, "binary lhs")?;
            expect_ty(func, id, *rhs, &Type::Int, "binary rhs")?;
            result_ty(&Type::Int)?;
        }
        InstKind::Compare { lhs, rhs, .. } => {
            expect_ty(func, id, *lhs, &Type::Int, "compare lhs")?;
            expect_ty(func, id, *rhs, &Type::Int, "compare rhs")?;
            result_ty(&Type::Bool)?;
        }
        InstKind::NewArray { elem, len } => {
            expect_ty(func, id, *len, &Type::Int, "array length")?;
            match inst.result {
                Some(r) if func.value_type(r).elem() == Some(elem) => {}
                _ => return Err(VerifyError::BadResult(id)),
            }
        }
        InstKind::ArrayLen { array } => {
            expect_array(func, id, *array)?;
            result_ty(&Type::Int)?;
        }
        InstKind::Load { array, index } => {
            let elem = expect_array(func, id, *array)?;
            expect_ty(func, id, *index, &Type::Int, "load index")?;
            result_ty(elem)?;
        }
        InstKind::Store {
            array,
            index,
            value,
        } => {
            let elem = expect_array(func, id, *array)?;
            expect_ty(func, id, *index, &Type::Int, "store index")?;
            expect_ty(func, id, *value, elem, "stored value")?;
        }
        InstKind::BoundsCheck { array, index, .. }
        | InstKind::SpecCheck { array, index, .. }
        | InstKind::TrapIfFlagged { array, index, .. } => {
            expect_array(func, id, *array)?;
            expect_ty(func, id, *index, &Type::Int, "checked index")?;
        }
        InstKind::Phi { args } => {
            let r = inst.result.ok_or(VerifyError::BadResult(id))?;
            let want = func.value_type(r);
            for (p, v) in args {
                if p.index() >= func.block_count() {
                    return Err(VerifyError::BadBlockRef(*p));
                }
                expect_ty(func, id, *v, want, "phi argument")?;
            }
            // φ arguments must cover exactly the CFG predecessors (as a
            // multiset; duplicate predecessor blocks require duplicate args):
            // as many arguments as in-edges, and per argument block as many
            // arguments as it has edges into this block.
            let covers = args.len() == in_edges[block.index()] as usize
                && args.iter().all(|(p, _)| {
                    let edges = successors(func, *p).iter().filter(|&&s| s == block).count();
                    args.iter().filter(|(q, _)| q == p).count() == edges
                });
            if !covers {
                return Err(VerifyError::PhiPredecessorMismatch(id));
            }
        }
        InstKind::Pi { input, .. } => {
            let r = inst.result.ok_or(VerifyError::BadResult(id))?;
            if func.value_type(r) != func.value_type(*input) {
                return Err(VerifyError::BadResult(id));
            }
        }
        InstKind::Copy { arg } => {
            let r = inst.result.ok_or(VerifyError::BadResult(id))?;
            if func.value_type(r) != func.value_type(*arg) {
                return Err(VerifyError::BadResult(id));
            }
        }
        InstKind::Call { func: callee, args } => {
            if let Some(m) = module {
                if callee.index() >= m.function_count() {
                    return Err(VerifyError::BadFuncRef(id));
                }
                let sig = m.function(*callee);
                if sig.param_count() != args.len() {
                    return Err(VerifyError::BadCall {
                        inst: id,
                        detail: format!(
                            "expected {} arguments, found {}",
                            sig.param_count(),
                            args.len()
                        ),
                    });
                }
                for (a, want) in args.iter().zip(sig.param_types()) {
                    expect_ty(func, id, *a, want, "call argument")?;
                }
                match (inst.result, sig.ret_type()) {
                    (None, _) => {} // discarding a result is allowed
                    (Some(r), Some(rt)) => {
                        if func.value_type(r) != rt {
                            return Err(VerifyError::BadCall {
                                inst: id,
                                detail: "result type disagrees with callee".into(),
                            });
                        }
                    }
                    (Some(_), None) => {
                        return Err(VerifyError::BadCall {
                            inst: id,
                            detail: "valued call to void function".into(),
                        })
                    }
                }
            }
        }
        InstKind::Output { arg } => {
            expect_ty(func, id, *arg, &Type::Int, "output value")?;
        }
        InstKind::GetLocal { local } => {
            if local.index() >= func.local_count() {
                return Err(VerifyError::BadLocalRef(id));
            }
            result_ty(func.local_type(*local))?;
        }
        InstKind::SetLocal { local, value } => {
            if local.index() >= func.local_count() {
                return Err(VerifyError::BadLocalRef(id));
            }
            expect_ty(func, id, *value, func.local_type(*local), "set_local value")?;
        }
    }
    Ok(())
}

/// Verifies every function in a module (with cross-function call checking).
///
/// # Errors
///
/// Returns the first failure together with the offending function's name.
pub fn verify_module(module: &Module) -> Result<(), (String, VerifyError)> {
    for (_, f) in module.functions() {
        verify_function(f, Some(module)).map_err(|e| (f.name().to_string(), e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpOp;

    #[test]
    fn unterminated_reachable_block_rejected() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        let dead_end = b.new_block();
        b.jump(dead_end);
        let f = b.finish_unverified();
        assert_eq!(
            verify_function(&f, None),
            Err(VerifyError::UnterminatedBlock(dead_end))
        );
    }

    #[test]
    fn unterminated_unreachable_block_allowed() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        b.ret(None);
        let _orphan = b.new_block();
        let f = b.finish_unverified();
        assert_eq!(verify_function(&f, None), Ok(()));
    }

    #[test]
    fn phi_predecessor_mismatch_rejected() {
        let mut b = FunctionBuilder::new("f", vec![Type::Int], Some(Type::Int));
        let x = b.param(0);
        let next = b.new_block();
        b.jump(next);
        b.switch_to_block(next);
        // φ claims a predecessor that is not one.
        let bogus = b.new_block();
        let m = b.phi(vec![(bogus, x)]);
        b.ret(Some(m));
        b.switch_to_block(bogus);
        b.ret(Some(x));
        let f = b.finish_unverified();
        assert!(matches!(
            verify_function(&f, None),
            Err(VerifyError::PhiPredecessorMismatch(_))
        ));
    }

    #[test]
    fn call_arity_checked_against_module() {
        let mut m = Module::new();
        let callee = {
            let mut b = FunctionBuilder::new("callee", vec![Type::Int], Some(Type::Int));
            let p = b.param(0);
            b.ret(Some(p));
            b.finish().unwrap()
        };
        let callee_id = m.add_function(callee);
        let caller = {
            let mut b = FunctionBuilder::new("caller", vec![], Some(Type::Int));
            let r = b.call(callee_id, vec![], Some(Type::Int)).unwrap();
            b.ret(Some(r));
            b.finish().unwrap() // structurally fine without module context
        };
        m.add_function(caller);
        let err = verify_module(&m).unwrap_err();
        assert_eq!(err.0, "caller");
        assert!(matches!(err.1, VerifyError::BadCall { .. }));
    }

    #[test]
    fn well_formed_diamond_verifies() {
        let mut b = FunctionBuilder::new("f", vec![Type::Int, Type::Int], Some(Type::Int));
        let x = b.param(0);
        let y = b.param(1);
        let c = b.compare(CmpOp::Le, x, y);
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to_block(t);
        b.jump(j);
        b.switch_to_block(e);
        b.jump(j);
        b.switch_to_block(j);
        let m = b.phi(vec![(t, x), (e, y)]);
        b.ret(Some(m));
        assert!(b.finish().is_ok());
    }

    #[test]
    fn phi_after_non_phi_rejected() {
        let mut b = FunctionBuilder::new("f", vec![Type::Int], Some(Type::Int));
        let x = b.param(0);
        let next = b.new_block();
        b.jump(next);
        b.switch_to_block(next);
        let c = b.copy(x);
        let m = b.phi(vec![(b.func().entry(), x)]);
        let _ = c;
        b.ret(Some(m));
        let f = b.finish_unverified();
        assert!(matches!(
            verify_function(&f, None),
            Err(VerifyError::PhiNotAtBlockStart(_))
        ));
    }
}
