//! The partial-redundancy transformation (§6.2 of the paper).
//!
//! Once the PRE-collecting prover finds insertion points, the transformation
//! applies the paper's compare/trap split:
//!
//! * a **compensating check** `spec_check A[u + δ]` is inserted at the end
//!   of each insertion edge's block; instead of trapping, a failure sets a
//!   per-activation flag for the original site (the insertion may be
//!   control-speculative, so it must not raise an exception early);
//! * the original check is **demoted** to `trap_if_flagged`, which preserves
//!   the precise exception point: when the flag is set it re-validates the
//!   original index — failing genuinely traps exactly where the original
//!   program would, while a spurious speculative failure just continues.
//!
//! The compensating index is `u + δ` where `u` is the failing φ argument and
//! `δ` derives from the remaining difference query `c′` recorded by the
//! prover: a successful upper check on `u + δ` yields `u + δ ≤ A.length − 1`
//! and we need `u ≤ A.length + c′`, so `δ = −1 − c′`; dually a lower check
//! yields `u + δ ≥ 0` and we need (in solver domain) `−u ≤ c′`, so `δ = c′`.

use crate::graph::Problem;
use crate::solver::InsertionPoint;
use abcd_ir::{CheckKind, CheckSite, Function, InstId, InstKind, Type, Value};

/// The index offset δ a compensating check applies on top of the failing
/// φ argument, derived from the prover's remaining difference query `c′`
/// (see the module docs): `δ = −1 − c′` for upper checks, `δ = c′` for
/// lower checks. Shared between the transformation and the trace layer so
/// certificates report exactly what [`apply_insertions`] will do.
pub fn compensation_delta(problem: Problem, c_prime: i64) -> i64 {
    match problem {
        Problem::Upper => -1 - c_prime,
        Problem::Lower => c_prime,
    }
}

/// Applies the §6.2 transformation for one partially redundant check.
///
/// `check_block`/`check_inst` locate the original `bounds_check`; `points`
/// come from [`PreProver`](crate::PreProver). Returns the number of
/// compensating checks inserted.
///
/// # Panics
///
/// Panics if `check_inst` is not a `bounds_check` (driver invariant).
pub fn apply_insertions(
    func: &mut Function,
    check_block: abcd_ir::Block,
    check_inst: InstId,
    points: &[InsertionPoint],
    problem: Problem,
) -> usize {
    let InstKind::BoundsCheck {
        site,
        array,
        index,
        kind,
    } = func.inst(check_inst).kind
    else {
        panic!("apply_insertions on a non-check instruction");
    };

    for p in points {
        let delta = compensation_delta(problem, p.c_prime);
        insert_spec_check(func, p.pred, site, array, p.arg, delta, kind);
    }

    // Demote the original check: the trap point stays, the compare is gone.
    func.inst_mut(check_inst).kind = InstKind::TrapIfFlagged {
        site,
        array,
        index,
        kind,
    };
    let _ = check_block;
    points.len()
}

/// Appends `spec_check kind array[base + delta]` at the end of `block`
/// (before its terminator).
fn insert_spec_check(
    func: &mut Function,
    block: abcd_ir::Block,
    site: CheckSite,
    array: Value,
    base: Value,
    delta: i64,
    kind: CheckKind,
) {
    let index = if delta == 0 {
        base
    } else {
        let c = func.create_inst(InstKind::Const(delta), Some(Type::Int));
        let pos = func.block(block).insts().len();
        func.insert_inst(block, pos, c);
        let cv = func.inst(c).result.expect("const has result");
        let add = func.create_inst(
            InstKind::Binary {
                op: abcd_ir::BinOp::Add,
                lhs: base,
                rhs: cv,
            },
            Some(Type::Int),
        );
        let pos = func.block(block).insts().len();
        func.insert_inst(block, pos, add);
        func.inst(add).result.expect("add has result")
    };
    let check = func.create_inst(
        InstKind::SpecCheck {
            site,
            array,
            index,
            kind,
        },
        None,
    );
    let pos = func.block(block).insts().len();
    func.insert_inst(block, pos, check);
}

/// Merges adjacent `lower` + `upper` check pairs on the same index family
/// into a single unsigned check (§7.2's "trick that can merge an upper- and
/// a lower-bound check into a single check instruction").
///
/// A pair qualifies when both checks survive in the same block, test the
/// same array, and the upper check's index is the lower check's index seen
/// through π/copy renames. The merged `both` check sits at the upper check's
/// position (still before the guarded access) and keeps its site.
pub fn merge_remaining_checks(func: &mut Function) -> usize {
    let mut merged = 0;
    for b in func.blocks().collect::<Vec<_>>() {
        let ids: Vec<InstId> = func.block(b).insts().to_vec();
        // (array, index root) → lower-check inst awaiting its partner.
        let mut pending: Vec<(Value, Value, InstId)> = Vec::new();
        for id in ids {
            match func.inst(id).kind {
                InstKind::BoundsCheck {
                    array,
                    index,
                    kind: CheckKind::Lower,
                    ..
                } => {
                    pending.push((array, root_of(func, index), id));
                }
                InstKind::BoundsCheck {
                    array,
                    index,
                    kind: CheckKind::Upper,
                    site,
                } => {
                    let iroot = root_of(func, index);
                    if let Some(pos) = pending
                        .iter()
                        .position(|(a, r, _)| *a == array && *r == iroot)
                    {
                        let (_, _, lower_id) = pending.remove(pos);
                        func.remove_inst(b, lower_id);
                        func.inst_mut(id).kind = InstKind::BoundsCheck {
                            site,
                            array,
                            index,
                            kind: CheckKind::Both,
                        };
                        merged += 1;
                    }
                }
                ref kind if !kind.is_pure() => {
                    // Merging moves the lower check down to the upper check's
                    // position; that must not cross a side-effecting
                    // instruction, or a trap could be observed out of order.
                    pending.clear();
                }
                _ => {}
            }
        }
    }
    merged
}

/// Strips π/copy renames to the underlying value.
fn root_of(func: &Function, v: Value) -> Value {
    let mut cur = v;
    loop {
        let abcd_ir::ValueDef::Inst(id) = func.value_def(cur) else {
            return cur;
        };
        match &func.inst(id).kind {
            InstKind::Pi { input, .. } => cur = *input,
            InstKind::Copy { arg } => cur = *arg,
            _ => return cur,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::essa_module;
    use abcd_vm::{RtVal, Vm};

    #[test]
    fn merge_pairs_lower_with_upper_through_pi() {
        let mut m = essa_module("fn f(a: int[], i: int) -> int { return a[i]; }");
        let id = m.functions().next().unwrap().0;
        let f = m.function_mut(id);
        assert_eq!(f.count_checks(), (2, 0, 0));
        assert_eq!(merge_remaining_checks(f), 1);
        assert_eq!(f.count_checks(), (1, 0, 0));
        // the surviving check is a Both check
        let mut kinds = Vec::new();
        for b in f.blocks() {
            for &iid in f.block(b).insts() {
                if let InstKind::BoundsCheck { kind, .. } = f.inst(iid).kind {
                    kinds.push(kind);
                }
            }
        }
        assert_eq!(kinds, vec![CheckKind::Both]);

        // Semantics preserved: in-bounds loads work, OOB still traps.
        let mut vm = Vm::new(&m);
        let arr = vm.alloc_int_array(&[5, 6]);
        assert_eq!(
            vm.call_by_name("f", &[arr, RtVal::Int(1)]).unwrap(),
            Some(RtVal::Int(6))
        );
        assert_eq!(vm.stats().checks, [0, 0, 1]);
        let mut vm = Vm::new(&m);
        let arr = vm.alloc_int_array(&[5, 6]);
        assert!(vm.call_by_name("f", &[arr, RtVal::Int(-1)]).is_err());
    }

    #[test]
    fn merge_skips_mismatched_arrays() {
        let mut m = essa_module("fn f(a: int[], b: int[], i: int) -> int { return a[i] + b[i]; }");
        let id = m.functions().next().unwrap().0;
        let f = m.function_mut(id);
        // two pairs, each merges with its own array only
        assert_eq!(merge_remaining_checks(f), 2);
        assert_eq!(f.count_checks(), (2, 0, 0));
    }
}
