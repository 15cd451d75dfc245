//! Baseline analyses and cleanup passes for the ABCD reproduction.
//!
//! Two roles:
//!
//! * the **"basic set"** of optimizations the paper's host compiler
//!   (Jalapeño) runs before ABCD — constant folding, copy propagation,
//!   global CSE/value numbering, dead-code elimination ([`cleanup`]);
//! * the **value-range-analysis baseline** the paper compares against
//!   ([`eliminate_checks_by_range`]), an exhaustive interval analysis that
//!   removes fully redundant checks but — unlike ABCD — no partially
//!   redundant ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constfold;
mod dce;
mod gvn;
mod range;
mod scratch;

pub use constfold::fold_constants;
pub use dce::eliminate_dead_code;
pub use gvn::{
    congruent_arrays, congruent_arrays_in, record_load_congruence, value_number,
    value_number_with_tree, GvnResult,
};
pub use range::{eliminate_checks_by_range, Bound, Range, RangeStats};
pub use scratch::CleanupScratch;

use abcd_ir::Function;
use abcd_ssa::DomTree;

/// Statistics from the [`cleanup`] pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CleanupStats {
    /// Instructions rewritten by constant folding.
    pub folded: usize,
    /// Instructions removed by value numbering / copy propagation.
    pub value_numbered: usize,
    /// Instructions removed by dead-code elimination.
    pub dce_removed: usize,
}

/// Runs the pre-ABCD cleanup pipeline on an SSA-form function:
/// constant folding → value numbering → (repeat once) → DCE.
///
/// Returns the GVN result so ABCD's §7.1 hook can query congruence.
pub fn cleanup(func: &mut Function) -> (CleanupStats, GvnResult) {
    cleanup_with_tree(func, &DomTree::compute(func))
}

/// [`cleanup`] over `func`'s dominator tree `dt`. No cleanup pass changes
/// the CFG, so `dt` stays valid throughout (and after).
pub fn cleanup_with_tree(func: &mut Function, dt: &DomTree) -> (CleanupStats, GvnResult) {
    CleanupScratch::new().cleanup(func, dt)
}

impl CleanupScratch {
    /// [`cleanup_with_tree`] on this scratch's tables. Hand the returned
    /// result back with [`recycle`](CleanupScratch::recycle) once its
    /// congruence classes are no longer needed.
    pub fn cleanup(&mut self, func: &mut Function, dt: &DomTree) -> (CleanupStats, GvnResult) {
        let mut stats = CleanupStats::default();
        stats.folded += fold_constants(func);
        let mut gvn = self.fresh_result(func);
        stats.value_numbered += self.number_into(func, dt, &mut gvn);
        let folded2 = fold_constants(func);
        if folded2 > 0 {
            stats.folded += folded2;
            // The second pass's unifications join the first's (later
            // leaders win).
            stats.value_numbered += self.number_into(func, dt, &mut gvn);
        }
        gvn.removed = stats.value_numbered;
        stats.dce_removed += self.eliminate_dead_code(func);
        (stats, gvn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcd_frontend::compile;

    #[test]
    fn cleanup_shrinks_frontend_output() {
        let mut m = compile(
            "fn f(a: int[]) -> int {
                let x: int = a.length;
                let y: int = a.length;
                return x + y + (2 * 3);
            }",
        )
        .unwrap();
        let id = m.functions().next().unwrap().0;
        let f = m.function_mut(id);
        abcd_ssa::split_critical_edges(f);
        abcd_ssa::promote_locals(f).unwrap();
        let before: usize = f.blocks().map(|b| f.block(b).insts().len()).sum();
        let (stats, _) = cleanup(f);
        let after: usize = f.blocks().map(|b| f.block(b).insts().len()).sum();
        assert!(after < before, "{stats:?}");
        assert!(stats.folded >= 1);
        assert!(stats.value_numbered >= 1);
        abcd_ssa::verify_ssa(f).unwrap();
        abcd_ir::verify_function(f, None).unwrap();
    }

    #[test]
    fn a_reused_scratch_matches_a_fresh_one() {
        let src = "fn big(a: int[], b: int[]) -> int {
                let s: int = 0;
                for (let i: int = 0; i < a.length; i = i + 1) {
                    s = s + a[i] + a[i] + b.length + b.length + (3 - 3);
                }
                return s;
            }
            fn small(a: int[]) -> int { return a.length + a.length; }";
        let module = compile(src).unwrap();
        let mut scratch = CleanupScratch::new();
        // Twice over both functions, so the second pass runs on tables a
        // larger function left behind.
        for _ in 0..2 {
            for (_, func) in module.functions() {
                let mut warm = func.clone();
                abcd_ssa::split_critical_edges(&mut warm);
                abcd_ssa::promote_locals(&mut warm).unwrap();
                let mut fresh = warm.clone();
                let dt = DomTree::compute(&warm);
                let (stats, mut gvn) = scratch.cleanup(&mut warm, &dt);
                scratch.record_load_congruence(&warm, &mut gvn);
                let (fresh_stats, mut fresh_gvn) = cleanup(&mut fresh);
                record_load_congruence(&fresh, &mut fresh_gvn);
                assert_eq!(stats, fresh_stats);
                assert_eq!(warm.to_string(), fresh.to_string());
                for v in warm.values() {
                    assert_eq!(gvn.leader_of(v), fresh_gvn.leader_of(v));
                }
                scratch.recycle(gvn);
            }
        }
    }

    #[test]
    fn cleanup_preserves_semantics() {
        let src = "fn f(a: int[]) -> int {
            let s: int = 0;
            for (let i: int = 0; i < a.length; i = i + 1) {
                s = s + a[i] * 2 + (1 + 1);
            }
            return s;
        }";
        let m1 = compile(src).unwrap();
        let mut m2 = compile(src).unwrap();
        abcd_ssa::module_to_essa(&mut m2).unwrap();
        let ids: Vec<_> = m2.functions().map(|(i, _)| i).collect();
        for id in ids {
            cleanup(m2.function_mut(id));
        }
        let mut vm1 = abcd_vm::Vm::new(&m1);
        let a1 = vm1.alloc_int_array(&[3, 1, 4]);
        let mut vm2 = abcd_vm::Vm::new(&m2);
        let a2 = vm2.alloc_int_array(&[3, 1, 4]);
        assert_eq!(
            vm1.call_by_name("f", &[a1]).unwrap(),
            vm2.call_by_name("f", &[a2]).unwrap()
        );
    }
}
