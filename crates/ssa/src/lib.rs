//! SSA and extended-SSA (e-SSA) construction for the ABCD IR.
//!
//! The ABCD paper assumes its input "to be already available" in SSA form
//! and extends it with π-assignments (§3). This crate supplies the whole
//! chain:
//!
//! 1. [`split_critical_edges`] — CFG normalization: a looping entry gets a
//!    fresh entry block, and every critical edge a block of its own, so
//!    π-assignments and PRE insertions have an edge block to live in,
//! 2. [`DomTree`] — dominator tree and dominance frontiers
//!    (Cooper–Harvey–Kennedy), built **once** per function, after
//!    normalization,
//! 3. [`promote_locals`] — classic Cytron-style SSA construction over the
//!    IR's `get_local`/`set_local` layer (pruned φ placement + renaming),
//! 4. [`insert_pi_nodes`] — e-SSA π-assignment insertion and threading,
//! 5. [`verify_ssa`] — definition-dominates-use checking used throughout the
//!    test suite.
//!
//! # One tree, reused tables
//!
//! Steps 3 and 4 and the optimizer after them neither add nor retarget a
//! reachable edge, so the tree built after normalization serves every one
//! of them. [`SsaScratch`] carries that tree and every other table — the
//! frontiers, the liveness bit rows, a per-instruction φ table and the
//! rename tables with their undo log — as dense `Vec`s that each function
//! refills in place. The driver keeps one scratch per worker, so
//! construction stops allocating for its own bookkeeping once the scratch
//! is warm; what remains is the IR it creates. The free functions run the
//! same code on a fresh scratch.
//!
//! # Not the optimizer's pipeline
//!
//! The optimizer runs these steps with its own stages between them: its
//! cleanup and load congruence run after promotion and before π insertion.
//! `abcd::Optimizer::run_to` runs that pipeline up to any named stage, and
//! every tool that shows or measures the form the prover analyzes uses
//! it. [`module_to_essa`] is steps 1, 3 and 4 alone, for the crates below
//! `abcd` (analysis, interpreter, front end) that test on e-SSA without
//! depending on the optimizer.
//!
//! # Example
//!
//! ```
//! use abcd_ir::{FunctionBuilder, Type, CheckKind};
//! use abcd_ssa::{insert_pi_nodes, promote_locals, split_critical_edges};
//!
//! let mut b = FunctionBuilder::new("f", vec![Type::array_of(Type::Int)], Some(Type::Int));
//! let a = b.param(0);
//! let i = b.iconst(3);
//! b.bounds_check(a, i, CheckKind::Upper);
//! let x = b.load(a, i);
//! b.ret(Some(x));
//! let mut f = b.finish()?;
//! split_critical_edges(&mut f);
//! promote_locals(&mut f)?;
//! assert_eq!(insert_pi_nodes(&mut f).check_pis, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dom;
mod essa;
mod liveness;
mod mem2reg;
mod scratch;
mod split;
mod verify;

pub use dom::{iterated_dominance_frontier, DomTree};
pub use essa::{insert_pi_nodes, PiStats};
pub use liveness::LocalLiveness;
pub use mem2reg::{promote_locals, SsaError};
pub use scratch::SsaScratch;
pub use split::{split_critical_edges, split_looping_entry};
pub use verify::{verify_dominance, verify_ssa, SsaViolation};

/// Converts every function of a module from locals form to e-SSA, on one
/// scratch: normalizes the CFG, promotes locals to SSA and inserts
/// π-assignments, with no cleanup between. This is not the optimizer's
/// pipeline (see the crate docs).
///
/// # Errors
///
/// The offending function's name alongside the [`SsaError`] of its
/// promotion (e.g. a read of a local that is never written on some path).
pub fn module_to_essa(module: &mut abcd_ir::Module) -> Result<(), (String, SsaError)> {
    let mut scratch = SsaScratch::new();
    for (_, func) in module.functions_mut() {
        scratch.normalize(func);
        scratch
            .promote_locals(func)
            .map_err(|e| (func.name().to_string(), e))?;
        scratch.insert_pi_nodes(func);
        debug_assert_eq!(verify_ssa(func), Ok(()));
    }
    Ok(())
}
