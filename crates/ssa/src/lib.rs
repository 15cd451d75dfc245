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
//! same code on a fresh scratch, and [`to_essa`] runs 1–4 in order.
//!
//! # Example
//!
//! ```
//! use abcd_ir::{FunctionBuilder, Type, CheckKind};
//! use abcd_ssa::to_essa;
//!
//! let mut b = FunctionBuilder::new("f", vec![Type::array_of(Type::Int)], Some(Type::Int));
//! let a = b.param(0);
//! let i = b.iconst(3);
//! b.bounds_check(a, i, CheckKind::Upper);
//! let x = b.load(a, i);
//! b.ret(Some(x));
//! let mut f = b.finish()?;
//! let stats = to_essa(&mut f)?;
//! assert_eq!(stats.pi.check_pis, 1);
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

/// Statistics from the full [`to_essa`] pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EssaStats {
    /// Critical edges split.
    pub edges_split: usize,
    /// π-insertion statistics.
    pub pi: PiStats,
}

/// Converts a pre-SSA function (locals form) to e-SSA:
/// normalizes the CFG, promotes locals to SSA, inserts π-assignments.
///
/// # Errors
///
/// Propagates [`SsaError`] from SSA construction (e.g. a read of a local
/// that is never written on some path).
pub fn to_essa(func: &mut abcd_ir::Function) -> Result<EssaStats, SsaError> {
    SsaScratch::new().to_essa(func)
}

/// Converts every function of a module to e-SSA, on one scratch.
///
/// # Errors
///
/// Returns the offending function's name alongside the error.
pub fn module_to_essa(module: &mut abcd_ir::Module) -> Result<(), (String, SsaError)> {
    let mut scratch = SsaScratch::new();
    for (_, func) in module.functions_mut() {
        scratch
            .to_essa(func)
            .map_err(|e| (func.name().to_string(), e))?;
    }
    Ok(())
}
