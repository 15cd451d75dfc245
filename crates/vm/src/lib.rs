//! Interpreter, profiler, and cycle cost model for the ABCD IR.
//!
//! The ABCD paper evaluates inside the Jalapeño JVM; this crate is the
//! reproduction's stand-in execution substrate. It provides:
//!
//! * an interpreter ([`Vm`]) for every IR form — locals, SSA, e-SSA, and
//!   optimized code with the paper's compare/trap split
//!   (`spec_check`/`trap_if_flagged`, §6.2),
//! * dynamic-count statistics ([`ExecStats`]) — the unit of the paper's
//!   Figure 6 is dynamic upper-bound check executions,
//! * edge/site [`Profile`]s, which drive ABCD's demand-driven hot-check
//!   selection and PRE profitability test (§6.1),
//! * a cycle [`CostModel`] reproducing the speedup experiment's *shape*
//!   without the 1999 PowerPC.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod decode;
mod interp;
mod profile;
mod trap;
mod value;

pub use cost::CostModel;
pub use interp::{ExecStats, Vm, VmOptions};
pub use profile::Profile;
pub use trap::{Trap, TrapKind};
pub use value::{ArrayRef, Heap, HeapArray, RtVal, MAX_ARRAY_LEN};
