//! ABCD: demand-driven elimination of **A**rray **B**ounds **C**hecks on
//! **D**emand, after Bodík, Gupta & Sarkar (PLDI 2000).
//!
//! The algorithm, in the paper's own structure (Figure 2):
//!
//! 1. **Build e-SSA** — SSA plus π-assignments on branch out-edges and after
//!    checks (provided by the `abcd-ssa` crate, §3);
//! 2. **Build the inequality graph** `G_I` — a sparse, flow-insensitive
//!    system of difference constraints `v ≤ u + c` over e-SSA names, array
//!    lengths and constants, with φ-defined *max* vertices giving the
//!    hypergraph min/max semantics ([`InequalityGraph`], §4, Table 1);
//! 3. **`demandProve`** — a memoizing depth-first traversal prover over the
//!    three-point lattice `True > Reduced > False` with amplifying-cycle
//!    detection ([`DemandProver`], §5, Figure 5); a check `A[x]` is removed
//!    when `x − A.length ≤ −1` (upper) or `x ≥ 0` (lower, the §7.2 dual) is
//!    implied on every path.
//!
//! Extensions implemented: partial-redundancy elimination with speculative
//! compensating checks and the compare/trap split ([`PreProver`],
//! [`apply_insertions`], §6), the on-demand value-numbering congruence hook
//! (§7.1), and merged unsigned checks ([`merge_remaining_checks`], §7.2).
//!
//! The [`Optimizer`] drives everything per function and produces the
//! statistics §8 of the paper reports (checks removed with local/global
//! split, `prove` steps per check, analysis time).
//!
//! # Quickstart
//!
//! ```
//! use abcd::Optimizer;
//! use abcd_frontend::compile;
//! use abcd_vm::Vm;
//!
//! // Compile a kernel with 2 checks per array access…
//! let mut module = compile(r#"
//!     fn sum(a: int[]) -> int {
//!         let s: int = 0;
//!         for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
//!         return s;
//!     }
//! "#)?;
//! // …optimize…
//! let report = Optimizer::new().optimize_module(&mut module, None);
//! assert_eq!(report.checks_removed_fully(), 2);
//! // …and the optimized module still runs (now check-free).
//! let mut vm = Vm::new(&module);
//! let arr = vm.alloc_int_array(&[1, 2, 3]);
//! assert_eq!(vm.call_by_name("sum", &[arr])?, Some(abcd_vm::RtVal::Int(6)));
//! assert_eq!(vm.stats().dynamic_checks_total(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod driver;
mod exhaustive;
pub mod faults;
mod graph;
pub mod interproc;
pub mod metrics;
pub mod oracle;
mod pre;
mod report;
mod scratch;
mod solver;
mod stage;
pub mod trace;
mod validate;
pub mod versioning;

pub use cache::{AnalysisCache, CacheEntry, CacheKey, CacheStats};
pub use driver::{clamp_jobs, Optimizer, OptimizerOptions};
pub use exhaustive::ExhaustiveDistances;
pub use faults::{ChaosPlan, ChaosSite, Fault, FaultPlan, CHAOS_SITES};
pub use graph::{
    ConstraintLog, InEdge, InequalityGraph, LoggedCheck, Problem, Scope, Vertex, VertexId,
};
pub use interproc::{infer_param_facts, ModuleFacts, ParamFact};
pub use metrics::{module_metrics_json, FunctionMetrics, RunInfo};
pub use pre::{apply_insertions, compensation_delta, merge_remaining_checks};
pub use report::{
    CheckOutcome, EliminatedCheck, FunctionReport, HoistedCheck, Incident, ModuleReport,
};
pub use scratch::{ScratchArena, ScratchPool};
pub use solver::{
    AnyProver, DemandProver, DemandScratch, InsertionPoint, Lattice, PreOutcome, PreProver,
    PreScratch, ProverBackend,
};
pub use stage::{parse_ir, Stage};
pub use trace::{
    explain_function, json_escape, module_trace_jsonl, request_span_jsonl, witness_path,
    FunctionTrace, ProveEvent, Span, TRACE_SCHEMA,
};
pub use versioning::{version_functions, VersioningReport};
