//! Intermediate representation for the ABCD bounds-check eliminator.
//!
//! This crate defines a small, conventional compiler IR: a control-flow graph
//! of basic blocks holding three-address instructions. It is modeled on the
//! high-level IR of the Jalapeño optimizing compiler, which is the substrate
//! the ABCD paper (Bodík, Gupta, Sarkar; PLDI 2000) operates on. The salient
//! features ABCD needs are all present:
//!
//! * **explicit array bounds checks** ([`InstKind::BoundsCheck`]) with stable
//!   site identifiers ([`CheckSite`]) so dynamic executions can be attributed
//!   to static checks,
//! * **φ-instructions** for SSA form and **π-instructions** for the paper's
//!   *extended SSA* (e-SSA) form ([`InstKind::Pi`], [`PiGuard`]),
//! * a **pre-SSA locals layer** ([`InstKind::GetLocal`]/[`InstKind::SetLocal`])
//!   that the frontend targets and that `abcd-ssa` promotes to SSA values,
//!   mirroring how real compilers run mem2reg before SSA-based optimizations,
//! * the **compare/trap split** used by ABCD's partial-redundancy
//!   transformation ([`InstKind::SpecCheck`], [`InstKind::TrapIfFlagged`]).
//!
//! The IR is deliberately executable: the sibling `abcd-vm` crate interprets
//! every form (locals, SSA, e-SSA, optimized), which lets the test suite
//! differentially validate each transformation.
//!
//! # Example
//!
//! ```
//! use abcd_ir::{FunctionBuilder, Module, Type};
//!
//! let mut module = Module::new();
//! let mut b = FunctionBuilder::new("len", vec![Type::array_of(Type::Int)], Some(Type::Int));
//! let arr = b.param(0);
//! let len = b.array_len(arr);
//! b.ret(Some(len));
//! let func = b.finish().expect("well-formed function");
//! module.add_function(func);
//! assert_eq!(module.functions().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod canon;
mod cfg;
mod entities;
mod function;
mod inst;
mod intern;
mod module;
mod parse;
mod print;
mod splitmix;
mod types;
mod verify;

pub use builder::FunctionBuilder;
pub use canon::{canonicalize, is_canonical, print_canonical};
pub use cfg::{postorder, predecessors, reverse_postorder, successors};
pub use entities::{Block, CheckSite, FuncId, InstId, Local, Value};
pub use function::{BlockData, Function, ValueDef};
pub use inst::{BinOp, CheckKind, CmpOp, Inst, InstKind, PiGuard, Terminator, UnOp};
pub use intern::Symbol;
pub use module::Module;
pub use parse::{parse_function_text, parse_module, ParseIrError};
pub use print::{print_function, Fnv1a, Sink};
pub use splitmix::SplitMix64;
pub use types::Type;
pub use verify::{verify_function, verify_module, VerifyError};
