//! MJ: a small Java-like array language, compiled to the ABCD IR.
//!
//! The ABCD paper optimizes Java bytecode inside the Jalapeño JVM. MJ is
//! this reproduction's stand-in source language: integers, booleans,
//! (nested) arrays with `.length`, `if`/`while`/`for`/`break`/`continue`,
//! functions with recursion, and `print`. Lowering inserts an explicit
//! lower- and upper-bounds check before **every** array access — the exact
//! input shape ABCD consumes.
//!
//! # Pipeline
//!
//! [`lex`] produces `Copy` tokens; an identifier is a [`Span`] of the
//! source. [`parse`] builds an [`ast::Program`]: flat per-kind tables
//! addressed by ids, with identifiers entered once into a name table that
//! borrows the source, so nothing is allocated per token, node or name.
//! [`lower`] resolves variables through one scope stack and functions
//! through a table indexed by name, builds every function in storage
//! reused from the previous one, and verifies each function once, against
//! the whole module.
//!
//! # Example
//!
//! ```
//! use abcd_frontend::compile;
//! use abcd_vm::{Vm, RtVal};
//!
//! let module = compile(r#"
//!     fn first(a: int[]) -> int { return a[0]; }
//! "#)?;
//! let mut vm = Vm::new(&module);
//! let arr = vm.alloc_int_array(&[42, 7]);
//! assert_eq!(vm.call_by_name("first", &[arr])?, Some(RtVal::Int(42)));
//! // Each access carries a lower and an upper check:
//! assert_eq!(vm.stats().checks, [1, 1, 0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod error;
mod lower;
mod parser;
mod token;

pub use error::{FrontendError, Pos};
pub use lower::lower;
pub use parser::parse;
pub use token::{lex, Keyword, Span, Spanned, Sym, Token};

use abcd_ir::Module;

/// Compiles MJ source text to an IR module in locals form (pre-SSA), with
/// bounds checks inserted.
///
/// # Errors
///
/// Returns the first lexical, syntax, or type error.
pub fn compile(src: &str) -> Result<Module, FrontendError> {
    lower(&parse(src)?)
}
