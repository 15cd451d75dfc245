//! The stage table: every step from source text to optimized IR, in the
//! order the driver runs them.
//!
//! One [`Stage`] names each step, and its [`name`](Stage::name) is the
//! label that traces, incidents, `--fault-plan` and `mjc dump --stage` all
//! use. [`Optimizer::run_to`](crate::Optimizer::run_to) runs the driver's
//! own per-function pipeline up to a named stage, so every tool that shows
//! or measures an intermediate form sees the form the prover saw.

use abcd_ir::Module;
use std::fmt;
use std::str::FromStr;

/// One stage of the pipeline, in pipeline order (`Ord` follows it).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Stage {
    /// Source (MJ or IR text) to syntax; for IR text, also the structural,
    /// dominance and definite-assignment checks of [`parse_ir`].
    Parse,
    /// MJ syntax to IR in locals form, bounds checks inserted.
    Lower,
    /// CFG normalization: a fresh entry block for a looping entry and a
    /// block on every critical edge.
    SplitCriticalEdges,
    /// Locals to SSA (φ placement and renaming).
    PromoteLocals,
    /// The host compiler's basic set: constant folding, value numbering,
    /// dead-code elimination.
    Cleanup,
    /// Load congruence for the §7.1 hook (reads the IR, never changes it).
    Congruence,
    /// e-SSA: π-assignments on branch out-edges and after checks.
    InsertPi,
    /// The upper and lower inequality graphs, from one constraint log.
    GraphBuild,
    /// `demandProve` per bounds check.
    Solve,
    /// Partial-redundancy elimination for checks the solver kept.
    Pre,
    /// Removal of proven checks and insertion of compensating ones.
    Transform,
    /// Translation validation of every removal (when enabled).
    Validate,
    /// Renumbering into the parser's canonical form.
    Canonicalize,
}

/// Every stage with its label, in pipeline (and declaration) order.
const TABLE: [(Stage, &str); 13] = [
    (Stage::Parse, "parse"),
    (Stage::Lower, "lower"),
    (Stage::SplitCriticalEdges, "split_critical_edges"),
    (Stage::PromoteLocals, "promote_locals"),
    (Stage::Cleanup, "cleanup"),
    (Stage::Congruence, "congruence"),
    (Stage::InsertPi, "insert_pi"),
    (Stage::GraphBuild, "graph_build"),
    (Stage::Solve, "solve"),
    (Stage::Pre, "pre"),
    (Stage::Transform, "transform"),
    (Stage::Validate, "validate"),
    (Stage::Canonicalize, "canonicalize"),
];

impl Stage {
    /// Every stage, in pipeline order.
    pub fn all() -> impl Iterator<Item = Stage> {
        TABLE.into_iter().map(|(stage, _)| stage)
    }

    /// The stage's label.
    pub fn name(self) -> &'static str {
        TABLE[self as usize].1
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Stage {
    type Err = String;

    fn from_str(s: &str) -> Result<Stage, String> {
        Stage::all().find(|stage| stage.name() == s).ok_or_else(|| {
            let names: Vec<_> = Stage::all().map(Stage::name).collect();
            format!("unknown stage `{s}` (expected {})", names.join("|"))
        })
    }
}

/// The parse stage for IR text: parses `text` and holds it to what the
/// front end guarantees for MJ, since the interpreter and the driver rely
/// on it. Every function must verify, every definition must dominate its
/// uses, and no local may be read on a path where it was never written.
///
/// # Errors
///
/// The first problem found, prefixed with the function's name when it
/// belongs to one.
pub fn parse_ir(text: &str) -> Result<Module, String> {
    let module = abcd_ir::parse_module(text).map_err(|e| e.to_string())?;
    abcd_ir::verify_module(&module).map_err(|(f, e)| format!("{f}: {e}"))?;
    for (_, f) in module.functions() {
        abcd_ssa::verify_dominance(f).map_err(|e| format!("{}: {e}", f.name()))?;
        // Promotion is where a read of an unwritten local shows; run it on
        // a copy so the module stays as written.
        abcd_ssa::promote_locals(&mut f.clone()).map_err(|e| format!("{}: {e}", f.name()))?;
    }
    Ok(module)
}

/// `src`'s module in the e-SSA form the driver analyzes under `options`
/// (through `insert_pi`), for the crate's unit tests.
#[cfg(test)]
pub(crate) fn essa_module_with(src: &str, options: crate::OptimizerOptions) -> Module {
    let mut module = abcd_frontend::compile(src).unwrap();
    crate::Optimizer::with_options(options)
        .run_to(&mut module, Stage::InsertPi)
        .unwrap();
    module
}

/// [`essa_module_with`] under the default options.
#[cfg(test)]
pub(crate) fn essa_module(src: &str) -> Module {
    essa_module_with(src, crate::OptimizerOptions::default())
}

/// The first function of [`essa_module`].
#[cfg(test)]
pub(crate) fn essa(src: &str) -> abcd_ir::Function {
    let module = essa_module(src);
    let (_, f) = module.functions().next().unwrap();
    f.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_in_pipeline_order() {
        for (i, (stage, name)) in TABLE.into_iter().enumerate() {
            assert_eq!(stage as usize, i, "{name} out of place");
            assert_eq!(name.parse::<Stage>(), Ok(stage));
        }
        let err = "sovle".parse::<Stage>().unwrap_err();
        assert!(err.contains("parse|lower|split_critical_edges"), "{err}");
    }
}
