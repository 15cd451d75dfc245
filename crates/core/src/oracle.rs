//! VM-differential oracle: the ground truth behind translation validation.
//!
//! Runs a module's entry point on the interpreter and compares a candidate
//! (optimized, possibly sabotaged) module against a reference (unoptimized)
//! one. The comparison is exact on results and printed output, and
//! *site-insensitive* on traps: `merge_remaining_checks` legitimately
//! reassigns a merged check to the upper check's site, so two modules that
//! trap on the same index/length with the same trap variant agree even if
//! the recorded [`CheckSite`](abcd_ir::CheckSite) labels differ. Trap
//! variant mismatches — in particular a candidate raising
//! [`TrapKind::UncheckedAccessOutOfBounds`] where the reference raised
//! [`TrapKind::BoundsCheckFailed`] — are exactly the miscompilations the
//! oracle exists to expose.

use crate::interproc::source_name;
use abcd_ir::Module;
use abcd_vm::{RtVal, Trap, TrapKind, Vm};
use std::fmt;

/// What one run of an entry point produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunOutcome {
    /// The return value, or the trap that stopped execution.
    pub result: Result<Option<RtVal>, Trap>,
    /// Everything the program printed.
    pub output: Vec<i64>,
}

/// Runs `entry` (no arguments) on a fresh VM.
pub fn run_entry(module: &Module, entry: &str) -> RunOutcome {
    let mut vm = Vm::new(module);
    let result = vm.call_by_name(entry, &[]);
    RunOutcome {
        output: vm.output().to_vec(),
        result,
    }
}

/// A divergence found by [`differential`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Divergence {
    /// Return values (or trap/return status) differ.
    Result {
        /// What the reference produced.
        reference: Box<RunOutcome>,
        /// What the candidate produced.
        candidate: Box<RunOutcome>,
    },
    /// Printed output differs.
    Output {
        /// What the reference printed.
        reference: Vec<i64>,
        /// What the candidate printed.
        candidate: Vec<i64>,
    },
    /// The candidate module made the interpreter panic — IR malformed
    /// enough to violate the VM's own invariants (e.g. a use of a value the
    /// executed path never defined). Always a miscompilation: the reference
    /// interpreter never panics on frontend-produced modules.
    CandidatePanicked,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Result {
                reference,
                candidate,
            } => write!(
                f,
                "result diverged: reference {:?}, candidate {:?}",
                reference.result, candidate.result
            ),
            Divergence::Output {
                reference,
                candidate,
            } => write!(
                f,
                "output diverged: reference printed {} values, candidate {} \
                 (first mismatch at {:?})",
                reference.len(),
                candidate.len(),
                reference
                    .iter()
                    .zip(candidate.iter())
                    .position(|(a, b)| a != b)
            ),
            Divergence::CandidatePanicked => {
                write!(f, "candidate module made the interpreter panic")
            }
        }
    }
}

/// Compares `candidate` against `reference` on `entry`, returning the first
/// divergence (or `None` when they agree).
///
/// Traps are compared by [`traps_equivalent`]; results and output must be
/// identical.
pub fn differential(reference: &Module, candidate: &Module, entry: &str) -> Option<Divergence> {
    let want = run_entry(reference, entry);
    // The candidate may be arbitrarily damaged (the fault-injection suite
    // feeds sabotaged modules through here), so contain even an interpreter
    // panic and report it as the miscompilation it is.
    let got = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_entry(candidate, entry)
    })) {
        Ok(outcome) => outcome,
        Err(_) => return Some(Divergence::CandidatePanicked),
    };
    let results_agree = match (&want.result, &got.result) {
        (Ok(a), Ok(b)) => a == b,
        (Err(a), Err(b)) => traps_equivalent((reference, a), (candidate, b)),
        _ => false,
    };
    if !results_agree {
        return Some(Divergence::Result {
            reference: Box::new(want),
            candidate: Box::new(got),
        });
    }
    if want.output != got.output {
        return Some(Divergence::Output {
            reference: want.output,
            candidate: got.output,
        });
    }
    None
}

/// Site-insensitive trap equivalence: same source function, same
/// variant, same observable data (index/length where applicable),
/// ignoring [`CheckSite`] labels that `merge_remaining_checks` may have
/// reassigned. Each trap is read with the module that raised it: under
/// `interprocedural` a guarded function's trap is raised in its `$fast`
/// or `$slow` body, which is the same source function
/// ([`interproc::source_name`](crate::interproc::source_name)).
///
/// [`CheckSite`]: abcd_ir::CheckSite
pub fn traps_equivalent(reference: (&Module, &Trap), candidate: (&Module, &Trap)) -> bool {
    fn source<'m>((module, trap): (&'m Module, &Trap)) -> &'m str {
        source_name(module.function(trap.func).name())
    }
    if source(reference) != source(candidate) {
        return false;
    }
    match (&reference.1.kind, &candidate.1.kind) {
        (
            TrapKind::BoundsCheckFailed {
                index: i1, len: l1, ..
            },
            TrapKind::BoundsCheckFailed {
                index: i2, len: l2, ..
            },
        ) => i1 == i2 && l1 == l2,
        (k1, k2) => k1 == k2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcd_ir::{CheckSite, FuncId};

    fn trap(kind: TrapKind) -> Trap {
        Trap {
            kind,
            func: FuncId::new(0),
        }
    }

    fn module() -> Module {
        abcd_frontend::compile("fn main() -> int { return 0; }").unwrap()
    }

    #[test]
    fn traps_compare_site_insensitively() {
        let m = module();
        let a = trap(TrapKind::BoundsCheckFailed {
            site: CheckSite::new(1),
            index: 7,
            len: 5,
        });
        let b = trap(TrapKind::BoundsCheckFailed {
            site: CheckSite::new(9),
            index: 7,
            len: 5,
        });
        assert!(traps_equivalent((&m, &a), (&m, &b)));
    }

    #[test]
    fn traps_distinguish_data_and_variant() {
        let m = module();
        let a = trap(TrapKind::BoundsCheckFailed {
            site: CheckSite::new(1),
            index: 7,
            len: 5,
        });
        let wrong_index = trap(TrapKind::BoundsCheckFailed {
            site: CheckSite::new(1),
            index: 8,
            len: 5,
        });
        let unchecked = trap(TrapKind::UncheckedAccessOutOfBounds { index: 7, len: 5 });
        assert!(!traps_equivalent((&m, &a), (&m, &wrong_index)));
        assert!(!traps_equivalent((&m, &a), (&m, &unchecked)));
    }

    #[test]
    fn differential_is_clean_on_identity() {
        let module =
            abcd_frontend::compile("fn main() -> int { let a: int[] = new int[3]; return a[1]; }")
                .unwrap();
        assert!(differential(&module, &module, "main").is_none());
    }

    #[test]
    fn differential_detects_divergent_results() {
        let reference = abcd_frontend::compile("fn main() -> int { return 1; }").unwrap();
        let candidate = abcd_frontend::compile("fn main() -> int { return 2; }").unwrap();
        assert!(differential(&reference, &candidate, "main").is_some());
    }
}
