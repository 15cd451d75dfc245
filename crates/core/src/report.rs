//! Per-check and aggregate optimization reports.
//!
//! The reports carry what §8 of the paper tabulates: how many checks
//! were fully redundant, partially redundant (hoisted), or kept; how many `prove` steps the solver spent per check;
//! and the analysis wall-clock time.

use crate::stage::Stage;
use abcd_ir::{Block, CheckKind, CheckSite, InstId, Value};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// What happened to one static bounds check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckOutcome {
    /// Proven fully redundant and deleted.
    RemovedFully {
        /// Proven only via the §7.1 value-numbering congruence hook.
        via_congruence: bool,
    },
    /// Partially redundant: compensating checks inserted, original demoted
    /// to a residual trap (§6).
    Hoisted {
        /// Number of compensating checks inserted.
        insertions: usize,
    },
    /// Not removable.
    Kept,
    /// Not analyzed (cold site, or its kind disabled).
    Skipped,
    /// Removed by the optimizer but reinstated because translation
    /// validation could not independently re-justify the elimination.
    Reinstated,
}

/// One robustness event recorded while the fail-open pipeline degraded a
/// failure into a conservative outcome instead of crashing or miscompiling.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Incident {
    /// A prover hit its fuel budget; the check was kept conservatively.
    BudgetExhausted {
        /// Function the query ran in.
        function: Arc<str>,
        /// Site of the check that stayed in place.
        site: CheckSite,
        /// Which bound was being proven.
        kind: CheckKind,
        /// Solver steps spent when the budget tripped (0 when the
        /// per-function budget was already gone before the query started).
        fuel: u64,
    },
    /// A pipeline pass panicked; the function shipped unoptimized.
    PassPanic {
        /// Function whose pipeline unwound.
        function: Arc<str>,
        /// The pass that was running when the panic unwound.
        pass: Stage,
        /// Panic payload (message), when it was a string.
        payload: String,
    },
    /// The IR verifier rejected a pass's output; the pre-pass function was
    /// shipped instead.
    VerifyFailed {
        /// Function the verifier rejected.
        function: Arc<str>,
        /// The pass whose output failed verification.
        pass: Stage,
        /// The verifier's error message.
        error: String,
    },
    /// Translation validation could not re-justify an eliminated check;
    /// the check was reinstated.
    ValidationReinstated {
        /// Function the check belongs to.
        function: Arc<str>,
        /// Site of the reinstated check.
        site: CheckSite,
        /// Which bound had been eliminated.
        kind: CheckKind,
    },
    /// A persisted cache entry failed re-verification on load; it was
    /// quarantined and the function recompiled cold. The output is fully
    /// optimized — this surfaces an operational problem (disk rot, a
    /// writer crash mid-entry), never a correctness one.
    CacheCorrupt {
        /// Function whose entry was rejected.
        function: Arc<str>,
        /// Why re-verification rejected the entry.
        detail: String,
    },
    /// Path-weight arithmetic overflowed `i64` during a prove; the query
    /// answered `False` conservatively and the check was kept. Like a
    /// budget stop, this is a precision loss, never a soundness one.
    SolverOverflow {
        /// Function the query ran in.
        function: Arc<str>,
        /// Site of the check that stayed in place.
        site: CheckSite,
        /// Which bound was being proven.
        kind: CheckKind,
    },
    /// A service request blew its deadline; the module was served
    /// unoptimized (every check kept). Like a budget stop this trades
    /// precision for liveness, never soundness — the reply is still a
    /// correct program, just an unoptimized one.
    DeadlineExceeded {
        /// Function the report entry belongs to (`*` when the whole
        /// module was cut off before per-function attribution existed).
        function: Arc<str>,
        /// The deadline that was in force, in milliseconds.
        deadline_ms: u64,
        /// Elapsed time when the deadline tripped, in milliseconds
        /// (0 under `--deterministic-metrics`).
        elapsed_ms: u64,
    },
}

impl Incident {
    /// Machine-readable incident kind, used by the metrics schema.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Incident::BudgetExhausted { .. } => "budget_exhausted",
            Incident::PassPanic { .. } => "pass_panic",
            Incident::VerifyFailed { .. } => "verify_failed",
            Incident::ValidationReinstated { .. } => "validation_reinstated",
            Incident::CacheCorrupt { .. } => "cache_corrupt",
            Incident::SolverOverflow { .. } => "solver_overflow",
            Incident::DeadlineExceeded { .. } => "deadline_exceeded",
        }
    }

    /// Does this incident indicate the optimizer itself misbehaved (as
    /// opposed to merely running out of budget)? `mjc` maps these to a
    /// distinct exit status. Cache corruption is not degradation either:
    /// the function was recompiled cold and is fully optimized.
    pub fn is_degraded(&self) -> bool {
        !matches!(
            self,
            Incident::BudgetExhausted { .. }
                | Incident::CacheCorrupt { .. }
                | Incident::SolverOverflow { .. }
                | Incident::DeadlineExceeded { .. }
        )
    }
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Incident::BudgetExhausted {
                function,
                site,
                kind,
                fuel,
            } => write!(
                f,
                "budget exhausted in `{function}` at {site:?} ({kind:?}) after {fuel} steps; check kept"
            ),
            Incident::PassPanic {
                function,
                pass,
                payload,
            } => write!(
                f,
                "pass `{pass}` panicked in `{function}` ({payload}); function shipped unoptimized"
            ),
            Incident::VerifyFailed {
                function,
                pass,
                error,
            } => write!(
                f,
                "IR verification failed after pass `{pass}` in `{function}` ({error}); pre-pass function shipped"
            ),
            Incident::ValidationReinstated {
                function,
                site,
                kind,
            } => write!(
                f,
                "translation validation reinstated check {site:?} ({kind:?}) in `{function}`"
            ),
            Incident::CacheCorrupt { function, detail } => write!(
                f,
                "cache entry for `{function}` failed re-verification ({detail}); \
                 quarantined and recompiled cold"
            ),
            Incident::SolverOverflow {
                function,
                site,
                kind,
            } => write!(
                f,
                "path-weight overflow in `{function}` at {site:?} ({kind:?}); check kept"
            ),
            Incident::DeadlineExceeded {
                function,
                deadline_ms,
                elapsed_ms,
            } => write!(
                f,
                "deadline of {deadline_ms} ms exceeded for `{function}` after {elapsed_ms} ms; \
                 module served unoptimized, all checks kept"
            ),
        }
    }
}

/// Everything validation needs to independently re-justify (or reinstate)
/// one eliminated check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EliminatedCheck {
    /// Block the check lived in.
    pub block: Block,
    /// Check site (still present on the surviving π node).
    pub site: CheckSite,
    /// Which bound was eliminated.
    pub kind: CheckKind,
    /// Array operand of the original check.
    pub array: Value,
    /// Index operand of the original check.
    pub index: Value,
}

/// A PRE-hoisted check: the original was demoted to a residual trap and
/// compensating checks were inserted at `points`. Validation re-derives the
/// insertion points on a clean graph and un-demotes on mismatch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HoistedCheck {
    /// Block holding the demoted residual trap.
    pub block: Block,
    /// The demoted `TrapIfFlagged` instruction.
    pub inst: InstId,
    /// Check site.
    pub site: CheckSite,
    /// Which bound was hoisted.
    pub kind: CheckKind,
    /// Array operand of the original check.
    pub array: Value,
    /// Index operand of the original check.
    pub index: Value,
    /// The compensating-check insertion points PRE applied.
    pub points: Vec<crate::solver::InsertionPoint>,
}

/// Report for one function.
#[derive(Clone, Debug, Default)]
pub struct FunctionReport {
    /// Function name, shared with the [`abcd_ir::Function`] it reports on.
    pub name: Arc<str>,
    /// Static checks present before optimization.
    pub checks_total: usize,
    /// Outcome per analyzed check.
    pub outcomes: Vec<(CheckSite, CheckKind, CheckOutcome)>,
    /// `prove` invocations of the fully-redundant pass ("analysis steps",
    /// §8 — the paper's metric).
    pub steps: u64,
    /// Additional `prove` invocations spent by the PRE-collecting pass
    /// (§6). The paper integrates PRE into the same traversal; this
    /// implementation runs it as a second pass over failed checks, so its
    /// cost is reported separately to keep `steps` comparable.
    pub pre_steps: u64,
    /// Wall-clock time spent in analysis (not transformation).
    pub analysis_time: Duration,
    /// Compensating checks inserted by PRE.
    pub spec_checks_inserted: usize,
    /// Lower+upper pairs merged into unsigned checks (§7.2).
    pub checks_merged: usize,
    /// Cleanup (basic set) statistics.
    pub cleanup: abcd_analysis::CleanupStats,
    /// Verified interprocedural parameter facts applied to this function's
    /// graphs (0 unless `interprocedural` was enabled; a `$fast` body, or a
    /// function that keeps one body, reports its facts).
    pub param_facts_used: usize,
    /// Pipeline observability: per-pass wall time, memo effectiveness, and
    /// graph sizes (see [`crate::metrics`]).
    pub metrics: crate::metrics::FunctionMetrics,
    /// Robustness events recorded for this function (fail-open layer).
    pub incidents: Vec<Incident>,
    /// Checks fully eliminated, with enough context for validation to
    /// re-justify or reinstate them.
    pub eliminated: Vec<EliminatedCheck>,
    /// Checks hoisted by PRE, for validation of the insertion points.
    pub hoisted_checks: Vec<HoistedCheck>,
    /// Eliminations independently re-proven by translation validation.
    pub checks_validated: usize,
    /// Eliminations validation failed to re-prove (and reinstated).
    pub checks_reinstated: usize,
    /// Solver fuel actually spent (fully-redundant + PRE passes).
    pub fuel_spent: u64,
    /// Per-function fuel budget in force, if any.
    pub fuel_limit: Option<u64>,
    /// The result was replayed from the analysis cache; `steps`,
    /// `pre_steps`, and the per-check outcomes reproduce the original
    /// cold run's verdicts, but no solver work happened in this run.
    pub from_cache: bool,
    /// Recorded span trace, present only when the driver ran with tracing
    /// enabled ([`crate::Optimizer::with_trace`]). Boxed so the disabled
    /// path costs one pointer; rides the driver's deterministic
    /// function-order merge like every other report field.
    pub trace: Option<Box<crate::trace::FunctionTrace>>,
}

impl FunctionReport {
    pub(crate) fn new(name: impl Into<Arc<str>>) -> Self {
        FunctionReport {
            name: name.into(),
            ..FunctionReport::default()
        }
    }

    pub(crate) fn record(&mut self, site: CheckSite, kind: CheckKind, outcome: CheckOutcome) {
        self.outcomes.push((site, kind, outcome));
    }

    /// Checks analyzed (not skipped).
    pub fn checks_analyzed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, _, o)| !matches!(o, CheckOutcome::Skipped))
            .count()
    }

    /// Checks removed as fully redundant.
    pub fn removed_fully(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, _, o)| matches!(o, CheckOutcome::RemovedFully { .. }))
            .count()
    }

    /// Checks hoisted by PRE.
    pub fn hoisted(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, _, o)| matches!(o, CheckOutcome::Hoisted { .. }))
            .count()
    }

    /// Average `prove` steps per analyzed check.
    pub fn steps_per_check(&self) -> f64 {
        let n = self.checks_analyzed();
        if n == 0 {
            0.0
        } else {
            self.steps as f64 / n as f64
        }
    }

    /// Checks reinstated by translation validation.
    pub fn reinstated(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, _, o)| matches!(o, CheckOutcome::Reinstated))
            .count()
    }

    /// Flips the recorded outcome of `(site, kind)` to `Reinstated`.
    /// Used by validation after putting the check back.
    pub(crate) fn mark_reinstated(&mut self, site: CheckSite, kind: CheckKind) {
        for (s, k, o) in &mut self.outcomes {
            if *s == site && *k == kind {
                *o = CheckOutcome::Reinstated;
            }
        }
    }
}

/// Report for a whole module.
#[derive(Clone, Debug, Default)]
pub struct ModuleReport {
    /// One report per function, in module order.
    pub functions: Vec<FunctionReport>,
}

impl ModuleReport {
    /// Static checks present before optimization.
    pub fn checks_total(&self) -> usize {
        self.functions.iter().map(|f| f.checks_total).sum()
    }

    /// Checks analyzed across all functions.
    pub fn checks_analyzed(&self) -> usize {
        self.functions.iter().map(|f| f.checks_analyzed()).sum()
    }

    /// Checks removed as fully redundant.
    pub fn checks_removed_fully(&self) -> usize {
        self.functions.iter().map(|f| f.removed_fully()).sum()
    }

    /// Checks hoisted by PRE.
    pub fn checks_hoisted(&self) -> usize {
        self.functions.iter().map(|f| f.hoisted()).sum()
    }

    /// Total `prove` steps (fully-redundant pass).
    pub fn steps(&self) -> u64 {
        self.functions.iter().map(|f| f.steps).sum()
    }

    /// Total PRE-pass `prove` steps.
    pub fn pre_steps(&self) -> u64 {
        self.functions.iter().map(|f| f.pre_steps).sum()
    }

    /// Average steps per analyzed check.
    pub fn steps_per_check(&self) -> f64 {
        let n = self.checks_analyzed();
        if n == 0 {
            0.0
        } else {
            self.steps() as f64 / n as f64
        }
    }

    /// Total analysis time.
    pub fn analysis_time(&self) -> Duration {
        self.functions.iter().map(|f| f.analysis_time).sum()
    }

    /// All incidents across the module, tagged with nothing extra — each
    /// incident already names its function.
    pub fn incidents(&self) -> impl Iterator<Item = &Incident> {
        self.functions.iter().flat_map(|f| f.incidents.iter())
    }

    /// Total incident count.
    pub fn incident_count(&self) -> usize {
        self.functions.iter().map(|f| f.incidents.len()).sum()
    }

    /// Incidents that indicate degraded output (panic, verifier rejection,
    /// validation reinstatement) rather than a budget stop.
    pub fn degraded_incident_count(&self) -> usize {
        self.incidents().filter(|i| i.is_degraded()).count()
    }

    /// Eliminations re-proven by translation validation.
    pub fn checks_validated(&self) -> usize {
        self.functions.iter().map(|f| f.checks_validated).sum()
    }

    /// Eliminations reinstated by translation validation.
    pub fn checks_reinstated(&self) -> usize {
        self.functions.iter().map(|f| f.checks_reinstated).sum()
    }

    /// Solver fuel spent module-wide.
    pub fn fuel_spent(&self) -> u64 {
        self.functions.iter().map(|f| f.fuel_spent).sum()
    }

    /// Functions whose results were replayed from the analysis cache.
    pub fn functions_from_cache(&self) -> usize {
        self.functions.iter().filter(|f| f.from_cache).count()
    }

    /// Builds the fail-open report for a module served *unoptimized*
    /// because its request blew a deadline: one entry per function with
    /// every check counted but none analyzed, and a single non-degraded
    /// [`Incident::DeadlineExceeded`] attached to the first entry (or to a
    /// synthetic `*` entry when the module has no functions). Used by
    /// `abcdd` so a deadline reply still carries an honest report.
    pub fn deadline_fail_open(
        module: &abcd_ir::Module,
        deadline_ms: u64,
        elapsed_ms: u64,
    ) -> ModuleReport {
        let mut report = ModuleReport::default();
        for (_, f) in module.functions() {
            let mut fr = FunctionReport::new(f.name_arc());
            fr.checks_total = f.check_site_count();
            report.functions.push(fr);
        }
        let incident = |function: Arc<str>| Incident::DeadlineExceeded {
            function,
            deadline_ms,
            elapsed_ms,
        };
        match report.functions.first_mut() {
            Some(first) => {
                first.incidents.push(incident(first.name.clone()));
            }
            None => {
                let mut fr = FunctionReport::new("*");
                fr.incidents.push(incident(fr.name.clone()));
                report.functions.push(fr);
            }
        }
        report
    }
}
