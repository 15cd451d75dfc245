//! Translation validation of the ABCD transformation.
//!
//! After the driver has rewritten a function, this pass independently
//! re-justifies every change it made, from scratch, against constraint
//! graphs rebuilt from the **final** e-SSA form:
//!
//! * every fully-eliminated check must re-prove with a fresh prover;
//! * every PRE-hoisted check's insertion points must re-derive (or the
//!   recomputed requirement must be covered by what was actually inserted).
//!
//! Anything that fails re-justification is **reinstated** — the bounds
//! check goes back in (or the demoted residual trap is un-demoted) and a
//! [`Incident::ValidationReinstated`] is recorded. The pass never trusts
//! the optimizer's own graphs, so a corrupted constraint system (e.g. the
//! fault harness's edge perturbation) is caught here instead of shipping a
//! wrongly-unchecked memory access.
//!
//! # Breaking the circularity
//!
//! Removed checks leave their π guards behind, and a π guard regenerates
//! the very C5 edge (`index ≤ len − 1` / `index ≥ 0`) the eliminated check
//! used to enforce — naive revalidation would find every elimination
//! self-justifying. The pass therefore excludes the C5 edges of **all**
//! still-unvalidated sites and runs to a fixpoint: a check that proves
//! without any suspect edge is validated and its site's edges return to
//! the pool, which can unlock checks that legitimately chained on it
//! (e.g. `a[i]` guarding `a[i-1]`). Mutually-dependent "proofs" — two
//! eliminations each justified only by the other's unenforced guard —
//! never validate, which is exactly the unsound shape the fixpoint is
//! designed to reject.

use crate::graph::{ConstraintLog, InequalityGraph, Problem, Scope, Vertex};
use crate::report::{FunctionReport, Incident};
use crate::solver::{DemandProver, PreOutcome, PreProver};
use abcd_ir::{CheckSite, Function, InstKind, PiGuard};
use abcd_ssa::DomTree;

/// Re-justifies every elimination and hoist recorded in `report`,
/// reinstating whatever cannot be independently re-proven.
pub(crate) fn validate_function(
    func: &mut Function,
    report: &mut FunctionReport,
    facts: &[crate::interproc::ParamFact],
    gvn: &abcd_analysis::GvnResult,
    dt: &DomTree,
    gvn_hook: bool,
) {
    let mut pending_elim = report.eliminated.clone();
    let mut pending_hoist = report.hoisted_checks.clone();
    if pending_elim.is_empty() && pending_hoist.is_empty() {
        return;
    }

    // Nothing below changes `func` until the reinstatements: one walk of
    // the final IR, under the same parameter facts the analysis assumed,
    // refilled without the suspect sites per iteration.
    let locations = func.inst_locations();
    let mut log = ConstraintLog::default();
    log.record(func);
    log.assume(facts, func);
    let (mut upper, mut lower) = (InequalityGraph::default(), InequalityGraph::default());
    loop {
        let excluded: Vec<CheckSite> = pending_elim
            .iter()
            .map(|e| e.site)
            .chain(pending_hoist.iter().map(|h| h.site))
            .collect();
        upper.fill(&log, Problem::Upper, Scope::Excluding(&excluded));
        lower.fill(&log, Problem::Lower, Scope::Excluding(&excluded));
        let graph_of = |problem| match problem {
            Problem::Upper => &upper,
            Problem::Lower => &lower,
        };

        let mut progress = false;
        pending_elim.retain(|e| {
            let ok = Problem::of_check(e.kind).iter().all(|&problem| {
                prove_clean(
                    func,
                    &locations,
                    graph_of(problem),
                    gvn,
                    dt,
                    gvn_hook,
                    e.array,
                    e.index,
                    e.block,
                )
            });
            if ok {
                report.checks_validated += 1;
                progress = true;
            }
            !ok
        });
        pending_hoist.retain(|h| {
            // PRE hoists single-kind checks only.
            let problem = Problem::of_check(h.kind)[0];
            let (source, c) = problem.check_query(h.array);
            let mut prover = PreProver::new(graph_of(problem), source, None);
            let ok = match prover.demand_prove(Vertex::Value(h.index), c) {
                // Fully redundant on the clean graph: the residual trap can
                // only fire spuriously (it re-validates before trapping).
                PreOutcome::Proven => true,
                // Partially redundant: safe iff every point the clean graph
                // requires actually received a compensating check.
                PreOutcome::ProvenWithInsertions(req) => req.iter().all(|p| h.points.contains(p)),
                PreOutcome::Failed => false,
            };
            if ok {
                report.checks_validated += 1;
                progress = true;
            }
            !ok
        });
        if !progress {
            break;
        }
        if pending_elim.is_empty() && pending_hoist.is_empty() {
            break;
        }
    }

    // Whatever is left could not be re-justified: put the checks back.
    for e in pending_elim {
        reinstate_eliminated(func, &e);
        report.mark_reinstated(e.site, e.kind);
        report.checks_reinstated += 1;
        report.incidents.push(Incident::ValidationReinstated {
            function: func.name_symbol(),
            site: e.site,
            kind: e.kind,
        });
    }
    for h in pending_hoist {
        // Un-demote the residual trap back into a full bounds check, and
        // remove the compensating checks that were inserted for this site:
        // with the hoist rejected they only set a flag nobody consults, and
        // insertion points derived from a corrupted graph may not even be
        // dominated by their operands.
        func.inst_mut(h.inst).kind = InstKind::BoundsCheck {
            site: h.site,
            array: h.array,
            index: h.index,
            kind: h.kind,
        };
        let stale: Vec<_> = func
            .blocks()
            .flat_map(|b| {
                func.block(b)
                    .insts()
                    .iter()
                    .filter(|&&id| {
                        matches!(func.inst(id).kind,
                                 InstKind::SpecCheck { site, .. } if site == h.site)
                    })
                    .map(move |&id| (b, id))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (b, id) in stale {
            func.remove_inst(b, id);
        }
        report.mark_reinstated(h.site, h.kind);
        report.checks_reinstated += 1;
        report.incidents.push(Incident::ValidationReinstated {
            function: func.name_symbol(),
            site: h.site,
            kind: h.kind,
        });
    }
}

/// A check's query on the clean graph (upper or lower, by the graph's
/// problem), with the same §7.1 congruence fallback the driver used for
/// upper queries (a removal proven via a congruent array must be
/// re-provable the same way).
#[allow(clippy::too_many_arguments)]
fn prove_clean(
    func: &Function,
    locations: &[Option<(abcd_ir::Block, usize)>],
    graph: &InequalityGraph,
    gvn: &abcd_analysis::GvnResult,
    dt: &DomTree,
    gvn_hook: bool,
    array: abcd_ir::Value,
    index: abcd_ir::Value,
    block: abcd_ir::Block,
) -> bool {
    let problem = graph.problem();
    let prove = |array| {
        let (source, c) = problem.check_query(array);
        DemandProver::new(graph, source).demand_prove(Vertex::Value(index), c)
    };
    prove(array)
        || (gvn_hook
            && problem == Problem::Upper
            && abcd_analysis::congruent_arrays_in(func, locations, gvn, dt, array, block)
                .into_iter()
                .any(prove))
}

/// Re-inserts an eliminated bounds check at its original program point:
/// immediately before the π guard that still carries its site (e-SSA keeps
/// check πs right after the check they rename for), falling back to the
/// first non-φ position of the block.
fn reinstate_eliminated(func: &mut Function, e: &crate::report::EliminatedCheck) {
    let insts = func.block(e.block).insts();
    let mut pos = None;
    let mut first_non_phi = 0usize;
    for (i, &id) in insts.iter().enumerate() {
        match &func.inst(id).kind {
            InstKind::Pi {
                guard: PiGuard::Check { site, .. },
                ..
            } if *site == e.site => {
                pos = Some(i);
                break;
            }
            InstKind::Phi { .. } => first_non_phi = i + 1,
            _ => {}
        }
    }
    let check = func.create_inst(
        InstKind::BoundsCheck {
            site: e.site,
            array: e.array,
            index: e.index,
            kind: e.kind,
        },
        None,
    );
    func.insert_inst(e.block, pos.unwrap_or(first_non_phi), check);
}
