//! The ABCD optimization driver: the pipeline of Figure 2 plus the §6/§7
//! extensions, with per-check reporting.
//!
//! For each function the driver (1) constructs SSA, (2) runs the host
//! compiler's basic cleanup, (3) builds e-SSA by inserting π-assignments,
//! (4) builds the upper and lower inequality graphs, and (5) runs
//! `demandProve` per bounds check — hottest first when a profile is given,
//! exactly the demand-driven discipline the paper designed for.

use crate::cache::{AnalysisCache, CacheEntry, CacheKey, Replay};
use crate::faults::{current_pass, set_current_pass, FaultPlan};
use crate::graph::{InequalityGraph, LoggedCheck, Problem, Scope, Vertex};
use crate::interproc::{ModuleFacts, ParamFact};
use crate::pre::{apply_insertions, merge_remaining_checks};
use crate::report::{
    CheckOutcome, EliminatedCheck, FunctionReport, HoistedCheck, Incident, ModuleReport,
};
use crate::scratch::{ScratchArena, ScratchPool};
use crate::solver::{DemandProver, PreOutcome, PreProver, ProverBackend};
use crate::stage::Stage;
use crate::trace::{FunctionTrace, PreInsertionRecord, Span};
use abcd_ir::{Block, CheckKind, CheckSite, FuncId, Function, InstId, InstKind, Module, Value};
use abcd_ssa::DomTree;
use abcd_vm::Profile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tuning knobs for the optimizer.
#[derive(Clone, Copy, Debug)]
pub struct OptimizerOptions {
    /// Eliminate upper-bound checks.
    pub upper: bool,
    /// Eliminate lower-bound checks (the §7.2 dual).
    pub lower: bool,
    /// Run the basic cleanup set (const-fold, GVN/CSE, DCE) first, like the
    /// paper's host compiler.
    pub cleanup: bool,
    /// Remove partially redundant checks by insertion (§6).
    pub pre: bool,
    /// Consult value-numbering congruence when a proof against one array
    /// fails (§7.1).
    pub gvn_hook: bool,
    /// Merge surviving lower+upper pairs into unsigned checks (§7.2).
    pub merge_checks: bool,
    /// Classify each removal as local (provable within its basic block) or
    /// global — the split shown for the SPEC benchmarks in Figure 6.
    pub classify_local: bool,
    /// With a profile: only analyze check sites executed at least this many
    /// times (the "hot bounds checks" work-list). `None` analyzes all.
    pub hot_threshold: Option<u64>,
    /// Infer and use interprocedural parameter facts (closed-world; see
    /// [`crate::interproc`]). Off by default — the paper is intraprocedural.
    pub interprocedural: bool,
    /// Solver-step budget per `demandProve` query. On exhaustion the verdict
    /// is a conservative "keep the check" and a
    /// [`Incident::BudgetExhausted`] is recorded. `None` = unbudgeted.
    pub fuel_per_query: Option<u64>,
    /// Total solver-step budget per function (fully-redundant + PRE passes
    /// combined). Checks reached after the budget is gone are kept without
    /// being queried. `None` = unbudgeted.
    pub fuel_per_function: Option<u64>,
    /// Run the IR verifier after every IR-mutating pipeline pass; on
    /// failure, ship the pre-pass function and record
    /// [`Incident::VerifyFailed`]. Defaults on in debug builds (tests/CI),
    /// off in release unless requested.
    pub verify_ir: bool,
    /// Translation validation: independently re-prove every eliminated
    /// check against graphs rebuilt from the final e-SSA form; reinstate
    /// (and record [`Incident::ValidationReinstated`]) on any miss.
    pub validate: bool,
    /// Run each function's pipeline under `catch_unwind`; a panicking
    /// function ships unoptimized ([`Incident::PassPanic`]) while the rest
    /// of the module proceeds.
    pub isolate_panics: bool,
    /// Always `Demand`, not a knob; stays only for the frozen benchmark replay.
    pub prover: ProverBackend,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            upper: true,
            lower: true,
            cleanup: true,
            pre: true,
            gvn_hook: true,
            merge_checks: false,
            classify_local: true,
            hot_threshold: None,
            interprocedural: false,
            fuel_per_query: None,
            fuel_per_function: None,
            verify_ir: cfg!(debug_assertions),
            validate: false,
            isolate_panics: true,
            prover: ProverBackend::Demand,
        }
    }
}

/// The ABCD optimizer.
///
/// Functions are independent units of work, so [`Optimizer::with_threads`]
/// runs the per-function pipeline (SSA → e-SSA → graphs → `demandProve` →
/// PRE → rewrite) across a module's functions on a scoped-thread work pool.
/// Reports merge in function order, and the optimized IR is identical to a
/// sequential run — workers share nothing but the job queue.
///
/// # Example
///
/// ```
/// use abcd::Optimizer;
/// use abcd_frontend::compile;
///
/// let mut module = compile(r#"
///     fn sum(a: int[]) -> int {
///         let s: int = 0;
///         for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
///         return s;
///     }
/// "#)?;
/// let report = Optimizer::new().optimize_module(&mut module, None);
/// assert_eq!(report.checks_removed_fully(), 2); // lower and upper
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Optimizer {
    options: OptimizerOptions,
    /// Worker threads for `optimize_module` (0 and 1 both mean sequential).
    threads: usize,
    /// Deterministic fault-injection plan (tests and `mjc --fault-plan`).
    fault_plan: Option<FaultPlan>,
    /// Content-addressed analysis cache shared across runs (and across the
    /// server's requests). `None` = always cold.
    cache: Option<Arc<AnalysisCache>>,
    /// Record an [`FunctionTrace`] per function (see [`crate::trace`]).
    /// Deliberately *not* an [`OptimizerOptions`] field: options are
    /// cache-fingerprinted and wire-serialized, and observing a run must
    /// never change its cache keys or verdicts.
    trace: bool,
    /// Pooled per-worker scratch (graph shells, prover tables) shared
    /// across modules/requests. `None` = a transient pool per
    /// `optimize_module` call (buffers still reused across the module's
    /// functions).
    scratch: Option<Arc<ScratchPool>>,
}

impl Optimizer {
    /// An optimizer with default options (everything but check merging on).
    pub fn new() -> Self {
        Optimizer::default()
    }

    /// An optimizer with explicit options.
    pub fn with_options(options: OptimizerOptions) -> Self {
        Optimizer {
            options,
            threads: 0,
            fault_plan: None,
            cache: None,
            trace: false,
            scratch: None,
        }
    }

    /// Attaches a shared scratch pool: workers draw their per-function
    /// arenas (graph shells, prover memo tables, PRE worklists) from it, so
    /// the warm capacity survives across modules and — in the server —
    /// across requests. Steady state allocates nothing on the prove path.
    pub fn with_scratch_pool(mut self, pool: Arc<ScratchPool>) -> Self {
        self.scratch = Some(pool);
        self
    }

    /// Enables (or disables) structured span tracing: every
    /// [`FunctionReport`] gains a [`FunctionTrace`] recording pass
    /// timings, graph sizes, each `demandProve` traversal, PRE decisions,
    /// and cache lookups. Off (the default) costs one untaken branch per
    /// hook — no allocation on the prove path.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the number of worker threads `optimize_module` may use.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Arms a deterministic fault-injection plan. Faults are keyed by
    /// function name (never thread identity), so an armed plan fires
    /// identically in sequential and parallel runs.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches a shared analysis cache: functions whose content-addressed
    /// key hits are replayed from cached IR instead of re-analyzed, and
    /// incident-free cold results are stored for future runs.
    pub fn with_cache(mut self, cache: Arc<AnalysisCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The cache actually consulted this run. An armed fault plan disables
    /// it entirely: injected faults must fire deterministically on every
    /// run, which a replayed result would silently swallow — and faulted
    /// results must never be stored.
    fn effective_cache(&self) -> Option<&AnalysisCache> {
        if self.fault_plan.is_some() {
            None
        } else {
            self.cache.as_deref()
        }
    }

    /// The active options.
    pub fn options(&self) -> &OptimizerOptions {
        &self.options
    }

    /// The effective worker-thread count (at least 1).
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// Optimizes every function of `module` (which must be in locals form or
    /// plain SSA — the driver builds SSA/e-SSA itself). A [`Profile`] from a
    /// prior training run drives hot-check selection and PRE profitability.
    pub fn optimize_module(&self, module: &mut Module, profile: Option<&Profile>) -> ModuleReport {
        let mut report = ModuleReport::default();
        let options_fp = crate::cache::options_fingerprint(&self.options);
        let pool = &self.pool();
        // Interprocedural mode adds one phase: prepare every function, then
        // infer the parameter-fact fixpoint over the whole module
        // (inherently a sequential whole-module step). Prepare is
        // panic-isolated per function; one whose prepare failed ships as-is.
        // The cache key needs the *input* text, so its canonical print is
        // hashed before prepare mutates anything. The fact component of the
        // key is only known after inference, which is what gives editing
        // one function its transitive reach: callees whose verified
        // parameter facts change get new keys and recompile cold.
        let mut prepared: Vec<PreparedSlot> = Vec::new();
        let mut facts = ModuleFacts::default();
        if self.options.interprocedural {
            let caching = self.effective_cache().is_some();
            prepared = self.map_functions(module, |_, func| {
                let text_hash = caching.then(|| crate::cache::canonical_text_hash(func));
                let mut arena = pool.checkout();
                let prep = self.isolated(func, &mut arena, |f, arena| {
                    self.prepare_function(f, arena, Stage::InsertPi)
                });
                pool.checkin(arena);
                Mutex::new(Some((text_hash, prep)))
            });
            facts = crate::interproc::infer_param_facts(module);
        }
        let facts = &facts;
        report.functions = self.map_functions(module, |id, func| {
            if let Some(r) = self.cold_skip_report(func, id, profile) {
                return r;
            }
            // What the phase above left for this function (nothing outside
            // interprocedural mode): its input hash when caching, and its
            // prepared state or the report it fails open with.
            let slot = prepared.get(id.index()).map(|slot| {
                slot.lock()
                    .expect("prepared state lock")
                    .take()
                    .expect("each function analyzed once")
            });
            let (text_hash, prepared) = match slot {
                None => (None, Ok(None)),
                Some((hash, FailOpen::Done(Ok(gvn)))) => (hash, Ok(Some(gvn))),
                Some((hash, FailOpen::Done(Err(incident)))) => {
                    (hash, Err(fail_open_report(func, incident)))
                }
                Some((hash, FailOpen::Panicked(r))) => (hash, Err(*r)),
            };
            let facts = facts.of(id);
            // Content-addressed lookup before any pipeline work: the key is
            // derived from the *input* (canonicalized), the options, the
            // verified parameter facts and the profile slice for this
            // function.
            let keyed = self.effective_cache().map(|cache| {
                let text_hash =
                    text_hash.unwrap_or_else(|| crate::cache::canonical_text_hash(func));
                let key = crate::cache::key_from_text_hash(
                    text_hash,
                    options_fp,
                    crate::cache::facts_fingerprint(facts),
                    crate::cache::profile_fingerprint(profile, id, self.options.hot_threshold),
                );
                (cache, key)
            });
            let mut corrupt = None;
            if let Some((cache, key)) = keyed {
                match self.try_replay(cache, key, func) {
                    Ok(Some(mut rep)) => {
                        self.attach_cache_span(&mut rep, true);
                        return rep;
                    }
                    Ok(None) => {}
                    Err(incident) => corrupt = Some(incident),
                }
            }
            // The cold run: prepare (unless the phase above did) and
            // analyze under one isolation.
            let mut rep = match prepared {
                Err(rep) => rep,
                Ok(prepared) => {
                    let mut arena = pool.checkout();
                    let rep = self.isolated(func, &mut arena, |f, arena| {
                        let (pi, last) = (Stage::InsertPi, Stage::Canonicalize);
                        match prepared.map_or_else(|| self.prepare_function(f, arena, pi), Ok) {
                            Ok(p) => self.analyze_function(f, id, profile, p, facts, arena, last),
                            Err(incident) => fail_open_report(f, incident),
                        }
                    });
                    pool.checkin(arena);
                    rep.merge()
                }
            };
            // Store before surfacing the corruption incident: the cold
            // recompile is the healthy entry that heals the cache.
            if let Some((cache, key)) = keyed {
                self.maybe_store(cache, key, func, &rep);
                self.attach_cache_span(&mut rep, false);
            }
            if let Some(incident) = corrupt {
                rep.incidents.insert(0, incident);
            }
            rep
        });
        report
    }

    /// Runs the driver's own per-function pipeline over every function of
    /// `module`, in order, through stage `last`, and leaves each function
    /// as that stage left it: the IR the driver's later stages would read.
    /// It is the one definition of the intermediate forms that `mjc dump`,
    /// `mjc graph`, the experiment binaries, the goldens and the benches
    /// show or measure.
    ///
    /// `parse` and `lower` belong to the front end, so they leave the
    /// module as given. `graph_build`, `solve` and `pre` read the IR
    /// without changing it, so they leave it as `insert_pi` did. From
    /// `transform` on, each function is analyzed as
    /// [`optimize_module`](Self::optimize_module) would, with no profile
    /// and no parameter facts. One arena from the attached
    /// [scratch pool](Self::with_scratch_pool) serves every function.
    /// There is no cache, panic isolation or fail-open here: a panic
    /// propagates.
    ///
    /// # Errors
    ///
    /// The first degraded incident, such as a verifier rejection under
    /// [`OptimizerOptions::verify_ir`]. The failing function is left as
    /// it was before the stage that failed.
    pub fn run_to(&self, module: &mut Module, last: Stage) -> Result<(), Incident> {
        if last < Stage::SplitCriticalEdges {
            return Ok(());
        }
        let pool = self.pool();
        let mut arena = pool.checkout();
        let result = module.functions_mut().try_for_each(|(id, func)| {
            let prepared = self.prepare_function(func, &mut arena, last)?;
            if last < Stage::Transform {
                arena.ssa.put_dom_tree(prepared.dt);
                arena.cleanup.recycle(prepared.gvn);
                return Ok(());
            }
            let report = self.analyze_function(func, id, None, prepared, &[], &mut arena, last);
            let degraded = report.incidents.into_iter().find(Incident::is_degraded);
            degraded.map_or(Ok(()), Err)
        });
        pool.checkin(arena);
        result
    }

    /// The attached scratch pool or, without one, a transient pool that
    /// still shares warm buffers across one call's functions.
    fn pool(&self) -> Arc<ScratchPool> {
        self.scratch
            .clone()
            .unwrap_or_else(|| Arc::new(ScratchPool::new()))
    }

    /// Prepends the cache-lookup span to a function's trace (tracing runs
    /// only). The lookup logically precedes the pipeline it short-circuits,
    /// so it goes at the front; on a hit the replayed report has no other
    /// spans — the cache span *is* its trace.
    fn attach_cache_span(&self, rep: &mut FunctionReport, hit: bool) {
        if !self.trace {
            return;
        }
        rep.trace
            .get_or_insert_with(Default::default)
            .push_front(Span::Cache { hit });
    }

    /// Runs `work` on `func` in place under `catch_unwind` (when isolation
    /// is enabled), after copying `func` into the arena's pooled snapshot.
    /// A panic swaps the snapshot back, so `func` is exactly as it was —
    /// the function ships unoptimized — and is reported as a
    /// [`Incident::PassPanic`] carrying the pass that was running.
    ///
    /// The snapshot discipline is identical in sequential and parallel
    /// runs, so isolation never perturbs byte-identity.
    fn isolated<T, F>(&self, func: &mut Function, arena: &mut ScratchArena, work: F) -> FailOpen<T>
    where
        F: FnOnce(&mut Function, &mut ScratchArena) -> T,
    {
        if !self.options.isolate_panics {
            return FailOpen::Done(work(func, arena));
        }
        let mut snapshot = match arena.snapshot.take() {
            Some(mut snapshot) => {
                snapshot.clone_from(func);
                snapshot
            }
            None => func.clone(),
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(func, arena)));
        let out = match result {
            Ok(out) => FailOpen::Done(out),
            Err(payload) => {
                std::mem::swap(func, &mut snapshot);
                let incident = Incident::PassPanic {
                    function: func.name_symbol(),
                    pass: current_pass(),
                    payload: payload_message(payload.as_ref()),
                };
                FailOpen::Panicked(Box::new(fail_open_report(func, incident)))
            }
        };
        arena.snapshot = Some(snapshot);
        out
    }

    /// Applies `f` to every function and collects the results in function
    /// order — on this thread, or on a scoped work pool when
    /// [`with_threads`](Optimizer::with_threads) asked for more than one
    /// worker. Each function is claimed by exactly one worker off a shared
    /// atomic cursor; results land in per-function slots, so the merged
    /// output is deterministic regardless of scheduling.
    fn map_functions<T, F>(&self, module: &mut Module, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(FuncId, &mut Function) -> T + Sync,
    {
        let n = module.function_count();
        let threads = self.threads().min(n.max(1));
        if threads <= 1 {
            return module
                .functions_mut()
                .map(|(id, func)| f(id, func))
                .collect();
        }
        let jobs: Vec<Mutex<Option<(FuncId, &mut Function)>>> = module
            .functions_mut()
            .map(|j| Mutex::new(Some(j)))
            .collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let (id, func) = jobs[i]
                        .lock()
                        .expect("job lock")
                        .take()
                        .expect("each job claimed once");
                    let out = f(id, func);
                    *results[i].lock().expect("result lock") = Some(out);
                });
            }
        });
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result lock")
                    .expect("every job completed")
            })
            .collect()
    }

    /// Demand discipline at function granularity: with a profile and a
    /// `hot_threshold` in force (intraprocedurally), a function none of
    /// whose check sites is hot gets no pipeline at all — the module text
    /// stays byte-identical to the input, and every check is reported
    /// `Skipped`. This is the work-list semantics of §5 lifted a level:
    /// analysis effort is spent only where the profile says it pays.
    fn cold_skip_report(
        &self,
        func: &Function,
        func_id: FuncId,
        profile: Option<&Profile>,
    ) -> Option<FunctionReport> {
        let threshold = self.options.hot_threshold?;
        let profile = profile?;
        if self.options.interprocedural {
            // Interproc fact inference needs every function prepared, so
            // whole-function skipping only applies intraprocedurally.
            return None;
        }
        if threshold == 0 {
            // Threshold 0 declares every site hot — including the vacuous
            // "no sites at all" case — so nothing is skipped and the output
            // stays byte-identical to an unthresholded run.
            return None;
        }
        let hot = func
            .blocks()
            .flat_map(|b| func.block(b).insts())
            .any(|&id| {
                matches!(func.inst(id).kind, InstKind::BoundsCheck { site, .. }
                if profile.site_count(func_id, site) >= threshold)
            });
        // At least one hot site: run the pipeline.
        (!hot).then(|| report_every_check(func, CheckOutcome::Skipped))
    }

    /// Attempts to replay a cached result for `func`. `Ok(Some(report))`:
    /// hit, `func` replaced by the cached optimized IR. `Ok(None)`: miss.
    /// `Err(incident)`: the entry failed re-verification or replay
    /// (already evicted by the cache) — recompile cold and surface the
    /// incident.
    fn try_replay(
        &self,
        cache: &AnalysisCache,
        key: CacheKey,
        func: &mut Function,
    ) -> Result<Option<FunctionReport>, Incident> {
        match cache.replay(key, |entry, parsed| self.replay_entry(func, entry, parsed)) {
            Replay::Hit(report) => Ok(Some(report)),
            Replay::Miss => Ok(None),
            Replay::Corrupt(detail) => Err(Incident::CacheCorrupt {
                function: func.name_symbol(),
                detail,
            }),
        }
    }

    /// Replaces `func` with a clone of the cached optimized body `parsed`
    /// (parsed from `entry.ir_text`) and reconstructs its report from the
    /// entry's summary. Every hit re-checks the name and re-verifies.
    fn replay_entry(
        &self,
        func: &mut Function,
        entry: &CacheEntry,
        parsed: &Function,
    ) -> Result<FunctionReport, String> {
        if parsed.name() != func.name() {
            return Err(format!(
                "cached IR names `{}`, expected `{}`",
                parsed.name(),
                func.name()
            ));
        }
        abcd_ir::verify_function(parsed, None)
            .map_err(|e| format!("cached IR fails verification: {e}"))?;
        *func = parsed.clone();
        let mut report = FunctionReport::new(func.name());
        report.from_cache = true;
        report.checks_total = entry.checks_total;
        report.outcomes = entry.outcomes.clone();
        report.steps = entry.steps;
        report.pre_steps = entry.pre_steps;
        report.spec_checks_inserted = entry.spec_checks_inserted;
        report.checks_merged = entry.checks_merged;
        report.checks_validated = entry.checks_validated;
        report.fuel_spent = entry.steps + entry.pre_steps;
        report.fuel_limit = self
            .options
            .fuel_per_function
            .or(self.options.fuel_per_query);
        Ok(report)
    }

    /// Stores an incident-free cold result. Anything with incidents is
    /// not cached: fail-open outputs are deliberately conservative and
    /// must be re-derived (and re-reported) every run, never replayed.
    fn maybe_store(
        &self,
        cache: &AnalysisCache,
        key: CacheKey,
        func: &Function,
        rep: &FunctionReport,
    ) {
        if !rep.incidents.is_empty() || rep.from_cache {
            return;
        }
        let mut ir_text = String::new();
        abcd_ir::print_function(func, &mut ir_text);
        cache.insert(
            key,
            CacheEntry {
                ir_text,
                checks_total: rep.checks_total,
                outcomes: rep.outcomes.clone(),
                steps: rep.steps,
                pre_steps: rep.pre_steps,
                spec_checks_inserted: rep.spec_checks_inserted,
                checks_merged: rep.checks_merged,
                checks_validated: rep.checks_validated,
            },
        );
    }

    /// Publishes `stage` as the one running on this thread and lets the
    /// fault plan panic at its boundary.
    fn enter(&self, func: &Function, stage: Stage) {
        set_current_pass(stage);
        if let Some(plan) = &self.fault_plan {
            plan.maybe_panic(func.name(), stage);
        }
    }

    /// Runs one IR-mutating pipeline stage with the robustness hooks: the
    /// fault plan may panic at its boundary, and `verify_ir` re-verifies
    /// the output — on rejection the pre-pass snapshot is restored and the
    /// offending pass is named in the returned incident.
    ///
    /// `ssa_form` stages (everything after local promotion) are also held
    /// to the dominance discipline: a transform that leaves a use above its
    /// definition — e.g. PRE insertion points computed from a corrupted
    /// constraint graph — is rolled back, not shipped.
    fn run_stage(
        &self,
        func: &mut Function,
        stage: Stage,
        ssa_form: bool,
        work: impl FnOnce(&mut Function),
    ) -> Result<(), Incident> {
        self.enter(func, stage);
        if !self.options.verify_ir {
            work(func);
            return Ok(());
        }
        let snapshot = func.clone();
        work(func);
        let verdict = abcd_ir::verify_function(func, None)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                if ssa_form {
                    abcd_ssa::verify_ssa(func).map_err(|e| e.to_string())
                } else {
                    Ok(())
                }
            });
        match verdict {
            Ok(()) => Ok(()),
            Err(error) => {
                let incident = Incident::VerifyFailed {
                    function: func.name_symbol(),
                    pass: stage,
                    error,
                };
                *func = snapshot;
                Err(incident)
            }
        }
    }

    /// Stages 1–3 of Figure 2, `split_critical_edges` through `insert_pi`
    /// and stopping after `last`: SSA construction, basic cleanup, e-SSA.
    /// Fails open: a verifier rejection ships the pre-pass function.
    ///
    /// The dominator tree `ssa` builds after CFG normalization serves
    /// promotion, cleanup, π insertion and then, carried in the returned
    /// [`PreparedGvn`], the analysis: no later stage adds or retargets a
    /// reachable edge.
    fn prepare_function(
        &self,
        func: &mut Function,
        arena: &mut ScratchArena,
        last: Stage,
    ) -> Result<PreparedGvn, Incident> {
        let ScratchArena { ssa, cleanup, .. } = arena;
        let prepare_started = Instant::now();
        let opts = &self.options;
        let mut cleanup_stats = abcd_analysis::CleanupStats::default();
        let mut gvn = abcd_analysis::GvnResult::default();
        let mut pi_time = std::time::Duration::ZERO;
        self.run_stage(func, Stage::SplitCriticalEdges, false, |f| {
            ssa.normalize(f);
        })?;
        if last >= Stage::PromoteLocals {
            self.run_stage(func, Stage::PromoteLocals, true, |f| {
                ssa.promote_locals(f)
                    .expect("the parse stage guarantees definite assignment");
            })?;
        }
        if last >= Stage::Cleanup && opts.cleanup {
            self.run_stage(func, Stage::Cleanup, true, |f| {
                let (stats, g) = cleanup.cleanup(f, ssa.dom_tree());
                cleanup_stats = stats;
                gvn = g;
            })?;
        } else if last >= Stage::Cleanup && opts.gvn_hook {
            // §7.1 needs congruence even when the rewriting cleanup is off:
            // value-number a throwaway clone (value ids are stable) and keep
            // only the congruence classes.
            let mut scratch = func.clone();
            gvn = cleanup.value_number(&mut scratch, ssa.dom_tree());
        }
        if last >= Stage::Congruence && opts.gvn_hook {
            // Loads of the same array slot yield the same reference (and
            // hence the same length) — congruence no rewriting CSE can see.
            self.enter(func, Stage::Congruence);
            cleanup.record_load_congruence(func, &mut gvn);
        }
        if last >= Stage::InsertPi {
            let pi_started = Instant::now();
            self.run_stage(func, Stage::InsertPi, true, |f| {
                ssa.insert_pi_nodes(f);
            })?;
            pi_time = pi_started.elapsed();
            debug_assert_eq!(abcd_ssa::verify_ssa(func), Ok(()));
        }
        Ok(PreparedGvn {
            gvn,
            dt: ssa.take_dom_tree(),
            cleanup: cleanup_stats,
            prepare_time: prepare_started.elapsed(),
            pi_time,
        })
    }

    /// Stages 4–5 of Figure 2: build the constraint systems (optionally
    /// augmented with verified parameter facts) and run `demandProve` per
    /// check, transforming as directed, through `last` (`transform` or
    /// later).
    #[allow(clippy::too_many_arguments)]
    fn analyze_function(
        &self,
        func: &mut Function,
        func_id: FuncId,
        profile: Option<&Profile>,
        prepared: PreparedGvn,
        facts: &[ParamFact],
        arena: &mut ScratchArena,
        last: Stage,
    ) -> FunctionReport {
        let opts = &self.options;
        let mut report = FunctionReport::new(func.name());
        report.cleanup = prepared.cleanup;
        report.param_facts_used = facts.len();
        report.metrics.prepare_time = prepared.prepare_time;
        report.fuel_limit = opts.fuel_per_function.or(opts.fuel_per_query);
        let PreparedGvn { gvn, dt, .. } = prepared;
        let mut ftrace: Option<Box<FunctionTrace>> = self.trace.then(Box::default);
        if let Some(t) = &mut ftrace {
            t.push(Span::Prepare {
                dur: prepared.prepare_time,
            });
            t.push(Span::Pass {
                stage: Stage::InsertPi,
                dur: prepared.pi_time,
            });
        }

        // 4: the two sparse constraint systems.
        self.enter(func, Stage::GraphBuild);
        let graph_started = Instant::now();
        // One walk of the IR, plus the assumed parameter facts; every graph
        // below is filled from this log.
        let mut log = std::mem::take(&mut arena.log);
        log.record(func);
        log.assume(facts, func);
        let mut upper_graph = arena.take_graph();
        upper_graph.fill(&log, Problem::Upper, Scope::Function);
        let mut lower_graph = arena.take_graph();
        lower_graph.fill(&log, Problem::Lower, Scope::Function);
        if let Some(plan) = &self.fault_plan {
            // Deterministic sabotage of the constraint system; translation
            // validation rebuilds clean graphs and must catch any wrong
            // elimination this causes.
            plan.perturb_graphs(func.name(), &mut upper_graph, &mut lower_graph);
        }
        let upper_graph = upper_graph;
        let lower_graph = lower_graph;
        // A fuel fault starves every query of this function outright.
        let fuel_fault = self
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.exhausts_fuel(func.name()));
        report.metrics.graph_build_time = graph_started.elapsed();
        report.metrics.upper_vertices = upper_graph.vertex_count();
        report.metrics.upper_edges = upper_graph.edge_count();
        report.metrics.lower_vertices = lower_graph.vertex_count();
        report.metrics.lower_edges = lower_graph.edge_count();
        if let Some(t) = &mut ftrace {
            t.push(Span::GraphBuild {
                dur: report.metrics.graph_build_time,
                upper_vertices: report.metrics.upper_vertices,
                upper_edges: report.metrics.upper_edges,
                lower_vertices: report.metrics.lower_vertices,
                lower_edges: report.metrics.lower_edges,
            });
        }

        // The checks the walk listed, in program order, hottest-first when
        // profiled.
        let mut checks = log.checks().to_vec();
        report.checks_total = checks.len();
        if let Some(p) = profile {
            checks.sort_by_key(|check| std::cmp::Reverse(p.site_count(func_id, check.site)));
        }

        // Provers are cached per source vertex so memoization spans all
        // checks against the same array (or the constant 0) — including the
        // PRE provers, whose exact-match memo is equally reusable.
        let mut provers: HashMap<Vertex, DemandProver> = HashMap::new();
        let graph_of = |problem| match problem {
            Problem::Upper => &upper_graph,
            Problem::Lower => &lower_graph,
        };
        let freq_fn = profile.map(|p| move |b: Block| p.block_count(func_id, b));
        let freq_dyn: Option<&dyn Fn(Block) -> u64> = match &freq_fn {
            Some(f) => Some(f),
            None => None,
        };
        let mut pre_provers: HashMap<(Problem, Vertex), PreProver> = HashMap::new();
        // The Figure 6 local/global split re-proves each removal on the
        // graph of its block's facts alone, filled once per block.
        let mut local_graphs: HashMap<(Block, Problem), InequalityGraph> = HashMap::new();

        // Definition sites for the §7.1 retries, found once: the function
        // does not change until the transform.
        let mut locations: Option<Vec<Option<(Block, usize)>>> = None;

        let mut to_remove: Vec<(Block, InstId)> = Vec::new();
        let mut pre_jobs: Vec<(Block, InstId, Vec<crate::solver::InsertionPoint>, Problem)> =
            Vec::new();

        self.enter(func, Stage::Solve);
        for LoggedCheck {
            block,
            inst,
            site,
            array,
            index,
            kind,
        } in checks
        {
            let enabled = match kind {
                CheckKind::Upper => opts.upper,
                CheckKind::Lower => opts.lower,
                CheckKind::Both => opts.upper && opts.lower,
            };
            if !enabled {
                report.record(site, kind, CheckOutcome::Skipped);
                continue;
            }
            if let (Some(threshold), Some(p)) = (opts.hot_threshold, profile) {
                if p.site_count(func_id, site) < threshold {
                    report.record(site, kind, CheckOutcome::Skipped);
                    continue;
                }
            }
            // Fuel gate. The per-function budget counts every solver step
            // already spent; once it (or an injected fuel fault) starves a
            // check, the check is kept without querying — exhaustion can
            // never eliminate a check, not even through the provers'
            // O(1) trivial fast paths.
            let already_spent = report.steps + report.pre_steps;
            let function_fuel_left = opts
                .fuel_per_function
                .map(|budget| budget.saturating_sub(already_spent));
            if fuel_fault || function_fuel_left == Some(0) {
                report.incidents.push(Incident::BudgetExhausted {
                    function: func.name_symbol(),
                    site,
                    kind,
                    fuel: if fuel_fault { 0 } else { already_spent },
                });
                report.record(site, kind, CheckOutcome::Kept);
                continue;
            }
            let query_fuel = match (opts.fuel_per_query, function_fuel_left) {
                (Some(q), Some(f)) => Some(q.min(f)),
                (q, f) => q.or(f),
            };
            let started = Instant::now();
            let mut spent_steps = 0u64;
            let mut exhausted = false;
            let mut overflowed = false;

            // `Both` checks need both proofs; PRE and the local/global split
            // treat them as upper checks.
            let problem = Problem::of_check(kind)[0];
            let (source, c) = problem.check_query(array);
            let mut proven = Problem::of_check(kind).iter().all(|&problem| {
                prove_check(
                    graph_of(problem),
                    &mut provers,
                    arena,
                    &mut spent_steps,
                    &mut exhausted,
                    &mut overflowed,
                    query_fuel,
                    array,
                    index,
                    site,
                    &mut ftrace,
                )
            });
            let mut via_congruence = false;

            // §7.1: on upper-check failure, retry against congruent arrays.
            // A starved query skips the retries: its False is a budget
            // artifact, and the check is being kept anyway. Each retry
            // records its own prove span (against the congruent array).
            if !proven && !exhausted && opts.gvn_hook && matches!(kind, CheckKind::Upper) {
                let locations = locations.get_or_insert_with(|| func.inst_locations());
                for other in
                    abcd_analysis::congruent_arrays_in(func, locations, &gvn, &dt, array, block)
                {
                    if prove_check(
                        &upper_graph,
                        &mut provers,
                        arena,
                        &mut spent_steps,
                        &mut exhausted,
                        &mut overflowed,
                        query_fuel,
                        other,
                        index,
                        site,
                        &mut ftrace,
                    ) {
                        proven = true;
                        via_congruence = true;
                        break;
                    }
                    if exhausted {
                        break;
                    }
                }
            }

            let outcome = if proven {
                to_remove.push((block, inst));
                report.eliminated.push(EliminatedCheck {
                    block,
                    site,
                    kind,
                    array,
                    index,
                });
                let local = opts.classify_local && {
                    let graph = local_graphs.entry((block, problem)).or_insert_with(|| {
                        let mut g = arena.take_graph();
                        g.fill(&log, problem, Scope::Block(block));
                        g
                    });
                    let mut prover = DemandProver::with_scratch(graph, source, arena.take_demand());
                    let ok = prover.demand_prove(Vertex::Value(index), c);
                    arena.put_demand(prover.into_scratch());
                    ok
                };
                report.metrics.solve_time += started.elapsed();
                CheckOutcome::RemovedFully {
                    local,
                    via_congruence,
                }
            } else if exhausted {
                // Conservative: keep the check, surface the budget stop.
                report.metrics.solve_time += started.elapsed();
                report.incidents.push(Incident::BudgetExhausted {
                    function: func.name_symbol(),
                    site,
                    kind,
                    fuel: spent_steps,
                });
                CheckOutcome::Kept
            } else if overflowed {
                // Path-weight arithmetic saturated: the `False` is an
                // artifact of the conservative overflow answer, not a real
                // refutation, so PRE (which would trust it) is skipped and
                // the precision loss is surfaced as a non-degraded incident.
                report.metrics.solve_time += started.elapsed();
                report.incidents.push(Incident::SolverOverflow {
                    function: func.name_symbol(),
                    site,
                    kind,
                });
                CheckOutcome::Kept
            } else if opts.pre && kind != CheckKind::Both {
                report.metrics.solve_time += started.elapsed();
                self.enter(func, Stage::Pre);
                let pre_started = Instant::now();
                let tracing = self.trace;
                let prover = pre_provers.entry((problem, source)).or_insert_with(|| {
                    let graph = graph_of(problem);
                    let mut p = PreProver::with_scratch(graph, source, freq_dyn, arena.take_pre());
                    if tracing {
                        p.enable_trace();
                    }
                    p
                });
                let (result, pre_steps) = self.try_pre(
                    func_id,
                    profile,
                    site,
                    prover,
                    index,
                    c,
                    query_fuel,
                    problem,
                    &mut ftrace,
                );
                report.pre_steps += pre_steps;
                report.metrics.pre_time += pre_started.elapsed();
                set_current_pass(Stage::Solve);
                if prover.last_query_exhausted() {
                    report.incidents.push(Incident::BudgetExhausted {
                        function: func.name_symbol(),
                        site,
                        kind,
                        fuel: spent_steps + pre_steps,
                    });
                }
                match result {
                    Some(points) => {
                        let n = points.len();
                        report.hoisted_checks.push(HoistedCheck {
                            block,
                            inst,
                            site,
                            kind,
                            array,
                            index,
                            points: points.clone(),
                        });
                        pre_jobs.push((block, inst, points, problem));
                        CheckOutcome::Hoisted { insertions: n }
                    }
                    None => CheckOutcome::Kept,
                }
            } else {
                report.metrics.solve_time += started.elapsed();
                CheckOutcome::Kept
            };

            report.steps += spent_steps;
            report.analysis_time += started.elapsed();
            report.record(site, kind, outcome);
        }

        for p in provers.values() {
            report.metrics.memo_hits += p.memo_hits;
            report.metrics.memo_misses += p.memo_misses;
        }
        for p in pre_provers.values() {
            report.metrics.pre_memo_hits += p.memo_hits;
            report.metrics.pre_memo_misses += p.memo_misses;
        }
        // Retire every prover and graph into the arena: their warm tables
        // and shells seed the next function's analysis.
        for p in provers.into_values() {
            arena.put_demand(p.into_scratch());
        }
        for (_, p) in pre_provers {
            arena.put_pre(p.into_scratch());
        }
        for (_, g) in local_graphs {
            arena.put_graph(g);
        }
        arena.put_graph(upper_graph);
        arena.put_graph(lower_graph);
        arena.log = log;

        // 5: transform. The rewrite runs as a verified stage: if the
        // verifier rejects the transformed function, the pre-transform
        // snapshot ships and every claimed removal is rolled back to Kept.
        let transform_started = Instant::now();
        let merge_checks = opts.merge_checks;
        let mut spec_inserted = 0usize;
        let mut merged = 0usize;
        let transform = self.run_stage(func, Stage::Transform, true, |f| {
            arena.cleanup.unlink_insts(f, to_remove);
            for (b, id, points, problem) in pre_jobs {
                spec_inserted += apply_insertions(f, b, id, &points, problem);
            }
            if merge_checks {
                merged = merge_remaining_checks(f);
            }
        });
        match transform {
            Ok(()) => {
                report.spec_checks_inserted = spec_inserted;
                report.checks_merged = merged;
            }
            Err(incident) => {
                // Pre-transform snapshot restored: nothing was removed.
                report.incidents.push(incident);
                for (_, _, o) in &mut report.outcomes {
                    if matches!(
                        o,
                        CheckOutcome::RemovedFully { .. } | CheckOutcome::Hoisted { .. }
                    ) {
                        *o = CheckOutcome::Kept;
                    }
                }
                report.eliminated.clear();
                report.hoisted_checks.clear();
            }
        }
        report.metrics.transform_time = transform_started.elapsed();
        if let Some(t) = &mut ftrace {
            // Summary spans: total solver and transform wall time, after the
            // per-check Prove/Pre spans they aggregate.
            t.push(Span::Pass {
                stage: Stage::Solve,
                dur: report.metrics.solve_time,
            });
            t.push(Span::Pass {
                stage: Stage::Transform,
                dur: report.metrics.transform_time,
            });
        }

        // Translation validation (fail-open layer): independently
        // re-justify every elimination from the final e-SSA form.
        if opts.validate && last >= Stage::Validate {
            self.enter(func, Stage::Validate);
            crate::validate::validate_function(func, &mut report, facts, &gvn, &dt, opts.gvn_hook);
        }
        arena.ssa.put_dom_tree(dt);
        arena.cleanup.recycle(gvn);

        // Final stage, always on: renumber into the parser's canonical
        // form. This makes the printed module a `print ∘ parse` fixpoint —
        // the property the content-addressed cache stores and re-verifies,
        // and what keeps batch, served, warm, and cold outputs
        // byte-identical to each other.
        if last >= Stage::Canonicalize {
            if let Err(incident) = self.run_stage(func, Stage::Canonicalize, true, |f| {
                f.canonicalize_in_place(&mut arena.canon);
            }) {
                report.incidents.push(incident);
            }
        }

        report.fuel_spent = report.steps + report.pre_steps;
        report.trace = ftrace;
        debug_assert_eq!(abcd_ir::verify_function(func, None), Ok(()));
        report
    }

    /// PRE: query with insertion collection and test profitability (§6.1).
    /// The prover is cached per `(problem, source)` by the caller so its
    /// memo spans every failed check against the same source.
    #[allow(clippy::too_many_arguments)]
    fn try_pre(
        &self,
        func_id: FuncId,
        profile: Option<&Profile>,
        site: CheckSite,
        prover: &mut PreProver,
        index: Value,
        c: i64,
        fuel: Option<u64>,
        problem: Problem,
        trace: &mut Option<Box<FunctionTrace>>,
    ) -> (Option<Vec<crate::solver::InsertionPoint>>, u64) {
        let steps_before = prover.steps;
        if let Some(f) = fuel {
            prover.set_query_fuel(f);
        }
        let outcome = prover.demand_prove(Vertex::Value(index), c);
        let steps = prover.steps - steps_before;
        let span_outcome;
        let mut insertions: Vec<PreInsertionRecord> = Vec::new();
        let result = match outcome {
            PreOutcome::Proven => {
                span_outcome = "proven";
                None
            }
            PreOutcome::ProvenWithInsertions(points) => {
                if trace.is_some() {
                    insertions = points
                        .iter()
                        .map(|pt| PreInsertionRecord {
                            pred: pt.pred.to_string(),
                            arg: pt.arg.to_string(),
                            c_prime: pt.c_prime,
                            delta: crate::pre::compensation_delta(problem, pt.c_prime),
                        })
                        .collect();
                }
                let profitable = match profile {
                    Some(p) => {
                        let cost: u64 = points
                            .iter()
                            .map(|pt| p.block_count(func_id, pt.pred))
                            .sum();
                        let benefit = p.site_count(func_id, site);
                        cost < benefit
                    }
                    // Without a profile, insert speculatively (the paper's
                    // speculation is safe thanks to the compare/trap split);
                    // a single insertion point is the classic loop-invariant
                    // shape and essentially always profitable.
                    None => points.len() <= 1,
                };
                span_outcome = if profitable {
                    "hoisted"
                } else {
                    "unprofitable"
                };
                profitable.then_some(points)
            }
            PreOutcome::Failed => {
                span_outcome = if prover.last_query_exhausted() {
                    "exhausted"
                } else {
                    "failed"
                };
                None
            }
        };
        if let Some(t) = trace {
            t.push(Span::Pre {
                site,
                check: problem.name(),
                outcome: span_outcome,
                steps,
                insertions,
                events: prover.take_trace(),
            });
        }
        (result, steps)
    }
}

/// Runs a check's query on `graph` (upper or lower, by the graph's
/// problem) against the memoized prover of its source, accounting the
/// solver steps it spends into `spent`, budget trips into `exhausted`, and
/// arithmetic saturation into `overflowed`.
#[allow(clippy::too_many_arguments)]
fn prove_check<'g>(
    graph: &'g InequalityGraph,
    provers: &mut HashMap<Vertex, DemandProver<'g>>,
    arena: &mut ScratchArena,
    spent: &mut u64,
    exhausted: &mut bool,
    overflowed: &mut bool,
    fuel: Option<u64>,
    array: Value,
    index: Value,
    site: CheckSite,
    trace: &mut Option<Box<FunctionTrace>>,
) -> bool {
    let problem = graph.problem();
    let (source, c) = problem.check_query(array);
    let tracing = trace.is_some();
    let p = provers.entry(source).or_insert_with(|| {
        let mut p = DemandProver::with_scratch(graph, source, arena.take_demand());
        if tracing {
            p.enable_trace();
        }
        p
    });
    let before = p.steps;
    if let Some(f) = fuel {
        p.set_query_fuel(f);
    }
    let ok = p.demand_prove(Vertex::Value(index), c);
    let steps = p.steps - before;
    *spent += steps;
    *exhausted |= p.last_query_exhausted();
    *overflowed |= p.last_query_overflowed();
    if let Some(t) = trace {
        t.push(Span::Prove {
            site,
            check: problem.name(),
            target: Vertex::Value(index).to_string(),
            source: source.to_string(),
            c,
            proven: ok,
            exhausted: p.last_query_exhausted(),
            steps,
            events: p.take_trace(),
        });
    }
    ok
}

/// Resolves a `--jobs` request against the host: `0` (auto) becomes the
/// available parallelism, and explicit counts are clamped to it — workers
/// beyond physical CPUs only add contention (measured ~40% slower over the
/// benchsuite at 2–4 workers on a 1-CPU host; see the
/// `pipeline/abcd_suite_threads/*` rows of `BENCH_pipeline.json`).
///
/// CLI entry points route their worker counts through this; direct
/// [`Optimizer::with_threads`] callers stay unclamped so tests can still
/// exercise oversubscribed pools deliberately.
pub fn clamp_jobs(requested: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if requested == 0 {
        cpus
    } else {
        requested.min(cpus)
    }
}

/// GVN result, the dominator tree and cleanup statistics, carried from
/// prepare to analyze.
struct PreparedGvn {
    gvn: abcd_analysis::GvnResult,
    /// The tree built after CFG normalization; the analysis returns its
    /// tables to the arena when done.
    dt: DomTree,
    cleanup: abcd_analysis::CleanupStats,
    prepare_time: std::time::Duration,
    /// The π-insertion slice of `prepare_time`, for its trace span.
    pi_time: std::time::Duration,
}

/// A prepared function's analysis state — the hash of its canonical
/// *input* text (for cache keying, captured before prepare mutated
/// anything) and the prepare outcome — handed from interprocedural mode's
/// prepare phase to the per-function path.
type PreparedSlot = Mutex<Option<(Option<u64>, FailOpen<Result<PreparedGvn, Incident>>)>>;

/// Result of an isolated pipeline run: the work's own output, or the
/// fail-open report of a function whose pipeline panicked.
enum FailOpen<T> {
    Done(T),
    Panicked(Box<FunctionReport>),
}

impl FailOpen<FunctionReport> {
    fn merge(self) -> FunctionReport {
        match self {
            FailOpen::Done(r) => r,
            FailOpen::Panicked(r) => *r,
        }
    }
}

/// The report of a function that ships un-transformed after a pipeline
/// failure: every check is recorded as kept, plus the triggering incident.
fn fail_open_report(func: &Function, incident: Incident) -> FunctionReport {
    let mut report = report_every_check(func, CheckOutcome::Kept);
    report.incidents.push(incident);
    report
}

/// A report recording every bounds check of `func`, in program order,
/// with `outcome`.
fn report_every_check(func: &Function, outcome: CheckOutcome) -> FunctionReport {
    let mut report = FunctionReport::new(func.name());
    for b in func.blocks() {
        for &id in func.block(b).insts() {
            if let InstKind::BoundsCheck { site, kind, .. } = func.inst(id).kind {
                report.checks_total += 1;
                report.record(site, kind, outcome);
            }
        }
    }
    report
}

/// Human-readable panic payload (message when it was a string).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CheckOutcome;
    use abcd_frontend::compile;
    use abcd_vm::Vm;

    const LOOP_SRC: &str = "fn f(a: int[]) -> int {
        let s: int = 0;
        for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
        return s;
    }";

    #[test]
    fn report_accounting_is_consistent() {
        let mut m = compile(LOOP_SRC).unwrap();
        let report = Optimizer::new().optimize_module(&mut m, None);
        let f = &report.functions[0];
        assert_eq!(f.checks_total, 2);
        assert_eq!(f.checks_analyzed(), 2);
        assert_eq!(f.removed_fully(), 2);
        assert_eq!(f.hoisted(), 0);
        assert!(f.steps > 0);
        assert!(f.steps_per_check() > 0.0);
        assert_eq!(report.checks_total(), 2);
        assert_eq!(report.checks_removed_fully(), 2);
        assert!(report.analysis_time() >= std::time::Duration::ZERO);
    }

    #[test]
    fn optimizing_twice_is_stable() {
        let mut m = compile(LOOP_SRC).unwrap();
        let opt = Optimizer::new();
        let r1 = opt.optimize_module(&mut m, None);
        assert_eq!(r1.checks_removed_fully(), 2);
        // Second run: nothing left to do, and the module stays valid.
        let r2 = opt.optimize_module(&mut m, None);
        assert_eq!(r2.checks_total(), 0);
        abcd_ir::verify_module(&m).unwrap();
        let mut vm = Vm::new(&m);
        let a = vm.alloc_int_array(&[4, 5]);
        assert_eq!(
            vm.call_by_name("f", &[a]).unwrap(),
            Some(abcd_vm::RtVal::Int(9))
        );
    }

    #[test]
    fn function_without_checks_reports_empty() {
        let mut m = compile("fn g(x: int) -> int { return x * 2; }").unwrap();
        let report = Optimizer::new().optimize_module(&mut m, None);
        let f = &report.functions[0];
        assert_eq!(f.checks_total, 0);
        assert_eq!(f.steps, 0);
        assert_eq!(f.steps_per_check(), 0.0);
    }

    #[test]
    fn local_classification_flags_same_block_proofs() {
        // a[i] then a[i] again: the second access' checks are provable from
        // the first's π constraints, all within one block.
        let mut m = compile("fn f(a: int[], i: int) -> int { return a[i] + a[i]; }").unwrap();
        let report = Optimizer::new().optimize_module(&mut m, None);
        let f = &report.functions[0];
        let locals = f
            .outcomes
            .iter()
            .filter(|(_, _, o)| matches!(o, CheckOutcome::RemovedFully { local: true, .. }))
            .count();
        assert!(locals >= 2, "{:#?}", f.outcomes);
        // The first pair is not removable at all.
        assert_eq!(f.removed_fully(), 2, "{:#?}", f.outcomes);
    }

    #[test]
    fn hot_threshold_without_profile_analyzes_everything() {
        let mut m = compile(LOOP_SRC).unwrap();
        let opts = OptimizerOptions {
            hot_threshold: Some(1_000_000),
            ..OptimizerOptions::default()
        };
        // No profile given: the threshold cannot apply.
        let report = Optimizer::with_options(opts).optimize_module(&mut m, None);
        assert_eq!(report.checks_removed_fully(), 2);
    }

    #[test]
    fn merge_checks_option_produces_both_checks() {
        let mut m = compile("fn f(a: int[], i: int) -> int { return a[i]; }").unwrap();
        let opts = OptimizerOptions {
            merge_checks: true,
            ..OptimizerOptions::default()
        };
        let report = Optimizer::with_options(opts).optimize_module(&mut m, None);
        assert_eq!(report.functions[0].checks_merged, 1);
        let id = m.function_by_name("f").unwrap();
        let func = m.function(id);
        let mut both = 0;
        for b in func.blocks() {
            for &iid in func.block(b).insts() {
                if let InstKind::BoundsCheck {
                    kind: abcd_ir::CheckKind::Both,
                    ..
                } = func.inst(iid).kind
                {
                    both += 1;
                }
            }
        }
        assert_eq!(both, 1);
    }

    #[test]
    fn profile_orders_hot_checks_first() {
        // Two functions; one runs 100x more. With a profile, the analysis
        // still visits everything but the reports must agree regardless of
        // ordering — this pins the sort from crashing on ties and the
        // outcome being order-independent.
        let src = "
            fn hot(a: int[]) -> int {
                let s: int = 0;
                for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
                return s;
            }
            fn main() -> int {
                let a: int[] = new int[32];
                let t: int = 0;
                for (let r: int = 0; r < 100; r = r + 1) { t = t + hot(a); }
                return t;
            }
        ";
        let train = compile(src).unwrap();
        let mut vm = Vm::new(&train);
        vm.call_by_name("main", &[]).unwrap();
        let profile = vm.into_profile();

        let mut with_profile = compile(src).unwrap();
        let r1 = Optimizer::new().optimize_module(&mut with_profile, Some(&profile));
        let mut without = compile(src).unwrap();
        let r2 = Optimizer::new().optimize_module(&mut without, None);
        assert_eq!(r1.checks_removed_fully(), r2.checks_removed_fully());
        assert_eq!(r1.checks_hoisted(), r2.checks_hoisted());
    }
}
