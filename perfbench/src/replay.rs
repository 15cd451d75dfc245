//! Layer replay of `Optimizer::optimize_module`.
//!
//! The optimizer cannot be split from outside, so the traced run replays
//! its stages on a clone of the same input, in the driver's order, through
//! the crates' public functions, each inside a span of its layer. The
//! replay's self times are then reconciled against the driver's own wall
//! time; the remainder is `driver.unattributed_ms`.
//!
//! The provers run the driver's warm path: one [`ScratchArena`] per
//! module, reused across its functions, hands every `AnyProver` its
//! tables (`AnyProver::with_arena` / `reclaim`), and PRE provers adopt
//! retired tables (`PreProver::with_scratch`). The inequality graphs are
//! built cold with `InequalityGraph::build`: the driver's in-place rebuild
//! of pooled graph shells is not public.
//!
//! The replay assumes the default intraprocedural configuration without
//! fuel budgets, IR verification or validation, which is what every
//! workload runs.

use crate::trace::Tracer;
use abcd::cache::{self, Lookup};
use abcd::{
    apply_insertions, AnalysisCache, AnyProver, CacheEntry, InequalityGraph, InsertionPoint,
    OptimizerOptions, PreOutcome, PreProver, PreScratch, Problem, ProverBackend, ScratchArena,
    Vertex,
};
use abcd_ir::{Block, CheckKind, FuncId, Function, InstId, InstKind, Module, Value};
use abcd_ssa::DomTree;
use abcd_vm::Profile;
use std::collections::{BTreeMap, HashMap};

/// Work counters only the replay observes, summed over a module's
/// functions. Every other counter is read from the driver's own reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// π-assignments inserted (`PiStats`).
    pub pis: u64,
    /// `demandProve` queries, congruence retries included.
    pub queries: u64,
    /// Queries answered true.
    pub proven: u64,
}

impl Counts {
    /// Adds `other` field by field.
    pub fn add(&mut self, other: &Counts) {
        self.pis += other.pis;
        self.queries += other.queries;
        self.proven += other.proven;
    }
}

/// Prover tables reused across a module's functions, as the driver's
/// per-call scratch pool reuses them. The arena hands PRE tables out only
/// inside the optimizer, so the replay keeps those itself.
#[derive(Default)]
struct Scratch {
    arena: ScratchArena,
    pre: Vec<PreScratch>,
}

/// Replays the optimizer over a clone of `input`, returning the optimized
/// clone. With a cache, each function is keyed, looked up and, on a miss,
/// stored, exactly as the driver does.
pub fn module(
    t: &mut Tracer,
    input: &Module,
    profile: Option<&Profile>,
    options: &OptimizerOptions,
    cache: Option<&AnalysisCache>,
    counts: &mut Counts,
) -> Module {
    let mut module = input.clone();
    let options_fp = cache::options_fingerprint(options);
    let mut scratch = Scratch::default();
    for (id, func) in module.functions_mut() {
        let key = cache.map(|c| {
            let text = t.span("ir.canon", |_| abcd_ir::canonicalize(func).to_string());
            let key = t.span("cache.key", |_| {
                cache::cache_key(
                    &text,
                    options_fp,
                    cache::facts_fingerprint(&[]),
                    cache::profile_fingerprint(profile, id, options.hot_threshold),
                )
            });
            (c, key)
        });
        if let Some((c, key)) = key {
            if let Lookup::Hit(entry) = t.span("cache.lookup", |_| c.lookup(key)) {
                let parsed = t.span("ir.parse", |_| {
                    let parsed = abcd_ir::parse_function_text(&entry.ir_text).ok()?;
                    abcd_ir::verify_function(&parsed, None).ok()?;
                    Some(parsed)
                });
                if let Some(parsed) = parsed {
                    *func = parsed;
                    continue;
                }
            }
        }
        let summary = function(t, func, id, profile, options, &mut scratch, counts);
        if let Some((c, key)) = key {
            t.span("cache.insert", |_| {
                c.insert(
                    key,
                    CacheEntry {
                        ir_text: func.to_string(),
                        checks_total: summary.checks_total,
                        outcomes: Vec::new(),
                        steps: summary.steps,
                        pre_steps: summary.pre_steps,
                        spec_checks_inserted: summary.spec_inserted,
                        checks_merged: 0,
                        checks_validated: 0,
                    },
                )
            });
        }
    }
    module
}

struct Summary {
    checks_total: usize,
    steps: u64,
    pre_steps: u64,
    spec_inserted: usize,
}

type Check = (Block, InstId, abcd_ir::CheckSite, Value, Value, CheckKind);

/// Figure 2's stages for one function, in the driver's order.
fn function(
    t: &mut Tracer,
    func: &mut Function,
    func_id: FuncId,
    profile: Option<&Profile>,
    options: &OptimizerOptions,
    scratch: &mut Scratch,
    counts: &mut Counts,
) -> Summary {
    t.span("ssa.mem2reg", |_| {
        abcd_ssa::split_critical_edges(func);
        abcd_ssa::promote_locals(func).expect("frontend output is definitely assigned");
    });
    let gvn = t.span("analysis.cleanup", |_| {
        let (_, mut gvn) = abcd_analysis::cleanup(func);
        abcd_analysis::record_load_congruence(func, &mut gvn);
        gvn
    });
    let pi = t.span("ssa.essa", |_| abcd_ssa::insert_pi_nodes(func));
    counts.pis += (pi.branch_pis + pi.check_pis) as u64;
    let (upper, lower, dt) = t.span("graph.build", |_| {
        (
            InequalityGraph::build(func, Problem::Upper, None),
            InequalityGraph::build(func, Problem::Lower, None),
            DomTree::compute(func),
        )
    });
    let upper_backend = options.prover.resolve(&upper);
    let lower_backend = options.prover.resolve(&lower);

    let mut checks: Vec<Check> = Vec::new();
    for b in func.blocks() {
        for &id in func.block(b).insts() {
            if let InstKind::BoundsCheck {
                site,
                array,
                index,
                kind,
            } = func.inst(id).kind
            {
                checks.push((b, id, site, array, index, kind));
            }
        }
    }
    let checks_total = checks.len();
    if let Some(p) = profile {
        checks.sort_by_key(|c| std::cmp::Reverse(p.site_count(func_id, c.2)));
    }

    let freq = profile.map(|p| move |b: Block| p.block_count(func_id, b));
    let freq: Option<&dyn Fn(Block) -> u64> = freq.as_ref().map(|f| f as &dyn Fn(Block) -> u64);
    let (to_remove, pre_jobs, steps, pre_steps) = t.span("solver.prove", |t| {
        let Scratch { arena, pre } = scratch;
        // Ordered containers, so the provers retire (and the next
        // function's provers adopt their tables) in the same order on
        // every run.
        let mut uppers: BTreeMap<Value, AnyProver> = BTreeMap::new();
        let mut lower_prover =
            AnyProver::with_arena(&lower, Vertex::Const(0), lower_backend, arena);
        let mut pres: Vec<((Problem, Vertex), PreProver)> = Vec::new();
        let mut to_remove = Vec::new();
        let mut pre_jobs: Vec<(Block, InstId, Vec<InsertionPoint>, Problem)> = Vec::new();
        let mut local_graphs: HashMap<(Block, Problem), InequalityGraph> = HashMap::new();
        for (block, inst, site, array, index, kind) in checks {
            let mut overflowed = false;
            let mut prove_upper = |array: Value,
                                   arena: &mut ScratchArena,
                                   counts: &mut Counts,
                                   overflowed: &mut bool| {
                let p = uppers.entry(array).or_insert_with(|| {
                    AnyProver::with_arena(&upper, Vertex::ArrayLen(array), upper_backend, arena)
                });
                let ok = p.demand_prove(Vertex::Value(index), -1);
                *overflowed |= p.last_query_overflowed();
                counts.queries += 1;
                counts.proven += u64::from(ok);
                ok
            };
            let mut prove_lower = |counts: &mut Counts, overflowed: &mut bool| {
                let ok = lower_prover.demand_prove(Vertex::Value(index), 0);
                *overflowed |= lower_prover.last_query_overflowed();
                counts.queries += 1;
                counts.proven += u64::from(ok);
                ok
            };
            let mut proven = match kind {
                CheckKind::Upper => prove_upper(array, arena, counts, &mut overflowed),
                CheckKind::Lower => prove_lower(counts, &mut overflowed),
                CheckKind::Both => {
                    prove_upper(array, arena, counts, &mut overflowed)
                        && prove_lower(counts, &mut overflowed)
                }
            };
            if !proven && options.gvn_hook && kind == CheckKind::Upper {
                for other in abcd_analysis::congruent_arrays(func, &gvn, &dt, array, block) {
                    if prove_upper(other, arena, counts, &mut overflowed) {
                        proven = true;
                        break;
                    }
                }
            }
            let (problem, source, c, graph) = match kind {
                CheckKind::Upper | CheckKind::Both => {
                    (Problem::Upper, Vertex::ArrayLen(array), -1, &upper)
                }
                CheckKind::Lower => (Problem::Lower, Vertex::Const(0), 0, &lower),
            };
            if proven {
                to_remove.push((block, inst));
                if options.classify_local {
                    // The Figure 6 local/global split: re-prove against the
                    // check's own block only.
                    let g = local_graphs
                        .entry((block, problem))
                        .or_insert_with(|| InequalityGraph::build(func, problem, Some(block)));
                    let mut p = AnyProver::with_arena(g, source, ProverBackend::Demand, arena);
                    p.demand_prove(Vertex::Value(index), c);
                    p.reclaim(arena);
                }
            } else if !overflowed && options.pre && kind != CheckKind::Both {
                let points = t.span("pre.prove", |_| {
                    let at = match pres.iter().position(|(k, _)| *k == (problem, source)) {
                        Some(at) => at,
                        None => {
                            let tables = pre.pop().unwrap_or_default();
                            let p = PreProver::with_scratch(graph, source, freq, tables);
                            pres.push(((problem, source), p));
                            pres.len() - 1
                        }
                    };
                    let prover = &mut pres[at].1;
                    match prover.demand_prove(Vertex::Value(index), c) {
                        PreOutcome::ProvenWithInsertions(points) => {
                            let profitable = match profile {
                                Some(p) => {
                                    let cost: u64 = points
                                        .iter()
                                        .map(|pt| p.block_count(func_id, pt.pred))
                                        .sum();
                                    cost < p.site_count(func_id, site)
                                }
                                None => points.len() <= 1,
                            };
                            profitable.then_some(points)
                        }
                        PreOutcome::Proven | PreOutcome::Failed => None,
                    }
                });
                if let Some(points) = points {
                    pre_jobs.push((block, inst, points, problem));
                }
            }
        }
        let steps = lower_prover.steps() + uppers.values().map(AnyProver::steps).sum::<u64>();
        let pre_steps: u64 = pres.iter().map(|(_, p)| p.steps).sum();
        // Retire the provers into the scratch, as the driver does, so the
        // next function's provers start warm.
        for (_, p) in uppers {
            p.reclaim(arena);
        }
        lower_prover.reclaim(arena);
        pre.extend(pres.into_iter().map(|(_, p)| p.into_scratch()));
        (to_remove, pre_jobs, steps, pre_steps)
    });

    for (b, id) in to_remove {
        func.remove_inst(b, id);
    }
    let spec_inserted = t.span("pre.apply", |_| {
        pre_jobs
            .iter()
            .map(|(b, id, points, problem)| apply_insertions(func, *b, *id, points, *problem))
            .sum()
    });
    *func = t.span("ir.canon", |_| abcd_ir::canonicalize(func));
    Summary {
        checks_total,
        steps,
        pre_steps,
        spec_inserted,
    }
}
