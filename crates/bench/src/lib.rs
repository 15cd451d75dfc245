//! Experiment harness reproducing every table and figure of the ABCD
//! paper's §8 (see `EXPERIMENTS.md` at the repository root for the index).
//!
//! The measurement protocol mirrors the paper's dynamic-compilation story:
//!
//! 1. compile a benchmark and run it once unoptimized — this *training run*
//!    yields the edge/site [`Profile`] a JIT would have collected;
//! 2. optimize with that profile (demand-driven hot-check ordering, PRE
//!    profitability);
//! 3. run the optimized module on the identical (deterministic) input and
//!    compare dynamic check counts and model cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;

use abcd::{
    CheckOutcome, ConstraintLog, DemandProver, InequalityGraph, ModuleReport, Optimizer,
    OptimizerOptions, Problem, Scope, Stage, Vertex,
};
use abcd_benchsuite::{Benchmark, Group};
use abcd_ir::{CheckKind, CheckSite, FuncId, Module};
use abcd_vm::{ExecStats, Profile, Vm};

/// Everything measured for one benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Benchmark group.
    pub group: Group,
    /// Dynamic stats of the unoptimized run.
    pub baseline: ExecStats,
    /// Dynamic stats of the optimized run.
    pub optimized: ExecStats,
    /// Static optimization report.
    pub report: ModuleReport,
    /// The training run's profile the module was optimized with.
    pub profile: Profile,
    /// Static size of the optimized module: its instructions, one
    /// terminator per block included.
    pub optimized_size: usize,
}

impl BenchResult {
    /// Fraction of dynamic upper-bound checks removed (Figure 6's y-axis).
    pub fn upper_removed_fraction(&self) -> f64 {
        let before = self.baseline.dynamic_upper_checks();
        if before == 0 {
            return 0.0;
        }
        let after = self.optimized.dynamic_upper_checks();
        1.0 - after as f64 / before as f64
    }

    /// Fraction of dynamic lower-bound checks removed (§7.2 dual).
    pub fn lower_removed_fraction(&self) -> f64 {
        let before = self.baseline.dynamic_lower_checks();
        if before == 0 {
            return 0.0;
        }
        1.0 - self.optimized.dynamic_lower_checks() as f64 / before as f64
    }

    /// Model-cycle speedup of the optimized run (e.g. `1.10` = 10% faster).
    pub fn speedup(&self) -> f64 {
        self.baseline.cycles as f64 / self.optimized.cycles.max(1) as f64
    }

    /// Static checks before optimization.
    pub fn static_total(&self) -> usize {
        self.report.checks_total()
    }

    /// Static fully-redundant fraction (§8 reports ≈31% on average).
    pub fn static_fully_fraction(&self) -> f64 {
        let t = self.static_total();
        if t == 0 {
            return 0.0;
        }
        self.report.checks_removed_fully() as f64 / t as f64
    }

    /// Static partially-redundant fraction (§8: 26% for bytemark).
    pub fn static_partial_fraction(&self) -> f64 {
        let t = self.static_total();
        if t == 0 {
            return 0.0;
        }
        self.report.checks_hoisted() as f64 / t as f64
    }
}

/// Runs the full protocol on one benchmark.
///
/// # Panics
///
/// Panics if the benchmark fails to compile or traps — the suite is
/// deterministic and trap-free by construction, so a panic here indicates
/// an optimizer bug.
pub fn evaluate(bench: &Benchmark, options: OptimizerOptions) -> BenchResult {
    // 1. Training run. The baseline has the host compiler's *basic*
    //    optimizations applied but every check intact — the paper's
    //    Jalapeño configuration ("copy propagation, … constant folding,
    //    … local common subexpression elimination …" with ABCD off) — so
    //    speedups measure check removal, not unrelated cleanup.
    let mut baseline_module = bench.compile().expect("benchmark compiles");
    Optimizer::with_options(baseline_options(options)).optimize_module(&mut baseline_module, None);
    let mut vm = Vm::new(&baseline_module);
    vm.call_by_name("main", &[]).expect("baseline run");
    let baseline = *vm.stats();
    let profile: Profile = vm.into_profile();

    // 2. Optimize with the profile.
    let mut optimized_module = bench.compile().expect("benchmark compiles");
    let report =
        Optimizer::with_options(options).optimize_module(&mut optimized_module, Some(&profile));

    // 3. Measured run.
    let mut vm = Vm::new(&optimized_module);
    vm.call_by_name("main", &[]).expect("optimized run");
    let optimized = *vm.stats();

    BenchResult {
        name: bench.name,
        group: bench.group,
        baseline,
        optimized,
        report,
        profile,
        optimized_size: static_size(&optimized_module),
    }
}

/// [`BenchResult::optimized_size`] of `module`.
fn static_size(module: &Module) -> usize {
    module
        .functions()
        .flat_map(|(_, f)| f.blocks().map(move |b| f.block(b).insts().len() + 1))
        .sum()
}

/// The baseline configuration of `options`: the host compiler's basic
/// optimizations with every check kept (ABCD, PRE and check merging off).
pub fn baseline_options(options: OptimizerOptions) -> OptimizerOptions {
    OptimizerOptions {
        upper: false,
        lower: false,
        pre: false,
        merge_checks: false,
        ..options
    }
}

/// The upper checks `report` removed fully from `module` (as compiled,
/// before optimization under `options`) that Figure 6 counts as *local*:
/// provable from the facts of their own basic block alone.
///
/// Each removal is re-proven on the upper graph of its block's
/// constraints, filled from the constraint log of the driver's own e-SSA
/// form ([`Optimizer::run_to`] up to [`Stage::InsertPi`]). The optimizer
/// does not compute this split; only the Figure 6 experiment reports it.
///
/// # Panics
///
/// Panics if the pipeline up to π insertion degrades on `module`.
pub fn local_upper_removals(
    module: &Module,
    options: OptimizerOptions,
    report: &ModuleReport,
) -> Vec<(FuncId, CheckSite)> {
    let mut essa = module.clone();
    Optimizer::with_options(options)
        .run_to(&mut essa, Stage::InsertPi)
        .expect("e-SSA construction succeeds");
    let mut log = ConstraintLog::default();
    let mut graph = InequalityGraph::default();
    let mut local = Vec::new();
    for ((fid, func), freport) in essa.functions().zip(&report.functions) {
        log.record(func);
        for check in log.checks() {
            let removed = freport.outcomes.iter().any(|&(site, kind, outcome)| {
                site == check.site
                    && kind == CheckKind::Upper
                    && matches!(outcome, CheckOutcome::RemovedFully { .. })
            });
            if !removed {
                continue;
            }
            graph.fill(&log, Problem::Upper, Scope::Block(check.block));
            let (source, c) = Problem::Upper.check_query(check.array);
            if DemandProver::new(&graph, source).demand_prove(Vertex::Value(check.index), c) {
                local.push((fid, check.site));
            }
        }
    }
    local
}

/// Figure 6's split of the dynamic upper checks `result` removed from
/// `bench` under `options`, weighted by the training profile: `(local,
/// global)`. Local removals are those of [`local_upper_removals`]; every
/// other full removal and every hoisted check is global.
pub fn local_global_split(
    bench: &Benchmark,
    options: OptimizerOptions,
    result: &BenchResult,
) -> (u64, u64) {
    let module = bench.compile().expect("benchmark compiles");
    let local = local_upper_removals(&module, options, &result.report);
    let (mut local_count, mut global_count) = (0u64, 0u64);
    for (i, freport) in result.report.functions.iter().enumerate() {
        let fid = FuncId::new(i);
        for &(site, kind, outcome) in &freport.outcomes {
            if kind != CheckKind::Upper {
                continue;
            }
            let count = result.profile.site_count(fid, site);
            match outcome {
                CheckOutcome::RemovedFully { .. } if local.contains(&(fid, site)) => {
                    local_count += count
                }
                CheckOutcome::RemovedFully { .. } | CheckOutcome::Hoisted { .. } => {
                    global_count += count
                }
                _ => {}
            }
        }
    }
    (local_count, global_count)
}

/// Evaluates the whole suite with the given options.
pub fn evaluate_all(options: OptimizerOptions) -> Vec<BenchResult> {
    abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|b| evaluate(b, options))
        .collect()
}

/// Number of kernel functions in the [`stress_module`] used for the
/// wall-clock speedup measurement.
pub const STRESS_FUNCTIONS: usize = 24;

/// A synthetic module of [`STRESS_FUNCTIONS`] analysis-heavy kernels.
///
/// The benchsuite modules are too small for a parallel-vs-sequential
/// wall-clock comparison: optimizing a whole program takes well under a
/// millisecond in release mode, so worker startup dominates. This module
/// gives the pool enough per-function work to amortize it.
pub fn stress_module() -> abcd_ir::Module {
    use std::fmt::Write as _;
    let mut src = String::new();
    for i in 0..STRESS_FUNCTIONS {
        let _ = write!(
            src,
            "fn k{i}(a: int[], b: int[]) -> int {{
                let s: int = 0;
                for (let i: int = 0; i < a.length; i = i + 1) {{
                    for (let j: int = 0; j < b.length; j = j + 1) {{
                        if (i + j < a.length) {{ s = s + a[i + j] - b[j]; }}
                        if (j <= i) {{ s = s + b[i - j]; }}
                    }}
                    let k: int = a.length - 1;
                    while (k >= i) {{
                        s = s + a[k] - a[i];
                        k = k - 1;
                    }}
                }}
                return s;
            }}
            "
        );
    }
    src.push_str("fn main() -> int { return 0; }\n");
    abcd_frontend::compile(&src).expect("stress module compiles")
}

/// Measures the optimize phase of `benches` at one worker and at
/// `threads` workers and renders the comparison — plus each benchmark's
/// `abcd-metrics/8` object from the parallel run — as one JSON document
/// (schema `abcd-bench-metrics/4`).
///
/// Version 3 adds a `"cache"` object comparing a cold run against a warm
/// rerun through one shared [`abcd::AnalysisCache`]: the warm wall, the
/// hit/miss/store counters, and `warm_speedup`. The warm rerun reuses the
/// cold run's cache, so every function should replay (`hits > 0`,
/// `warm_misses == 0` on a healthy run).
///
/// The document leads with the suite-wide fail-open counters (`incidents`,
/// `degraded_incidents`, `checks_validated`, `checks_reinstated`) so a
/// metrics trajectory records healthy zero-incident runs explicitly rather
/// than by omission.
///
/// The headline `speedup` is measured on [`stress_module`] (best of three
/// runs per configuration); the tiny real-suite walls are reported
/// alongside as `suite_*`. Training runs are shared between the two
/// configurations so the timed region is exactly
/// `Optimizer::optimize_module`.
pub fn metrics_json_for(
    benches: &[Benchmark],
    options: OptimizerOptions,
    threads: usize,
) -> String {
    use std::fmt::Write as _;
    use std::time::{Duration, Instant};

    let threads = threads.max(2);

    let stress_wall = |workers: usize| -> Duration {
        (0..3)
            .map(|_| {
                let mut module = stress_module();
                let started = Instant::now();
                Optimizer::with_options(options)
                    .with_threads(workers)
                    .optimize_module(&mut module, None);
                started.elapsed()
            })
            .min()
            .unwrap()
    };
    let stress_seq = stress_wall(1);
    let stress_par = stress_wall(threads);
    let trained: Vec<(&Benchmark, Profile)> = benches
        .iter()
        .map(|b| {
            let m = b.compile().expect("benchmark compiles");
            let mut vm = Vm::new(&m);
            vm.call_by_name("main", &[]).expect("training run");
            (b, vm.into_profile())
        })
        .collect();

    let optimize_suite = |workers: usize| -> (Duration, Vec<(Duration, ModuleReport)>) {
        let mut total = Duration::ZERO;
        let mut per_bench = Vec::with_capacity(trained.len());
        for (bench, profile) in &trained {
            let mut module = bench.compile().expect("benchmark compiles");
            let started = Instant::now();
            let report = Optimizer::with_options(options)
                .with_threads(workers)
                .optimize_module(&mut module, Some(profile));
            let wall = started.elapsed();
            total += wall;
            per_bench.push((wall, report));
        }
        (total, per_bench)
    };

    let (suite_seq, _) = optimize_suite(1);
    let (suite_par, par_reports) = optimize_suite(threads);

    let seq_us = stress_seq.as_micros();
    let par_us = stress_par.as_micros();
    let speedup = seq_us as f64 / (par_us.max(1)) as f64;
    let suite_seq_us = suite_seq.as_micros();
    let suite_par_us = suite_par.as_micros();
    let suite_speedup = suite_seq_us as f64 / (suite_par_us.max(1)) as f64;

    // With fewer host CPUs than workers a speedup below 1.0 is expected
    // (the pool can only tie on one core); record the host parallelism so
    // the walls are interpretable.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Warm-vs-cold: run the suite twice through one shared cache. The
    // first pass misses and stores; the second should replay every
    // function from the cache (incremental-recompilation scenario).
    let cache = std::sync::Arc::new(abcd::AnalysisCache::in_memory(
        abcd::cache::DEFAULT_CACHE_BYTES,
    ));
    let cached_suite = || -> (Duration, usize) {
        let mut total = Duration::ZERO;
        let mut from_cache = 0;
        for (bench, profile) in &trained {
            let mut module = bench.compile().expect("benchmark compiles");
            let started = Instant::now();
            let report = Optimizer::with_options(options)
                .with_cache(std::sync::Arc::clone(&cache))
                .optimize_module(&mut module, Some(profile));
            total += started.elapsed();
            from_cache += report.functions_from_cache();
        }
        (total, from_cache)
    };
    let (cold_wall, _) = cached_suite();
    let cold_stats = cache.stats();
    let (warm_wall, warm_from_cache) = cached_suite();
    let warm_stats = cache.stats();
    let cold_us = cold_wall.as_micros();
    let warm_us = warm_wall.as_micros();
    let warm_speedup = cold_us as f64 / (warm_us.max(1)) as f64;

    let incidents: usize = par_reports.iter().map(|(_, r)| r.incident_count()).sum();
    let degraded: usize = par_reports
        .iter()
        .map(|(_, r)| r.degraded_incident_count())
        .sum();
    let validated: usize = par_reports.iter().map(|(_, r)| r.checks_validated()).sum();
    let reinstated: usize = par_reports.iter().map(|(_, r)| r.checks_reinstated()).sum();

    let mut out = String::from("{\"schema\":\"abcd-bench-metrics/4\"");
    let _ = write!(
        out,
        ",\"incidents\":{incidents},\"degraded_incidents\":{degraded},\
         \"checks_validated\":{validated},\"checks_reinstated\":{reinstated}"
    );
    let _ = write!(
        out,
        ",\"parallel\":{{\"threads\":{threads},\"host_cpus\":{host_cpus},\
         \"stress_functions\":{STRESS_FUNCTIONS},\
         \"sequential_wall_us\":{seq_us},\"parallel_wall_us\":{par_us},\
         \"speedup\":\"{speedup:.4}\",\
         \"suite_sequential_wall_us\":{suite_seq_us},\
         \"suite_parallel_wall_us\":{suite_par_us},\
         \"suite_speedup\":\"{suite_speedup:.4}\"}}"
    );
    let _ = write!(
        out,
        ",\"cache\":{{\"cold_wall_us\":{cold_us},\"warm_wall_us\":{warm_us},\
         \"warm_speedup\":\"{warm_speedup:.4}\",\
         \"cold_misses\":{},\"stores\":{},\"warm_hits\":{},\"warm_misses\":{},\
         \"functions_from_cache\":{warm_from_cache}}}",
        cold_stats.misses,
        cold_stats.stores,
        warm_stats.hits - cold_stats.hits,
        warm_stats.misses - cold_stats.misses,
    );
    out.push_str(",\"benchmarks\":[");
    for (i, ((bench, _), (wall, report))) in trained.iter().zip(&par_reports).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let metrics = abcd::module_metrics_json(report, abcd::RunInfo::new(threads, *wall));
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"metrics\":{metrics}}}",
            abcd::json_escape(bench.name)
        );
    }
    out.push_str("]}");
    out
}

/// [`metrics_json_for`] over the whole benchmark suite.
pub fn suite_metrics_json(options: OptimizerOptions, threads: usize) -> String {
    metrics_json_for(abcd_benchsuite::BENCHMARKS, options, threads)
}

/// Prints the fail-open summary line the experiment binaries append to
/// their tables: total incidents (zero on a healthy run — printed anyway so
/// logged trajectories record the clean run explicitly) and the
/// translation-validation counters.
pub fn print_incident_summary(results: &[BenchResult]) {
    let incidents: usize = results.iter().map(|r| r.report.incident_count()).sum();
    let degraded: usize = results
        .iter()
        .map(|r| r.report.degraded_incident_count())
        .sum();
    let validated: usize = results.iter().map(|r| r.report.checks_validated()).sum();
    let reinstated: usize = results.iter().map(|r| r.report.checks_reinstated()).sum();
    println!(
        "incidents: {incidents} ({degraded} degraded); validation: {validated} re-proven, \
         {reinstated} reinstated"
    );
    for r in results {
        for incident in r.report.incidents() {
            println!("  {}: {incident}", r.name);
        }
    }
}

/// Shared CLI tail of the experiment binaries: when `--metrics` or
/// `--metrics-out FILE` was passed, re-optimizes the suite at one worker
/// and at `--jobs N` workers (default and minimum 2) and emits the
/// `abcd-bench-metrics/4` comparison JSON after the table.
pub fn emit_cli_metrics(options: OptimizerOptions) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let to_file = value_of("--metrics-out").cloned();
    let print = args.iter().any(|a| a == "--metrics");
    if !print && to_file.is_none() {
        return;
    }
    let threads = value_of("--jobs").and_then(|v| v.parse().ok()).unwrap_or(2);
    let json = suite_metrics_json(options, threads);
    if let Some(path) = &to_file {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("metrics: {path}: {e}");
        }
    }
    if print {
        println!("{json}");
    }
}

/// Renders a simple ASCII bar of `frac` (0..=1) of width `width`.
pub fn bar(frac: f64, width: usize) -> String {
    let filled = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_produces_consistent_numbers() {
        let b = abcd_benchsuite::by_name("array").unwrap();
        let r = evaluate(b, OptimizerOptions::default());
        assert!(r.baseline.dynamic_upper_checks() > 0);
        assert!(r.upper_removed_fraction() > 0.5, "{r:?}");
        assert!(r.speedup() >= 1.0);
        // Local + global attribution never exceeds the baseline count.
        let (local, global) = local_global_split(b, OptimizerOptions::default(), &r);
        assert!(local + global <= r.baseline.dynamic_upper_checks());
    }

    #[test]
    fn classify_local_does_not_change_the_optimizer() {
        for b in abcd_benchsuite::BENCHMARKS {
            let optimize = |classify_local| {
                let options = OptimizerOptions {
                    classify_local,
                    ..OptimizerOptions::default()
                };
                let mut module = b.compile().unwrap();
                let report = Optimizer::with_options(options).optimize_module(&mut module, None);
                let outcomes: Vec<_> = report.functions.into_iter().map(|f| f.outcomes).collect();
                (module.to_string(), outcomes)
            };
            assert_eq!(optimize(true), optimize(false), "{}", b.name);
        }
    }

    #[test]
    fn local_classification_flags_same_block_proofs() {
        // a[i] then a[i] again: the second access' upper check is provable
        // from the first's π constraints, all within one block.
        let module =
            abcd_frontend::compile("fn f(a: int[], i: int) -> int { return a[i] + a[i]; }")
                .unwrap();
        let mut optimized = module.clone();
        let options = OptimizerOptions::default();
        let report = Optimizer::with_options(options).optimize_module(&mut optimized, None);
        let f = &report.functions[0];
        // The first pair is not removable at all; the second pair is.
        assert_eq!(f.removed_fully(), 2, "{:#?}", f.outcomes);
        let removed_upper: Vec<CheckSite> = f
            .outcomes
            .iter()
            .filter(|(_, k, o)| {
                *k == CheckKind::Upper && matches!(o, CheckOutcome::RemovedFully { .. })
            })
            .map(|&(site, _, _)| site)
            .collect();
        assert_eq!(removed_upper.len(), 1, "{:#?}", f.outcomes);
        assert_eq!(
            local_upper_removals(&module, options, &report),
            [(FuncId::new(0), removed_upper[0])]
        );
    }

    #[test]
    fn metrics_json_compares_sequential_and_parallel_walls() {
        let json = metrics_json_for(
            &abcd_benchsuite::BENCHMARKS[..2],
            OptimizerOptions::default(),
            2,
        );
        assert!(
            json.starts_with("{\"schema\":\"abcd-bench-metrics/4\""),
            "{json}"
        );
        // Zero-incident runs are recorded explicitly, not by omission.
        assert!(
            json.contains("\"incidents\":0,\"degraded_incidents\":0"),
            "{json}"
        );
        assert!(json.contains("\"checks_validated\":"), "{json}");
        assert!(json.contains("\"checks_reinstated\":0"), "{json}");
        assert!(json.contains("\"parallel\":{\"threads\":2"), "{json}");
        assert!(json.contains("\"sequential_wall_us\":"), "{json}");
        assert!(json.contains("\"parallel_wall_us\":"), "{json}");
        assert!(json.contains("\"speedup\":\""), "{json}");
        // Each of the two benchmarks embeds a full abcd-metrics/8 object.
        assert_eq!(
            json.matches("\"metrics\":{\"schema\":\"abcd-metrics/8\"")
                .count(),
            2,
            "{json}"
        );
        // The warm rerun replays every function the cold run stored.
        assert!(json.contains("\"cache\":{\"cold_wall_us\":"), "{json}");
        assert!(json.contains("\"warm_misses\":0"), "{json}");
        assert!(!json.contains("\"functions_from_cache\":0}"), "{json}");
    }

    #[test]
    fn bar_renders_proportionally() {
        assert_eq!(bar(0.0, 4), "....");
        assert_eq!(bar(0.5, 4), "##..");
        assert_eq!(bar(1.0, 4), "####");
        assert_eq!(bar(2.0, 4), "####");
    }
}
