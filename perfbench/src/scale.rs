//! `scale`: one seeded, generated module of about 2,000 functions.
//!
//! Each iteration compiles the module, optimizes it whole with a fresh
//! in-memory `AnalysisCache` (so every function misses and is stored) and
//! prints it. A seeded, shape-stratified sample of its functions then runs
//! in the VM.
//!
//! Why: the front end through PRE, plus cache writes, do the work here;
//! the VM sample is small. The output must be byte-identical across
//! iterations and the sample must return what the unoptimized module
//! returns.

use crate::gen::{self, Args};
use crate::trace::Tracer;
use crate::{
    compile, replay, thread_cpu_ns, timed_setups, Budget, Config, EndToEnd, HostSpeed, Layers,
    Report, StatsPair, MIN_PASSES, SCALE_FUNCTIONS,
};
use abcd::cache::DEFAULT_CACHE_BYTES;
use abcd::{AnalysisCache, ModuleReport, Optimizer, OptimizerOptions};
use abcd_ir::Module;
use abcd_vm::{ExecStats, RtVal, Vm};
use std::sync::Arc;
use std::time::Duration;

/// Sampled functions of each shape.
const SAMPLE_PER_SHAPE: usize = 64;

struct State {
    source: String,
    functions: usize,
    args: Args,
    /// Sampled function names with their unoptimized result and stats.
    truth: Vec<(String, Option<RtVal>, ExecStats)>,
    /// The optimized module text every iteration must reproduce.
    reference: String,
}

/// Calls `name` with `args` in a fresh VM.
fn call(module: &Module, name: &str, args: &Args) -> Result<(Option<RtVal>, ExecStats), String> {
    let mut vm = Vm::new(module);
    let argv = args.alloc(&mut vm);
    let ret = vm
        .call_by_name(name, &argv)
        .map_err(|t| format!("{name} trapped: {t}"))?;
    Ok((ret, *vm.stats()))
}

fn optimize(module: &mut Module, cache: Arc<AnalysisCache>) -> ModuleReport {
    Optimizer::new()
        .with_cache(cache)
        .optimize_module(module, None)
}

fn setup(config: &Config) -> Result<State, String> {
    let generated = gen::module(config.seed, SCALE_FUNCTIONS);
    let args = Args::new(config.seed);
    let mut baseline = abcd_frontend::compile(&generated.source).map_err(|e| e.to_string())?;
    abcd::Optimizer::with_options(crate::baseline_options()).optimize_module(&mut baseline, None);
    let truth = gen::sample(config.seed, &generated.shapes, SAMPLE_PER_SHAPE)
        .into_iter()
        .map(|k| {
            let name = format!("f{k}");
            let (ret, stats) = call(&baseline, &name, &args)?;
            Ok((name, ret, stats))
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Warm-up: the first optimization fixes the reference output.
    let mut module = abcd_frontend::compile(&generated.source).map_err(|e| e.to_string())?;
    optimize(
        &mut module,
        Arc::new(AnalysisCache::in_memory(DEFAULT_CACHE_BYTES)),
    );
    Ok(State {
        functions: generated.shapes.len(),
        source: generated.source,
        args,
        truth,
        reference: module.to_string(),
    })
}

/// What one iteration produced.
struct Iteration {
    opt_ns: u64,
    run_ns: u64,
    req_ns: u64,
    stats: Vec<StatsPair>,
    report: ModuleReport,
    text: String,
}

fn iteration(
    t: &mut Tracer,
    state: &State,
    report: &mut Report,
    layers: Option<&mut Layers>,
) -> Option<Iteration> {
    report.attempted += 1;
    t.set_request(report.attempted);
    let started = thread_cpu_ns();
    let cache = Arc::new(AnalysisCache::in_memory(DEFAULT_CACHE_BYTES));
    let result = t.span("request", |t| {
        let mut module = compile(t, &state.source)?;
        let opt_report = t.span("driver.optimize", |_| {
            optimize(&mut module, Arc::clone(&cache))
        });
        let text = t.span("ir.print", |_| module.to_string());
        let opt_ns = thread_cpu_ns() - started;
        if text != state.reference {
            return Err("optimized IR differs from the first iteration".to_string());
        }
        let run_started = thread_cpu_ns();
        let mut stats = Vec::with_capacity(state.truth.len());
        for (name, ret, base) in &state.truth {
            let (got, opt) = t.span("vm.run", |_| call(&module, name, &state.args))?;
            if got != *ret {
                return Err(format!(
                    "{name}: optimized result differs from the unoptimized one"
                ));
            }
            stats.push((*base, opt));
        }
        let run_ns = thread_cpu_ns() - run_started;
        Ok((module, opt_report, text, stats, opt_ns, run_ns))
    });
    let req_ns = thread_cpu_ns() - started;
    let (module, opt_report, text, stats, opt_ns, run_ns) = match result {
        Ok(r) => r,
        Err(e) => {
            report.fail(e);
            return None;
        }
    };
    if t.enabled() {
        let input =
            abcd_frontend::compile(&state.source).expect("the module compiled a moment ago");
        let replay_cache = AnalysisCache::in_memory(DEFAULT_CACHE_BYTES);
        let mut counts = replay::Counts::default();
        let replayed = t.span("replay", |t| {
            replay::module(
                t,
                &input,
                None,
                &OptimizerOptions::default(),
                Some(&replay_cache),
                &mut counts,
            )
        });
        if let Some(l) = layers {
            l.add_replay(&input, &module, &replayed, &text, &counts);
            l.add_driver(&opt_report);
            l.cache = cache.stats();
            for (_, opt) in &stats {
                l.add_vm(opt);
            }
        }
    }
    Some(Iteration {
        opt_ns,
        run_ns,
        req_ns,
        stats,
        report: opt_report,
        text,
    })
}

/// Runs the workload.
pub fn run(config: &Config) -> Result<Report, String> {
    let (state, setup_s) = timed_setups(config, || setup(config))?;
    let mut report = Report::default();
    if config.trace {
        crate::traced(config, &mut report, |t, r, layers| {
            iteration(t, &state, r, layers).map_or(0, |i| i.req_ns)
        });
        return Ok(report);
    }
    let mut off = Tracer::new(false);
    let mut e2e = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let mut first: Option<Iteration> = None;
    let mut speed = HostSpeed::default();
    let mut budget = Budget::new(config.seconds, MIN_PASSES);
    while budget.next_pass() {
        let Some(it) = iteration(&mut off, &state, &mut report, None) else {
            continue;
        };
        e2e.opt_functions += state.functions as u64;
        e2e.add_pass(&mut speed, &[it.opt_ns], it.run_ns, &[it.req_ns]);
        if first.is_none() {
            first = Some(it);
        }
    }
    report
        .notes
        .push(format!("host_speed={:.3}", speed.median()));
    e2e.req_wall = Duration::from_nanos(e2e.req_ns.iter().sum());
    let first = first.ok_or("every iteration failed")?;
    report.output_digest = crate::digest(std::slice::from_ref(&first.text));
    e2e.stats = first.stats;
    e2e.static_removed_pct = crate::static_removed_pct(&[&first.report]);
    e2e.report(&mut report);
    Ok(report)
}
