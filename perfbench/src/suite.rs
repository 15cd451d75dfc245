//! `suite`: the 15 §8 kernels under the JIT protocol.
//!
//! Set-up makes the unoptimized training run of every kernel, which yields
//! its profile and its reference result. Each timed pass then, for every
//! kernel on one thread, compiles it, runs `optimize_module` with the
//! profile, prints the module and runs the optimized `main()` in the VM.
//!
//! Why: these are the paper's own programs, and they are small, so
//! per-module fixed cost and the VM dominate a pass. A prover speedup
//! barely shows here; a VM or per-module-overhead change does.

use crate::trace::Tracer;
use crate::{
    compile, replay, thread_cpu_ns, timed_setups, Budget, Config, EndToEnd, HostSpeed, Layers,
    Report, StatsPair, MIN_PASSES,
};
use abcd::{ModuleReport, Optimizer, OptimizerOptions};
use abcd_vm::{ExecStats, Profile, RtVal, Vm};
use std::time::Duration;

/// One kernel after its training run.
struct Kernel {
    name: &'static str,
    source: &'static str,
    profile: Profile,
    ret: Option<RtVal>,
    output: Vec<i64>,
    baseline: ExecStats,
}

fn train() -> Result<Vec<Kernel>, String> {
    abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|b| {
            let mut module =
                abcd_frontend::compile(b.source).map_err(|e| format!("{}: {e}", b.name))?;
            Optimizer::with_options(crate::baseline_options()).optimize_module(&mut module, None);
            let mut vm = Vm::new(&module);
            let ret = vm
                .call_by_name("main", &[])
                .map_err(|t| format!("{}: training run trapped: {t}", b.name))?;
            Ok(Kernel {
                name: b.name,
                source: b.source,
                ret,
                output: vm.output().to_vec(),
                baseline: *vm.stats(),
                profile: vm.into_profile(),
            })
        })
        .collect()
}

/// What one pass over the kernels produced.
#[derive(Default)]
struct Pass {
    opt_ns: Vec<u64>,
    req_ns: Vec<u64>,
    run_ns: u64,
    e2e_ns: u64,
    texts: Vec<String>,
    stats: Vec<StatsPair>,
    reports: Vec<ModuleReport>,
}

/// Runs every kernel once. Traced, it also replays each optimization and
/// fills `layers` with this pass's counters.
fn pass(
    t: &mut Tracer,
    kernels: &[Kernel],
    reference: Option<&[String]>,
    report: &mut Report,
    mut layers: Option<&mut Layers>,
) -> Pass {
    let mut out = Pass::default();
    for (i, k) in kernels.iter().enumerate() {
        report.attempted += 1;
        t.set_request(report.attempted);
        let started = thread_cpu_ns();
        let result = t.span("request", |t| {
            let mut module = compile(t, k.source)?;
            let opt_report = t.span("driver.optimize", |_| {
                Optimizer::new().optimize_module(&mut module, Some(&k.profile))
            });
            let text = t.span("ir.print", |_| module.to_string());
            let opt_ns = thread_cpu_ns() - started;
            let run_started = thread_cpu_ns();
            let (ret, stats, output) = t.span("vm.run", |_| {
                let mut vm = Vm::new(&module);
                let ret = vm.call_by_name("main", &[]);
                (ret, *vm.stats(), vm.output().to_vec())
            });
            let run_ns = thread_cpu_ns() - run_started;
            let ok = match ret {
                Err(trap) => Err(format!("optimized run trapped: {trap}")),
                Ok(r) if r != k.ret || output != k.output => {
                    Err("optimized result differs from the training run".to_string())
                }
                Ok(_) if reference.is_some_and(|r| r[i] != text) => {
                    Err("optimized IR differs from the first pass".to_string())
                }
                Ok(_) => Ok(()),
            };
            Ok::<_, String>((module, opt_report, text, stats, opt_ns, run_ns, ok))
        });
        let req_ns = thread_cpu_ns() - started;
        let (module, opt_report, text, stats, opt_ns, run_ns, ok) = match result {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("{}: {e}", k.name));
                continue;
            }
        };
        if let Err(e) = ok {
            report.fail(format!("{}: {e}", k.name));
        }
        out.opt_ns.push(opt_ns);
        out.req_ns.push(req_ns);
        out.run_ns += run_ns;
        out.e2e_ns += req_ns;
        if t.enabled() {
            replay_kernel(
                t,
                k,
                &module,
                &opt_report,
                &text,
                stats,
                layers.as_deref_mut(),
            );
        }
        out.stats.push((k.baseline, stats));
        out.reports.push(opt_report);
        out.texts.push(text);
    }
    out
}

fn replay_kernel(
    t: &mut Tracer,
    k: &Kernel,
    optimized: &abcd_ir::Module,
    opt_report: &ModuleReport,
    text: &str,
    stats: ExecStats,
    layers: Option<&mut Layers>,
) {
    let input = abcd_frontend::compile(k.source).expect("the kernel compiled a moment ago");
    let mut counts = replay::Counts::default();
    let replayed = t.span("replay", |t| {
        replay::module(
            t,
            &input,
            Some(&k.profile),
            &OptimizerOptions::default(),
            None,
            &mut counts,
        )
    });
    if let Some(l) = layers {
        l.add_replay(&input, optimized, &replayed, text, &counts);
        l.add_driver(opt_report);
        l.add_vm(&stats);
    }
}

/// Runs the workload.
pub fn run(config: &Config) -> Result<Report, String> {
    let (kernels, setup_s) = timed_setups(config, train)?;
    let mut report = Report::default();
    if config.trace {
        crate::traced(config, &mut report, |t, r, layers| {
            pass(t, &kernels, None, r, layers).e2e_ns
        });
        return Ok(report);
    }
    let mut off = Tracer::new(false);
    let mut e2e = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let mut first: Option<Pass> = None;
    let mut speed = HostSpeed::default();
    let mut budget = Budget::new(config.seconds, MIN_PASSES);
    while budget.next_pass() {
        let reference = first.as_ref().map(|p| p.texts.as_slice());
        let p = pass(&mut off, &kernels, reference, &mut report, None);
        e2e.opt_functions += p
            .reports
            .iter()
            .map(|r| r.functions.len() as u64)
            .sum::<u64>();
        e2e.add_pass(&mut speed, &p.opt_ns, p.run_ns, &p.req_ns);
        if first.is_none() {
            first = Some(p);
        }
    }
    report
        .notes
        .push(format!("host_speed={:.3}", speed.median()));
    e2e.req_wall = Duration::from_nanos(e2e.req_ns.iter().sum());
    let first = first.expect("at least one pass ran");
    report.output_digest = crate::digest(&first.texts);
    e2e.stats = first.stats;
    e2e.static_removed_pct = crate::static_removed_pct(&first.reports.iter().collect::<Vec<_>>());
    e2e.report(&mut report);
    Ok(report)
}
