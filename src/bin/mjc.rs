//! `mjc` — the MJ compiler driver of the ABCD reproduction.
//!
//! ```text
//! mjc run <file.mj> [--opt] [--stats] [--arg N]...   compile and execute main()
//! mjc opt <file.mj> [passes…] [--dump]               optimize and report
//! mjc explain <file.mj> <fn> [--check N]             print proof certificates
//! mjc dump <file.mj> [--stage STAGE]                 print the IR after a stage
//! mjc graph <file.mj> [--fn NAME] [--lower]          print the inequality graph
//! mjc serve --socket PATH [server flags]             run the abcdd daemon
//! mjc client <file|ping|stats|metrics|shutdown> --socket P   talk to abcdd
//! ```
//!
//! Inputs ending in `.ir` are parsed as textual IR instead of MJ source.
//! `STAGE` is any name of [`abcd::Stage`], or `ir`, `ssa`, `essa` and `opt`
//! for `lower`, `promote_locals`, `insert_pi` and the whole optimizer.
//!
//! Pass flags for `opt`/`run --opt`: `--no-pre`, `--no-lower`, `--no-upper`,
//! `--no-cleanup`, `--no-gvn-hook`, `--merge`, `--ipa` (interprocedural
//! parameter facts behind guarded entries), `--hot N` (with `--profile`), `--jobs N` (parallel driver),
//! `--metrics`/`--metrics-out FILE` (`abcd-metrics/8` JSON),
//! `--trace-out FILE` (`abcd-trace/4` JSONL structured trace),
//! `--deterministic-metrics` (zero every duration for byte-comparable
//! output), `--cache-dir DIR`/`--cache-bytes N` (content-addressed analysis
//! cache), and the fail-open controls `--fuel N`, `--fuel-fn N`,
//! `--validate`, `--verify-ir`, `--fault-plan SPEC`, `--no-isolate`.
//!
//! Exit codes: `0` success, `1` error (bad input, trap, usage), `2` the
//! pipeline degraded fail-open (a pass panicked, IR verification failed, or
//! validation reinstated a check — the output is still correct, just less
//! optimized), `3` internal panic (a bug in `mjc` itself).

use abcd::{FaultPlan, InequalityGraph, Optimizer, OptimizerOptions, Problem, Stage};
use abcd_frontend::compile;
use abcd_ir::Module;
use abcd_vm::{RtVal, Trap, Vm};
use std::process::ExitCode;
use std::time::Instant;

/// The pipeline finished but only by degrading fail-open somewhere.
const EXIT_DEGRADED: u8 = 2;
/// `mjc` itself panicked — never expected; distinct so scripts can tell an
/// internal bug from a bad input.
const EXIT_INTERNAL: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match std::panic::catch_unwind(|| run(&args)) {
        Ok(Ok(code)) => code,
        Ok(Err(msg)) => {
            eprintln!("mjc: {msg}");
            ExitCode::FAILURE
        }
        Err(_) => {
            // The panic hook already printed the payload and location.
            eprintln!("mjc: internal error (panic) — please report this");
            ExitCode::from(EXIT_INTERNAL)
        }
    }
}

const HELP: &str = "\
mjc — the MJ compiler driver of the ABCD reproduction

USAGE:
    mjc run   <file.mj|file.ir> [--opt] [--profile] [--stats] [--arg N]...
    mjc opt   <file.mj|file.ir> [pass flags] [--dump]
    mjc explain <file.mj|file.ir> <fn> [--check N] [pass flags]
    mjc dump  <file.mj|file.ir> [--stage STAGE] [pass flags]
    mjc graph <file.mj|file.ir> [--fn NAME] [--lower] [pass flags]  (Graphviz)
    mjc serve [--socket PATH | --listen ADDR]... [server flags]
              (abcdd's flags; `mjc serve --help` lists them)
    mjc client <file.mj|file.ir> (--socket PATH | --tcp ADDR) [pass flags]
               [--metrics] [--timeout MS] [--deadline MS] [--batch N]
    mjc client ping|stats|metrics|shutdown (--socket PATH | --tcp ADDR)

STAGE (for `dump`, default essa): any `abcd::Stage` name, parse … canonicalize
    (the IR after that stage of the optimizer's own pipeline), or ir|ssa|essa|opt
    for lower|promote_locals|insert_pi|the whole optimizer. `graph` draws the
    graphs of the insert_pi form: the ones the prover solves without parameter
    facts (so `graph`, and `dump` before canonicalize|opt, reject --ipa).

PASS FLAGS (for `opt`, `run --opt`, `client <file>`, `dump` and `graph`;
`dump` and `graph` reject --jobs, --trace-out, --cache-dir, --cache-bytes
and --fault-plan):
    --no-pre --no-lower --no-upper --no-cleanup --no-gvn-hook
    --merge            merge surviving lower+upper pairs (§7.2)
    --ipa              interprocedural parameter facts: each function whose
                       verified facts pay gets f$fast and f$slow bodies and
                       a guard at its entry f
    --hot N            with --profile: analyze only sites with ≥N hits
    --jobs N           optimize functions on N worker threads (default and
                       ceiling: all host CPUs — requests are clamped to the
                       available parallelism)
    --metrics          emit abcd-metrics/8 JSON (stdout for opt, stderr for run)
    --metrics-out F    write the metrics JSON to file F
    --trace-out F      record an abcd-trace/4 JSONL structured trace to F
                       (spans for every pass, prove query, PRE decision and
                       cache lookup; zero overhead when absent)
    --deterministic-metrics
                       zero every duration in the metrics JSON (and every
                       trace timestamp) so identical runs are byte-identical
                       (warm/cold cache comparisons)

EXPLAIN (`mjc explain <file> <fn> [--check N]`):
    replays the recorded derivation into human-readable proof certificates:
    why each check was eliminated (the derivation path and its weight) or
    kept (amplifying cycle, fuel exhaustion, unconstrained vertex).
    `--check N` narrows the output to check site ckN.

CACHING (for `opt`, `run --opt`; always on in `serve` unless --no-cache):
    --cache-dir DIR    persist analysis-cache entries to DIR; entries are
                       content-addressed and re-verified on load, corruption
                       is reported as an incident and recompiled cold
    --cache-bytes N    in-memory cache budget in bytes (default 64 MiB)

CLIENT (`client` retries `busy` and queue-position replies with exponential
backoff + jitter, floored by the server's adaptive hint):
    --socket PATH      the daemon's Unix-domain socket
    --tcp ADDR         connect over TCP to host:port instead
    --batch N          send the request N times as one pipelined
                       protocol-v2 frame; replies stream back in order and
                       must all carry identical IR (printed once)
    --timeout MS       end-to-end budget: connect, each frame, all
                       retries and backoff sleeps combined
    --deadline MS      per-request deadline_ms sent to the server

FAIL-OPEN CONTROLS (for `opt` and `run --opt`):
    --fuel N           per-query solver step budget (exhaustion keeps the check)
    --fuel-fn N        per-function solver step budget
    --validate         translation-validate: re-prove every elimination on a
                       fresh constraint graph, reinstating anything unproven
    --verify-ir        verify the IR between passes (failing pass is rolled back)
    --fault-plan SPEC  inject deterministic faults, e.g. panic:f:solve,fuel:g,
                       edge:*:42 (see `abcd::FaultPlan`)
    --no-isolate       disable per-function panic isolation (panics become
                       fatal instead of shipping the function unoptimized)

EXIT CODES:
    0  success     1  error (bad input, trap, usage)
    2  degraded    3  internal panic
";

const SERVE_USAGE: &str = "\
mjc serve — run the abcdd daemon in the foreground, with abcdd's flags

USAGE:
    mjc serve [--socket PATH | --listen ADDR]... [options]

OPTIONS:
";

fn usage() -> String {
    HELP.to_string()
}

/// Loads `file` as a module: textual IR when the extension is `.ir`, MJ
/// source otherwise. All failure modes are structured errors, never panics.
/// Textual IR goes through [`abcd::parse_ir`], which holds it to what the
/// front end guarantees for MJ.
fn load_module(file: &str) -> Result<Module, String> {
    let source = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    if file.ends_with(".ir") {
        abcd::parse_ir(&source)
    } else {
        compile(&source).map_err(|e| e.to_string())
    }
    .map_err(|e| format!("{file}: {e}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let cmd = args.first().ok_or_else(usage)?;
    if cmd == "--help" || cmd == "help" || cmd == "-h" {
        print!("{HELP}");
        return Ok(ExitCode::SUCCESS);
    }
    if cmd == "serve" {
        return cmd_serve(&args[1..]);
    }
    let file = args.get(1).ok_or_else(usage)?;
    let rest = &args[2..];

    match cmd.as_str() {
        "run" => cmd_run(file, rest),
        "opt" => cmd_opt(file, rest),
        "explain" => cmd_explain(file, rest),
        "dump" => cmd_dump(file, rest),
        "graph" => cmd_graph(file, rest),
        "client" => cmd_client(file, rest),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn parse_options(rest: &[String]) -> Result<OptimizerOptions, String> {
    let mut o = OptimizerOptions::default();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--no-pre" => o.pre = false,
            "--no-lower" => o.lower = false,
            "--no-upper" => o.upper = false,
            "--no-cleanup" => o.cleanup = false,
            "--no-gvn-hook" => o.gvn_hook = false,
            "--ipa" => o.interprocedural = true,
            "--merge" => o.merge_checks = true,
            "--validate" => o.validate = true,
            "--verify-ir" => o.verify_ir = true,
            "--no-isolate" => o.isolate_panics = false,
            "--hot" => {
                i += 1;
                let n = rest
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("`--hot` needs a count")?;
                o.hot_threshold = Some(n);
            }
            "--fuel" => {
                i += 1;
                let n = rest
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("`--fuel` needs a step count")?;
                o.fuel_per_query = Some(n);
            }
            "--fuel-fn" => {
                i += 1;
                let n = rest
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("`--fuel-fn` needs a step count")?;
                o.fuel_per_function = Some(n);
            }
            // run/dump/client flags handled by callers
            "--opt"
            | "--stats"
            | "--profile"
            | "--dump"
            | "--metrics"
            | "--deterministic-metrics"
            | "--lower" => {}
            "--arg" | "--stage" | "--fn" | "--jobs" | "--metrics-out" | "--trace-out"
            | "--check" | "--fault-plan" | "--cache-dir" | "--cache-bytes" | "--socket"
            | "--tcp" | "--batch" | "--timeout" | "--deadline" => i += 1,
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    Ok(o)
}

fn has(rest: &[String], flag: &str) -> bool {
    rest.iter().any(|a| a == flag)
}

fn value_of<'a>(rest: &'a [String], flag: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == flag)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

/// The value given with `flag`, parsed, if the flag is given; `what`
/// names the expected value in the error.
fn parsed<T: std::str::FromStr>(
    rest: &[String],
    flag: &str,
    what: &str,
) -> Result<Option<T>, String> {
    value_of(rest, flag)
        .map(|v| v.parse().map_err(|_| format!("`{flag}` needs {what}")))
        .transpose()
}

fn jobs_of(rest: &[String]) -> Result<usize, String> {
    // Requests are clamped to the host's available parallelism: extra
    // workers on an undersized host only add contention (the benchsuite ran
    // ~40% slower oversubscribed — see `pipeline/abcd_suite_threads/*` in
    // `BENCH_pipeline.json`). `--jobs 0` / absent means "all host CPUs".
    let jobs = parsed(rest, "--jobs", "a count")?;
    Ok(abcd::clamp_jobs(jobs.unwrap_or(0)))
}

/// Builds the analysis cache requested by `--cache-dir`/`--cache-bytes`
/// (batch mode caches only when asked; `serve` defaults the other way).
fn cache_for(rest: &[String]) -> Result<Option<std::sync::Arc<abcd::AnalysisCache>>, String> {
    let bytes = parsed(rest, "--cache-bytes", "a byte count")?;
    let bytes = bytes.unwrap_or(abcd::cache::DEFAULT_CACHE_BYTES);
    match value_of(rest, "--cache-dir") {
        Some(dir) => {
            let cache = abcd::AnalysisCache::with_dir(std::path::Path::new(dir), bytes)
                .map_err(|e| format!("--cache-dir {dir}: {e}"))?;
            Ok(Some(std::sync::Arc::new(cache)))
        }
        None if has(rest, "--cache-bytes") => Ok(Some(std::sync::Arc::new(
            abcd::AnalysisCache::in_memory(bytes),
        ))),
        None => Ok(None),
    }
}

/// Builds the optimizer for `opt`/`run --opt`, wiring in any `--fault-plan`
/// and cache. Returns the cache too so metrics can report its counters.
fn optimizer_for(
    options: OptimizerOptions,
    rest: &[String],
) -> Result<(Optimizer, Option<std::sync::Arc<abcd::AnalysisCache>>), String> {
    let mut optimizer = Optimizer::with_options(options)
        .with_threads(jobs_of(rest)?)
        .with_trace(value_of(rest, "--trace-out").is_some());
    let cache = cache_for(rest)?;
    if let Some(cache) = &cache {
        optimizer = optimizer.with_cache(std::sync::Arc::clone(cache));
    }
    if let Some(spec) = value_of(rest, "--fault-plan") {
        let plan = FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?;
        optimizer = optimizer.with_fault_plan(plan);
    }
    Ok((optimizer, cache))
}

/// Prints every incident to stderr and picks the exit code: degraded
/// incidents (panics, verifier failures, reinstatements) exit 2 so scripts
/// notice, while pure budget exhaustion — requested behavior, not a failure
/// — stays at 0.
fn incident_exit(report: &abcd::ModuleReport) -> ExitCode {
    for incident in report.incidents() {
        eprintln!("mjc: incident: {incident}");
    }
    if report.degraded_incident_count() > 0 {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    }
}

/// Emits the `abcd-metrics/8` JSON if `--metrics` or `--metrics-out` was
/// given. `to_stderr` keeps `run`'s program output clean on stdout.
fn emit_metrics(
    report: &abcd::ModuleReport,
    threads: usize,
    wall: std::time::Duration,
    cache: Option<&abcd::AnalysisCache>,
    rest: &[String],
    to_stderr: bool,
) -> Result<(), String> {
    let to_file = value_of(rest, "--metrics-out");
    if !has(rest, "--metrics") && to_file.is_none() {
        return Ok(());
    }
    let mut run = abcd::RunInfo::new(threads, wall);
    if let Some(cache) = cache {
        run = run.with_cache(cache.stats());
    }
    if has(rest, "--deterministic-metrics") {
        run = run.deterministic();
    }
    let json = abcd::module_metrics_json(report, run);
    if let Some(path) = to_file {
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    if has(rest, "--metrics") {
        if to_stderr {
            eprintln!("{json}");
        } else {
            emit(format!("{json}\n"));
        }
    }
    Ok(())
}

/// Writes the `abcd-trace/4` JSONL document if `--trace-out` was given.
fn emit_trace(report: &abcd::ModuleReport, threads: usize, rest: &[String]) -> Result<(), String> {
    let Some(path) = value_of(rest, "--trace-out") else {
        return Ok(());
    };
    let doc = abcd::module_trace_jsonl(report, threads, has(rest, "--deterministic-metrics"));
    std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))
}

fn cmd_run(file: &str, rest: &[String]) -> Result<ExitCode, String> {
    // Validate flags up front so typos are rejected even without --opt.
    let options = parse_options(rest)?;
    let mut module = load_module(file)?;
    let mut profile = None;
    let mut exit = ExitCode::SUCCESS;

    if has(rest, "--opt") {
        if has(rest, "--profile") {
            // Training run first (the JIT scenario).
            let mut vm = Vm::new(&module);
            vm.call_by_name("main", &[])
                .map_err(|t| trap_message(&module, &t))?;
            profile = Some(vm.into_profile());
        }
        let (optimizer, cache) = optimizer_for(options, rest)?;
        let threads = optimizer.threads();
        let started = Instant::now();
        let report = optimizer.optimize_module(&mut module, profile.as_ref());
        let wall = started.elapsed();
        eprintln!(
            "abcd: {}/{} checks removed, {} hoisted, {:.1} steps/check",
            report.checks_removed_fully(),
            report.checks_total(),
            report.checks_hoisted(),
            report.steps_per_check()
        );
        emit_metrics(&report, threads, wall, cache.as_deref(), rest, true)?;
        emit_trace(&report, threads, rest)?;
        exit = incident_exit(&report);
    }

    let int_args: Vec<RtVal> = rest
        .iter()
        .zip(rest.iter().skip(1))
        .filter(|(a, _)| a.as_str() == "--arg")
        .map(|(_, v)| v.parse().map(RtVal::Int))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad --arg: {e}"))?;

    let mut vm = Vm::new(&module);
    let result = vm
        .call_by_name("main", &int_args)
        .map_err(|t| trap_message(&module, &t))?;
    for v in vm.output() {
        println!("{v}");
    }
    if let Some(r) = result {
        eprintln!("=> {r}");
    }
    if has(rest, "--stats") {
        let s = vm.stats();
        eprintln!(
            "instructions: {}, cycles: {}, checks: lower {} / upper {} / merged {}, speculative {}, residual traps {}",
            s.insts,
            s.cycles,
            s.checks[0],
            s.checks[1],
            s.checks[2],
            s.spec_checks.iter().sum::<u64>(),
            s.trap_tests
        );
    }
    Ok(exit)
}

/// A trap with the trapping function named, e.g. `trap in main (fn0): …`.
fn trap_message(module: &Module, trap: &Trap) -> String {
    let name = module.function(trap.func).name();
    format!("trap in {name} ({}): {}", trap.func, trap.kind)
}

fn cmd_opt(file: &str, rest: &[String]) -> Result<ExitCode, String> {
    let mut module = load_module(file)?;
    let options = parse_options(rest)?;
    let (optimizer, cache) = optimizer_for(options, rest)?;
    let threads = optimizer.threads();
    let started = Instant::now();
    let report = optimizer.optimize_module(&mut module, None);
    let wall = started.elapsed();
    emit_metrics(&report, threads, wall, cache.as_deref(), rest, false)?;
    emit_trace(&report, threads, rest)?;
    for f in &report.functions {
        println!(
            "{}: {} checks — {} fully redundant, {} hoisted ({} compensating inserted), {} merged, {} steps",
            f.name,
            f.checks_total,
            f.removed_fully(),
            f.hoisted(),
            f.spec_checks_inserted,
            f.checks_merged,
            f.steps,
        );
    }
    if has(rest, "--dump") {
        println!("\n{module}");
    }
    Ok(incident_exit(&report))
}

/// `mjc explain`: run the pipeline with tracing on and replay the recorded
/// derivation for one function as human-readable proof certificates.
fn cmd_explain(file: &str, rest: &[String]) -> Result<ExitCode, String> {
    let func_name = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("`explain` needs a function name: mjc explain <file> <fn> [--check N]")?
        .clone();
    let flags = &rest[1..];
    let check = parsed(flags, "--check", "a check number")?;
    let options = parse_options(flags)?;
    let mut module = load_module(file)?;
    let (optimizer, _cache) = optimizer_for(options, flags)?;
    let report = optimizer
        .with_trace(true)
        .optimize_module(&mut module, None);
    let Some(frep) = report.functions.iter().find(|f| *f.name == *func_name) else {
        return Err(format!("no function `{func_name}` in {file}"));
    };
    match abcd::explain_function(frep, check) {
        Some(text) => {
            emit(text);
            Ok(incident_exit(&report))
        }
        None => Err(format!("no derivation recorded for `{func_name}`")),
    }
}

/// The optimizer-wiring flags that only `optimizer_for` applies: `dump`
/// and `graph` reject them rather than ignore them.
fn reject_wiring_flags(command: &str, rest: &[String]) -> Result<(), String> {
    let wiring = [
        "--fault-plan",
        "--jobs",
        "--cache-dir",
        "--cache-bytes",
        "--trace-out",
    ];
    match wiring.into_iter().find(|flag| has(rest, flag)) {
        Some(flag) => Err(format!("`mjc {command}` does not take `{flag}`")),
        None => Ok(()),
    }
}

fn cmd_dump(file: &str, rest: &[String]) -> Result<ExitCode, String> {
    reject_wiring_flags("dump", rest)?;
    let options = parse_options(rest)?;
    let stage = match value_of(rest, "--stage").unwrap_or("essa") {
        "ir" => Stage::Lower,
        "ssa" => Stage::PromoteLocals,
        "essa" => Stage::InsertPi,
        "opt" => Stage::Canonicalize,
        name => name
            .parse()
            .map_err(|e| format!("{e}, or ir|ssa|essa|opt"))?,
    };
    if options.interprocedural && stage != Stage::Canonicalize {
        // `run_to` assumes no parameter facts; only the whole driver does.
        return Err(format!(
            "`mjc dump --stage {stage}` does not take `--ipa`: only canonicalize|opt applies parameter facts"
        ));
    }
    let optimizer = Optimizer::with_options(options);
    let mut module = load_module(file)?;
    if stage == Stage::Canonicalize {
        // The whole driver, exactly as `opt` and `abcdd` run it.
        optimizer.optimize_module(&mut module, None);
    } else {
        optimizer
            .run_to(&mut module, stage)
            .map_err(|e| e.to_string())?;
    }
    emit(format!("{module}\n"));
    Ok(ExitCode::SUCCESS)
}

/// Writes to stdout, tolerating a closed pipe (`mjc dump … | head`).
fn emit(text: String) {
    use std::io::Write;
    let _ = std::io::stdout().write_all(text.as_bytes());
}

/// `mjc serve`: run the `abcdd` daemon in the foreground until a client
/// sends `shutdown`, then drain and exit 0. The cache is on by default
/// here (the whole point of a persistent service); `--no-cache` opts out.
fn cmd_serve(rest: &[String]) -> Result<ExitCode, String> {
    if has(rest, "--help") {
        print!("{SERVE_USAGE}{}", abcd_server::SERVE_FLAGS);
        return Ok(ExitCode::SUCCESS);
    }
    let config = abcd_server::ServerConfig::from_args(rest)?;
    let handle = abcd_server::start(config).map_err(|e| format!("bind: {e}"))?;
    for endpoint in handle.endpoints() {
        eprintln!("mjc: serving on {}", endpoint.describe());
    }
    handle.join();
    eprintln!("mjc: server drained");
    Ok(ExitCode::SUCCESS)
}

/// `mjc client`: one request against a running daemon. `file` is either a
/// module to optimize or one of the control verbs `ping`/`stats`/`shutdown`.
/// The optimized IR goes to stdout exactly as `mjc dump --stage opt` would
/// print it, so the two are byte-comparable.
fn cmd_client(file: &str, rest: &[String]) -> Result<ExitCode, String> {
    let endpoint = match (value_of(rest, "--tcp"), value_of(rest, "--socket")) {
        (Some(addr), _) => abcd_server::Endpoint::parse(&format!("tcp:{addr}"))
            .map_err(|e| format!("--tcp: {e}"))?,
        (None, Some(path)) => abcd_server::Endpoint::uds(std::path::Path::new(path)),
        (None, None) => return Err("`client` needs `--socket PATH` or `--tcp ADDR`".to_string()),
    };
    match file {
        "ping" => {
            if abcd_server::ping_at(&endpoint) {
                println!("pong");
                Ok(ExitCode::SUCCESS)
            } else {
                Err(format!("no server at {}", endpoint.describe()))
            }
        }
        "stats" => {
            // Print the server's reply verbatim: it is already one
            // `abcdd-stats/2` JSON document, ready to pipe into jq.
            match abcd_server::roundtrip_at(&endpoint, "{\"cmd\":\"stats\"}", None)? {
                abcd_server::Reply::Ok(_, raw) => {
                    emit(format!("{raw}\n"));
                    Ok(ExitCode::SUCCESS)
                }
                abcd_server::Reply::Busy { .. } => Err("server busy".to_string()),
                abcd_server::Reply::Err(e) => Err(e),
            }
        }
        "metrics" => {
            let text = abcd_server::metrics_at(&endpoint, has(rest, "--deterministic-metrics"))?;
            emit(text);
            Ok(ExitCode::SUCCESS)
        }
        "shutdown" => {
            abcd_server::shutdown_at(&endpoint)?;
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let options = parse_options(rest)?;
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let ms = |flag| parsed::<u64>(rest, flag, "milliseconds");
            let call = abcd_server::CallOptions {
                metrics: has(rest, "--metrics") || value_of(rest, "--metrics-out").is_some(),
                deterministic_metrics: has(rest, "--deterministic-metrics"),
                trace: value_of(rest, "--trace-out").is_some(),
                deadline_ms: ms("--deadline")?,
            };
            let retry = match ms("--timeout")? {
                None => abcd_server::RetryPolicy::default(),
                Some(t) => abcd_server::RetryPolicy::with_timeout_ms(t),
            };
            let batch: usize = match value_of(rest, "--batch") {
                None => 1,
                Some(v) => match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err("`--batch` needs a count >= 1".to_string()),
                },
            };
            let reply = if batch == 1 {
                abcd_server::optimize_at(
                    &endpoint,
                    (&text, file.ends_with(".ir")),
                    &options,
                    None,
                    &call,
                    &retry,
                )?
            } else {
                // One pipelined frame carrying the same request N times;
                // the N replies stream back in order and must agree —
                // a cheap differential check of the batch path itself.
                let item = ((text.as_str(), file.ends_with(".ir")), &options, None, call);
                let items: Vec<_> = (0..batch).map(|_| item).collect();
                let mut replies = abcd_server::optimize_batch_at(&endpoint, &items, &retry)?
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| r.map_err(|e| format!("batch element {i}: {e}")))
                    .collect::<Result<Vec<_>, String>>()?;
                let first = replies.remove(0);
                for (i, other) in replies.iter().enumerate() {
                    if other.ir != first.ir {
                        return Err(format!(
                            "batch element {} served different IR than element 0",
                            i + 1
                        ));
                    }
                }
                first
            };
            // Exactly what `cmd_dump` prints: `{module}` + one newline.
            emit(format!("{}\n", reply.ir));
            if reply.deadline_exceeded {
                eprintln!("mjc: server deadline exceeded; module served unoptimized (fail open)");
            }
            if let Some(path) = value_of(rest, "--trace-out") {
                std::fs::write(path, reply.trace.as_deref().unwrap_or(""))
                    .map_err(|e| format!("{path}: {e}"))?;
            }
            if let Some(metrics) = &reply.metrics {
                if let Some(path) = value_of(rest, "--metrics-out") {
                    std::fs::write(path, format!("{metrics}\n"))
                        .map_err(|e| format!("{path}: {e}"))?;
                }
                if has(rest, "--metrics") {
                    eprintln!("{metrics}");
                }
            }
            let (incidents, degraded) = reply.incidents;
            if incidents > 0 {
                eprintln!("mjc: server reported {incidents} incident(s), {degraded} degraded");
            }
            if degraded > 0 {
                Ok(ExitCode::from(EXIT_DEGRADED))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
    }
}

/// `mjc graph`: the inequality graphs the prover solves, built from the
/// optimizer's own e-SSA form.
fn cmd_graph(file: &str, rest: &[String]) -> Result<ExitCode, String> {
    reject_wiring_flags("graph", rest)?;
    let options = parse_options(rest)?;
    if options.interprocedural {
        return Err(
            "`mjc graph` does not take `--ipa`: it draws the graphs without parameter facts"
                .to_string(),
        );
    }
    let optimizer = Optimizer::with_options(options);
    let mut module = load_module(file)?;
    optimizer
        .run_to(&mut module, Stage::InsertPi)
        .map_err(|e| e.to_string())?;
    let problem = if has(rest, "--lower") {
        Problem::Lower
    } else {
        Problem::Upper
    };
    let wanted = value_of(rest, "--fn");

    let mut out = String::new();
    for (_, func) in module.functions() {
        if wanted.is_none_or(|w| w == func.name()) {
            InequalityGraph::build(func, problem, None).write_dot(func.name(), &mut out);
        }
    }
    if let Some(w) = wanted.filter(|_| out.is_empty()) {
        return Err(format!("no function `{w}` in {file}"));
    }
    emit(out);
    Ok(ExitCode::SUCCESS)
}
