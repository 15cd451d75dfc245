//! `serve`: an in-process `abcdd` over a Unix socket, driven by a closed
//! loop.
//!
//! Set-up generates the corpus (`abcd_loadgen::corpus`), computes its
//! ground truth (`abcd_loadgen::expected_outputs`), starts the server and
//! warms its cache with every module. Then `nproc` clients each send their
//! next request as soon as the reply arrives, with no think time, picking
//! modules zipf-weighted. Every reply must be byte-equal to the ground
//! truth. The last part of the budget compiles and optimizes the corpus in
//! process against an equally warm cache, and runs its functions in the VM.
//!
//! Why: this is the cache-read path. Transport, protocol and queueing
//! dominate a round trip, and `ssa`, `graph` and `solver` do nothing, so a
//! prover speedup must read as no change here.

use crate::trace::{ns, Tracer};
use crate::{
    compile, replay, timed_setups, Budget, Config, EndToEnd, HostSpeed, Layers, Report, MIN_PASSES,
};
use abcd::cache::DEFAULT_CACHE_BYTES;
use abcd::{AnalysisCache, CacheStats, ModuleReport, Optimizer, OptimizerOptions};
use abcd_loadgen::{sample_zipf, zipf_cdf, Expected, SplitMix64};
use abcd_server::json::Json;
use abcd_server::{CallOptions, Endpoint, ListenAddr, RetryPolicy, ServerConfig, ServerHandle};
use abcd_vm::{ExecStats, RtVal, Vm};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Corpus modules.
const CORPUS: usize = 24;
/// Zipf exponent of the module popularity.
const ZIPF_S: f64 = 1.1;
/// Share of the budget the closed loop gets; the in-process sweeps get the
/// rest.
const LOOP_SHARE: f64 = 0.5;
/// Rounds the untraced closed loop's share is split into.
const LOOP_ROUNDS: u64 = 15;
/// Requests in the traced run's in-process replay sequence.
const REPLAY_REQUESTS: usize = 48;

/// A running server, shut down and joined on drop.
struct Server {
    handle: Option<ServerHandle>,
    endpoint: Endpoint,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = abcd_server::shutdown_at(&self.endpoint);
        if let Some(handle) = self.handle.take() {
            handle.join();
        }
    }
}

/// Unoptimized results of one corpus module's functions.
type Truth = Vec<(String, Option<RtVal>, ExecStats)>;

struct State {
    corpus: Vec<String>,
    expected: Expected,
    /// An in-process cache warmed with the corpus, as the server's is.
    local: Arc<AnalysisCache>,
    truth: Vec<Truth>,
    args: (Vec<i64>, Vec<i64>),
    static_removed_pct: f64,
    server: Server,
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Calls every `work*` function of `module` with `args` in a fresh VM each.
fn call_all(module: &abcd_ir::Module, args: &(Vec<i64>, Vec<i64>)) -> Result<Truth, String> {
    module
        .functions()
        .map(|(_, f)| f.name())
        .filter(|name| name.starts_with("work"))
        .map(|name| {
            let mut vm = Vm::new(module);
            let a = vm.alloc_int_array(&args.0);
            let b = vm.alloc_int_array(&args.1);
            let ret = vm
                .call_by_name(name, &[a, b])
                .map_err(|t| format!("{name} trapped: {t}"))?;
            Ok((name.to_string(), ret, *vm.stats()))
        })
        .collect()
}

fn setup(config: &Config) -> Result<State, String> {
    let corpus = abcd_loadgen::corpus(config.seed, CORPUS);
    let options = OptimizerOptions::default();
    let expected = abcd_loadgen::expected_outputs(&corpus, options)?;
    let mut rng = SplitMix64::new(config.seed ^ 0xA265);
    let mut draw =
        |n: usize| -> Vec<i64> { (0..n).map(|_| (rng.next_u64() % 1000) as i64).collect() };
    let args = (draw(20), draw(24));
    let local = Arc::new(AnalysisCache::in_memory(DEFAULT_CACHE_BYTES));
    let mut truth = Vec::with_capacity(CORPUS);
    let mut reports = Vec::with_capacity(CORPUS);
    for (i, src) in corpus.iter().enumerate() {
        let mut baseline = abcd_frontend::compile(src).map_err(|e| format!("module {i}: {e}"))?;
        Optimizer::with_options(crate::baseline_options()).optimize_module(&mut baseline, None);
        truth.push(call_all(&baseline, &args)?);
        let mut module = abcd_frontend::compile(src).map_err(|e| format!("module {i}: {e}"))?;
        reports.push(
            Optimizer::new()
                .with_cache(Arc::clone(&local))
                .optimize_module(&mut module, None),
        );
    }
    let static_removed_pct = crate::static_removed_pct(&reports.iter().collect::<Vec<_>>());

    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    // Set-up runs several times and each server lives until the next one
    // is up, so every set-up gets its own socket.
    static STARTED: AtomicU64 = AtomicU64::new(0);
    let n = STARTED.fetch_add(1, Ordering::Relaxed);
    let socket = dir.join(format!("serve-{}-{n}.sock", std::process::id()));
    let server_config = ServerConfig {
        listen: vec![ListenAddr::Uds(socket.clone())],
        workers: cpus(),
        // Each client has at most one request in flight, so a queue as
        // long as the client count never sheds or sends a queue-position
        // reply: `server.shed` and `server.queued_replies` stay 0 unless
        // admission breaks. One shard (the default) never steals.
        queue: cpus(),
        jobs: 1,
        cache: Some(Arc::new(AnalysisCache::in_memory(DEFAULT_CACHE_BYTES))),
        ..ServerConfig::new(&socket)
    };
    let handle = abcd_server::start(server_config).map_err(|e| format!("starting abcdd: {e}"))?;
    let server = Server {
        handle: Some(handle),
        endpoint: Endpoint::uds(&socket),
    };
    for (i, src) in corpus.iter().enumerate() {
        let reply = abcd_server::optimize_at(
            &server.endpoint,
            (src, false),
            &options,
            None,
            &CallOptions::default(),
            &RetryPolicy::default(),
        )?;
        if reply.ir != expected.optimized[i] {
            return Err(format!("warm-up: module {i} served different bytes"));
        }
    }
    Ok(State {
        corpus,
        expected,
        local,
        truth,
        args,
        static_removed_pct,
        server,
    })
}

/// What the closed loop measured.
#[derive(Default)]
struct LoopResult {
    req_ns: Vec<u64>,
    rtt_ns: Vec<u64>,
    wall: Duration,
    tracer: Option<Tracer>,
    /// Allocations in the whole process, clients and server together.
    allocs: u64,
}

/// `cpus()` clients, each sending its next request as soon as its reply
/// is verified, until `seconds` have passed.
fn closed_loop(
    state: &State,
    config: &Config,
    seconds: f64,
    trace: bool,
    round: u64,
    report: &mut Report,
) -> LoopResult {
    let cdf = zipf_cdf(CORPUS, ZIPF_S);
    let options = OptimizerOptions::default();
    let allocs_before = abcd_alloc::snapshot().allocs;
    let started = Instant::now();
    let per_client: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cpus() as u64)
            .map(|client| {
                let cdf = &cdf;
                let options = &options;
                s.spawn(move || {
                    let mut rng = SplitMix64::new(config.seed ^ (round << 40) ^ (client << 32));
                    let mut t = Tracer::new(trace);
                    let mut out = Report::default();
                    let mut req_ns = Vec::new();
                    let mut rtt_ns = Vec::new();
                    let mut budget = Budget::new(seconds, MIN_PASSES);
                    while budget.next_pass() {
                        let idx = sample_zipf(cdf, rng.next_f64());
                        out.attempted += 1;
                        t.set_request((client << 32) | out.attempted);
                        let sent = Instant::now();
                        let checked = t.span("request", |t| {
                            let reply = t.span("server.rtt", |_| {
                                abcd_server::optimize_at(
                                    &state.server.endpoint,
                                    (&state.corpus[idx], false),
                                    options,
                                    None,
                                    &CallOptions::default(),
                                    &RetryPolicy::default(),
                                )
                            });
                            rtt_ns.push(ns(sent.elapsed()));
                            match reply {
                                Err(e) => Err(e),
                                Ok(r) if r.deadline_exceeded => {
                                    Err(format!("module {idx}: served fail-open"))
                                }
                                Ok(r) if r.ir != state.expected.optimized[idx] => {
                                    Err(format!("module {idx}: reply bytes differ"))
                                }
                                Ok(_) => Ok(()),
                            }
                        });
                        req_ns.push(ns(sent.elapsed()));
                        if let Err(e) = checked {
                            out.fail(e);
                        }
                    }
                    (out, req_ns, rtt_ns, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut result = LoopResult {
        wall: started.elapsed(),
        allocs: abcd_alloc::snapshot().allocs - allocs_before,
        ..LoopResult::default()
    };
    let mut merged = Tracer::new(trace);
    for (out, req_ns, rtt_ns, t) in per_client {
        report.absorb(out);
        result.req_ns.extend(req_ns);
        result.rtt_ns.extend(rtt_ns);
        merged.merge(t);
    }
    result.tracer = trace.then_some(merged);
    result
}

/// One in-process request against the warm local cache: compile, optimize
/// and print, verified against the ground truth.
fn in_process(
    t: &mut Tracer,
    state: &State,
    idx: usize,
    cache_delta: &mut CacheStats,
) -> Result<(abcd_ir::Module, ModuleReport, u64), String> {
    let started = crate::thread_cpu_ns();
    let mut module = compile(t, &state.corpus[idx])?;
    let before = state.local.stats();
    let opt_report = t.span("driver.optimize", |_| {
        Optimizer::new()
            .with_cache(Arc::clone(&state.local))
            .optimize_module(&mut module, None)
    });
    let after = state.local.stats();
    cache_delta.hits += after.hits - before.hits;
    cache_delta.misses += after.misses - before.misses;
    cache_delta.stores += after.stores - before.stores;
    cache_delta.evictions += after.evictions - before.evictions;
    let text = t.span("ir.print", |_| module.to_string());
    let opt_ns = crate::thread_cpu_ns() - started;
    if text != state.expected.optimized[idx] {
        return Err(format!("module {idx}: in-process output differs"));
    }
    Ok((module, opt_report, opt_ns))
}

fn server_counters(endpoint: &Endpoint) -> (u64, u64, u64) {
    let Ok(doc) = abcd_server::stats_at(endpoint) else {
        return (0, 0, 0);
    };
    let n = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    (n("steals"), n("shed"), n("queued_replies"))
}

/// Runs the workload.
pub fn run(config: &Config) -> Result<Report, String> {
    let (state, setup_s) = timed_setups(config, || setup(config))?;
    let mut report = Report::default();
    report
        .notes
        .push(format!("clients={} workers={}", cpus(), cpus()));
    if config.trace {
        traced(config, &state, &mut report);
        return Ok(report);
    }
    let mut e2e = EndToEnd {
        setup_s,
        static_removed_pct: state.static_removed_pct,
        ..EndToEnd::default()
    };
    // The loop runs in rounds with the clients stopped in between, so the
    // host-speed kernel runs alone and scales the round just before it.
    let mut speed = HostSpeed::default();
    let mut wall_ns = 0;
    for round in 0..LOOP_ROUNDS {
        let seconds = config.seconds * LOOP_SHARE / LOOP_ROUNDS as f64;
        let looped = closed_loop(&state, config, seconds, false, round, &mut report);
        let f = speed.factor();
        e2e.req_ns
            .extend(looped.req_ns.iter().map(|&ns| crate::scaled(ns, f)));
        wall_ns += crate::scaled(ns(looped.wall), f);
    }
    e2e.req_wall = Duration::from_nanos(wall_ns);
    let mut texts = Vec::new();
    let mut budget = Budget::new(config.seconds * (1.0 - LOOP_SHARE), 1);
    while budget.next_pass() {
        let (opt_ns, run_ns) = sweep(&state, &mut e2e, &mut texts, &mut report);
        e2e.add_pass(&mut speed, &opt_ns, run_ns, &[]);
    }
    report
        .notes
        .push(format!("host_speed={:.3}", speed.median()));
    report.output_digest = crate::digest(&texts);
    e2e.report(&mut report);
    Ok(report)
}

/// One untraced in-process pass over the corpus: compile, optimize and
/// print each module against the warm local cache, then run its functions
/// in the VM and check their results. The first pass keeps the optimized
/// texts and the dynamic statistics. Returns the per-module optimize times
/// and the pass's VM time, unscaled.
fn sweep(
    state: &State,
    e2e: &mut EndToEnd,
    texts: &mut Vec<String>,
    report: &mut Report,
) -> (Vec<u64>, u64) {
    let first = e2e.run_pass_ns.is_empty();
    let mut off = Tracer::new(false);
    let mut opt_ns_all = Vec::with_capacity(CORPUS);
    let mut run_ns = 0;
    for idx in 0..CORPUS {
        report.attempted += 1;
        let (module, opt_report, opt_ns) =
            match in_process(&mut off, state, idx, &mut CacheStats::default()) {
                Ok(r) => r,
                Err(e) => {
                    report.fail(e);
                    continue;
                }
            };
        opt_ns_all.push(opt_ns);
        e2e.opt_functions += opt_report.functions.len() as u64;
        let run_started = crate::thread_cpu_ns();
        let got = call_all(&module, &state.args);
        run_ns += crate::thread_cpu_ns() - run_started;
        match got {
            Ok(got) => {
                let same = got.len() == state.truth[idx].len()
                    && got.iter().zip(&state.truth[idx]).all(|(g, w)| g.1 == w.1);
                if !same {
                    report.fail(format!("module {idx}: optimized results differ"));
                }
                if first {
                    let pairs = state.truth[idx].iter().zip(&got);
                    e2e.stats.extend(pairs.map(|(w, g)| (w.2, g.2)));
                    texts.push(module.to_string());
                }
            }
            Err(e) => report.fail(format!("module {idx}: {e}")),
        }
    }
    (opt_ns_all, run_ns)
}

/// The traced run: an untraced and a traced half of the closed loop (for
/// `trace.overhead_pct`, the round trips and the server counters), then
/// in-process sweeps over a seeded zipf sequence of requests, each
/// replaying the driver's cache-hit path layer by layer.
fn traced(config: &Config, state: &State, report: &mut Report) {
    let half = config.seconds * LOOP_SHARE / 2.0;
    let untraced = closed_loop(state, config, half, false, 0, report);
    let before = server_counters(&state.server.endpoint);
    let looped = closed_loop(state, config, half, true, 1, report);
    let after = server_counters(&state.server.endpoint);

    let cdf = zipf_cdf(CORPUS, ZIPF_S);
    let mut rng = SplitMix64::new(config.seed ^ 0x4E91A7);
    let sequence: Vec<usize> = (0..REPLAY_REQUESTS)
        .map(|_| sample_zipf(&cdf, rng.next_f64()))
        .collect();
    let mut t = Tracer::new(true);
    let traced_sweep = |t: &mut Tracer, report: &mut Report, layers: Option<&mut Layers>| {
        let mut in_process_ns = Vec::with_capacity(sequence.len());
        let mut counted = Layers::default();
        for &idx in &sequence {
            report.attempted += 1;
            t.set_request(report.attempted);
            let (module, opt_report, opt_ns) =
                match t.span("request", |t| in_process(t, state, idx, &mut counted.cache)) {
                    Ok(r) => r,
                    Err(e) => {
                        report.fail(e);
                        continue;
                    }
                };
            in_process_ns.push(opt_ns);
            let input = abcd_frontend::compile(&state.corpus[idx]).expect("compiled a moment ago");
            let mut counts = replay::Counts::default();
            let replayed = t.span("replay", |t| {
                replay::module(
                    t,
                    &input,
                    None,
                    &OptimizerOptions::default(),
                    Some(&state.local),
                    &mut counts,
                )
            });
            counted.add_replay(&input, &module, &replayed, &module.to_string(), &counts);
            counted.add_driver(&opt_report);
        }
        if let Some(l) = layers {
            *l = counted;
        }
        in_process_ns
    };
    traced_sweep(&mut t, report, None);
    let start = t.totals();
    let mut layers = Layers::default();
    let mut in_process = traced_sweep(&mut t, report, Some(&mut layers));
    let one = t.since(&start);
    let mut sweeps = 1;
    let mut budget = Budget::new(config.seconds * (1.0 - LOOP_SHARE), 0);
    while budget.next_pass() {
        in_process.extend(traced_sweep(&mut t, report, None));
        sweeps += 1;
    }

    layers.passes = (sweeps * REPLAY_REQUESTS) as u64;
    layers.per_pass = REPLAY_REQUESTS as f64;
    layers.rtt_ns = looped.rtt_ns.clone();
    layers.server_overhead_ms = crate::percentile_ms(&mut layers.rtt_ns, 50.0)
        - crate::percentile_ms(&mut in_process, 50.0);
    layers.server = (
        after.0.saturating_sub(before.0),
        after.1.saturating_sub(before.1),
        after.2.saturating_sub(before.2),
    );
    layers.server_allocs = looped.allocs as f64 / looped.rtt_ns.len().max(1) as f64;
    let (mut base, mut traced) = (untraced.req_ns, looped.req_ns);
    layers.trace_overhead_pct = crate::overhead_pct(&mut base, &mut traced);
    layers.report(&t.since(&start), &one, report);
    report
        .notes
        .push(format!("traced_requests={}", traced.len()));
    t.merge(looped.tracer.expect("the traced loop records spans"));
    report.spans = Some(t);
}
