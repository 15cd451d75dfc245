//! `loadgen` — replay deterministic synthetic traffic against `abcdd`.
//!
//! Default mode starts an in-process server listening on both a
//! Unix-domain socket and a loopback TCP port, replays the identical
//! seeded schedule through the four `{uds,tcp} × {batch 1,8}` scenarios,
//! and writes the measured trajectory to `BENCH_abcdd.json`
//! (schema `abcd-bench-abcdd/2`). `--connect` instead targets an
//! already-running server with a single scenario.

use abcd::OptimizerOptions;
use abcd_loadgen::{
    bench_json, corpus, expected_outputs, run_scenario, schedule, BenchParams, ScenarioParams,
};
use abcd_server::{Endpoint, ListenAddr, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;

const HELP: &str = "\
loadgen — deterministic synthetic load for the abcdd service

USAGE:
    loadgen [options]                      in-process {uds,tcp}x{1,8} matrix
    loadgen --connect ADDR [--batch N]     one scenario vs a running server

OPTIONS:
    --out FILE         where to write the bench document
                       (default BENCH_abcdd.json)
    --seed N           master seed for corpus + schedule (default 42;
                       never wall-clock seeded — same seed, same offered
                       load, byte for byte)
    --requests N       requests per scenario (default 240)
    --clients N        concurrent client threads (default 4)
    --rate N           offered arrival rate per second, open loop
                       (default 150)
    --zipf-s X         zipf skew over the corpus (default 1.2)
    --corpus N         synthetic corpus size (default 24)
    --workers N        (in-process server) workers (default 2)
    --queue N          (in-process server) queue slots (default 64)
    --deadline MS      per-request deadline; tripping it fails open
    --verify           byte-check every reply against the one-shot
                       pipeline (differential guarantee; mismatch = error)
    --connect ADDR     external server: uds:/path.sock or tcp:host:port
    --batch N          (with --connect) requests per pipelined frame
                       (default 1)
    --help             this text

Exit code 0 when every scenario completed with zero errors, 1 otherwise.
";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return Ok(ExitCode::SUCCESS);
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" | "--seed" | "--requests" | "--clients" | "--rate" | "--zipf-s"
            | "--corpus" | "--workers" | "--queue" | "--deadline" | "--connect" | "--batch" => {
                i += 1
            }
            "--verify" => {}
            other => return Err(format!("unknown flag `{other}`\n{HELP}")),
        }
        i += 1;
    }
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        match value_of(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("`{flag}` needs a number")),
        }
    };
    let fnum = |flag: &str, default: f64| -> Result<f64, String> {
        match value_of(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("`{flag}` needs a number")),
        }
    };

    let seed = num("--seed", 42)?;
    let requests = num("--requests", 240)? as usize;
    let clients = (num("--clients", 4)? as usize).max(1);
    let rate = fnum("--rate", 150.0)?;
    let zipf_s = fnum("--zipf-s", 1.2)?;
    let corpus_len = (num("--corpus", 24)? as usize).max(1);
    let workers = (num("--workers", 2)? as usize).max(1);
    let queue = num("--queue", 64)? as usize;
    let deadline_ms = value_of("--deadline")
        .map(|v| v.parse().map_err(|_| "`--deadline` needs milliseconds"))
        .transpose()?;
    let out = value_of("--out").unwrap_or("BENCH_abcdd.json");

    let modules = corpus(seed, corpus_len);
    let options = OptimizerOptions::default();
    let expected = if args.iter().any(|a| a == "--verify") {
        eprintln!("loadgen: computing one-shot ground truth for {corpus_len} modules");
        Some(expected_outputs(&modules, options)?)
    } else {
        None
    };
    let offered = schedule(seed, requests, rate, corpus_len, zipf_s);

    let mut results = Vec::new();
    let workers_doc;
    if let Some(spec) = value_of("--connect") {
        // External server: one scenario, transport taken from the spec.
        let endpoint = Endpoint::parse(spec).map_err(|e| format!("--connect: {e}"))?;
        let batch = (num("--batch", 1)? as usize).max(1);
        let name = format!(
            "{}_batch{batch}",
            match &endpoint {
                Endpoint::Uds(_) => "uds",
                Endpoint::Tcp(_) => "tcp",
            }
        );
        eprintln!("loadgen: {name} vs {} …", endpoint.describe());
        results.push(run_scenario(&ScenarioParams {
            name: &name,
            endpoint: &endpoint,
            batch,
            clients,
            schedule: &offered,
            corpus: &modules,
            options,
            deadline_ms,
            expected: expected.as_ref(),
        })?);
        workers_doc = 0; // unknown: not our server
    } else {
        // In-process matrix: one server on UDS + loopback TCP.
        let sock = std::env::temp_dir().join(format!("loadgen-{}.sock", std::process::id()));
        let mut config = ServerConfig::new(&sock);
        config.listen.push(ListenAddr::Tcp("127.0.0.1:0".into()));
        config.workers = workers;
        config.queue = queue;
        // The in-memory cache `abcdd` sets up by default.
        config.cache = Some(Arc::new(abcd::AnalysisCache::in_memory(
            abcd::cache::DEFAULT_CACHE_BYTES,
        )));
        let handle = abcd_server::start(config).map_err(|e| format!("bind: {e}"))?;
        let uds = Endpoint::uds(handle.socket().ok_or("no UDS endpoint")?);
        let tcp = Endpoint::Tcp(handle.tcp_addr().ok_or("no TCP endpoint")?.to_string());
        for (transport, endpoint) in [("uds", &uds), ("tcp", &tcp)] {
            for batch in [1usize, 8] {
                let name = format!("{transport}_batch{batch}");
                eprintln!("loadgen: {name} vs {} …", endpoint.describe());
                results.push(run_scenario(&ScenarioParams {
                    name: &name,
                    endpoint,
                    batch,
                    clients,
                    schedule: &offered,
                    corpus: &modules,
                    options,
                    deadline_ms,
                    expected: expected.as_ref(),
                })?);
            }
        }
        abcd_server::shutdown_at(&uds)?;
        handle.join();
        workers_doc = workers;
    }

    let params = BenchParams {
        seed,
        requests,
        clients,
        rate_per_sec: rate,
        zipf_s,
        corpus: corpus_len,
        workers: workers_doc,
        verified: expected.is_some(),
    };
    let doc = bench_json(&params, &results);
    std::fs::write(out, &doc).map_err(|e| format!("{out}: {e}"))?;

    let mut failed = false;
    for r in &results {
        eprintln!(
            "loadgen: {:>10}  sent {:>5}  ok {:>5}  fail_open {:>3}  errors {:>3}  {:>7.1} rps  p50 {:>6}us  p99 {:>7}us  p999 {:>7}us  queued {:>3}",
            r.name,
            r.requests_sent,
            r.ok,
            r.fail_open,
            r.errors,
            r.throughput_rps(),
            abcd_loadgen::percentile(&r.latency_us, 50.0),
            abcd_loadgen::percentile(&r.latency_us, 99.0),
            abcd_loadgen::percentile(&r.latency_us, 99.9),
            r.server_delta.0,
        );
        for e in &r.error_samples {
            eprintln!("loadgen:   error: {e}");
        }
        failed |= r.errors > 0;
    }
    eprintln!("loadgen: wrote {out}");
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
