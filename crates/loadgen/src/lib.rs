//! `abcd-loadgen` — deterministic synthetic load for the `abcdd` service.
//!
//! The generator replays an **open-loop** schedule: arrival times come
//! from a seeded Poisson process and do not slow down when the server
//! does, so measured latency includes queueing — the number a service
//! owner actually cares about. Which module each request carries is drawn
//! from a **zipf** popularity distribution over a seeded synthetic corpus
//! whose per-module optimization cost is deliberately imbalanced (a
//! popular cheap head, a rare expensive tail), so a sharded server sees
//! realistic skew and must steal work to keep its tail latency flat.
//!
//! # Determinism
//!
//! Everything observable about the offered load is a pure function of the
//! seed: [`corpus`], [`zipf_cdf`], and [`schedule`] never read the clock,
//! the environment, or any global. Two runs with the same seed offer the
//! byte-identical request sequence at the same relative instants (the
//! *replies* still vary with scheduling noise — that is the measurement).
//!
//! # Differential verification
//!
//! With [`expected_outputs`] the runner checks every `ok` reply against
//! the one-shot pipeline (`mjc dump --stage opt` semantics): served IR
//! must be byte-identical, or — when the server failed open on a
//! deadline — byte-identical to the *unoptimized* compile. Batching,
//! stealing, and transport choice must all be invisible in the bytes.
//!
//! Results serialize as schema `abcd-bench-abcdd/1` (see [`bench_json`]),
//! gated in CI by `tools/bench_gate.py`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use abcd::{Optimizer, OptimizerOptions};
use abcd_server::{CallOptions, Endpoint, RetryPolicy};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The schema identifier pinned by `BENCH_abcdd.json` and the gate.
pub const SCHEMA: &str = "abcd-bench-abcdd/1";

/// The repository's seeded generator, re-exported for the load
/// generator's users.
pub use abcd_ir::SplitMix64;

/// Builds `n` self-contained MJ modules with deliberately imbalanced
/// optimization cost: index 0 (the zipf head) is the cheapest, and cost
/// grows with the index — every 4th module gets an extra helper function
/// and a deeper loop nest, so the rare tail is several times more
/// expensive to compile + analyze than the popular head.
pub fn corpus(seed: u64, n: usize) -> Vec<String> {
    let mut rng = SplitMix64::new(seed ^ 0xC0_4955);
    (0..n.max(1))
        .map(|i| {
            // 1 cheap helper for the head, up to 6 for the heavy tail.
            let helpers = 1 + (i / 4).min(5);
            let salt = rng.next_u64() % 1_000_000;
            let mut src = String::new();
            for h in 0..helpers {
                let _ = write!(
                    src,
                    "fn work{h}(a: int[], b: int[]) -> int {{
    let s: int = {salt};
    for (let i: int = 0; i < a.length; i = i + 1) {{
        for (let j: int = 0; j < b.length; j = j + 1) {{
            if (i + j < a.length) {{ s = s + a[i + j] - b[j]; }}
            if (j <= i) {{ s = s + b[i - j]; }}
        }}
        let k: int = a.length - 1;
        while (k >= i) {{
            s = s + a[k] - a[i] + {h};
            k = k - 1;
        }}
    }}
    return s;
}}
"
                );
            }
            src.push_str("fn main() -> int { return 0; }\n");
            src
        })
        .collect()
}

/// The zipf(s) cumulative distribution over ranks `1..=n`: index 0 is the
/// most popular. Returned as a CDF so sampling is one uniform draw plus a
/// binary search.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let n = n.max(1);
    let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Maps a uniform draw `u ∈ [0, 1)` through the CDF to a corpus index.
pub fn sample_zipf(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// One scheduled request: fire at `at_us` microseconds after scenario
/// start, carrying corpus module `corpus_idx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from scenario start, in microseconds.
    pub at_us: u64,
    /// Which corpus module this request optimizes.
    pub corpus_idx: usize,
}

/// The full offered load: `requests` open-loop Poisson arrivals at
/// `rate_per_sec`, each drawing its module zipf(s)-weighted from
/// `corpus_len` ranks. Pure in `seed` — no clock, no environment.
pub fn schedule(
    seed: u64,
    requests: usize,
    rate_per_sec: f64,
    corpus_len: usize,
    zipf_s: f64,
) -> Vec<Arrival> {
    let mut arrivals_rng = SplitMix64::new(seed ^ 0xA441_7A15);
    let mut pick_rng = SplitMix64::new(seed ^ 0x21_BF00);
    let cdf = zipf_cdf(corpus_len, zipf_s);
    let rate = rate_per_sec.max(1e-6);
    let mut at = 0.0f64;
    (0..requests)
        .map(|_| {
            // Exponential inter-arrival: -ln(1-u)/rate seconds.
            let u = arrivals_rng.next_f64();
            at += -(1.0 - u).ln() / rate;
            Arrival {
                at_us: (at * 1e6) as u64,
                corpus_idx: sample_zipf(&cdf, pick_rng.next_f64()),
            }
        })
        .collect()
}

/// Locally computed ground truth for the differential check: for each
/// corpus module, the optimized IR (what an `ok` reply must serve) and
/// the unoptimized compile (what a fail-open reply must serve).
pub struct Expected {
    /// `to_string()` of the optimized module, per corpus index.
    pub optimized: Vec<String>,
    /// `to_string()` of the compiled, unoptimized module.
    pub unoptimized: Vec<String>,
}

/// Runs the one-shot pipeline over the corpus — exactly the bytes
/// `mjc dump --stage opt` (respectively `--stage ir` post-compile) would
/// print, which the service contract promises to match.
pub fn expected_outputs(corpus: &[String], options: OptimizerOptions) -> Result<Expected, String> {
    let mut optimized = Vec::with_capacity(corpus.len());
    let mut unoptimized = Vec::with_capacity(corpus.len());
    for (i, src) in corpus.iter().enumerate() {
        let mut module =
            abcd_frontend::compile(src).map_err(|e| format!("corpus module {i}: {e}"))?;
        unoptimized.push(module.to_string());
        Optimizer::with_options(options).optimize_module(&mut module, None);
        optimized.push(module.to_string());
    }
    Ok(Expected {
        optimized,
        unoptimized,
    })
}

/// How to run one scenario.
pub struct ScenarioParams<'a> {
    /// Scenario name as it appears in the bench document, e.g.
    /// `uds_batch1`.
    pub name: &'a str,
    /// Where to send the traffic.
    pub endpoint: &'a Endpoint,
    /// Requests per pipelined frame (1 = protocol v1 single requests).
    pub batch: usize,
    /// Concurrent client threads replaying the schedule.
    pub clients: usize,
    /// The offered load (see [`schedule`]).
    pub schedule: &'a [Arrival],
    /// The corpus the schedule indexes into.
    pub corpus: &'a [String],
    /// Optimizer options each request carries.
    pub options: OptimizerOptions,
    /// Per-request deadline forwarded to the server, if any.
    pub deadline_ms: Option<u64>,
    /// When set, every reply is byte-checked against the one-shot
    /// pipeline; mismatches count as errors.
    pub expected: Option<&'a Expected>,
}

/// What one scenario measured.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name (`uds_batch8`, …).
    pub name: String,
    /// `uds` or `tcp`.
    pub transport: String,
    /// Requests per frame.
    pub batch: usize,
    /// Requests offered (= schedule length).
    pub requests_sent: u64,
    /// Replies served optimized and (if verifying) byte-identical.
    pub ok: u64,
    /// Replies served unoptimized under the fail-open deadline contract.
    pub fail_open: u64,
    /// Terminal failures: transport errors, exhausted retries, and — when
    /// verifying — differential mismatches.
    pub errors: u64,
    /// First few error messages, for the report.
    pub error_samples: Vec<String>,
    /// Wall clock for the whole scenario, microseconds.
    pub duration_us: u64,
    /// Per-request latency samples (scheduled arrival → reply), sorted
    /// ascending, microseconds. Open-loop: includes queueing delay.
    pub latency_us: Vec<u64>,
    /// Server-side counter deltas over the scenario, from `stats`:
    /// (steals, queued_replies, shed, deadline_exceeded).
    pub server_delta: (u64, u64, u64, u64),
}

impl ScenarioResult {
    /// Completed requests per second of scenario wall clock.
    pub fn throughput_rps(&self) -> f64 {
        let done = (self.ok + self.fail_open) as f64;
        done / (self.duration_us.max(1) as f64 / 1e6)
    }
}

/// The `p`-th percentile (0–100) of an ascending-sorted sample set.
pub fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    // Nearest-rank: index = ceil(p/100 * n) - 1. The epsilon keeps float
    // noise (99.9/100*1000 = 999.0000…01) from bumping the rank.
    let rank = ((p / 100.0) * sorted_us.len() as f64 - 1e-9).ceil() as usize;
    sorted_us[rank.saturating_sub(1).min(sorted_us.len() - 1)]
}

/// Reads the (steals, queued_replies, shed, deadline_exceeded) counters
/// from a `stats` reply; absent fields (an older server) read as zero.
fn service_counters(endpoint: &Endpoint) -> (u64, u64, u64, u64) {
    use abcd_server::json::Json;
    match abcd_server::stats_at(endpoint) {
        Ok(doc) => {
            let n = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
            (
                n("steals"),
                n("queued_replies"),
                n("shed"),
                n("deadline_exceeded"),
            )
        }
        Err(_) => (0, 0, 0, 0),
    }
}

/// Replays `params.schedule` against the endpoint and measures it.
///
/// Open-loop: each request (or batch of `batch` consecutive requests)
/// fires at its scheduled offset from scenario start regardless of how
/// the server is doing; latency is measured from the *scheduled* arrival
/// to the reply, so server queueing shows up in the percentiles. Batches
/// fire when their last member has arrived. The schedule is split
/// round-robin across `clients` threads.
pub fn run_scenario(params: &ScenarioParams) -> Result<ScenarioResult, String> {
    struct Tally {
        ok: u64,
        fail_open: u64,
        errors: u64,
        error_samples: Vec<String>,
        latency_us: Vec<u64>,
    }
    let retry = RetryPolicy {
        max_attempts: 12,
        cap_ms: 200,
        seed: 0x10adu64,
        ..RetryPolicy::default()
    };
    let call = CallOptions {
        deadline_ms: params.deadline_ms,
        ..CallOptions::default()
    };
    let batch = params.batch.max(1);
    // Consecutive schedule entries share a frame; a batch is "ready" when
    // its newest member has arrived.
    let frames: Vec<&[Arrival]> = params.schedule.chunks(batch).collect();
    let tally = Mutex::new(Tally {
        ok: 0,
        fail_open: 0,
        errors: 0,
        error_samples: Vec::new(),
        latency_us: Vec::with_capacity(params.schedule.len()),
    });
    let before = service_counters(params.endpoint);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..params.clients.max(1) {
            let tally = &tally;
            let frames = &frames;
            let retry = &retry;
            scope.spawn(move || {
                for frame in frames
                    .iter()
                    .skip(client)
                    .step_by(params.clients.max(1))
                {
                    let fire_at = Duration::from_micros(frame.last().map_or(0, |a| a.at_us));
                    if let Some(wait) = fire_at.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let items: Vec<_> = frame
                        .iter()
                        .map(|a| {
                            (
                                (params.corpus[a.corpus_idx].as_str(), false),
                                &params.options,
                                None,
                                call,
                            )
                        })
                        .collect();
                    let outcome = if items.len() == 1 {
                        abcd_server::optimize_at(
                            params.endpoint,
                            items[0].0,
                            items[0].1,
                            items[0].2,
                            &items[0].3,
                            retry,
                        )
                        .map(|r| vec![Ok(r)])
                    } else {
                        abcd_server::optimize_batch_at(params.endpoint, &items, retry)
                    };
                    let lat = t0.elapsed().saturating_sub(fire_at).as_micros() as u64;
                    let mut t = tally.lock().unwrap_or_else(|p| p.into_inner());
                    match outcome {
                        Err(e) => {
                            // The whole frame failed (transport error or
                            // retries exhausted): every member errors.
                            t.errors += frame.len() as u64;
                            if t.error_samples.len() < 5 {
                                t.error_samples.push(e);
                            }
                        }
                        Ok(replies) => {
                            for (arrival, reply) in frame.iter().zip(replies) {
                                match reply {
                                    Err(e) => {
                                        t.errors += 1;
                                        if t.error_samples.len() < 5 {
                                            t.error_samples.push(e);
                                        }
                                    }
                                    Ok(opt) => {
                                        let mismatch =
                                            params.expected.and_then(|exp| {
                                                let want = if opt.deadline_exceeded {
                                                    &exp.unoptimized[arrival.corpus_idx]
                                                } else {
                                                    &exp.optimized[arrival.corpus_idx]
                                                };
                                                (opt.ir != *want).then(|| {
                                                    format!(
                                                        "module {}: served IR differs from one-shot ({})",
                                                        arrival.corpus_idx,
                                                        if opt.deadline_exceeded {
                                                            "fail-open"
                                                        } else {
                                                            "optimized"
                                                        }
                                                    )
                                                })
                                            });
                                        match mismatch {
                                            Some(e) => {
                                                t.errors += 1;
                                                if t.error_samples.len() < 5 {
                                                    t.error_samples.push(e);
                                                }
                                            }
                                            None if opt.deadline_exceeded => t.fail_open += 1,
                                            None => t.ok += 1,
                                        }
                                        t.latency_us.push(lat);
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
    });
    let duration_us = t0.elapsed().as_micros() as u64;
    let after = service_counters(params.endpoint);
    let mut tally = tally.into_inner().unwrap_or_else(|p| p.into_inner());
    tally.latency_us.sort_unstable();
    Ok(ScenarioResult {
        name: params.name.to_string(),
        transport: match params.endpoint {
            Endpoint::Uds(_) => "uds".to_string(),
            Endpoint::Tcp(_) => "tcp".to_string(),
        },
        batch,
        requests_sent: params.schedule.len() as u64,
        ok: tally.ok,
        fail_open: tally.fail_open,
        errors: tally.errors,
        error_samples: tally.error_samples,
        duration_us,
        latency_us: tally.latency_us,
        server_delta: (
            after.0.saturating_sub(before.0),
            after.1.saturating_sub(before.1),
            after.2.saturating_sub(before.2),
            after.3.saturating_sub(before.3),
        ),
    })
}

/// Global parameters recorded alongside the per-scenario results so the
/// gate can assert the regenerated run offered the identical load.
#[derive(Debug, Clone)]
pub struct BenchParams {
    /// Master seed for corpus + schedule.
    pub seed: u64,
    /// Requests per scenario.
    pub requests: usize,
    /// Client threads.
    pub clients: usize,
    /// Offered arrival rate, per second.
    pub rate_per_sec: f64,
    /// Zipf skew.
    pub zipf_s: f64,
    /// Corpus size.
    pub corpus: usize,
    /// Server shards (0 = external server, unknown).
    pub shards: usize,
    /// Workers per shard (0 = external server, unknown).
    pub workers_per_shard: usize,
    /// Whether every reply was byte-checked against the one-shot pipeline.
    pub verified: bool,
}

/// Serializes the run as a schema-pinned `abcd-bench-abcdd/1` document.
pub fn bench_json(params: &BenchParams, results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"params\": {{\"seed\": {}, \"requests\": {}, \"clients\": {}, \"rate_per_sec\": {}, \"zipf_s\": {}, \"corpus\": {}, \"shards\": {}, \"workers_per_shard\": {}, \"verified\": {}}},\n  \"scenarios\": [",
        params.seed,
        params.requests,
        params.clients,
        params.rate_per_sec,
        params.zipf_s,
        params.corpus,
        params.shards,
        params.workers_per_shard,
        params.verified,
    );
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"transport\": \"{}\", \"batch\": {}, \"requests_sent\": {}, \"ok\": {}, \"fail_open\": {}, \"errors\": {}, \"throughput_rps\": {:.1}, \"latency_us\": {{\"p50\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}}, \"server\": {{\"steals\": {}, \"queued_replies\": {}, \"shed\": {}, \"deadline_exceeded\": {}}}}}{comma}",
            r.name,
            r.transport,
            r.batch,
            r.requests_sent,
            r.ok,
            r.fail_open,
            r.errors,
            r.throughput_rps(),
            percentile(&r.latency_us, 50.0),
            percentile(&r.latency_us, 99.0),
            percentile(&r.latency_us, 99.9),
            r.latency_us.last().copied().unwrap_or(0),
            r.server_delta.0,
            r.server_delta.1,
            r.server_delta.2,
            r.server_delta.3,
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_head_heavy() {
        let cdf = zipf_cdf(24, 1.2);
        assert_eq!(cdf.len(), 24);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
        assert!(cdf[0] > 1.0 / 24.0 * 3.0, "rank 1 well above uniform");
        assert_eq!(sample_zipf(&cdf, 0.0), 0);
        assert_eq!(sample_zipf(&cdf, 0.999_999_9), 23);
    }

    #[test]
    fn corpus_cost_grows_with_index() {
        let c = corpus(7, 24);
        assert_eq!(c.len(), 24);
        assert!(
            c[23].len() > 2 * c[0].len(),
            "tail modules carry more functions than the head"
        );
        for (i, src) in c.iter().enumerate() {
            abcd_frontend::compile(src).unwrap_or_else(|e| panic!("module {i}: {e}"));
        }
    }

    #[test]
    fn percentiles_pick_sane_ranks() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&v, 99.9), 999);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
