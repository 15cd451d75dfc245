//! The chaos soak — the service-level fault-injection harness.
//!
//! Thousands of requests from concurrent clients against a daemon with an
//! armed [`abcd::ChaosPlan`]: worker panics, disk-cache write faults
//! (short write, corrupt-on-write, ENOSPC), truncated and slow-trickled
//! response frames, and mid-request disconnects — all seeded, so a
//! failing run replays. The invariants, in order of importance:
//!
//! 1. **No wrong bytes, ever.** Every `ok` reply is byte-identical to the
//!    one-shot reference: the optimized module normally, the unoptimized
//!    module when the deadline failed open. Chaos may fail a request; it
//!    may never corrupt one.
//! 2. **No deadlock.** Every client thread finishes (each call is bounded
//!    by its own timeouts, so a hang surfaces as an error, not a freeze).
//! 3. **Healthy after the storm.** The daemon still serves correct
//!    replies, exposes its counters, and drains to a clean shutdown.
//! 4. **Crash debris is recovered.** Short writes strand `*.tmp` files in
//!    the cache dir exactly like `kill -9` mid-write would; a restart
//!    quarantines them and reports `recovered` in the stats.
//!
//! Scale via `CHAOS_SOAK_REQUESTS` (default 2000; CI smoke uses less) and
//! `CHAOS_SOAK_SHARDS` (default 2 — the storm runs against a sharded,
//! work-stealing server, with half the clients sending pipelined
//! protocol-v2 batches).

use abcd::{AnalysisCache, ChaosPlan, Optimizer, OptimizerOptions};
use abcd_frontend::compile;
use abcd_server::{CallOptions, Endpoint, RetryPolicy, ServerConfig};
use std::sync::Arc;

fn sock(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("abcdd-soak-{}-{tag}.sock", std::process::id()))
}

/// Silences the backtraces of *injected* panics (they are the test
/// working as intended); real panics still print.
fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        if !msg.contains("chaos: injected") {
            default_hook(info);
        }
    }));
}

/// A few distinct programs so the cache sees hits, misses and stores
/// under chaos, not one key hammered 2000 times.
fn programs() -> Vec<String> {
    (0..12)
        .map(|k| {
            format!(
                r#"
                fn scan{k}(a: int[]) -> int {{
                    let s: int = 0;
                    for (let i: int = 0; i < a.length; i = i + 1) {{ s = s + a[i] + {k}; }}
                    return s;
                }}
                fn main() -> int {{
                    let a: int[] = new int[{len}];
                    return scan{k}(a);
                }}
                "#,
                k = k,
                len = 4 + k,
            )
        })
        .collect()
}

struct Reference {
    source: String,
    optimized: String,
    unoptimized: String,
}

fn references() -> Vec<Reference> {
    programs()
        .into_iter()
        .map(|source| {
            let unoptimized = compile(&source).expect("compiles").to_string();
            let mut module = compile(&source).unwrap();
            Optimizer::new().optimize_module(&mut module, None);
            Reference {
                source,
                optimized: module.to_string(),
                unoptimized,
            }
        })
        .collect()
}

fn soak_requests() -> usize {
    std::env::var("CHAOS_SOAK_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000)
}

fn soak_shards() -> usize {
    std::env::var("CHAOS_SOAK_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
        .max(1)
}

#[test]
fn chaos_soak_no_wrong_bytes_no_deadlock_healthy_after_storm() {
    quiet_injected_panics();
    let socket = sock("storm");
    let cache_dir = std::env::temp_dir().join(format!(
        "abcdd-soak-cache-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos() as u64
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Disk sites look high, but they only fire on cache *stores* — one
    // per distinct function, ~two dozen in the whole soak — so they need
    // aggressive rates to matter. Per-request sites stay low.
    let plan = Arc::new(
        ChaosPlan::parse(
            "seed:42,worker_panic:25,disk_short:350,disk_corrupt:200,disk_full:150,\
             frame_truncate:25,frame_slow:10,disconnect:25",
        )
        .unwrap(),
    );
    let mut config = ServerConfig::new(&socket);
    config.shards = soak_shards();
    config.workers = 3; // per shard
    config.queue = 16;
    config.cache = Some(Arc::new(
        AnalysisCache::with_dir(&cache_dir, 1 << 20).unwrap(),
    ));
    config.io_timeout = Some(std::time::Duration::from_secs(5));
    config.stuck_after = std::time::Duration::from_secs(2);
    config.chaos = Some(Arc::clone(&plan));
    let handle = abcd_server::start(config).unwrap();

    let refs = references();
    let total = soak_requests();
    let clients = 8usize;
    let per_client = total.div_ceil(clients);

    // The storm. Each thread's outcome tally: (ok, fail_open, errors).
    let tallies: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let socket = socket.clone();
                let refs = &refs;
                scope.spawn(move || {
                    let mut tally = (0u64, 0u64, 0u64);
                    // Odd clients speak protocol v2: 4 requests per
                    // pipelined frame. Even clients stay on v1 singles,
                    // so both protocols share the storm (and the socket).
                    let batch = if c % 2 == 1 { 4 } else { 1 };
                    let endpoint = Endpoint::uds(&socket);
                    let options = OptimizerOptions::default();
                    let first = c * per_client;
                    let mut n = first;
                    while n < first + per_client {
                        let frame: Vec<usize> =
                            (n..(n + batch).min(first + per_client)).collect();
                        let calls: Vec<CallOptions> = frame
                            .iter()
                            .map(|&n| CallOptions {
                                metrics: n.is_multiple_of(7),
                                deterministic_metrics: true,
                                trace: n.is_multiple_of(11),
                                // A zero deadline trips deterministically;
                                // a tiny one races — both answers are
                                // legal, and the reply flag says which we
                                // got. In a batch this also exercises the
                                // partial-trip contract: one element fails
                                // open, its neighbors are unaffected.
                                deadline_ms: match n % 10 {
                                    3 => Some(0),
                                    7 => Some(5),
                                    _ => None,
                                },
                            })
                            .collect();
                        let retry = RetryPolicy {
                            max_attempts: 10,
                            overall_ms: Some(30_000),
                            io_timeout_ms: Some(5_000),
                            seed: n as u64,
                            ..RetryPolicy::default()
                        };
                        let items: Vec<_> = frame
                            .iter()
                            .zip(&calls)
                            .map(|(&n, call)| {
                                (
                                    (refs[n % refs.len()].source.as_str(), false),
                                    &options,
                                    None,
                                    *call,
                                )
                            })
                            .collect();
                        let replies = if items.len() == 1 {
                            // v1 single-request path, unchanged.
                            vec![abcd_server::optimize(
                                &socket, items[0].0, &options, None, &calls[0], &retry,
                            )]
                        } else {
                            abcd_server::optimize_batch_at(&endpoint, &items, &retry)
                                .unwrap_or_else(|e| {
                                    frame.iter().map(|_| Err(e.clone())).collect()
                                })
                        };
                        for (&n, reply) in frame.iter().zip(replies) {
                            let r = &refs[n % refs.len()];
                            match reply {
                                Ok(reply) => {
                                    // Invariant 1: never wrong bytes.
                                    if reply.deadline_exceeded {
                                        assert_eq!(
                                            reply.ir, r.unoptimized,
                                            "request {n}: fail-open reply must be the unoptimized module"
                                        );
                                        tally.1 += 1;
                                    } else {
                                        assert_eq!(
                                            reply.ir, r.optimized,
                                            "request {n}: served bytes differ from one-shot optimization"
                                        );
                                        tally.0 += 1;
                                    }
                                }
                                // Chaos is allowed to fail a request — the
                                // client sees a structured error or a
                                // broken connection, never a hang
                                // (timeouts above).
                                Err(_) => tally.2 += 1,
                            }
                        }
                        n += frame.len();
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok: u64 = tallies.iter().map(|t| t.0).sum();
    let fail_open: u64 = tallies.iter().map(|t| t.1).sum();
    let errors: u64 = tallies.iter().map(|t| t.2).sum();
    assert!(ok > 0, "some requests must succeed outright");
    assert!(
        fail_open > 0,
        "zero-deadline requests must fail open ({ok} ok / {errors} errors)"
    );
    assert!(errors > 0, "chaos at these rates must fail some requests");

    // Invariant 3: healthy after the storm. Chaos is still armed, so
    // probe until a clean request gets through.
    let mut healthy = false;
    for _ in 0..100 {
        if let Ok(reply) = abcd_server::optimize(
            &socket,
            (&refs[0].source, false),
            &OptimizerOptions::default(),
            None,
            &CallOptions::default(),
            &RetryPolicy {
                overall_ms: Some(10_000),
                io_timeout_ms: Some(2_000),
                ..RetryPolicy::default()
            },
        ) {
            assert_eq!(
                reply.ir, refs[0].optimized,
                "post-storm reply must be exact"
            );
            healthy = true;
            break;
        }
    }
    assert!(healthy, "daemon must serve correct replies after the storm");

    // Counters prove the chaos actually happened and was survived.
    let stats = loop {
        match abcd_server::stats(&socket) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    };
    let n = |k: &str| {
        stats
            .get(k)
            .and_then(abcd_server::json::Json::as_u64)
            .unwrap_or(0)
    };
    assert!(
        n("worker_restarts") > 0,
        "panics must have forced respawns: {stats:?}"
    );
    assert!(n("deadline_exceeded") > 0, "{stats:?}");
    let cache_doc = stats.get("cache").expect("cache stats");
    let cn = |k: &str| {
        cache_doc
            .get(k)
            .and_then(abcd_server::json::Json::as_u64)
            .unwrap_or(0)
    };
    assert!(
        cn("write_errors") > 0,
        "disk_short/disk_full must have fired: {stats:?}"
    );
    let panics = stats
        .get("chaos")
        .and_then(|chaos| chaos.get("worker_panic"))
        .and_then(abcd_server::json::Json::as_u64);
    assert!(
        panics.is_some_and(|n| n > 0),
        "stats must count the injected worker panics: {stats:?}"
    );
    let exposition = loop {
        match abcd_server::metrics(&socket, false) {
            Ok(e) => break e,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    };
    for needle in [
        "abcdd_worker_restarts_total",
        "abcdd_deadline_exceeded_total",
        "abcdd_cache_events_total{event=\"recovered\"}",
        "abcdd_cache_events_total{event=\"write_errors\"}",
        "abcdd_chaos_injections_total{site=\"worker_panic\"}",
    ] {
        assert!(
            exposition.contains(needle),
            "missing `{needle}` in exposition"
        );
    }
    assert!(plan.total_injected() > 0, "the plan must have fired");

    // Drain to exit 0 — shutdown itself can be hit by chaos, so retry
    // until the server has taken it (chaos may drop the reply to a
    // shutdown that took effect; retrying then would dial a dead socket
    // forever).
    while abcd_server::shutdown(&socket).is_err() && !handle.stopping() {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    handle.join();
    assert!(!socket.exists(), "socket removed after a chaotic drain");

    // Invariant 4: the short writes above strand `*.tmp` files exactly
    // like kill -9 mid-write; a fresh cache on the same dir must sweep
    // them into quarantine and still serve correct bytes.
    let stranded: Vec<_> = std::fs::read_dir(&cache_dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
        .collect();
    assert!(
        !stranded.is_empty(),
        "disk_short at 35% of stores over {total} requests must strand tmp files"
    );
    let reborn = AnalysisCache::with_dir(&cache_dir, 1 << 20).unwrap();
    assert!(
        reborn.stats().recovered >= stranded.len() as u64,
        "restart must quarantine the debris: {:?}",
        reborn.stats()
    );
    let leftovers = std::fs::read_dir(&cache_dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
        .count();
    assert_eq!(leftovers, 0, "no tmp debris after the recovery sweep");

    let socket2 = sock("after");
    let mut config2 = ServerConfig::new(&socket2);
    config2.cache = Some(Arc::new(reborn));
    let handle2 = abcd_server::start(config2).unwrap();
    for r in &refs {
        let reply = abcd_server::optimize(
            &socket2,
            (&r.source, false),
            &OptimizerOptions::default(),
            None,
            &CallOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(
            reply.ir, r.optimized,
            "post-recovery cache serves exact bytes"
        );
    }
    abcd_server::shutdown(&socket2).unwrap();
    handle2.join();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
