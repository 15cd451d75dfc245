//! End-to-end tests of the `abcdd` service: served output is
//! byte-identical to in-process optimization, concurrent clients agree,
//! the bounded queue sheds load with the documented `busy` reply, and
//! shutdown drains gracefully.

use abcd::{AnalysisCache, Optimizer, OptimizerOptions};
use abcd_frontend::compile;
use abcd_server::{Reply, ServerConfig};
use std::sync::Arc;

const PROGRAM: &str = r#"
    fn sum(a: int[]) -> int {
        let s: int = 0;
        for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
        return s;
    }
    fn main() -> int {
        let a: int[] = new int[8];
        return sum(a);
    }
"#;

fn sock(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("abcdd-test-{}-{tag}.sock", std::process::id()))
}

fn ping_eventually(socket: &std::path::Path) -> bool {
    for _ in 0..100 {
        if abcd_server::ping(socket) {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    false
}

fn local_reference(src: &str) -> String {
    let mut module = compile(src).expect("compiles");
    Optimizer::new().optimize_module(&mut module, None);
    module.to_string()
}

#[test]
fn served_output_is_byte_identical_to_local() {
    let socket = sock("roundtrip");
    let mut config = ServerConfig::new(&socket);
    config.cache = Some(Arc::new(AnalysisCache::in_memory(1 << 20)));
    let handle = abcd_server::start(config).unwrap();

    let reference = local_reference(PROGRAM);
    let options = OptimizerOptions::default();
    // Twice: the second request is a warm-cache replay and must not differ.
    for pass in 0..2 {
        let call = abcd_server::CallOptions {
            metrics: true,
            deterministic_metrics: true,
            trace: true,
            deadline_ms: None,
        };
        let reply = abcd_server::optimize(
            &socket,
            (PROGRAM, false),
            &options,
            None,
            &call,
            &abcd_server::RetryPolicy::default(),
        )
        .unwrap();
        assert!(!reply.deadline_exceeded, "no deadline was set");
        assert_eq!(reply.ir, reference, "pass {pass}");
        assert_eq!(reply.incidents, (0, 0), "pass {pass}");
        let trace = reply.trace.expect("trace requested");
        assert!(trace.starts_with("{\"schema\":\"abcd-trace/4\""), "{trace}");
        assert!(trace.contains("\"span\":\"request\""), "{trace}");
        let metrics = reply.metrics.expect("metrics requested");
        assert!(
            metrics.contains("\"schema\":\"abcd-metrics/8\""),
            "{metrics}"
        );
        assert!(metrics.contains("\"deterministic\":true"), "{metrics}");
        // Deterministic metrics zero the request latency.
        assert!(metrics.contains("\"request_latency_us\":0"), "{metrics}");
        if pass == 1 {
            assert!(reply.functions_from_cache > 0, "warm pass must replay");
        }
    }

    abcd_server::shutdown(&socket).unwrap();
    handle.join();
}

/// An `optimize` request with `"interprocedural": true` gets the bytes of
/// the one-shot optimizer, cold and warm, and the served module stays
/// sound for callers outside it: `get` assumes facts that `main`'s calls
/// satisfy, and called directly with an index they do not cover it traps
/// at the original check, as the unoptimized module does.
#[test]
fn served_interprocedural_module_is_local_and_guards_its_entries() {
    const GET: &str = "fn get(a: int[], i: int) -> int { return a[i]; }
        fn main() -> int { let a: int[] = new int[8]; return get(a, 3) + get(a, 0); }";
    let socket = sock("ipa");
    let mut config = ServerConfig::new(&socket);
    config.cache = Some(Arc::new(AnalysisCache::in_memory(1 << 20)));
    let handle = abcd_server::start(config).unwrap();

    let options = OptimizerOptions {
        interprocedural: true,
        ..OptimizerOptions::default()
    };
    let mut local = compile(GET).unwrap();
    Optimizer::with_options(options).optimize_module(&mut local, None);
    let local = local.to_string();
    assert!(local.contains("func @get$fast("), "{local}");
    let mut served = String::new();
    for pass in 0..2 {
        served = abcd_server::optimize(
            &socket,
            (GET, false),
            &options,
            None,
            &abcd_server::CallOptions::default(),
            &abcd_server::RetryPolicy::default(),
        )
        .unwrap()
        .ir;
        assert_eq!(served, local, "pass {pass}");
    }
    abcd_server::shutdown(&socket).unwrap();
    handle.join();

    let direct = |module: &abcd_ir::Module| {
        let mut vm = abcd_vm::Vm::new(module);
        let a = vm.alloc_int_array(&[1, 2, 3]);
        vm.call_by_name("get", &[a, abcd_vm::RtVal::Int(100)])
            .unwrap_err()
            .kind
    };
    let want = direct(&compile(GET).unwrap());
    assert!(
        matches!(
            want,
            abcd_vm::TrapKind::BoundsCheckFailed {
                index: 100,
                len: 3,
                ..
            }
        ),
        "{want:?}"
    );
    assert_eq!(direct(&abcd::parse_ir(&served).unwrap()), want);
}

#[test]
fn concurrent_clients_all_get_the_sequential_answer() {
    let socket = sock("concurrent");
    let mut config = ServerConfig::new(&socket);
    config.workers = 4;
    config.queue = 16;
    config.cache = Some(Arc::new(AnalysisCache::in_memory(1 << 20)));
    let handle = abcd_server::start(config).unwrap();

    let reference = local_reference(PROGRAM);
    let results: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let socket = socket.clone();
                scope.spawn(move || {
                    abcd_server::optimize(
                        &socket,
                        (PROGRAM, false),
                        &OptimizerOptions::default(),
                        None,
                        &abcd_server::CallOptions::default(),
                        &abcd_server::RetryPolicy {
                            max_attempts: 16,
                            ..abcd_server::RetryPolicy::default()
                        },
                    )
                    .unwrap()
                    .ir
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, ir) in results.iter().enumerate() {
        assert_eq!(
            *ir, reference,
            "client {i} must match the sequential answer"
        );
    }

    abcd_server::shutdown(&socket).unwrap();
    handle.join();
}

#[test]
fn full_queue_sheds_load_with_busy_and_recovers() {
    let socket = sock("busy");
    let mut config = ServerConfig::new(&socket);
    config.workers = 1;
    config.queue = 0; // rendezvous: a request is admitted only if a worker is free
    let handle = abcd_server::start(config).unwrap();
    // With a rendezvous queue a ping is admitted only while the worker sits
    // in recv(), so poll until the worker is demonstrably idle.
    assert!(ping_eventually(&socket), "server must come up");

    // Pin the only worker, then probe: the probe must be shed, not queued.
    let pin = std::thread::spawn({
        let socket = socket.clone();
        move || abcd_server::roundtrip(&socket, "{\"cmd\":\"sleep\",\"ms\":600}")
    });
    std::thread::sleep(std::time::Duration::from_millis(150));
    match abcd_server::roundtrip(&socket, "{\"cmd\":\"ping\"}").unwrap() {
        Reply::Busy { retry_after_ms, .. } => assert!(retry_after_ms > 0),
        other => panic!("expected busy, got {other:?}"),
    }
    assert!(matches!(pin.join().unwrap(), Ok(Reply::Ok(..))));

    // After the worker frees up, the identical retry succeeds — the
    // documented contract: busy is transient and side-effect free.
    assert!(ping_eventually(&socket));
    let stats = (0..100)
        .find_map(|_| {
            abcd_server::stats(&socket).ok().or_else(|| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                None
            })
        })
        .expect("stats should be admitted once the worker idles");
    let shed = stats
        .get("shed")
        .and_then(abcd_server::json::Json::as_u64)
        .unwrap();
    assert!(shed >= 1, "{stats:?}");

    while abcd_server::shutdown(&socket).is_err() {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    handle.join();
}

#[test]
fn malformed_requests_get_structured_errors_not_disconnects() {
    let socket = sock("errors");
    let handle = abcd_server::start(ServerConfig::new(&socket)).unwrap();

    for (request, needle) in [
        ("this is not json", "bad JSON"),
        ("{\"cmd\":\"launch\"}", "unknown cmd"),
        ("{\"no_cmd\":1}", "missing string field `cmd`"),
        ("{\"cmd\":\"optimize\"}", "`source` or `ir`"),
        (
            "{\"cmd\":\"optimize\",\"source\":\"fn main( {\"}",
            "compile",
        ),
        ("{\"cmd\":\"optimize\",\"ir\":\"garbage\"}", "parse"),
        // Parses, but uses `v1` before its definition.
        (
            "{\"cmd\":\"optimize\",\"ir\":\"func @main() -> int {\\nbb0:\\n    \
             v0: int = add v1, v1\\n    v1: int = const 1\\n    ret v0\\n}\\n\"}",
            "parse: main:",
        ),
        // Parses, but reads a local that is never written.
        (
            "{\"cmd\":\"optimize\",\"ir\":\"func @main() -> int {\\n  locals loc0: int\\n\
             bb0:\\n    v0: int = get loc0\\n    ret v0\\n}\\n\"}",
            "read before any write",
        ),
        (
            "{\"cmd\":\"optimize\",\"source\":\"fn main() -> int { return 0; }\",\
             \"options\":{\"warp_drive\":true}}",
            "unknown option",
        ),
        // Figure 6's split is no longer an optimizer option.
        (
            "{\"cmd\":\"optimize\",\"source\":\"fn main() -> int { return 0; }\",\
             \"options\":{\"classify_local\":true}}",
            "unknown option `classify_local`",
        ),
    ] {
        match abcd_server::roundtrip(&socket, request).unwrap() {
            Reply::Err(e) => assert!(e.contains(needle), "{request} → {e}"),
            other => panic!("{request} → {other:?}"),
        }
    }

    abcd_server::shutdown(&socket).unwrap();
    handle.join();
}

/// Tentpole: a tripped deadline fails OPEN — the reply is still `ok`,
/// the module is served exactly as the front end produced it (every
/// check kept), the incident is non-degraded, and the counters show up
/// in both `stats` and the Prometheus exposition.
#[test]
fn deadline_fails_open_with_all_checks_kept() {
    let socket = sock("deadline");
    let mut config = ServerConfig::new(&socket);
    config.cache = Some(Arc::new(AnalysisCache::in_memory(1 << 20)));
    let handle = abcd_server::start(config).unwrap();

    let unoptimized = compile(PROGRAM).expect("compiles").to_string();
    let call = abcd_server::CallOptions {
        metrics: true,
        deterministic_metrics: true,
        deadline_ms: Some(0), // trips at the first checkpoint, deterministically
        ..abcd_server::CallOptions::default()
    };
    let reply = abcd_server::optimize(
        &socket,
        (PROGRAM, false),
        &OptimizerOptions::default(),
        None,
        &call,
        &abcd_server::RetryPolicy::default(),
    )
    .unwrap();
    assert!(reply.deadline_exceeded, "deadline 0 must trip");
    assert_eq!(
        reply.ir, unoptimized,
        "fail-open serves the unoptimized module"
    );
    assert_eq!(reply.checks.1, 0, "nothing removed");
    assert_eq!(reply.checks.2, 0, "nothing hoisted");
    assert_eq!(reply.incidents, (1, 0), "one incident, zero degraded");
    let metrics = reply.metrics.expect("metrics requested");
    assert!(
        metrics.contains("\"kind\":\"deadline_exceeded\""),
        "{metrics}"
    );

    // A request under no deadline on the same server still optimizes.
    let normal = abcd_server::optimize(
        &socket,
        (PROGRAM, false),
        &OptimizerOptions::default(),
        None,
        &abcd_server::CallOptions::default(),
        &abcd_server::RetryPolicy::default(),
    )
    .unwrap();
    assert!(!normal.deadline_exceeded);
    assert_eq!(normal.ir, local_reference(PROGRAM));

    let stats = abcd_server::stats(&socket).unwrap();
    let n = |k: &str| stats.get(k).and_then(abcd_server::json::Json::as_u64);
    assert_eq!(n("deadline_exceeded"), Some(1), "{stats:?}");
    let exposition = abcd_server::metrics(&socket, false).unwrap();
    assert!(
        exposition.contains("abcdd_deadline_exceeded_total 1"),
        "{exposition}"
    );
    assert!(
        exposition.contains("abcdd_worker_restarts_total 0"),
        "{exposition}"
    );
    assert!(
        exposition.contains("abcdd_cache_events_total{event=\"recovered\"} 0"),
        "{exposition}"
    );

    abcd_server::shutdown(&socket).unwrap();
    handle.join();
}

/// The server-side default deadline (`--request-timeout`) applies to
/// requests that carry no `deadline_ms` of their own.
#[test]
fn server_default_request_timeout_fails_open() {
    let socket = sock("req-timeout");
    let mut config = ServerConfig::new(&socket);
    config.request_timeout = Some(std::time::Duration::from_millis(0));
    let handle = abcd_server::start(config).unwrap();

    let reply = abcd_server::optimize(
        &socket,
        (PROGRAM, false),
        &OptimizerOptions::default(),
        None,
        &abcd_server::CallOptions::default(),
        &abcd_server::RetryPolicy::default(),
    )
    .unwrap();
    assert!(reply.deadline_exceeded, "server default must apply");
    assert_eq!(reply.ir, compile(PROGRAM).unwrap().to_string());

    abcd_server::shutdown(&socket).unwrap();
    handle.join();
}

/// Supervision: a panicking worker is respawned, its in-flight request
/// fails with a structured error (not a silent hangup), and the daemon
/// keeps serving and still drains to a clean exit.
#[test]
fn panicked_workers_are_respawned_and_requests_fail_cleanly() {
    let socket = sock("respawn");
    let mut config = ServerConfig::new(&socket);
    config.workers = 2;
    config.chaos = Some(Arc::new(
        abcd::ChaosPlan::parse("seed:7,worker_panic:500").unwrap(),
    ));
    let handle = abcd_server::start(config).unwrap();
    assert!(ping_eventually(&socket), "server must come up");

    let (mut panics, mut pongs) = (0u32, 0u32);
    for _ in 0..40 {
        match abcd_server::roundtrip(&socket, "{\"cmd\":\"ping\"}") {
            Ok(Reply::Ok(..)) => pongs += 1,
            Ok(Reply::Err(e)) => {
                assert!(e.contains("worker panicked"), "{e}");
                panics += 1;
            }
            Ok(Reply::Busy { .. }) | Err(_) => {}
        }
    }
    assert!(panics > 0, "chaos at 50% must fire in 40 requests");
    assert!(pongs > 0, "respawned workers must keep serving");

    let stats = loop {
        match abcd_server::stats(&socket) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    };
    let restarts = stats
        .get("worker_restarts")
        .and_then(abcd_server::json::Json::as_u64)
        .unwrap();
    assert!(restarts >= u64::from(panics), "{stats:?}");

    while abcd_server::shutdown(&socket).is_err() {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    handle.join();
    assert!(!socket.exists(), "clean drain even under chaos");
}

/// Supervision: a worker stuck in compute past `stuck_after` first has
/// its connection kicked, then is detached and replaced, so capacity
/// recovers without waiting for the runaway request.
#[test]
fn stuck_workers_are_kicked_then_replaced() {
    let socket = sock("stuck");
    let mut config = ServerConfig::new(&socket);
    config.workers = 1;
    config.stuck_after = std::time::Duration::from_millis(100);
    let handle = abcd_server::start(config).unwrap();
    assert!(ping_eventually(&socket), "server must come up");

    // `sleep` stands in for a runaway optimization: not blocked on IO,
    // so only detachment can recover the worker's slot.
    let wedged = std::thread::spawn({
        let socket = socket.clone();
        move || abcd_server::roundtrip(&socket, "{\"cmd\":\"sleep\",\"ms\":1500}")
    });
    // Kick fires ~100ms in; detach+respawn fires ~400ms in. By 800ms a
    // fresh worker must be serving again even though the old one still
    // has ~700ms of wedge left.
    assert!(
        ping_eventually(&socket),
        "replacement worker must take over while the wedged one sleeps"
    );
    let wedged = wedged.join().unwrap();
    assert!(
        wedged.is_err(),
        "the kicked request must fail, not hang: {wedged:?}"
    );

    let stats = abcd_server::stats(&socket).unwrap();
    let n = |k: &str| {
        stats
            .get(k)
            .and_then(abcd_server::json::Json::as_u64)
            .unwrap()
    };
    assert!(n("worker_kicks") >= 1, "{stats:?}");
    assert!(n("worker_restarts") >= 1, "{stats:?}");

    abcd_server::shutdown(&socket).unwrap();
    handle.join();
}

#[test]
fn shutdown_drains_admitted_requests() {
    let socket = sock("drain");
    let mut config = ServerConfig::new(&socket);
    config.workers = 2;
    config.queue = 8;
    let handle = abcd_server::start(config).unwrap();

    // Occupy both workers, then shut down via a third connection; the
    // sleeps were admitted and must still be answered.
    let sleepers: Vec<_> = (0..2)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                abcd_server::roundtrip(&socket, "{\"cmd\":\"sleep\",\"ms\":400}")
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(100));
    abcd_server::shutdown(&socket).unwrap();
    for sleeper in sleepers {
        assert!(
            matches!(sleeper.join().unwrap(), Ok(Reply::Ok(..))),
            "admitted requests are drained, not dropped"
        );
    }
    handle.join();
    assert!(!socket.exists(), "socket file removed after join");
    assert!(!abcd_server::ping(&socket), "server is gone");
}

/// `abcd_loadgen::service_counters` and perfbench's `server_counters` read
/// these top-level `stats` keys and take a missing one as 0, so renaming a
/// series would silently zero the server columns of `BENCH_abcdd.json` and
/// perfbench's `server.*` rows.
#[test]
fn stats_has_every_key_loadgen_and_perfbench_read() {
    let socket = sock("stats-keys");
    let handle = abcd_server::start(ServerConfig::new(&socket)).unwrap();
    assert!(ping_eventually(&socket), "server must come up");
    let stats = abcd_server::stats(&socket).unwrap();
    for key in ["steals", "queued_replies", "shed", "deadline_exceeded"] {
        let value = stats.get(key).and_then(abcd_server::json::Json::as_u64);
        assert!(value.is_some(), "stats lacks `{key}`: {stats:?}");
    }
    abcd_server::shutdown(&socket).unwrap();
    handle.join();
}
