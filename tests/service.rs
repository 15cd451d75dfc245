//! Service-level tests for the multi-transport `abcdd`:
//!
//! - **Byte identity across transports and batching.** The differential
//!   guarantee does not care how a request arrived: UDS, TCP, v1 single
//!   or v2 batch, every `ok` reply is byte-identical to the one-shot
//!   pipeline.
//! - **Queue-position backpressure.** When every worker is busy and the
//!   queue is full the reply carries the backlog position, parsed by the
//!   client as non-terminal `Busy`.
//! - **Golden exposition.** `metrics --deterministic-metrics` is pinned
//!   byte-for-byte: schema drift must be deliberate.

use abcd::OptimizerOptions;
use abcd_server::{CallOptions, Endpoint, ListenAddr, Reply, RetryPolicy, ServerConfig};

fn sock(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("abcdd-service-{}-{tag}.sock", std::process::id()))
}

fn ping_eventually(endpoint: &Endpoint) -> bool {
    for _ in 0..100 {
        if abcd_server::ping_at(endpoint) {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    false
}

const SRC: &str = "fn f(a: int[], b: int[]) -> int {
    let s: int = 0;
    for (let i: int = 0; i < a.length; i = i + 1) {
        if (i < b.length) { s = s + a[i] * b[i]; }
    }
    return s;
}
fn main() -> int { return 0; }
";

fn one_shot_reference() -> String {
    let mut module = abcd_frontend::compile(SRC).unwrap();
    abcd::Optimizer::new().optimize_module(&mut module, None);
    module.to_string()
}

fn stat(endpoint: &Endpoint, key: &str) -> u64 {
    abcd_server::stats_at(endpoint)
        .ok()
        .and_then(|doc| doc.get(key).and_then(abcd_server::json::Json::as_u64))
        .unwrap_or(0)
}

#[test]
fn tcp_and_uds_serve_identical_bytes_including_batches() {
    let socket = sock("transports");
    let mut config = ServerConfig::new(&socket);
    config.listen.push(ListenAddr::Tcp("127.0.0.1:0".into()));
    config.workers = 2;
    let handle = abcd_server::start(config).unwrap();
    let uds = Endpoint::uds(handle.socket().unwrap());
    let tcp = Endpoint::Tcp(handle.tcp_addr().unwrap().to_string());
    assert!(ping_eventually(&uds), "UDS endpoint must come up");
    assert!(ping_eventually(&tcp), "TCP endpoint must come up");

    let reference = one_shot_reference();
    let options = OptimizerOptions::default();
    let call = CallOptions::default();
    for endpoint in [&uds, &tcp] {
        // v1 single.
        let single = abcd_server::optimize_at(
            endpoint,
            (SRC, false),
            &options,
            None,
            &call,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(single.ir, reference, "single via {}", endpoint.describe());
        // v2 batch of 5.
        let items: Vec<_> = (0..5)
            .map(|_| ((SRC, false), &options, None, call))
            .collect();
        let replies =
            abcd_server::optimize_batch_at(endpoint, &items, &RetryPolicy::default()).unwrap();
        assert_eq!(replies.len(), 5);
        for (i, r) in replies.into_iter().enumerate() {
            assert_eq!(
                r.unwrap().ir,
                reference,
                "batch element {i} via {}",
                endpoint.describe()
            );
        }
    }

    // Both transports hit the same run queue: the served counter saw all
    // 12 optimizes (plus pings).
    assert!(stat(&uds, "served") >= 12, "one run queue behind both");
    assert_eq!(stat(&uds, "workers"), 2);

    abcd_server::shutdown_at(&tcp).unwrap();
    handle.join();
    assert!(!socket.exists(), "socket removed on drain");
}

/// Saturating the server produces a queue-position reply — parsed by the
/// client as `Busy` with `queued` — and the identical retried request
/// succeeds once a worker frees up.
#[test]
fn saturated_queue_replies_with_queue_position() {
    let socket = sock("queuepos");
    let mut config = ServerConfig::new(&socket);
    config.workers = 2;
    config.queue = 0; // rendezvous: full the moment both workers are busy
    let handle = abcd_server::start(config).unwrap();
    let uds = Endpoint::uds(&socket);
    assert!(ping_eventually(&uds), "server must come up");

    std::thread::scope(|scope| {
        let pin_a =
            scope.spawn(|| abcd_server::roundtrip_at(&uds, "{\"cmd\":\"sleep\",\"ms\":500}", None));
        std::thread::sleep(std::time::Duration::from_millis(100));
        let pin_b =
            scope.spawn(|| abcd_server::roundtrip_at(&uds, "{\"cmd\":\"sleep\",\"ms\":500}", None));
        std::thread::sleep(std::time::Duration::from_millis(100));
        // Both workers pinned, zero queue: the probe is told its place.
        match abcd_server::roundtrip_at(&uds, "{\"cmd\":\"ping\"}", None).unwrap() {
            Reply::Busy {
                retry_after_ms,
                queued,
            } => {
                assert!(retry_after_ms > 0, "adaptive hint present");
                assert_eq!(queued, Some(3), "2 in flight + this one = position 3");
            }
            other => panic!("expected a queue-position reply, got {other:?}"),
        }
        assert!(matches!(pin_a.join().unwrap(), Ok(Reply::Ok(..))));
        assert!(matches!(pin_b.join().unwrap(), Ok(Reply::Ok(..))));
    });

    assert!(
        stat(&uds, "queued_replies") >= 1,
        "the backpressure counter saw it"
    );
    // The retry contract: the optimize client treats the queue-position
    // reply as transient and lands once capacity returns.
    let reply = abcd_server::optimize_at(
        &uds,
        (SRC, false),
        &OptimizerOptions::default(),
        None,
        &CallOptions::default(),
        &RetryPolicy::default(),
    )
    .unwrap();
    assert_eq!(reply.ir, one_shot_reference());

    abcd_server::shutdown_at(&uds).unwrap();
    handle.join();
}

/// Golden pin of the deterministic exposition: every sampled value is
/// zeroed, config gauges keep their real values, and the line set must
/// not drift silently.
#[test]
fn deterministic_exposition_matches_the_golden_file() {
    let socket = sock("golden");
    // One worker and no cache, so the regeneration command below produces
    // identical bytes on any host (worker counts are clamped to host CPUs
    // on the CLI path).
    let config = ServerConfig::new(&socket);
    let handle = abcd_server::start(config).unwrap();
    let uds = Endpoint::uds(&socket);
    assert!(ping_eventually(&uds), "server must come up");

    // Serve real traffic first: the point of the golden file is that the
    // *values* still read deterministically afterward.
    let _ = abcd_server::optimize_at(
        &uds,
        (SRC, false),
        &OptimizerOptions::default(),
        None,
        &CallOptions::default(),
        &RetryPolicy::default(),
    )
    .unwrap();

    let exposition = abcd_server::metrics_at(&uds, true).unwrap();
    let golden = include_str!("golden/exposition.txt");
    assert_eq!(
        exposition, golden,
        "deterministic exposition drifted from tests/golden/exposition.txt; \
         if the schema change is deliberate, regenerate with:\n  \
         mjc serve --socket /tmp/g.sock --no-cache --workers 1 &\n  \
         mjc client metrics --socket /tmp/g.sock --deterministic-metrics \
         > tests/golden/exposition.txt; \
         mjc client shutdown --socket /tmp/g.sock"
    );

    abcd_server::shutdown_at(&uds).unwrap();
    handle.join();
}
