//! Service-level tests for the sharded, multi-transport `abcdd`:
//!
//! - **Byte identity across transports and batching.** The differential
//!   guarantee does not care how a request arrived: UDS, TCP, v1 single
//!   or v2 batch, every `ok` reply is byte-identical to the one-shot
//!   pipeline.
//! - **Deterministic work stealing.** Two shards, one worker each: a
//!   long request pins one shard while its queue holds a short one; the
//!   other shard's worker must steal it (counted in `stats` and the
//!   exposition).
//! - **Queue-position backpressure.** When every shard is saturated the
//!   reply carries the backlog position, parsed by the client as
//!   non-terminal `Busy`.
//! - **Golden exposition.** `metrics --deterministic-metrics` is pinned
//!   byte-for-byte: schema drift must be deliberate.

use abcd::OptimizerOptions;
use abcd_server::{CallOptions, Endpoint, ListenAddr, Reply, RetryPolicy, ServerConfig};

fn sock(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("abcdd-shard-{}-{tag}.sock", std::process::id()))
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
    config.shards = 2;
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

    // Both transports hit the same shard set: the served counter saw all
    // 12 optimizes (plus pings).
    assert!(stat(&uds, "served") >= 12, "one shard set behind both");
    assert_eq!(stat(&uds, "shard_count"), 2);

    abcd_server::shutdown_at(&tcp).unwrap();
    handle.join();
    assert!(!socket.exists(), "socket removed on drain");
}

/// The deterministic steal witness: shard 0's worker is pinned by a long
/// sleep while a short job waits in its queue; shard 1's worker goes
/// idle and must steal it. (`sleep` is the test-only command the server
/// keeps for exactly this kind of scheduling test.)
#[test]
fn idle_shard_steals_the_queued_job_of_a_pinned_shard() {
    let socket = sock("steal");
    let mut config = ServerConfig::new(&socket);
    config.shards = 2;
    config.workers = 1; // per shard
    config.queue = 8;
    let handle = abcd_server::start(config).unwrap();
    let uds = Endpoint::uds(&socket);
    assert!(ping_eventually(&uds), "server must come up");

    std::thread::scope(|scope| {
        // Pin shard 0 (lowest id wins the least-loaded tie on an idle
        // server) for 600 ms.
        let pin = scope.spawn(|| abcd_server::roundtrip(&socket, "{\"cmd\":\"sleep\",\"ms\":600}"));
        std::thread::sleep(std::time::Duration::from_millis(150));
        // Occupy shard 1's worker for 150 ms, then queue two more short
        // sleeps: least-loaded placement puts them behind the pin and the
        // short job, one each.
        let short =
            scope.spawn(|| abcd_server::roundtrip(&socket, "{\"cmd\":\"sleep\",\"ms\":150}"));
        std::thread::sleep(std::time::Duration::from_millis(50));
        let queued_a =
            scope.spawn(|| abcd_server::roundtrip(&socket, "{\"cmd\":\"sleep\",\"ms\":10}"));
        let queued_b =
            scope.spawn(|| abcd_server::roundtrip(&socket, "{\"cmd\":\"sleep\",\"ms\":10}"));
        // Shard 1's worker frees up ~300 ms before shard 0's; the queued
        // jobs must not starve behind the pin.
        for h in [short, queued_a, queued_b, pin] {
            assert!(matches!(h.join().unwrap(), Ok(Reply::Ok(..))));
        }
    });

    assert!(
        stat(&uds, "steals") >= 1,
        "an idle shard must have stolen queued work: {:?}",
        abcd_server::stats_at(&uds)
    );
    // Each counter is stored once: `steals` is the sum of the per-shard
    // `stolen_from`, and `shed` counts the queue-position replies.
    let doc = abcd_server::stats_at(&uds).unwrap();
    let count = |key: &str| doc.get(key).and_then(abcd_server::json::Json::as_u64);
    let stolen_from: u64 = doc
        .get("shards")
        .and_then(abcd_server::json::Json::as_arr)
        .expect("per-shard stats")
        .iter()
        .map(|s| {
            s.get("stolen_from")
                .and_then(abcd_server::json::Json::as_u64)
                .unwrap()
        })
        .sum();
    assert_eq!(count("steals"), Some(stolen_from), "{doc:?}");
    assert_eq!(count("shed"), count("queued_replies"), "{doc:?}");
    // The exposition carries the same counter (non-deterministic mode).
    let exposition = abcd_server::metrics_at(&uds, false).unwrap();
    let steals_line = exposition
        .lines()
        .find(|l| l.starts_with("abcdd_steals_total"))
        .expect("abcdd_steals_total exposed");
    let n: u64 = steals_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(n >= 1, "exposition agrees: {steals_line}");

    abcd_server::shutdown_at(&uds).unwrap();
    handle.join();
}

/// Saturating every shard produces a queue-position reply — parsed by
/// the client as `Busy` with `queued` — and the identical retried
/// request succeeds once a worker frees up.
#[test]
fn saturated_shards_reply_with_queue_position() {
    let socket = sock("queuepos");
    let mut config = ServerConfig::new(&socket);
    config.shards = 2;
    config.workers = 1; // per shard
    config.queue = 0; // rendezvous: full the moment both workers are busy
    let handle = abcd_server::start(config).unwrap();
    let uds = Endpoint::uds(&socket);
    assert!(ping_eventually(&uds), "server must come up");

    std::thread::scope(|scope| {
        let pin_a =
            scope.spawn(|| abcd_server::roundtrip(&socket, "{\"cmd\":\"sleep\",\"ms\":500}"));
        std::thread::sleep(std::time::Duration::from_millis(100));
        let pin_b =
            scope.spawn(|| abcd_server::roundtrip(&socket, "{\"cmd\":\"sleep\",\"ms\":500}"));
        std::thread::sleep(std::time::Duration::from_millis(100));
        // Both workers pinned, zero queue: the probe is told its place.
        match abcd_server::roundtrip(&socket, "{\"cmd\":\"ping\"}").unwrap() {
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
/// zeroed, config gauges keep their real values, and the line set —
/// including the per-shard gauges — must not drift silently.
#[test]
fn deterministic_exposition_matches_the_golden_file() {
    let socket = sock("golden");
    let mut config = ServerConfig::new(&socket);
    config.shards = 2;
    // 1 worker/shard and no cache so the regeneration command below
    // produces identical bytes on any host (worker counts are clamped to
    // host CPUs on the CLI path).
    config.workers = 1;
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
         mjc serve --socket /tmp/g.sock --no-cache --shards 2 --workers 1 &\n  \
         mjc client metrics --socket /tmp/g.sock --deterministic-metrics \
         > tests/golden/exposition.txt; \
         mjc client shutdown --socket /tmp/g.sock"
    );

    abcd_server::shutdown_at(&uds).unwrap();
    handle.join();
}
