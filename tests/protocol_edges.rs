//! Protocol edge cases, driven over a raw socket so the bytes on the
//! wire are exactly what the test says: a truncated length prefix, a
//! frame at / one past the 64 MiB cap, a zero-length frame, and garbage
//! where a header should be — plus the protocol-v2 batch edges: the
//! empty batch, the at-cap batch frame, mixed v1/v2 clients on one
//! socket, and a deadline tripping for one batch element only. Every
//! case must produce a structured error (or a clean close for
//! unanswerable garbage) and leave the daemon healthy — no wedged
//! worker, no poisoned state. A multi-megabyte string field must also
//! parse in time linear in its size, so no frame under the cap can pin
//! a worker.

use abcd_server::proto::MAX_FRAME;
use abcd_server::ServerConfig;
use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;

fn sock(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("abcdd-edge-{}-{tag}.sock", std::process::id()))
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

/// Sends raw bytes, half-closes the write side, and returns everything
/// the server sends back (empty = the server just closed).
fn send_raw(socket: &std::path::Path, bytes: &[u8]) -> Vec<u8> {
    let mut conn = UnixStream::connect(socket).expect("connect");
    conn.write_all(bytes).expect("send");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = Vec::new();
    let _ = conn.read_to_end(&mut reply);
    reply
}

/// Parses one reply frame and asserts it is a structured `"ok":false`
/// error mentioning `needle`, followed by a clean close.
fn assert_error_frame(reply: &[u8], needle: &str, what: &str) {
    assert!(reply.len() >= 4, "{what}: no frame in reply");
    let len = u32::from_be_bytes(reply[..4].try_into().unwrap()) as usize;
    let body = &reply[4..];
    assert_eq!(
        body.len(),
        len,
        "{what}: frame length mismatch (no trailing bytes)"
    );
    let text = std::str::from_utf8(body).expect("reply is UTF-8");
    assert!(text.starts_with("{\"ok\":false"), "{what}: {text}");
    assert!(
        text.contains(needle),
        "{what}: expected `{needle}` in {text}"
    );
}

#[test]
fn hostile_frames_get_structured_errors_and_the_daemon_stays_healthy() {
    let socket = sock("hostile");
    let handle = abcd_server::start(ServerConfig::new(&socket)).unwrap();
    assert!(ping_eventually(&socket), "server must come up");

    // A length prefix cut off mid-header: unanswerable in-protocol (the
    // request never materialized), but it must still be answered with a
    // structured frame, not silence.
    let reply = send_raw(&socket, &[0x00, 0x01]);
    assert_error_frame(&reply, "bad frame", "truncated length prefix");

    // Zero-length frame: a valid header for an empty body, which is not
    // a JSON document.
    let reply = send_raw(&socket, &0u32.to_be_bytes());
    assert_error_frame(&reply, "bad JSON", "zero-length frame");

    // One byte over the cap: rejected from the prefix alone, before any
    // allocation; the advertised payload is never read.
    let reply = send_raw(&socket, &(MAX_FRAME + 1).to_be_bytes());
    assert_error_frame(&reply, "exceeds", "frame one over the cap");

    // Garbage where a header should be: decodes as a ~1.1 GiB length,
    // which the cap rejects the same way.
    let reply = send_raw(&socket, b"GARBAGE!then{\"cmd\":\"ping\"}");
    assert_error_frame(&reply, "exceeds", "garbage before a valid frame");

    // The daemon took all of that without wedging a worker.
    assert!(
        ping_eventually(&socket),
        "daemon healthy after hostile frames"
    );

    abcd_server::shutdown(&socket).unwrap();
    handle.join();
}

/// A frame of exactly `MAX_FRAME` bytes is read in full (the cap is
/// inclusive); its gibberish payload then fails *parsing*, proving the
/// frame layer accepted it.
#[test]
fn frame_exactly_at_the_cap_is_read_and_parse_rejected() {
    let socket = sock("atcap");
    let mut config = ServerConfig::new(&socket);
    // 64 MiB over a local socket pair can outlast the default frame
    // timeout on a slow CI box; give it room.
    config.io_timeout = Some(std::time::Duration::from_secs(120));
    let handle = abcd_server::start(config).unwrap();
    assert!(ping_eventually(&socket), "server must come up");

    let mut conn = UnixStream::connect(&socket).expect("connect");
    conn.write_all(&MAX_FRAME.to_be_bytes()).expect("header");
    // Stream the body in chunks so the test never holds 64 MiB twice.
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..(MAX_FRAME as usize / chunk.len()) {
        conn.write_all(&chunk).expect("body");
    }
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = Vec::new();
    let _ = conn.read_to_end(&mut reply);
    assert_error_frame(&reply, "bad JSON", "frame exactly at the cap");

    assert!(
        ping_eventually(&socket),
        "daemon healthy after a max-size frame"
    );
    abcd_server::shutdown(&socket).unwrap();
    handle.join();
}

/// The wire reader is linear in the frame size: an 8 MiB `source` string
/// parses in tens of milliseconds, where a reader that rescans the rest
/// of the frame per character would pin the worker for days. The 2 s
/// bound leaves ~100× margin either way.
#[test]
fn huge_string_field_parses_in_linear_time() {
    let line = "// plain run é 😀 \"quoted\" \\ back\n";
    let mut source = line.repeat((8 << 20) / line.len() + 1);
    source.push_str(SRC);
    assert!(source.len() >= 8 << 20);
    let payload = abcd_server::proto::optimize_request_json(
        (&source, false),
        &abcd::OptimizerOptions::default(),
        None,
        false,
        false,
        false,
        None,
    );
    let started = std::time::Instant::now();
    let request = abcd_server::proto::parse_request(payload.as_bytes()).expect("parses");
    let elapsed = started.elapsed();
    let abcd_server::proto::Request::Optimize(req) = request else {
        panic!("expected an optimize request");
    };
    assert_eq!(req.source.as_deref(), Some(source.as_str()));
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "parsing an 8 MiB string took {elapsed:?}"
    );
}

const SRC: &str = "fn f(a: int[]) -> int {
    let s: int = 0;
    for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
    return s;
}
fn main() -> int { return 0; }
";

fn optimize_body(deadline_ms: Option<u64>) -> String {
    abcd_server::proto::optimize_request_json(
        (SRC, false),
        &abcd::OptimizerOptions::default(),
        None,
        false,
        false,
        false,
        deadline_ms,
    )
}

/// The zero-request batch `[]` is in-protocol but meaningless: it must be
/// a structured error, not zero reply frames (which a pipelining client
/// could not distinguish from a hang).
#[test]
fn zero_request_batch_is_a_structured_error() {
    let socket = sock("emptybatch");
    let handle = abcd_server::start(ServerConfig::new(&socket)).unwrap();
    assert!(ping_eventually(&socket), "server must come up");

    let mut framed = Vec::new();
    abcd_server::proto::write_frame(&mut framed, b"[]").unwrap();
    let reply = send_raw(&socket, &framed);
    assert_error_frame(&reply, "empty batch", "zero-request batch");

    // Batching a non-optimize command is equally structured.
    let mut framed = Vec::new();
    abcd_server::proto::write_frame(&mut framed, b"[{\"cmd\":\"ping\"}]").unwrap();
    let reply = send_raw(&socket, &framed);
    assert_error_frame(&reply, "only `optimize`", "batched ping");

    assert!(ping_eventually(&socket), "daemon healthy after batch edges");
    abcd_server::shutdown(&socket).unwrap();
    handle.join();
}

/// A *valid* batch frame padded with JSON whitespace to exactly
/// `MAX_FRAME` bytes is accepted (the cap is inclusive for v2 too) and
/// streams its replies in order; one byte more is rejected from the
/// length prefix alone, before any allocation.
#[test]
fn batch_frame_at_and_over_the_cap() {
    let socket = sock("batchcap");
    let mut config = ServerConfig::new(&socket);
    // 64 MiB over a local socket can outlast the default frame timeout
    // on a slow CI box.
    config.io_timeout = Some(std::time::Duration::from_secs(120));
    let handle = abcd_server::start(config).unwrap();
    assert!(ping_eventually(&socket), "server must come up");

    // Over the cap: the prefix alone sinks it, batch or not.
    let reply = send_raw(&socket, &(MAX_FRAME + 1).to_be_bytes());
    assert_error_frame(&reply, "exceeds", "batch frame one over the cap");

    // At the cap: two real optimize elements plus whitespace padding.
    let bodies = vec![optimize_body(None), optimize_body(None)];
    let mut batch = abcd_server::proto::batch_request_json(&bodies);
    let pad = MAX_FRAME as usize - batch.len();
    batch.truncate(batch.len() - 1); // drop the closing ]
    batch.extend(std::iter::repeat_n(' ', pad));
    batch.push(']');
    assert_eq!(batch.len(), MAX_FRAME as usize);

    let mut conn = UnixStream::connect(&socket).expect("connect");
    abcd_server::proto::write_frame(&mut conn, batch.as_bytes()).expect("send");
    conn.shutdown(Shutdown::Write).expect("half-close");
    for i in 0..2 {
        let frame =
            abcd_server::proto::read_frame(&mut conn).unwrap_or_else(|e| panic!("reply {i}: {e}"));
        let text = std::str::from_utf8(&frame).unwrap();
        assert!(
            text.starts_with("{\"ok\":true"),
            "reply {i} of the at-cap batch: {text}"
        );
    }

    assert!(
        ping_eventually(&socket),
        "daemon healthy after at-cap batch"
    );
    abcd_server::shutdown(&socket).unwrap();
    handle.join();
}

/// v1 singles and v2 batches interleave on the same listener: neither
/// corrupts the other's framing, and batch replies come back in request
/// order with per-element results.
#[test]
fn mixed_version_clients_share_one_socket() {
    let socket = sock("mixed");
    let mut config = ServerConfig::new(&socket);
    config.workers = 2;
    let handle = abcd_server::start(config).unwrap();
    assert!(ping_eventually(&socket), "server must come up");

    let reference = {
        let mut module = abcd_frontend::compile(SRC).unwrap();
        abcd::Optimizer::new().optimize_module(&mut module, None);
        module.to_string()
    };

    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                // A v1 client: single frames, one per connection.
                for _ in 0..8 {
                    let reply = abcd_server::optimize(
                        &socket,
                        (SRC, false),
                        &abcd::OptimizerOptions::default(),
                        None,
                        &abcd_server::CallOptions::default(),
                        &abcd_server::RetryPolicy::default(),
                    )
                    .expect("v1 optimize");
                    assert_eq!(reply.ir, reference, "v1 bytes");
                }
            });
            scope.spawn(|| {
                // A v2 client: 4-element pipelined batches.
                let endpoint = abcd_server::Endpoint::uds(&socket);
                let options = abcd::OptimizerOptions::default();
                let call = abcd_server::CallOptions::default();
                let items: Vec<_> = (0..4)
                    .map(|_| ((SRC, false), &options, None, call))
                    .collect();
                for _ in 0..2 {
                    let replies = abcd_server::optimize_batch_at(
                        &endpoint,
                        &items,
                        &abcd_server::RetryPolicy::default(),
                    )
                    .expect("v2 batch");
                    assert_eq!(replies.len(), 4);
                    for (i, r) in replies.into_iter().enumerate() {
                        assert_eq!(r.expect("batch element").ir, reference, "v2 element {i}");
                    }
                }
            });
        }
    });

    abcd_server::shutdown(&socket).unwrap();
    handle.join();
}

/// A deadline trips for *one* element of a batch: that element fails
/// open (unoptimized module, `deadline_exceeded` flagged), its neighbors
/// are served optimized, and the stream stays in order.
#[test]
fn partial_batch_deadline_trip_fails_open_per_element() {
    let socket = sock("partialdeadline");
    let handle = abcd_server::start(ServerConfig::new(&socket)).unwrap();
    assert!(ping_eventually(&socket), "server must come up");

    let (optimized, unoptimized) = {
        let unopt = abcd_frontend::compile(SRC).unwrap().to_string();
        let mut module = abcd_frontend::compile(SRC).unwrap();
        abcd::Optimizer::new().optimize_module(&mut module, None);
        (module.to_string(), unopt)
    };

    let options = abcd::OptimizerOptions::default();
    let tripped = abcd_server::CallOptions {
        deadline_ms: Some(0), // already expired at admission: trips deterministically
        ..abcd_server::CallOptions::default()
    };
    let relaxed = abcd_server::CallOptions::default();
    let items = [
        ((SRC, false), &options, None, relaxed),
        ((SRC, false), &options, None, tripped),
        ((SRC, false), &options, None, relaxed),
    ];
    let replies = abcd_server::optimize_batch_at(
        &abcd_server::Endpoint::uds(&socket),
        &items,
        &abcd_server::RetryPolicy::default(),
    )
    .expect("batch");
    assert_eq!(replies.len(), 3);
    let replies: Vec<_> = replies
        .into_iter()
        .map(|r| r.expect("every element answers ok"))
        .collect();
    assert!(!replies[0].deadline_exceeded, "element 0 unaffected");
    assert_eq!(replies[0].ir, optimized, "element 0 optimized");
    assert!(replies[1].deadline_exceeded, "element 1 trips fail-open");
    assert_eq!(replies[1].ir, unoptimized, "element 1 unoptimized bytes");
    assert!(!replies[2].deadline_exceeded, "element 2 unaffected");
    assert_eq!(replies[2].ir, optimized, "element 2 optimized");

    abcd_server::shutdown(&socket).unwrap();
    handle.join();
}
