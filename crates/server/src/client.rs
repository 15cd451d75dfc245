//! A blocking client for the `abcdd` wire protocol, over UDS or TCP.
//!
//! One call = one connection = one request frame, mirroring the server's
//! admission model; a protocol-v2 batch call reads its N streamed reply
//! frames back on the same connection. The only non-terminal failure is
//! `busy` — including the sharded server's queue-position replies —
//! surfaced as [`Reply::Busy`] so callers can implement the documented
//! retry contract; [`RetryPolicy`] implements it (exponential backoff with
//! jitter, floored by the server's adaptive hint, bounded by an attempt
//! cap and an overall deadline) for callers that just want the right
//! behavior.
//!
//! The `&Path` entry points ([`optimize`], [`ping`], [`stats`], …) are the
//! original UDS API and remain unchanged; each has an `_at` twin taking an
//! [`Endpoint`] that also speaks TCP.

use crate::json::Json;
use crate::proto::{batch_request_json, optimize_request_json, read_frame, write_frame};
use crate::transport::{Conn, Endpoint};
use abcd::OptimizerOptions;
use abcd_ir::SplitMix64;
use abcd_vm::Profile;
use std::path::Path;
use std::time::{Duration, Instant};

/// A parsed server reply.
#[derive(Debug)]
pub enum Reply {
    /// The request succeeded; the parsed response document plus the raw
    /// reply text (the `metrics` field must be extracted verbatim — a
    /// re-serialization would not be byte-comparable with batch `mjc`).
    Ok(Json, String),
    /// Every shard's admission queue was full; retry after the delay.
    Busy {
        /// Advisory back-off before resending the identical request —
        /// adaptive: the server scales it with the backlog it shed at.
        retry_after_ms: u64,
        /// Queue position the request would have held (sharded servers
        /// only): patience can scale with the backlog instead of being
        /// guessed. `None` from pre-shard `busy` replies.
        queued: Option<u64>,
    },
    /// A terminal, structured error.
    Err(String),
}

/// Per-request observation knobs for [`optimize`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CallOptions {
    /// Attach the `abcd-metrics/7` blob to the reply.
    pub metrics: bool,
    /// Zero all durations in the metrics/trace blobs.
    pub deterministic_metrics: bool,
    /// Attach the `abcd-trace/4` JSONL document to the reply.
    pub trace: bool,
    /// Per-request deadline, in milliseconds from server admission;
    /// `None` inherits the server's default. Tripping it fails open.
    pub deadline_ms: Option<u64>,
}

/// How [`optimize`] retries `busy` replies and bounds its own time.
///
/// Each busy reply sleeps `max(server_hint, jittered_backoff)` where the
/// backoff doubles from [`base_ms`](RetryPolicy::base_ms) up to
/// [`cap_ms`](RetryPolicy::cap_ms) and the jitter draws uniformly from
/// `[delay/2, delay]` — deterministic per ([`seed`](RetryPolicy::seed),
/// attempt), so tests can replay a schedule. The overall deadline covers
/// everything: connects, frames, and the sleeps between attempts.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// First backoff delay.
    pub base_ms: u64,
    /// Ceiling on the exponential backoff component.
    pub cap_ms: u64,
    /// Overall client-side deadline across all attempts and sleeps.
    pub overall_ms: Option<u64>,
    /// Socket read/write timeout per connection (per-frame bound).
    pub io_timeout_ms: Option<u64>,
    /// Jitter seed; same seed + same attempt = same sleep.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_ms: 5,
            cap_ms: 250,
            overall_ms: None,
            io_timeout_ms: None,
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// A policy bounded end-to-end by `timeout_ms`: it is both the
    /// per-frame socket timeout and the overall deadline (`mjc client
    /// --timeout` maps here).
    pub fn with_timeout_ms(timeout_ms: u64) -> RetryPolicy {
        RetryPolicy {
            overall_ms: Some(timeout_ms),
            io_timeout_ms: Some(timeout_ms),
            ..RetryPolicy::default()
        }
    }

    /// The sleep before retry number `attempt` (1-based), given the
    /// server's advisory hint.
    fn backoff_ms(&self, attempt: u32, server_hint_ms: u64) -> u64 {
        let doubled = self
            .base_ms
            .saturating_mul(1u64 << u64::from(attempt.saturating_sub(1)).min(16));
        let delay = doubled.min(self.cap_ms);
        jitter(self.seed, attempt, delay).max(server_hint_ms)
    }
}

/// Deterministic jitter: uniform in `[delay/2, delay]` via the SplitMix64
/// finalizer on `(seed, attempt)`.
fn jitter(seed: u64, attempt: u32, delay: u64) -> u64 {
    if delay <= 1 {
        return delay;
    }
    let z = SplitMix64::mix(seed ^ u64::from(attempt).wrapping_mul(SplitMix64::GAMMA));
    let floor = delay / 2;
    floor + z % (delay - floor + 1)
}

/// The successful payload of an `optimize` request.
#[derive(Debug)]
pub struct Optimized {
    /// The optimized module, printed as canonical textual IR.
    pub ir: String,
    /// Static checks seen / fully removed / hoisted.
    pub checks: (u64, u64, u64),
    /// Total and degraded incident counts.
    pub incidents: (u64, u64),
    /// Functions replayed from the analysis cache.
    pub functions_from_cache: u64,
    /// True when the server blew the deadline and failed open: `ir` is
    /// the compiled but unoptimized module, every check kept.
    pub deadline_exceeded: bool,
    /// The `abcd-metrics/7` document, verbatim as the server emitted it,
    /// when requested.
    pub metrics: Option<String>,
    /// The `abcd-trace/4` JSONL document, when requested.
    pub trace: Option<String>,
}

/// Parses one reply frame into a [`Reply`].
fn parse_reply(payload: &[u8]) -> Result<Reply, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "reply is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("bad reply: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(Reply::Ok(doc, text.to_string()));
    }
    if doc.get("busy").and_then(Json::as_bool) == Some(true) {
        return Ok(Reply::Busy {
            retry_after_ms: doc
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .unwrap_or(25),
            queued: doc.get("queued").and_then(Json::as_u64),
        });
    }
    Ok(Reply::Err(
        doc.get("error")
            .and_then(Json::as_str)
            .unwrap_or("malformed error reply")
            .to_string(),
    ))
}

/// Dials `endpoint` with the given IO timeout applied to both directions.
fn dial(endpoint: &Endpoint, io_timeout: Option<Duration>) -> Result<Conn, String> {
    let conn = endpoint
        .connect()
        .map_err(|e| format!("connect {}: {e}", endpoint.describe()))?;
    if let Some(t) = io_timeout {
        let t = t.max(Duration::from_millis(1)); // zero would disable, not expire
        conn.set_read_timeout(Some(t))
            .map_err(|e| format!("set read timeout: {e}"))?;
        conn.set_write_timeout(Some(t))
            .map_err(|e| format!("set write timeout: {e}"))?;
    }
    Ok(conn)
}

/// Sends one raw request frame and returns the parsed reply.
pub fn roundtrip(socket: &Path, request: &str) -> Result<Reply, String> {
    roundtrip_timeout(socket, request, None)
}

/// [`roundtrip`] with a socket read/write timeout bounding each frame.
pub fn roundtrip_timeout(
    socket: &Path,
    request: &str,
    io_timeout: Option<Duration>,
) -> Result<Reply, String> {
    roundtrip_at(&Endpoint::uds(socket), request, io_timeout)
}

/// Sends one raw request frame to `endpoint` (UDS or TCP) and returns the
/// parsed reply.
pub fn roundtrip_at(
    endpoint: &Endpoint,
    request: &str,
    io_timeout: Option<Duration>,
) -> Result<Reply, String> {
    let mut conn = dial(endpoint, io_timeout)?;
    // A shed connection is answered and closed without the request being
    // read, so the send can fail with EPIPE while a perfectly good `busy`
    // frame sits in our receive buffer — always try the read.
    let sent = write_frame(&mut conn, request.as_bytes());
    let payload = match (read_frame(&mut conn), sent) {
        (Ok(p), _) => p,
        (Err(_), Err(e)) => return Err(format!("send: {e}")),
        (Err(e), Ok(())) => return Err(format!("receive: {e}")),
    };
    parse_reply(&payload)
}

/// Optimizes a module remotely over UDS, retrying `busy` replies per
/// `retry`; any other failure is terminal.
pub fn optimize(
    socket: &Path,
    source_or_ir: (&str, bool),
    options: &OptimizerOptions,
    profile: Option<&Profile>,
    call: &CallOptions,
    retry: &RetryPolicy,
) -> Result<Optimized, String> {
    optimize_at(
        &Endpoint::uds(socket),
        source_or_ir,
        options,
        profile,
        call,
        retry,
    )
}

/// [`optimize`] against any [`Endpoint`] (UDS or TCP).
pub fn optimize_at(
    endpoint: &Endpoint,
    source_or_ir: (&str, bool),
    options: &OptimizerOptions,
    profile: Option<&Profile>,
    call: &CallOptions,
    retry: &RetryPolicy,
) -> Result<Optimized, String> {
    let request = optimize_request_json(
        source_or_ir,
        options,
        profile,
        call.metrics,
        call.deterministic_metrics,
        call.trace,
        call.deadline_ms,
    );
    let (doc, raw) = call_with_retry(endpoint, &request, 1, retry)?
        .into_iter()
        .next()
        .ok_or("no reply")??;
    into_optimized(&doc, &raw)
}

/// One element of a protocol-v2 batch: `((source_or_ir, is_ir), optimizer
/// options, optional profile, per-call options)` — the same arguments
/// [`optimize_at`] takes for a single request.
pub type BatchItem<'a> = (
    (&'a str, bool),
    &'a OptimizerOptions,
    Option<&'a Profile>,
    CallOptions,
);

/// Sends N optimize requests as **one pipelined protocol-v2 frame** and
/// reads the N streamed replies back in request order. A queue-position
/// (`busy`) reply retries the whole batch — admission is all-or-nothing,
/// so no element is ever processed twice. Per-element failures (parse
/// errors, etc.) come back as `Err` in that element's slot; transport
/// failures mid-stream are terminal for the remaining elements.
pub fn optimize_batch_at(
    endpoint: &Endpoint,
    items: &[BatchItem<'_>],
    retry: &RetryPolicy,
) -> Result<Vec<Result<Optimized, String>>, String> {
    if items.is_empty() {
        return Err("empty batch".to_string());
    }
    let bodies: Vec<String> = items
        .iter()
        .map(|(source_or_ir, options, profile, call)| {
            optimize_request_json(
                *source_or_ir,
                options,
                *profile,
                call.metrics,
                call.deterministic_metrics,
                call.trace,
                call.deadline_ms,
            )
        })
        .collect();
    let request = batch_request_json(&bodies);
    let replies = call_with_retry(endpoint, &request, items.len(), retry)?;
    Ok(replies
        .into_iter()
        .map(|reply| reply.and_then(|(doc, raw)| into_optimized(&doc, &raw)))
        .collect())
}

/// One call with the busy-retry loop: sends `request`, expects `expect`
/// reply frames (1 for v1, N for a batch). A `busy`/queued reply —
/// always the sole frame on its connection — sleeps and retries the
/// identical request; `Ok` carries each frame's parsed document and raw
/// text, or the per-frame error.
#[allow(clippy::type_complexity)]
fn call_with_retry(
    endpoint: &Endpoint,
    request: &str,
    expect: usize,
    retry: &RetryPolicy,
) -> Result<Vec<Result<(Json, String), String>>, String> {
    let started = Instant::now();
    let remaining = |started: Instant| -> Result<Option<Duration>, String> {
        match retry.overall_ms {
            None => Ok(None),
            Some(total) => {
                let budget = Duration::from_millis(total);
                let elapsed = started.elapsed();
                if elapsed >= budget {
                    Err(format!("client deadline of {total} ms exceeded"))
                } else {
                    Ok(Some(budget - elapsed))
                }
            }
        }
    };
    let mut attempt: u32 = 0;
    'attempts: loop {
        let left = remaining(started)?;
        // Each frame gets min(per-frame timeout, what's left of the
        // overall budget), so a single slow frame cannot overrun it.
        let io = match (retry.io_timeout_ms.map(Duration::from_millis), left) {
            (Some(io), Some(left)) => Some(io.min(left)),
            (Some(io), None) => Some(io),
            (None, left) => left,
        };
        let mut conn = dial(endpoint, io)?;
        let sent = write_frame(&mut conn, request.as_bytes());
        let mut replies = Vec::with_capacity(expect);
        for i in 0..expect {
            let payload = match (read_frame(&mut conn), &sent) {
                (Ok(p), _) => p,
                (Err(_), Err(e)) if i == 0 => return Err(format!("send: {e}")),
                (Err(e), _) => {
                    if i == 0 {
                        return Err(format!("receive: {e}"));
                    }
                    // Mid-stream transport failure: the remaining
                    // elements are undeliverable.
                    for _ in i..expect {
                        replies.push(Err(format!("receive: {e}")));
                    }
                    return Ok(replies);
                }
            };
            match parse_reply(&payload)? {
                Reply::Ok(doc, raw) => replies.push(Ok((doc, raw))),
                Reply::Err(e) => replies.push(Err(e)),
                Reply::Busy { retry_after_ms, .. } => {
                    // Backpressure is decided at admission, before any
                    // element ran: safe to resend the whole request.
                    attempt += 1;
                    if attempt >= retry.max_attempts.max(1) {
                        return Err(format!("server busy after {attempt} attempts"));
                    }
                    let sleep = Duration::from_millis(retry.backoff_ms(attempt, retry_after_ms));
                    if let Some(left) = remaining(started)? {
                        if sleep >= left {
                            return Err(format!(
                                "server busy; backoff would exceed the client deadline of {} ms",
                                retry.overall_ms.unwrap_or(0)
                            ));
                        }
                    }
                    std::thread::sleep(sleep);
                    continue 'attempts;
                }
            }
        }
        return Ok(replies);
    }
}

/// Extracts the [`Optimized`] payload from a success reply document.
fn into_optimized(doc: &Json, raw: &str) -> Result<Optimized, String> {
    let n = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok(Optimized {
        ir: doc
            .get("ir")
            .and_then(Json::as_str)
            .ok_or("reply missing `ir`")?
            .to_string(),
        checks: (n("checks_total"), n("removed_fully"), n("hoisted")),
        incidents: (n("incidents"), n("degraded_incidents")),
        functions_from_cache: n("functions_from_cache"),
        deadline_exceeded: doc
            .get("deadline_exceeded")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        metrics: extract_metrics(doc, raw),
        trace: doc.get("trace").and_then(Json::as_str).map(str::to_string),
    })
}

/// Slices the verbatim `metrics` field out of a raw success reply. The
/// server's `ok_response` always emits `"metrics":…}` as the final field,
/// so the document between that marker and the closing brace is exactly
/// what `module_metrics_json` produced.
fn extract_metrics(doc: &Json, raw: &str) -> Option<String> {
    if matches!(doc.get("metrics"), None | Some(Json::Null)) {
        return None;
    }
    let start = raw.rfind(",\"metrics\":")? + ",\"metrics\":".len();
    let end = raw.len().checked_sub(1)?;
    Some(raw.get(start..end)?.to_string())
}

/// Sends a `ping`; true when a live server answered.
pub fn ping(socket: &Path) -> bool {
    ping_at(&Endpoint::uds(socket))
}

/// [`ping`] against any endpoint.
pub fn ping_at(endpoint: &Endpoint) -> bool {
    matches!(
        roundtrip_at(endpoint, "{\"cmd\":\"ping\"}", None),
        Ok(Reply::Ok(..))
    )
}

/// Sends a `shutdown` request.
pub fn shutdown(socket: &Path) -> Result<(), String> {
    shutdown_at(&Endpoint::uds(socket))
}

/// [`shutdown`] against any endpoint.
pub fn shutdown_at(endpoint: &Endpoint) -> Result<(), String> {
    match roundtrip_at(endpoint, "{\"cmd\":\"shutdown\"}", None)? {
        Reply::Ok(..) => Ok(()),
        Reply::Busy { .. } => Err("server busy; shutdown not accepted".to_string()),
        Reply::Err(e) => Err(e),
    }
}

/// Sends a `stats` request and returns the raw document.
pub fn stats(socket: &Path) -> Result<Json, String> {
    stats_at(&Endpoint::uds(socket))
}

/// [`stats`] against any endpoint.
pub fn stats_at(endpoint: &Endpoint) -> Result<Json, String> {
    match roundtrip_at(endpoint, "{\"cmd\":\"stats\"}", None)? {
        Reply::Ok(doc, _) => Ok(doc),
        Reply::Busy { .. } => Err("server busy".to_string()),
        Reply::Err(e) => Err(e),
    }
}

/// Sends a `metrics` request and returns the Prometheus-style text
/// exposition, unescaped and ready to print or scrape.
pub fn metrics(socket: &Path, deterministic: bool) -> Result<String, String> {
    metrics_at(&Endpoint::uds(socket), deterministic)
}

/// [`metrics`] against any endpoint.
pub fn metrics_at(endpoint: &Endpoint, deterministic: bool) -> Result<String, String> {
    let request = format!("{{\"cmd\":\"metrics\",\"deterministic\":{deterministic}}}");
    match roundtrip_at(endpoint, &request, None)? {
        Reply::Ok(doc, _) => doc
            .get("exposition")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "reply missing `exposition`".to_string()),
        Reply::Busy { .. } => Err("server busy".to_string()),
        Reply::Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for attempt in 1..10u32 {
            for delay in [2u64, 10, 100, 250] {
                let a = jitter(42, attempt, delay);
                let b = jitter(42, attempt, delay);
                assert_eq!(a, b, "same seed/attempt must replay");
                assert!(
                    a >= delay / 2 && a <= delay,
                    "{a} outside [{}, {delay}]",
                    delay / 2
                );
            }
        }
        assert_ne!(
            jitter(1, 3, 100),
            jitter(2, 3, 100),
            "different seeds should (here) diverge"
        );
    }

    #[test]
    fn backoff_doubles_floors_on_hint_and_caps() {
        let p = RetryPolicy {
            base_ms: 10,
            cap_ms: 80,
            seed: 7,
            ..RetryPolicy::default()
        };
        let b1 = p.backoff_ms(1, 0);
        assert!(
            (5..=10).contains(&b1),
            "attempt 1 jitters around base: {b1}"
        );
        let b5 = p.backoff_ms(5, 0);
        assert!(b5 <= 80, "cap bounds the exponential: {b5}");
        assert_eq!(p.backoff_ms(1, 400), 400, "server hint is a floor");
    }

    #[test]
    fn queued_replies_parse_as_busy_with_position() {
        let payload = crate::proto::queued_response(12, 55);
        match parse_reply(payload.as_bytes()).unwrap() {
            Reply::Busy {
                retry_after_ms,
                queued,
            } => {
                assert_eq!(retry_after_ms, 55);
                assert_eq!(queued, Some(12));
            }
            other => panic!("{other:?}"),
        }
        // Pre-shard busy replies still parse, with no position.
        let payload = crate::proto::busy_response(40);
        match parse_reply(payload.as_bytes()).unwrap() {
            Reply::Busy { queued, .. } => assert_eq!(queued, None),
            other => panic!("{other:?}"),
        }
    }
}
