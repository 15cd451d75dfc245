//! The `abcdd` wire protocol: length-prefixed JSON frames over a
//! Unix-domain socket or TCP connection.
//!
//! # Framing
//!
//! Every message — in both directions — is one frame: a big-endian `u32`
//! byte length followed by exactly that many bytes of UTF-8 JSON. Frames
//! above [`MAX_FRAME`] are rejected before allocation. One connection
//! carries one request frame and its replies (connect → send → receive →
//! close), which keeps admission control trivially fair: the bounded
//! queue holds connections, not partially-read requests.
//!
//! # Protocol v2: pipelined batches
//!
//! A request frame whose JSON payload is an **array** is a v2 batch: each
//! element is one `optimize` request body (the `"cmd"` field is optional
//! inside a batch; when present it must be `"optimize"` — batching is for
//! compilation, not control commands). The server streams back one reply
//! frame **per element, in request order**, then closes. Deadlines stay
//! per-request: element k tripping its `deadline_ms` fails open (see
//! below) without affecting elements k+1…N. An empty batch (`[]`) is a
//! structured error, and the [`MAX_FRAME`] cap applies to the whole batch
//! frame. v1 (single JSON object) and v2 clients share the same socket —
//! the server dispatches on the payload's first non-space byte.
//!
//! # Requests
//!
//! ```json
//! {"cmd":"optimize", "source":"fn main() ...",       // or "ir":"func @f..."
//!  "options":{"pre":true,"hot_threshold":10, ...},   // optional, defaults
//!  "profile":{"sites":[[0,0,500]],"blocks":[[0,1,500]],"edges":[]},
//!  "metrics":true, "deterministic_metrics":false,
//!  "deadline_ms":250,            // per-request deadline (null = server default)
//!  "trace":false}                // attach an `abcd-trace/4` JSONL document
//! {"cmd":"ping"}
//! {"cmd":"stats"}
//! {"cmd":"metrics","deterministic":false}   // Prometheus-style exposition
//! {"cmd":"sleep","ms":100}      // diagnostic: occupy a worker (tests)
//! {"cmd":"shutdown"}
//! ```
//!
//! # Responses
//!
//! ```json
//! {"ok":true,"ir":"...","checks_total":4,"removed_fully":2,"hoisted":0,
//!  "incidents":0,"degraded_incidents":0,"functions_from_cache":1,
//!  "deadline_exceeded":false,    // true → `ir` is the unoptimized module
//!  "trace":"...",                // JSONL string, only when requested
//!  "metrics":{...}}                                  // null unless requested
//! {"ok":true,"exposition":"abcdd_requests_total{outcome=\"served\"} 3\n..."}
//! {"ok":false,"busy":true,"retry_after_ms":40,"error":"server at capacity"}
//! {"ok":false,"error":"line 3: unknown instruction ..."}
//! ```
//!
//! # Deadline semantics
//!
//! `deadline_ms` bounds the time from *admission* (enqueue) to the reply.
//! When it trips, the server **fails open**: the reply is still `"ok":true`
//! and still a correct program — the module compiled but *unoptimized*,
//! every bounds check kept — flagged with `"deadline_exceeded":true` and a
//! non-degraded `deadline_exceeded` incident in the report. A deadline is
//! a precision/latency trade, never a correctness one. Requests without
//! `deadline_ms` inherit the server's `--request-timeout`, if set.
//!
//! # Retry contract
//!
//! A `busy` response means every shard's admission queue was full at
//! connect time. The request was *not* partially processed; clients
//! should resend the identical frame after backing off. `retry_after_ms`
//! is an **adaptive hint**: the server scales it with the backlog it saw
//! when it shed the connection (a loaded queue advises a longer pause),
//! so a thundering herd spreads out instead of re-colliding. The sharded
//! server degrades to **queue-position replies** instead of bare
//! busy-shedding: `{"ok":false,"busy":true,"queued":P,...}` tells the
//! client it would have been P-th in line, so patience can scale with P
//! rather than be guessed. `busy:true` is retained so v1 clients parse
//! queue-position replies as ordinary backpressure. Clients should treat
//! the hint as a floor, add exponential backoff with jitter on repeated
//! busy replies, and give up after an attempt cap or an overall deadline
//! (see `abcd_server::RetryPolicy`, which implements exactly this). Every
//! non-busy `"ok":false` is a terminal, structured error — resending the
//! same request will fail the same way.

use crate::json::Json;
use abcd::{json_escape, ModuleReport, OptimizerOptions};
use abcd_ir::{Block, CheckSite, FuncId};
use abcd_vm::Profile;
use std::io::{Read, Write};

/// Upper bound on a single frame (64 MiB) — shields the server from
/// hostile or corrupted length prefixes.
pub const MAX_FRAME: u32 = 64 << 20;

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// One optimization request.
#[derive(Debug)]
pub struct OptimizeRequest {
    /// MJ source to compile (mutually exclusive with `ir`).
    pub source: Option<String>,
    /// Textual IR to parse (mutually exclusive with `source`).
    pub ir: Option<String>,
    /// Optimizer options (wire defaults = [`OptimizerOptions::default`]).
    pub options: OptimizerOptions,
    /// Optional execution profile.
    pub profile: Option<Profile>,
    /// Attach the `abcd-metrics/7` blob to the response.
    pub metrics: bool,
    /// Zero all durations in the metrics blob (byte-comparable output).
    /// Also zeroes trace durations when `trace` is set.
    pub deterministic_metrics: bool,
    /// Attach an `abcd-trace/4` JSONL document to the response. Tracing is
    /// a per-request observation knob, deliberately *not* an optimizer
    /// option: it must never change cache keys or analysis results.
    pub trace: bool,
    /// Per-request deadline in milliseconds, measured from admission.
    /// `None` inherits the server default (see the deadline semantics
    /// above); tripping it fails open, never closed.
    pub deadline_ms: Option<u64>,
}

/// A parsed request.
#[derive(Debug)]
pub enum Request {
    /// Optimize a module.
    Optimize(Box<OptimizeRequest>),
    /// A protocol-v2 pipelined batch: N optimize requests in one frame,
    /// answered by N reply frames in request order.
    Batch(Vec<OptimizeRequest>),
    /// Liveness probe.
    Ping,
    /// Server + cache counters.
    Stats,
    /// Prometheus-style text exposition of the server's counters and
    /// histograms; `deterministic` zeroes every sampled value so the
    /// exposition *format* can be golden-tested.
    Metrics {
        /// Zero histogram samples and counters that depend on timing.
        deterministic: bool,
    },
    /// Diagnostic: hold a worker for `ms` milliseconds, then reply.
    Sleep(u64),
    /// Drain in-flight requests and exit.
    Shutdown,
}

/// Parses one request frame. Every failure is a structured message that
/// becomes an `"ok":false` response — never a panic, never a dropped
/// connection without a reply.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "request is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    if let Json::Arr(items) = &doc {
        // Protocol v2: a top-level array is a pipelined batch.
        if items.is_empty() {
            return Err("empty batch: a v2 frame needs at least one request".to_string());
        }
        let batch = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                if let Some(cmd) = item.get("cmd").and_then(Json::as_str) {
                    if cmd != "optimize" {
                        return Err(format!(
                            "batch element {i}: only `optimize` may be batched, got `{cmd}`"
                        ));
                    }
                }
                parse_optimize_body(item).map_err(|e| format!("batch element {i}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Request::Batch(batch));
    }
    let cmd = doc
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing string field `cmd`")?;
    match cmd {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics {
            deterministic: doc
                .get("deterministic")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        }),
        "shutdown" => Ok(Request::Shutdown),
        "sleep" => Ok(Request::Sleep(
            doc.get("ms")
                .and_then(Json::as_u64)
                .unwrap_or(50)
                .min(5_000),
        )),
        "optimize" => Ok(Request::Optimize(Box::new(parse_optimize_body(&doc)?))),
        other => Err(format!("unknown cmd `{other}`")),
    }
}

/// Parses the body of one optimize request (shared by v1 single requests
/// and v2 batch elements).
fn parse_optimize_body(doc: &Json) -> Result<OptimizeRequest, String> {
    let source = doc.get("source").and_then(Json::as_str).map(str::to_string);
    let ir = doc.get("ir").and_then(Json::as_str).map(str::to_string);
    match (&source, &ir) {
        (None, None) => return Err("optimize needs `source` or `ir`".to_string()),
        (Some(_), Some(_)) => return Err("optimize takes `source` or `ir`, not both".to_string()),
        _ => {}
    }
    let options = match doc.get("options") {
        None | Some(Json::Null) => OptimizerOptions::default(),
        Some(o) => parse_options(o)?,
    };
    let profile = match doc.get("profile") {
        None | Some(Json::Null) => None,
        Some(p) => Some(parse_profile(p)?),
    };
    Ok(OptimizeRequest {
        source,
        ir,
        options,
        profile,
        metrics: doc.get("metrics").and_then(Json::as_bool).unwrap_or(false),
        deterministic_metrics: doc
            .get("deterministic_metrics")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        trace: doc.get("trace").and_then(Json::as_bool).unwrap_or(false),
        deadline_ms: doc.get("deadline_ms").and_then(Json::as_u64),
    })
}

fn parse_options(doc: &Json) -> Result<OptimizerOptions, String> {
    let Json::Obj(map) = doc else {
        return Err("`options` must be an object".to_string());
    };
    let mut o = OptimizerOptions::default();
    for (key, value) in map {
        let flag = || {
            value
                .as_bool()
                .ok_or_else(|| format!("option `{key}` must be a bool"))
        };
        let count = || match value {
            Json::Null => Ok(None),
            v => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("option `{key}` must be a non-negative integer or null")),
        };
        match key.as_str() {
            "upper" => o.upper = flag()?,
            "lower" => o.lower = flag()?,
            "cleanup" => o.cleanup = flag()?,
            "pre" => o.pre = flag()?,
            "gvn_hook" => o.gvn_hook = flag()?,
            "merge_checks" => o.merge_checks = flag()?,
            "classify_local" => o.classify_local = flag()?,
            "interprocedural" => o.interprocedural = flag()?,
            "verify_ir" => o.verify_ir = flag()?,
            "validate" => o.validate = flag()?,
            "isolate_panics" => o.isolate_panics = flag()?,
            "hot_threshold" => o.hot_threshold = count()?,
            "fuel_per_query" => o.fuel_per_query = count()?,
            "fuel_per_function" => o.fuel_per_function = count()?,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

fn parse_profile(doc: &Json) -> Result<Profile, String> {
    let mut profile = Profile::new();
    let rows = |key: &str, width: usize| -> Result<Vec<Vec<u64>>, String> {
        match doc.get(key) {
            None | Some(Json::Null) => Ok(Vec::new()),
            Some(Json::Arr(items)) => items
                .iter()
                .map(|row| {
                    let row = row
                        .as_arr()
                        .ok_or_else(|| format!("profile `{key}` rows must be arrays"))?;
                    if row.len() != width {
                        return Err(format!("profile `{key}` rows must have {width} fields"));
                    }
                    row.iter()
                        .map(|v| {
                            v.as_u64()
                                .ok_or_else(|| format!("profile `{key}` fields must be counts"))
                        })
                        .collect()
                })
                .collect(),
            Some(_) => Err(format!("profile `{key}` must be an array")),
        }
    };
    for row in rows("sites", 3)? {
        profile.add_site_count(
            FuncId::new(row[0] as usize),
            CheckSite::new(row[1] as usize),
            row[2],
        );
    }
    for row in rows("blocks", 3)? {
        profile.add_block_count(
            FuncId::new(row[0] as usize),
            Block::new(row[1] as usize),
            row[2],
        );
    }
    for row in rows("edges", 4)? {
        profile.add_edge_count(
            FuncId::new(row[0] as usize),
            Block::new(row[1] as usize),
            Block::new(row[2] as usize),
            row[3],
        );
    }
    Ok(profile)
}

/// Serializes a profile as the wire triples, sorted for determinism.
pub fn profile_json(profile: &Profile) -> String {
    let mut sites: Vec<(usize, usize, u64)> = profile
        .site_entries()
        .map(|((f, s), n)| (f.index(), s.index(), n))
        .collect();
    sites.sort_unstable();
    let mut blocks: Vec<(usize, usize, u64)> = profile
        .block_entries()
        .map(|((f, b), n)| (f.index(), b.index(), n))
        .collect();
    blocks.sort_unstable();
    let mut edges: Vec<(usize, usize, usize, u64)> = profile
        .edge_entries()
        .map(|((f, a, b), n)| (f.index(), a.index(), b.index(), n))
        .collect();
    edges.sort_unstable();
    let mut out = String::from("{\"sites\":[");
    for (i, (f, s, n)) in sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{f},{s},{n}]"));
    }
    out.push_str("],\"blocks\":[");
    for (i, (f, b, n)) in blocks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{f},{b},{n}]"));
    }
    out.push_str("],\"edges\":[");
    for (i, (f, a, b, n)) in edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{f},{a},{b},{n}]"));
    }
    out.push_str("]}");
    out
}

/// Serializes optimizer options as the wire object (every knob explicit,
/// so a request replayed against a future server with different defaults
/// still means the same thing).
pub fn options_json(o: &OptimizerOptions) -> String {
    let count = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |n| n.to_string());
    format!(
        "{{\"upper\":{},\"lower\":{},\"cleanup\":{},\"pre\":{},\"gvn_hook\":{},\
         \"merge_checks\":{},\"classify_local\":{},\"hot_threshold\":{},\
         \"interprocedural\":{},\"fuel_per_query\":{},\"fuel_per_function\":{},\
         \"verify_ir\":{},\"validate\":{},\"isolate_panics\":{}}}",
        o.upper,
        o.lower,
        o.cleanup,
        o.pre,
        o.gvn_hook,
        o.merge_checks,
        o.classify_local,
        count(o.hot_threshold),
        o.interprocedural,
        count(o.fuel_per_query),
        count(o.fuel_per_function),
        o.verify_ir,
        o.validate,
        o.isolate_panics,
    )
}

/// Builds an `optimize` request frame payload.
pub fn optimize_request_json(
    source_or_ir: (&str, bool),
    options: &OptimizerOptions,
    profile: Option<&Profile>,
    metrics: bool,
    deterministic_metrics: bool,
    trace: bool,
    deadline_ms: Option<u64>,
) -> String {
    let (text, is_ir) = source_or_ir;
    let field = if is_ir { "ir" } else { "source" };
    let deadline = deadline_ms.map_or_else(|| "null".to_string(), |d| d.to_string());
    format!(
        "{{\"cmd\":\"optimize\",\"{field}\":\"{}\",\"options\":{},\"profile\":{},\
         \"metrics\":{metrics},\"deterministic_metrics\":{deterministic_metrics},\
         \"trace\":{trace},\"deadline_ms\":{deadline}}}",
        json_escape(text),
        options_json(options),
        profile.map_or_else(|| "null".to_string(), profile_json),
    )
}

/// Builds the success response for an optimized module. `metrics` is a
/// pre-rendered `abcd-metrics/7` document spliced in verbatim; `trace` is
/// a pre-rendered `abcd-trace/4` JSONL document attached as a string.
/// `deadline_exceeded` marks a fail-open reply whose `ir` is the compiled
/// but unoptimized module. `metrics` must stay the final field — clients
/// locate it by scanning from the end of the frame.
pub fn ok_response(
    ir: &str,
    report: &ModuleReport,
    deadline_exceeded: bool,
    trace: Option<&str>,
    metrics: Option<&str>,
) -> String {
    let trace = trace.map_or_else(|| "null".to_string(), |t| format!("\"{}\"", json_escape(t)));
    format!(
        "{{\"ok\":true,\"ir\":\"{}\",\"checks_total\":{},\"removed_fully\":{},\
         \"hoisted\":{},\"incidents\":{},\"degraded_incidents\":{},\
         \"functions_from_cache\":{},\"deadline_exceeded\":{deadline_exceeded},\
         \"trace\":{trace},\"metrics\":{}}}",
        json_escape(ir),
        report.checks_total(),
        report.checks_removed_fully(),
        report.checks_hoisted(),
        report.incident_count(),
        report.degraded_incident_count(),
        report.functions_from_cache(),
        metrics.unwrap_or("null"),
    )
}

/// Builds a terminal error response.
pub fn error_response(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(message))
}

/// Builds the load-shedding response (see the retry contract above).
pub fn busy_response(retry_after_ms: u64) -> String {
    format!(
        "{{\"ok\":false,\"busy\":true,\"retry_after_ms\":{retry_after_ms},\
         \"error\":\"server at capacity\"}}"
    )
}

/// Builds a queue-position backpressure reply: all shards were full, and
/// the request would have been `position`-th in line. Keeps `busy:true`
/// so protocol-v1 clients treat it as ordinary backpressure.
pub fn queued_response(position: u64, retry_after_ms: u64) -> String {
    format!(
        "{{\"ok\":false,\"busy\":true,\"queued\":{position},\
         \"retry_after_ms\":{retry_after_ms},\
         \"error\":\"all shards at capacity\"}}"
    )
}

/// Wraps pre-rendered optimize request bodies (each built by
/// [`optimize_request_json`]) into one protocol-v2 batch frame payload.
pub fn batch_request_json(bodies: &[String]) -> String {
    let mut out = String::with_capacity(bodies.iter().map(String::len).sum::<usize>() + 16);
    out.push('[');
    for (i, body) in bodies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(body);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"cmd\":\"ping\"}").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"{\"cmd\":\"ping\"}");
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut header = (MAX_FRAME + 1).to_be_bytes().to_vec();
        header.extend_from_slice(b"xx");
        assert!(read_frame(&mut &header[..]).is_err());
    }

    #[test]
    fn request_parsing_and_defaults() {
        let req = parse_request(br#"{"cmd":"optimize","source":"fn main() -> int { return 0; }"}"#)
            .unwrap();
        match req {
            Request::Optimize(o) => {
                assert!(o.source.is_some() && o.ir.is_none());
                assert!(o.options.pre, "wire defaults mirror OptimizerOptions");
                assert!(!o.metrics);
                assert_eq!(o.deadline_ms, None, "no deadline unless requested");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request(b"{\"cmd\":\"ping\"}"),
            Ok(Request::Ping)
        ));
        assert!(parse_request(b"{\"cmd\":\"optimize\"}").is_err());
        assert!(parse_request(b"{\"cmd\":\"nope\"}").is_err());
        assert!(parse_request(b"not json").is_err());
        assert!(
            parse_request(br#"{"cmd":"optimize","ir":"x","options":{"warp":true}}"#).is_err(),
            "unknown options are structured errors"
        );
    }

    #[test]
    fn options_and_profile_round_trip() {
        let options = OptimizerOptions {
            pre: false,
            hot_threshold: Some(7),
            fuel_per_query: Some(1000),
            ..OptimizerOptions::default()
        };
        let mut profile = Profile::new();
        profile.add_site_count(FuncId::new(0), CheckSite::new(2), 41);
        profile.add_block_count(FuncId::new(1), Block::new(3), 9);
        profile.add_edge_count(FuncId::new(0), Block::new(0), Block::new(1), 5);
        let payload = optimize_request_json(
            ("func", true),
            &options,
            Some(&profile),
            true,
            true,
            true,
            Some(750),
        );
        let req = parse_request(payload.as_bytes()).unwrap();
        let Request::Optimize(o) = req else {
            panic!("expected optimize");
        };
        assert_eq!(o.deadline_ms, Some(750));
        assert_eq!(o.ir.as_deref(), Some("func"));
        assert!(!o.options.pre);
        assert_eq!(o.options.hot_threshold, Some(7));
        assert_eq!(o.options.fuel_per_query, Some(1000));
        let p = o.profile.unwrap();
        assert_eq!(p.site_count(FuncId::new(0), CheckSite::new(2)), 41);
        assert_eq!(p.block_count(FuncId::new(1), Block::new(3)), 9);
        assert_eq!(
            p.edge_count(FuncId::new(0), Block::new(0), Block::new(1)),
            5
        );
        assert!(o.metrics && o.deterministic_metrics && o.trace);
    }

    #[test]
    fn batch_frames_parse_and_reject_edges() {
        let one = optimize_request_json(
            ("func", true),
            &OptimizerOptions::default(),
            None,
            false,
            false,
            false,
            Some(50),
        );
        let two = optimize_request_json(
            ("fn main() -> int { return 0; }", false),
            &OptimizerOptions::default(),
            None,
            true,
            true,
            false,
            None,
        );
        let payload = batch_request_json(&[one, two]);
        let Request::Batch(batch) = parse_request(payload.as_bytes()).unwrap() else {
            panic!("expected batch");
        };
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].ir.as_deref(), Some("func"));
        assert_eq!(batch[0].deadline_ms, Some(50));
        assert!(batch[1].source.is_some() && batch[1].metrics);

        // `cmd` is optional in a batch but must be `optimize` when present.
        assert!(matches!(
            parse_request(br#"[{"ir":"func @f"}]"#),
            Ok(Request::Batch(b)) if b.len() == 1
        ));
        let err = parse_request(br#"[{"cmd":"ping"}]"#).unwrap_err();
        assert!(err.contains("only `optimize`"), "{err}");

        // Empty batches and malformed elements are structured errors.
        assert!(parse_request(b"[]").unwrap_err().contains("empty batch"));
        let err = parse_request(br#"[{"ir":"a"},{"cmd":"optimize"}]"#).unwrap_err();
        assert!(err.contains("batch element 1"), "{err}");
    }

    #[test]
    fn queued_response_is_busy_compatible() {
        let text = queued_response(7, 40);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("busy").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("queued").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("retry_after_ms").and_then(Json::as_u64), Some(40));
    }

    #[test]
    fn metrics_request_parses_with_default() {
        assert!(matches!(
            parse_request(br#"{"cmd":"metrics"}"#),
            Ok(Request::Metrics {
                deterministic: false
            })
        ));
        assert!(matches!(
            parse_request(br#"{"cmd":"metrics","deterministic":true}"#),
            Ok(Request::Metrics {
                deterministic: true
            })
        ));
    }
}
