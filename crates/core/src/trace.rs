//! Structured, hierarchical tracing for the whole pipeline — the recorder
//! behind `mjc --trace-out`, `mjc explain`, and the `abcdd` `trace` request.
//!
//! # Design
//!
//! Tracing is **off by default** and enabling it never changes verdicts:
//! the provers carry an `Option<Vec<ProveEvent>>` that stays `None` unless
//! `DemandProver::enable_trace` is
//! called, so the disabled hot path is a single branch with no allocation.
//! When enabled, each `demandProve` query records its traversal tree
//! (vertex visits, memo hits, cycle detections, fuel exhaustion) as a flat
//! pre-order event list; the driver wraps queries in [`Span`]s together
//! with pass timings, graph sizes, PRE insertion decisions and cache
//! lookups, ring-buffered per function in a [`FunctionTrace`].
//!
//! Per-function traces ride the driver's deterministic function-order
//! merge (they live on the [`FunctionReport`]), so a parallel run emits
//! the same trace as a sequential one.
//!
//! # Schema (`abcd-trace/4`)
//!
//! [`module_trace_jsonl`] renders one JSON object per line:
//!
//! ```json
//! {"schema":"abcd-trace/4","threads":1,"deterministic":true,"functions":1}
//! {"span":"pass","function":"f","pass":"insert_pi","dur_us":0}
//! {"span":"graph_build","function":"f","dur_us":0,"upper_vertices":9,...}
//! {"span":"prove","function":"f","site":"ck0","check":"upper",
//!  "target":"v5","source":"len(v0)","c":-1,"proven":true,
//!  "exhausted":false,"steps":7,"events":[{"e":"visit","v":"v5","c":-1,"d":0},...]}
//! {"span":"pre","function":"f","site":"ck1","check":"upper",
//!  "outcome":"hoisted","steps":9,
//!  "insertions":[{"pred":"bb2","arg":"v3","c_prime":1,"delta":-2}],"events":[...]}
//! {"span":"cache","function":"f","hit":false}
//! {"span":"incident","function":"f","kind":"pass_panic","pass":"solve","detail":"..."}
//! ```
//!
//! Span taxonomy: `pass` (one per timed pipeline stage), `graph_build`,
//! `prove` (one per `demandProve` query, §5), `pre`
//! (one per PRE decision, §6), `cache` (content-addressed lookup result),
//! `incident` (always rendered last for a function), `dropped` (ring-buffer
//! overflow marker) and — appended by the `abcdd` server only — `request`
//! (queue depth at dequeue, end-to-end latency, and the deadline in force,
//! if any). With `deterministic` set, every duration renders as `0` so
//! traces are byte-comparable across runs and thread counts.
//!
//! Relative to `abcd-trace/3`, version 4 drops the `backend` span: the
//! demand prover is the only query engine, so there is no choice to record.
//!
//! Relative to `abcd-trace/2`, version 3 adds the `deadline_ms` field to
//! the `request` span (`null` when the request carried no deadline) and
//! the `deadline_exceeded` incident kind (attributed to the `request`
//! pass: the cut-off happened in the service layer, not a compiler stage).
//!
//! Relative to `abcd-trace/1`, version 2 added the `backend` span (removed
//! again in version 4).

use crate::report::{FunctionReport, ModuleReport};
use crate::stage::Stage;
use abcd_ir::CheckSite;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Duration;

/// The trace schema identifier emitted in the header line.
pub const TRACE_SCHEMA: &str = "abcd-trace/4";

/// Ring capacity per function: oldest spans are dropped (and counted) once
/// a function records more than this many.
pub const SPAN_RING_CAPACITY: usize = 16_384;

/// Escapes `s` as a JSON string literal body. This is the one shared
/// escaping helper behind every hand-assembled JSON emitter in the
/// workspace (`abcd::metrics`, the trace renderer, the bench emitters, and
/// `abcd-server`'s protocol).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One step of a recorded `demandProve` traversal. Vertices are recorded
/// by their display name (`v3`, `len(v0)`, `7`) so the trace is readable
/// without the graph; `d` is the DFS recursion depth, which reconstructs
/// the traversal tree from the flat pre-order list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProveEvent {
    /// Entered `v` with remaining slack `c`; its in-edges will be explored.
    Visit {
        /// Vertex display name.
        v: String,
        /// Remaining slack at entry.
        c: i64,
        /// DFS depth.
        d: u32,
    },
    /// Answered from the memo table by subsumption.
    MemoHit {
        /// Vertex display name.
        v: String,
        /// Queried slack.
        c: i64,
        /// DFS depth.
        d: u32,
        /// The memoized verdict (`true` / `reduced` / `false`).
        verdict: &'static str,
    },
    /// The source vertex was reached with non-negative slack: the
    /// traversed path proves the difference.
    Source {
        /// Vertex display name (the source).
        v: String,
        /// Slack on arrival (≥ 0).
        c: i64,
        /// DFS depth.
        d: u32,
    },
    /// Constant-vs-constant potential comparison decided the vertex.
    Potential {
        /// Vertex display name.
        v: String,
        /// Queried slack.
        c: i64,
        /// DFS depth.
        d: u32,
        /// Whether the comparison proved the difference.
        proven: bool,
    },
    /// A vertex with no in-edges refuted the path.
    Unconstrained {
        /// Vertex display name.
        v: String,
        /// Queried slack.
        c: i64,
        /// DFS depth.
        d: u32,
    },
    /// A cycle closed at an active vertex (§5's induction-variable test):
    /// amplifying (slack shrank) refutes, harmless reduces.
    Cycle {
        /// Vertex display name.
        v: String,
        /// Slack at re-entry.
        c: i64,
        /// Slack when the vertex was first entered.
        entry_c: i64,
        /// `c < entry_c`: positive-weight cycle, refuted.
        amplifying: bool,
        /// DFS depth.
        d: u32,
    },
    /// The vertex resolved after merging its in-edges (meet at max/φ,
    /// join at min).
    Resolved {
        /// Vertex display name.
        v: String,
        /// DFS depth.
        d: u32,
        /// Merged verdict.
        verdict: &'static str,
    },
    /// The query's fuel budget ran out mid-traversal.
    Fuel {
        /// DFS depth at exhaustion.
        d: u32,
    },
}

impl ProveEvent {
    fn json(&self, out: &mut String) {
        match self {
            ProveEvent::Visit { v, c, d } => {
                let _ = write!(
                    out,
                    "{{\"e\":\"visit\",\"v\":\"{}\",\"c\":{c},\"d\":{d}}}",
                    json_escape(v)
                );
            }
            ProveEvent::MemoHit { v, c, d, verdict } => {
                let _ = write!(
                    out,
                    "{{\"e\":\"memo\",\"v\":\"{}\",\"c\":{c},\"d\":{d},\"verdict\":\"{verdict}\"}}",
                    json_escape(v)
                );
            }
            ProveEvent::Source { v, c, d } => {
                let _ = write!(
                    out,
                    "{{\"e\":\"source\",\"v\":\"{}\",\"c\":{c},\"d\":{d}}}",
                    json_escape(v)
                );
            }
            ProveEvent::Potential { v, c, d, proven } => {
                let _ = write!(
                    out,
                    "{{\"e\":\"potential\",\"v\":\"{}\",\"c\":{c},\"d\":{d},\"proven\":{proven}}}",
                    json_escape(v)
                );
            }
            ProveEvent::Unconstrained { v, c, d } => {
                let _ = write!(
                    out,
                    "{{\"e\":\"unconstrained\",\"v\":\"{}\",\"c\":{c},\"d\":{d}}}",
                    json_escape(v)
                );
            }
            ProveEvent::Cycle {
                v,
                c,
                entry_c,
                amplifying,
                d,
            } => {
                let _ = write!(
                    out,
                    "{{\"e\":\"cycle\",\"v\":\"{}\",\"c\":{c},\"entry_c\":{entry_c},\
                     \"amplifying\":{amplifying},\"d\":{d}}}",
                    json_escape(v)
                );
            }
            ProveEvent::Resolved { v, d, verdict } => {
                let _ = write!(
                    out,
                    "{{\"e\":\"resolved\",\"v\":\"{}\",\"d\":{d},\"verdict\":\"{verdict}\"}}",
                    json_escape(v)
                );
            }
            ProveEvent::Fuel { d } => {
                let _ = write!(out, "{{\"e\":\"fuel\",\"d\":{d}}}");
            }
        }
    }
}

/// One compensating-check insertion decision recorded for a PRE span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreInsertionRecord {
    /// Predecessor block receiving the compensating check.
    pub pred: String,
    /// The failing φ argument used as the compensating index base.
    pub arg: String,
    /// The remaining difference query at the insertion point (solver
    /// domain; see [`crate::PreProver`]).
    pub c_prime: i64,
    /// The index offset the transformation will apply (`arg + delta`),
    /// derived from `c_prime` by [`crate::pre::compensation_delta`].
    pub delta: i64,
}

/// One recorded span. Durations are zeroed at render time in
/// deterministic mode; everything else is deterministic by construction.
#[derive(Clone, Debug)]
pub enum Span {
    /// A timed pipeline stage (`insert_pi`, `solve`, `transform`).
    Pass {
        /// The stage.
        stage: Stage,
        /// Wall time of the stage.
        dur: Duration,
    },
    /// The whole of preparation, `split_critical_edges` through
    /// `insert_pi`, rendered as the pass `prepare`.
    Prepare {
        /// Wall time of the prepare stages.
        dur: Duration,
    },
    /// Inequality-graph construction with the resulting sizes.
    GraphBuild {
        /// Wall time of both builds.
        dur: Duration,
        /// Upper-problem vertex count.
        upper_vertices: usize,
        /// Upper-problem edge count.
        upper_edges: usize,
        /// Lower-problem vertex count.
        lower_vertices: usize,
        /// Lower-problem edge count.
        lower_edges: usize,
    },
    /// One `demandProve` query for a check.
    Prove {
        /// Check site being proven.
        site: CheckSite,
        /// `upper` / `lower`.
        check: &'static str,
        /// Target vertex (the checked index).
        target: String,
        /// Source vertex (array length or the constant 0).
        source: String,
        /// The queried bound (`target − source ≤ c`).
        c: i64,
        /// Whether the query proved the difference.
        proven: bool,
        /// Whether the query tripped its fuel budget.
        exhausted: bool,
        /// Solver steps this query spent.
        steps: u64,
        /// The recorded traversal tree.
        events: Vec<ProveEvent>,
    },
    /// One PRE decision for a check that was not fully redundant.
    Pre {
        /// Check site.
        site: CheckSite,
        /// `upper` / `lower`.
        check: &'static str,
        /// `hoisted` / `unprofitable` / `proven` / `exhausted` / `failed`.
        outcome: &'static str,
        /// PRE-prover steps this query spent.
        steps: u64,
        /// The insertion points (empty unless `hoisted`/`unprofitable`).
        insertions: Vec<PreInsertionRecord>,
        /// The recorded traversal tree.
        events: Vec<ProveEvent>,
    },
    /// Content-addressed cache lookup outcome for the function.
    Cache {
        /// Whether the lookup hit (the pipeline was replayed, not run).
        hit: bool,
    },
}

impl Span {
    fn site(&self) -> Option<CheckSite> {
        match self {
            Span::Prove { site, .. } | Span::Pre { site, .. } => Some(*site),
            _ => None,
        }
    }

    fn json(&self, function: &str, deterministic: bool, out: &mut String) {
        let us = |d: Duration| if deterministic { 0 } else { d.as_micros() };
        let func = json_escape(function);
        match self {
            Span::Pass { stage, dur } => pass_json(out, &func, stage.name(), us(*dur)),
            Span::Prepare { dur } => pass_json(out, &func, "prepare", us(*dur)),
            Span::GraphBuild {
                dur,
                upper_vertices,
                upper_edges,
                lower_vertices,
                lower_edges,
            } => {
                let _ = write!(
                    out,
                    "{{\"span\":\"graph_build\",\"function\":\"{func}\",\"dur_us\":{},\
                     \"upper_vertices\":{upper_vertices},\"upper_edges\":{upper_edges},\
                     \"lower_vertices\":{lower_vertices},\"lower_edges\":{lower_edges}}}",
                    us(*dur)
                );
            }
            Span::Prove {
                site,
                check,
                target,
                source,
                c,
                proven,
                exhausted,
                steps,
                events,
            } => {
                let _ = write!(
                    out,
                    "{{\"span\":\"prove\",\"function\":\"{func}\",\"site\":\"{site}\",\
                     \"check\":\"{check}\",\"target\":\"{}\",\"source\":\"{}\",\"c\":{c},\
                     \"proven\":{proven},\"exhausted\":{exhausted},\"steps\":{steps},\
                     \"events\":",
                    json_escape(target),
                    json_escape(source),
                );
                events_json(events, out);
                out.push('}');
            }
            Span::Pre {
                site,
                check,
                outcome,
                steps,
                insertions,
                events,
            } => {
                let _ = write!(
                    out,
                    "{{\"span\":\"pre\",\"function\":\"{func}\",\"site\":\"{site}\",\
                     \"check\":\"{check}\",\"outcome\":\"{outcome}\",\"steps\":{steps},\
                     \"insertions\":["
                );
                for (i, p) in insertions.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"pred\":\"{}\",\"arg\":\"{}\",\"c_prime\":{},\"delta\":{}}}",
                        json_escape(&p.pred),
                        json_escape(&p.arg),
                        p.c_prime,
                        p.delta,
                    );
                }
                out.push_str("],\"events\":");
                events_json(events, out);
                out.push('}');
            }
            Span::Cache { hit } => {
                let _ = write!(
                    out,
                    "{{\"span\":\"cache\",\"function\":\"{func}\",\"hit\":{hit}}}"
                );
            }
        }
    }
}

fn pass_json(out: &mut String, func: &str, pass: &str, dur_us: u128) {
    let _ = write!(
        out,
        "{{\"span\":\"pass\",\"function\":\"{func}\",\"pass\":\"{pass}\",\"dur_us\":{dur_us}}}"
    );
}

fn events_json(events: &[ProveEvent], out: &mut String) {
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        e.json(out);
    }
    out.push(']');
}

/// The per-function span ring buffer. Spans are recorded in pipeline
/// order; once [`SPAN_RING_CAPACITY`] is exceeded the oldest span is
/// dropped and counted, so a pathological function bounds trace memory
/// instead of growing without limit.
#[derive(Clone, Debug, Default)]
pub struct FunctionTrace {
    spans: VecDeque<Span>,
    /// Spans dropped to ring-buffer overflow.
    pub dropped: u64,
}

impl FunctionTrace {
    /// An empty trace.
    pub fn new() -> FunctionTrace {
        FunctionTrace::default()
    }

    /// Records a span, evicting the oldest on overflow.
    pub fn push(&mut self, span: Span) {
        if self.spans.len() >= SPAN_RING_CAPACITY {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
    }

    /// Records a span at the front (used for the cache-lookup span, which
    /// logically precedes the pipeline it short-circuits).
    pub fn push_front(&mut self, span: Span) {
        if self.spans.len() >= SPAN_RING_CAPACITY {
            self.spans.pop_back();
            self.dropped += 1;
        }
        self.spans.push_front(span);
    }

    /// The recorded spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }
}

/// Renders the `abcd-trace/4` JSONL document for one optimized module:
/// a header line, then every function's spans in module order, each
/// function's incidents last. With `deterministic` set, every duration is
/// emitted as `0` (the trace differential tests compare these bytes).
pub fn module_trace_jsonl(report: &ModuleReport, threads: usize, deterministic: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"schema\":\"{TRACE_SCHEMA}\",\"threads\":{},\"deterministic\":{},\"functions\":{}}}",
        threads.max(1),
        deterministic,
        report.functions.len(),
    );
    for f in &report.functions {
        if let Some(trace) = &f.trace {
            for span in trace.spans() {
                span.json(&f.name, deterministic, &mut out);
                out.push('\n');
            }
            if trace.dropped > 0 {
                let _ = writeln!(
                    out,
                    "{{\"span\":\"dropped\",\"function\":\"{}\",\"count\":{}}}",
                    json_escape(&f.name),
                    trace.dropped,
                );
            }
        }
        // Incidents render last for each function, whether or not the
        // pipeline got far enough to record spans (a panicked function
        // loses its in-flight buffer with the scratch clone — the
        // incident line is its trace).
        for incident in &f.incidents {
            let _ = writeln!(
                out,
                "{{\"span\":\"incident\",\"function\":\"{}\",\"kind\":\"{}\",\
                 \"pass\":\"{}\",\"detail\":\"{}\"}}",
                json_escape(&f.name),
                incident.kind_name(),
                incident_pass(incident),
                json_escape(&incident.to_string()),
            );
        }
    }
    out
}

fn incident_pass(incident: &crate::report::Incident) -> &'static str {
    use crate::report::Incident;
    match incident {
        Incident::PassPanic { pass, .. } | Incident::VerifyFailed { pass, .. } => pass.name(),
        Incident::BudgetExhausted { .. } | Incident::SolverOverflow { .. } => Stage::Solve.name(),
        Incident::ValidationReinstated { .. } => Stage::Validate.name(),
        Incident::CacheCorrupt { .. } => "cache",
        Incident::DeadlineExceeded { .. } => "request",
    }
}

/// Renders the server's request-lifecycle span (one JSONL line, appended
/// by `abcdd` after the module's spans). `deadline_ms` is the deadline the
/// request ran under, `None` when unbounded.
pub fn request_span_jsonl(
    queue_depth: usize,
    latency: Duration,
    deadline_ms: Option<u64>,
    deterministic: bool,
) -> String {
    format!(
        "{{\"span\":\"request\",\"queue_depth\":{queue_depth},\"latency_us\":{},\
         \"deadline_ms\":{}}}\n",
        if deterministic {
            0
        } else {
            latency.as_micros()
        },
        deadline_ms.map_or_else(|| "null".to_string(), |d| d.to_string()),
    )
}

/// A witness derivation path extracted from a proven query's events: the
/// chain of `(vertex, slack)` frames from the target down to the source.
/// The hop weight between consecutive frames is `c_parent − c_child` —
/// exactly the inequality-graph edge weight the traversal followed, which
/// is what the certificate re-verification test checks.
pub fn witness_path(events: &[ProveEvent]) -> Option<Vec<(String, i64)>> {
    let mut stack: Vec<(u32, String, i64)> = Vec::new();
    for e in events {
        match e {
            ProveEvent::Visit { v, c, d } => {
                while stack.last().is_some_and(|(sd, _, _)| *sd >= *d) {
                    stack.pop();
                }
                stack.push((*d, v.clone(), *c));
            }
            ProveEvent::Source { v, c, d } => {
                while stack.last().is_some_and(|(sd, _, _)| *sd >= *d) {
                    stack.pop();
                }
                let mut path: Vec<(String, i64)> =
                    stack.iter().map(|(_, v, c)| (v.clone(), *c)).collect();
                path.push((v.clone(), *c));
                return Some(path);
            }
            _ => {}
        }
    }
    None
}

/// Renders the human-readable proof certificates for one function's
/// recorded trace — the `mjc explain` output. `check` filters to the site
/// with that index (`ckN`); `None` explains every traced check. Returns
/// `None` when the function has no recorded trace.
pub fn explain_function(report: &FunctionReport, check: Option<usize>) -> Option<String> {
    let trace = report.trace.as_ref()?;
    let mut out = String::new();
    let _ = writeln!(out, "fn {}:", report.name);
    let wanted = check.map(|n| format!("ck{n}"));
    let mut shown = 0usize;
    for span in trace.spans() {
        if let (Some(site), Some(w)) = (span.site(), &wanted) {
            if site.to_string() != *w {
                continue;
            }
        }
        match span {
            Span::Prove {
                site,
                check,
                target,
                source,
                c,
                proven,
                exhausted,
                steps,
                events,
            } => {
                shown += 1;
                let _ = writeln!(
                    out,
                    "  check {site} ({check}): {}",
                    prove_certificate(
                        check, target, source, *c, *proven, *exhausted, *steps, events
                    )
                );
            }
            Span::Pre {
                site,
                check,
                outcome,
                steps,
                insertions,
                ..
            } => {
                shown += 1;
                let _ = write!(out, "  check {site} ({check}, pre): {outcome}");
                if insertions.is_empty() {
                    let _ = writeln!(out, "; pre steps spent {steps}");
                } else {
                    let _ = writeln!(out, ":");
                    for p in insertions {
                        let delta = match p.delta {
                            d if d < 0 => format!("{} − {}", p.arg, -d),
                            0 => p.arg.clone(),
                            d => format!("{} + {}", p.arg, d),
                        };
                        let _ = writeln!(
                            out,
                            "    insert spec_check [{delta}] at end of {} (c′ = {})",
                            p.pred, p.c_prime
                        );
                    }
                }
            }
            Span::Cache { hit: true } => {
                let _ = writeln!(
                    out,
                    "  (replayed from the analysis cache — no derivations this run)"
                );
            }
            _ => {}
        }
    }
    for incident in &report.incidents {
        let _ = writeln!(out, "  incident: {incident}");
    }
    if shown == 0 && check.is_some() {
        let _ = writeln!(out, "  (no recorded derivation for {})", wanted.unwrap());
    }
    Some(out)
}

/// The one-line certificate for a single `demandProve` query.
#[allow(clippy::too_many_arguments)]
fn prove_certificate(
    check: &str,
    target: &str,
    source: &str,
    c: i64,
    proven: bool,
    exhausted: bool,
    steps: u64,
    events: &[ProveEvent],
) -> String {
    let claim = inequality(check, target, source, c);
    if proven {
        if let Some(path) = witness_path(events) {
            let mut rendered = String::new();
            let mut weight = 0i64;
            for (i, (v, slack)) in path.iter().enumerate() {
                if i > 0 {
                    let w = path[i - 1].1 - slack;
                    weight += w;
                    let _ = write!(rendered, " →({w}) ");
                }
                rendered.push_str(v);
            }
            return format!("eliminated: {claim} via path {rendered}, weight {weight}");
        }
        // Proven without reaching the source in this traversal: a memoized
        // verdict, a harmless cycle, or a potential comparison closed it.
        for e in events {
            match e {
                ProveEvent::MemoHit { v, c, verdict, .. } if *verdict != "false" => {
                    return format!(
                        "eliminated: {claim} via memoized verdict at {v} (subsumed by bound {c})"
                    );
                }
                ProveEvent::Cycle {
                    v,
                    c,
                    entry_c,
                    amplifying: false,
                    ..
                } => {
                    return format!(
                        "eliminated: {claim} via harmless cycle at {v} (slack {c} ≥ entry {entry_c})"
                    );
                }
                ProveEvent::Potential {
                    v, proven: true, ..
                } => {
                    return format!("eliminated: {claim} by potential comparison at {v}");
                }
                _ => {}
            }
        }
        return format!("eliminated: {claim}");
    }
    if exhausted {
        return format!("kept: fuel exhausted proving {claim}; fuel spent {steps}");
    }
    for e in events {
        match e {
            ProveEvent::Cycle {
                v,
                c,
                entry_c,
                amplifying: true,
                ..
            } => {
                return format!(
                    "kept: amplifying cycle at {v} (slack {c} < entry {entry_c}); fuel spent {steps}"
                );
            }
            ProveEvent::Unconstrained { v, .. } => {
                return format!(
                    "kept: {v} is unconstrained — no derivation reaches {source}; \
                     fuel spent {steps}"
                );
            }
            ProveEvent::Potential {
                v, proven: false, ..
            } => {
                return format!("kept: potential comparison refutes {claim} at {v}");
            }
            _ => {}
        }
    }
    format!("kept: {claim} refuted; fuel spent {steps}")
}

/// Renders the solver-domain query as the user-facing inequality. Upper
/// queries ask `target − source ≤ c`; lower queries run on the negated
/// problem, so `target − source ≤ c` reads `target ≥ source − c`.
fn inequality(check: &str, target: &str, source: &str, c: i64) -> String {
    if check == "lower" {
        match (source, c) {
            ("0", c) => format!("{target} ≥ {}", -c),
            (s, 0) => format!("{target} ≥ {s}"),
            (s, c) if c > 0 => format!("{target} ≥ {s} − {c}"),
            (s, c) => format!("{target} ≥ {s} + {}", -c),
        }
    } else {
        match c {
            0 => format!("{target} ≤ {source}"),
            c if c < 0 => format!("{target} ≤ {source} − {}", -c),
            c => format!("{target} ≤ {source} + {c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(v: &str, c: i64, d: u32) -> ProveEvent {
        ProveEvent::Visit {
            v: v.to_string(),
            c,
            d,
        }
    }

    #[test]
    fn witness_path_follows_the_successful_branch() {
        // v5 → (dead end v9) → v3 → len(v0): the stack must discard the
        // abandoned v9 frame when the v3 branch opens at the same depth.
        let events = vec![
            visit("v5", -1, 0),
            visit("v9", -1, 1),
            ProveEvent::Unconstrained {
                v: "v9".to_string(),
                c: -1,
                d: 2,
            },
            ProveEvent::Resolved {
                v: "v9".to_string(),
                d: 1,
                verdict: "false",
            },
            visit("v3", 0, 1),
            ProveEvent::Source {
                v: "len(v0)".to_string(),
                c: 0,
                d: 2,
            },
        ];
        let path = witness_path(&events).unwrap();
        assert_eq!(
            path,
            vec![
                ("v5".to_string(), -1),
                ("v3".to_string(), 0),
                ("len(v0)".to_string(), 0)
            ]
        );
        // Hop weights: c_parent − c_child.
        assert_eq!(path[0].1 - path[1].1, -1);
        assert_eq!(path[1].1 - path[2].1, 0);
    }

    #[test]
    fn witness_path_absent_without_source() {
        let events = vec![
            visit("v5", -1, 0),
            ProveEvent::Unconstrained {
                v: "v5".to_string(),
                c: -1,
                d: 1,
            },
        ];
        assert!(witness_path(&events).is_none());
    }

    #[test]
    fn certificate_renders_path_and_weight() {
        let events = vec![
            visit("i1", -1, 0),
            visit("n", 0, 1),
            ProveEvent::Source {
                v: "len(a)".to_string(),
                c: 0,
                d: 2,
            },
        ];
        let cert = prove_certificate("upper", "i1", "len(a)", -1, true, false, 7, &events);
        assert_eq!(
            cert,
            "eliminated: i1 ≤ len(a) − 1 via path i1 →(-1) n →(0) len(a), weight -1"
        );
    }

    #[test]
    fn certificate_names_amplifying_cycle() {
        let events = vec![
            visit("v4", -1, 0),
            ProveEvent::Cycle {
                v: "v4".to_string(),
                c: -2,
                entry_c: -1,
                amplifying: true,
                d: 3,
            },
        ];
        let cert = prove_certificate("upper", "v4", "len(v0)", -1, false, false, 9, &events);
        assert!(
            cert.starts_with("kept: amplifying cycle at v4 (slack -2 < entry -1)"),
            "{cert}"
        );
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let mut t = FunctionTrace::new();
        for _ in 0..(SPAN_RING_CAPACITY + 3) {
            t.push(Span::Cache { hit: false });
        }
        assert_eq!(t.spans.len(), SPAN_RING_CAPACITY);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn jsonl_lines_have_schema_header_and_balance() {
        let mut report = ModuleReport::default();
        let mut f = FunctionReport::new("weird\"name");
        let mut trace = FunctionTrace::new();
        trace.push(Span::Pass {
            stage: Stage::InsertPi,
            dur: Duration::from_micros(5),
        });
        trace.push(Span::Prove {
            site: CheckSite::new(0),
            check: "upper",
            target: "v5".to_string(),
            source: "len(v0)".to_string(),
            c: -1,
            proven: true,
            exhausted: false,
            steps: 3,
            events: vec![visit("v5", -1, 0)],
        });
        f.trace = Some(Box::new(trace));
        report.functions.push(f);
        let jsonl = module_trace_jsonl(&report, 2, false);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"schema\":\"abcd-trace/4\""));
        assert!(lines[1].contains("\"function\":\"weird\\\"name\""));
        assert!(lines[2].contains("\"span\":\"prove\""));
        for line in &lines {
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert!(line.chars().all(|c| (c as u32) >= 0x20));
        }
        // Deterministic mode zeroes the duration and is stable.
        let det = module_trace_jsonl(&report, 2, true);
        assert!(det.contains("\"dur_us\":0"));
        assert_eq!(det, module_trace_jsonl(&report, 2, true));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
