//! Observability for the optimization pipeline: per-pass wall time, solver
//! effort, memo effectiveness, and constraint-graph sizes, with a
//! dependency-free JSON emitter.
//!
//! The driver fills a [`FunctionMetrics`] per function (stored on its
//! [`FunctionReport`](crate::report::FunctionReport)); [`module_metrics_json`]
//! renders the whole run — including the worker-thread count and measured
//! wall-clock time — in the stable `abcd-metrics/8` schema consumed by the
//! `mjc` CLI, the `abcdd` server, and the bench binaries.
//!
//! # Schema (`abcd-metrics/8`)
//!
//! ```json
//! {
//!   "schema": "abcd-metrics/8",
//!   "threads": 2,
//!   "wall_time_us": 1234,
//!   "deterministic": false,
//!   "totals": {
//!     "functions": 3, "checks_total": 10, "removed_fully": 6,
//!     "hoisted": 1, "reinstated": 0, "steps": 57, "pre_steps": 12,
//!     "fuel_spent": 69, "checks_validated": 7, "checks_reinstated": 0,
//!     "incidents": 0, "degraded_incidents": 0,
//!     "functions_from_cache": 1,
//!     "memo_hits": 20, "memo_misses": 37, "memo_hit_rate": 0.3508,
//!     "prepare_us": 10, "graph_build_us": 5, "solve_us": 3,
//!     "pre_us": 2, "transform_us": 1
//!   },
//!   "cache": { "hits": 1, "misses": 2, "stores": 2, "evictions": 0,
//!              "corrupt": 0, "recovered": 0, "write_errors": 0,
//!              "disk_hits": 0, "entries": 2,
//!              "bytes": 4096, "budget_bytes": 67108864 },
//!   "server": { "queue_depth": 0, "request_latency_us": 412 },
//!   "incidents": [
//!     { "kind": "budget_exhausted", "function": "f", "site": "ck3",
//!       "check": "upper", "fuel": 64 }
//!   ],
//!   "functions": [ { "name": "f", ..., "from_cache": false,
//!                    "fuel_spent": 57, "fuel_limit": 64,
//!                    "provenance": { "removed": 6,
//!                                    "removed_congruent": 0, "hoisted": 1,
//!                                    "kept": 3, "kept_exhausted": 0,
//!                                    "skipped": 0, "reinstated": 0 },
//!                    "incidents": [...], "graph": {...},
//!                    "times_us": {...} } ]
//! }
//! ```
//!
//! Relative to `abcd-metrics/7`, version 8 merges the `provenance`
//! object's `removed_local` and `removed_global` into one `removed`
//! count. Figure 6's local/global split is computed by the experiment
//! that prints it (`abcd-bench`'s `figure6`), not by the optimizer.
//!
//! Relative to `abcd-metrics/6`, version 7 drops the per-backend solver
//! accounting: the per-function `backend` object and the two module-wide
//! per-engine totals of steps and query time. The demand prover is the
//! only query engine, so `steps` and `solve_us` already carry them.
//!
//! Relative to `abcd-metrics/5`, version 6 adds the service-hardening
//! surface: the non-degraded `deadline_exceeded` incident kind (a request
//! blew its deadline and the module was served *unoptimized* — every check
//! kept, correctness intact), and two crash-safety counters on the `cache`
//! object — `recovered` (partial temp files quarantined by the startup
//! recovery sweep after an unclean shutdown) and `write_errors` (disk
//! persists that failed and were rolled back; the entry stays in-memory
//! only). Both are operational signals, never correctness ones.
//!
//! Relative to `abcd-metrics/4`, version 5 added per-backend solver
//! accounting for the then-selectable prover engines (removed again in
//! version 7). The `solver_overflow` incident kind (non-degraded: the check was kept
//! conservatively after path-weight arithmetic saturated) is also new.
//!
//! Relative to `abcd-metrics/3`, version 4 adds the per-function
//! `provenance` object summarizing *why* each verdict happened (the
//! Figure 6 accounting: local vs. global (merged in version 8) vs.
//! congruence-only removals, hoists, kept checks split by fuel
//! exhaustion, skips and validation reinstatements) — the aggregate companion to the full derivation
//! traces recorded by [`crate::trace`].
//!
//! Relative to `abcd-metrics/2`, version 3 added the serving + caching
//! observability: the `cache` object (hit/miss/store/eviction/corruption
//! counters and byte budget — `null` when no cache is attached), the
//! `server` object (admission-queue depth at dequeue and per-request
//! latency — `null` for batch runs), the per-function `from_cache` flag
//! with its `functions_from_cache` total, the `cache_corrupt` incident
//! kind, and the `deterministic` flag: when set, every duration field is
//! emitted as `0` so two runs over the same input produce byte-identical
//! JSON (the property the warm-vs-cold and served-vs-batch differential
//! tests compare). All non-time fields are deterministic by construction:
//! functions are emitted in module order, outcomes and incidents in the
//! order the driver recorded them.
//!
//! All durations are integer microseconds; `memo_hit_rate` is
//! `hits / (hits + misses)` (0 when no queries ran).

use crate::cache::CacheStats;
use crate::report::{Incident, ModuleReport};
use crate::trace::json_escape;
use abcd_ir::CheckKind;
use std::fmt::Write as _;
use std::time::Duration;

/// Pipeline observability for one function, recorded by the driver.
#[derive(Clone, Copy, Debug, Default)]
pub struct FunctionMetrics {
    /// Stages 1–3: SSA construction, cleanup, e-SSA π insertion.
    pub prepare_time: Duration,
    /// Stage 4: building the upper and lower inequality graphs.
    pub graph_build_time: Duration,
    /// Stage 5a: `demandProve` queries (including §7.1 congruence
    /// retries).
    pub solve_time: Duration,
    /// Stage 5b: the PRE-collecting pass over failed checks (§6).
    pub pre_time: Duration,
    /// Stage 5c: applying removals, insertions, and check merging.
    pub transform_time: Duration,
    /// Upper-problem graph size.
    pub upper_vertices: usize,
    /// Upper-problem edge count.
    pub upper_edges: usize,
    /// Lower-problem graph size.
    pub lower_vertices: usize,
    /// Lower-problem edge count.
    pub lower_edges: usize,
    /// Memo-table hits across the function's demand provers.
    pub memo_hits: u64,
    /// Memo-table misses (traversals) across the function's demand provers.
    pub memo_misses: u64,
    /// Memo hits of the PRE provers.
    pub pre_memo_hits: u64,
    /// Memo misses of the PRE provers.
    pub pre_memo_misses: u64,
}

impl FunctionMetrics {
    /// Total pipeline time for this function.
    pub fn total_time(&self) -> Duration {
        self.prepare_time
            + self.graph_build_time
            + self.solve_time
            + self.pre_time
            + self.transform_time
    }

    /// Memo hit rate of the demand provers (0 when no queries ran).
    pub fn memo_hit_rate(&self) -> f64 {
        hit_rate(self.memo_hits, self.memo_misses)
    }
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Run-level facts the report itself does not know: how the module was
/// driven, how long the whole optimization took end to end, and — when a
/// cache or the `abcdd` server is involved — their counters.
#[derive(Clone, Copy, Debug)]
pub struct RunInfo {
    /// Worker threads the driver used.
    pub threads: usize,
    /// End-to-end wall-clock time of `optimize_module` as measured by the
    /// caller (covers scheduling overhead the per-pass times do not).
    pub wall_time: Duration,
    /// Emit every duration as 0 so identical runs produce byte-identical
    /// JSON (used by the differential tests and `--deterministic-metrics`).
    pub deterministic: bool,
    /// Analysis-cache counters, when a cache was attached.
    pub cache: Option<CacheStats>,
    /// Admission-queue depth observed when this request was dequeued
    /// (server runs only).
    pub queue_depth: Option<usize>,
    /// End-to-end request latency as measured by the server (admission to
    /// response), server runs only.
    pub request_latency: Option<Duration>,
}

impl RunInfo {
    /// Run info for a plain batch run (no cache, no server).
    pub fn new(threads: usize, wall_time: Duration) -> RunInfo {
        RunInfo {
            threads,
            wall_time,
            deterministic: false,
            cache: None,
            queue_depth: None,
            request_latency: None,
        }
    }

    /// Attaches cache counters.
    pub fn with_cache(mut self, stats: CacheStats) -> RunInfo {
        self.cache = Some(stats);
        self
    }

    /// Zeroes all emitted durations for byte-comparable output.
    pub fn deterministic(mut self) -> RunInfo {
        self.deterministic = true;
        self
    }
}

// ---- JSON emission (no dependencies) -----------------------------------

fn us(d: Duration) -> u128 {
    d.as_micros()
}

/// Renders a finite float with enough precision for a rate; JSON has no
/// NaN/Inf, so non-finite values degrade to 0.
fn rate(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "0".to_string()
    }
}

fn kind_str(kind: CheckKind) -> &'static str {
    match kind {
        CheckKind::Upper => "upper",
        CheckKind::Lower => "lower",
        CheckKind::Both => "both",
    }
}

/// Renders one incident as a typed JSON object.
fn incident_json(incident: &Incident, out: &mut String) {
    let _ = write!(out, "{{\"kind\":\"{}\"", incident.kind_name());
    match incident {
        Incident::BudgetExhausted {
            function,
            site,
            kind,
            fuel,
        } => {
            let _ = write!(
                out,
                ",\"function\":\"{}\",\"site\":\"{site}\",\"check\":\"{}\",\"fuel\":{fuel}",
                json_escape(function),
                kind_str(*kind),
            );
        }
        Incident::PassPanic {
            function,
            pass,
            payload,
        } => {
            let _ = write!(
                out,
                ",\"function\":\"{}\",\"pass\":\"{}\",\"payload\":\"{}\"",
                json_escape(function),
                pass,
                json_escape(payload),
            );
        }
        Incident::VerifyFailed {
            function,
            pass,
            error,
        } => {
            let _ = write!(
                out,
                ",\"function\":\"{}\",\"pass\":\"{}\",\"error\":\"{}\"",
                json_escape(function),
                pass,
                json_escape(error),
            );
        }
        Incident::ValidationReinstated {
            function,
            site,
            kind,
        } => {
            let _ = write!(
                out,
                ",\"function\":\"{}\",\"site\":\"{site}\",\"check\":\"{}\"",
                json_escape(function),
                kind_str(*kind),
            );
        }
        Incident::CacheCorrupt { function, detail } => {
            let _ = write!(
                out,
                ",\"function\":\"{}\",\"detail\":\"{}\"",
                json_escape(function),
                json_escape(detail),
            );
        }
        Incident::SolverOverflow {
            function,
            site,
            kind,
        } => {
            let _ = write!(
                out,
                ",\"function\":\"{}\",\"site\":\"{site}\",\"check\":\"{}\"",
                json_escape(function),
                kind_str(*kind),
            );
        }
        Incident::DeadlineExceeded {
            function,
            deadline_ms,
            elapsed_ms,
        } => {
            let _ = write!(
                out,
                ",\"function\":\"{}\",\"deadline_ms\":{deadline_ms},\"elapsed_ms\":{elapsed_ms}",
                json_escape(function),
            );
        }
    }
    out.push('}');
}

fn incidents_json<'a>(incidents: impl Iterator<Item = &'a Incident>, out: &mut String) {
    out.push('[');
    for (i, incident) in incidents.enumerate() {
        if i > 0 {
            out.push(',');
        }
        incident_json(incident, out);
    }
    out.push(']');
}

/// Renders the verdict-provenance object: the accounting of *why* each
/// check ended where it did.
fn provenance_json(report: &crate::report::FunctionReport, out: &mut String) {
    use crate::report::CheckOutcome;
    let mut removed = 0usize;
    let mut removed_congruent = 0usize;
    let mut hoisted = 0usize;
    let mut kept = 0usize;
    let mut skipped = 0usize;
    let mut reinstated = 0usize;
    for (_, _, o) in &report.outcomes {
        match o {
            CheckOutcome::RemovedFully { via_congruence } => {
                removed += 1;
                if *via_congruence {
                    removed_congruent += 1;
                }
            }
            CheckOutcome::Hoisted { .. } => hoisted += 1,
            CheckOutcome::Kept => kept += 1,
            CheckOutcome::Skipped => skipped += 1,
            CheckOutcome::Reinstated => reinstated += 1,
        }
    }
    let kept_exhausted = report
        .incidents
        .iter()
        .filter(|i| matches!(i, Incident::BudgetExhausted { .. }))
        .count();
    let _ = write!(
        out,
        ",\"provenance\":{{\"removed\":{removed},\
         \"removed_congruent\":{removed_congruent},\"hoisted\":{hoisted},\
         \"kept\":{kept},\"kept_exhausted\":{kept_exhausted},\
         \"skipped\":{skipped},\"reinstated\":{reinstated}}}"
    );
}

/// Renders one function's metrics object. `det` zeroes the durations.
fn function_json(report: &crate::report::FunctionReport, det: bool, out: &mut String) {
    let m = &report.metrics;
    let us = |d: Duration| if det { 0 } else { us(d) };
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"checks_total\":{},\"removed_fully\":{},\"hoisted\":{},\
         \"reinstated\":{},\"steps\":{},\"pre_steps\":{},\
         \"fuel_spent\":{},\"fuel_limit\":{},\
         \"checks_validated\":{},\"checks_reinstated\":{},\"from_cache\":{},\
         \"memo_hits\":{},\"memo_misses\":{},\"memo_hit_rate\":{},\
         \"pre_memo_hits\":{},\"pre_memo_misses\":{}",
        json_escape(&report.name),
        report.checks_total,
        report.removed_fully(),
        report.hoisted(),
        report.reinstated(),
        report.steps,
        report.pre_steps,
        report.fuel_spent,
        report
            .fuel_limit
            .map_or_else(|| "null".to_string(), |f| f.to_string()),
        report.checks_validated,
        report.checks_reinstated,
        report.from_cache,
        m.memo_hits,
        m.memo_misses,
        rate(m.memo_hit_rate()),
        m.pre_memo_hits,
        m.pre_memo_misses,
    );
    provenance_json(report, out);
    out.push_str(",\"incidents\":");
    incidents_json(report.incidents.iter(), out);
    let _ = write!(
        out,
        ",\"graph\":{{\"upper_vertices\":{},\"upper_edges\":{},\
         \"lower_vertices\":{},\"lower_edges\":{}}},\
         \"times_us\":{{\"prepare\":{},\"graph_build\":{},\"solve\":{},\
         \"pre\":{},\"transform\":{},\"total\":{}}}}}",
        m.upper_vertices,
        m.upper_edges,
        m.lower_vertices,
        m.lower_edges,
        us(m.prepare_time),
        us(m.graph_build_time),
        us(m.solve_time),
        us(m.pre_time),
        us(m.transform_time),
        us(m.total_time()),
    );
}

/// Renders the `abcd-metrics/8` JSON document for one optimized module.
pub fn module_metrics_json(report: &ModuleReport, run: RunInfo) -> String {
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut prepare = Duration::ZERO;
    let mut graph_build = Duration::ZERO;
    let mut solve = Duration::ZERO;
    let mut pre = Duration::ZERO;
    let mut transform = Duration::ZERO;
    for f in &report.functions {
        hits += f.metrics.memo_hits + f.metrics.pre_memo_hits;
        misses += f.metrics.memo_misses + f.metrics.pre_memo_misses;
        prepare += f.metrics.prepare_time;
        graph_build += f.metrics.graph_build_time;
        solve += f.metrics.solve_time;
        pre += f.metrics.pre_time;
        transform += f.metrics.transform_time;
    }
    let det = run.deterministic;
    let us = |d: Duration| if det { 0 } else { us(d) };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"abcd-metrics/8\",\"threads\":{},\"wall_time_us\":{},\
         \"deterministic\":{},\
         \"totals\":{{\"functions\":{},\"checks_total\":{},\"removed_fully\":{},\
         \"hoisted\":{},\"reinstated\":{},\"steps\":{},\"pre_steps\":{},\
         \"fuel_spent\":{},\"checks_validated\":{},\"checks_reinstated\":{},\
         \"incidents\":{},\"degraded_incidents\":{},\"functions_from_cache\":{},\
         \"memo_hits\":{},\"memo_misses\":{},\"memo_hit_rate\":{},\
         \"prepare_us\":{},\"graph_build_us\":{},\"solve_us\":{},\
         \"pre_us\":{},\"transform_us\":{}}},\"cache\":",
        run.threads,
        us(run.wall_time),
        det,
        report.functions.len(),
        report.checks_total(),
        report.checks_removed_fully(),
        report.checks_hoisted(),
        report
            .functions
            .iter()
            .map(|f| f.reinstated())
            .sum::<usize>(),
        report.steps(),
        report.pre_steps(),
        report.fuel_spent(),
        report.checks_validated(),
        report.checks_reinstated(),
        report.incident_count(),
        report.degraded_incident_count(),
        report.functions_from_cache(),
        hits,
        misses,
        rate(hit_rate(hits, misses)),
        us(prepare),
        us(graph_build),
        us(solve),
        us(pre),
        us(transform),
    );
    match run.cache {
        None => out.push_str("null"),
        Some(c) => {
            let fields = c.fields().map(|(name, n)| format!("\"{name}\":{n}"));
            let _ = write!(out, "{{{}}}", fields.join(","));
        }
    }
    out.push_str(",\"server\":");
    match (run.queue_depth, run.request_latency) {
        (None, None) => out.push_str("null"),
        (depth, latency) => {
            let _ = write!(
                out,
                "{{\"queue_depth\":{},\"request_latency_us\":{}}}",
                depth.map_or_else(|| "null".to_string(), |d| d.to_string()),
                latency.map_or_else(|| "null".to_string(), |l| us(l).to_string()),
            );
        }
    }
    out.push_str(",\"incidents\":");
    incidents_json(report.incidents(), &mut out);
    out.push_str(",\"functions\":[");
    for (i, f) in report.functions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        function_json(f, det, &mut out);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn hit_rate_is_safe_on_zero() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(1, 1), 0.5);
        assert_eq!(rate(f64::NAN), "0");
    }

    #[test]
    fn module_json_has_schema_and_balances() {
        let mut report = ModuleReport::default();
        let mut f = crate::report::FunctionReport::new("f\"1");
        f.checks_total = 2;
        f.metrics.memo_hits = 3;
        f.metrics.memo_misses = 1;
        report.functions.push(f);
        let json = module_metrics_json(&report, RunInfo::new(2, Duration::from_micros(7)));
        assert!(json.starts_with("{\"schema\":\"abcd-metrics/8\""));
        assert!(json.contains("\"provenance\":{\"removed\":0,"));
        assert!(!json.contains("backend"));
        assert!(json.contains("\"threads\":2"));
        assert!(json.contains("\"wall_time_us\":7"));
        assert!(json.contains("\"deterministic\":false"));
        assert!(json.contains("\"cache\":null"));
        assert!(json.contains("\"server\":null"));
        assert!(json.contains("\"from_cache\":false"));
        assert!(json.contains("\"functions_from_cache\":0"));
        assert!(json.contains("\"name\":\"f\\\"1\""));
        assert!(json.contains("\"memo_hit_rate\":0.7500"));
        // Zero-incident runs record the empty array explicitly.
        assert!(json.contains("\"incidents\":0,\"degraded_incidents\":0"));
        assert!(json.contains("\"incidents\":[]"));
        assert!(json.contains("\"fuel_limit\":null"));
        // Balanced braces/brackets and no raw control characters.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.chars().all(|c| (c as u32) >= 0x20));
    }

    #[test]
    fn hostile_function_names_round_trip_and_escape() {
        // Quotes, backslashes, control characters, non-ASCII, embedded
        // NULs and the empty name: a function keeps each one verbatim,
        // and the metrics JSON names it (entry and incident) escaped.
        let corpus = [
            "a\"b\\c",
            "x\ny",
            "\u{1}",
            "tab\there",
            "quote\"inside",
            "back\\slash",
            "null\0byte",
            "ünïcódé·名前",
            "",
            " ",
            "weird\"name",
            "injected \"quote\"",
        ];
        for name in corpus {
            let func = abcd_ir::Function::new(name, Vec::new(), None);
            assert_eq!(func.name(), name);
            let mut report = ModuleReport::default();
            let mut f = crate::report::FunctionReport::new(func.name_arc());
            f.incidents.push(Incident::CacheCorrupt {
                function: func.name_arc(),
                detail: String::new(),
            });
            report.functions.push(f);
            let json = module_metrics_json(&report, RunInfo::new(1, Duration::ZERO));
            let escaped = json_escape(name);
            assert!(json.contains(&format!("\"name\":\"{escaped}\"")), "{json}");
            assert!(
                json.contains(&format!("\"function\":\"{escaped}\"")),
                "{json}"
            );
            assert!(json.chars().all(|c| (c as u32) >= 0x20), "{json}");
        }
    }

    #[test]
    fn incidents_render_as_typed_objects() {
        use abcd_ir::CheckSite;
        let mut report = ModuleReport::default();
        let mut f = crate::report::FunctionReport::new("f");
        f.fuel_limit = Some(64);
        f.incidents.push(Incident::BudgetExhausted {
            function: "f".into(),
            site: CheckSite::new(3),
            kind: CheckKind::Upper,
            fuel: 64,
        });
        f.incidents.push(Incident::PassPanic {
            function: "f".into(),
            pass: crate::Stage::Cleanup,
            payload: "injected \"quote\"".to_string(),
        });
        report.functions.push(f);
        let json = module_metrics_json(&report, RunInfo::new(1, Duration::ZERO));
        assert!(json.contains(
            "{\"kind\":\"budget_exhausted\",\"function\":\"f\",\"site\":\"ck3\",\
             \"check\":\"upper\",\"fuel\":64}"
        ));
        assert!(json.contains("\"kind\":\"pass_panic\""));
        assert!(json.contains("\"payload\":\"injected \\\"quote\\\"\""));
        assert!(json.contains("\"kept_exhausted\":1"));
        assert!(json.contains("\"incidents\":2,\"degraded_incidents\":1"));
        assert!(json.contains("\"fuel_limit\":64"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn cache_corrupt_incident_renders_and_is_not_degraded() {
        let mut report = ModuleReport::default();
        let mut f = crate::report::FunctionReport::new("f");
        f.incidents.push(Incident::CacheCorrupt {
            function: "f".into(),
            detail: "checksum mismatch".to_string(),
        });
        report.functions.push(f);
        assert_eq!(report.degraded_incident_count(), 0);
        let json = module_metrics_json(&report, RunInfo::new(1, Duration::ZERO));
        assert!(json.contains(
            "{\"kind\":\"cache_corrupt\",\"function\":\"f\",\"detail\":\"checksum mismatch\"}"
        ));
    }

    #[test]
    fn deadline_incident_renders_and_is_not_degraded() {
        let mut report = ModuleReport::default();
        let mut f = crate::report::FunctionReport::new("f");
        f.incidents.push(Incident::DeadlineExceeded {
            function: "f".into(),
            deadline_ms: 50,
            elapsed_ms: 61,
        });
        report.functions.push(f);
        assert_eq!(report.degraded_incident_count(), 0);
        let json = module_metrics_json(&report, RunInfo::new(1, Duration::ZERO));
        assert!(json.contains(
            "{\"kind\":\"deadline_exceeded\",\"function\":\"f\",\
             \"deadline_ms\":50,\"elapsed_ms\":61}"
        ));
    }

    #[test]
    fn cache_recovery_counters_render() {
        let report = ModuleReport::default();
        let stats = crate::cache::CacheStats {
            recovered: 2,
            write_errors: 3,
            ..crate::cache::CacheStats::default()
        };
        let json = module_metrics_json(&report, RunInfo::new(1, Duration::ZERO).with_cache(stats));
        assert!(
            json.contains("\"recovered\":2,\"write_errors\":3"),
            "{json}"
        );
    }

    #[test]
    fn provenance_counts_every_outcome_bucket() {
        use crate::report::CheckOutcome;
        use abcd_ir::CheckSite;
        let mut f = crate::report::FunctionReport::new("f");
        let o = |n: usize, k, oc| (CheckSite::new(n), k, oc);
        f.outcomes.push(o(
            0,
            CheckKind::Upper,
            CheckOutcome::RemovedFully {
                via_congruence: false,
            },
        ));
        f.outcomes.push(o(
            1,
            CheckKind::Upper,
            CheckOutcome::RemovedFully {
                via_congruence: true,
            },
        ));
        f.outcomes.push(o(
            2,
            CheckKind::Lower,
            CheckOutcome::Hoisted { insertions: 2 },
        ));
        f.outcomes.push(o(3, CheckKind::Upper, CheckOutcome::Kept));
        f.outcomes
            .push(o(4, CheckKind::Upper, CheckOutcome::Skipped));
        f.outcomes
            .push(o(5, CheckKind::Lower, CheckOutcome::Reinstated));
        let mut report = ModuleReport::default();
        report.functions.push(f);
        let json = module_metrics_json(&report, RunInfo::new(1, Duration::ZERO));
        assert!(
            json.contains(
                "\"provenance\":{\"removed\":2,\
                 \"removed_congruent\":1,\"hoisted\":1,\"kept\":1,\
                 \"kept_exhausted\":0,\"skipped\":1,\"reinstated\":1}"
            ),
            "{json}"
        );
    }

    #[test]
    fn deterministic_zeroes_every_duration() {
        let mut report = ModuleReport::default();
        let mut f = crate::report::FunctionReport::new("f");
        f.metrics.prepare_time = Duration::from_micros(99);
        f.metrics.solve_time = Duration::from_micros(3);
        report.functions.push(f);
        let info = RunInfo::new(1, Duration::from_micros(123456))
            .with_cache(crate::cache::CacheStats::default())
            .deterministic();
        let info = RunInfo {
            request_latency: Some(Duration::from_micros(77)),
            queue_depth: Some(4),
            ..info
        };
        let json = module_metrics_json(&report, info);
        assert!(json.contains("\"deterministic\":true"));
        assert!(json.contains("\"wall_time_us\":0"));
        assert!(json.contains("\"request_latency_us\":0"));
        assert!(json.contains("\"queue_depth\":4"));
        assert!(json.contains("\"cache\":{\"hits\":0"));
        assert!(!json.contains(":99"), "{json}");
        // Byte-identical across repeated emission.
        assert_eq!(json, module_metrics_json(&report, info));
    }
}
