//! End-to-end tests for the `abcd-trace/4` structured-tracing layer: the
//! witness-path certificates re-verify against the inequality graph, every
//! emitted artifact is valid JSON even under hostile function names, the
//! schema is pinned by a golden file, fault injections surface in the
//! trace, and tracing disabled is a no-op on the prove path.

use abcd::{
    ConstraintLog, DemandProver, InequalityGraph, Optimizer, Problem, Stage, Vertex, VertexId,
};
use abcd_frontend::compile;
use abcd_ir::{CheckKind, Value};
use abcd_server::json::Json;
use std::collections::HashMap;

/// The shipped observability example: `sum` eliminates both checks,
/// `peek` keeps both.
const PROGRAM: &str = include_str!("../examples/observability.mj");

/// Finds the first bounds check of `kind` in the named e-SSA function.
fn find_check(module: &abcd_ir::Module, name: &str, kind: CheckKind) -> (Value, Value) {
    let func = module
        .functions()
        .find(|(_, f)| f.name() == name)
        .map(|(_, f)| f)
        .expect("function exists");
    let mut log = ConstraintLog::default();
    log.record(func);
    if let Some(check) = log.checks().iter().find(|c| c.kind == kind) {
        return (check.array, check.index);
    }
    panic!("no {kind:?} check in {name}");
}

/// Acceptance criterion: every hop of a certificate's derivation path is a
/// real edge of the inequality graph, its printed weight is exactly that
/// edge's weight, and the hops sum to a weight that proves the inequality.
#[test]
fn witness_path_weights_reverify_against_the_inequality_graph() {
    let mut module = compile(PROGRAM).unwrap();
    Optimizer::new()
        .run_to(&mut module, Stage::InsertPi)
        .unwrap();
    let (array, index) = find_check(&module, "sum", CheckKind::Upper);
    let func = module
        .functions()
        .find(|(_, f)| f.name() == "sum")
        .map(|(_, f)| f)
        .unwrap();
    let graph = InequalityGraph::build(func, Problem::Upper, None);
    let mut prover = DemandProver::new(&graph, Vertex::ArrayLen(array));
    prover.enable_trace();
    assert!(
        prover.demand_prove(Vertex::Value(index), -1),
        "sum's upper check is the paper's eliminable shape"
    );
    let events = prover.take_trace();
    let path = abcd::witness_path(&events).expect("a proven query yields a witness path");
    assert!(path.len() >= 2, "path must have at least target and source");

    // Rendered vertex names → graph ids (names are unique by construction).
    let by_name: HashMap<String, VertexId> = (0..graph.vertex_count())
        .map(|i| {
            let vid = VertexId::from_index(i);
            (graph.vertex(vid).to_string(), vid)
        })
        .collect();

    let mut total = 0i64;
    for pair in path.windows(2) {
        let (parent_name, parent_c) = &pair[0];
        let (child_name, child_c) = &pair[1];
        let parent = by_name[parent_name.as_str()];
        let child = by_name[child_name.as_str()];
        let hop = parent_c - child_c;
        assert!(
            graph
                .in_edges(parent)
                .iter()
                .any(|e| e.src == child && e.weight == hop),
            "hop {child_name} →({hop}) {parent_name} is not an edge of the inequality graph"
        );
        total += hop;
    }
    // A source→target path of weight W establishes `target ≤ source + W`;
    // the upper check needs `index ≤ len − 1`, so W must be ≤ −1.
    assert!(total <= -1, "path weight {total} does not prove the check");
}

/// The certificates the example in the README demonstrates: at least one
/// eliminated check with a derivation path and one kept check with a
/// reason, straight from `explain_function`.
#[test]
fn explain_renders_eliminated_and_kept_certificates() {
    let mut module = compile(PROGRAM).unwrap();
    let report = Optimizer::new()
        .with_trace(true)
        .optimize_module(&mut module, None);
    let sum = report.functions.iter().find(|f| &*f.name == "sum").unwrap();
    let text = abcd::explain_function(sum, None).expect("sum has a trace");
    assert!(text.contains("eliminated: "), "{text}");
    assert!(text.contains("via path "), "{text}");
    assert!(text.contains("weight "), "{text}");
    let peek = report
        .functions
        .iter()
        .find(|f| &*f.name == "peek")
        .unwrap();
    let text = abcd::explain_function(peek, None).expect("peek has a trace");
    assert!(text.contains("kept: "), "{text}");
    // Narrowing to one site filters the others out.
    let only = abcd::explain_function(peek, Some(0)).unwrap();
    assert!(only.contains("ck0") && !only.contains("ck1"), "{only}");
}

/// Satellite: a function whose name contains quotes, backslashes and
/// control characters must still produce valid JSON in every artifact —
/// validated with the repo's own strict parser, not eyeballs.
#[test]
fn hostile_function_names_stay_valid_json_in_every_artifact() {
    let mut module =
        compile("fn f(a: int[], i: int) -> int { return a[i]; } fn main() -> int { return 0; }")
            .unwrap();
    let id = module
        .functions()
        .find(|(_, f)| f.name() == "f")
        .map(|(i, _)| i)
        .unwrap();
    module
        .function_mut(id)
        .set_name("we\"ird\\name\nwith\tctl\u{1}");
    let report = Optimizer::new()
        .with_trace(true)
        .optimize_module(&mut module, None);

    let trace = abcd::module_trace_jsonl(&report, 1, true);
    for line in trace.lines() {
        Json::parse(line).unwrap_or_else(|e| panic!("trace line not valid JSON ({e}): {line}"));
    }
    let metrics = abcd::module_metrics_json(
        &report,
        abcd::RunInfo::new(1, std::time::Duration::ZERO).deterministic(),
    );
    Json::parse(&metrics).expect("metrics document parses");
    assert!(metrics.contains("we\\\"ird\\\\name\\nwith\\tctl\\u0001"));
    let response =
        abcd_server::proto::ok_response("ir text", &report, false, Some(&trace), Some(&metrics));
    let doc = Json::parse(&response).expect("ok_response parses");
    assert!(doc.get("trace").and_then(Json::as_str).is_some());
}

/// Satellite: golden-file pin of the `abcd-trace/4` schema. Deterministic
/// mode must render the example module byte-identically to the checked-in
/// document; a diff here means the schema changed and needs a version bump
/// (and a regenerated golden file).
#[test]
fn trace_schema_v1_matches_the_golden_file() {
    let mut module = compile(PROGRAM).unwrap();
    let report = Optimizer::new()
        .with_trace(true)
        .optimize_module(&mut module, None);
    let trace = abcd::module_trace_jsonl(&report, 1, true);
    let golden = include_str!("golden/observability_trace.jsonl");
    assert_eq!(
        trace, golden,
        "abcd-trace/4 drifted from tests/golden/observability_trace.jsonl; \
         if intentional, bump TRACE_SCHEMA and regenerate with \
         `mjc opt examples/observability.mj --trace-out tests/golden/observability_trace.jsonl --deterministic-metrics`"
    );
}

/// Satellite: an armed fault plan (`panic:sum:solve`) must leave the
/// PassPanic incident as the last trace span for that function, so the
/// trace tells the story even when the pipeline lost its in-flight spans.
#[test]
fn armed_fault_plan_is_the_last_span_of_the_panicked_function() {
    let mut module = compile(PROGRAM).unwrap();
    let plan = abcd::FaultPlan::parse("panic:sum:solve").unwrap();
    let report = Optimizer::new()
        .with_trace(true)
        .with_fault_plan(plan)
        .optimize_module(&mut module, None);
    let trace = abcd::module_trace_jsonl(&report, 1, true);
    let last = trace
        .lines()
        .rfind(|l| l.contains("\"function\":\"sum\""))
        .expect("sum appears in the trace");
    assert!(last.contains("\"span\":\"incident\""), "{last}");
    assert!(last.contains("\"kind\":\"pass_panic\""), "{last}");
    assert!(last.contains("\"pass\":\"solve\""), "{last}");
}

/// Acceptance criterion: tracing disabled is a no-op. Structurally, an
/// untraced prover never allocates an event buffer; behaviorally, traced
/// and untraced runs agree on every output and counter.
#[test]
fn tracing_disabled_is_a_no_op_on_the_prove_path() {
    let mut module = compile(PROGRAM).unwrap();
    Optimizer::new()
        .run_to(&mut module, Stage::InsertPi)
        .unwrap();
    let (array, index) = find_check(&module, "sum", CheckKind::Upper);
    let func = module
        .functions()
        .find(|(_, f)| f.name() == "sum")
        .map(|(_, f)| f)
        .unwrap();
    let graph = InequalityGraph::build(func, Problem::Upper, None);
    let mut prover = DemandProver::new(&graph, Vertex::ArrayLen(array));
    assert!(prover.demand_prove(Vertex::Value(index), -1));
    let buf = prover.take_trace();
    assert!(
        buf.is_empty() && buf.capacity() == 0,
        "an untraced prover must not allocate an event buffer"
    );

    let mut plain = compile(PROGRAM).unwrap();
    let mut traced = compile(PROGRAM).unwrap();
    let report_plain = Optimizer::new().optimize_module(&mut plain, None);
    let report_traced = Optimizer::new()
        .with_trace(true)
        .optimize_module(&mut traced, None);
    assert_eq!(plain.to_string(), traced.to_string());
    for (a, b) in report_plain.functions.iter().zip(&report_traced.functions) {
        assert_eq!(a.steps, b.steps, "{}", a.name);
        assert_eq!(a.pre_steps, b.pre_steps, "{}", a.name);
        assert_eq!(a.outcomes, b.outcomes, "{}", a.name);
        assert!(
            a.trace.is_none(),
            "{}: untraced run carries no trace",
            a.name
        );
        assert!(b.trace.is_some(), "{}: traced run carries one", b.name);
    }
}

/// The `metrics` exposition reply and the optimize trace reply are valid
/// JSON end to end through the wire protocol builders.
#[test]
fn provenance_object_reports_verdicts_per_function() {
    let mut module = compile(PROGRAM).unwrap();
    let report = Optimizer::new().optimize_module(&mut module, None);
    let metrics = abcd::module_metrics_json(
        &report,
        abcd::RunInfo::new(1, std::time::Duration::ZERO).deterministic(),
    );
    let doc = Json::parse(&metrics).unwrap();
    let funcs = doc.get("functions").unwrap().as_arr().unwrap();
    let sum = funcs
        .iter()
        .find(|f| f.get("name").and_then(Json::as_str) == Some("sum"))
        .unwrap();
    let prov = sum.get("provenance").expect("abcd-metrics/8 provenance");
    let n = |key: &str| prov.get(key).and_then(Json::as_u64).unwrap();
    assert_eq!(n("removed") + n("removed_congruent"), 2);
    assert_eq!(n("kept"), 0);
    let peek = funcs
        .iter()
        .find(|f| f.get("name").and_then(Json::as_str) == Some("peek"))
        .unwrap();
    let prov = peek.get("provenance").unwrap();
    assert_eq!(prov.get("kept").and_then(Json::as_u64), Some(2));
}
