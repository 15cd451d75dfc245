//! Deterministic differential testing: generated MJ programs must behave
//! identically before and after the full ABCD pipeline — same result, same
//! output stream, same trap (kind **and** site) — and never execute an
//! unchecked out-of-bounds access (the VM reports that as a distinct trap,
//! so any unsound removal becomes a visible divergence).
//!
//! Programs are generated from a byte string (structured fuzzing): bytes
//! drive a tiny grammar walker. The byte strings themselves come from a
//! fixed-seed SplitMix64 stream, so every run of the suite explores exactly
//! the same corpus — hermetic, reproducible, and debuggable by seed index.
//! Loops are always of the form `for (i = c0; i < bound; i++)` with `bound`
//! a small constant or `a.length ± c`, guaranteeing termination; index
//! expressions are arbitrary, so traps genuinely occur and the
//! trap-equivalence clause is exercised.
//!
//! Inputs are kept within ±1000 because ABCD — like the paper — reasons in
//! unbounded integers and does not model wrap-around (see README).
//!
//! Historical proptest-shrunk failure seeds are preserved as named
//! deterministic regression tests at the bottom of this file.

use abcd::{Optimizer, OptimizerOptions};
use abcd_frontend::compile;
use abcd_ir::SplitMix64;
use abcd_vm::{RtVal, TrapKind, Vm, VmOptions};

/// The corpus draws, over the repository's seeded SplitMix64 stream.
trait Draw {
    /// Uniform in `[0, n)` (n > 0).
    fn below(&mut self, n: u64) -> u64;
    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64;
    /// Up to `max_len` random bytes.
    fn bytes(&mut self, max_len: usize) -> Vec<u8>;
    /// Up to `max_len` array elements in `[-50, 50)`.
    fn data(&mut self, max_len: usize) -> Vec<i64>;
}

impl Draw for SplitMix64 {
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len as u64 + 1) as usize;
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    fn data(&mut self, max_len: usize) -> Vec<i64> {
        let len = self.below(max_len as u64 + 1) as usize;
        (0..len).map(|_| self.range(-50, 50)).collect()
    }
}

/// A byte-stream-driven program generator.
struct Gen<'a> {
    bytes: &'a [u8],
    pos: usize,
    next_loop_var: u32,
    stmts_budget: u32,
}

impl<'a> Gen<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Gen {
            bytes,
            pos: 0,
            next_loop_var: 0,
            stmts_budget: 24,
        }
    }

    fn byte(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.byte() as usize % options.len()]
    }

    /// An integer expression over the in-scope variables.
    fn expr(&mut self, vars: &[String], depth: u32) -> String {
        if depth == 0 || self.byte().is_multiple_of(3) {
            return match self.byte() % 4 {
                0 => format!("{}", (self.byte() as i64 % 12) - 3),
                1 => "a.length".to_string(),
                2 if !vars.is_empty() => {
                    let i = self.byte() as usize % vars.len();
                    vars[i].clone()
                }
                _ => "x".to_string(),
            };
        }
        let op = self.pick(&["+", "-", "*"]);
        let lhs = self.expr(vars, depth - 1);
        let rhs = if op == "*" {
            // Keep products small so the no-wraparound model holds.
            format!("{}", (self.byte() as i64 % 5) - 1)
        } else {
            self.expr(vars, depth - 1)
        };
        format!("({lhs} {op} {rhs})")
    }

    fn cond(&mut self, vars: &[String]) -> String {
        let op = self.pick(&["<", "<=", ">", ">=", "==", "!="]);
        let lhs = self.expr(vars, 1);
        let rhs = self.expr(vars, 1);
        format!("{lhs} {op} {rhs}")
    }

    fn block(&mut self, vars: &mut Vec<String>, depth: u32, out: &mut String, indent: usize) {
        let n = 1 + self.byte() % 3;
        for _ in 0..n {
            if self.stmts_budget == 0 {
                return;
            }
            self.stmts_budget -= 1;
            self.stmt(vars, depth, out, indent);
        }
    }

    fn stmt(&mut self, vars: &mut Vec<String>, depth: u32, out: &mut String, indent: usize) {
        let pad = "    ".repeat(indent);
        match self.byte() % 9 {
            0 => {
                let e = self.expr(vars, 2);
                out.push_str(&format!("{pad}s = s + {e};\n"));
            }
            1 => {
                let idx = self.expr(vars, 2);
                out.push_str(&format!("{pad}s = s + a[{idx}];\n"));
            }
            2 => {
                let idx = self.expr(vars, 2);
                let val = self.expr(vars, 1);
                out.push_str(&format!("{pad}a[{idx}] = {val};\n"));
            }
            3 if depth > 0 => {
                let c = self.cond(vars);
                out.push_str(&format!("{pad}if ({c}) {{\n"));
                self.block(vars, depth - 1, out, indent + 1);
                if self.byte().is_multiple_of(2) {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    self.block(vars, depth - 1, out, indent + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            4 if depth > 0 => {
                let v = format!("i{}", self.next_loop_var);
                self.next_loop_var += 1;
                let start = (self.byte() as i64 % 4) - 1;
                let bound = match self.byte() % 3 {
                    0 => format!("{}", self.byte() % 9),
                    1 => "a.length".to_string(),
                    _ => format!("(a.length - {})", self.byte() % 3),
                };
                out.push_str(&format!(
                    "{pad}for (let {v}: int = {start}; {v} < {bound}; {v} = {v} + 1) {{\n"
                ));
                vars.push(v.clone());
                self.block(vars, depth - 1, out, indent + 1);
                vars.pop();
                out.push_str(&format!("{pad}}}\n"));
            }
            5 => {
                let e = self.expr(vars, 1);
                out.push_str(&format!("{pad}x = {e};\n"));
            }
            7 => {
                // Call the guarded helper (checks inside are provable from
                // the guard; with --ipa also from call-site facts).
                let e = self.expr(vars, 2);
                out.push_str(&format!("{pad}s = s + guarded(a, {e});\n"));
            }
            8 => {
                // Call the unguarded helper: traps propagate through calls,
                // and interprocedural facts decide its checks.
                let e = self.expr(vars, 2);
                out.push_str(&format!("{pad}s = s + raw(a, {e});\n"));
            }
            _ => {
                let e = self.expr(vars, 2);
                out.push_str(&format!("{pad}print({e});\n"));
            }
        }
    }

    fn program(mut self) -> String {
        let mut body = String::new();
        let mut vars = Vec::new();
        self.block(&mut vars, 3, &mut body, 1);
        format!(
            "fn guarded(b: int[], k: int) -> int {{\n\
                 if (k >= 0) {{ if (k < b.length) {{ return b[k] + 1; }} }}\n\
                 return 0 - k;\n\
             }}\n\
             fn raw(b: int[], k: int) -> int {{ return b[k]; }}\n\
             fn f(a: int[], x: int) -> int {{\n    let s: int = 0;\n{body}    return s;\n}}\n"
        )
    }
}

/// Runs `entry` and normalizes the observable outcome. The returned check
/// count excludes speculative (`spec_check`) executions: speculation may
/// legitimately execute on paths where the original checks never ran
/// (zero-trip loops, early traps) — the §6.1 profitability argument is
/// about expected frequency, not per-input counts.
fn run(
    module: &abcd_ir::Module,
    entry: &str,
    data: &[i64],
    x: i64,
) -> (Result<Option<RtVal>, String>, Vec<i64>, u64) {
    let mut vm = Vm::with_options(
        module,
        VmOptions {
            step_limit: 2_000_000,
            ..VmOptions::default()
        },
    );
    let arr = vm.alloc_int_array(data);
    let r = vm
        .call_by_name(entry, &[arr, RtVal::Int(x)])
        .map_err(|t| format!("{:?}", t.kind));
    let out = vm.output().to_vec();
    let checks = vm.stats().checks.iter().sum::<u64>();
    (r, out, checks)
}

/// The core differential property for one `(bytes, data, x)` case: the
/// default pipeline and the interprocedural extension must both be
/// observationally equivalent to the unoptimized program. Under the
/// extension that holds for every entry a caller outside the module can
/// take: `f`, and the helpers `guarded` and `raw`, called directly with
/// arguments their verified facts may not cover.
fn check_observational_equivalence(bytes: &[u8], data: &[i64], x: i64) {
    let src = Gen::new(bytes).program();
    let baseline = compile(&src).expect("generated program compiles");
    let mut optimized = compile(&src).unwrap();
    Optimizer::new().optimize_module(&mut optimized, None);

    let (r1, out1, checks1) = run(&baseline, "f", data, x);
    let (r2, out2, checks2) = run(&optimized, "f", data, x);

    // Any unchecked OOB access in the optimized run is an unsound
    // removal — it can never match the baseline's outcome.
    if let Err(k) = &r2 {
        assert!(
            !k.contains("UncheckedAccess"),
            "unsound removal!\n{src}\ntrap: {k}"
        );
    }
    assert_eq!(&r1, &r2, "result diverged\n{src}");
    assert_eq!(&out1, &out2, "output diverged\n{src}");
    assert!(
        checks2 <= checks1,
        "optimization added non-speculative dynamic checks ({checks1} -> {checks2})\n{src}"
    );

    let mut ipa = compile(&src).unwrap();
    let opts = OptimizerOptions {
        interprocedural: true,
        ..OptimizerOptions::default()
    };
    Optimizer::with_options(opts).optimize_module(&mut ipa, None);
    for entry in ["f", "guarded", "raw"] {
        let (want, want_out, _) = run(&baseline, entry, data, x);
        let (got, got_out, _) = run(&ipa, entry, data, x);
        if let Err(k) = &got {
            assert!(
                !k.contains("UncheckedAccess"),
                "unsound interprocedural removal in {entry}!\n{src}\ntrap: {k}"
            );
        }
        assert_eq!(&want, &got, "interprocedural {entry} diverged\n{src}");
        assert_eq!(&want_out, &got_out, "interprocedural {entry} output\n{src}");
    }
}

#[test]
fn optimized_program_is_observationally_equivalent() {
    // Override the corpus size with ABCD_FUZZ_CASES for deeper sweeps.
    let cases = fuzz_cases(96);
    let mut rng = SplitMix64::new(0xabcd_0001);
    for case in 0..cases {
        let bytes = rng.bytes(160);
        let data = rng.data(7);
        let x = rng.range(-1000, 1000);
        let result = std::panic::catch_unwind(|| {
            check_observational_equivalence(&bytes, &data, x);
        });
        if let Err(e) = result {
            panic!("case {case} failed (bytes={bytes:?}, data={data:?}, x={x}): {e:?}");
        }
    }
}

#[test]
fn pipeline_stages_all_verify() {
    let cases = fuzz_cases(64);
    let mut rng = SplitMix64::new(0xabcd_0002);
    for _ in 0..cases {
        let bytes = rng.bytes(120);
        check_pipeline_stages(&bytes);
    }
}

fn check_pipeline_stages(bytes: &[u8]) {
    let src = Gen::new(bytes).program();
    let mut module = compile(&src).expect("generated program compiles");
    abcd_ir::verify_module(&module).expect("locals form verifies");

    // With `verify_ir`, every stage's output is held to the structural
    // verifier and, from promotion on, to the SSA verifier.
    let options = abcd::OptimizerOptions {
        verify_ir: true,
        ..abcd::OptimizerOptions::default()
    };
    abcd::Optimizer::with_options(options)
        .run_to(&mut module, abcd::Stage::InsertPi)
        .unwrap_or_else(|incident| panic!("{incident}\n{src}"));
}

#[test]
fn printed_ir_reparses_and_behaves_identically() {
    let cases = fuzz_cases(48);
    let mut rng = SplitMix64::new(0xabcd_0003);
    for _ in 0..cases {
        let bytes = rng.bytes(120);
        let data = rng.data(6);
        let x = rng.range(-100, 100);
        check_reparse(&bytes, &data, x);
    }
}

/// Runs the optimizer's own preparation of `module` through π insertion.
fn essa(module: &mut abcd_ir::Module) {
    abcd::Optimizer::new()
        .run_to(module, abcd::Stage::InsertPi)
        .unwrap();
}

fn check_reparse(bytes: &[u8], data: &[i64], x: i64) {
    let src = Gen::new(bytes).program();
    let mut module = compile(&src).unwrap();
    essa(&mut module);

    // Textual round trip reaches a fixed point after one parse
    // (block ids may renumber once if unreachable blocks were cleared).
    let text1 = module.to_string();
    let reparsed = abcd_ir::parse_module(&text1).unwrap_or_else(|e| panic!("{e}\n{text1}"));
    abcd_ir::verify_module(&reparsed).expect("reparsed module verifies");
    let text2 = reparsed.to_string();
    let reparsed2 = abcd_ir::parse_module(&text2).unwrap();
    assert_eq!(&text2, &reparsed2.to_string(), "print/parse not stable");

    // And the reparsed module is observationally identical.
    let (r1, out1, _) = run(&module, "f", data, x);
    let (r2, out2, _) = run(&reparsed, "f", data, x);
    assert_eq!(r1, r2, "reparse diverged\n{src}");
    assert_eq!(out1, out2);
}

#[test]
fn demand_prover_never_exceeds_exhaustive_distances() {
    let cases = fuzz_cases(48);
    let mut rng = SplitMix64::new(0xabcd_0004);
    for _ in 0..cases {
        let bytes = rng.bytes(140);
        check_demand_vs_exhaustive(&bytes);
    }
}

fn check_demand_vs_exhaustive(bytes: &[u8]) {
    use abcd::{
        ConstraintLog, DemandProver, ExhaustiveDistances, InequalityGraph, Problem, Vertex,
    };
    let src = Gen::new(bytes).program();
    let mut module = compile(&src).unwrap();
    essa(&mut module);
    let (_, func) = module.functions().next().unwrap();

    let mut log = ConstraintLog::default();
    log.record(func);
    for problem in [Problem::Upper, Problem::Lower] {
        let graph = InequalityGraph::build(func, problem, None);
        for check in log.checks() {
            let (source, c) = problem.check_query(check.array);
            let index = check.index;
            let mut demand = DemandProver::new(&graph, source);
            if demand.demand_prove(Vertex::Value(index), c) {
                let ex = ExhaustiveDistances::compute(&graph, source);
                assert!(
                    ex.proves(&graph, Vertex::Value(index), c),
                    "demand prover overclaims ({problem:?}, {index}) in\n{src}\n{func}"
                );
            }
        }
    }
}

#[test]
fn range_baseline_is_also_sound() {
    let cases = fuzz_cases(48);
    let mut rng = SplitMix64::new(0xabcd_0005);
    for _ in 0..cases {
        let bytes = rng.bytes(120);
        let data = rng.data(6);
        let x = rng.range(-100, 100);
        check_range_baseline(&bytes, &data, x);
    }
}

fn check_range_baseline(bytes: &[u8], data: &[i64], x: i64) {
    let src = Gen::new(bytes).program();
    let baseline = compile(&src).unwrap();
    let mut optimized = compile(&src).unwrap();
    essa(&mut optimized);
    let ids: Vec<_> = optimized.functions().map(|(i, _)| i).collect();
    for id in ids {
        abcd_analysis::eliminate_checks_by_range(optimized.function_mut(id));
    }
    let (r1, out1, _) = run(&baseline, "f", data, x);
    let (r2, out2, _) = run(&optimized, "f", data, x);
    if let Err(k) = &r2 {
        assert!(
            !k.contains("UncheckedAccess"),
            "unsound range removal\n{src}"
        );
    }
    assert_eq!(r1, r2, "range baseline diverged\n{src}");
    assert_eq!(out1, out2);
}

// ---------------------------------------------------------------------------
// Oracle agreement. The demand prover must give exactly the verdict of the
// exhaustive least-fixpoint distances (`ExhaustiveDistances`, the
// alternative §5 rejects for JIT use) on every bounds check, in both
// problems, across the benchsuite kernels and a dedicated fuzz corpus
// (≥1000 generated functions). Memoization is on: one prover per
// `(problem, source)` answers every check of a function in program order,
// as in the driver, so a memo entry that outlives its context shows up as
// a disagreement.
// ---------------------------------------------------------------------------

/// Compares the demand prover with the exhaustive oracle on every bounds
/// check of every function of `src`, in both problems; returns how many
/// queries were compared.
fn assert_demand_matches_exhaustive(src: &str) -> usize {
    use abcd::{
        ConstraintLog, DemandProver, ExhaustiveDistances, InequalityGraph, Problem, Vertex,
    };
    use std::collections::HashMap;
    let mut module = compile(src).expect("program compiles");
    essa(&mut module);
    let mut compared = 0;
    let mut log = ConstraintLog::default();
    for (_, func) in module.functions() {
        log.record(func);
        for problem in [Problem::Upper, Problem::Lower] {
            let graph = InequalityGraph::build(func, problem, None);
            let mut provers: HashMap<Vertex, (DemandProver, ExhaustiveDistances)> = HashMap::new();
            for check in log.checks() {
                let (source, c) = problem.check_query(check.array);
                let (demand, oracle) = provers.entry(source).or_insert_with(|| {
                    (
                        DemandProver::new(&graph, source),
                        ExhaustiveDistances::compute(&graph, source),
                    )
                });
                let target = Vertex::Value(check.index);
                assert_eq!(
                    demand.demand_prove(target, c),
                    oracle.proves(&graph, target, c),
                    "demand and exhaustive disagree ({problem:?}, {target} vs {source}) \
                     in\n{src}\n{func}"
                );
                compared += 1;
            }
        }
    }
    compared
}

/// Every benchsuite kernel: the demand verdict equals the oracle's.
#[test]
fn demand_agrees_with_exhaustive_on_the_benchsuite() {
    let compared: usize = abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|bench| assert_demand_matches_exhaustive(bench.source))
        .sum();
    assert!(compared >= 600, "too few kernel queries: {compared}");
}

/// The headline oracle sweep: ≥1000 generated functions. (Each generated
/// program holds three functions — `guarded`, `raw`, and the fuzzed `f` —
/// so the default 340 cases cover 1020 functions.)
#[test]
fn demand_agrees_with_exhaustive_on_the_fuzz_corpus() {
    let cases = fuzz_cases(340);
    let mut rng = SplitMix64::new(0xabcd_0006);
    let mut functions = 0usize;
    for case in 0..cases {
        let bytes = rng.bytes(160);
        let src = Gen::new(&bytes).program();
        functions += compile(&src).expect("compiles").functions().count();
        let result = std::panic::catch_unwind(|| assert_demand_matches_exhaustive(&src));
        if let Err(e) = result {
            panic!("case {case} failed (bytes={bytes:?}): {e:?}");
        }
    }
    if std::env::var("ABCD_FUZZ_CASES").is_err() {
        assert!(functions >= 1000, "corpus too small: {functions} functions");
    }
}

/// One full pipeline run of `src` on `threads` workers; returns the
/// byte-comparable artifacts: optimized IR text, per-function outcome
/// vectors, and the incident-kind sequence.
fn pipeline_artifacts(src: &str, threads: usize) -> (String, Vec<String>, Vec<String>) {
    let mut module = compile(src).expect("program compiles");
    let report = Optimizer::new()
        .with_threads(threads)
        .optimize_module(&mut module, None);
    let outcomes = report
        .functions
        .iter()
        .map(|f| format!("{}: {:?}", f.name, f.outcomes))
        .collect();
    let incidents = report
        .functions
        .iter()
        .flat_map(|f| f.incidents.iter().map(|i| i.kind_name().to_string()))
        .collect();
    (module.to_string(), outcomes, incidents)
}

/// Fuel starvation is fail-open: however the budget cuts the prover off,
/// the optimized program must stay observationally equivalent to the
/// baseline and never admit an unchecked out-of-bounds access.
#[test]
fn fuel_starved_backends_stay_fail_open() {
    let cases = fuzz_cases(24);
    let mut rng = SplitMix64::new(0xabcd_0008);
    for _ in 0..cases {
        let bytes = rng.bytes(140);
        let data = rng.data(6);
        let x = rng.range(-100, 100);
        let src = Gen::new(&bytes).program();
        let baseline = compile(&src).unwrap();
        let (r1, out1, _) = run(&baseline, "f", &data, x);
        for (per_query, per_function) in [(Some(3), None), (None, Some(5)), (Some(2), Some(4))] {
            let mut optimized = compile(&src).unwrap();
            let opts = OptimizerOptions {
                fuel_per_query: per_query,
                fuel_per_function: per_function,
                ..OptimizerOptions::default()
            };
            Optimizer::with_options(opts).optimize_module(&mut optimized, None);
            let (r2, out2, _) = run(&optimized, "f", &data, x);
            if let Err(k) = &r2 {
                assert!(
                    !k.contains("UncheckedAccess"),
                    "unsound removal under starved fuel\n{src}"
                );
            }
            assert_eq!(r1, r2, "starved run diverged\n{src}");
            assert_eq!(out1, out2);
        }
    }
}

/// `--jobs` parallelism is a no-op: a pooled run emits byte-identical IR,
/// outcomes, and incidents to a sequential one.
#[test]
fn every_backend_is_thread_invariant() {
    let cases = fuzz_cases(12);
    let mut rng = SplitMix64::new(0xabcd_0009);
    for _ in 0..cases {
        let bytes = rng.bytes(140);
        let src = Gen::new(&bytes).program();
        assert_eq!(
            pipeline_artifacts(&src, 1),
            pipeline_artifacts(&src, 4),
            "parallel run diverged from sequential\n{src}"
        );
    }
}

/// Corpus size per fuzz test, overridable via `ABCD_FUZZ_CASES`.
fn fuzz_cases(default: usize) -> usize {
    std::env::var("ABCD_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[test]
fn generator_produces_interesting_programs() {
    // Sanity: a fixed seed yields a program with checks and control flow.
    let bytes: Vec<u8> = (0u8..160)
        .map(|i| i.wrapping_mul(37).wrapping_add(11))
        .collect();
    let src = Gen::new(&bytes).program();
    let module = compile(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let id = module.functions().next().unwrap().0;
    let (checks, _, _) = module.function(id).count_checks();
    assert!(checks > 0, "{src}");
}

#[test]
fn trap_kinds_match_exactly_on_known_oob() {
    let src = "fn f(a: int[], x: int) -> int { let s: int = 0; s = s + a[x]; return s; }";
    let baseline = compile(src).unwrap();
    let mut optimized = compile(src).unwrap();
    Optimizer::with_options(OptimizerOptions::default()).optimize_module(&mut optimized, None);
    let (r1, _, _) = run(&baseline, "f", &[1, 2], 5);
    let (r2, _, _) = run(&optimized, "f", &[1, 2], 5);
    assert!(r1.is_err());
    assert_eq!(r1, r2);
    assert!(matches!(
        format!("{:?}", TrapKind::DivisionByZero).as_str(),
        "DivisionByZero"
    ));
}

// ---------------------------------------------------------------------------
// Regression seeds. These byte strings are proptest-shrunk counterexamples
// from earlier development (previously stored in
// `prop_differential.proptest-regressions`), promoted to named deterministic
// tests so they survive the removal of the proptest dependency and run on
// every `cargo test`.
// ---------------------------------------------------------------------------

/// Shrunk seed: empty array, zero scalar input.
#[test]
fn seed_regression_empty_data() {
    let bytes = [
        0, 179, 72, 5, 0, 1, 219, 4, 21, 21, 0, 0, 7, 0, 47, 151, 52, 0, 0, 0, 43, 127, 3, 182,
    ];
    check_observational_equivalence(&bytes, &[], 0);
}

/// Shrunk seed: single-element array.
#[test]
fn seed_regression_single_element() {
    let bytes = [
        73, 23, 150, 104, 111, 1, 0, 37, 1, 206, 79, 204, 125, 21, 121, 0, 178, 32, 81, 1, 1, 44,
        56, 198, 163, 22, 97, 1, 0, 93, 1, 135, 1, 159, 1, 0, 69, 1, 30, 4, 19, 28, 0, 5, 101, 178,
        80, 87, 17, 13, 97, 9, 21, 1, 24, 73, 53, 87, 89, 0, 8, 54, 109,
    ];
    check_observational_equivalence(&bytes, &[0], 0);
}

/// Shrunk seed: structural property without VM inputs (pipeline stages
/// and prover-vs-exhaustive agreement).
#[test]
fn seed_regression_structural_1() {
    let bytes = [
        0, 164, 0, 55, 0, 1, 101, 54, 1, 8, 37, 165, 134, 112, 0, 0, 0, 41, 158, 0, 14, 0, 76, 115,
        0, 1, 0, 0, 0, 151, 4, 0, 187, 104, 0, 46, 110, 45, 152, 16, 76, 1, 0, 1, 0, 47, 0, 0, 1,
        0, 61, 0, 0, 157, 239, 180, 187,
    ];
    check_pipeline_stages(&bytes);
    check_demand_vs_exhaustive(&bytes);
    check_observational_equivalence(&bytes, &[], 0);
}

/// Shrunk seed: structural property without VM inputs.
#[test]
fn seed_regression_structural_2() {
    let bytes = [
        22, 108, 0, 0, 106, 16, 178, 53, 60, 3, 47, 0, 1, 0, 0, 1, 9, 0, 0, 114, 39, 17, 13, 221,
        32, 0, 0, 134, 9, 154, 0, 0, 0, 0, 0, 0, 0,
    ];
    check_pipeline_stages(&bytes);
    check_demand_vs_exhaustive(&bytes);
    check_observational_equivalence(&bytes, &[], 0);
}
