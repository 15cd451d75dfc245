//! The benchmark is a pure function of its seed where it counts work:
//! two runs with the same seed report identical counters and
//! byte-identical optimized outputs, and another seed generates other
//! `scale` and `serve` inputs.

#[global_allocator]
static ALLOC: abcd_alloc::CountingAlloc = abcd_alloc::CountingAlloc;

use abcd_perfbench::{gen, run, Config, Report, SCALE_FUNCTIONS};
use std::sync::Mutex;

/// Allocation counts are process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// The real workloads with no measuring time: every timed loop makes its
/// minimum number of passes.
fn config(seed: u64, trace: bool) -> Config {
    Config {
        seed,
        seconds: 0.0,
        trace,
    }
}

fn run_ok(workload: &str, config: &Config) -> Report {
    let _turn = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let report = run(workload, config).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert_eq!(report.failed, 0, "{workload}: {:?}", report.failures);
    assert!(report.attempted > 0);
    report
}

/// The metrics that count work: everything but wall times, the server's
/// scheduling-dependent counters and the tracing overhead. The driver hands
/// scratch buffers back to its arena in `HashMap` order, so which buffer a
/// later function reuses, and hence `driver.allocs`, varies slightly from
/// run to run; it is compared separately.
fn counters(report: &Report) -> Vec<(&'static str, f64)> {
    report
        .metrics
        .iter()
        .filter(|m| m.unit != "ms" && m.unit != "s")
        .filter(|m| !m.name.starts_with("server.") && m.name != "trace.overhead_pct")
        .filter(|m| {
            !matches!(
                m.name,
                "opt_fn_per_s" | "req_per_s" | "peak_rss_mb" | "ok_pct" | "driver.allocs"
            )
        })
        .map(|m| (m.name, m.value))
        .collect()
}

fn assert_repeats(workload: &str) {
    for trace in [false, true] {
        let a = run_ok(workload, &config(7, trace));
        let b = run_ok(workload, &config(7, trace));
        assert!(!counters(&a).is_empty());
        assert_eq!(counters(&a), counters(&b), "{workload} trace={trace}");
        if let (Some(x), Some(y)) = (a.get("driver.allocs"), b.get("driver.allocs")) {
            assert!(
                (x - y).abs() <= 0.01 * x.max(y),
                "{workload}: driver.allocs {x} vs {y}"
            );
        }
        if !trace {
            assert_eq!(
                a.output_digest, b.output_digest,
                "{workload}: optimized bytes"
            );
        }
    }
}

#[test]
fn suite_repeats_exactly() {
    assert_repeats("suite");
}

#[test]
fn scale_repeats_exactly() {
    assert_repeats("scale");
}

#[test]
fn serve_repeats_exactly() {
    assert_repeats("serve");
}

#[test]
fn traced_runs_report_every_layer() {
    let report = run_ok("scale", &config(3, true));
    for name in [
        "frontend.parse_ms",
        "ssa.pis",
        "graph.edges",
        "solver.steps",
        "pre.hoisted",
        "cache.stores",
        "driver.unattributed_ms",
        "vm.dyn_checks",
        "trace.overhead_pct",
    ] {
        assert!(report.get(name).is_some(), "missing {name}");
    }
    assert_eq!(report.get("driver.replay_diverged"), Some(0.0));
    assert!(report.get("solver.steps").unwrap() > 0.0);
    assert_eq!(report.get("cache.misses"), report.get("cache.stores"));
}

#[test]
fn another_seed_generates_other_inputs() {
    assert_ne!(
        gen::module(1, SCALE_FUNCTIONS).source,
        gen::module(2, SCALE_FUNCTIONS).source
    );
    assert_ne!(abcd_loadgen::corpus(1, 24), abcd_loadgen::corpus(2, 24));
    let a = run_ok("scale", &config(1, false));
    let b = run_ok("scale", &config(2, false));
    assert_ne!(a.output_digest, b.output_digest);
}
