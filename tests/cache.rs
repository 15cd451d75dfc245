//! Differential guarantees of the content-addressed analysis cache.
//!
//! The cache must be invisible in the output: a warm run is byte-identical
//! to a cold run, corruption falls back to a cold recompile (reported,
//! never miscompiled), and invalidation is exactly function-granular plus
//! interprocedural dependents.

use abcd::{AnalysisCache, Optimizer, OptimizerOptions, RunInfo};
use abcd_frontend::compile;
use std::sync::Arc;

const PROGRAM: &str = r#"
    fn sum(a: int[]) -> int {
        let s: int = 0;
        for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
        return s;
    }
    fn rev(a: int[]) -> int {
        let s: int = 0;
        for (let i: int = a.length - 1; i >= 0; i = i - 1) { s = s + a[i]; }
        return s;
    }
    fn main() -> int {
        let a: int[] = new int[8];
        return sum(a) + rev(a);
    }
"#;

fn optimize_with(
    cache: Option<&Arc<AnalysisCache>>,
    threads: usize,
    src: &str,
) -> (String, abcd::ModuleReport) {
    let mut module = compile(src).expect("compiles");
    let mut optimizer = Optimizer::new().with_threads(threads);
    if let Some(cache) = cache {
        optimizer = optimizer.with_cache(Arc::clone(cache));
    }
    let report = optimizer.optimize_module(&mut module, None);
    (module.to_string(), report)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("abcd-cache-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Acceptance (b): the warm run is byte-identical to the cold run, with
/// `hits > 0` visible in the `abcd-metrics/7` cache object, and the
/// deterministic metrics documents (cache counters aside) match too.
#[test]
fn warm_run_is_byte_identical_to_cold_with_hits() {
    let cache = Arc::new(AnalysisCache::in_memory(1 << 20));
    let (cold_ir, cold_report) = optimize_with(Some(&cache), 1, PROGRAM);
    assert_eq!(cold_report.functions_from_cache(), 0);
    assert!(cache.stats().stores > 0, "{:?}", cache.stats());

    let (warm_ir, warm_report) = optimize_with(Some(&cache), 1, PROGRAM);
    assert_eq!(cold_ir, warm_ir, "warm output must be byte-identical");
    assert_eq!(
        warm_report.functions_from_cache(),
        warm_report.functions.len(),
        "every function should replay"
    );
    let stats = cache.stats();
    assert!(stats.hits > 0, "{stats:?}");

    // Replay reproduces the cold run's verdicts and solver-effort numbers
    // (memo/graph observability is intentionally zero on replay: no solver
    // work happened this run).
    assert_eq!(cold_report.steps(), warm_report.steps());
    for (cold_fn, warm_fn) in cold_report.functions.iter().zip(&warm_report.functions) {
        assert_eq!(cold_fn.outcomes, warm_fn.outcomes, "{}", cold_fn.name);
        assert_eq!(cold_fn.steps, warm_fn.steps, "{}", cold_fn.name);
    }

    // Two identical warm runs emit byte-identical deterministic metrics,
    // including the cache object with `hits > 0` (satellite: deterministic
    // metrics for byte-for-byte comparison).
    let (_, rerun_report) = optimize_with(Some(&cache), 1, PROGRAM);
    let stats_now = cache.stats();
    let det = |report: &abcd::ModuleReport, stats: abcd::CacheStats| {
        abcd::module_metrics_json(
            report,
            RunInfo::new(1, std::time::Duration::ZERO)
                .deterministic()
                .with_cache(stats),
        )
    };
    let a = det(&warm_report, stats_now);
    let b = det(&rerun_report, stats_now);
    assert_eq!(a, b, "deterministic metrics must be byte-identical");
    assert!(a.contains("\"schema\":\"abcd-metrics/7\""), "{a}");
    assert!(a.contains(&format!("\"hits\":{}", stats_now.hits)), "{a}");
    assert!(stats_now.hits > stats.hits);
}

/// Acceptance (a)-adjacent: a parallel warm run over a shared cache is
/// byte-identical to the sequential cold run.
#[test]
fn parallel_warm_run_matches_sequential_cold() {
    let (cold_ir, _) = optimize_with(None, 1, PROGRAM);
    let cache = Arc::new(AnalysisCache::in_memory(1 << 20));
    let (seed_ir, _) = optimize_with(Some(&cache), 1, PROGRAM);
    assert_eq!(cold_ir, seed_ir, "caching itself must not change output");
    for threads in [2, 4] {
        let (warm_ir, report) = optimize_with(Some(&cache), threads, PROGRAM);
        assert_eq!(cold_ir, warm_ir, "threads={threads}");
        assert!(report.functions_from_cache() > 0, "threads={threads}");
    }
}

/// Acceptance (c): editing one function invalidates only that function;
/// untouched functions still replay.
#[test]
fn editing_one_function_invalidates_only_it() {
    let cache = Arc::new(AnalysisCache::in_memory(1 << 20));
    let (_, first) = optimize_with(Some(&cache), 1, PROGRAM);
    let total = first.functions.len();

    // Same program with only `rev` edited (different loop start).
    let edited = PROGRAM.replace("a.length - 1", "a.length - 2");
    assert_ne!(edited, PROGRAM);
    let (_, second) = optimize_with(Some(&cache), 1, &edited);
    assert_eq!(
        second.functions_from_cache(),
        total - 1,
        "exactly the edited function recompiles"
    );
    let rev = second.functions.iter().find(|f| f.name == "rev").unwrap();
    assert!(!rev.from_cache, "the edited function must not replay");
    let sum = second.functions.iter().find(|f| f.name == "sum").unwrap();
    assert!(sum.from_cache, "untouched functions must replay");
}

/// Acceptance (c), interprocedural: an edit in a *caller* that weakens the
/// callee's inferred parameter facts recompiles the callee too — its
/// summary fingerprint is part of the key — while unrelated functions
/// still replay.
#[test]
fn interproc_caller_edit_invalidates_callee() {
    let src_strong = r#"
        fn get(a: int[], i: int) -> int { return a[i]; }
        fn other(a: int[]) -> int {
            let s: int = 0;
            for (let i: int = 0; i < a.length; i = i + 1) { s = s + a[i]; }
            return s;
        }
        fn main() -> int {
            let a: int[] = new int[4];
            return get(a, 0) + other(a);
        }
    "#;
    // Caller now passes an index the fact inference can no longer bound.
    let src_weak = src_strong.replace(
        "return get(a, 0) + other(a);",
        "return get(a, 7) + other(a);",
    );
    assert_ne!(src_strong, src_weak);

    let options = OptimizerOptions {
        interprocedural: true,
        ..OptimizerOptions::default()
    };
    let run = |cache: &Arc<AnalysisCache>, src: &str| {
        let mut module = compile(src).expect("compiles");
        let report = Optimizer::with_options(options)
            .with_cache(Arc::clone(cache))
            .optimize_module(&mut module, None);
        (module.to_string(), report)
    };

    let cache = Arc::new(AnalysisCache::in_memory(1 << 20));
    let (_, first) = run(&cache, src_strong);
    assert_eq!(first.functions_from_cache(), 0);

    let (weak_ir, second) = run(&cache, &src_weak);
    let get = second.functions.iter().find(|f| f.name == "get").unwrap();
    let other = second.functions.iter().find(|f| f.name == "other").unwrap();
    assert!(
        !get.from_cache,
        "callee facts changed with the caller edit; it must recompile"
    );
    assert!(other.from_cache, "an unrelated function still replays");

    // And the cached run of the edited program equals the uncached one.
    let mut module = compile(src_weak.as_str()).expect("compiles");
    Optimizer::with_options(options).optimize_module(&mut module, None);
    assert_eq!(weak_ir, module.to_string());
}

/// Acceptance (d): a corrupted disk entry is detected by re-verification,
/// surfaced as a non-degraded `cache_corrupt` incident, recompiled cold to
/// a byte-identical module, and healed in place.
#[test]
fn corrupted_disk_entry_falls_back_cold_and_heals() {
    let dir = scratch_dir("corrupt");
    let (reference_ir, _) = optimize_with(None, 1, PROGRAM);

    {
        let cache = Arc::new(AnalysisCache::with_dir(&dir, 1 << 20).unwrap());
        let (ir, _) = optimize_with(Some(&cache), 1, PROGRAM);
        assert_eq!(ir, reference_ir);
        assert!(cache.stats().stores > 0);
    }

    // Flip one payload byte in every persisted entry.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("abcdc") {
            continue;
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        corrupted += 1;
    }
    assert!(
        corrupted > 0,
        "expected persisted entries in {}",
        dir.display()
    );

    // A fresh process (fresh in-memory cache, same directory) must detect
    // the corruption, report it, and still produce identical output.
    let cache = Arc::new(AnalysisCache::with_dir(&dir, 1 << 20).unwrap());
    let (ir, report) = optimize_with(Some(&cache), 1, PROGRAM);
    assert_eq!(ir, reference_ir, "corruption must never change output");
    assert_eq!(report.functions_from_cache(), 0);
    let stats = cache.stats();
    assert_eq!(stats.corrupt as usize, corrupted, "{stats:?}");
    assert!(
        report
            .incidents()
            .any(|i| i.kind_name() == "cache_corrupt" && !i.is_degraded()),
        "corruption is an incident, not a degradation: {:?}",
        report.incidents().collect::<Vec<_>>()
    );

    // The quarantined entries were rewritten by the cold recompile: a
    // third run replays cleanly with no further incidents.
    let cache = Arc::new(AnalysisCache::with_dir(&dir, 1 << 20).unwrap());
    let (ir, report) = optimize_with(Some(&cache), 1, PROGRAM);
    assert_eq!(ir, reference_ir);
    assert_eq!(report.incident_count(), 0, "the cache healed");
    assert!(cache.stats().disk_hits > 0, "{:?}", cache.stats());

    let _ = std::fs::remove_dir_all(&dir);
}

/// An armed fault plan disables the cache entirely: injected faults must
/// fire identically on every run (a replay would swallow them), and
/// faulted results must never be stored.
#[test]
fn fault_plan_disables_the_cache() {
    let cache = Arc::new(AnalysisCache::in_memory(1 << 20));
    // Warm the cache first so a hit *would* be available.
    let (_, _) = optimize_with(Some(&cache), 1, PROGRAM);
    assert!(cache.stats().stores > 0);
    let before = cache.stats();

    let plan = abcd::FaultPlan::parse("panic:sum:solve").unwrap();
    let mut module = compile(PROGRAM).unwrap();
    let report = Optimizer::new()
        .with_cache(Arc::clone(&cache))
        .with_fault_plan(plan)
        .optimize_module(&mut module, None);
    assert!(
        report.incident_count() > 0,
        "the fault must fire through the warm cache"
    );
    assert_eq!(report.functions_from_cache(), 0);
    let after = cache.stats();
    assert_eq!(
        (before.hits, before.misses, before.stores),
        (after.hits, after.misses, after.stores),
        "a faulted run must not touch the cache"
    );
}

/// The disk cache round-trips across "process" boundaries: a fresh cache
/// over the same directory replays from disk alone.
#[test]
fn disk_entries_survive_restart() {
    let dir = scratch_dir("restart");
    let (cold_ir, _) = {
        let cache = Arc::new(AnalysisCache::with_dir(&dir, 1 << 20).unwrap());
        optimize_with(Some(&cache), 1, PROGRAM)
    };
    let cache = Arc::new(AnalysisCache::with_dir(&dir, 1 << 20).unwrap());
    let (warm_ir, report) = optimize_with(Some(&cache), 1, PROGRAM);
    assert_eq!(cold_ir, warm_ir);
    assert_eq!(report.functions_from_cache(), report.functions.len());
    assert!(cache.stats().disk_hits > 0, "{:?}", cache.stats());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Constant folding can produce `i64::MIN`, whose printed literal
/// `-9223372036854775808` must parse back: otherwise every stored entry of
/// such a function is unreadable, each warm lookup reports `CacheCorrupt`
/// and recompiles cold, and the cache never heals.
#[test]
fn folded_i64_min_constant_replays_from_cache() {
    const MIN_PROGRAM: &str = r#"
        fn main() -> int {
            let m: int = 0 - 9223372036854775807 - 1;
            return m;
        }
    "#;
    let assert_warm = |(ir, report): (String, abcd::ModuleReport), cold_ir: &str| {
        assert_eq!(ir, cold_ir);
        assert!(report.functions.iter().all(|f| f.from_cache));
        let incidents: Vec<_> = report.incidents().collect();
        assert!(incidents.is_empty(), "{incidents:?}");
    };
    // In memory: the second run replays the first run's entry.
    let cache = Arc::new(AnalysisCache::in_memory(1 << 20));
    let (cold_ir, cold) = optimize_with(Some(&cache), 1, MIN_PROGRAM);
    assert!(cold_ir.contains("const -9223372036854775808"), "{cold_ir}");
    assert_eq!(cold.incident_count(), 0);
    assert_warm(optimize_with(Some(&cache), 1, MIN_PROGRAM), &cold_ir);
    // On disk: a fresh cache over the directory replays the stored entry.
    let dir = scratch_dir("i64-min");
    let cache = Arc::new(AnalysisCache::with_dir(&dir, 1 << 20).unwrap());
    optimize_with(Some(&cache), 1, MIN_PROGRAM);
    let cache = Arc::new(AnalysisCache::with_dir(&dir, 1 << 20).unwrap());
    assert_warm(optimize_with(Some(&cache), 1, MIN_PROGRAM), &cold_ir);
    assert!(cache.stats().disk_hits > 0, "{:?}", cache.stats());
    let _ = std::fs::remove_dir_all(&dir);
}
