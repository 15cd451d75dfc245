//! Output golden for the pre-ABCD cleanup.
//!
//! `tests/golden/cleanup.txt` pins one line per function of every
//! benchsuite kernel and every `abcd_loadgen::corpus(1, 24)` and
//! `corpus(3, 24)` program, taken after the driver's CFG normalization and
//! local promotion: the `CleanupStats` that `abcd_analysis::cleanup` reports,
//! an FNV-1a digest of the function printed after cleanup, and a digest of
//! its congruence classes — `leader_of` of every value once
//! `record_load_congruence` has added the load congruences. A change to
//! which instructions fold, which are unified or removed, or which values
//! the §7.1 hook sees as congruent shows here.
//!
//! On a mismatch the test prints the recomputed file; after an intended
//! change to cleanup, replace the golden file with that output.

use abcd::cache::fnv1a64;
use abcd::{Optimizer, Stage};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("../../../tests/golden/cleanup.txt");

/// Every program the golden covers, by a stable label.
fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|b| (b.name.to_string(), b.source.to_string()))
        .collect();
    for seed in [1, 3] {
        for (i, src) in abcd_loadgen::corpus(seed, 24).into_iter().enumerate() {
            out.push((format!("corpus{seed}.{i}"), src));
        }
    }
    out
}

fn recompute() -> String {
    let optimizer = Optimizer::new();
    let mut out = String::new();
    for (label, src) in programs() {
        let mut module = abcd_frontend::compile(&src).expect("golden program compiles");
        optimizer.run_to(&mut module, Stage::PromoteLocals).unwrap();
        for (_, func) in module.functions_mut() {
            let (stats, mut gvn) = abcd_analysis::cleanup(func);
            abcd_analysis::record_load_congruence(func, &mut gvn);
            let mut classes = String::new();
            for v in func.values() {
                let _ = write!(classes, "{v}:{} ", gvn.leader_of(v));
            }
            let _ = writeln!(
                out,
                "{label} {} folded={} numbered={} dce={} ir={:016x} classes={:016x}",
                func.name(),
                stats.folded,
                stats.value_numbered,
                stats.dce_removed,
                fnv1a64(func.to_string().as_bytes()),
                fnv1a64(classes.as_bytes()),
            );
        }
    }
    out
}

#[test]
fn cleanup_matches_the_golden_digests() {
    let actual = recompute();
    if actual != GOLDEN {
        println!("---- recomputed tests/golden/cleanup.txt ----\n{actual}---- end ----");
        for (a, g) in actual.lines().zip(GOLDEN.lines()) {
            assert_eq!(a, g, "first differing golden line");
        }
        assert_eq!(
            actual.lines().count(),
            GOLDEN.lines().count(),
            "golden line count"
        );
    }
}
