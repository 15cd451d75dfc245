//! Byte-identity golden for the IR printer and the cache key.
//!
//! `tests/golden/ir_text.txt` pins, as FNV-1a digests, the printed text of
//! every benchsuite kernel and every `abcd_loadgen::corpus(1, 24)` program
//! in three forms — locals form, optimized with the training profile, and
//! optimized with the default options — plus the cache key of every
//! function in locals form and in e-SSA form (the latter has value and
//! block holes, so its canonical numbering is not the identity). The keys
//! are what an on-disk `abcd-cache/1` entry is filed under: if one moves,
//! existing caches stop hitting.
//!
//! A second test pins the streamed forms to their materialized
//! definitions on every one of those functions: the streamed key equals
//! `cache_key(&canonicalize(f).to_string(), …)`, and `is_canonical(f)`
//! equals `canonicalize(f).to_string() == f.to_string()`.
//!
//! On a mismatch the test prints the recomputed file; after an intended
//! change to the printed text, replace the golden file with that output.

use abcd::cache::{
    cache_key, canonical_text_hash, facts_fingerprint, fnv1a64, key_from_text_hash,
    options_fingerprint, profile_fingerprint,
};
use abcd::{Optimizer, OptimizerOptions};
use abcd_ir::{canonicalize, is_canonical, print_canonical, Module};
use abcd_vm::{Profile, Vm};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("../../../tests/golden/ir_text.txt");

/// Every program the golden covers, by a stable label.
fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|b| (b.name.to_string(), b.source.to_string()))
        .collect();
    for (i, src) in abcd_loadgen::corpus(1, 24).into_iter().enumerate() {
        out.push((format!("corpus{i}"), src));
    }
    out
}

fn compile(src: &str) -> Module {
    abcd_frontend::compile(src).expect("golden program compiles")
}

/// The training run: `main` of the unoptimized module on a fresh VM.
fn train(module: &Module) -> Profile {
    let mut vm = Vm::new(module);
    vm.call_by_name("main", &[])
        .expect("training run completes");
    vm.into_profile()
}

/// The options the keys are derived under. `verify_ir` defaults to on in
/// debug builds only, so it is pinned: the keys must not depend on the
/// build profile.
fn key_options() -> OptimizerOptions {
    OptimizerOptions {
        verify_ir: false,
        ..OptimizerOptions::default()
    }
}

/// The cache key the driver files `func` (function `id`) under, derived
/// from the materialized canonical print.
fn reference_key(module: &Module, profile: &Profile) -> Vec<(String, abcd::CacheKey)> {
    let options_fp = options_fingerprint(&key_options());
    module
        .functions()
        .map(|(id, f)| {
            let key = cache_key(
                &canonicalize(f).to_string(),
                options_fp,
                facts_fingerprint(&[]),
                profile_fingerprint(Some(profile), id, None),
            );
            (f.name().to_string(), key)
        })
        .collect()
}

fn to_essa(module: &mut Module) {
    for (_, func) in module.functions_mut() {
        abcd_ssa::split_critical_edges(func);
        abcd_ssa::promote_locals(func).expect("frontend guarantees definite assignment");
        abcd_ssa::insert_pi_nodes(func);
    }
}

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

fn recompute() -> String {
    let mut out = String::new();
    for (label, src) in programs() {
        let locals = compile(&src);
        let profile = train(&locals);
        let _ = writeln!(out, "{label} locals {}", digest(&locals.to_string()));

        let mut trained = compile(&src);
        Optimizer::new().optimize_module(&mut trained, Some(&profile));
        let _ = writeln!(out, "{label} opt.profile {}", digest(&trained.to_string()));

        let mut plain = compile(&src);
        Optimizer::new().optimize_module(&mut plain, None);
        let _ = writeln!(out, "{label} opt.default {}", digest(&plain.to_string()));

        for (name, key) in reference_key(&locals, &profile) {
            let _ = writeln!(out, "{label} key.locals {name} {key}");
        }
        let mut essa = compile(&src);
        to_essa(&mut essa);
        for (name, key) in reference_key(&essa, &profile) {
            let _ = writeln!(out, "{label} key.essa {name} {key}");
        }
    }
    out
}

#[test]
fn printed_ir_and_cache_keys_match_the_golden_digests() {
    let actual = recompute();
    if actual != GOLDEN {
        println!("---- recomputed tests/golden/ir_text.txt ----\n{actual}---- end ----");
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

#[test]
fn streamed_keys_and_is_canonical_match_their_materialized_definitions() {
    let options_fp = options_fingerprint(&key_options());
    let facts_fp = facts_fingerprint(&[]);
    let (mut canonical, mut renumbered) = (0, 0);
    for (label, src) in programs() {
        let locals = compile(&src);
        let profile = train(&locals);
        let mut essa = compile(&src);
        to_essa(&mut essa);
        let mut optimized = compile(&src);
        Optimizer::new().optimize_module(&mut optimized, Some(&profile));
        for module in [&locals, &essa, &optimized] {
            for (id, f) in module.functions() {
                let text = canonicalize(f).to_string();
                let mut streamed = String::new();
                print_canonical(f, &mut streamed);
                assert_eq!(streamed, text, "{label}::{}", f.name());
                let profile_fp = profile_fingerprint(Some(&profile), id, None);
                assert_eq!(
                    key_from_text_hash(canonical_text_hash(f), options_fp, facts_fp, profile_fp),
                    cache_key(&text, options_fp, facts_fp, profile_fp),
                    "{label}::{}",
                    f.name()
                );
                let old_definition = text == f.to_string();
                assert_eq!(is_canonical(f), old_definition, "{label}::{}", f.name());
                if old_definition {
                    canonical += 1;
                } else {
                    renumbered += 1;
                }
            }
        }
    }
    // Both answers occur, so neither side of the equivalence is vacuous.
    assert!(
        canonical > 0 && renumbered > 0,
        "{canonical} / {renumbered}"
    );
}
