//! Observable-behaviour golden for the interpreter.
//!
//! `tests/golden/vm_runs.txt` pins, for every benchsuite kernel's `main`:
//!
//! * the locals form and the form optimized with its training profile,
//!   each under the default options;
//! * the optimized form under `step_limit` 1, 7, 1,000 and 12,345, so
//!   the budget runs out before, inside and after the first call;
//! * the locals form under `call_depth_limit` 1.
//!
//! Each run records its return value or trap, its output, the full
//! [`ExecStats`] and the sorted block, edge and site profile entries
//! (output and profile as FNV-1a digests, with their lengths). Any change
//! to how the interpreter executes, counts, costs or profiles shows here.
//!
//! On a mismatch the test prints the recomputed file; after an intended
//! change to the interpreter's observables, replace the golden file with
//! that output.

use abcd::cache::fnv1a64;
use abcd::Optimizer;
use abcd_ir::Module;
use abcd_vm::{ExecStats, Profile, Vm, VmOptions};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("../../../tests/golden/vm_runs.txt");

/// The training run: `main` of the unoptimized module on a fresh VM.
fn train(module: &Module) -> Profile {
    let mut vm = Vm::new(module);
    vm.call_by_name("main", &[])
        .expect("training run completes");
    vm.into_profile()
}

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// The profile's entries of one kind, sorted, as `count digest`.
fn entries<K: Ord + std::fmt::Debug>(items: impl Iterator<Item = (K, u64)>) -> String {
    let mut items: Vec<(K, u64)> = items.collect();
    items.sort();
    let text: String = items.iter().map(|e| format!("{e:?}\n")).collect();
    format!("{}:{}", items.len(), digest(&text))
}

fn stats(s: &ExecStats) -> String {
    format!(
        "insts={} cycles={} checks={:?} spec={:?} trap_tests={}",
        s.insts, s.cycles, s.checks, s.spec_checks, s.trap_tests
    )
}

/// Runs `main` on a fresh VM under `options` and renders every observable.
fn run(module: &Module, options: VmOptions) -> String {
    let mut vm = Vm::with_options(module, options);
    let outcome = match vm.call_by_name("main", &[]) {
        Ok(Some(v)) => format!("ret={v}"),
        Ok(None) => "ret=none".to_string(),
        Err(t) => format!("trap=[{t}]"),
    };
    let output: String = vm.output().iter().map(|v| format!("{v}\n")).collect();
    let profile = vm.profile();
    format!(
        "{outcome} out={}:{} {} blocks={} edges={} sites={}",
        vm.output().len(),
        digest(&output),
        stats(vm.stats()),
        entries(profile.block_entries()),
        entries(profile.edge_entries()),
        entries(profile.site_entries()),
    )
}

fn recompute() -> String {
    let mut out = String::new();
    for bench in abcd_benchsuite::BENCHMARKS {
        let name = bench.name;
        let locals = bench.compile().expect("benchmark compiles");
        let profile = train(&locals);
        let mut optimized = locals.clone();
        Optimizer::new().optimize_module(&mut optimized, Some(&profile));

        let default = VmOptions::default();
        let _ = writeln!(out, "{name} locals {}", run(&locals, default));
        let _ = writeln!(out, "{name} opt {}", run(&optimized, default));
        for step_limit in [1, 7, 1_000, 12_345] {
            let options = VmOptions {
                step_limit,
                ..default
            };
            let _ = writeln!(
                out,
                "{name} opt.steps{step_limit} {}",
                run(&optimized, options)
            );
        }
        let shallow = VmOptions {
            call_depth_limit: 1,
            ..default
        };
        let _ = writeln!(out, "{name} locals.depth1 {}", run(&locals, shallow));
    }
    out
}

#[test]
fn vm_observables_match_the_golden_runs() {
    let actual = recompute();
    if actual != GOLDEN {
        println!("---- recomputed tests/golden/vm_runs.txt ----\n{actual}---- end ----");
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
