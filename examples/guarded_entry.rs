//! Interprocedural parameter facts behind a guarded entry: the module's
//! own calls run a check-free fast body, and any other caller passes a
//! runtime test of the same facts first — the [MMS98]-style guarded
//! duplication the paper lists as missing ("We do not perform any code
//! duplication…").
//!
//!     cargo run --example guarded_entry

use abcd::{Optimizer, OptimizerOptions};
use abcd_frontend::compile;
use abcd_vm::{RtVal, Vm};

const SRC: &str = r#"
    // The classic shape ABCD alone cannot finish: the loop bound is a
    // parameter, unrelated to a.length inside this function.
    fn window_sum(a: int[], n: int) -> int {
        let s: int = 0;
        for (let i: int = 0; i < n; i = i + 1) {
            s = s + a[i];
        }
        return s;
    }
    fn main() -> int {
        let a: int[] = new int[16];
        return window_sum(a, a.length) + window_sum(a, 4);
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut module = compile(SRC)?;
    let report = Optimizer::with_options(OptimizerOptions {
        interprocedural: true,
        ..OptimizerOptions::default()
    })
    .optimize_module(&mut module, None);
    for f in &report.functions {
        println!(
            "{}: {} checks, {} removed, {} hoisted, {} parameter facts assumed",
            f.name,
            f.checks_total,
            f.removed_fully(),
            f.hoisted(),
            f.param_facts_used
        );
    }
    println!("\n--- the guarded entry ---");
    let id = module.function_by_name("window_sum").expect("entry");
    println!("{}", module.function(id));

    // `main`'s calls go straight to the fast body: every check is gone.
    let mut vm = Vm::new(&module);
    vm.call_by_name("main", &[])?;
    println!("main(): dynamic checks {:?}", vm.stats().checks);

    // A caller outside the module enters through the guard. The facts
    // hold: the fast body runs.
    let mut vm = Vm::new(&module);
    let a = vm.alloc_int_array(&[10, 20, 30, 40]);
    let r = vm.call_by_name("window_sum", &[a, RtVal::Int(4)])?;
    println!(
        "window_sum(a, 4) = {r:?}  (dynamic checks: {:?})",
        vm.stats().checks
    );

    // `n` exceeds the array: the guard fails, and the slow body traps
    // exactly where the original program would.
    let mut vm = Vm::new(&module);
    let a = vm.alloc_int_array(&[10, 20]);
    let err = vm
        .call_by_name("window_sum", &[a, RtVal::Int(9)])
        .unwrap_err();
    println!("window_sum(a, 9) -> {err}");
    Ok(())
}
