//! Micro-benchmark: interpreter throughput with and without bounds
//! checks — the execution-substrate side of the speedup experiment (E4).
//! Every benchsuite kernel's `main` runs in the two forms `table_speedup`
//! compares: the baseline (basic optimizations, every check kept) and the
//! ABCD-optimized module trained on the baseline's profile, so each
//! wall-clock delta sits next to a model-cycle delta.
//!
//! Run with: `cargo bench -p abcd-bench --bench vm`

use abcd::{Optimizer, OptimizerOptions};
use abcd_bench::baseline_options;
use abcd_bench::micro::bench;
use abcd_vm::Vm;

fn main() {
    let options = OptimizerOptions::default();
    for b in abcd_benchsuite::BENCHMARKS {
        let name = b.name;
        let mut checked = b.compile().unwrap();
        Optimizer::with_options(baseline_options(options)).optimize_module(&mut checked, None);
        let mut training = Vm::new(&checked);
        training.call_by_name("main", &[]).unwrap();
        let profile = training.into_profile();
        let mut optimized = b.compile().unwrap();
        Optimizer::with_options(options).optimize_module(&mut optimized, Some(&profile));

        bench(&format!("vm/run_main/checked/{name}"), || {
            let mut vm = Vm::new(&checked);
            vm.call_by_name("main", &[]).unwrap()
        });
        bench(&format!("vm/run_main/optimized/{name}"), || {
            let mut vm = Vm::new(&optimized);
            vm.call_by_name("main", &[]).unwrap()
        });
    }
}
