//! A long-running optimizer must not keep the names of the functions it
//! has compiled and dropped. `abcdd` compiles client modules for as long
//! as it runs, each with names the client chose; if any layer kept them
//! (a process-global name table, say), its resident set would grow with
//! every distinct name it ever saw.
//!
//! This runs the path a client request takes (compile, `optimize_module`,
//! drop) over 100,000 one-function modules (25,000 in a debug build, where
//! the optimizer is about ten times slower), each with a fresh ~50-byte
//! name, and bounds the growth of VmRSS after a warm-up. It is its own
//! test binary so that no other test's allocations land in the window.

use abcd::Optimizer;
use std::fmt::Write;

const MODULES: usize = if cfg!(debug_assertions) {
    25_000
} else {
    100_000
};
const WARM_UP: usize = 5_000;
/// Retaining a name costs at least its ~50 bytes of text (a leaked entry
/// in a process-global name table about 115), so 20 bytes a module, under
/// 2 MiB over 100,000 modules, leaves room only for allocator noise.
const MAX_GROWTH_KIB: u64 = (MODULES as u64 * 20) / 1024;

/// Resident set size of this process in KiB (`/proc/self/status`).
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

/// Compiles, optimizes and drops modules `from..to`, each holding one
/// function named after its index.
fn serve(optimizer: &Optimizer, from: usize, to: usize) {
    let mut src = String::new();
    for i in from..to {
        src.clear();
        write!(
            src,
            "fn request_handler_for_client_session_{i:014}(a: int[]) -> int {{
                let s: int = 0;
                for (let x: int = 0; x < a.length; x = x + 1) {{ s = s + a[x]; }}
                return s;
            }}"
        )
        .unwrap();
        let mut module = abcd_frontend::compile(&src).expect("compiles");
        let report = optimizer.optimize_module(&mut module, None);
        assert_eq!(report.functions.len(), 1);
    }
}

#[test]
fn dropped_modules_leave_no_names_behind() {
    if std::fs::metadata("/proc/self/status").is_err() {
        eprintln!("skipped: no /proc/self/status on this platform");
        return;
    }
    let optimizer = Optimizer::default();
    serve(&optimizer, 0, WARM_UP);
    let before = vm_rss_kib();
    serve(&optimizer, WARM_UP, WARM_UP + MODULES);
    let after = vm_rss_kib();
    let growth = after.saturating_sub(before);
    eprintln!("VmRSS {before} KiB -> {after} KiB (+{growth} KiB) over {MODULES} modules");
    assert!(
        growth < MAX_GROWTH_KIB,
        "VmRSS grew by {growth} KiB over {MODULES} modules with fresh names \
         (bound {MAX_GROWTH_KIB} KiB): something retains dropped functions' names"
    );
}
