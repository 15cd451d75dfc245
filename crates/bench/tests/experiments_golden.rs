//! Golden for the §8 experiment tables.
//!
//! `tests/golden/experiments.txt` pins the full output of `figure6`,
//! `table_static`, `table_effort`, `table_speedup` and `table_ablation`,
//! run as built by this package. Every number they print is deterministic
//! except `table_effort`'s `µs/check` wall-time column, which is masked.
//! Figure 6's local/global split, the static removal counts, the solver
//! step totals, the VM cycle ratios and the ablation matrix all show here.
//!
//! On a mismatch the test prints the recomputed file; after an intended
//! change to the tables, replace the golden file with that output.

use std::process::Command;

const GOLDEN: &str = include_str!("../../../tests/golden/experiments.txt");

/// The experiment binaries, in the golden's order.
const BINARIES: [(&str, &str); 5] = [
    ("figure6", env!("CARGO_BIN_EXE_figure6")),
    ("table_static", env!("CARGO_BIN_EXE_table_static")),
    ("table_effort", env!("CARGO_BIN_EXE_table_effort")),
    ("table_speedup", env!("CARGO_BIN_EXE_table_speedup")),
    ("table_ablation", env!("CARGO_BIN_EXE_table_ablation")),
];

/// Byte range of `table_effort`'s `µs/check` cell in a data row.
const MICROS_CELL: std::ops::Range<usize> = 62..72;

/// Replaces a `table_effort` data row's wall-time cell with `*`.
fn mask_micros(line: &str) -> String {
    match line.get(MICROS_CELL) {
        Some(cell) if cell.trim().parse::<f64>().is_ok() => format!(
            "{}{:>10}{}",
            &line[..MICROS_CELL.start],
            "*",
            &line[MICROS_CELL.end..]
        ),
        _ => line.to_string(),
    }
}

fn recompute() -> String {
    let mut out = String::new();
    for (name, path) in BINARIES {
        let run = Command::new(path).output().expect("experiment binary runs");
        assert!(run.status.success(), "{name} failed: {run:?}");
        let stdout = String::from_utf8(run.stdout).expect("tables are UTF-8");
        out.push_str(&format!("==== {name} ====\n"));
        for line in stdout.lines() {
            if name == "table_effort" {
                out.push_str(&mask_micros(line));
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn experiment_tables_match_the_golden() {
    let actual = recompute();
    if actual != GOLDEN {
        println!("---- recomputed tests/golden/experiments.txt ----\n{actual}---- end ----");
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
