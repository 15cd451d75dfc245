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
//!
//! A second test holds EXPERIMENTS.md to the golden: every number its E1–E4
//! and A1 tables quote for this reproduction must be printed, digit for
//! digit, somewhere in the golden, so a table change has to update the
//! prose with it.

use std::collections::HashSet;
use std::process::Command;

const GOLDEN: &str = include_str!("../../../tests/golden/experiments.txt");
const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");

/// The EXPERIMENTS.md sections whose tables quote the experiment binaries.
const QUOTING_SECTIONS: [&str; 5] = ["## E1 ", "## E2 ", "## E3 ", "## E4 ", "## A1 "];

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

/// The numbers in `text`, thousands separators stripped. A number starts
/// at a digit that follows no letter, digit, `.` or `§`, so identifiers
/// (`E1`, `MMS98`, `x86`) and section references (`§7.2`) are not numbers.
fn numbers(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let starts = chars[i].is_ascii_digit()
            && (i == 0 || !(chars[i - 1].is_alphanumeric() || matches!(chars[i - 1], '.' | '§')));
        if !starts {
            i += 1;
            continue;
        }
        let mut number = String::new();
        while i < chars.len() {
            let c = chars[i];
            let digit_at = |k: usize| chars.get(k).is_some_and(char::is_ascii_digit);
            if c.is_ascii_digit() {
                number.push(c);
            } else if c == ',' && (1..=3).all(|k| digit_at(i + k)) && !digit_at(i + 4) {
                // A thousands separator: dropped.
            } else if c == '.' && digit_at(i + 1) && !number.contains('.') {
                number.push(c);
            } else {
                break;
            }
            i += 1;
        }
        out.push(number);
    }
    out
}

/// Is this table cell a wall-time measurement (µs or ms)? Those vary
/// with the host and are not in the golden.
fn is_timing(cell: &str) -> bool {
    cell.contains("µs")
        || cell
            .split(|c: char| !c.is_alphanumeric())
            .any(|w| w == "ms")
}

/// The reproduction cell (the last column) of every table row in the E1–E4
/// and A1 sections, minus inline code spans.
fn quoted_cells() -> Vec<String> {
    let mut cells = Vec::new();
    let mut quoting = false;
    for line in EXPERIMENTS_MD.lines() {
        if line.starts_with("## ") {
            quoting = QUOTING_SECTIONS.iter().any(|s| line.starts_with(s));
            continue;
        }
        let Some(row) = line.strip_prefix('|').and_then(|r| r.strip_suffix('|')) else {
            continue;
        };
        let cell = row.rsplit('|').next().unwrap_or_default();
        if !quoting || cell.trim_start().starts_with("---") || is_timing(cell) {
            continue;
        }
        // Drop `code` spans: file paths and expressions, not quotes.
        let cell: String = cell.split('`').step_by(2).collect();
        cells.push(cell);
    }
    cells
}

#[test]
fn experiments_md_quotes_only_numbers_the_golden_prints() {
    let printed: HashSet<String> = numbers(GOLDEN).into_iter().collect();
    let mut checked = 0;
    let mut missing = Vec::new();
    for cell in quoted_cells() {
        for number in numbers(&cell) {
            checked += 1;
            if !printed.contains(&number) {
                missing.push(format!("{number} in `{}`", cell.trim()));
            }
        }
    }
    assert!(checked >= 50, "only {checked} quoted numbers found");
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md quotes numbers the experiment golden does not print:\n{}",
        missing.join("\n")
    );
}
