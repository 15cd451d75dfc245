//! CLI robustness golden tests (PR: fail-open optimizer): `mjc` must never
//! panic on malformed input — every failure is a structured `mjc: ` error
//! on stderr with a documented exit code:
//!
//! * 0 — success (including non-degraded budget exhaustion)
//! * 1 — bad input / usage / trap
//! * 2 — the pipeline degraded fail-open (pass panic, verifier rollback,
//!   validation reinstatement)
//! * 3 — an internal `mjc` panic (never expected; tested only for absence)

use abcd::{InequalityGraph, Optimizer, Problem, Stage};
use std::path::PathBuf;
use std::process::{Command, Output};

fn mjc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mjc"))
        .args(args)
        .output()
        .expect("mjc spawns")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("mjc exited (not signalled)")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Writes a scratch input file unique to this test process.
fn scratch(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mjc_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, contents).expect("scratch file writes");
    path
}

const GOOD_PROGRAM: &str = "fn main() -> int {
    let a: int[] = new int[10];
    let s: int = 0;
    for (let i: int = 0; i < a.length; i = i + 1) { a[i] = i; s = s + a[i]; }
    print(s);
    return s;
}";

#[test]
fn help_exits_zero() {
    let out = mjc(&["--help"]);
    assert_eq!(exit_code(&out), 0);
    let help = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(help.contains("USAGE"));
    // Every subcommand and the exit codes are documented in one place.
    for needle in [
        "mjc serve",
        "mjc client",
        "--cache-dir",
        "--deterministic-metrics",
        "abcd-metrics/8",
        "EXIT CODES",
        "0  success",
        "2  degraded",
        "3  internal panic",
    ] {
        assert!(help.contains(needle), "help is missing `{needle}`:\n{help}");
    }
}

#[test]
fn serve_and_client_usage_errors_are_structured() {
    let file = scratch("client.mj", GOOD_PROGRAM);
    for args in [
        // serve without a socket, with a bad flag value, with a typo,
        // with a pass flag it would not apply
        &["serve"][..],
        &["serve", "--socket"][..],
        &["serve", "--socket", "/tmp/x.sock", "--workers", "many"][..],
        &["serve", "--socket", "/tmp/x.sock", "--frobnicate"][..],
        &["serve", "--socket", "/tmp/x.sock", "--no-pre"][..],
        // client without a socket / against a dead socket
        &["client", file.to_str().unwrap()][..],
        &["client", "ping", "--socket", "/nonexistent/dir/abcdd.sock"][..],
        &[
            "client",
            "shutdown",
            "--socket",
            "/nonexistent/dir/abcdd.sock",
        ][..],
    ] {
        let out = mjc(args);
        assert_eq!(exit_code(&out), 1, "args {args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).starts_with("mjc: "),
            "args {args:?}: stderr not structured: {}",
            stderr(&out)
        );
        assert!(
            !stderr(&out).contains("panicked"),
            "args {args:?} panicked: {}",
            stderr(&out)
        );
    }
}

/// The full loop as CI runs it: boot `mjc serve`, round-trip a module with
/// `mjc client`, compare byte-for-byte against one-shot `mjc dump --stage
/// opt`, and shut down gracefully.
#[test]
fn serve_client_roundtrip_matches_dump() {
    let file = scratch("served.mj", GOOD_PROGRAM);
    let socket = std::env::temp_dir().join(format!("mjc_cli_serve_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);

    let mut server = Command::new(env!("CARGO_BIN_EXE_mjc"))
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--workers",
            "2",
        ])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("server spawns");

    // Wait for the socket to come up.
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let reference = mjc(&["dump", file.to_str().unwrap(), "--stage", "opt"]);
    assert_eq!(exit_code(&reference), 0, "{}", stderr(&reference));

    let served = mjc(&[
        "client",
        file.to_str().unwrap(),
        "--socket",
        socket.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&served), 0, "{}", stderr(&served));
    assert_eq!(
        String::from_utf8_lossy(&served.stdout),
        String::from_utf8_lossy(&reference.stdout),
        "served output must be byte-identical to one-shot `mjc dump --stage opt`"
    );

    let down = mjc(&["client", "shutdown", "--socket", socket.to_str().unwrap()]);
    assert_eq!(exit_code(&down), 0, "{}", stderr(&down));
    let status = server.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");
    assert!(!socket.exists(), "socket file cleaned up");
}

#[test]
fn usage_errors_are_structured() {
    for args in [
        &[][..],
        &["frobnicate", "x.mj"][..],
        &["run"][..],
        &["run", "/nonexistent/path.mj"][..],
    ] {
        let out = mjc(args);
        assert_eq!(exit_code(&out), 1, "args {args:?}");
        assert!(
            stderr(&out).starts_with("mjc: "),
            "args {args:?}: stderr not structured: {}",
            stderr(&out)
        );
        assert!(
            !stderr(&out).contains("panicked"),
            "args {args:?} panicked: {}",
            stderr(&out)
        );
    }
}

#[test]
fn malformed_source_is_a_structured_error() {
    let mj = scratch("broken.mj", "fn main( -> int { retur 1; }");
    let ir = scratch("broken.ir", "func @main {\n  blergh\n}");
    let truncated = scratch("trunc.mj", "fn main() -> int { return a[");
    // Parses and verifies, but uses `v1` before its definition.
    let use_before_def = scratch(
        "use_before_def.ir",
        "func @main() -> int {\nbb0:\n    v0: int = add v1, v1\n    v1: int = const 1\n    ret v0\n}\n",
    );
    // Parses, verifies and dominates, but reads a local never written.
    let uninit_local = scratch(
        "uninit_local.ir",
        "func @main() -> int {\n  locals loc0: int\nbb0:\n    v0: int = get loc0\n    ret v0\n}\n",
    );
    for file in [&mj, &ir, &truncated, &use_before_def, &uninit_local] {
        for cmd in ["run", "opt", "dump", "graph"] {
            let out = mjc(&[cmd, file.to_str().unwrap()]);
            assert_eq!(exit_code(&out), 1, "{cmd} {}", file.display());
            let err = stderr(&out);
            assert!(err.starts_with("mjc: "), "{cmd}: {err}");
            assert!(!err.contains("panicked"), "{cmd} panicked: {err}");
        }
    }
}

/// `mjc graph` prints the graphs the prover solves: for every function of
/// every kernel, in both problems, those of the optimizer's own e-SSA form.
#[test]
fn graph_prints_the_graphs_the_prover_solves() {
    let mut functions = 0;
    for bench in abcd_benchsuite::BENCHMARKS {
        let file = scratch(&format!("{}.mj", bench.name), bench.source);
        let mut module = bench.compile().expect("benchmark compiles");
        Optimizer::new()
            .run_to(&mut module, Stage::InsertPi)
            .expect("benchmark prepares");
        for (_, func) in module.functions() {
            functions += 1;
            for (flag, problem) in [(None, Problem::Upper), (Some("--lower"), Problem::Lower)] {
                let mut expected = String::new();
                InequalityGraph::build(func, problem, None).write_dot(func.name(), &mut expected);
                let mut args = vec!["graph", file.to_str().unwrap(), "--fn", func.name()];
                args.extend(flag);
                let out = mjc(&args);
                assert_eq!(exit_code(&out), 0, "{args:?}: {}", stderr(&out));
                assert!(
                    out.stdout == expected.as_bytes(),
                    "{}::{} ({problem:?}): `mjc graph` printed another graph",
                    bench.name,
                    func.name()
                );
            }
        }
    }
    assert_eq!(functions, 46, "kernel function count");
}

/// `mjc dump --stage` takes every name of the stage table and the old
/// `ir|ssa|essa|opt` names.
#[test]
fn dump_accepts_every_stage_name() {
    let file = scratch("stages.mj", GOOD_PROGRAM);
    let names = Stage::all()
        .map(Stage::name)
        .chain(["ir", "ssa", "essa", "opt"]);
    for name in names {
        let out = mjc(&["dump", file.to_str().unwrap(), "--stage", name]);
        assert_eq!(exit_code(&out), 0, "--stage {name}: {}", stderr(&out));
    }
}

#[test]
fn unknown_and_malformed_flags_are_rejected() {
    let file = scratch("flags.mj", GOOD_PROGRAM);
    let file = file.to_str().unwrap();
    for args in [
        &["opt", file, "--explode"][..],
        &["opt", file, "--fuel"][..],
        &["opt", file, "--fuel", "lots"][..],
        &["opt", file, "--fault-plan", "meteor:main"][..],
        &["run", file, "--opt", "--jobs", "many"][..],
        &["opt", file, "--fault-plan", "panic:main:sovle"][..],
        &["dump", file, "--stage", "opt", "--bogus"][..],
        &["dump", file, "--stage", "sovle"][..],
        &["graph", file, "--bogus"][..],
        &["graph", file, "--fn", "nosuch"][..],
    ] {
        let out = mjc(args);
        assert_eq!(exit_code(&out), 1, "args {args:?}");
        assert!(stderr(&out).starts_with("mjc: "), "args {args:?}");
    }
    // `dump` and `graph` do not wire up an optimizer's fault plan, threads,
    // cache or trace, so they refuse those flags by name.
    for command in ["dump", "graph"] {
        for (flag, value) in [
            ("--fault-plan", "panic:main:solve"),
            ("--jobs", "2"),
            ("--cache-dir", "cache"),
            ("--cache-bytes", "4096"),
            ("--trace-out", "t.jsonl"),
        ] {
            let out = mjc(&[command, file, flag, value]);
            assert_eq!(exit_code(&out), 1, "{command} {flag}");
            assert!(
                stderr(&out).contains(flag),
                "{command} {flag}: {}",
                stderr(&out)
            );
        }
    }
}

#[test]
fn injected_pass_panic_exits_degraded_but_still_runs() {
    let file = scratch("panic.mj", GOOD_PROGRAM);
    let out = mjc(&[
        "run",
        file.to_str().unwrap(),
        "--opt",
        "--fault-plan",
        "panic:main:solve",
    ]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("mjc: incident:"), "{}", stderr(&out));
    // The program itself still ran (fail-open: shipped unoptimized).
    assert!(String::from_utf8_lossy(&out.stdout).contains("45"));
}

#[test]
fn budget_exhaustion_is_not_degraded() {
    let file = scratch("fuel.mj", GOOD_PROGRAM);
    let out = mjc(&[
        "run",
        file.to_str().unwrap(),
        "--opt",
        "--fault-plan",
        "fuel:*",
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("mjc: incident:"),
        "exhaustion must still be reported: {}",
        stderr(&out)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("45"));
}

#[test]
fn full_fail_open_flags_run_clean() {
    let file = scratch("clean.mj", GOOD_PROGRAM);
    let out = mjc(&[
        "run",
        file.to_str().unwrap(),
        "--opt",
        "--validate",
        "--verify-ir",
        "--fuel",
        "100000",
        "--metrics",
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("\"schema\":\"abcd-metrics/8\""), "{err}");
    assert!(err.contains("\"incidents\":[]"), "{err}");
}

#[test]
fn trapping_program_exits_one_with_trap_message() {
    let oob = scratch(
        "trap.mj",
        "fn main() -> int { let a: int[] = new int[2]; let i: int = 5; return a[i]; }",
    );
    // Runs no instruction, so only the step limit's cycle rule stops it.
    let spin = scratch(
        "spin.ir",
        "func @main() -> int {\nbb0:\n    jump bb1\nbb1:\n    jump bb1\n}\n",
    );
    for (file, extra, what) in [
        (&oob, &[][..], "index 5, length 2"),
        (&oob, &["--opt", "--validate"][..], "index 5, length 2"),
        (&spin, &[][..], "step limit exceeded"),
        (&spin, &["--opt", "--validate"][..], "step limit exceeded"),
    ] {
        let mut args = vec!["run", file.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = mjc(&args);
        assert_eq!(exit_code(&out), 1, "args {args:?}");
        let err = stderr(&out);
        // `--opt` prints its stats line first; the trap itself must still
        // be a structured `mjc: ` line.
        assert!(
            err.lines()
                .any(|l| l.starts_with("mjc: ") && l.contains("trap") && l.contains(what)),
            "{err}"
        );
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn trap_names_the_function_that_trapped() {
    // The trap is raised in the callee, the second function (fn1).
    let two = scratch(
        "callee_trap.mj",
        "fn main() -> int { let a: int[] = new int[2]; return pick(a, 5); }
         fn pick(a: int[], i: int) -> int { return a[i]; }",
    );
    for extra in [&[][..], &["--opt"][..]] {
        let mut args = vec!["run", two.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = mjc(&args);
        assert_eq!(exit_code(&out), 1, "args {args:?}");
        let err = stderr(&out);
        assert!(
            err.lines()
                .any(|l| l.starts_with("mjc: trap in pick (fn1): ")
                    && l.ends_with("index 5, length 2")),
            "args {args:?}: {err}"
        );
    }
}

#[test]
fn huge_array_length_traps_instead_of_aborting() {
    // One length would abort on a failed 1.6 TB allocation, the other
    // overflow the element vector's capacity: both must be ordinary traps.
    let file = scratch(
        "huge_array.mj",
        "fn main(n: int) -> int { let a: int[] = new int[n]; return a.length; }",
    );
    for n in ["100000000000", "9223372036854775807"] {
        let out = mjc(&["run", file.to_str().unwrap(), "--arg", n]);
        assert_eq!(exit_code(&out), 1, "--arg {n}");
        let err = stderr(&out);
        assert!(
            err.lines()
                .any(|l| l.starts_with("mjc: ") && l.contains("trap") && l.contains(n)),
            "{err}"
        );
        assert!(!err.contains("panicked"), "{err}");
    }
}

/// Function versioning is part of `--ipa` now; its old flag is an
/// ordinary unknown flag on every subcommand that takes pass flags.
#[test]
fn version_fns_is_an_unknown_flag() {
    let file = scratch("version_fns.mj", GOOD_PROGRAM);
    let file = file.to_str().unwrap();
    let socket = std::env::temp_dir().join(format!("mjc_cli_nosuch_{}.sock", std::process::id()));
    let socket = socket.to_str().unwrap();
    for args in [
        &["run", file, "--opt", "--version-fns"][..],
        &["opt", file, "--version-fns"][..],
        &["explain", file, "main", "--version-fns"][..],
        &["dump", file, "--stage", "opt", "--version-fns"][..],
        &["graph", file, "--version-fns"][..],
        &["client", file, "--socket", socket, "--version-fns"][..],
    ] {
        let out = mjc(args);
        assert_eq!(exit_code(&out), 1, "args {args:?}");
        assert!(
            stderr(&out).contains("unknown flag `--version-fns`"),
            "args {args:?}: {}",
            stderr(&out)
        );
    }
}

/// `run --opt --ipa` runs the module the guarded entries are part of:
/// `main` reaches only fast bodies, so `hanoi` prints what `--opt` prints
/// and executes fewer upper checks.
#[test]
fn run_opt_ipa_prints_what_opt_prints_with_fewer_upper_checks() {
    let hanoi = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/benchsuite/programs/hanoi.mj"
    );
    let plain = mjc(&["run", hanoi, "--opt", "--stats"]);
    let ipa = mjc(&["run", hanoi, "--opt", "--ipa", "--stats"]);
    assert_eq!(exit_code(&plain), 0, "{}", stderr(&plain));
    assert_eq!(exit_code(&ipa), 0, "{}", stderr(&ipa));
    assert_eq!(plain.stdout, ipa.stdout);
    let (plain_err, ipa_err) = (stderr(&plain), stderr(&ipa));
    for err in [&plain_err, &ipa_err] {
        assert!(err.lines().any(|l| l == "=> 1000"), "{err}");
    }
    // `checks: lower L / upper U / …` of the `--stats` line.
    let upper = |err: &str| -> u64 {
        let stats = err
            .lines()
            .find(|l| l.starts_with("instructions: "))
            .unwrap();
        let at = stats.find("upper ").unwrap() + "upper ".len();
        let digits: String = stats[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap()
    };
    assert_eq!(upper(&plain_err), 6148, "{plain_err}");
    assert_eq!(upper(&ipa_err), 2056, "{ipa_err}");
}

/// Only the whole driver applies parameter facts: `graph` and every
/// `dump` stage before `canonicalize` would print the facts-free form, so
/// they refuse `--ipa` rather than ignore it.
#[test]
fn ipa_is_rejected_where_no_facts_apply() {
    let file = scratch("ipa_stages.mj", GOOD_PROGRAM);
    let file = file.to_str().unwrap();
    for args in [
        &["graph", file, "--ipa"][..],
        &["dump", file, "--ipa"][..],
        &["dump", file, "--stage", "essa", "--ipa"][..],
        &["dump", file, "--stage", "transform", "--ipa"][..],
        &["dump", file, "--stage", "validate", "--ipa"][..],
    ] {
        let out = mjc(args);
        assert_eq!(exit_code(&out), 1, "args {args:?}");
        assert!(
            stderr(&out).contains("--ipa"),
            "args {args:?}: {}",
            stderr(&out)
        );
    }
    for stage in ["canonicalize", "opt"] {
        let out = mjc(&["dump", file, "--stage", stage, "--ipa"]);
        assert_eq!(exit_code(&out), 0, "{stage}: {}", stderr(&out));
    }
}
