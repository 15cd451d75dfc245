//! CLI robustness golden tests (PR: fail-open optimizer): `mjc` must never
//! panic on malformed input — every failure is a structured `mjc: ` error
//! on stderr with a documented exit code:
//!
//! * 0 — success (including non-degraded budget exhaustion)
//! * 1 — bad input / usage / trap
//! * 2 — the pipeline degraded fail-open (pass panic, verifier rollback,
//!   validation reinstatement)
//! * 3 — an internal `mjc` panic (never expected; tested only for absence)

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
        "abcd-metrics/7",
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
        // serve without a socket, with a bad flag value, with a typo
        &["serve"][..],
        &["serve", "--socket"][..],
        &["serve", "--socket", "/tmp/x.sock", "--workers", "many"][..],
        &["serve", "--socket", "/tmp/x.sock", "--frobnicate"][..],
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
    for file in [&mj, &ir, &truncated] {
        for cmd in ["run", "opt", "dump", "graph"] {
            let out = mjc(&[cmd, file.to_str().unwrap()]);
            assert_eq!(exit_code(&out), 1, "{cmd} {}", file.display());
            let err = stderr(&out);
            assert!(err.starts_with("mjc: "), "{cmd}: {err}");
            assert!(!err.contains("panicked"), "{cmd} panicked: {err}");
        }
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
    ] {
        let out = mjc(args);
        assert_eq!(exit_code(&out), 1, "args {args:?}");
        assert!(stderr(&out).starts_with("mjc: "), "args {args:?}");
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
    assert!(err.contains("\"schema\":\"abcd-metrics/7\""), "{err}");
    assert!(err.contains("\"incidents\":[]"), "{err}");
}

#[test]
fn trapping_program_exits_one_with_trap_message() {
    let file = scratch(
        "trap.mj",
        "fn main() -> int { let a: int[] = new int[2]; let i: int = 5; return a[i]; }",
    );
    for extra in [&[][..], &["--opt", "--validate"][..]] {
        let mut args = vec!["run", file.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = mjc(&args);
        assert_eq!(exit_code(&out), 1, "args {args:?}");
        let err = stderr(&out);
        // `--opt` prints its stats line first; the trap itself must still
        // be a structured `mjc: ` line.
        assert!(
            err.lines()
                .any(|l| l.starts_with("mjc: ") && l.contains("trap")),
            "{err}"
        );
        assert!(!err.contains("panicked"), "{err}");
    }
}
