//! `abcdd` — the persistent ABCD optimization daemon.
//!
//! ```text
//! abcdd --socket /tmp/abcdd.sock [--listen tcp:127.0.0.1:7433]...
//!       [--shards N] [--workers N] [--queue N] [--jobs N]
//!       [--cache-bytes N] [--cache-dir DIR] [--no-cache]
//!       [--request-timeout MS] [--io-timeout MS] [--stuck-after MS]
//!       [--chaos PLAN]
//! ```
//!
//! Runs in the foreground until a `shutdown` request arrives (e.g. from
//! `mjc client --socket … shutdown`), then drains admitted requests and
//! exits 0. Exit 1 means bad usage or a bind failure. The flags are
//! [`abcd_server::ServerConfig::from_args`]'s, shared with `mjc serve`.

use abcd_server::{ServerConfig, ServerHandle, SERVE_FLAGS};
use std::process::ExitCode;

fn help() -> String {
    format!(
        "abcdd — persistent ABCD optimization service

USAGE:
    abcdd [--socket PATH | --listen ADDR]... [options]

OPTIONS:
{SERVE_FLAGS}    --help             this text

Protocol, deadline and retry contract: see DESIGN.md §5e/§5h. Shut down
with `mjc client --socket PATH shutdown`; exit code 0 after a graceful
drain — even under chaos.
"
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    let config = match ServerConfig::from_args(&args) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("abcdd: {msg}\n{}", help());
            return ExitCode::FAILURE;
        }
    };
    let handle: ServerHandle = match abcd_server::start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("abcdd: bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    for endpoint in handle.endpoints() {
        eprintln!("abcdd: listening on {}", endpoint.describe());
    }
    handle.join();
    eprintln!("abcdd: drained, bye");
    ExitCode::SUCCESS
}
