//! `perfbench --workload <suite|scale|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints each metric with its unit, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, and the spans go to
//! `.bench_out/trace-<workload>-<seed>.jsonl`.

#[global_allocator]
static ALLOC: abcd_alloc::CountingAlloc = abcd_alloc::CountingAlloc;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let config = abcd_perfbench::Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let report = match abcd_perfbench::run(&args.workload, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(spans) = &report.spans {
        let path = format!(".bench_out/trace-{}-{}.jsonl", args.workload, args.seed);
        if let Err(e) = spans.write_jsonl(path.as_ref()) {
            eprintln!("perfbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} nproc={cpus} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.notes.join(" ")
    );
    for m in &report.metrics {
        println!("  {:<26} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        println!("  failure: {f}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
