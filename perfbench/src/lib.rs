//! `perfbench` — one benchmark for `mjc` (the ABCD optimizer) and `abcdd`
//! (the optimization service).
//!
//! Three seeded workloads, each measured for a fixed time with every
//! output checked:
//!
//! * [`suite`]: the 15 §8 kernels under the JIT protocol (training run,
//!   optimize with the profile, print, run the optimized code);
//! * [`scale`]: one generated module of about 2,000 functions, optimized
//!   whole with a fresh analysis cache per iteration;
//! * [`serve`]: an in-process `abcdd` over a Unix socket, driven by a
//!   closed loop of clients over a zipf-weighted corpus.
//!
//! An untraced run reports the end-to-end metrics; a traced run records
//! spans around the calls into each layer ([`trace`]), replays the
//! optimizer's stages ([`replay`]) and reports the per-layer metrics.
//! See `README.md` next to this crate for every metric and its unit.

pub mod gen;
pub mod replay;
pub mod scale;
pub mod serve;
pub mod suite;
pub mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::time::{Duration, Instant};

/// The workloads, by the names the command line takes.
pub const WORKLOADS: [&str; 3] = ["suite", "scale", "serve"];

/// Functions in the `scale` workload's generated module.
pub const SCALE_FUNCTIONS: usize = 2000;

/// Timed passes every timed loop makes, even when its time has run out.
pub const MIN_PASSES: usize = 3;

/// Set-ups an untraced run makes; `setup_s` is their median. A traced run
/// sets up once.
pub const SETUPS: usize = 5;

/// How one run is configured: the command line's arguments.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Seeds every generated input.
    pub seed: u64,
    /// Measured time; every timed loop also completes [`MIN_PASSES`].
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `opt_ms_p50` or `graph.build_ms`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (requests, kernel runs, module iterations).
    pub attempted: u64,
    /// Operations whose output check failed, or that errored.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Sample counts and other context, one `key=value` each.
    pub notes: Vec<String>,
    /// FNV-1a digest of every optimized output of the first pass, for the
    /// determinism test.
    pub output_digest: u64,
    /// The spans a traced run recorded.
    pub spans: Option<trace::Tracer>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Adds another report's operations and failures to this one.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Records a failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    /// The result as one JSON line, the last line the command prints.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    abcd::json_escape(m.name),
                    finite(m.value),
                    abcd::json_escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Runs `workload` under `config`.
pub fn run(workload: &str, config: &Config) -> Result<Report, String> {
    match workload {
        "suite" => suite::run(config),
        "scale" => scale::run(config),
        "serve" => serve::run(config),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}

/// The loop guard every timed phase uses: keep going until `seconds` have
/// passed and at least `min_passes` passes are done.
pub struct Budget {
    started: Instant,
    limit: Duration,
    min_passes: usize,
    /// Passes completed so far.
    pub passes: usize,
}

impl Budget {
    /// A budget of `seconds` and `min_passes`, starting now.
    pub fn new(seconds: f64, min_passes: usize) -> Budget {
        Budget {
            started: Instant::now(),
            limit: Duration::from_secs_f64(seconds.max(0.0)),
            min_passes,
            passes: 0,
        }
    }

    /// True while another pass should run; counts the pass.
    pub fn next_pass(&mut self) -> bool {
        let go = self.passes < self.min_passes || self.started.elapsed() < self.limit;
        if go {
            self.passes += 1;
        }
        go
    }
}

/// Runs `setup` [`SETUPS`] times (once when traced) and returns the last
/// result with the median set-up time in seconds, each set-up's wall time
/// scaled to the reference host speed.
pub fn timed_setups<T>(
    config: &Config,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    let mut speed = HostSpeed::default();
    let setups = if config.trace { 1 } else { SETUPS };
    for _ in 0..setups {
        let started = Instant::now();
        let value = setup()?;
        let wall = started.elapsed().as_secs_f64();
        times.push(wall * speed.factor());
        last = Some(value);
    }
    Ok((
        last.expect("at least one set-up ran"),
        median_f64(&mut times),
    ))
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds the calling thread has run on a CPU. The kernel leaves out
/// the time the hypervisor gave the CPU to another guest ("steal").
///
/// Single-threaded work is timed with this clock: on a shared virtual
/// machine the wall clock also counts time the host took the CPU away.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // of 64-bit Linux, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID exists on Linux");
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Keys the [`HostSpeed`] kernel sorts and searches.
const KERNEL_KEYS: usize = 32_768;

/// Blocks the [`HostSpeed`] kernel allocates and frees.
const KERNEL_BLOCKS: usize = 16_384;

/// The [`HostSpeed`] kernel's thread CPU time at the reference speed, in
/// nanoseconds: a round figure within the range it took on the 2-vCPU
/// x86-64 VM the bounds were set on (2.6 to 4.6 ms as that host's speed
/// drifted).
pub const REFERENCE_KERNEL_NS: f64 = 4_000_000.0;

/// A fixed CPU kernel that measures how fast the host runs at the moment.
///
/// A shared virtual machine's speed drifts by up to 1.8× within minutes
/// and by a quarter within seconds, even in thread CPU time. The kernel
/// runs right after each timed pass (set-up, loop round), and that pass's
/// times are scaled by [`REFERENCE_KERNEL_NS`] ÷ the kernel's time, so they
/// read as if the host had run at the reference speed.
///
/// The kernel mirrors the two kinds of work the benchmark times. It sorts
/// and binary-searches a fixed set of keys (compute and branches, as in the
/// VM), then allocates, touches and frees many small blocks through the
/// system allocator in a scattered order (allocation and pointer chasing,
/// as in compiling and optimizing). It calls nothing in the program under
/// test and bypasses the counting allocator, so a change to the program
/// moves the scaled times as it would move them unscaled.
pub struct HostSpeed {
    keys: Vec<u64>,
    blocks: Vec<(*mut u8, Layout)>,
    factors: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        HostSpeed {
            keys: vec![0; KERNEL_KEYS],
            blocks: Vec::with_capacity(KERNEL_BLOCKS),
            factors: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// Runs the kernel once and returns the factor that scales a thread
    /// CPU time measured just before to the reference speed.
    pub fn factor(&mut self) -> f64 {
        let started = thread_cpu_ns();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for k in &mut self.keys {
            *k = next();
        }
        std::hint::black_box(&mut self.keys).sort_unstable();
        let mut found = 0u64;
        for k in 0..KERNEL_KEYS as u64 {
            let probe = k.wrapping_mul(0x2545_F491_4F6C_DD1D);
            found += u64::from(self.keys.binary_search(&probe).is_ok());
        }
        for i in 0..KERNEL_BLOCKS {
            let layout = Layout::from_size_align(16 + (next() % 112) as usize, 8)
                .expect("a small power-of-two alignment");
            // SAFETY: `layout` has a non-zero size.
            let block = unsafe { System.alloc(layout) };
            assert!(!block.is_null(), "out of memory");
            // SAFETY: `block` is a fresh allocation of `layout.size()` bytes.
            unsafe { block.write_bytes(i as u8, layout.size()) };
            self.blocks.push((block, layout));
        }
        // 7,919 is prime, so the stride visits every block once.
        for j in 0..KERNEL_BLOCKS {
            let (block, layout) = self.blocks[j * 7_919 % KERNEL_BLOCKS];
            // SAFETY: every block is live and `layout.size()` bytes long.
            found += u64::from(unsafe { *block.add(layout.size() - 1) });
        }
        for j in 0..KERNEL_BLOCKS {
            let (block, layout) = self.blocks[j * 7_919 % KERNEL_BLOCKS];
            // SAFETY: `block` came from `System.alloc(layout)` and is freed
            // exactly once.
            unsafe { System.dealloc(block, layout) };
        }
        self.blocks.clear();
        std::hint::black_box(found);
        let f = REFERENCE_KERNEL_NS / (thread_cpu_ns() - started).max(1) as f64;
        self.factors.push(f);
        f
    }

    /// The median factor so far: the host's speed relative to the
    /// reference, for the run's notes.
    pub fn median(&self) -> f64 {
        median_f64(&mut self.factors.clone())
    }
}

/// `ns` scaled by a [`HostSpeed`] factor.
pub fn scaled(ns: u64, factor: f64) -> u64 {
    (ns as f64 * factor).round() as u64
}

/// The median of `values` (sorted in place).
pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile of nanosecond samples, in milliseconds.
pub fn percentile_ms(samples_ns: &mut [u64], p: f64) -> f64 {
    samples_ns.sort_unstable();
    abcd_loadgen::percentile(samples_ns, p) as f64 / 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-program dynamic statistics: (ABCD off, ABCD on).
pub type StatsPair = (abcd_vm::ExecStats, abcd_vm::ExecStats);

/// The Figure 6 measure: the mean over programs of the share of dynamic
/// upper-bound checks removed, in percent. Programs that executed no upper
/// check are left out.
pub fn dyn_checks_removed_pct(pairs: &[StatsPair]) -> f64 {
    let shares: Vec<f64> = pairs
        .iter()
        .filter(|(base, _)| base.dynamic_upper_checks() > 0)
        .map(|(base, opt)| {
            1.0 - opt.dynamic_upper_checks() as f64 / base.dynamic_upper_checks() as f64
        })
        .collect();
    100.0 * shares.iter().sum::<f64>() / shares.len().max(1) as f64
}

/// The geometric mean over programs of model cycles, ABCD off ÷ on.
pub fn cycles_speedup(pairs: &[StatsPair]) -> f64 {
    let logs: Vec<f64> = pairs
        .iter()
        .filter(|(base, opt)| base.cycles > 0 && opt.cycles > 0)
        .map(|(base, opt)| (base.cycles as f64 / opt.cycles as f64).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// (removed fully + hoisted) ÷ total static checks, in percent.
pub fn static_removed_pct(reports: &[&abcd::ModuleReport]) -> f64 {
    let total: usize = reports.iter().map(|r| r.checks_total()).sum();
    let removed: usize = reports
        .iter()
        .map(|r| r.checks_removed_fully() + r.checks_hoisted())
        .sum();
    100.0 * removed as f64 / total.max(1) as f64
}

/// The options the unoptimized baseline compiles with: the host
/// compiler's basic cleanup, every bounds check kept (the paper's §8
/// baseline, as in `abcd_bench::evaluate`).
pub fn baseline_options() -> abcd::OptimizerOptions {
    abcd::OptimizerOptions {
        upper: false,
        lower: false,
        pre: false,
        merge_checks: false,
        ..abcd::OptimizerOptions::default()
    }
}

/// Instructions in every block of every function of `module`.
pub fn inst_count(module: &abcd_ir::Module) -> u64 {
    module
        .functions()
        .map(|(_, f)| {
            f.blocks()
                .map(|b| f.block(b).insts().len() as u64)
                .sum::<u64>()
        })
        .sum()
}

/// Compiles MJ source in two traced steps, `frontend.parse` and
/// `frontend.lower` (together exactly `abcd_frontend::compile`).
pub fn compile(t: &mut trace::Tracer, source: &str) -> Result<abcd_ir::Module, String> {
    let ast = t
        .span("frontend.parse", |_| abcd_frontend::parse(source))
        .map_err(|e| format!("parse: {e}"))?;
    t.span("frontend.lower", |_| abcd_frontend::lower(&ast))
        .map_err(|e| format!("lower: {e}"))
}

/// Accumulated per-layer measurements of a traced run, turned into the
/// per-layer metrics by [`Layers::report`].
#[derive(Default)]
pub struct Layers {
    /// Timed passes the span totals cover.
    pub passes: u64,
    /// Operations in the counted pass; counters are reported per
    /// operation when this is above 1.
    pub per_pass: f64,
    /// The replay's own work counters for one pass.
    pub counts: replay::Counts,
    /// The driver's work counters for one pass.
    pub driver: DriverCounts,
    /// Instructions the front end produced in one pass.
    pub insts_out: u64,
    /// Bytes of optimized IR printed in one pass.
    pub bytes_out: u64,
    /// Cache counters of one pass.
    pub cache: abcd::CacheStats,
    /// VM statistics of one pass.
    pub vm: abcd_vm::ExecStats,
    /// Functions whose replayed output differed from the driver's.
    pub replay_diverged: u64,
    /// Server round trips, nanoseconds.
    pub rtt_ns: Vec<u64>,
    /// Round trip minus in-process time, p50, milliseconds.
    pub server_overhead_ms: f64,
    /// `stats` counter deltas: steals, shed, queued replies.
    pub server: (u64, u64, u64),
    /// Process allocations per request of the traced closed loop, clients
    /// and server together.
    pub server_allocs: f64,
    /// Traced e2e time ÷ untraced e2e time − 1, in percent.
    pub trace_overhead_pct: f64,
}

impl Layers {
    /// Adds one module's replay: its counters, the front end's output size,
    /// the printed output size and any function the replay got wrong.
    pub fn add_replay(
        &mut self,
        input: &abcd_ir::Module,
        optimized: &abcd_ir::Module,
        replayed: &abcd_ir::Module,
        text: &str,
        counts: &replay::Counts,
    ) {
        self.counts.add(counts);
        self.insts_out += inst_count(input);
        self.bytes_out += text.len() as u64;
        self.replay_diverged += replayed
            .functions()
            .zip(optimized.functions())
            .filter(|((_, a), (_, b))| a.to_string() != b.to_string())
            .count() as u64;
    }

    /// Adds the work the driver's report returns for the functions it
    /// analyzed; functions replayed from the cache did none.
    pub fn add_driver(&mut self, report: &abcd::ModuleReport) {
        let d = &mut self.driver;
        for f in report.functions.iter().filter(|f| !f.from_cache) {
            let m = &f.metrics;
            d.insts_removed += (f.cleanup.value_numbered + f.cleanup.dce_removed) as u64;
            d.vertices += (m.upper_vertices + m.lower_vertices) as u64;
            d.edges += (m.upper_edges + m.lower_edges) as u64;
            d.checks_analyzed += f.checks_analyzed() as u64;
            d.steps += f.steps;
            d.memo_hits += m.memo_hits;
            d.memo_misses += m.memo_misses;
            d.pre_steps += f.pre_steps;
            d.hoisted += f.hoisted() as u64;
        }
    }

    /// Adds one VM run's statistics.
    pub fn add_vm(&mut self, stats: &abcd_vm::ExecStats) {
        let vm = &mut self.vm;
        vm.insts += stats.insts;
        vm.cycles += stats.cycles;
        vm.trap_tests += stats.trap_tests;
        for k in 0..3 {
            vm.checks[k] += stats.checks[k];
            vm.spec_checks[k] += stats.spec_checks[k];
        }
    }

    /// Every per-layer metric, from span totals over `self.passes` passes
    /// (`all`) and one counted pass (`one`).
    pub fn report(&self, all: &trace::Tracer, one: &trace::Tracer, out: &mut Report) {
        let passes = self.passes.max(1) as f64;
        let per = self.per_pass.max(1.0);
        let ms = |name: &str| all.get(name).self_ns as f64 / 1e6 / passes;
        let allocs = |layer: &str| one.layer(layer).self_allocs as f64 / per;
        let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        let count = |n: u64| n as f64 / per;
        let c = &self.counts;
        let d = &self.driver;

        out.push("frontend.parse_ms", ms("frontend.parse"), "ms");
        out.push("frontend.lower_ms", ms("frontend.lower"), "ms");
        out.push("frontend.insts_out", count(self.insts_out), "count");
        out.push("frontend.allocs", allocs("frontend"), "count");

        out.push("ssa.mem2reg_ms", ms("ssa.mem2reg"), "ms");
        out.push("ssa.essa_ms", ms("ssa.essa"), "ms");
        out.push("ssa.pis", count(c.pis), "count");
        out.push("ssa.allocs", allocs("ssa"), "count");

        out.push("analysis.cleanup_ms", ms("analysis.cleanup"), "ms");
        out.push("analysis.insts_removed", count(d.insts_removed), "count");
        out.push("analysis.allocs", allocs("analysis"), "count");

        out.push("graph.build_ms", ms("graph.build"), "ms");
        out.push("graph.vertices", count(d.vertices), "count");
        out.push("graph.edges", count(d.edges), "count");
        out.push("graph.allocs", allocs("graph"), "count");

        out.push("solver.prove_ms", ms("solver.prove"), "ms");
        out.push("solver.steps", count(d.steps), "count");
        out.push(
            "solver.steps_per_check",
            ratio(d.steps, d.checks_analyzed),
            "steps/check",
        );
        out.push(
            "solver.memo_hit_rate",
            ratio(d.memo_hits, d.memo_hits + d.memo_misses),
            "ratio",
        );
        out.push("solver.proven_ratio", ratio(c.proven, c.queries), "ratio");
        out.push("solver.allocs", allocs("solver"), "count");

        out.push("pre.ms", ms("pre.prove") + ms("pre.apply"), "ms");
        out.push("pre.steps", count(d.pre_steps), "count");
        out.push("pre.hoisted", count(d.hoisted), "count");
        out.push("pre.allocs", allocs("pre"), "count");

        out.push("ir.canon_ms", ms("ir.canon"), "ms");
        out.push("ir.print_ms", ms("ir.print"), "ms");
        out.push("ir.parse_ms", ms("ir.parse"), "ms");
        out.push("ir.bytes_out", count(self.bytes_out), "bytes");
        out.push("ir.allocs", allocs("ir"), "count");

        out.push(
            "cache.lookup_ms",
            ms("cache.key") + ms("cache.lookup"),
            "ms",
        );
        out.push("cache.insert_ms", ms("cache.insert"), "ms");
        out.push("cache.hits", count(self.cache.hits), "count");
        out.push("cache.misses", count(self.cache.misses), "count");
        out.push("cache.stores", count(self.cache.stores), "count");
        out.push("cache.evictions", count(self.cache.evictions), "count");
        out.push(
            "cache.hit_ratio",
            ratio(self.cache.hits, self.cache.hits + self.cache.misses),
            "ratio",
        );
        out.push("cache.allocs", allocs("cache"), "count");

        // The replayed layers that run inside `optimize_module`.
        let replayed: f64 = [
            "ssa.mem2reg",
            "ssa.essa",
            "analysis.cleanup",
            "graph.build",
            "solver.prove",
            "pre.prove",
            "pre.apply",
            "ir.canon",
            "ir.parse",
            "cache.key",
            "cache.lookup",
            "cache.insert",
        ]
        .iter()
        .map(|n| ms(n))
        .sum();
        let optimize_ms = all.get("driver.optimize").total_ns as f64 / 1e6 / passes;
        out.push("driver.optimize_ms", optimize_ms, "ms");
        out.push("driver.unattributed_ms", optimize_ms - replayed, "ms");
        out.push(
            "driver.replay_diverged",
            count(self.replay_diverged),
            "count",
        );
        out.push("driver.allocs", allocs("driver"), "count");

        out.push("vm.run_ms", ms("vm.run"), "ms");
        out.push("vm.insts", count(self.vm.insts), "count");
        out.push(
            "vm.dyn_checks",
            count(self.vm.dynamic_checks_total()),
            "count",
        );
        out.push("vm.cycles", count(self.vm.cycles), "count");
        out.push("vm.allocs", allocs("vm"), "count");

        let mut rtt = self.rtt_ns.clone();
        out.push("server.rtt_ms_p50", percentile_ms(&mut rtt, 50.0), "ms");
        out.push("server.overhead_ms_p50", self.server_overhead_ms, "ms");
        out.push("server.steals", self.server.0 as f64, "count");
        out.push("server.shed", self.server.1 as f64, "count");
        out.push("server.queued_replies", self.server.2 as f64, "count");
        out.push("server.allocs", self.server_allocs, "count");

        out.push("trace.overhead_pct", self.trace_overhead_pct, "%");
    }
}

/// Work counters from the driver's `FunctionReport`s, summed over one pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverCounts {
    /// Instructions removed by value numbering and DCE (`CleanupStats`).
    pub insts_removed: u64,
    /// Vertices of the upper and lower inequality graphs.
    pub vertices: u64,
    /// Edges of the upper and lower inequality graphs.
    pub edges: u64,
    /// Checks the solver analyzed.
    pub checks_analyzed: u64,
    /// Solver steps (the paper's analysis steps).
    pub steps: u64,
    /// Demand-prover memo hits.
    pub memo_hits: u64,
    /// Demand-prover memo misses.
    pub memo_misses: u64,
    /// PRE prover steps.
    pub pre_steps: u64,
    /// Checks hoisted by PRE.
    pub hoisted: u64,
}

/// The end-to-end metrics every workload reports, in order.
#[derive(Default)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Functions optimized.
    pub opt_functions: u64,
    /// Per-module source → optimized IR text, nanoseconds at the reference
    /// host speed.
    pub opt_ns: Vec<u64>,
    /// VM time per pass, nanoseconds at the reference host speed.
    pub run_pass_ns: Vec<u64>,
    /// Per-operation latency, nanoseconds: at the reference host speed for
    /// single-threaded workloads, wall time for the closed loop.
    pub req_ns: Vec<u64>,
    /// Time the operations took together: wall time for the concurrent
    /// closed loop, thread CPU time for single-threaded workloads.
    pub req_wall: Duration,
    /// Dynamic statistics per program, ABCD off and on.
    pub stats: Vec<StatsPair>,
    /// Static removal share, percent.
    pub static_removed_pct: f64,
}

impl EndToEnd {
    /// Adds one pass's single-threaded samples, scaled to the reference
    /// host speed by `speed.factor()`, which runs right after the pass.
    pub fn add_pass(&mut self, speed: &mut HostSpeed, opt_ns: &[u64], run_ns: u64, req_ns: &[u64]) {
        let f = speed.factor();
        self.opt_ns.extend(opt_ns.iter().map(|&ns| scaled(ns, f)));
        self.run_pass_ns.push(scaled(run_ns, f));
        self.req_ns.extend(req_ns.iter().map(|&ns| scaled(ns, f)));
    }

    /// Appends the end-to-end metrics and their sample counts.
    pub fn report(mut self, out: &mut Report) {
        let ok_pct = 100.0 * (out.attempted - out.failed.min(out.attempted)) as f64
            / out.attempted.max(1) as f64;
        let opt_total_s = self.opt_ns.iter().sum::<u64>() as f64 / 1e9;
        out.push("setup_s", self.setup_s, "s");
        out.push("ok_pct", ok_pct, "%");
        out.push(
            "opt_fn_per_s",
            self.opt_functions as f64 / opt_total_s.max(1e-9),
            "functions/s",
        );
        out.push("opt_ms_p50", percentile_ms(&mut self.opt_ns, 50.0), "ms");
        out.push("opt_ms_p90", percentile_ms(&mut self.opt_ns, 90.0), "ms");
        out.push("run_ms", percentile_ms(&mut self.run_pass_ns, 50.0), "ms");
        out.push(
            "dyn_checks_removed_pct",
            dyn_checks_removed_pct(&self.stats),
            "%",
        );
        out.push("cycles_speedup", cycles_speedup(&self.stats), "ratio");
        out.push("static_removed_pct", self.static_removed_pct, "%");
        out.push("peak_rss_mb", peak_rss_mb(), "MiB");
        out.push(
            "req_per_s",
            self.req_ns.len() as f64 / self.req_wall.as_secs_f64().max(1e-9),
            "req/s",
        );
        out.push("req_ms_p50", percentile_ms(&mut self.req_ns, 50.0), "ms");
        out.push("req_ms_p99", percentile_ms(&mut self.req_ns, 99.0), "ms");
        out.notes.push(format!("opt_samples={}", self.opt_ns.len()));
        out.notes
            .push(format!("run_passes={}", self.run_pass_ns.len()));
        out.notes.push(format!("req_samples={}", self.req_ns.len()));
    }
}

/// Median traced ÷ median untraced − 1, in percent.
pub fn overhead_pct(untraced_ns: &mut [u64], traced_ns: &mut [u64]) -> f64 {
    let base = percentile_ms(untraced_ns, 50.0);
    let traced = percentile_ms(traced_ns, 50.0);
    100.0 * (traced - base) / base.max(1e-9)
}

/// A digest of optimized outputs, for comparing runs byte for byte.
pub fn digest(texts: &[String]) -> u64 {
    texts.iter().fold(0, |h, text| {
        h.rotate_left(7) ^ abcd::cache::fnv1a64(text.as_bytes())
    })
}

/// The traced protocol of the single-threaded workloads.
///
/// The first half of the budget runs passes untraced, for the baseline of
/// `trace.overhead_pct`. Then, traced: one warm-up pass, one counted pass
/// whose counters are reported (so they repeat exactly), and more passes
/// for the rest of the budget. `pass` returns its end-to-end time in
/// nanoseconds, replay excluded.
pub fn traced(
    config: &Config,
    report: &mut Report,
    mut pass: impl FnMut(&mut trace::Tracer, &mut Report, Option<&mut Layers>) -> u64,
) {
    let half = config.seconds / 2.0;
    let mut off = trace::Tracer::new(false);
    let mut untraced = Vec::new();
    let mut budget = Budget::new(half, MIN_PASSES);
    while budget.next_pass() {
        untraced.push(pass(&mut off, report, None));
    }
    let mut t = trace::Tracer::new(true);
    pass(&mut t, report, None);
    let start = t.totals();
    let mut layers = Layers::default();
    let mut traced = vec![pass(&mut t, report, Some(&mut layers))];
    let one = t.since(&start);
    let mut budget = Budget::new(half, MIN_PASSES - 1);
    while budget.next_pass() {
        traced.push(pass(&mut t, report, None));
    }
    layers.passes = traced.len() as u64;
    layers.trace_overhead_pct = overhead_pct(&mut untraced, &mut traced);
    layers.report(&t.since(&start), &one, report);
    report.notes.push(format!("traced_passes={}", traced.len()));
    report.spans = Some(t);
}
