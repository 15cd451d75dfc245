//! Deterministic, seeded fault injection for the fail-open pipeline.
//!
//! A [`FaultPlan`] names failures to force on demand — a pass panic, solver
//! budget exhaustion, or an inequality-graph edge perturbation — so the test
//! suite (and `mjc --fault-plan`) can prove that every single-fault scenario
//! degrades to "keep the bounds check" instead of crashing or miscompiling.
//!
//! Everything is keyed by *function name*, never by thread or wall clock, so
//! an injected fault fires identically under `--jobs N` and sequentially:
//! the parallel driver stays byte-identical to the sequential one even while
//! being sabotaged.
//!
//! # Plan syntax
//!
//! A plan is a comma- or semicolon-separated list of faults:
//!
//! ```text
//! panic:FUNC:PASS    panic at the start of pipeline pass PASS in FUNC
//! fuel:FUNC          force solver budget exhaustion for every check in FUNC
//! edge:FUNC:SEED     deterministically perturb one inequality-graph edge
//! ```
//!
//! `FUNC` may be `*` to match every function. `PASS` is the name of a
//! [`Stage`] the driver runs, from `split_critical_edges` through
//! `canonicalize`; any other name is a parse error.
//!
//! # Service-layer chaos
//!
//! A [`ChaosPlan`] extends the same philosophy — seeded, name-keyed,
//! deterministic — from the compiler into the `abcdd` service layer: worker
//! panics, disk-cache I/O failures (short write, corrupt-on-write, ENOSPC),
//! partial/slow response frames, and mid-request disconnects. Each injection
//! site draws from SplitMix64 keyed by `seed ^ fnv1a(site) ^ sequence`, so a
//! given (plan, site, nth-visit) triple always makes the same call — chaos
//! schedules replay exactly, which is what lets the soak test assert
//! byte-level differential correctness *under* the storm.
//!
//! # Chaos plan syntax
//!
//! A comma- or semicolon-separated list of `key:value` fields. `seed:N`
//! seeds the schedule; every other key names an injection site with a
//! per-mille firing rate (0..=1000):
//!
//! ```text
//! seed:42,worker_panic:50,disk_short:30,disk_corrupt:30,disk_full:20,
//! frame_truncate:40,frame_slow:40,disconnect:50
//! ```

use crate::cache::fnv1a64;
use crate::graph::InequalityGraph;
use crate::stage::Stage;
use abcd_ir::SplitMix64;
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// One injected fault.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Panic when the named pipeline pass starts on a matching function.
    PassPanic {
        /// Function name, or `*` for all functions.
        function: String,
        /// The stage to panic in.
        pass: Stage,
    },
    /// Treat every solver query of a matching function as budget-exhausted:
    /// the driver keeps all of its checks and records incidents.
    ExhaustFuel {
        /// Function name, or `*` for all functions.
        function: String,
    },
    /// Deterministically perturb one edge weight of the matching function's
    /// inequality graphs — simulating a constraint-system corruption the
    /// translation-validation pass must catch.
    PerturbEdge {
        /// Function name, or `*` for all functions.
        function: String,
        /// Seed for the deterministic edge choice.
        seed: u64,
    },
}

impl Fault {
    fn matches(target: &str, function: &str) -> bool {
        target == "*" || target == function
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::PassPanic { function, pass } => write!(f, "panic:{function}:{pass}"),
            Fault::ExhaustFuel { function } => write!(f, "fuel:{function}"),
            Fault::PerturbEdge { function, seed } => write!(f, "edge:{function}:{seed}"),
        }
    }
}

/// A deterministic fault-injection plan, threaded into the driver via
/// [`Optimizer::with_fault_plan`](crate::Optimizer::with_fault_plan).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    /// The faults to inject.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Parses the CLI plan syntax (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for part in spec
            .split([',', ';'])
            .map(str::trim)
            .filter(|p| !p.is_empty())
        {
            let mut fields = part.split(':');
            let kind = fields.next().unwrap_or("");
            let function = fields
                .next()
                .ok_or_else(|| format!("`{part}`: missing function (use `*` for all)"))?
                .to_string();
            match kind {
                "panic" => {
                    let pass: Stage = fields
                        .next()
                        .ok_or_else(|| format!("`{part}`: panic fault needs a pass name"))?
                        .parse()
                        .map_err(|e| format!("`{part}`: {e}"))?;
                    if pass < Stage::SplitCriticalEdges {
                        return Err(format!("`{part}`: the optimizer does not run `{pass}`"));
                    }
                    faults.push(Fault::PassPanic { function, pass });
                }
                "fuel" => faults.push(Fault::ExhaustFuel { function }),
                "edge" => {
                    let seed = fields
                        .next()
                        .ok_or_else(|| format!("`{part}`: edge fault needs a seed"))?
                        .parse()
                        .map_err(|_| format!("`{part}`: edge seed must be an integer"))?;
                    faults.push(Fault::PerturbEdge { function, seed });
                }
                other => {
                    return Err(format!(
                        "unknown fault kind `{other}` (expected panic|fuel|edge)"
                    ))
                }
            }
            if fields.next().is_some() {
                return Err(format!("`{part}`: trailing fields"));
            }
        }
        Ok(FaultPlan { faults })
    }

    /// Panics if the plan demands a pass panic for `(function, pass)`.
    /// Called by the driver at every stage boundary; the panic is caught by
    /// the per-function isolation layer.
    pub(crate) fn maybe_panic(&self, function: &str, pass: Stage) {
        for f in &self.faults {
            if let Fault::PassPanic {
                function: target,
                pass: p,
            } = f
            {
                if Fault::matches(target, function) && *p == pass {
                    panic!("injected fault: pass `{pass}` in `{function}`");
                }
            }
        }
    }

    /// Does the plan force budget exhaustion for `function`?
    pub(crate) fn exhausts_fuel(&self, function: &str) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::ExhaustFuel { function: target } if Fault::matches(target, function))
        })
    }

    /// Applies any matching edge perturbation to `function`'s graphs.
    /// Deterministic: the perturbed edge depends only on the seed, the
    /// function name, and the graph shape.
    pub(crate) fn perturb_graphs(
        &self,
        function: &str,
        upper: &mut InequalityGraph,
        lower: &mut InequalityGraph,
    ) {
        for f in &self.faults {
            if let Fault::PerturbEdge {
                function: target,
                seed,
            } = f
            {
                if Fault::matches(target, function) {
                    let mut rng = SplitMix64::new(*seed ^ fnv1a64(function.as_bytes()));
                    // Perturb whichever graph the draw lands on; the edge is
                    // strengthened (see `perturb_random_edge`), which is the
                    // dangerous direction — proofs get easier, so a wrong
                    // elimination becomes possible and the validation layer
                    // must catch it.
                    let g = if rng.next_u64().is_multiple_of(2) {
                        &mut *upper
                    } else {
                        &mut *lower
                    };
                    g.perturb_random_edge(&mut rng, 8);
                }
            }
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// One service-layer chaos injection site. Sites are identified by stable
/// snake_case names (the plan-syntax keys), which also key the per-site
/// random streams — adding a site never re-shuffles the others' schedules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosSite {
    /// Panic inside a worker thread while it holds a request.
    WorkerPanic,
    /// Persist a truncated disk-cache temp file and skip the rename —
    /// exactly the on-disk state a `kill -9` mid-write leaves behind.
    DiskShortWrite,
    /// Flip a byte of a disk-cache entry after it is published, so the
    /// checksum quarantine path must catch it on the next lookup.
    DiskCorrupt,
    /// Fail the disk-cache store as if the volume were full (ENOSPC).
    DiskFull,
    /// Send a truncated response frame (header + partial payload), then
    /// close the connection.
    FrameTruncate,
    /// Dribble the response frame out in small chunks with delays.
    FrameSlow,
    /// Drop the client connection before reading its request.
    Disconnect,
}

/// All chaos sites, in plan-syntax order (stats and expositions iterate
/// this to render per-site injection counters deterministically).
pub const CHAOS_SITES: [ChaosSite; 7] = [
    ChaosSite::WorkerPanic,
    ChaosSite::DiskShortWrite,
    ChaosSite::DiskCorrupt,
    ChaosSite::DiskFull,
    ChaosSite::FrameTruncate,
    ChaosSite::FrameSlow,
    ChaosSite::Disconnect,
];

impl ChaosSite {
    /// The stable plan-syntax key (also the RNG stream key).
    pub fn name(self) -> &'static str {
        match self {
            ChaosSite::WorkerPanic => "worker_panic",
            ChaosSite::DiskShortWrite => "disk_short",
            ChaosSite::DiskCorrupt => "disk_corrupt",
            ChaosSite::DiskFull => "disk_full",
            ChaosSite::FrameTruncate => "frame_truncate",
            ChaosSite::FrameSlow => "frame_slow",
            ChaosSite::Disconnect => "disconnect",
        }
    }

    fn index(self) -> usize {
        CHAOS_SITES.iter().position(|s| *s == self).unwrap()
    }

    fn parse(key: &str) -> Option<ChaosSite> {
        CHAOS_SITES.iter().copied().find(|s| s.name() == key)
    }
}

/// A seeded service-layer chaos schedule for `abcdd`.
///
/// Deterministic in the same sense as [`FaultPlan`]: whether the nth visit
/// to a site injects depends only on `(seed, site, n)`, never on threads or
/// wall clock. Visit order across *sites* can vary with scheduling, but each
/// site's own decision stream is fixed, so aggregate behavior (roughly
/// `rate`‰ of visits fire) and any single-threaded replay are exact.
///
/// The plan is shared (`Arc`) between the server's workers and the cache's
/// disk tier; interior atomics carry the per-site sequence numbers and
/// injection counters.
#[derive(Debug, Default)]
pub struct ChaosPlan {
    seed: u64,
    /// Per-site firing rate in per-mille (0..=1000).
    rates: [u16; CHAOS_SITES.len()],
    /// Per-site visit sequence numbers (the RNG stream position).
    seqs: [AtomicU64; CHAOS_SITES.len()],
    /// Per-site count of injections actually fired.
    injected: [AtomicU64; CHAOS_SITES.len()],
}

impl ChaosPlan {
    /// Parses the chaos plan syntax (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown sites, out-of-range
    /// rates, or malformed fields.
    pub fn parse(spec: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::default();
        for part in spec
            .split([',', ';'])
            .map(str::trim)
            .filter(|p| !p.is_empty())
        {
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| format!("`{part}`: expected key:value"))?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("`{part}`: value must be an integer"))?;
            match key.trim() {
                "seed" => plan.seed = value,
                key => {
                    let site = ChaosSite::parse(key).ok_or_else(|| {
                        format!(
                            "unknown chaos site `{key}` (expected seed|{})",
                            CHAOS_SITES.map(ChaosSite::name).join("|")
                        )
                    })?;
                    if value > 1000 {
                        return Err(format!("`{part}`: rate is per-mille, max 1000"));
                    }
                    plan.rates[site.index()] = value as u16;
                }
            }
        }
        Ok(plan)
    }

    /// Does any site have a nonzero rate? (An unarmed plan is a no-op and
    /// lets callers skip the atomics entirely.)
    pub fn is_armed(&self) -> bool {
        self.rates.iter().any(|&r| r > 0)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draws the next decision for `site`: `true` means inject. Advances
    /// the site's sequence number and, on injection, its fired counter.
    pub fn decide(&self, site: ChaosSite) -> bool {
        let i = site.index();
        let rate = self.rates[i];
        if rate == 0 {
            return false;
        }
        let seq = self.seqs[i].fetch_add(1, Ordering::Relaxed);
        let draw = SplitMix64::new(self.seed ^ fnv1a64(site.name().as_bytes()) ^ seq).next_u64();
        let fire = draw % 1000 < u64::from(rate);
        if fire {
            self.injected[i].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Like [`decide`](Self::decide), but also returns a per-injection seed
    /// derived from the same draw position — for sites that need further
    /// deterministic choices (which byte to corrupt, chunk sizes, ...).
    pub fn decide_seeded(&self, site: ChaosSite) -> Option<u64> {
        let i = site.index();
        let rate = self.rates[i];
        if rate == 0 {
            return None;
        }
        let seq = self.seqs[i].fetch_add(1, Ordering::Relaxed);
        let mut rng = SplitMix64::new(self.seed ^ fnv1a64(site.name().as_bytes()) ^ seq);
        if rng.next_u64() % 1000 < u64::from(rate) {
            self.injected[i].fetch_add(1, Ordering::Relaxed);
            Some(rng.next_u64())
        } else {
            None
        }
    }

    /// How many times `site` has actually injected so far.
    pub fn injected(&self, site: ChaosSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Total injections across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed:{}", self.seed)?;
        for site in CHAOS_SITES {
            let rate = self.rates[site.index()];
            if rate > 0 {
                write!(f, ",{}:{rate}", site.name())?;
            }
        }
        Ok(())
    }
}

thread_local! {
    /// The pipeline stage currently running on this worker thread, read by
    /// the isolation layer when a stage panics. Thread-local because each
    /// scoped worker owns exactly one function at a time.
    static CURRENT_PASS: Cell<Stage> = const { Cell::new(Stage::SplitCriticalEdges) };
}

/// Publishes the stage now running (driver stage boundaries).
pub(crate) fn set_current_pass(stage: Stage) {
    CURRENT_PASS.with(|c| c.set(stage));
}

/// The stage that was running when a panic unwound (same thread).
pub(crate) fn current_pass() -> Stage {
    CURRENT_PASS.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips() {
        let plan = FaultPlan::parse("panic:f:cleanup, fuel:* ; edge:g:42").unwrap();
        assert_eq!(plan.faults.len(), 3);
        assert_eq!(plan.to_string(), "panic:f:cleanup,fuel:*,edge:g:42");
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(FaultPlan::parse("panic:f").is_err());
        assert!(FaultPlan::parse("edge:f:notanumber").is_err());
        assert!(FaultPlan::parse("meteor:f").is_err());
        assert!(FaultPlan::parse("fuel:f:extra").is_err());
        assert!(FaultPlan::parse("panic:main:sovle").is_err());
        assert!(FaultPlan::parse("panic:main:parse").is_err());
        assert!(FaultPlan::parse("").unwrap().faults.is_empty());
    }

    #[test]
    fn matching_honors_wildcard() {
        let plan = FaultPlan::parse("fuel:*").unwrap();
        assert!(plan.exhausts_fuel("anything"));
        let plan = FaultPlan::parse("fuel:f").unwrap();
        assert!(plan.exhausts_fuel("f"));
        assert!(!plan.exhausts_fuel("g"));
    }

    #[test]
    fn injected_panic_fires_only_on_match() {
        let plan = FaultPlan::parse("panic:f:cleanup").unwrap();
        plan.maybe_panic("f", Stage::Transform); // no panic
        plan.maybe_panic("g", Stage::Cleanup); // no panic
        let err = std::panic::catch_unwind(|| plan.maybe_panic("f", Stage::Cleanup));
        assert!(err.is_err());
    }

    #[test]
    fn chaos_parse_roundtrips() {
        let plan =
            ChaosPlan::parse("seed:42, worker_panic:50; disk_short:30,disconnect:1000").unwrap();
        assert_eq!(plan.seed(), 42);
        assert!(plan.is_armed());
        assert_eq!(
            plan.to_string(),
            "seed:42,worker_panic:50,disk_short:30,disconnect:1000"
        );
        let reparsed = ChaosPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(reparsed.to_string(), plan.to_string());
    }

    #[test]
    fn chaos_parse_rejects_malformed() {
        assert!(ChaosPlan::parse("meteor:5").is_err());
        assert!(ChaosPlan::parse("worker_panic").is_err());
        assert!(ChaosPlan::parse("worker_panic:x").is_err());
        assert!(ChaosPlan::parse("worker_panic:1001").is_err());
        assert!(!ChaosPlan::parse("").unwrap().is_armed());
        assert!(!ChaosPlan::parse("seed:9").unwrap().is_armed());
    }

    #[test]
    fn chaos_decisions_are_deterministic_per_site_sequence() {
        let a = ChaosPlan::parse("seed:7,worker_panic:500,disconnect:500").unwrap();
        let b = ChaosPlan::parse("seed:7,worker_panic:500,disconnect:500").unwrap();
        let draws_a: Vec<bool> = (0..64).map(|_| a.decide(ChaosSite::WorkerPanic)).collect();
        let draws_b: Vec<bool> = (0..64).map(|_| b.decide(ChaosSite::WorkerPanic)).collect();
        assert_eq!(draws_a, draws_b);
        // Streams are keyed by site name: a different site at the same
        // sequence positions draws a different schedule.
        let other: Vec<bool> = (0..64).map(|_| b.decide(ChaosSite::Disconnect)).collect();
        assert_ne!(draws_b, other);
        // Injection counters track fired decisions exactly.
        let fired = draws_a.iter().filter(|f| **f).count() as u64;
        assert_eq!(a.injected(ChaosSite::WorkerPanic), fired);
        assert!(fired > 0, "500‰ over 64 draws should fire at least once");
    }

    #[test]
    fn chaos_zero_rate_site_never_fires_or_counts() {
        let plan = ChaosPlan::parse("seed:3,worker_panic:1000").unwrap();
        for _ in 0..32 {
            assert!(!plan.decide(ChaosSite::DiskFull));
            assert!(plan.decide(ChaosSite::WorkerPanic));
        }
        assert_eq!(plan.injected(ChaosSite::DiskFull), 0);
        assert_eq!(plan.injected(ChaosSite::WorkerPanic), 32);
        assert_eq!(plan.total_injected(), 32);
    }

    #[test]
    fn chaos_seeded_decisions_carry_stable_payload_seeds() {
        let a = ChaosPlan::parse("seed:11,disk_corrupt:1000").unwrap();
        let b = ChaosPlan::parse("seed:11,disk_corrupt:1000").unwrap();
        let sa: Vec<Option<u64>> = (0..8)
            .map(|_| a.decide_seeded(ChaosSite::DiskCorrupt))
            .collect();
        let sb: Vec<Option<u64>> = (0..8)
            .map(|_| b.decide_seeded(ChaosSite::DiskCorrupt))
            .collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().all(|s| s.is_some()));
    }
}
