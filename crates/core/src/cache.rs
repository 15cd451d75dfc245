//! Content-addressed analysis cache: replay a function's optimization
//! without re-proving anything.
//!
//! ABCD is built for dynamic compilation, where analysis cost must be
//! amortized across repeated compilations of the same hot code (§1, §5 of
//! the paper). This module provides that amortization layer: a
//! function-level cache keyed by everything that determines the
//! optimizer's output —
//!
//! * the **canonicalized input IR** (via [`abcd_ir::canonicalize`], so the
//!   key is insensitive to arena numbering accidents),
//! * the **options fingerprint** (every [`OptimizerOptions`] knob),
//! * the **interprocedural fact fingerprint** (the verified parameter
//!   facts applied to this function's constraint graphs — when a caller
//!   changes, the callee's facts change and its key changes with them,
//!   which is exactly the transitive invalidation the driver needs),
//! * the **profile-bucket fingerprint** (log₂ buckets of the function's
//!   site/block counts, plus the exact hot/cold partition when a
//!   `hot_threshold` is in force).
//!
//! The cached value is the *canonical printed optimized IR* plus the
//! summary counters needed to reconstruct the [`FunctionReport`](crate::FunctionReport). Replay
//! never re-proves: the first hit parses; later hits clone the memoized
//! function. Each in-memory slot keeps the [`Function`] parsed from its
//! text (a disk load hands over the one its re-verification parsed), and
//! the memo's estimated size counts against the byte budget. Because the
//! driver's final pipeline stage canonicalizes, cached text is a
//! `print ∘ parse` fixpoint: warm and cold runs produce byte-identical
//! modules.
//!
//! The profile fingerprint is a deliberate approximation: counts are
//! bucketed so that run-to-run jitter in a stable workload still hits,
//! at the cost of possibly replaying a PRE profitability decision made
//! for a near-identical profile. This can never miscompile — optimized
//! output is semantics-preserving for *any* profile — it only risks a
//! mildly stale cost/benefit call, which is the amortization trade the
//! paper's dynamic-compilation setting asks for.
//!
//! **Failure policy (fail-open).** The disk tier re-verifies everything
//! on load: header shape, payload checksum, key match, and that the
//! cached IR parses, re-verifies, and is a print fixpoint. Any mismatch
//! is reported as [`Incident::CacheCorrupt`](crate::Incident), the entry
//! is deleted, and the function is recompiled cold — cache corruption is
//! an incident, never a miscompile and never a crash. An in-memory entry
//! that fails replay (its text does not parse, or the replaying driver
//! rejects the parsed function) is handled the same way: counted as
//! corrupt plus a miss, evicted from memory and deleted from disk, and
//! never memoized.
//!
//! **Crash safety.** Disk persists are write-to-temp → `fsync` → atomic
//! rename (plus a best-effort directory fsync), so a published entry is
//! always complete. A crash between the temp write and the rename leaves
//! only a `*.tmp.*` file, which the startup recovery sweep moves into a
//! `quarantine/` subdirectory (counted in [`CacheStats::recovered`]) —
//! after a `kill -9` mid-write the cache is at worst cold, never wrong.
//! Failed persists roll the temp file back and count as
//! [`CacheStats::write_errors`]; the entry stays in memory only.

use crate::driver::OptimizerOptions;
use crate::faults::{ChaosPlan, ChaosSite};
use crate::interproc::ParamFact;
use crate::report::CheckOutcome;
use abcd_ir::{CheckKind, CheckSite, Fnv1a, FuncId, Function};
use abcd_vm::Profile;
use std::collections::HashMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic line prefix of the on-disk entry format.
const DISK_MAGIC: &str = "abcd-cache/1";

/// Process-wide sequence for unique temp-file names: two threads (or two
/// stores of the same key) never collide on a temp path, so one writer's
/// cleanup can never clobber another's in-flight file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

// ---- hashing ------------------------------------------------------------

/// FNV-1a 64-bit — dependency-free, stable across platforms and runs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

fn mix(h: u64, v: u64) -> u64 {
    // Continue the FNV stream of `h` with `v`'s bytes.
    let mut h = Fnv1a::from_state(h);
    h.write(&v.to_le_bytes());
    h.finish()
}

/// A content-addressed cache key (see the module docs for what it hashes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey(u64);

impl CacheKey {
    /// The key as a fixed-width hex string (used for disk file names).
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.hex())
    }
}

/// Derives the cache key for one function from its four components.
pub fn cache_key(canonical_ir: &str, options_fp: u64, facts_fp: u64, profile_fp: u64) -> CacheKey {
    key_from_text_hash(
        fnv1a64(canonical_ir.as_bytes()),
        options_fp,
        facts_fp,
        profile_fp,
    )
}

/// The FNV-1a of `func`'s canonical print — [`cache_key`]'s text
/// component — streamed through the IR printer without building the
/// canonical function or its text.
pub fn canonical_text_hash(func: &Function) -> u64 {
    let mut h = Fnv1a::new();
    abcd_ir::print_canonical(func, &mut h);
    h.finish()
}

/// [`cache_key`] from an already-hashed text component:
/// `key_from_text_hash(canonical_text_hash(f), …)` equals
/// `cache_key(&canonicalize(f).to_string(), …)`.
pub fn key_from_text_hash(
    text_hash: u64,
    options_fp: u64,
    facts_fp: u64,
    profile_fp: u64,
) -> CacheKey {
    CacheKey(mix(mix(mix(text_hash, options_fp), facts_fp), profile_fp))
}

/// Fingerprints every [`OptimizerOptions`] knob. All knobs participate —
/// even ones (like `isolate_panics`) that cannot change a healthy run's
/// output — because a byte of hash is cheaper than an argument about
/// which knob is observable. The trailing `prover=demand` names the one
/// query engine; it stays so keys match entries already on disk.
pub fn options_fingerprint(o: &OptimizerOptions) -> u64 {
    let text = format!(
        "upper={} lower={} cleanup={} pre={} gvn_hook={} merge_checks={} \
         classify_local={} hot_threshold={:?} interprocedural={} \
         fuel_per_query={:?} fuel_per_function={:?} verify_ir={} validate={} \
         isolate_panics={} prover=demand",
        o.upper,
        o.lower,
        o.cleanup,
        o.pre,
        o.gvn_hook,
        o.merge_checks,
        o.classify_local,
        o.hot_threshold,
        o.interprocedural,
        o.fuel_per_query,
        o.fuel_per_function,
        o.verify_ir,
        o.validate,
        o.isolate_panics,
    );
    fnv1a64(text.as_bytes())
}

/// Fingerprints the interprocedural parameter facts in force for one
/// function (the facts *about its own parameters*, inferred from every
/// call site). Editing a caller that changes what can be assumed about a
/// callee's parameters changes this fingerprint and hence the callee's
/// key — transitive invalidation without a dependency graph.
pub fn facts_fingerprint(facts: &[ParamFact]) -> u64 {
    let mut lines: Vec<String> = facts.iter().map(|f| format!("{f:?}")).collect();
    lines.sort();
    fnv1a64(lines.join("\n").as_bytes())
}

/// Log₂ bucket of a dynamic count (0 stays 0, so the cold/warm boundary
/// is exact).
fn bucket(n: u64) -> u32 {
    if n == 0 {
        0
    } else {
        64 - n.leading_zeros()
    }
}

/// Fingerprints the slice of `profile` relevant to `func`: bucketed site
/// and block counts, plus — when `hot_threshold` is set — the exact
/// hot/cold partition of the function's check sites (the work-list
/// itself must never be stale).
pub fn profile_fingerprint(
    profile: Option<&Profile>,
    func: FuncId,
    hot_threshold: Option<u64>,
) -> u64 {
    let Some(p) = profile else {
        return fnv1a64(b"no-profile");
    };
    let mut sites: Vec<(usize, u32, bool)> = p
        .site_entries()
        .filter(|((f, _), _)| *f == func)
        .map(|((_, site), n)| {
            let hot = hot_threshold.is_some_and(|t| n >= t);
            (site.index(), bucket(n), hot)
        })
        .collect();
    sites.sort_unstable();
    let mut blocks: Vec<(usize, u32)> = p
        .block_entries()
        .filter(|((f, _), _)| *f == func)
        .map(|((_, b), n)| (b.index(), bucket(n)))
        .collect();
    blocks.sort_unstable();
    let mut h = fnv1a64(b"profile");
    h = mix(h, hot_threshold.map_or(u64::MAX, |t| t));
    for (s, b, hot) in sites {
        h = mix(h, s as u64);
        h = mix(h, b as u64);
        h = mix(h, hot as u64);
    }
    h = mix(h, 0xb10c);
    for (b, n) in blocks {
        h = mix(h, b as u64);
        h = mix(h, n as u64);
    }
    h
}

// ---- entries ------------------------------------------------------------

/// One cached optimization result: the canonical optimized IR plus the
/// summary counters needed to reconstruct the function's report.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    /// Canonical printed optimized IR (a `print ∘ parse` fixpoint).
    pub ir_text: String,
    /// Static checks before optimization.
    pub checks_total: usize,
    /// Per-check verdicts, in the order they were recorded.
    pub outcomes: Vec<(CheckSite, CheckKind, CheckOutcome)>,
    /// Solver steps the original (cold) run spent.
    pub steps: u64,
    /// PRE-pass solver steps of the original run.
    pub pre_steps: u64,
    /// Compensating checks PRE inserted.
    pub spec_checks_inserted: usize,
    /// Lower+upper pairs merged (§7.2).
    pub checks_merged: usize,
    /// Eliminations re-proven by translation validation in the cold run.
    pub checks_validated: usize,
}

impl CacheEntry {
    /// Approximate heap footprint, used against the byte budget.
    pub fn byte_size(&self) -> usize {
        self.ir_text.len() + self.outcomes.len() * 24 + 96
    }

    /// Serializes the summary section (everything but `ir_text`) as the
    /// line-oriented format stored on disk.
    pub fn summary_text(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "counts {} {} {} {} {} {}",
            self.checks_total,
            self.steps,
            self.pre_steps,
            self.spec_checks_inserted,
            self.checks_merged,
            self.checks_validated,
        );
        for (site, kind, outcome) in &self.outcomes {
            let _ = write!(out, "outcome {} {} ", site.index(), kind_str(*kind));
            match outcome {
                CheckOutcome::RemovedFully {
                    local,
                    via_congruence,
                } => {
                    let _ = writeln!(out, "removed {} {}", *local as u8, *via_congruence as u8);
                }
                CheckOutcome::Hoisted { insertions } => {
                    let _ = writeln!(out, "hoisted {insertions}");
                }
                CheckOutcome::Kept => {
                    let _ = writeln!(out, "kept");
                }
                CheckOutcome::Skipped => {
                    let _ = writeln!(out, "skipped");
                }
                CheckOutcome::Reinstated => {
                    let _ = writeln!(out, "reinstated");
                }
            }
        }
        out
    }

    /// Parses a summary section back; strict — any malformed line is a
    /// corruption verdict.
    pub fn parse_summary(ir_text: String, summary: &str) -> Result<CacheEntry, String> {
        let mut lines = summary.lines();
        let counts = lines.next().ok_or("empty summary")?;
        let mut it = counts.split_whitespace();
        if it.next() != Some("counts") {
            return Err("summary missing counts line".to_string());
        }
        let mut next_num = |what: &str| -> Result<u64, String> {
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad counts field `{what}`"))
        };
        let checks_total = next_num("checks_total")? as usize;
        let steps = next_num("steps")?;
        let pre_steps = next_num("pre_steps")?;
        let spec_checks_inserted = next_num("spec_checks_inserted")? as usize;
        let checks_merged = next_num("checks_merged")? as usize;
        let checks_validated = next_num("checks_validated")? as usize;
        let mut outcomes = Vec::new();
        for line in lines {
            let mut f = line.split_whitespace();
            if f.next() != Some("outcome") {
                return Err(format!("unexpected summary line `{line}`"));
            }
            let site: usize = f
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad site in `{line}`"))?;
            let kind = match f.next() {
                Some("upper") => CheckKind::Upper,
                Some("lower") => CheckKind::Lower,
                Some("both") => CheckKind::Both,
                _ => return Err(format!("bad check kind in `{line}`")),
            };
            let outcome = match f.next() {
                Some("removed") => {
                    let local = f.next() == Some("1");
                    let via_congruence = f.next() == Some("1");
                    CheckOutcome::RemovedFully {
                        local,
                        via_congruence,
                    }
                }
                Some("hoisted") => CheckOutcome::Hoisted {
                    insertions: f
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("bad insertions in `{line}`"))?,
                },
                Some("kept") => CheckOutcome::Kept,
                Some("skipped") => CheckOutcome::Skipped,
                Some("reinstated") => CheckOutcome::Reinstated,
                _ => return Err(format!("bad outcome in `{line}`")),
            };
            outcomes.push((CheckSite::new(site), kind, outcome));
        }
        Ok(CacheEntry {
            ir_text,
            checks_total,
            outcomes,
            steps,
            pre_steps,
            spec_checks_inserted,
            checks_merged,
            checks_validated,
        })
    }
}

fn kind_str(kind: CheckKind) -> &'static str {
    match kind {
        CheckKind::Upper => "upper",
        CheckKind::Lower => "lower",
        CheckKind::Both => "both",
    }
}

// ---- the cache ----------------------------------------------------------

/// Counters exposed in `abcd-metrics/7` and the server `stats` command.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident in memory.
    pub entries: usize,
    /// Bytes currently resident in memory: entries plus the estimated
    /// size of their memoized parsed functions.
    pub bytes: usize,
    /// Configured in-memory byte budget.
    pub budget_bytes: usize,
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that found nothing (or only a corrupt entry).
    pub misses: u64,
    /// Entries written (memory, and disk when persistent).
    pub stores: u64,
    /// Entries evicted from memory by the byte budget.
    pub evictions: u64,
    /// Entries rejected by re-verification or replay and evicted (from
    /// memory and disk).
    pub corrupt: u64,
    /// Hits served by re-reading and re-verifying a disk entry.
    pub disk_hits: u64,
    /// Partial temp files quarantined by the startup recovery sweep
    /// (debris of a crash mid-persist; see the module docs).
    pub recovered: u64,
    /// Disk persists that failed and were rolled back (the entry stayed
    /// in-memory only).
    pub write_errors: u64,
}

impl CacheStats {
    /// How many leading [`CacheStats::fields`] count events; the rest are
    /// gauges and the configured budget.
    pub const EVENTS: usize = 8;

    /// Every field as `(name, value)`, in the one order that every
    /// rendering of cache statistics (`abcd-metrics/7`, `abcdd`) iterates.
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("stores", self.stores),
            ("evictions", self.evictions),
            ("corrupt", self.corrupt),
            ("recovered", self.recovered),
            ("write_errors", self.write_errors),
            ("disk_hits", self.disk_hits),
            ("entries", self.entries as u64),
            ("bytes", self.bytes as u64),
            ("budget_bytes", self.budget_bytes as u64),
        ]
    }
}

/// One lookup's verdict.
#[derive(Debug)]
pub enum Lookup {
    /// A verified entry; replay it.
    Hit(Box<CacheEntry>),
    /// Nothing cached under this key.
    Miss,
    /// A disk entry existed but failed re-verification; it has been
    /// deleted and the function must be recompiled cold. The string is
    /// the human-readable reason, surfaced as an incident.
    Corrupt(String),
}

/// One [`AnalysisCache::replay`] verdict.
#[derive(Debug)]
pub enum Replay<T> {
    /// The entry was accepted; `T` is what the acceptor built from it.
    Hit(T),
    /// Nothing cached under this key.
    Miss,
    /// The entry failed re-verification or was rejected by the acceptor.
    /// It has been evicted (and deleted from disk); the function must be
    /// recompiled cold. The string is the reason, surfaced as an incident.
    Corrupt(String),
}

/// Estimated heap bytes of a memoized function, per instruction: the
/// `Inst` (40), its `InstId` in the block list, its result's `ValueDef`
/// and `Type`, plus an allowance for operand vectors and array types.
const MEMO_BYTES_PER_INST: usize = 96;
/// Estimated heap bytes of a memoized function, per block (`BlockData`
/// plus its instruction-list allocation).
const MEMO_BYTES_PER_BLOCK: usize = 64;
/// Estimated fixed heap bytes of a memoized function (its arena vectors).
const MEMO_BYTES_FIXED: usize = 128;

/// The size a memoized parse of `func` adds to its slot.
fn memo_byte_size(func: &Function) -> usize {
    let insts: usize = func.blocks().map(|b| func.block(b).insts().len()).sum();
    MEMO_BYTES_FIXED + insts * MEMO_BYTES_PER_INST + func.block_count() * MEMO_BYTES_PER_BLOCK
}

struct Slot {
    entry: Arc<CacheEntry>,
    /// The function parsed from `entry.ir_text`, once a replay accepted
    /// it; its estimated size is included in `size`.
    parsed: Option<Arc<Function>>,
    size: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<u64, Slot>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    stores: u64,
    evictions: u64,
    corrupt: u64,
    disk_hits: u64,
    write_errors: u64,
}

/// Where a [`AnalysisCache::replay`] got its parsed function.
enum Source {
    /// The slot's memo.
    Memo,
    /// A parse of the resident slot's text, memoized once accepted.
    Text,
    /// The disk tier's re-verification parse.
    Disk,
}

impl Inner {
    /// Marks `key`'s slot used and returns its entry and memo, if resident.
    fn touch(&mut self, key: CacheKey) -> Option<(Arc<CacheEntry>, Option<Arc<Function>>)> {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.map.get_mut(&key.0)?;
        slot.last_used = tick;
        Some((Arc::clone(&slot.entry), slot.parsed.clone()))
    }

    /// Memoizes `func` (of estimated size `extra`) in `key`'s slot, if the
    /// slot still holds `entry` unmemoized and the grown slot fits the
    /// budget; evicts LRU slots past the budget.
    fn fill_memo(
        &mut self,
        key: u64,
        entry: &Arc<CacheEntry>,
        func: Arc<Function>,
        extra: usize,
        budget: usize,
    ) {
        let Some(slot) = self.map.get_mut(&key) else {
            return;
        };
        if !Arc::ptr_eq(&slot.entry, entry) || slot.parsed.is_some() || slot.size + extra > budget {
            return;
        }
        slot.parsed = Some(func);
        slot.size += extra;
        self.bytes += extra;
        self.evict_past(budget, key);
    }

    /// Evicts least-recently-used slots other than `keep` until the
    /// stripe is within `budget`.
    fn evict_past(&mut self, budget: usize, keep: u64) {
        while self.bytes > budget {
            let Some((&victim, _)) = self
                .map
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, s)| s.last_used)
            else {
                break;
            };
            let slot = self.map.remove(&victim).expect("victim present");
            self.bytes -= slot.size;
            self.evictions += 1;
        }
    }
}

/// The function-level analysis cache: in-memory LRU under a byte budget,
/// optionally backed by an on-disk tier (`--cache-dir`) whose entries are
/// re-verified on every load. Shared across driver worker threads (and
/// server requests) behind **lock stripes**: keys hash onto one of N
/// independent `Mutex<Inner>` maps, so N shards' workers probing disjoint
/// functions never serialize on one lock. The default is a single stripe
/// (exactly the old one-mutex behavior, including global LRU order);
/// sharded servers call [`AnalysisCache::with_stripes`] to split the
/// budget into per-stripe LRU domains.
pub struct AnalysisCache {
    budget: usize,
    dir: Option<PathBuf>,
    /// Temp files quarantined by the startup recovery sweep (fixed at
    /// construction — recovery only runs when the cache is opened).
    recovered: u64,
    /// Armed chaos plan driving disk-fault injection, if any.
    chaos: Mutex<Option<Arc<ChaosPlan>>>,
    stripes: Vec<Mutex<Inner>>,
}

impl fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisCache")
            .field("budget", &self.budget)
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

/// Default in-memory byte budget (64 MiB).
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

impl AnalysisCache {
    /// An in-memory-only cache with the given byte budget.
    pub fn in_memory(budget_bytes: usize) -> AnalysisCache {
        AnalysisCache {
            budget: budget_bytes,
            dir: None,
            recovered: 0,
            chaos: Mutex::new(None),
            stripes: vec![Mutex::new(Inner::default())],
        }
    }

    /// Splits the in-memory tier into `n` lock stripes (clamped to ≥ 1).
    /// Keys hash onto a stripe; each stripe runs its own LRU over an equal
    /// share of the byte budget. With `n = 1` this is a no-op. Stripes are
    /// a concurrency knob, not a semantic one: hits, misses, and disk-tier
    /// behavior are identical for any `n` — only eviction *order* under
    /// budget pressure can differ, because LRU age is tracked per stripe.
    pub fn with_stripes(mut self, n: usize) -> AnalysisCache {
        let n = n.max(1);
        self.stripes = (0..n).map(|_| Mutex::new(Inner::default())).collect();
        self
    }

    /// A cache persisted under `dir` (created if absent) with the given
    /// in-memory byte budget. Opening the directory runs the crash-recovery
    /// sweep: any `*.tmp.*` debris left by a writer that died mid-persist is
    /// moved into a `quarantine/` subdirectory and counted in
    /// [`CacheStats::recovered`] — published entries are never touched.
    pub fn with_dir(
        dir: impl Into<PathBuf>,
        budget_bytes: usize,
    ) -> std::io::Result<AnalysisCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let recovered = recovery_sweep(&dir);
        Ok(AnalysisCache {
            budget: budget_bytes,
            dir: Some(dir),
            recovered,
            chaos: Mutex::new(None),
            stripes: vec![Mutex::new(Inner::default())],
        })
    }

    /// Arms a chaos plan for the disk tier: subsequent persists consult it
    /// for short-write / corrupt-on-write / disk-full injections. Lookups
    /// are untouched — the injected damage is caught by the existing
    /// re-verification machinery, which is the point.
    pub fn set_chaos(&self, plan: Arc<ChaosPlan>) {
        *self.chaos.lock().expect("chaos lock") = Some(plan);
    }

    /// The on-disk tier's directory, when persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The stripe holding `key` (stable: pure function of the key bits).
    fn stripe(&self, key: CacheKey) -> &Mutex<Inner> {
        &self.stripes[(key.0 as usize) % self.stripes.len()]
    }

    /// Each stripe's share of the in-memory byte budget.
    fn stripe_budget(&self) -> usize {
        self.budget / self.stripes.len()
    }

    /// How many lock stripes back the in-memory tier.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Snapshot of the counters, aggregated across stripes.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats {
            budget_bytes: self.budget,
            recovered: self.recovered,
            ..CacheStats::default()
        };
        for stripe in &self.stripes {
            let inner = stripe.lock().expect("cache lock");
            s.entries += inner.map.len();
            s.bytes += inner.bytes;
            s.hits += inner.hits;
            s.misses += inner.misses;
            s.stores += inner.stores;
            s.evictions += inner.evictions;
            s.corrupt += inner.corrupt;
            s.disk_hits += inner.disk_hits;
            s.write_errors += inner.write_errors;
        }
        s
    }

    /// Looks `key` up: memory first, then the disk tier (with full
    /// re-verification). Never panics and never returns unverified data.
    pub fn lookup(&self, key: CacheKey) -> Lookup {
        {
            let mut inner = self.stripe(key).lock().expect("cache lock");
            if let Some((entry, _)) = inner.touch(key) {
                inner.hits += 1;
                return Lookup::Hit(Box::new((*entry).clone()));
            }
        }
        match self.load_disk(key) {
            None => {
                self.stripe(key).lock().expect("cache lock").misses += 1;
                Lookup::Miss
            }
            Some(Ok((entry, func))) => {
                let hit = Box::new(entry.clone());
                self.admit_disk_hit(key, Arc::new(entry), Arc::new(func));
                Lookup::Hit(hit)
            }
            Some(Err(reason)) => {
                self.quarantine(key, None);
                Lookup::Corrupt(reason)
            }
        }
    }

    /// Looks `key` up for replay and hands the entry and the function
    /// parsed from its text to `accept`, which checks them against the
    /// function being compiled. The first hit on a slot parses the text
    /// (a disk load reuses the parse its re-verification made); once
    /// `accept` succeeds the parse is memoized, and later hits share it.
    /// An entry whose text does not parse, or that `accept` rejects, is
    /// corrupt: counted as corrupt plus a miss, evicted from memory,
    /// deleted from disk, and never memoized.
    pub fn replay<T>(
        &self,
        key: CacheKey,
        accept: impl FnOnce(&CacheEntry, &Arc<Function>) -> Result<T, String>,
    ) -> Replay<T> {
        let resident = self.stripe(key).lock().expect("cache lock").touch(key);
        let (entry, parsed, source) = match resident {
            Some((entry, Some(func))) => (entry, Ok(func), Source::Memo),
            Some((entry, None)) => {
                let parsed = parse_cached_ir(&entry.ir_text).map(Arc::new);
                (entry, parsed, Source::Text)
            }
            None => match self.load_disk(key) {
                None => {
                    self.stripe(key).lock().expect("cache lock").misses += 1;
                    return Replay::Miss;
                }
                Some(Err(reason)) => {
                    self.quarantine(key, None);
                    return Replay::Corrupt(reason);
                }
                Some(Ok((entry, func))) => (Arc::new(entry), Ok(Arc::new(func)), Source::Disk),
            },
        };
        let accepted = parsed.and_then(|func| Ok((accept(&entry, &func)?, func)));
        let (out, func) = match accepted {
            Ok(accepted) => accepted,
            Err(reason) => {
                self.quarantine(key, Some(&entry));
                return Replay::Corrupt(reason);
            }
        };
        match source {
            Source::Memo => self.stripe(key).lock().expect("cache lock").hits += 1,
            Source::Text => {
                let extra = memo_byte_size(&func);
                let budget = self.stripe_budget();
                let mut inner = self.stripe(key).lock().expect("cache lock");
                inner.hits += 1;
                inner.fill_memo(key.0, &entry, func, extra, budget);
            }
            Source::Disk => self.admit_disk_hit(key, entry, func),
        }
        Replay::Hit(out)
    }

    /// Whether `key`'s in-memory slot holds a memoized parsed function.
    pub fn is_memoized(&self, key: CacheKey) -> bool {
        let inner = self.stripe(key).lock().expect("cache lock");
        inner
            .map
            .get(&key.0)
            .is_some_and(|slot| slot.parsed.is_some())
    }

    /// Counts a verified disk hit and makes the entry resident, memoizing
    /// the function its re-verification parsed.
    fn admit_disk_hit(&self, key: CacheKey, entry: Arc<CacheEntry>, func: Arc<Function>) {
        {
            let mut inner = self.stripe(key).lock().expect("cache lock");
            inner.hits += 1;
            inner.disk_hits += 1;
        }
        self.insert_memory(key, entry, Some(func));
    }

    /// Counts a corrupt entry (a corrupt verdict plus a miss), evicts the
    /// resident slot if it still holds `resident`, and deletes the disk
    /// copy: a corrupt entry must not be served twice.
    fn quarantine(&self, key: CacheKey, resident: Option<&Arc<CacheEntry>>) {
        {
            let mut inner = self.stripe(key).lock().expect("cache lock");
            inner.misses += 1;
            inner.corrupt += 1;
            let stale = resident.is_some_and(|entry| {
                inner
                    .map
                    .get(&key.0)
                    .is_some_and(|slot| Arc::ptr_eq(&slot.entry, entry))
            });
            if stale {
                let slot = inner.map.remove(&key.0).expect("slot present");
                inner.bytes -= slot.size;
            }
        }
        if let Some(path) = self.disk_path(key) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Stores `entry` under `key` in memory (evicting LRU entries past
    /// the byte budget) and on disk when persistent.
    pub fn insert(&self, key: CacheKey, entry: CacheEntry) {
        self.store_disk(key, &entry);
        self.insert_memory(key, Arc::new(entry), None);
        self.stripe(key).lock().expect("cache lock").stores += 1;
    }

    fn insert_memory(&self, key: CacheKey, entry: Arc<CacheEntry>, parsed: Option<Arc<Function>>) {
        let bare = entry.byte_size();
        let budget = self.stripe_budget();
        if bare > budget {
            // Oversized for the memory tier entirely; the disk tier (if
            // any) still has it.
            return;
        }
        // A memo that does not fit is dropped; hits then parse the text.
        let (parsed, size) = match parsed.map(|f| (bare + memo_byte_size(&f), f)) {
            Some((size, f)) if size <= budget => (Some(f), size),
            _ => (None, bare),
        };
        let mut inner = self.stripe(key).lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(
            key.0,
            Slot {
                entry,
                parsed,
                size,
                last_used: tick,
            },
        ) {
            inner.bytes -= old.size;
        }
        inner.bytes += size;
        inner.evict_past(budget, key.0);
    }

    fn disk_path(&self, key: CacheKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.abcdc", key.hex())))
    }

    /// Reads and fully re-verifies a disk entry. `None`: no file.
    /// `Some(Err)`: the file exists but failed verification.
    fn load_disk(&self, key: CacheKey) -> Option<Result<(CacheEntry, Function), String>> {
        let path = self.disk_path(key)?;
        let bytes = std::fs::read(&path).ok()?;
        Some(parse_disk_entry(key, &bytes))
    }

    fn store_disk(&self, key: CacheKey, entry: &CacheEntry) {
        let Some(path) = self.disk_path(key) else {
            return;
        };
        let summary = entry.summary_text();
        let payload_checksum = {
            let mut h = fnv1a64(entry.ir_text.as_bytes());
            h = mix(h, fnv1a64(summary.as_bytes()));
            h
        };
        let mut buf = Vec::with_capacity(entry.ir_text.len() + summary.len() + 80);
        let _ = writeln!(
            buf,
            "{DISK_MAGIC} {} {:016x} {} {}",
            key.hex(),
            payload_checksum,
            entry.ir_text.len(),
            summary.len(),
        );
        buf.extend_from_slice(entry.ir_text.as_bytes());
        buf.extend_from_slice(summary.as_bytes());
        // Unique temp name per store: pid guards against another process
        // on the same dir, the sequence against our own threads.
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));

        let chaos = self.chaos.lock().expect("chaos lock").clone();
        if let Some(plan) = &chaos {
            if plan.decide(ChaosSite::DiskFull) {
                // ENOSPC: the persist fails cleanly, nothing is left behind
                // and the published entry (if any) is untouched.
                self.stripe(key).lock().expect("cache lock").write_errors += 1;
                return;
            }
            if plan.decide(ChaosSite::DiskShortWrite) {
                // The exact on-disk state of a `kill -9` mid-write: a
                // truncated temp file that never got renamed. Left in
                // place deliberately — the next startup's recovery sweep
                // must quarantine it.
                let _ = std::fs::write(&tmp, &buf[..buf.len() / 2]);
                self.stripe(key).lock().expect("cache lock").write_errors += 1;
                return;
            }
        }

        // Atomic, durable publish: write + fsync the temp file, rename it
        // over the destination, then fsync the directory so the rename
        // itself survives a crash. A concurrent reader sees the old entry
        // or the new one, never a torn write. Failures roll the temp file
        // back — a cache that cannot persist is merely cold, not broken.
        if persist_atomically(&tmp, &path, &buf).is_err() {
            let _ = std::fs::remove_file(&tmp);
            self.stripe(key).lock().expect("cache lock").write_errors += 1;
            return;
        }

        if let Some(plan) = &chaos {
            if let Some(seed) = plan.decide_seeded(ChaosSite::DiskCorrupt) {
                // Rot a byte of the *published* entry. The checksum (or,
                // for header damage, the shape check) must catch it on the
                // next disk lookup and quarantine the entry.
                if let Ok(mut bytes) = std::fs::read(&path) {
                    if !bytes.is_empty() {
                        let i = (seed as usize) % bytes.len();
                        bytes[i] ^= 0x01;
                        let _ = std::fs::write(&path, &bytes);
                    }
                }
            }
        }
    }
}

/// Writes `buf` to `tmp`, fsyncs it, renames it over `dst`, and fsyncs the
/// parent directory (best effort on platforms where directories cannot be
/// opened). Any step failing aborts the publish.
fn persist_atomically(tmp: &Path, dst: &Path, buf: &[u8]) -> std::io::Result<()> {
    {
        let mut f = std::fs::File::create(tmp)?;
        f.write_all(buf)?;
        f.sync_all()?;
    }
    std::fs::rename(tmp, dst)?;
    if let Some(parent) = dst.parent() {
        if let Ok(d) = std::fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Moves every `*.tmp.*` leftover in `dir` into `dir/quarantine/`,
/// returning how many were recovered. Runs once when a persistent cache is
/// opened. Quarantine (rather than delete) keeps the debris inspectable —
/// an operator can diff a partial entry against the recompiled one.
fn recovery_sweep(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut recovered = 0u64;
    let quarantine = dir.join("quarantine");
    for entry in entries.flatten() {
        let path = entry.path();
        // Published entries are `<hex>.abcdc`; anything with `.tmp` in its
        // name is an unfinished persist.
        let is_tmp = path.is_file()
            && path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".tmp"));
        if !is_tmp {
            continue;
        }
        let _ = std::fs::create_dir_all(&quarantine);
        let dst = quarantine.join(entry.file_name());
        // Quarantine keeps the debris inspectable; if even that fails,
        // delete — losing the forensic copy beats re-sweeping it forever.
        if std::fs::rename(&path, &dst).is_ok() || std::fs::remove_file(&path).is_ok() {
            recovered += 1;
        }
    }
    recovered
}

/// Parses and re-verifies one on-disk entry. Every failure mode returns a
/// reason string; the caller turns it into an incident.
fn parse_disk_entry(key: CacheKey, bytes: &[u8]) -> Result<(CacheEntry, Function), String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "entry is not UTF-8".to_string())?;
    let (header, payload) = text
        .split_once('\n')
        .ok_or_else(|| "missing header line".to_string())?;
    let fields: Vec<&str> = header.split(' ').collect();
    if fields.len() != 5 || fields[0] != DISK_MAGIC {
        return Err(format!("bad header `{header}`"));
    }
    if fields[1] != key.hex() {
        return Err(format!(
            "key mismatch: file says {}, expected {key}",
            fields[1]
        ));
    }
    let checksum =
        u64::from_str_radix(fields[2], 16).map_err(|_| "bad checksum field".to_string())?;
    let ir_len: usize = fields[3].parse().map_err(|_| "bad ir length".to_string())?;
    let sum_len: usize = fields[4]
        .parse()
        .map_err(|_| "bad summary length".to_string())?;
    if payload.len() != ir_len + sum_len || !payload.is_char_boundary(ir_len) {
        return Err(format!(
            "length mismatch: payload {} vs declared {}+{}",
            payload.len(),
            ir_len,
            sum_len
        ));
    }
    let (ir_text, summary) = payload.split_at(ir_len);
    let actual = mix(fnv1a64(ir_text.as_bytes()), fnv1a64(summary.as_bytes()));
    if actual != checksum {
        return Err(format!(
            "checksum mismatch: {actual:016x} vs {checksum:016x}"
        ));
    }
    // Semantic re-verification: the IR must parse, pass the verifier, and
    // be the canonical print fixpoint it was stored as.
    let func = parse_cached_ir(ir_text)?;
    abcd_ir::verify_function(&func, None)
        .map_err(|e| format!("cached IR fails verification: {e}"))?;
    if func.to_string() != ir_text.trim_end() {
        return Err("cached IR is not a print fixpoint".to_string());
    }
    Ok((
        CacheEntry::parse_summary(ir_text.to_string(), summary)?,
        func,
    ))
}

/// Parses a cached entry's IR text back into its function.
fn parse_cached_ir(ir_text: &str) -> Result<Function, String> {
    abcd_ir::parse_function_text(ir_text).map_err(|e| format!("cached IR does not parse: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ir: &str) -> CacheEntry {
        CacheEntry {
            ir_text: ir.to_string(),
            checks_total: 2,
            outcomes: vec![
                (
                    CheckSite::new(0),
                    CheckKind::Upper,
                    CheckOutcome::RemovedFully {
                        local: true,
                        via_congruence: false,
                    },
                ),
                (CheckSite::new(1), CheckKind::Lower, CheckOutcome::Kept),
            ],
            steps: 7,
            pre_steps: 3,
            spec_checks_inserted: 1,
            checks_merged: 0,
            checks_validated: 1,
        }
    }

    const FUNC: &str = "\
func @f(v0: int) -> int {
bb0:
    v1: int = add v0, v0
    ret v1
}";

    #[test]
    fn summary_round_trips() {
        let e = entry(FUNC);
        let text = e.summary_text();
        let parsed = CacheEntry::parse_summary(e.ir_text.clone(), &text).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn summary_rejects_garbage() {
        assert!(CacheEntry::parse_summary(String::new(), "").is_err());
        assert!(CacheEntry::parse_summary(String::new(), "counts 1 2").is_err());
        assert!(CacheEntry::parse_summary(
            String::new(),
            "counts 1 2 3 4 5 6\noutcome x upper kept"
        )
        .is_err());
    }

    #[test]
    fn memory_hit_and_miss() {
        let cache = AnalysisCache::in_memory(1 << 20);
        let key = cache_key("text", 1, 2, 3);
        assert!(matches!(cache.lookup(key), Lookup::Miss));
        cache.insert(key, entry(FUNC));
        match cache.lookup(key) {
            Lookup::Hit(e) => assert_eq!(e.ir_text, FUNC),
            other => panic!("expected hit, got {other:?}"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.stores), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_oldest_under_budget() {
        let one = entry(FUNC).byte_size();
        let cache = AnalysisCache::in_memory(2 * one + one / 2);
        let keys: Vec<CacheKey> = (0..3).map(|i| cache_key("t", i, 0, 0)).collect();
        cache.insert(keys[0], entry(FUNC));
        cache.insert(keys[1], entry(FUNC));
        // Touch key 0 so key 1 is the LRU victim.
        assert!(matches!(cache.lookup(keys[0]), Lookup::Hit(_)));
        cache.insert(keys[2], entry(FUNC));
        assert!(matches!(cache.lookup(keys[0]), Lookup::Hit(_)));
        assert!(matches!(cache.lookup(keys[1]), Lookup::Miss));
        assert!(matches!(cache.lookup(keys[2]), Lookup::Hit(_)));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().bytes <= cache.stats().budget_bytes);
    }

    /// Replays `key`, accepting whatever parsed, and returns the shared
    /// parsed function.
    fn replay_parsed(cache: &AnalysisCache, key: CacheKey) -> Arc<Function> {
        match cache.replay(key, |_, f| Ok(Arc::clone(f))) {
            Replay::Hit(f) => f,
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn later_hits_share_the_memoized_parse() {
        let cache = AnalysisCache::in_memory(1 << 20);
        let key = cache_key("text", 1, 2, 3);
        cache.insert(key, entry(FUNC));
        assert!(!cache.is_memoized(key), "an insert does not parse");
        let first = replay_parsed(&cache, key);
        assert!(cache.is_memoized(key));
        let second = replay_parsed(&cache, key);
        assert!(Arc::ptr_eq(&first, &second), "the second hit parsed again");
        assert_eq!(first.to_string(), FUNC);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (2, 0, 0));

        // A disk load hands its re-verification parse to the slot: the
        // memory hit after it shares the same function.
        let dir = std::env::temp_dir().join(format!("abcd-cache-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        AnalysisCache::with_dir(&dir, 1 << 20)
            .unwrap()
            .insert(key, entry(FUNC));
        let reopened = AnalysisCache::with_dir(&dir, 1 << 20).unwrap();
        let from_disk = replay_parsed(&reopened, key);
        let from_memory = replay_parsed(&reopened, key);
        assert!(Arc::ptr_eq(&from_disk, &from_memory));
        let s = reopened.stats();
        assert_eq!((s.hits, s.disk_hits), (2, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_counts_against_the_byte_budget() {
        let bare = entry(FUNC).byte_size();
        let memo = memo_byte_size(&abcd_ir::parse_function_text(FUNC).unwrap());
        let key = cache_key("t", 0, 0, 0);
        let cache = AnalysisCache::in_memory(1 << 20);
        cache.insert(key, entry(FUNC));
        assert_eq!(cache.stats().bytes, bare);
        replay_parsed(&cache, key);
        assert_eq!(
            cache.stats().bytes,
            bare + memo,
            "a memoized slot counts more"
        );

        // Room for two memoized slots, which also holds three bare slots
        // and one memo (the memo outweighs the text): memoizing a second
        // slot evicts the least recently used one.
        assert!(bare <= memo);
        let cache = AnalysisCache::in_memory(2 * (bare + memo));
        let keys: Vec<CacheKey> = (0..3).map(|i| cache_key("t", i, 0, 0)).collect();
        for &k in &keys {
            cache.insert(k, entry(FUNC));
        }
        replay_parsed(&cache, keys[0]);
        assert_eq!(cache.stats().evictions, 0);
        replay_parsed(&cache, keys[1]);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= s.budget_bytes, "{s:?}");
        assert!(cache.is_memoized(keys[0]) && cache.is_memoized(keys[1]));
        assert!(matches!(cache.lookup(keys[2]), Lookup::Miss));

        // A memo that would not fit the budget is not kept.
        let cache = AnalysisCache::in_memory(bare + memo - 1);
        cache.insert(key, entry(FUNC));
        replay_parsed(&cache, key);
        assert!(!cache.is_memoized(key));
        assert_eq!(cache.stats().bytes, bare);
    }

    #[test]
    fn rejected_memory_entry_is_corrupt_and_evicted() {
        let cache = AnalysisCache::in_memory(1 << 20);
        let key = cache_key("t", 0, 0, 0);
        cache.insert(key, entry("not ir"));
        match cache.replay(key, |_, _| Ok(())) {
            Replay::Corrupt(reason) => assert!(reason.contains("does not parse"), "{reason}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        cache.insert(key, entry(FUNC));
        match cache.replay(key, |_, _| Err::<(), _>("wrong function".to_string())) {
            Replay::Corrupt(reason) => assert_eq!(reason, "wrong function"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (0, 2, 2));
        assert_eq!((s.entries, s.bytes), (0, 0), "rejected entries are evicted");
        assert!(matches!(cache.replay(key, |_, _| Ok(())), Replay::Miss));
    }

    #[test]
    fn disk_round_trip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("abcd-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = AnalysisCache::with_dir(&dir, 1 << 20).unwrap();
        let key = cache_key(FUNC, 9, 9, 9);
        cache.insert(key, entry(FUNC));

        // A fresh cache over the same dir serves the entry from disk.
        let cold = AnalysisCache::with_dir(&dir, 1 << 20).unwrap();
        match cold.lookup(key) {
            Lookup::Hit(e) => assert_eq!(*e, entry(FUNC)),
            other => panic!("expected disk hit, got {other:?}"),
        }
        assert_eq!(cold.stats().disk_hits, 1);

        // Flip a payload byte: the checksum must catch it, the entry must
        // be deleted, and the next lookup is a clean miss.
        let path = dir.join(format!("{}.abcdc", key.hex()));
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let fresh = AnalysisCache::with_dir(&dir, 1 << 20).unwrap();
        match fresh.lookup(key) {
            Lookup::Corrupt(reason) => assert!(reason.contains("mismatch"), "{reason}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        assert!(!path.exists(), "corrupt entry must be quarantined");
        assert!(matches!(fresh.lookup(key), Lookup::Miss));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_sweep_quarantines_partial_writes() {
        let dir = std::env::temp_dir().join(format!("abcd-cache-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = AnalysisCache::with_dir(&dir, 1 << 20).unwrap();
            cache.insert(cache_key(FUNC, 1, 2, 3), entry(FUNC));
        }
        // Manufacture the aftermath of a kill -9 mid-write: a truncated
        // temp file that never got renamed.
        let debris = dir.join("deadbeefdeadbeef.tmp.12345.0");
        std::fs::write(&debris, b"abcd-cache/1 dead").unwrap();
        let reopened = AnalysisCache::with_dir(&dir, 1 << 20).unwrap();
        assert_eq!(reopened.stats().recovered, 1);
        assert!(!debris.exists(), "debris must leave the cache dir");
        assert!(
            dir.join("quarantine")
                .join("deadbeefdeadbeef.tmp.12345.0")
                .exists(),
            "debris is quarantined, not destroyed"
        );
        // The published entry survived the sweep and still verifies.
        match reopened.lookup(cache_key(FUNC, 1, 2, 3)) {
            Lookup::Hit(e) => assert_eq!(e.ir_text, FUNC),
            other => panic!("expected disk hit after sweep, got {other:?}"),
        }
        // A third open finds nothing left to recover.
        assert_eq!(
            AnalysisCache::with_dir(&dir, 1 << 20)
                .unwrap()
                .stats()
                .recovered,
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_short_write_leaves_recoverable_debris_and_no_entry() {
        let dir = std::env::temp_dir().join(format!("abcd-cache-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = AnalysisCache::with_dir(&dir, 1 << 20).unwrap();
        cache.set_chaos(Arc::new(
            ChaosPlan::parse("seed:1,disk_short:1000").unwrap(),
        ));
        let key = cache_key(FUNC, 4, 5, 6);
        cache.insert(key, entry(FUNC));
        assert_eq!(cache.stats().write_errors, 1);
        // No published entry — only temp debris a reopen must quarantine.
        assert!(!dir.join(format!("{}.abcdc", key.hex())).exists());
        let reopened = AnalysisCache::with_dir(&dir, 1 << 20).unwrap();
        assert_eq!(reopened.stats().recovered, 1);
        assert!(matches!(reopened.lookup(key), Lookup::Miss));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_disk_full_fails_persist_cleanly() {
        let dir = std::env::temp_dir().join(format!("abcd-cache-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = AnalysisCache::with_dir(&dir, 1 << 20).unwrap();
        cache.set_chaos(Arc::new(ChaosPlan::parse("seed:1,disk_full:1000").unwrap()));
        let key = cache_key(FUNC, 7, 8, 9);
        cache.insert(key, entry(FUNC));
        assert_eq!(cache.stats().write_errors, 1);
        // In-memory tier still serves it; disk has nothing at all.
        assert!(matches!(cache.lookup(key), Lookup::Hit(_)));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_corrupt_on_write_is_caught_by_reverification() {
        let dir = std::env::temp_dir().join(format!("abcd-cache-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = AnalysisCache::with_dir(&dir, 1 << 20).unwrap();
        cache.set_chaos(Arc::new(
            ChaosPlan::parse("seed:2,disk_corrupt:1000").unwrap(),
        ));
        let key = cache_key(FUNC, 10, 11, 12);
        cache.insert(key, entry(FUNC));
        // The rotted entry must never be served: a cold cache rejects and
        // quarantines it, then recompilation would repopulate.
        let cold = AnalysisCache::with_dir(&dir, 1 << 20).unwrap();
        match cold.lookup(key) {
            Lookup::Corrupt(reason) => assert!(!reason.is_empty()),
            other => panic!("expected corrupt verdict, got {other:?}"),
        }
        assert!(matches!(cold.lookup(key), Lookup::Miss));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_separate_inputs() {
        let o1 = OptimizerOptions::default();
        let o2 = OptimizerOptions {
            pre: false,
            ..OptimizerOptions::default()
        };
        assert_ne!(options_fingerprint(&o1), options_fingerprint(&o2));

        let f = FuncId::new(0);
        let mut p1 = Profile::new();
        p1.add_site_count(f, CheckSite::new(0), 100);
        let mut p2 = Profile::new();
        p2.add_site_count(f, CheckSite::new(0), 1);
        // Different buckets → different fingerprints.
        assert_ne!(
            profile_fingerprint(Some(&p1), f, None),
            profile_fingerprint(Some(&p2), f, None)
        );
        // Same bucket (100 vs 101) → same fingerprint (amortization).
        let mut p3 = Profile::new();
        p3.add_site_count(f, CheckSite::new(0), 101);
        assert_eq!(
            profile_fingerprint(Some(&p1), f, None),
            profile_fingerprint(Some(&p3), f, None)
        );
        // But a threshold crossing always invalidates.
        assert_ne!(
            profile_fingerprint(Some(&p1), f, Some(101)),
            profile_fingerprint(Some(&p3), f, Some(101))
        );
        assert_ne!(
            profile_fingerprint(None, f, None),
            profile_fingerprint(Some(&p1), f, None)
        );
    }
}
