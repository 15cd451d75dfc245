//! The one declaration of every series `abcdd` exports: [`SERIES`] names
//! each once, and `stats` (`abcdd-stats/3` JSON) and the Prometheus
//! exposition are two generic renderings of one [`Snapshot`] of it.
//!
//! The server's own counters and histograms are [`Registry`] slots named
//! by constants, so a hot-path update is one relaxed atomic add: no lock,
//! no name lookup, no allocation. Every other series is read from its
//! owner when a snapshot is taken.

use crate::queue::RunQueue;
use abcd::{CacheStats, ChaosPlan, CHAOS_SITES};
use std::fmt::Write as _;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use Kind::{Config, Counter, Gauge, Log2};
use Label::{Cache, Event, Outcome, Single, Site};

/// Buckets of a log2 histogram. Bucket 0 counts zero samples, bucket
/// `i ≥ 1` counts samples in `[2^(i−1), 2^i − 1]` (its `le` bound is
/// `2^i − 1`), and the last bucket also absorbs everything larger.
const BUCKETS: usize = 32;

pub(crate) const ACCEPTED: usize = 0;
pub(crate) const SERVED: usize = 1;
pub(crate) const ERRORS: usize = 2;
pub(crate) const DEADLINE_EXCEEDED: usize = 3;
pub(crate) const WORKER_RESTARTS: usize = 4;
pub(crate) const WORKER_KICKS: usize = 5;
/// Histogram: request latency (enqueue → response written), microseconds.
pub(crate) const REQUEST_LATENCY_US: usize = 6;
/// Histogram: total queued backlog observed at each dequeue.
pub(crate) const QUEUE_DEPTH_AT_DEQUEUE: usize = REQUEST_LATENCY_US + BUCKETS + 1;
const SLOTS: usize = QUEUE_DEPTH_AT_DEQUEUE + BUCKETS + 1;

/// The server's own counters and histograms, one atomic per slot. A
/// histogram takes [`BUCKETS`] slots, then its sum; its count is the sum
/// of its buckets.
pub(crate) struct Registry([AtomicU64; SLOTS]);

impl Registry {
    pub fn new() -> Registry {
        Registry([const { AtomicU64::new(0) }; SLOTS])
    }

    pub fn inc(&self, slot: usize) {
        self.0[slot].fetch_add(1, Relaxed);
    }

    /// Records `sample` in the histogram whose first slot is `slot`.
    pub fn observe(&self, slot: usize, sample: u64) {
        let bucket = (64 - sample.leading_zeros() as usize).min(BUCKETS - 1);
        self.0[slot + bucket].fetch_add(1, Relaxed);
        self.0[slot + BUCKETS].fetch_add(sample, Relaxed);
    }

    fn get(&self, slot: usize) -> u64 {
        self.0[slot].load(Relaxed)
    }
}

/// How a series moves: its Prometheus type, and whether `deterministic`
/// zeroes it (it keeps only `Config`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Config,
    Log2,
}

/// The static label set of a series, which also places it in `stats`:
/// `Single` and each `Outcome` are top-level keys, `Site` values go in the
/// `chaos` object, and `Event` values and unlabelled `Cache` series in the
/// `cache` object. `chaos` and `cache` are `null` without a chaos plan or
/// a cache.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Label {
    Single,
    Outcome(&'static [&'static str]),
    Site,
    Event,
    Cache,
}

impl Label {
    /// The `stats` member the series nests in; `None` is the top level.
    fn group(self) -> Option<&'static str> {
        match self {
            Single | Outcome(_) => None,
            Site => Some("chaos"),
            Event | Cache => Some("cache"),
        }
    }

    /// The label's name and its value at index `i`, if it has a name.
    fn pair(self, i: usize) -> Option<(&'static str, String)> {
        match self {
            Outcome(names) => Some(("outcome", names[i].to_string())),
            Site => Some(("site", CHAOS_SITES[i].name().to_string())),
            Event => Some(("event", CacheStats::default().fields()[i].0.to_string())),
            Single | Cache => None,
        }
    }
}

/// Everything a snapshot reads.
pub(crate) struct Sources<'a> {
    pub registry: &'a Registry,
    pub queue: &'a RunQueue,
    pub cache: Option<CacheStats>,
    pub chaos: Option<&'a ChaosPlan>,
}

/// One series: its Prometheus name, its `stats` key (unused where the
/// label values are the keys), its kind, its label set, and how to read it.
type Series = (&'static str, &'static str, Kind, Label, Read);

/// Reads a value by label index (a histogram: its buckets, then its sum).
type Read = fn(&Sources<'_>, usize) -> u64;

/// How many values `series` samples: none when its group is absent.
fn len(series: &Series, s: &Sources<'_>) -> usize {
    match (series.2, series.3) {
        (Log2, _) => BUCKETS + 1,
        (_, Single) => 1,
        (_, Outcome(names)) => names.len(),
        (_, Site) => s.chaos.map_or(0, |_| CHAOS_SITES.len()),
        (_, Event) => s.cache.map_or(0, |_| CacheStats::EVENTS),
        (_, Cache) => s.cache.map_or(0, |_| 1),
    }
}

/// Every series, in exposition order. `shed` and `queued_replies` are one
/// counter, the queue-position replies, exposed under both names.
#[rustfmt::skip]
const SERIES: &[Series] = &[
    ("abcdd_requests_total", "", Counter, Outcome(&["accepted", "served", "shed", "errors"]), |s, i| {
        [s.registry.get(ACCEPTED), s.registry.get(SERVED), s.queue.queued_replies.load(Relaxed), s.registry.get(ERRORS)][i]
    }),
    ("abcdd_deadline_exceeded_total", "deadline_exceeded", Counter, Single, |s, _| s.registry.get(DEADLINE_EXCEEDED)),
    ("abcdd_worker_restarts_total", "worker_restarts", Counter, Single, |s, _| s.registry.get(WORKER_RESTARTS)),
    ("abcdd_worker_kicks_total", "worker_kicks", Counter, Single, |s, _| s.registry.get(WORKER_KICKS)),
    ("abcdd_queued_replies_total", "queued_replies", Counter, Single, |s, _| s.queue.queued_replies.load(Relaxed)),
    ("abcdd_queue_depth", "queue_depth", Gauge, Single, |s, _| s.queue.depth() as u64),
    ("abcdd_busy", "busy", Gauge, Single, |s, _| s.queue.busy.load(SeqCst) as u64),
    ("abcdd_workers", "workers", Config, Single, |s, _| s.queue.workers as u64),
    ("abcdd_queue_capacity", "queue", Config, Single, |s, _| s.queue.capacity as u64),
    ("abcdd_cache_events_total", "", Counter, Event, |s, i| s.cache.map_or(0, |c| c.fields()[i].1)),
    ("abcdd_cache_entries", "entries", Gauge, Cache, |s, _| s.cache.map_or(0, |c| c.entries as u64)),
    ("abcdd_cache_bytes", "bytes", Gauge, Cache, |s, _| s.cache.map_or(0, |c| c.bytes as u64)),
    ("abcdd_cache_budget_bytes", "budget_bytes", Config, Cache, |s, _| s.cache.map_or(0, |c| c.budget_bytes as u64)),
    ("abcdd_chaos_injections_total", "", Counter, Site, |s, i| s.chaos.map_or(0, |p| p.injected(CHAOS_SITES[i]))),
    ("abcdd_request_latency_us", "request_latency_us", Log2, Single, |s, i| s.registry.get(REQUEST_LATENCY_US + i)),
    ("abcdd_queue_depth_at_dequeue", "queue_depth_at_dequeue", Log2, Single, |s, i| s.registry.get(QUEUE_DEPTH_AT_DEQUEUE + i)),
];

/// Each series' values by label index (none when its group is absent).
pub(crate) struct Snapshot(Vec<Vec<u64>>);

impl Snapshot {
    /// Samples every series. `deterministic` zeroes every value except the
    /// configuration gauges, so the rendering is byte-stable.
    pub fn take(s: &Sources<'_>, deterministic: bool) -> Snapshot {
        let sample = |series: &Series| {
            let zero = deterministic && series.2 != Config;
            let value = |i| if zero { 0 } else { series.4(s, i) };
            (0..len(series, s)).map(value).collect()
        };
        Snapshot(SERIES.iter().map(sample).collect())
    }

    fn sampled(&self) -> impl Iterator<Item = (&'static Series, &Vec<u64>)> {
        SERIES
            .iter()
            .zip(&self.0)
            .filter(|(_, values)| !values.is_empty())
    }

    /// The Prometheus text exposition.
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        for ((name, _, kind, label, _), values) in self.sampled() {
            let type_name = match kind {
                Counter => "counter",
                Gauge | Config => "gauge",
                Log2 => "histogram",
            };
            let _ = writeln!(out, "# TYPE {name} {type_name}");
            if *kind != Log2 {
                for (i, n) in values.iter().enumerate() {
                    let pair = label.pair(i).map(|(k, v)| format!("{{{k}=\"{v}\"}}"));
                    let _ = writeln!(out, "{name}{} {n}", pair.unwrap_or_default());
                }
                continue;
            }
            let mut cumulative = 0;
            for (i, n) in values[..BUCKETS].iter().enumerate() {
                cumulative += n;
                let le = match i + 1 {
                    BUCKETS => "+Inf".to_string(),
                    _ => ((1u64 << i) - 1).to_string(),
                };
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let sum = values[BUCKETS];
            let _ = writeln!(out, "{name}_sum {sum}\n{name}_count {cumulative}");
        }
        out
    }

    /// The `abcdd-stats/3` document (see [`Label`] for the nesting); a
    /// histogram is `{"buckets":[…],"sum":…,"count":…}`, not cumulative.
    pub fn stats(&self) -> String {
        let mut members = self.members(None);
        for group in ["cache", "chaos"] {
            let inner = self.members(Some(group));
            let inner = (!inner.is_empty()).then(|| format!("{{{}}}", inner.join(",")));
            let inner = inner.unwrap_or_else(|| "null".to_string());
            members.push(format!("\"{group}\":{inner}"));
        }
        let members = members.join(",");
        format!("{{\"ok\":true,\"schema\":\"abcdd-stats/3\",{members}}}")
    }

    /// The `"key":value` members of `group`.
    fn members(&self, group: Option<&str>) -> Vec<String> {
        let mut members = Vec::new();
        for ((_, key, kind, label, _), values) in self.sampled() {
            if label.group() != group {
                continue;
            }
            match (kind, label) {
                (Log2, _) => {
                    let (buckets, sum) = (&values[..BUCKETS], values[BUCKETS]);
                    let list: Vec<String> = buckets.iter().map(u64::to_string).collect();
                    let (list, count) = (list.join(","), buckets.iter().sum::<u64>());
                    let hist = format!("{{\"buckets\":[{list}],\"sum\":{sum},\"count\":{count}}}");
                    members.push(format!("\"{key}\":{hist}"));
                }
                (_, Single | Cache) => members.push(format!("\"{key}\":{}", values[0])),
                _ => {
                    for (i, n) in values.iter().enumerate() {
                        members.push(format!("\"{}\":{n}", label.pair(i).unwrap_or_default().1));
                    }
                }
            }
        }
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn exposition_value(text: &str, line: &str) -> u64 {
        let found = text
            .lines()
            .find_map(|l| l.strip_prefix(line)?.strip_prefix(' '));
        let found = found.unwrap_or_else(|| panic!("no `{line}` in\n{text}"));
        found.parse().unwrap()
    }

    #[test]
    fn log2_histogram_buckets_sums_counts_and_deterministic_zeroing() {
        let registry = Registry::new();
        let samples = [0, 1, 2, 3, 4, (1 << 30) - 1, 1 << 30, u64::MAX];
        for sample in samples {
            registry.observe(REQUEST_LATENCY_US, sample);
        }
        let queue = RunQueue::new(8, 3);
        let sources = Sources {
            registry: &registry,
            queue: &queue,
            cache: None,
            chaos: None,
        };
        let text = Snapshot::take(&sources, false).exposition();
        let bucket = |le: &str| {
            let line = format!("abcdd_request_latency_us_bucket{{le=\"{le}\"}}");
            exposition_value(&text, &line)
        };
        // 0 → le 0; 1 → le 1; 2 and 3 → le 3; 4 → le 7; 2³⁰−1 → the last
        // finite bound; 2³⁰ and u64::MAX → only +Inf. Counts accumulate.
        for (le, n) in [("0", 1), ("1", 2), ("3", 4), ("7", 5), ("15", 5)] {
            assert_eq!(bucket(le), n, "le={le}");
        }
        assert_eq!(bucket("536870911"), 5);
        assert_eq!(bucket("1073741823"), 6);
        assert_eq!(bucket("+Inf"), 8);
        let sum = samples.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        assert_eq!(exposition_value(&text, "abcdd_request_latency_us_sum"), sum);
        assert_eq!(exposition_value(&text, "abcdd_request_latency_us_count"), 8);

        // `stats` carries the same histogram, one count per bucket.
        let stats = Json::parse(&Snapshot::take(&sources, false).stats()).unwrap();
        let hist = stats.get("request_latency_us").unwrap();
        let buckets = hist.get("buckets").and_then(Json::as_arr).unwrap();
        let buckets: Vec<u64> = buckets.iter().map(|b| b.as_u64().unwrap()).collect();
        let mut expected = [0; BUCKETS];
        expected[..4].copy_from_slice(&[1, 1, 2, 1]);
        (expected[30], expected[31]) = (1, 2);
        assert_eq!(buckets, expected);
        assert_eq!(hist.get("sum").and_then(Json::as_u64), Some(sum));
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(8));

        // Deterministic: every sampled value reads 0 and the configuration
        // gauges keep their values.
        let text = Snapshot::take(&sources, true).exposition();
        let config = ["abcdd_workers 3", "abcdd_queue_capacity 8"];
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.ends_with(" 0") || config.contains(&line), "{line}");
        }
        for line in config {
            assert!(text.lines().any(|l| l == line), "{line} missing");
        }
    }

    /// Every registered series, with every label value, appears in both
    /// renderings of a live server with a cache and a chaos plan, and the
    /// exposition holds no other sample.
    #[test]
    fn every_series_and_label_value_is_in_stats_and_the_exposition() {
        let socket = std::env::temp_dir().join(format!("abcdd-reg-{}.sock", std::process::id()));
        let plan = ChaosPlan::parse("seed:1").unwrap();
        let mut config = crate::ServerConfig::new(&socket);
        config.cache = Some(std::sync::Arc::new(abcd::AnalysisCache::in_memory(1 << 20)));
        config.chaos = Some(std::sync::Arc::new(ChaosPlan::parse("seed:1").unwrap()));
        let handle = crate::start(config).unwrap();
        let endpoint = crate::Endpoint::uds(&socket);
        let stats = (0..200)
            .find_map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                crate::stats_at(&endpoint).ok()
            })
            .expect("server comes up");
        let text = crate::metrics_at(&endpoint, false).unwrap();
        crate::shutdown_at(&endpoint).unwrap();
        handle.join();

        let (registry, queue) = (Registry::new(), RunQueue::new(8, 1));
        let sources = Sources {
            registry: &registry,
            queue: &queue,
            cache: Some(CacheStats::default()),
            chaos: Some(&plan),
        };
        let has_line = |line: String| {
            let found = text.lines().any(|l| l.starts_with(&format!("{line} ")));
            assert!(found, "`{line}` missing from the exposition:\n{text}");
        };
        let mut samples = 0;
        for series in SERIES {
            let (name, key, kind, label, _) = *series;
            let n = len(series, &sources);
            assert!(n > 0, "{name} samples nothing");
            if kind == Log2 {
                for le in ["0", "1", "3", "1073741823", "+Inf"] {
                    has_line(format!("{name}_bucket{{le=\"{le}\"}}"));
                }
                has_line(format!("{name}_sum"));
                has_line(format!("{name}_count"));
                samples += BUCKETS + 2;
                let hist = stats
                    .get(key)
                    .unwrap_or_else(|| panic!("stats lacks {key}"));
                let buckets = hist
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .map(<[Json]>::len);
                assert_eq!(buckets, Some(BUCKETS), "{key}");
                for field in ["sum", "count"] {
                    assert!(
                        hist.get(field).and_then(Json::as_u64).is_some(),
                        "{key}.{field}"
                    );
                }
                continue;
            }
            for i in 0..n {
                let pair = label.pair(i);
                has_line(match &pair {
                    Some((label, value)) => format!("{name}{{{label}=\"{value}\"}}"),
                    None => name.to_string(),
                });
                samples += 1;
                let member = match label {
                    Single | Cache => key.to_string(),
                    _ => pair.unwrap().1,
                };
                let object = match label.group() {
                    None => Some(&stats),
                    Some(group) => stats.get(group),
                };
                let value = object.and_then(|o| o.get(&member)).and_then(Json::as_u64);
                assert!(value.is_some(), "stats lacks {member} ({name}): {stats:?}");
            }
        }
        let lines = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(lines, samples, "the exposition holds undeclared samples");
    }

    /// The cache series read the [`CacheStats`] field each is named for:
    /// `stats`' `cache` object equals `abcd-metrics/8`'s, and the
    /// exposition carries every field under its own name.
    #[test]
    fn cache_series_render_every_cache_stats_field() {
        let cache = CacheStats {
            hits: 1,
            misses: 2,
            stores: 3,
            evictions: 4,
            corrupt: 5,
            recovered: 6,
            write_errors: 7,
            disk_hits: 8,
            entries: 9,
            bytes: 10,
            budget_bytes: 11,
        };
        let (registry, queue) = (Registry::new(), RunQueue::new(0, 1));
        let sources = Sources {
            registry: &registry,
            queue: &queue,
            cache: Some(cache),
            chaos: None,
        };
        let snapshot = Snapshot::take(&sources, false);
        let object = |doc: &str| {
            let start = doc.find("\"cache\":{").expect("a cache object");
            doc[start..=start + doc[start..].find('}').unwrap()].to_string()
        };
        let run = abcd::RunInfo::new(1, std::time::Duration::ZERO).with_cache(cache);
        let metrics = abcd::module_metrics_json(&abcd::ModuleReport::default(), run);
        assert_eq!(object(&snapshot.stats()), object(&metrics));
        let text = snapshot.exposition();
        for (i, (field, value)) in cache.fields().into_iter().enumerate() {
            let line = match i < CacheStats::EVENTS {
                true => format!("abcdd_cache_events_total{{event=\"{field}\"}}"),
                false => format!("abcdd_cache_{field}"),
            };
            assert_eq!(exposition_value(&text, &line), value, "{line}");
        }
    }
}
