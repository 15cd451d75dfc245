//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around calls into the program's
//! public functions, never inside the program. Each span carries its name,
//! start, end, parent and request id. Spans stay in memory and are written
//! out as JSON lines when the run ends.
//!
//! Self time and self allocations are accumulated online as spans close: a
//! span's self time is its duration minus the time its child spans cover,
//! and likewise for allocations counted by `abcd_alloc`. All buffers are
//! reserved up front, so recording a span allocates nothing and never
//! shows up in a parent's allocation count.

use std::io::Write as _;
use std::time::Instant;

/// Spans kept for the JSON-lines file; later spans still count towards
/// the per-layer totals.
const SPAN_CAP: usize = 1 << 18;
/// Distinct span names and nesting depth the recorder reserves room for.
const NAMES_CAP: usize = 64;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Span id, unique within one recorder.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// `<layer>.<call>`, e.g. `graph.build`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The workload operation (request) the span belongs to.
    pub request: u64,
}

/// Accumulated totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Acc {
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time child spans cover.
    pub self_ns: u64,
    /// Allocations inside the spans minus those inside child spans.
    pub self_allocs: u64,
}

impl Acc {
    fn add(&mut self, other: &Acc) {
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.self_allocs += other.self_allocs;
    }
}

struct Open {
    id: u32,
    start: Instant,
    child_ns: u64,
    allocs_at_start: u64,
    child_allocs: u64,
}

/// Records spans when enabled; when disabled, [`Tracer::span`] just calls
/// its closure, so traced and untraced runs execute the same code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    request: u64,
    next_id: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    accs: Vec<(&'static str, Acc)>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        let cap = |n: usize| if on { n } else { 0 };
        Tracer {
            on,
            epoch: Instant::now(),
            request: 0,
            next_id: 0,
            stack: Vec::with_capacity(cap(NAMES_CAP)),
            spans: Vec::with_capacity(cap(SPAN_CAP)),
            dropped: 0,
            accs: Vec::with_capacity(cap(NAMES_CAP)),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Tags the spans that follow with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        assert!(self.stack.len() < NAMES_CAP, "span nesting too deep");
        self.stack.push(Open {
            id,
            start: Instant::now(),
            child_ns: 0,
            allocs_at_start: abcd_alloc::snapshot().allocs,
            child_allocs: 0,
        });
        let out = f(self);
        let end = Instant::now();
        let allocs = abcd_alloc::snapshot().allocs;
        let open = self.stack.pop().expect("span stack holds the open span");
        let dur = ns(end.duration_since(open.start));
        let allocs = allocs - open.allocs_at_start;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.child_allocs += allocs;
            p.id
        });
        let acc = self.acc_mut(name);
        acc.total_ns += dur;
        acc.self_ns += dur.saturating_sub(open.child_ns);
        acc.self_allocs += allocs.saturating_sub(open.child_allocs);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns: ns(open.start.duration_since(self.epoch)),
                end_ns: ns(end.duration_since(self.epoch)),
                request: self.request,
            });
        } else {
            self.dropped += 1;
        }
        out
    }

    fn acc_mut(&mut self, name: &'static str) -> &mut Acc {
        let at = match self.accs.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                assert!(self.accs.len() < NAMES_CAP, "too many span names");
                self.accs.push((name, Acc::default()));
                self.accs.len() - 1
            }
        };
        &mut self.accs[at].1
    }

    /// Totals of the spans named exactly `name`.
    pub fn get(&self, name: &str) -> Acc {
        self.sum(|n| n == name)
    }

    /// Totals of every span of `layer` (names `layer.*`).
    pub fn layer(&self, layer: &str) -> Acc {
        self.sum(|n| {
            n.strip_prefix(layer)
                .is_some_and(|rest| rest.starts_with('.'))
        })
    }

    fn sum(&self, pick: impl Fn(&str) -> bool) -> Acc {
        let mut total = Acc::default();
        for (_, acc) in self.accs.iter().filter(|(n, _)| pick(n)) {
            total.add(acc);
        }
        total
    }

    /// A copy of the current totals, to diff against later.
    pub fn totals(&self) -> Tracer {
        Tracer {
            on: false,
            epoch: self.epoch,
            request: 0,
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            accs: self.accs.clone(),
        }
    }

    /// The totals accumulated since `earlier` (a [`Tracer::totals`] copy).
    pub fn since(&self, earlier: &Tracer) -> Tracer {
        let mut diff = self.totals();
        for (name, acc) in &mut diff.accs {
            let before = earlier.get(name);
            acc.total_ns -= before.total_ns;
            acc.self_ns -= before.self_ns;
            acc.self_allocs -= before.self_allocs;
        }
        diff
    }

    /// Folds another recorder (e.g. one client thread's) into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, acc) in &other.accs {
            self.acc_mut(name).add(acc);
        }
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        let offset = self.next_id;
        let shift = |id: u32| id + offset;
        self.spans
            .extend(other.spans.iter().take(room).map(|s| Span {
                id: shift(s.id),
                parent: s.parent.map(shift),
                ..*s
            }));
        self.dropped += other.dropped + other.spans.len().saturating_sub(room) as u64;
        self.next_id += other.next_id;
    }

    /// Writes every kept span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"schema\":\"perfbench-trace/1\",\"spans\":{},\"dropped\":{}}}",
            self.spans.len(),
            self.dropped
        )?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                s.id,
                abcd::json_escape(s.name),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        out.flush()
    }
}

/// A duration in whole nanoseconds.
pub fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
