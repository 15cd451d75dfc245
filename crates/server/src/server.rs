//! The `abcdd` daemon: a sharded, bounded-admission optimization service
//! over Unix-domain sockets and TCP, with work-stealing between shards.
//!
//! # Architecture
//!
//! ```text
//!              accept()                admit (least-loaded)
//!   clients ─────────────► acceptor ───────────────────────► shard 0 ─ worker × W
//!        (UDS and/or TCP,     │  all shards full?            shard 1 ─ worker × W
//!         one thread each)    └─► queue-position reply          ⋮    (steal ⇄)
//!                                 and close                   shard N-1
//!                                                                │
//!                                          supervisor ──────────┘
//!                                          (respawn / kick / detach)
//! ```
//!
//! Each listener gets an acceptor thread that *only* accepts: admission is
//! a lock-light placement onto the least-loaded shard's bounded queue, so
//! overload is detected without reading a byte of the request. When every
//! shard is full the connection is answered with a **queue-position
//! reply** (`{"queued":P,"retry_after_ms":...}`, still `busy:true` for v1
//! clients) instead of being silently shed. Workers own the whole request
//! lifecycle (read frame → parse → optimize → write frame(s)); an idle
//! worker **steals** the oldest job from the deepest sibling shard, so one
//! hot shard cannot starve requests while others idle. All shards share
//! one [`AnalysisCache`] (lock-striped per shard), so a function optimized
//! for any client is a cache hit for every later client on any transport.
//!
//! # Protocol v2
//!
//! A request frame holding a JSON array is a pipelined batch: the worker
//! serves each element in order, streaming one reply frame per element
//! over the same connection, with per-element deadlines measured from the
//! connection's admission (see `proto`).
//!
//! # Supervision
//!
//! A supervisor thread watches every worker. A worker that *panicked* is
//! reaped and respawned, and its in-flight connection — registered in a
//! per-worker slot before any fallible work — receives a structured error
//! instead of a silent hangup (`worker_restarts`). A worker *stuck* past
//! [`ServerConfig::stuck_after`] first has its connection shut down, which
//! unwedges anything blocked on socket IO (`worker_kicks`); if it stays
//! wedged well past that — stuck in compute, which no signal can
//! interrupt — the thread is detached and a replacement takes its slot, so
//! capacity recovers even from a runaway request.
//!
//! # Deadlines
//!
//! Requests may carry `deadline_ms`, or inherit
//! [`ServerConfig::request_timeout`]. A tripped deadline **fails open**:
//! the reply is the compiled but unoptimized module — every bounds check
//! kept, correctness untouched — with a non-degraded `deadline_exceeded`
//! incident. In a batch the deadline trips per element; later elements
//! are served normally. Socket reads and writes are additionally bounded
//! by [`ServerConfig::io_timeout`], so a stalled peer cannot pin a worker.
//!
//! # Fault injection
//!
//! An armed [`ChaosPlan`] injects failures at the service layer: worker
//! panics, truncated and slow-trickled response frames, and mid-request
//! disconnects (disk faults live in the cache layer). Decisions are
//! deterministic per `(seed, site, sequence)`, so a chaos soak is
//! replayable. Production servers run with no plan; the code paths chaos
//! exercises are the same ones real faults take.
//!
//! # Shutdown
//!
//! A `shutdown` request sets the stop flag, then self-connects to every
//! listener to wake the acceptors out of their blocking `accept`. The
//! acceptors exit; workers drain every request already admitted (the
//! graceful part), then — once the queues are empty and no acceptor can
//! admit more — exit. The supervisor reaps them and exits last;
//! [`ServerHandle::join`] observes all of it.

use crate::proto::{
    error_response, ok_response, parse_request, queued_response, read_frame, write_frame,
    OptimizeRequest, Request,
};
use crate::registry::{self, Registry, Snapshot, Sources};
use crate::shard::{Dequeue, Job, ShardSet};
use crate::transport::{self, Conn, ListenAddr, Listener};
use abcd::{
    module_metrics_json, AnalysisCache, ChaosPlan, ChaosSite, ModuleReport, Optimizer, RunInfo,
};
use abcd_frontend::compile;
use abcd_ir::Module;
use std::io::Write as _;
use std::net::Shutdown;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Floor of the adaptive busy hint (an empty queue still advises a pause).
const BUSY_HINT_BASE_MS: u64 = 5;
/// Ceiling of the adaptive busy hint.
const BUSY_HINT_CAP_MS: u64 = 500;

/// The advisory retry delay for a shed connection, scaled by the backlog
/// observed at shed time: a deeper backlog advises a longer pause, so a
/// thundering herd spreads out instead of re-colliding.
fn busy_hint_ms(backlog: usize) -> u64 {
    (BUSY_HINT_BASE_MS * (backlog as u64 + 1)).clamp(BUSY_HINT_BASE_MS, BUSY_HINT_CAP_MS)
}

/// Configuration for [`start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Addresses to listen on — any mix of UDS paths and TCP binds, all
    /// served concurrently by the same shard set.
    pub listen: Vec<ListenAddr>,
    /// Number of shards; each owns a worker pool and a bounded run queue.
    pub shards: usize,
    /// Worker threads *per shard* handling requests concurrently.
    pub workers: usize,
    /// Bounded admission-queue depth *per shard*; `0` means a worker of
    /// that shard must be idle at connect time (rendezvous), anything
    /// else queues that many requests.
    pub queue: usize,
    /// `Optimizer::with_threads` parallelism *within* one request.
    pub jobs: usize,
    /// Shared analysis cache, if caching is enabled.
    pub cache: Option<Arc<AnalysisCache>>,
    /// Default deadline for requests that carry no `deadline_ms`; `None`
    /// means requests without their own deadline run unbounded.
    pub request_timeout: Option<Duration>,
    /// Socket read/write timeout for request and response frames; `None`
    /// disables it (a stalled peer then relies on supervision kicks).
    pub io_timeout: Option<Duration>,
    /// Supervision threshold: an in-flight request older than this gets
    /// its connection kicked; one older than four times this gets its
    /// worker detached and replaced.
    pub stuck_after: Duration,
    /// Fault-injection schedule; `None` (production) injects nothing.
    pub chaos: Option<Arc<ChaosPlan>>,
}

impl ServerConfig {
    /// A single-shard, single-worker server on UDS `socket` with library
    /// defaults.
    pub fn new(socket: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            listen: vec![ListenAddr::Uds(socket.into())],
            shards: 1,
            workers: 1,
            queue: 8,
            jobs: 0,
            cache: None,
            request_timeout: None,
            io_timeout: Some(Duration::from_secs(30)),
            stuck_after: Duration::from_secs(30),
            chaos: None,
        }
    }
}

struct Shared {
    config: ServerConfig,
    stop: AtomicBool,
    registry: Registry,
    shards: ShardSet,
    /// The addresses actually bound (TCP ephemeral ports resolved) —
    /// what shutdown wakes and [`ServerHandle::endpoints`] reports.
    resolved: Vec<ListenAddr>,
    /// Acceptor threads still running; drain completes only at zero, so
    /// a connection admitted concurrently with shutdown is never orphaned.
    acceptors_live: AtomicUsize,
    /// Pooled analysis scratch, one pool per shard: arenas warmed by one
    /// request serve the next on the same shard, so steady-state
    /// re-optimization allocates nothing on the prove path and shards
    /// never contend on the pool mutex.
    scratch: Vec<Arc<abcd::ScratchPool>>,
}

/// Locks a mutex, riding through poison: a worker that panicked while
/// holding a shared lock must not take its siblings down with it — the
/// protected state (an inflight slot) stays coherent across an unwind.
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a worker is doing right now, registered *before* any fallible
/// work so the supervisor can always fail the request cleanly.
struct Inflight {
    started: Instant,
    /// A clone of the connection, so a rescue can answer even after the
    /// worker's own handle unwound.
    conn: Option<Conn>,
    /// The supervisor already shut this connection down.
    kicked: bool,
}

/// Per-worker state shared between the worker thread and the supervisor.
#[derive(Default)]
struct SlotState {
    inflight: Mutex<Option<Inflight>>,
    /// Set by the worker as its last act on a clean exit; a finished
    /// thread that never set it panicked.
    done: AtomicBool,
    /// Set by the supervisor when it has replaced this worker; the
    /// (possibly stuck) thread exits at its next loop top.
    detached: AtomicBool,
}

/// A supervised worker: its thread handle, shared slot, and home shard.
struct WorkerCell {
    handle: Option<std::thread::JoinHandle<()>>,
    slot: Arc<SlotState>,
    shard: usize,
}

/// A running server; join or drop to clean up the socket files.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptors: Vec<std::thread::JoinHandle<()>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The first Unix-domain socket path the server listens on, if any.
    pub fn socket(&self) -> Option<&std::path::Path> {
        self.shared.resolved.iter().find_map(|a| match a {
            ListenAddr::Uds(p) => Some(p.as_path()),
            ListenAddr::Tcp(_) => None,
        })
    }

    /// The first TCP address the server listens on (ephemeral ports
    /// resolved to the real port), if any.
    pub fn tcp_addr(&self) -> Option<&str> {
        self.shared.resolved.iter().find_map(|a| match a {
            ListenAddr::Tcp(addr) => Some(addr.as_str()),
            ListenAddr::Uds(_) => None,
        })
    }

    /// Every address actually bound, TCP ports resolved.
    pub fn endpoints(&self) -> &[ListenAddr] {
        &self.shared.resolved
    }

    /// Blocks until the server has shut down and every admitted request
    /// has been answered. The supervisor reaps the workers.
    pub fn join(mut self) {
        for a in self.acceptors.drain(..) {
            let _ = a.join();
        }
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
    }

    /// True once a `shutdown` request has been accepted.
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        for addr in &self.shared.resolved {
            if let ListenAddr::Uds(path) = addr {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// Starts the daemon: binds every listener, spawns the acceptors, shard
/// workers and supervisor, and returns immediately.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    if config.listen.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "no listen addresses",
        ));
    }
    let mut listeners = Vec::with_capacity(config.listen.len());
    for addr in &config.listen {
        listeners.push(Listener::bind(addr)?);
    }
    let resolved: Vec<ListenAddr> = listeners.iter().map(Listener::resolved).collect();
    let shard_count = config.shards.max(1);
    let workers = config.workers.max(1);
    if let (Some(cache), Some(plan)) = (&config.cache, &config.chaos) {
        cache.set_chaos(Arc::clone(plan));
    }
    let shards = ShardSet::new(shard_count, config.queue, workers);
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        registry: Registry::new(),
        shards,
        resolved,
        acceptors_live: AtomicUsize::new(listeners.len()),
        scratch: (0..shard_count)
            .map(|_| Arc::new(abcd::ScratchPool::new()))
            .collect(),
        config,
    });

    let cells: Vec<WorkerCell> = (0..shard_count)
        .flat_map(|shard| (0..workers).map(move |_| shard))
        .map(|shard| spawn_worker(&shared, shard))
        .collect();
    let supervisor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || supervise(&shared, cells))
    };
    let acceptors = listeners
        .into_iter()
        .map(|listener| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, listener))
        })
        .collect();
    Ok(ServerHandle {
        shared,
        acceptors,
        supervisor: Some(supervisor),
    })
}

fn spawn_worker(shared: &Arc<Shared>, shard: usize) -> WorkerCell {
    let slot = Arc::new(SlotState::default());
    let handle = {
        let shared = Arc::clone(shared);
        let slot = Arc::clone(&slot);
        std::thread::spawn(move || worker_loop(&shared, shard, &slot))
    };
    WorkerCell {
        handle: Some(handle),
        slot,
        shard,
    }
}

/// The monitor loop: respawns panicked workers (rescuing their in-flight
/// request), kicks the connections of stuck ones, and detaches workers
/// wedged in compute. Exits once every worker has finished, which only
/// happens after shutdown drains the queues.
fn supervise(shared: &Arc<Shared>, mut cells: Vec<WorkerCell>) {
    loop {
        let mut alive = false;
        for cell in &mut cells {
            let Some(handle) = cell.handle.as_ref() else {
                continue;
            };
            if handle.is_finished() {
                let clean = cell.slot.done.load(Ordering::SeqCst);
                if let Some(h) = cell.handle.take() {
                    let _ = h.join();
                }
                if !clean {
                    rescue_inflight(shared, cell, "worker panicked; request failed");
                    shared.registry.inc(registry::WORKER_RESTARTS);
                    *cell = spawn_worker(shared, cell.shard);
                    alive = true;
                }
                continue;
            }
            alive = true;
            let detach = {
                let mut guard = lock_tolerant(&cell.slot.inflight);
                match guard.as_mut() {
                    Some(inf) => {
                        let elapsed = inf.started.elapsed();
                        if !inf.kicked && elapsed > shared.config.stuck_after {
                            // Unwedge anything blocked on socket IO; the
                            // request fails with a structured IO error.
                            if let Some(c) = &inf.conn {
                                let _ = c.shutdown(Shutdown::Both);
                            }
                            inf.kicked = true;
                            shared.registry.inc(registry::WORKER_KICKS);
                        }
                        // Kicked and *still* wedged: stuck in compute,
                        // which nothing can interrupt — abandon the thread
                        // and recover the slot's capacity.
                        inf.kicked && elapsed > shared.config.stuck_after * 4
                    }
                    None => false,
                }
            };
            if detach {
                cell.slot.detached.store(true, Ordering::SeqCst);
                drop(cell.handle.take()); // never joined; exits on its own if it ever unsticks
                shared.registry.inc(registry::WORKER_RESTARTS);
                *cell = spawn_worker(shared, cell.shard);
            }
        }
        if !alive {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Answers a rescued worker's in-flight connection with a structured
/// error so the client sees a reply, not a hangup. The panicked worker
/// never reached [`ShardSet::finish`], so the shard's busy gauge is
/// rebalanced here.
fn rescue_inflight(shared: &Shared, cell: &WorkerCell, message: &str) {
    if let Some(mut inf) = lock_tolerant(&cell.slot.inflight).take() {
        if let Some(conn) = inf.conn.as_mut() {
            let _ = write_frame(conn, error_response(message).as_bytes());
            let _ = conn.shutdown(Shutdown::Both);
        }
        shared.registry.inc(registry::ERRORS);
        shared.shards.finish(cell.shard);
    }
}

fn accept_loop(shared: &Shared, listener: Listener) {
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept errors (EMFILE, aborted handshake):
                // don't spin, don't die.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            // `conn` is the self-connect wake-up (or a late client).
            break;
        }
        shared.registry.inc(registry::ACCEPTED);
        let job = Job {
            conn,
            enqueued: Instant::now(),
        };
        if let Err((job, position)) = shared.shards.admit(job) {
            let hint = busy_hint_ms(shared.shards.total_load());
            // Backpressure without reading the request: tiny frame, the
            // socket buffer absorbs it even if the client is mid-write.
            let mut conn = job.conn;
            let _ = write_frame(&mut conn, queued_response(position as u64, hint).as_bytes());
        }
    }
    shared.acceptors_live.fetch_sub(1, Ordering::SeqCst);
}

fn worker_loop(shared: &Shared, shard: usize, slot: &SlotState) {
    loop {
        if slot.detached.load(Ordering::SeqCst) {
            // Replaced by the supervisor while we were wedged; our slot
            // already has a new owner.
            return;
        }
        // Drain only once no acceptor can admit another connection, so a
        // job admitted concurrently with shutdown is still served.
        let drain =
            shared.stop.load(Ordering::SeqCst) && shared.acceptors_live.load(Ordering::SeqCst) == 0;
        match shared.shards.next_job(shard, drain) {
            Dequeue::TimedOut => continue,
            Dequeue::Drained => break,
            Dequeue::Job(job, _stolen) => {
                serve_job(shared, shard, slot, job);
                shared.shards.finish(shard);
            }
        }
    }
    slot.done.store(true, Ordering::SeqCst);
}

/// Serves one admitted connection end to end: inflight registration,
/// chaos, dispatch, reply frame(s), latency accounting.
fn serve_job(shared: &Shared, shard: usize, slot: &SlotState, job: Job) {
    let Job { mut conn, enqueued } = job;
    let depth = shared.shards.total_depth() as u64;
    shared
        .registry
        .observe(registry::QUEUE_DEPTH_AT_DEQUEUE, depth);
    // Register the request before any fallible work, so a panic anywhere
    // below still gets the client a structured error.
    *lock_tolerant(&slot.inflight) = Some(Inflight {
        started: Instant::now(),
        conn: conn.try_clone().ok(),
        kicked: false,
    });
    if let Some(t) = shared.config.io_timeout {
        let _ = conn.set_read_timeout(Some(t));
        let _ = conn.set_write_timeout(Some(t));
    }
    let chaos = shared.config.chaos.as_deref();
    if chaos.is_some_and(|p| p.decide(ChaosSite::Disconnect)) {
        // Simulated mid-request disconnect: hang up without reading a
        // byte; the client sees EOF where a reply should be.
        let _ = conn.shutdown(Shutdown::Both);
        shared.registry.inc(registry::ERRORS);
        *lock_tolerant(&slot.inflight) = None;
        return;
    }
    if chaos.is_some_and(|p| p.decide(ChaosSite::WorkerPanic)) {
        panic!("chaos: injected worker panic");
    }
    handle_connection(shared, shard, &mut conn, enqueued);
    *lock_tolerant(&slot.inflight) = None;
    let latency_us = enqueued.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    shared
        .registry
        .observe(registry::REQUEST_LATENCY_US, latency_us);
}

/// Writes one response frame, applying frame-level chaos when armed:
/// `frame_truncate` advertises the full length but delivers half and
/// hangs up; `frame_slow` delivers an intact frame in dribbled chunks.
fn write_response(shared: &Shared, conn: &mut Conn, response: &str) -> std::io::Result<()> {
    let payload = response.as_bytes();
    if let Some(plan) = &shared.config.chaos {
        if plan.decide(ChaosSite::FrameTruncate) {
            let len = u32::try_from(payload.len()).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large")
            })?;
            conn.write_all(&len.to_be_bytes())?;
            conn.write_all(&payload[..payload.len() / 2])?;
            conn.flush()?;
            let _ = conn.shutdown(Shutdown::Both);
            return Err(std::io::Error::other("chaos: truncated response frame"));
        }
        if let Some(seed) = plan.decide_seeded(ChaosSite::FrameSlow) {
            let len = u32::try_from(payload.len()).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large")
            })?;
            conn.write_all(&len.to_be_bytes())?;
            let chunk = 64 + (seed as usize % 193);
            for (i, part) in payload.chunks(chunk).enumerate() {
                // Pause between early chunks only, so big frames bound the
                // added latency instead of scaling it.
                if i > 0 && i <= 16 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                conn.write_all(part)?;
            }
            return conn.flush();
        }
    }
    write_frame(conn, payload)
}

/// Reads, parses and dispatches one request frame, writing every reply
/// frame; every outcome is answered (the server never drops a connection
/// silently). A v2 batch streams one reply per element, in order.
fn handle_connection(shared: &Shared, shard: usize, conn: &mut Conn, enqueued: Instant) {
    let payload = match read_frame(conn) {
        Ok(p) => p,
        Err(e) => {
            shared.registry.inc(registry::ERRORS);
            let _ = write_response(shared, conn, &error_response(&format!("bad frame: {e}")));
            return;
        }
    };
    let request = match parse_request(&payload) {
        Ok(r) => r,
        Err(e) => {
            shared.registry.inc(registry::ERRORS);
            let _ = write_response(shared, conn, &error_response(&e));
            return;
        }
    };
    let response = match request {
        Request::Batch(reqs) => {
            for req in &reqs {
                let reply = optimize_reply(shared, shard, req, enqueued);
                if write_response(shared, conn, &reply).is_err() {
                    // The stream is broken; later elements cannot be
                    // delivered in order, so stop rather than desync.
                    shared.registry.inc(registry::ERRORS);
                    return;
                }
            }
            return;
        }
        Request::Ping => {
            shared.registry.inc(registry::SERVED);
            "{\"ok\":true,\"pong\":true}".to_string()
        }
        Request::Stats => {
            shared.registry.inc(registry::SERVED);
            snapshot(shared, false).stats()
        }
        Request::Metrics { deterministic } => {
            shared.registry.inc(registry::SERVED);
            let text = abcd::json_escape(&snapshot(shared, deterministic).exposition());
            format!("{{\"ok\":true,\"exposition\":\"{text}\"}}")
        }
        Request::Sleep(ms) => {
            // Diagnostic: lets tests pin a worker deterministically to
            // exercise the busy path. Capped at parse time.
            std::thread::sleep(std::time::Duration::from_millis(ms));
            shared.registry.inc(registry::SERVED);
            "{\"ok\":true,\"slept\":true}".to_string()
        }
        Request::Shutdown => {
            shared.stop.store(true, Ordering::SeqCst);
            // Wake every acceptor out of its blocking accept(), and every
            // parked worker so the drain check runs promptly.
            for addr in &shared.resolved {
                transport::wake(addr);
            }
            shared.shards.wake_all();
            shared.registry.inc(registry::SERVED);
            "{\"ok\":true,\"shutting_down\":true}".to_string()
        }
        Request::Optimize(req) => optimize_reply(shared, shard, &req, enqueued),
    };
    if write_response(shared, conn, &response).is_err() {
        shared.registry.inc(registry::ERRORS);
    }
}

/// Samples every series of the registry; see [`Snapshot::take`].
fn snapshot(shared: &Shared, deterministic: bool) -> Snapshot {
    let sources = Sources {
        registry: &shared.registry,
        shards: &shared.shards,
        cache: shared.config.cache.as_ref().map(|cache| cache.stats()),
        chaos: shared.config.chaos.as_deref(),
    };
    Snapshot::take(&sources, deterministic)
}

/// Serves one optimize request, counting it as served or as an error.
fn optimize_reply(shared: &Shared, shard: usize, req: &OptimizeRequest, at: Instant) -> String {
    let reply = handle_optimize(shared, shard, req, at);
    shared.registry.inc(match reply {
        Ok(_) => registry::SERVED,
        Err(_) => registry::ERRORS,
    });
    reply.unwrap_or_else(|e| error_response(&e))
}

fn handle_optimize(
    shared: &Shared,
    shard: usize,
    req: &OptimizeRequest,
    enqueued: Instant,
) -> Result<String, String> {
    let front = || -> Result<Module, String> {
        match (&req.source, &req.ir) {
            (Some(src), None) => compile(src).map_err(|e| format!("compile: {e}")),
            (None, Some(ir)) => abcd::parse_ir(ir).map_err(|e| format!("parse: {e}")),
            _ => unreachable!("validated by parse_request"),
        }
    };
    let deadline_ms = deadline_ms(shared, req);
    let over_deadline = |d: u64| enqueued.elapsed() > Duration::from_millis(d);
    let mut module = front()?;
    if let Some(d) = deadline_ms {
        if over_deadline(d) {
            // Blown before analysis even started (queueing, slow read):
            // serve the module as compiled, every check kept.
            return Ok(deadline_reply(shared, req, &module, d, enqueued));
        }
    }
    let mut optimizer = Optimizer::with_options(req.options)
        .with_threads(shared.config.jobs)
        .with_trace(req.trace)
        .with_scratch_pool(Arc::clone(&shared.scratch[shard]));
    if let Some(cache) = &shared.config.cache {
        optimizer = optimizer.with_cache(Arc::clone(cache));
    }
    let threads = optimizer.threads();
    let started = Instant::now();
    let report = optimizer.optimize_module(&mut module, req.profile.as_ref());
    let wall = started.elapsed();
    if let Some(d) = deadline_ms {
        if over_deadline(d) {
            // The optimized result arrived late; the deadline contract
            // promises fail-open, so re-derive the unoptimized module
            // (cheap next to the optimization that just overran) and
            // serve that instead.
            let module = front()?;
            return Ok(deadline_reply(shared, req, &module, d, enqueued));
        }
    }
    let run = RunInfo::new(threads, wall);
    Ok(reply(shared, req, &module, &report, run, false, enqueued))
}

/// Builds the fail-open reply for a blown deadline: the module exactly as
/// the front end produced it, a non-degraded `deadline_exceeded` incident,
/// and the `deadline_exceeded` response flag.
fn deadline_reply(
    shared: &Shared,
    req: &OptimizeRequest,
    module: &Module,
    deadline_ms: u64,
    enqueued: Instant,
) -> String {
    shared.registry.inc(registry::DEADLINE_EXCEEDED);
    let elapsed_ms = if req.deterministic_metrics {
        0
    } else {
        enqueued.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
    };
    let report = ModuleReport::deadline_fail_open(module, deadline_ms, elapsed_ms);
    let run = RunInfo::new(1, Duration::ZERO);
    reply(shared, req, module, &report, run, true, enqueued)
}

/// Renders the `ok` reply for `module` with the trace and metrics documents
/// the request asked for; `fail_open` marks a blown deadline.
fn reply(
    shared: &Shared,
    req: &OptimizeRequest,
    module: &Module,
    report: &ModuleReport,
    mut run: RunInfo,
    fail_open: bool,
    enqueued: Instant,
) -> String {
    let ir = module.to_string();
    let det = req.deterministic_metrics;
    let (depth, deadline) = (shared.shards.total_depth(), deadline_ms(shared, req));
    let trace = req.trace.then(|| {
        let mut doc = abcd::module_trace_jsonl(report, run.threads, det);
        doc += &abcd::request_span_jsonl(depth, enqueued.elapsed(), deadline, det);
        doc
    });
    let metrics = req.metrics.then(|| {
        run.cache = shared.config.cache.as_ref().map(|cache| cache.stats());
        run.queue_depth = Some(depth);
        run.request_latency = Some(enqueued.elapsed());
        run.deterministic = det;
        module_metrics_json(report, run)
    });
    ok_response(&ir, report, fail_open, trace.as_deref(), metrics.as_deref())
}

/// The request's deadline, or the server's default.
fn deadline_ms(shared: &Shared, req: &OptimizeRequest) -> Option<u64> {
    req.deadline_ms
        .or_else(|| shared.config.request_timeout.map(|d| d.as_millis() as u64))
}
