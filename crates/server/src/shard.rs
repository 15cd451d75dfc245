//! The sharded run queue: N shards, each with a bounded FIFO of admitted
//! connections, work-stealing between them, and queue-position
//! backpressure when every shard is full.
//!
//! # Admission
//!
//! The acceptor places each connection on the *least-loaded* shard
//! (queued + in-flight); ties break toward lower shard ids, so placement
//! is deterministic given load. When every shard is at capacity the
//! connection is not silently shed: it receives a **queue-position
//! reply** — `{"ok":false,"busy":true,"queued":P,"retry_after_ms":...}` —
//! where `P` is the backlog position the request would have held (total
//! queued + in-flight + 1). Clients treat it exactly like the old `busy`
//! reply (retry with backoff, hint as floor) but can scale their patience
//! with `queued` instead of guessing.
//!
//! # Stealing
//!
//! A worker that finds its own shard's queue empty steals the *oldest*
//! job from the deepest other shard. Stealing the queue front (not the
//! back, as in fork-join work stealing) is deliberate: jobs here are
//! independent requests with latency SLOs, so anti-starvation beats
//! locality — the oldest waiting request is exactly the one a freed-up
//! worker should rescue. Lock discipline: a worker never holds two queue
//! locks (it drops its own before probing siblings), so steal paths
//! cannot deadlock.

use crate::transport::Conn;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One admitted connection, waiting for a worker.
#[derive(Debug)]
pub(crate) struct Job {
    /// The connection; its request frame is still unread.
    pub conn: Conn,
    /// Admission time — deadlines and latency are measured from here.
    pub enqueued: Instant,
}

/// Locks a mutex, riding through poison (see `server::lock_tolerant`).
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-shard state: the bounded queue plus counters cheap enough to read
/// without the queue lock (gauges in `stats` / the exposition).
pub(crate) struct Shard {
    queue: Mutex<VecDeque<Job>>,
    /// Workers of this shard park here between jobs.
    available: Condvar,
    /// Mirror of `queue.len()`, readable without the lock.
    pub depth: AtomicUsize,
    /// Requests currently being processed by this shard's workers
    /// (including stolen ones — `busy` tracks the worker, not the job's
    /// home shard).
    pub busy: AtomicUsize,
    /// Jobs admitted to this shard.
    pub enqueued_total: AtomicU64,
    /// Jobs other shards' workers stole out of this queue.
    pub stolen_from: AtomicU64,
}

/// What `next_job` produced.
pub(crate) enum Dequeue {
    /// A job, plus whether it was stolen from another shard.
    Job(Job, bool),
    /// Nothing to do yet; the worker should re-check its detach flag.
    TimedOut,
    /// Shutdown is in progress and every queue is empty: exit.
    Drained,
}

/// The fixed set of shards behind one server.
pub(crate) struct ShardSet {
    shards: Vec<Shard>,
    /// Per-shard queue capacity. `0` is rendezvous admission: a job is
    /// admitted only when one of the shard's workers is idle.
    pub capacity: usize,
    pub workers_per_shard: usize,
    /// Total queue-position (backpressure) replies issued: one per shed
    /// connection.
    pub queued_replies: AtomicU64,
}

impl ShardSet {
    pub fn new(shards: usize, capacity: usize, workers_per_shard: usize) -> ShardSet {
        ShardSet {
            shards: (0..shards.max(1))
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    available: Condvar::new(),
                    depth: AtomicUsize::new(0),
                    busy: AtomicUsize::new(0),
                    enqueued_total: AtomicU64::new(0),
                    stolen_from: AtomicU64::new(0),
                })
                .collect(),
            capacity,
            workers_per_shard: workers_per_shard.max(1),
            queued_replies: AtomicU64::new(0),
        }
    }

    /// Total jobs stolen across shards: the sum of every shard's
    /// `stolen_from`.
    pub fn steals(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.stolen_from.load(Ordering::Relaxed))
            .sum()
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn shard(&self, id: usize) -> &Shard {
        &self.shards[id]
    }

    /// Queued connections across all shards (the admission gauge).
    pub fn total_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.depth.load(Ordering::SeqCst))
            .sum()
    }

    /// Queued + in-flight across all shards.
    pub fn total_load(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.depth.load(Ordering::SeqCst) + s.busy.load(Ordering::SeqCst))
            .sum()
    }

    /// The load of shard `id` as the admission policy sees it.
    fn load(&self, id: usize) -> usize {
        let s = &self.shards[id];
        s.depth.load(Ordering::SeqCst) + s.busy.load(Ordering::SeqCst)
    }

    /// True when shard `id` cannot admit another job right now.
    fn full(&self, id: usize) -> bool {
        let s = &self.shards[id];
        if self.capacity == 0 {
            // Rendezvous: admit only toward an idle worker.
            s.depth.load(Ordering::SeqCst) > 0
                || s.busy.load(Ordering::SeqCst) >= self.workers_per_shard
        } else {
            s.depth.load(Ordering::SeqCst) >= self.capacity
        }
    }

    /// Admits `job` to the least-loaded shard with room, or reports the
    /// backlog position for the queue-position reply.
    pub fn admit(&self, job: Job) -> Result<usize, (Job, usize)> {
        let mut best: Option<usize> = None;
        for id in 0..self.shards.len() {
            if self.full(id) {
                continue;
            }
            match best {
                Some(b) if self.load(b) <= self.load(id) => {}
                _ => best = Some(id),
            }
        }
        match best {
            Some(id) => {
                let shard = &self.shards[id];
                let mut queue = lock_tolerant(&shard.queue);
                queue.push_back(job);
                shard.depth.store(queue.len(), Ordering::SeqCst);
                shard.enqueued_total.fetch_add(1, Ordering::Relaxed);
                drop(queue);
                shard.available.notify_one();
                // A backlog on one shard while another idles resolves at
                // steal time; nudge a sibling so the wait is a wakeup,
                // not a poll timeout.
                if self.shards.len() > 1 && self.shards[id].depth.load(Ordering::SeqCst) > 1 {
                    self.shards[(id + 1) % self.shards.len()]
                        .available
                        .notify_one();
                }
                Ok(id)
            }
            None => {
                let position = self.total_load() + 1;
                self.queued_replies.fetch_add(1, Ordering::Relaxed);
                Err((job, position))
            }
        }
    }

    /// Produces the next job for a worker of shard `id`: its own queue
    /// first, then a steal from the deepest sibling, else a bounded park.
    /// On success the shard's `busy` gauge is already incremented; pair
    /// with [`ShardSet::finish`]. `drain` is the caller's shutdown
    /// verdict (stop requested *and* no acceptor can admit anymore):
    /// when it holds and every queue is empty, the worker should exit.
    pub fn next_job(&self, id: usize, drain: bool) -> Dequeue {
        let own = &self.shards[id];
        {
            let mut queue = lock_tolerant(&own.queue);
            if let Some(job) = queue.pop_front() {
                own.depth.store(queue.len(), Ordering::SeqCst);
                drop(queue);
                own.busy.fetch_add(1, Ordering::SeqCst);
                return Dequeue::Job(job, false);
            }
        }
        // Own queue empty: steal the oldest job from the deepest sibling.
        if self.shards.len() > 1 {
            let victim = (0..self.shards.len())
                .filter(|&v| v != id)
                .max_by_key(|&v| self.shards[v].depth.load(Ordering::SeqCst));
            if let Some(v) = victim {
                if self.shards[v].depth.load(Ordering::SeqCst) > 0 {
                    let shard = &self.shards[v];
                    let mut queue = lock_tolerant(&shard.queue);
                    if let Some(job) = queue.pop_front() {
                        shard.depth.store(queue.len(), Ordering::SeqCst);
                        drop(queue);
                        shard.stolen_from.fetch_add(1, Ordering::Relaxed);
                        own.busy.fetch_add(1, Ordering::SeqCst);
                        return Dequeue::Job(job, true);
                    }
                }
            }
        }
        if drain && self.total_depth() == 0 {
            return Dequeue::Drained;
        }
        // Park until a push (or a steal nudge) arrives; the timeout keeps
        // detach checks and drain detection responsive.
        let queue = lock_tolerant(&own.queue);
        if queue.is_empty() {
            let _ = own.available.wait_timeout(queue, Duration::from_millis(25));
        }
        Dequeue::TimedOut
    }

    /// Marks a worker of shard `id` idle again after a job.
    pub fn finish(&self, id: usize) {
        self.shards[id].busy.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes every parked worker (shutdown, so drains finish promptly).
    pub fn wake_all(&self) {
        for shard in &self.shards {
            shard.available.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    fn job() -> Job {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        // Leak the peer so the conn stays connected for the test's scope.
        std::mem::forget(_b);
        Job {
            conn: Conn::Uds(a),
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn admission_balances_and_backpressures_with_position() {
        let set = ShardSet::new(2, 1, 1);
        assert_eq!(set.admit(job()).unwrap(), 0);
        assert_eq!(set.admit(job()).unwrap(), 1, "least-loaded placement");
        match set.admit(job()) {
            Err((_, position)) => assert_eq!(position, 3, "backlog position"),
            Ok(id) => panic!("should be full, admitted to {id}"),
        }
        assert_eq!(set.queued_replies.load(Ordering::Relaxed), 1);
        assert_eq!(set.total_depth(), 2);
    }

    #[test]
    fn workers_steal_the_oldest_job_from_the_deepest_sibling() {
        let set = ShardSet::new(2, 8, 1);
        for _ in 0..3 {
            set.admit(job()).unwrap();
        }
        // Shard 1 holds one job, shard 0 holds two; a shard-1 worker
        // first drains its own queue, then steals from shard 0.
        assert!(matches!(set.next_job(1, false), Dequeue::Job(_, false)));
        assert!(matches!(set.next_job(1, false), Dequeue::Job(_, true)));
        assert_eq!(set.steals(), 1);
        assert_eq!(set.shard(0).stolen_from.load(Ordering::Relaxed), 1);
        assert!(matches!(set.next_job(0, false), Dequeue::Job(_, false)));
        // Empty everywhere + drain requested = drained.
        assert!(matches!(set.next_job(0, true), Dequeue::Drained));
    }

    #[test]
    fn rendezvous_capacity_admits_only_toward_idle_workers() {
        let set = ShardSet::new(1, 0, 1);
        set.admit(job()).unwrap();
        let Dequeue::Job(_job, _) = set.next_job(0, false) else {
            panic!("job expected");
        };
        // Worker busy, queue empty: rendezvous refuses the next one.
        assert!(set.admit(job()).is_err());
        set.finish(0);
        assert!(set.admit(job()).is_ok());
    }
}
