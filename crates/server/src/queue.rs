//! The run queue: one bounded FIFO of admitted connections that every
//! worker takes from, with queue-position backpressure when it is full.
//!
//! # Admission
//!
//! The acceptor appends each connection to the queue. When the queue is
//! full the connection is not silently shed: it receives a
//! **queue-position reply** —
//! `{"ok":false,"busy":true,"queued":P,"retry_after_ms":...}` — where `P`
//! is the backlog position the request would have held (queued +
//! in-flight + 1). Clients treat it exactly like the old `busy` reply
//! (retry with backoff, hint as floor) but can scale their patience with
//! `queued` instead of guessing. A capacity of `0` is rendezvous
//! admission: a connection is admitted only while a worker is idle.
//!
//! Because every worker takes from the same queue, a request never waits
//! while a worker idles, and the oldest waiting request is always the
//! next one served.

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

/// What [`RunQueue::next_job`] produced.
pub(crate) enum Dequeue {
    /// The oldest admitted job.
    Job(Job),
    /// Nothing to do yet; the worker should re-check its detach flag.
    TimedOut,
    /// Shutdown is in progress and the queue is empty: exit.
    Drained,
}

/// The bounded queue behind one server, plus the gauges `stats` reads.
pub(crate) struct RunQueue {
    queue: Mutex<VecDeque<Job>>,
    /// Idle workers park here between jobs.
    available: Condvar,
    /// Requests currently being processed.
    pub busy: AtomicUsize,
    /// Queue capacity. `0` is rendezvous admission: a job is admitted
    /// only when a worker is idle.
    pub capacity: usize,
    pub workers: usize,
    /// Total queue-position (backpressure) replies issued: one per shed
    /// connection.
    pub queued_replies: AtomicU64,
}

impl RunQueue {
    pub fn new(capacity: usize, workers: usize) -> RunQueue {
        RunQueue {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            busy: AtomicUsize::new(0),
            capacity,
            workers: workers.max(1),
            queued_replies: AtomicU64::new(0),
        }
    }

    /// Queued connections (the admission gauge).
    pub fn depth(&self) -> usize {
        lock_tolerant(&self.queue).len()
    }

    /// Admits `job`, or returns it with the backlog position for the
    /// queue-position reply.
    pub fn admit(&self, job: Job) -> Result<(), (Job, usize)> {
        let mut queue = lock_tolerant(&self.queue);
        let busy = self.busy.load(Ordering::SeqCst);
        let full = match self.capacity {
            // Rendezvous: admit only toward an idle worker.
            0 => !queue.is_empty() || busy >= self.workers,
            capacity => queue.len() >= capacity,
        };
        if full {
            let position = queue.len() + busy + 1;
            self.queued_replies.fetch_add(1, Ordering::Relaxed);
            return Err((job, position));
        }
        queue.push_back(job);
        drop(queue);
        self.available.notify_one();
        Ok(())
    }

    /// Produces the next job for a worker, else parks it briefly. On
    /// success the `busy` gauge is already incremented; pair with
    /// [`RunQueue::finish`]. `drain` is the caller's shutdown verdict
    /// (stop requested *and* no acceptor can admit anymore): when it
    /// holds and the queue is empty, the worker should exit.
    pub fn next_job(&self, drain: bool) -> Dequeue {
        let mut queue = lock_tolerant(&self.queue);
        if let Some(job) = queue.pop_front() {
            // Counted under the lock, so rendezvous admission never sees
            // a taken job as neither queued nor in flight.
            self.busy.fetch_add(1, Ordering::SeqCst);
            return Dequeue::Job(job);
        }
        if drain {
            return Dequeue::Drained;
        }
        // Park until a push arrives; the timeout keeps detach checks and
        // drain detection responsive.
        let _ = self
            .available
            .wait_timeout(queue, Duration::from_millis(25));
        Dequeue::TimedOut
    }

    /// Marks a worker idle again after a job.
    pub fn finish(&self) {
        self.busy.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes every parked worker (shutdown, so drains finish promptly).
    pub fn wake_all(&self) {
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    fn job() -> Job {
        let (a, b) = UnixStream::pair().expect("socketpair");
        // Leak the peer so the conn stays connected for the test's scope.
        std::mem::forget(b);
        Job {
            conn: Conn::Uds(a),
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn admission_is_fifo_and_backpressures_with_position() {
        let queue = RunQueue::new(2, 1);
        let first = job();
        let first_at = first.enqueued;
        queue.admit(first).unwrap();
        queue.admit(job()).unwrap();
        match queue.admit(job()) {
            Err((_, position)) => assert_eq!(position, 3, "backlog position"),
            Ok(()) => panic!("should be full"),
        }
        assert_eq!(queue.queued_replies.load(Ordering::Relaxed), 1);
        assert_eq!(queue.depth(), 2);
        // The oldest job comes out first, and a taken job counts toward
        // the position of the next shed connection.
        let Dequeue::Job(taken) = queue.next_job(false) else {
            panic!("job expected");
        };
        assert_eq!(taken.enqueued, first_at);
        queue.admit(job()).unwrap();
        match queue.admit(job()) {
            Err((_, position)) => assert_eq!(position, 4, "2 queued + 1 in flight + 1"),
            Ok(()) => panic!("should be full"),
        }
        queue.finish();
        assert!(matches!(queue.next_job(true), Dequeue::Job(_)));
        assert!(matches!(queue.next_job(true), Dequeue::Job(_)));
        // Empty + drain requested = drained.
        assert!(matches!(queue.next_job(true), Dequeue::Drained));
    }

    #[test]
    fn rendezvous_capacity_admits_only_toward_idle_workers() {
        let queue = RunQueue::new(0, 1);
        queue.admit(job()).unwrap();
        // Queued but not yet taken: the one idle worker is spoken for.
        assert!(queue.admit(job()).is_err());
        let Dequeue::Job(_job) = queue.next_job(false) else {
            panic!("job expected");
        };
        // Worker busy, queue empty: rendezvous refuses the next one.
        assert!(queue.admit(job()).is_err());
        queue.finish();
        assert!(queue.admit(job()).is_ok());
    }
}
