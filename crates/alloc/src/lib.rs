//! A counting global allocator for the zero-allocation prove-path gates.
//!
//! The analysis crates (`abcd-ir`, `abcd`, `abcd-bench`) all
//! `forbid(unsafe_code)`, and a `GlobalAlloc` impl is necessarily unsafe —
//! so the instrument lives in this leaf crate, which nothing on the prove
//! path depends on. Register it in a test or bench binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: abcd_alloc::CountingAlloc = abcd_alloc::CountingAlloc;
//! ```
//!
//! then bracket the region under measurement with [`thread_snapshot`] and
//! [`thread_delta`], which count what the calling thread allocates and
//! nothing else: a test harness's or a pool's other threads cannot land in
//! the window. The process-wide [`snapshot`] and [`delta`] count every
//! thread, for a measurement that spans worker threads.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// What the current thread has allocated. Const-initialized with no
    /// destructor, so updating or reading them never allocates.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes`, process-wide and on this thread.
fn count(bytes: usize) {
    let bytes = bytes as u64;
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
    // `try_with`: a thread's last frees may run after its slots are gone.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = THREAD_BYTES.try_with(|n| n.set(n.get() + bytes));
}

/// A [`System`]-backed allocator that counts every allocation.
///
/// `realloc` counts as one allocation of the new size (it may move and
/// copy, which is exactly the steady-state cost the gates exist to catch);
/// `dealloc` is not counted — the gates assert on acquisition, not
/// lifetime.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// A point-in-time reading of the counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations (including reallocs) observed so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

impl Snapshot {
    fn since(self, before: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - before.allocs,
            bytes: self.bytes - before.bytes,
        }
    }
}

/// Reads the process-wide counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Process-wide counter movement since `before`, a [`snapshot`].
pub fn delta(before: Snapshot) -> Snapshot {
    snapshot().since(before)
}

/// Reads the calling thread's counters.
pub fn thread_snapshot() -> Snapshot {
    Snapshot {
        allocs: THREAD_ALLOCS.with(Cell::get),
        bytes: THREAD_BYTES.with(Cell::get),
    }
}

/// The calling thread's counter movement since `before`, a
/// [`thread_snapshot`] taken on the same thread.
pub fn thread_delta(before: Snapshot) -> Snapshot {
    thread_snapshot().since(before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_a_vec_allocation() {
        let before = snapshot();
        let v: Vec<u64> = Vec::with_capacity(1024);
        let d = delta(before);
        assert!(d.allocs >= 1, "{d:?}");
        assert!(d.bytes >= 8 * 1024, "{d:?}");
        drop(v);
    }

    #[test]
    fn warm_vec_reuse_counts_zero() {
        let mut v: Vec<u64> = Vec::with_capacity(1024);
        v.extend(0..1024);
        v.clear();
        let before = thread_snapshot();
        v.extend(0..1024); // into retained capacity
        assert_eq!(thread_delta(before).allocs, 0);
        // The per-thread count sees this thread's allocations.
        let grown: Vec<u64> = Vec::with_capacity(1);
        assert_eq!(
            thread_delta(before),
            Snapshot {
                allocs: 1,
                bytes: 8
            }
        );
        drop(grown);
    }

    #[test]
    fn another_threads_allocations_stay_out_of_this_threads_count() {
        let before = thread_snapshot();
        let child = std::thread::spawn(|| drop(Vec::<u8>::with_capacity(1 << 20)));
        child.join().unwrap();
        let d = thread_delta(before);
        assert!(d.bytes < 1 << 20, "{d:?}");
    }
}
