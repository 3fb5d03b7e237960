//! A bounded MPMC dispatch queue for the wall-clock executor: `Mutex` +
//! `Condvar` over a ring, with close semantics so stage shutdown cascades
//! cleanly (consumers drain what is left, then observe the close).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard};
use std::time::Instant;

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Outcome of a deadline-bounded pop.
#[derive(Debug)]
pub(crate) enum PopResult<T> {
    /// An item arrived in time.
    Item(T),
    /// The deadline passed with the queue still empty.
    TimedOut,
    /// The queue is closed and drained.
    Closed,
}

/// Bounded multi-producer multi-consumer queue.
#[derive(Debug)]
pub(crate) struct SyncQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Lock-free mirror of the current depth, maintained under the lock:
    /// the dispatcher and observers read queue depth without contending on
    /// the mutex the serving path uses.
    depth: AtomicUsize,
}

impl<T> SyncQueue<T> {
    pub fn new(capacity: usize) -> Self {
        SyncQueue {
            inner: Mutex::new(Inner {
                // Reserve the full bound up front so steady-state pushes
                // never grow the ring (zero-alloc hot path).
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            depth: AtomicUsize::new(0),
        }
    }

    /// Locks the ring. A mutex is poisoned only by a panic while it is
    /// held, and no critical section of this queue can panic: each compares
    /// lengths, moves items into a ring whose capacity was reserved up
    /// front (after checking that they fit) or out of it, sets `closed` and
    /// stores the depth mirror. The items come from the runtime's own
    /// iterators (a query's split, one batch), which only move them. So the
    /// `expect` never fires.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().expect("queue poisoned")
    }

    /// Current depth without taking the lock (racy by nature; the
    /// dispatcher's admission estimate and the observer's queue-depth
    /// gauge).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Pushes every item or none: fails without enqueueing anything when
    /// the remaining capacity cannot hold the whole batch (ingress
    /// backpressure) or the queue is closed.
    pub fn try_push_all(&self, items: impl ExactSizeIterator<Item = T>) -> bool {
        let mut g = self.lock();
        if g.closed || g.items.len() + items.len() > self.capacity {
            return false;
        }
        g.items.extend(items);
        self.depth.store(g.items.len(), Ordering::Relaxed);
        drop(g);
        self.not_empty.notify_all();
        true
    }

    /// Pushes one item, blocking while the queue is full. Returns `false`
    /// (dropping the item) only if the queue closed while waiting.
    pub fn push_wait(&self, item: T) -> bool {
        let mut g = self.lock();
        while g.items.len() >= self.capacity && !g.closed {
            g = relocked(self.not_full.wait(g));
        }
        if g.closed {
            return false;
        }
        g.items.push_back(item);
        self.depth.store(g.items.len(), Ordering::Relaxed);
        drop(g);
        self.not_empty.notify_one();
        true
    }

    /// Pops the next item if one is immediately available; never blocks.
    /// Used by the GPU-batch buffer freelist, where an empty freelist just
    /// means "allocate a fresh buffer".
    pub fn try_pop(&self) -> Option<T> {
        let mut g = self.lock();
        let item = g.items.pop_front();
        if item.is_some() {
            self.depth.store(g.items.len(), Ordering::Relaxed);
            drop(g);
            self.not_full.notify_one();
        }
        item
    }

    /// Pops the next item, blocking until one arrives; `None` once the
    /// queue is closed *and* drained.
    pub fn pop_wait(&self) -> Option<T> {
        let mut g = self.lock();
        loop {
            if let Some(item) = g.items.pop_front() {
                self.depth.store(g.items.len(), Ordering::Relaxed);
                drop(g);
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = relocked(self.not_empty.wait(g));
        }
    }

    /// Pops the next item, waiting at most until `deadline` (the dynamic
    /// batcher's fill-or-flush wait).
    pub fn pop_deadline(&self, deadline: Instant) -> PopResult<T> {
        let mut g = self.lock();
        loop {
            if let Some(item) = g.items.pop_front() {
                self.depth.store(g.items.len(), Ordering::Relaxed);
                drop(g);
                self.not_full.notify_one();
                return PopResult::Item(item);
            }
            if g.closed {
                return PopResult::Closed;
            }
            let now = Instant::now();
            let Some(wait) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return PopResult::TimedOut;
            };
            let (guard, timeout) = relocked(self.not_empty.wait_timeout(g, wait));
            g = guard;
            if timeout.timed_out() && g.items.is_empty() && !g.closed {
                return PopResult::TimedOut;
            }
        }
    }

    /// Closes the queue: producers fail fast, consumers drain then stop.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// What a condvar wait on a queue's lock returns once it has the lock back:
/// the guard (and, for a timed wait, whether it timed out). The wait
/// re-locks the mutex [`SyncQueue::lock`] takes, which no critical section
/// poisons, so the `expect` never fires.
fn relocked<G>(woken: LockResult<G>) -> G {
    woken.expect("queue poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_and_close_semantics() {
        let q = SyncQueue::new(8);
        assert!(q.try_push_all([1, 2, 3].into_iter()));
        assert_eq!(q.depth(), 3, "lock-free mirror tracks the depth");
        assert_eq!(q.pop_wait(), Some(1));
        assert_eq!(q.depth(), 2);
        q.close();
        // Drain continues after close...
        assert_eq!(q.pop_wait(), Some(2));
        assert_eq!(q.pop_wait(), Some(3));
        // ...then reports exhaustion, and producers fail fast.
        assert_eq!(q.pop_wait(), None);
        assert!(!q.try_push_all([4].into_iter()));
        assert!(!q.push_wait(5));
    }

    #[test]
    fn try_push_all_is_all_or_nothing() {
        let q = SyncQueue::new(4);
        assert!(q.try_push_all([1, 2, 3].into_iter()));
        assert!(!q.try_push_all([4, 5].into_iter()), "only one slot left");
        assert_eq!(q.depth(), 3, "failed push enqueued nothing");
        assert!(q.try_push_all([4].into_iter()));
    }

    #[test]
    fn try_pop_never_blocks() {
        let q = SyncQueue::new(4);
        assert_eq!(q.try_pop(), None::<u32>);
        assert!(q.push_wait(1));
        assert_eq!(q.try_pop(), Some(1));
        q.close();
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn pop_deadline_times_out_then_delivers() {
        let q = SyncQueue::new(4);
        let deadline = Instant::now() + Duration::from_millis(5);
        assert!(matches!(q.pop_deadline(deadline), PopResult::TimedOut));
        assert!(q.push_wait(7));
        let deadline = Instant::now() + Duration::from_millis(50);
        assert!(matches!(q.pop_deadline(deadline), PopResult::Item(7)));
    }

    #[test]
    fn cross_thread_handoff() {
        let q = std::sync::Arc::new(SyncQueue::new(2));
        let consumer = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(x) = q.pop_wait() {
                    got.push(x);
                }
                got
            })
        };
        for i in 0..100 {
            assert!(q.push_wait(i), "producer blocked by bounded capacity");
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
