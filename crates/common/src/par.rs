//! Scoped-thread parallelism with deterministic, index-addressed results.
//!
//! One concurrency primitive serves the evaluation layers and the fleet.
//! [`with_crew`] keeps a crew of threads, the calling thread among them,
//! alive across many rounds: each [`Crew::round`] lends the crew owned
//! items, hands each to exactly one thread, and has every item back in its
//! place before it returns (the fleet's replicas, one round per control
//! epoch, so no epoch pays for spawning threads). [`parallel_map`] is one
//! such round over a slice: it applies a function to every item on up to
//! `workers` OS threads and returns the results **in input order**,
//! independent of scheduling (the profiler's table sweep, the evaluator's
//! candidate batches). Callers rely on that ordering, and on each item
//! being worked by one thread at a time, for bitwise-identical
//! parallel-vs-serial behavior. A panic on any thread reaches the caller.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Maps `f` over `items` on up to `workers` threads, returning results in
/// input order.
///
/// `workers` is clamped to `[1, items.len()]`; at 1 (or for a single item)
/// no thread is spawned. The map is one [`Crew::round`] over slots that
/// each pair an item with its result, so results never depend on which
/// thread ran what, or when.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    let mut slots: Vec<Option<(&T, Option<R>)>> =
        items.iter().map(|item| Some((item, None))).collect();
    let job = |(item, out): &mut (&T, Option<R>)| *out = Some(f(item));
    with_crew(workers, job, |crew| crew.round(&mut slots));
    slots
        .into_iter()
        .map(|slot| {
            slot.and_then(|(_, out)| out)
                .expect("the round worked every slot")
        })
        .collect()
}

/// What a helper hands back: a worked item at its index, or the payload of
/// the panic its job raised.
type Done<T> = Result<(usize, T), Box<dyn Any + Send>>;

/// A crew of threads that [`with_crew`] keeps alive while its body runs.
pub struct Crew<'c, T> {
    job: &'c (dyn Fn(&mut T) + Sync),
    /// This round's unclaimed items, each with its index.
    work: &'c Mutex<Vec<(usize, T)>>,
    /// One wake-up line per helper thread.
    wake: Vec<Sender<()>>,
    /// Worked items and panics, from the helpers (which hold its only
    /// senders, so it disconnects once every helper has exited).
    done: Receiver<Done<T>>,
}

impl<T> Crew<'_, T> {
    /// Runs the crew's job once on every present item of `items`, each on
    /// whichever thread claims it, the calling thread among them, and
    /// returns once every item is back in its place. Absent items are left
    /// alone. Items are claimed in index order, and helpers are woken only
    /// while there is more than one item.
    ///
    /// # Panics
    ///
    /// Resumes the panic of a job that panicked, on whichever thread.
    pub fn round(&mut self, items: &mut [Option<T>]) {
        let mut out = {
            let mut work = self.work.lock().unwrap_or_else(PoisonError::into_inner);
            // Claims pop from the back.
            let present = items.iter_mut().enumerate().rev();
            work.extend(present.filter_map(|(i, item)| Some((i, item.take()?))));
            work.len()
        };
        for wake in self.wake.iter().take(out.saturating_sub(1)) {
            // A helper that has exited left its panic on `done`.
            let _ = wake.send(());
        }
        while let Some((i, mut item)) = claim(self.work) {
            (self.job)(&mut item);
            items[i] = Some(item);
            out -= 1;
        }
        while out > 0 {
            let next = match spin(|| self.done.try_recv().ok()) {
                Some(done) => Ok(done),
                None => self.done.recv(),
            };
            match next {
                Ok(Ok((i, item))) => {
                    items[i] = Some(item);
                    out -= 1;
                }
                Ok(Err(payload)) => panic::resume_unwind(payload),
                // A helper exits with items out only after sending a panic.
                Err(_) => unreachable!("crew helpers exited holding {out} items"),
            }
        }
    }
}

/// Runs `body` beside a crew of `workers` threads, the calling thread among
/// them, that lives until `body` returns; each [`Crew::round`] runs `job`
/// on a set of items. `workers` below 2 spawns no thread: every round then
/// runs on the caller.
///
/// # Panics
///
/// Propagates a panic from `body`, or from `job` on any thread (the scope
/// joins every helper first).
pub fn with_crew<T, R>(
    workers: usize,
    job: impl Fn(&mut T) + Sync,
    body: impl FnOnce(&mut Crew<'_, T>) -> R,
) -> R
where
    T: Send,
{
    let job: &(dyn Fn(&mut T) + Sync) = &job;
    let work = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let (done_tx, done) = mpsc::channel();
        let wake = (1..workers)
            .map(|_| {
                let (wake, woken) = mpsc::channel();
                let (done, work) = (done_tx.clone(), &work);
                scope.spawn(move || help(job, work, &woken, &done));
                wake
            })
            .collect();
        // The caller keeps no sender: a round waiting on `done` must see
        // every helper gone, never block on a line only it holds open.
        drop(done_tx);
        // Dropping the crew, on return or unwind, hangs up every wake-up
        // line, so the helpers exit and the scope can join them.
        body(&mut Crew {
            job,
            work: &work,
            wake,
            done,
        })
    })
}

/// A helper's life: claim and work items until none is left, sending each
/// back; poll for the next round's, then block for a wake-up; exit once
/// the crew hangs up, or after sending back the panic of a job.
fn help<T>(
    job: &(dyn Fn(&mut T) + Sync),
    work: &Mutex<Vec<(usize, T)>>,
    woken: &Receiver<()>,
    done: &Sender<Done<T>>,
) {
    if woken.recv().is_err() {
        return;
    }
    loop {
        while let Some((i, mut item)) = claim(work) {
            let ran = panic::catch_unwind(AssertUnwindSafe(|| job(&mut item)));
            let failed = ran.is_err();
            if done.send(ran.map(|()| (i, item))).is_err() || failed {
                return;
            }
        }
        // A locked list is being filled or claimed from: look again.
        let pending = || {
            work.try_lock()
                .map_or(Some(()), |w| (!w.is_empty()).then_some(()))
        };
        if spin(pending).is_some() {
            // Wake-ups sent before now are for items the claims below
            // see, so they are spent; one sent later still wakes.
            while woken.try_recv().is_ok() {}
        } else if woken.recv().is_err() {
            return;
        }
    }
}

/// How long a crew thread polls for its next item or returned item before
/// it blocks. A thread that blocks between rounds pays the operating
/// system's wake-up latency on the next, which on a two-vCPU virtual
/// machine averaged about 0.2 ms against fleet epochs of about 1 ms.
const SPIN: Duration = Duration::from_micros(200);

/// Polls `poll` until it yields or [`SPIN`] has passed.
fn spin<R>(mut poll: impl FnMut() -> Option<R>) -> Option<R> {
    let deadline = Instant::now() + SPIN;
    loop {
        if let Some(r) = poll() {
            return Some(r);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::hint::spin_loop();
    }
}

/// The next unclaimed item. No code panics while holding the lock, so a
/// poisoned list is still whole.
fn claim<T>(work: &Mutex<Vec<T>>) -> Option<T> {
    work.lock().unwrap_or_else(PoisonError::into_inner).pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = parallel_map(&items, 1, |&x| x * x);
        let parallel = parallel_map(&items, 8, |&x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[7], 49);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[5u32], 4, |&x| x + 1), vec![6]);
    }

    #[test]
    fn workers_exceeding_items_are_clamped() {
        let items = [1u32, 2, 3];
        assert_eq!(parallel_map(&items, 64, |&x| x * 10), vec![10, 20, 30]);
    }

    /// Rounds over `items` on a crew of `workers`, with every third item
    /// absent; returns the items and the threads that worked them.
    fn rounds(workers: usize) -> (Vec<Option<u64>>, usize) {
        let seen = Mutex::new(std::collections::HashSet::new());
        let mut items: Vec<Option<u64>> = (0..50).map(|i| (i % 3 != 0).then_some(i)).collect();
        let job = |x: &mut u64| {
            seen.lock().unwrap().insert(std::thread::current().id());
            *x = *x * 3 + 1;
        };
        with_crew(workers, job, |crew| {
            for _ in 0..4 {
                crew.round(&mut items);
            }
            crew.round(&mut []);
        });
        let threads = seen.into_inner().unwrap().len();
        (items, threads)
    }

    #[test]
    fn crew_rounds_work_every_item_once_in_its_place() {
        let (serial, threads) = rounds(1);
        assert_eq!(threads, 1, "a crew of one is the caller alone");
        let four = |i: u64| (0..4).fold(i, |x, _| x * 3 + 1);
        for (i, item) in serial.iter().enumerate() {
            let i = i as u64;
            assert_eq!(*item, (i % 3 != 0).then(|| four(i)), "item {i}");
        }
        for workers in [0, 2, 3, 8] {
            assert_eq!(rounds(workers).0, serial, "{workers} workers");
        }
    }

    #[test]
    fn crew_works_items_on_several_threads_at_once() {
        use std::time::{Duration, Instant};
        // Two items that each wait for the other: both see the other
        // arrive only if two threads work a round at once.
        let arrived = AtomicUsize::new(0);
        let job = |met: &mut bool| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            *met = arrived.load(Ordering::SeqCst) == 2;
        };
        let mut items = [Some(false), Some(false)];
        with_crew(2, job, |crew| crew.round(&mut items));
        assert_eq!(items, [Some(true), Some(true)]);
    }

    #[test]
    fn a_helper_panic_reaches_the_caller() {
        use std::time::{Duration, Instant};
        // The caller's item waits until a helper has claimed the other,
        // whose job panics: the round must resume that panic on the caller
        // rather than wait for an item that never comes back. The crew
        // runs on a thread of its own, so a hang fails the test instead of
        // stalling it.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let claimed = AtomicUsize::new(0);
            let caller = std::thread::current().id();
            let job = |_: &mut u8| {
                if std::thread::current().id() != caller {
                    claimed.store(1, Ordering::SeqCst);
                    panic!("helper job failed");
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                while claimed.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            };
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                with_crew(2, job, |crew| crew.round(&mut [Some(0u8), Some(1)]));
            }));
            let message = caught
                .err()
                .and_then(|p| p.downcast_ref::<&str>().map(|m| m.to_string()));
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the crew hung after a helper panicked");
        assert_eq!(message.as_deref(), Some("helper job failed"));
    }
}
