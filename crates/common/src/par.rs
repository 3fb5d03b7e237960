//! Scoped-thread parallel maps with deterministic, index-addressed results.
//!
//! The one concurrency primitive the evaluation layers and the fleet need:
//! apply a function to every item of a slice on up to `workers` OS threads
//! and get the results back **in input order**, independent of scheduling.
//! [`parallel_map`] hands out shared items (the profiler's table sweep, the
//! evaluator's candidate batches), [`parallel_map_mut`] mutable ones (the
//! fleet's replicas within an epoch). Callers rely on that ordering, and on
//! each mutable item being touched by one worker, for bitwise-identical
//! parallel-vs-serial behavior.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on up to `workers` threads, returning results in
/// input order.
///
/// `workers` is clamped to `[1, items.len()]`; at 1 (or for a single item)
/// this is a plain serial map with no threads spawned. Workers pull the
/// next index off a shared counter and write an index-addressed slot, so
/// results never depend on which worker ran what, or when.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins its threads).
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    claim_each(items.len(), workers, |i| {
        *slots[i].lock().expect("parallel_map slot poisoned") = Some(f(&items[i]));
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("parallel_map slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// [`parallel_map`] over mutable items: `f` may change each item it is
/// handed, and each item is handed to exactly one worker.
///
/// The same contract holds: `workers` is clamped to `[1, items.len()]`, at
/// 1 no thread is spawned, and results come back in input order.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins its threads).
pub fn parallel_map_mut<T, R, F>(items: &mut [T], workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let n = items.len();
    let slots: Vec<Mutex<(&mut T, Option<R>)>> = items
        .iter_mut()
        .map(|item| Mutex::new((item, None)))
        .collect();
    claim_each(n, workers, |i| {
        let mut slot = slots[i].lock().expect("parallel_map_mut slot poisoned");
        let r = f(slot.0);
        slot.1 = Some(r);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("parallel_map_mut slot poisoned")
                .1
                .expect("worker filled every slot")
        })
        .collect()
}

/// Runs `job(i)` once for every `i` in `0..n` on `workers` threads, the
/// calling thread among them: each pulls the next index off a shared
/// counter until none is left.
fn claim_each(n: usize, workers: usize, job: impl Fn(usize) + Sync) {
    let next = AtomicUsize::new(0);
    // Relaxed: the counter only hands out indices; what a job writes
    // reaches the caller through its slot's mutex and the scope's join.
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        job(i);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn mutable_map_updates_every_item_once_and_preserves_order() {
        let mut serial: Vec<u64> = (0..100).collect();
        let mut parallel = serial.clone();
        let bump = |x: &mut u64| {
            *x = *x * 3 + 1;
            *x % 7
        };
        let a = parallel_map_mut(&mut serial, 1, bump);
        let b = parallel_map_mut(&mut parallel, 8, bump);
        assert_eq!(a, b);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[7], 22);
    }

    #[test]
    fn mutable_map_handles_empty_single_and_excess_workers() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(parallel_map_mut(&mut empty, 4, |x| *x).is_empty());
        let mut one = [5u32];
        assert_eq!(
            parallel_map_mut(&mut one, 4, |x| std::mem::replace(x, 9)),
            vec![5]
        );
        assert_eq!(one, [9]);
        let mut three = [1u32, 2, 3];
        parallel_map_mut(&mut three, 64, |x| *x *= 10);
        assert_eq!(three, [10, 20, 30]);
    }

    #[test]
    fn mutable_map_uses_several_threads_when_asked() {
        use std::time::{Duration, Instant};
        // Two items that each wait for the other: both see the other
        // arrive only if two workers run at once.
        let arrived = AtomicUsize::new(0);
        let mut items = [0u8, 1];
        let met = parallel_map_mut(&mut items, 2, |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            arrived.load(Ordering::SeqCst) == 2
        });
        assert_eq!(met, vec![true, true]);
    }
}
