//! A tiny work-stealing-free parallel map over an index range — the
//! workspace's one thread-spawning map.
//!
//! Simulation trials are embarrassingly parallel and read-only over the
//! scenario, and so are the cells of the execution-time table
//! ([`crate::ExecTable`]), each drawn from its own seed stream. So
//! `std::thread::scope` plus an atomic work index is all the machinery
//! needed (no extra runtime dependencies; see the workspace dependency
//! policy in DESIGN.md §6). Workers claim indices in small contiguous
//! chunks — one atomic RMW per chunk instead of per item — and results are
//! returned in index order regardless of scheduling, so output is
//! deterministic.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Applies `work` to every index in `0..count` across `threads` OS threads
/// and returns the results in index order.
///
/// `work` must be safe to call concurrently from multiple threads (`Sync`);
/// each invocation gets a distinct index exactly once.
///
/// # Panics
///
/// If any `work(idx)` panics, the first panic (by observation order) is
/// re-raised on the caller's thread with its original payload once every
/// worker has stopped — not the scope's generic "a scoped thread panicked"
/// message. Workers drain quickly after a panic: the work index is pushed
/// past `count` so remaining items are skipped.
pub fn run_parallel<T, F>(count: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads >= 1, "need at least one worker thread");
    if count == 0 {
        return Vec::new();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(count));
    let panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let workers = threads.min(count);
    // Claim granularity: ~4 chunks per worker balances contention (one
    // atomic RMW per chunk) against tail imbalance (the last chunks may
    // land unevenly when per-item cost varies).
    let chunk = (count / (workers * 4)).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                'claim: loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= count {
                        break;
                    }
                    for idx in start..(start + chunk).min(count) {
                        match catch_unwind(AssertUnwindSafe(|| work(idx))) {
                            Ok(value) => local.push((idx, value)),
                            Err(payload) => {
                                let mut slot = panic.lock().unwrap_or_else(PoisonError::into_inner);
                                if slot.is_none() {
                                    *slot = Some(payload);
                                }
                                // Park the index past the end so every
                                // worker stops claiming new chunks.
                                next.store(count, Ordering::Relaxed);
                                break 'claim;
                            }
                        }
                    }
                }
                // No lock is held across `work`, whose panics are caught,
                // so neither mutex can be poisoned; recovering the guard
                // keeps that true without a panic site.
                results
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(local);
            });
        }
    });
    if let Some(payload) = panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    let mut collected = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    collected.sort_by_key(|(idx, _)| *idx);
    debug_assert_eq!(collected.len(), count);
    collected.into_iter().map(|(_, v)| v).collect()
}

/// The default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_every_index_in_order() {
        let out = run_parallel(100, 4, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_works() {
        let out = run_parallel(10, 1, |i| i + 1);
        assert_eq!(out.len(), 10);
        assert_eq!(out[9], 10);
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let out = run_parallel(3, 64, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn zero_count_returns_empty() {
        let out: Vec<usize> = run_parallel(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_deterministic_across_thread_counts() {
        let a = run_parallel(50, 1, |i| i * i);
        let b = run_parallel(50, 8, |i| i * i);
        assert_eq!(a, b);
    }

    #[test]
    fn uneven_chunk_boundaries_cover_every_index_once() {
        // 37 items over 2 workers claims in chunks of 4; the final partial
        // chunk (36) and the overshooting claims past `count` must neither
        // drop nor duplicate indices.
        use std::sync::atomic::AtomicUsize;
        let calls: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        let out = run_parallel(37, 2, |i| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..37).collect::<Vec<_>>());
        for (i, c) in calls.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i} claim count");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = run_parallel(1, 0, |i| i);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates_with_original_payload() {
        // A panicking item must neither hang the map nor surface as the
        // scope's generic panic: the caller sees the worker's own payload.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_parallel(64, 4, |i| {
                if i == 17 {
                    panic!("trial 17 exploded");
                }
                i
            })
        }))
        .expect_err("the panic must propagate");
        let message = caught
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .expect("payload must be the worker's message");
        assert_eq!(message, "trial 17 exploded");
    }

    #[test]
    fn first_panic_wins_when_several_items_panic() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_parallel(8, 2, |i| -> usize { panic!("boom {i}") })
        }))
        .expect_err("the panic must propagate");
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("formatted payload");
        assert!(message.starts_with("boom "), "got: {message}");
    }
}
