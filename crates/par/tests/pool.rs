//! Behavioural contracts of the `hire-par` pool: panic propagation without
//! poisoning, nested calls, inline degradation, and ragged-chunk coverage.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hire_par::{with_pool, ThreadPool};
use proptest::prelude::*;

#[test]
fn panic_in_task_propagates_without_poisoning_pool() {
    let pool = ThreadPool::new(4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.parallel_for(100, 3, |range| {
            if range.contains(&42) {
                panic!("boom at 42");
            }
        });
    }));
    let payload = result.expect_err("task panic must reach the caller");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("boom at 42"), "payload preserved, got: {msg}");

    // The pool is not poisoned: subsequent scopes run to completion.
    let count = AtomicUsize::new(0);
    pool.parallel_for(1000, 7, |range| {
        count.fetch_add(range.len(), Ordering::Relaxed);
    });
    assert_eq!(count.load(Ordering::Relaxed), 1000);
}

#[test]
fn only_first_panic_is_reraised_and_all_chunks_settle() {
    let pool = ThreadPool::new(4);
    for _ in 0..20 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(64, 1, |_range| panic!("every chunk panics"));
        }));
        assert!(result.is_err());
    }
    // Still operational afterwards.
    let count = AtomicUsize::new(0);
    pool.parallel_for(64, 1, |range| {
        count.fetch_add(range.len(), Ordering::Relaxed);
    });
    assert_eq!(count.load(Ordering::Relaxed), 64);
}

#[test]
fn nested_parallel_for_does_not_deadlock() {
    let pool = ThreadPool::new(4);
    let count = AtomicUsize::new(0);
    pool.parallel_for(8, 1, |outer| {
        for _ in outer {
            // Nested calls run inline on the executing thread.
            pool.parallel_for(100, 9, |inner| {
                count.fetch_add(inner.len(), Ordering::Relaxed);
            });
        }
    });
    assert_eq!(count.load(Ordering::Relaxed), 800);
}

#[test]
fn single_thread_env_degrades_to_inline() {
    // HIRE_THREADS=1 builds a 1-lane pool; everything runs on the caller.
    assert_eq!(hire_par::threads_from_env_value(Some("1")), 1);
    let pool = ThreadPool::new(hire_par::threads_from_env_value(Some("1")));
    let caller = std::thread::current().id();
    let off_thread = AtomicUsize::new(0);
    pool.parallel_for(500, 13, |_range| {
        if std::thread::current().id() != caller {
            off_thread.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert_eq!(off_thread.load(Ordering::Relaxed), 0);
}

#[test]
fn with_pool_overrides_free_functions() {
    let one = Arc::new(ThreadPool::new(1));
    let four = Arc::new(ThreadPool::new(4));
    with_pool(&one, || {
        assert_eq!(hire_par::active_pool().threads(), 1);
        with_pool(&four, || {
            assert_eq!(hire_par::active_pool().threads(), 4);
        });
        assert_eq!(hire_par::active_pool().threads(), 1);
    });
}

#[test]
fn map_chunks_matches_serial_fold_bitwise() {
    // The canonical ordered-reduction pattern: per-chunk f64 partial sums
    // folded in chunk order must equal the serial loop bit-for-bit.
    let data: Vec<f32> = (0..10_007)
        .map(|i| ((i * 37 % 1000) as f32) * 0.137 - 31.0)
        .collect();
    let serial: f64 = {
        let mut acc = 0.0f64;
        for chunk in data.chunks(64) {
            let mut part = 0.0f64;
            for &x in chunk {
                part += (x as f64) * (x as f64);
            }
            acc += part;
        }
        acc
    };
    for threads in [1, 2, 4, 7] {
        let pool = ThreadPool::new(threads);
        let parts = pool.parallel_map_chunks(data.len(), 64, |range| {
            let mut part = 0.0f64;
            for &x in &data[range] {
                part += (x as f64) * (x as f64);
            }
            part
        });
        let total: f64 = parts.iter().sum();
        assert_eq!(
            total.to_bits(),
            serial.to_bits(),
            "ordered reduction differs at {threads} threads"
        );
    }
}

#[test]
fn concurrent_scopes_from_multiple_caller_threads() {
    let pool = Arc::new(ThreadPool::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let count = AtomicUsize::new(0);
                pool.parallel_for(5000, 11, |range| {
                    count.fetch_add(range.len(), Ordering::Relaxed);
                });
                count.load(Ordering::Relaxed)
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 5000);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every index in `0..len` is visited exactly once for arbitrary ragged
    /// (len, grain) combinations, and chunk boundaries are the fixed
    /// `(len, grain)` grid regardless of thread count.
    #[test]
    fn ragged_chunks_cover_exactly(len in 0usize..3000, grain in 1usize..130, threads in 1usize..6) {
        let pool = ThreadPool::new(threads);
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        let boundaries = Mutex::new(Vec::new());
        pool.parallel_for(len, grain, |range| {
            boundaries.lock().unwrap().push((range.start, range.end));
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let mut b = boundaries.into_inner().unwrap();
        b.sort_unstable();
        // Boundaries are the fixed (len, grain) grid: starts on multiples
        // of grain, every chunk full except possibly the last.
        let expected: Vec<(usize, usize)> = (0..len)
            .step_by(grain)
            .map(|s| (s, (s + grain).min(len)))
            .collect();
        prop_assert_eq!(b, expected);
    }
}
