//! Behavioural contracts of `hire-par`'s scoped lanes: panic propagation,
//! concurrent callers, nested calls, inline execution on one lane, chunk
//! order, and coverage of every chunk.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

use hire_par::{active_threads, parallel_map_chunks, with_pool};
use proptest::prelude::*;

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

#[test]
fn panic_in_chunk_reaches_the_caller_with_its_payload() {
    for lanes in [1, 4] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_pool(lanes, || {
                parallel_map_chunks(100, |k| {
                    if k == 42 {
                        panic!("boom at 42");
                    }
                })
            })
        }));
        let payload = result.expect_err("chunk panic must reach the caller");
        let msg = panic_message(payload.as_ref());
        assert!(
            msg.contains("boom at 42"),
            "{lanes} lanes: payload preserved, got: {msg}"
        );

        // Nothing outlives a call: the next one runs to completion.
        let count = AtomicUsize::new(0);
        with_pool(lanes, || {
            parallel_map_chunks(1000, |_| count.fetch_add(1, Ordering::Relaxed))
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }
}

#[test]
fn every_chunk_panicking_still_returns_to_the_caller() {
    for _ in 0..20 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_pool(4, || {
                parallel_map_chunks(64, |_| -> () { panic!("every chunk panics") })
            })
        }));
        assert!(result.is_err());
    }
    let count = AtomicUsize::new(0);
    with_pool(4, || {
        parallel_map_chunks(64, |_| count.fetch_add(1, Ordering::Relaxed))
    });
    assert_eq!(count.load(Ordering::Relaxed), 64);
}

#[test]
fn nested_calls_complete() {
    let count = AtomicUsize::new(0);
    with_pool(4, || {
        parallel_map_chunks(8, |_| {
            // A lane does not inherit the caller's override; pin it again.
            with_pool(3, || {
                parallel_map_chunks(100, |_| count.fetch_add(1, Ordering::Relaxed))
            })
        })
    });
    assert_eq!(count.load(Ordering::Relaxed), 800);
}

#[test]
fn one_lane_runs_inline_in_chunk_order() {
    // HIRE_THREADS=1 means one lane: everything runs on the caller, in order.
    assert_eq!(hire_par::threads_from_env_value(Some("1")), 1);
    let caller = std::thread::current().id();
    let seen: Vec<(usize, ThreadId)> =
        with_pool(hire_par::threads_from_env_value(Some("1")), || {
            parallel_map_chunks(500, |k| (k, std::thread::current().id()))
        });
    assert!(seen.iter().all(|&(_, id)| id == caller));
    assert!(seen.iter().enumerate().all(|(i, &(k, _))| i == k));
}

#[test]
fn with_pool_overrides_nest_and_restore() {
    let outside = active_threads();
    with_pool(1, || {
        assert_eq!(active_threads(), 1);
        with_pool(4, || assert_eq!(active_threads(), 4));
        assert_eq!(active_threads(), 1);
    });
    assert_eq!(active_threads(), outside);
    with_pool(0, || assert_eq!(active_threads(), 1, "clamped to one lane"));
}

#[test]
fn chunk_order_reduction_matches_serial_fold_bitwise() {
    // The canonical ordered-reduction pattern: per-chunk f64 partial sums
    // folded in chunk order must equal the serial loop bit for bit.
    let data: Vec<f32> = (0..10_007)
        .map(|i| ((i * 37 % 1000) as f32) * 0.137 - 31.0)
        .collect();
    let partial = |chunk: &[f32]| chunk.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
    let serial: f64 = data.chunks(64).map(partial).sum();
    for lanes in [1, 2, 4, 7] {
        let parts = with_pool(lanes, || {
            parallel_map_chunks(data.len().div_ceil(64), |k| {
                partial(&data[k * 64..((k + 1) * 64).min(data.len())])
            })
        });
        let total: f64 = parts.iter().sum();
        assert_eq!(
            total.to_bits(),
            serial.to_bits(),
            "ordered reduction differs at {lanes} lanes"
        );
    }
}

#[test]
fn concurrent_callers_each_get_their_own_chunks() {
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..4usize)
            .map(|t| {
                s.spawn(move || {
                    with_pool(4, || {
                        (0..50)
                            .map(|round| {
                                let len = 17 + (t + round) % 13;
                                let got = parallel_map_chunks(len, |k| k + 1);
                                assert_eq!(got, (1..=len).collect::<Vec<_>>());
                                got.len()
                            })
                            .sum::<usize>()
                    })
                })
            })
            .collect();
        for caller in callers {
            assert!(caller.join().unwrap() > 0);
        }
    });
}

#[test]
fn several_lanes_really_run() {
    // Each chunk waits until two distinct threads have entered a chunk, so
    // a fan-out that never left the caller would time out here.
    let threads: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    with_pool(2, || {
        parallel_map_chunks(2, |_| {
            let me = std::thread::current().id();
            {
                let mut seen = threads.lock().unwrap();
                if !seen.contains(&me) {
                    seen.push(me);
                }
            }
            while threads.lock().unwrap().len() < 2 {
                assert!(std::time::Instant::now() < deadline, "only one lane ran");
                std::thread::yield_now();
            }
        })
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every chunk index in `0..len` runs exactly once and its value comes
    /// back at its own position, whatever the lane count.
    #[test]
    fn every_chunk_runs_once_in_place(len in 0usize..3000, lanes in 1usize..6) {
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        let got = with_pool(lanes, || {
            parallel_map_chunks(len, |k| {
                hits[k].fetch_add(1, Ordering::Relaxed);
                k
            })
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        prop_assert_eq!(got, (0..len).collect::<Vec<_>>());
    }
}
