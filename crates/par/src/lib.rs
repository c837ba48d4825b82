//! The harness's one fan-out: the models of a table, trained side by side on
//! scoped lanes. Serving does not come here — a `Server`'s workers already
//! spread independent queries over the cores, and a sharded batch runs its
//! shards in order on the worker that took it. Kernels and forwards do not
//! fan out either; they run on whichever thread calls them (DESIGN.md §11).
//!
//! # Lanes
//!
//! [`parallel_map_chunks`] runs `f(0) … f(len - 1)` on up to
//! [`active_threads`] lanes: the calling thread plus `lanes - 1` threads of a
//! [`std::thread::scope`], each claiming the next chunk index from one atomic
//! counter until none is left. One lane (`HIRE_THREADS=1`, or a single
//! chunk) spawns nothing and runs the chunks inline, in order.
//!
//! # Determinism contract
//!
//! Values come back in ascending chunk order whatever the lane count or the
//! timing, so folding them sequentially performs the same float operations
//! on 1 lane and on N.
//!
//! # Panic propagation
//!
//! A panicking chunk ends its lane; the other lanes drain the remaining
//! chunks, every lane is joined, and the first panic found (the caller's
//! lane first, then the spawned lanes in spawn order) is re-raised on the
//! calling thread with its payload. Nothing outlives the call, so nothing
//! can be poisoned.
//!
//! # Nesting
//!
//! A call made from inside a chunk opens its own scope on the thread that
//! runs the chunk. Lanes share no queue, so nesting cannot deadlock; it can
//! only spawn more threads, which is why only independent top-level work
//! belongs here.

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Upper bound on configured lanes; guards against absurd `HIRE_THREADS`.
const MAX_THREADS: usize = 256;

/// The process-wide lane count of a fan-out (the caller counts as one).
#[derive(Debug)]
pub struct Lanes {
    threads: usize,
}

impl Lanes {
    /// Lanes a [`parallel_map_chunks`] call may use.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

static GLOBAL: OnceLock<Lanes> = OnceLock::new();

thread_local! {
    /// Lane count installed by [`with_pool`] on this thread.
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Parses a `HIRE_THREADS` value: `None`/empty/`"0"` mean "hardware
/// default"; garbage degrades to the hardware default rather than
/// panicking; valid counts are clamped to `1..=256`.
pub fn threads_from_env_value(value: Option<&str>) -> usize {
    let hw = || std::thread::available_parallelism().map_or(1, |n| n.get());
    match value.and_then(|s| s.trim().parse::<usize>().ok()) {
        None | Some(0) => hw(),
        Some(n) => n.clamp(1, MAX_THREADS),
    }
}

/// The process-wide lane count, fixed on first use from `HIRE_THREADS`
/// (default: the hardware parallelism).
pub fn global() -> &'static Lanes {
    GLOBAL.get_or_init(|| Lanes {
        threads: threads_from_env_value(std::env::var("HIRE_THREADS").ok().as_deref()),
    })
}

/// Fixes the process-wide lane count before its first use (e.g. a
/// `--threads` CLI flag). Fails with the existing count if it was already
/// fixed to a different one.
pub fn set_global_threads(threads: usize) -> Result<(), usize> {
    let threads = threads.clamp(1, MAX_THREADS);
    let lanes = GLOBAL.get_or_init(|| Lanes { threads });
    if lanes.threads == threads {
        Ok(())
    } else {
        Err(lanes.threads)
    }
}

/// Runs `f` with `threads` lanes (clamped to `1..=256`) for every
/// [`parallel_map_chunks`] call it makes on this thread, instead of the
/// process-wide count. Nests; used by tests that pin a fan-out's width.
pub fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(threads.clamp(1, MAX_THREADS)))));
    f()
}

/// The lanes a [`parallel_map_chunks`] call on this thread uses: the
/// innermost [`with_pool`] override, else [`global`].
pub fn active_threads() -> usize {
    OVERRIDE.with(Cell::get).unwrap_or(global().threads())
}

/// `f` over every chunk index `0..len`, one value per chunk in ascending
/// chunk order, on up to [`active_threads`] scoped lanes. Re-raises the
/// first panic once every lane has finished (see the crate docs).
pub fn parallel_map_chunks<T: Send>(len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let lanes = active_threads().min(len);
    if lanes <= 1 {
        return (0..len).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let lane = || {
        let mut done = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= len {
                return done;
            }
            done.push((k, f(k)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..lanes).map(|_| s.spawn(lane)).collect();
        let mut done = lane();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_value_parsing() {
        assert_eq!(threads_from_env_value(Some("3")), 3);
        assert_eq!(threads_from_env_value(Some(" 8 ")), 8);
        assert_eq!(threads_from_env_value(Some("1")), 1);
        assert_eq!(threads_from_env_value(Some("100000")), MAX_THREADS);
        let hw = threads_from_env_value(None);
        assert!(hw >= 1);
        assert_eq!(threads_from_env_value(Some("")), hw);
        assert_eq!(threads_from_env_value(Some("0")), hw);
        assert_eq!(threads_from_env_value(Some("banana")), hw);
    }
}
