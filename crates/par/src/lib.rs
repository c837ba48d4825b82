//! A vendored, dependency-free work-stealing thread pool for the one grain
//! of parallelism the workspace has: independent units of work — the shards
//! of a `ShardedEngine` batch, the models of a harness table. Kernels and
//! forwards do not fan out; they run on whichever thread calls them, a pool
//! task's included (DESIGN.md §11).
//!
//! # Design
//!
//! A [`ThreadPool`] owns `threads - 1` worker threads; the thread that calls
//! [`ThreadPool::parallel_for`] participates as the final lane, so
//! `threads == 1` means *no* workers and every call degrades to inline
//! sequential execution. Work items are ranges of a caller-provided index
//! space, pushed round-robin onto per-worker deques; a worker pops its own
//! deque LIFO and steals FIFO from its siblings when empty, and the caller
//! drains tasks of *its own scope* from every deque while it waits —
//! classic work stealing with plain `Mutex<VecDeque>` deques (chunk counts
//! are small, so lock traffic is negligible next to kernel work). The
//! caller deliberately never executes a foreign scope's task: doing so
//! could park a latency-sensitive caller (e.g. a serving thread between
//! deadline checks) behind an arbitrarily long chunk from an unrelated
//! scope such as a benchmark's model-training fan-out.
//!
//! # Determinism contract
//!
//! Chunk boundaries depend **only** on `(len, grain)` — never on the thread
//! count, the pool, or timing. Every index `i < len` lands in exactly the
//! chunk `[i - i % grain, min(len, i - i % grain + grain))`, and
//! [`ThreadPool::parallel_map_chunks`] returns per-chunk values in ascending
//! chunk order, so a caller sees the same values in the same order on 1
//! thread and on N.
//!
//! # Panic propagation
//!
//! A panic inside a task is caught on the executing thread, stashed, and
//! re-raised on the *calling* thread once every task of the scope has
//! finished. Workers survive: the pool is never poisoned and subsequent
//! calls run normally.
//!
//! # Nesting
//!
//! A `parallel_for` issued from inside a pool task runs inline on the
//! executing thread (no new tasks are queued), so nested data parallelism
//! can never deadlock and outer-level parallelism wins. The marker is
//! thread-local: a thread a task *spawns* (the harness's per-model isolation
//! thread) does not carry it, so only independent top-level work belongs on
//! the pool.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Upper bound on configured threads; guards against absurd `HIRE_THREADS`.
const MAX_THREADS: usize = 256;

// ---------------------------------------------------------------------------
// Scope state: one per parallel_for call, lives on the caller's stack.
// ---------------------------------------------------------------------------

/// Type-erased task body: executes indices `[start, end)`.
type TaskFn<'a> = dyn Fn(usize, usize) + Sync + 'a;

struct ScopeState {
    /// Borrow of the caller's closure, lifetime-erased. Valid because the
    /// caller blocks in `run_scope` until it observes `done == true` under
    /// `done_lock` — which the last task sets *after* its final access to
    /// this struct (see `run_task` / `run_scope` for the full argument).
    func: *const TaskFn<'static>,
    /// Tasks not yet finished (executed or panicked).
    pending: AtomicUsize,
    /// First panic payload raised by a task, re-raised by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion flag, flipped by the last task while holding the lock.
    /// The caller's *only* exit condition: it must never return based on
    /// the bare `pending` atomic, or it could free this stack frame while
    /// the last task is still between its `fetch_sub` and the notify here.
    done_lock: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `func` is only dereferenced while the owning `run_scope` frame is
// blocked waiting on `pending`; all other fields are thread-safe primitives.
unsafe impl Sync for ScopeState {}

/// One queued unit of work: a chunk of some live scope's index space.
#[derive(Clone, Copy)]
struct Task {
    scope: *const ScopeState,
    start: usize,
    end: usize,
}

// SAFETY: the pointed-to ScopeState outlives the task (see ScopeState).
unsafe impl Send for Task {}

thread_local! {
    /// Set while this thread is executing a pool task — makes nested
    /// `parallel_for` calls run inline instead of re-entering the queues.
    static IN_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Scoped pool override installed by [`with_pool`].
    static ACTIVE_POOL: std::cell::RefCell<Vec<Arc<ThreadPool>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs one task, recording a panic into its scope instead of unwinding the
/// executing thread, and signals the scope when it was the last task.
fn run_task(task: Task) {
    // SAFETY: the scope (and the closure it borrows) is kept alive by the
    // caller of `run_scope`, which only returns after observing
    // `done == true` under `done_lock`. Non-last tasks never touch the
    // scope after their `fetch_sub` (and `done` stays false until the last
    // one), and the last task's lock/set/notify/unlock sequence below
    // happens-before the caller's exit — so no task can dereference the
    // scope after the caller frees it.
    let scope = unsafe { &*task.scope };
    let func = unsafe { &*scope.func };
    let was_in_task = IN_TASK.with(|f| f.replace(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| func(task.start, task.end)));
    IN_TASK.with(|f| f.set(was_in_task));
    if let Err(payload) = outcome {
        let mut slot = scope.panic.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    if scope.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        let mut done = scope.done_lock.lock().unwrap_or_else(|p| p.into_inner());
        *done = true;
        scope.done_cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

struct Shared {
    /// One deque per worker thread. The caller pushes round-robin and
    /// steals from the front; worker `i` pops `queues[i]` from the back.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Round-robin push cursor.
    push_cursor: AtomicUsize,
    /// Sleep/wake rendezvous for idle workers.
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Pops from the back of this worker's own deque (LIFO).
    fn pop_own(&self, idx: usize) -> Option<Task> {
        self.queues[idx]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop_back()
    }

    /// Steals from the front of sibling deques (FIFO), starting after
    /// `idx` so victims rotate.
    fn steal(&self, idx: usize) -> Option<Task> {
        let n = self.queues.len();
        for off in 1..n {
            let victim = (idx + off) % n;
            if let Some(task) = self.queues[victim]
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .pop_front()
            {
                return Some(task);
            }
        }
        None
    }

    /// Steal scan used by the caller in `run_scope`: removes the
    /// front-most queued task belonging to `scope`, skipping foreign
    /// scopes' tasks. The caller must only help with its own scope — a
    /// latency-sensitive caller (e.g. a serving thread between deadline
    /// checks) that picked up an arbitrary task could be parked behind an
    /// unrelated multi-second chunk, blowing its documented latency bound.
    fn steal_scope(&self, scope: *const ScopeState) -> Option<Task> {
        for q in &self.queues {
            let mut q = q.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(pos) = q.iter().position(|t| std::ptr::eq(t.scope, scope)) {
                return q.remove(pos);
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        self.queues
            .iter()
            .any(|q| !q.lock().unwrap_or_else(|p| p.into_inner()).is_empty())
    }
}

fn worker_loop(shared: Arc<Shared>, idx: usize) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(task) = shared.pop_own(idx).or_else(|| shared.steal(idx)) {
            run_task(task);
            continue;
        }
        // Nothing runnable: sleep until a push or shutdown. Re-checking
        // under the sleep lock closes the missed-wakeup race (pushers
        // notify while holding it).
        let guard = shared.sleep_lock.lock().unwrap_or_else(|p| p.into_inner());
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.has_work() {
            continue;
        }
        drop(
            shared
                .sleep_cv
                .wait(guard)
                .unwrap_or_else(|p| p.into_inner()),
        );
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// A fixed-size work-stealing thread pool. See the crate docs for the
/// determinism and panic contracts.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

/// Builder for [`ThreadPool`] (explicit size, or `HIRE_THREADS`/hardware
/// defaults).
#[derive(Debug, Default, Clone)]
pub struct PoolBuilder {
    threads: Option<usize>,
}

impl PoolBuilder {
    /// A builder using the environment/hardware default thread count.
    pub fn new() -> Self {
        PoolBuilder::default()
    }

    /// Sets an explicit thread count (clamped to `1..=256`).
    pub fn num_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.clamp(1, MAX_THREADS));
        self
    }

    /// Builds the pool.
    pub fn build(self) -> ThreadPool {
        ThreadPool::new(self.threads.unwrap_or_else(default_threads))
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` total lanes (the calling thread counts
    /// as one, so `threads - 1` workers are spawned; `threads <= 1` spawns
    /// none and runs everything inline).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.clamp(1, MAX_THREADS);
        let workers = threads - 1;
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            push_cursor: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|idx| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("hire-par-{idx}"))
                    .spawn(move || worker_loop(shared, idx))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            threads,
        }
    }

    /// Total lanes (callers + workers) this pool was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every chunk of `0..len`, chunks of size `grain` (the
    /// last one ragged). Chunk boundaries depend only on `(len, grain)`.
    /// Blocks until all chunks finished; re-raises the first task panic.
    pub fn parallel_for(&self, len: usize, grain: usize, f: impl Fn(Range<usize>) + Sync) {
        let grain = grain.max(1);
        if len == 0 {
            return;
        }
        let inline = self.handles.is_empty() || len <= grain || IN_TASK.with(|t| t.get());
        if inline {
            let mut start = 0;
            while start < len {
                let end = (start + grain).min(len);
                f(start..end);
                start = end;
            }
            return;
        }
        let body = move |s: usize, e: usize| f(s..e);
        self.run_scope(len, grain, &body);
    }

    /// [`Self::parallel_for`] collecting one value per chunk, in ascending
    /// chunk order — the deterministic-ordered-reduction primitive: fold
    /// the returned vector sequentially and the float operation sequence is
    /// identical for every thread count.
    pub fn parallel_map_chunks<T: Send>(
        &self,
        len: usize,
        grain: usize,
        f: impl Fn(Range<usize>) -> T + Sync,
    ) -> Vec<T> {
        let grain = grain.max(1);
        let chunks = len.div_ceil(grain);
        let slots: Vec<Mutex<Option<T>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
        self.parallel_for(len, grain, |range| {
            let idx = range.start / grain;
            *slots[idx].lock().unwrap_or_else(|p| p.into_inner()) = Some(f(range));
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("every chunk ran")
            })
            .collect()
    }

    /// Pushes the scope's chunks and participates until every one finished.
    fn run_scope(&self, len: usize, grain: usize, body: &(dyn Fn(usize, usize) + Sync)) {
        let chunks = len.div_ceil(grain);
        // SAFETY: lifetime erasure only — the scope (and `body`) stay alive
        // until this function returns, and it cannot return while any task
        // holds the pointer (the `done`-flag wait below blocks until the
        // last task's final scope access has happened-before our exit).
        let func: *const TaskFn<'static> =
            unsafe { std::mem::transmute::<*const TaskFn<'_>, *const TaskFn<'static>>(body) };
        let scope = ScopeState {
            func,
            pending: AtomicUsize::new(chunks),
            panic: Mutex::new(None),
            done_lock: Mutex::new(false),
            done_cv: Condvar::new(),
        };
        {
            // Enqueue round-robin, then wake everyone once.
            let nq = self.shared.queues.len();
            let base = self.shared.push_cursor.fetch_add(chunks, Ordering::Relaxed);
            let mut start = 0;
            let mut c = 0usize;
            while start < len {
                let end = (start + grain).min(len);
                let task = Task {
                    scope: &scope,
                    start,
                    end,
                };
                self.shared.queues[(base + c) % nq]
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push_back(task);
                start = end;
                c += 1;
            }
            let _g = self
                .shared
                .sleep_lock
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            self.shared.sleep_cv.notify_all();
        }
        // Participate: run this scope's queued chunks ourselves. Foreign
        // scopes' tasks are left to the workers on purpose (see
        // `Shared::steal_scope`). Tasks are enqueued exactly once and never
        // re-queued, so once none of ours remain in the deques the
        // stragglers are already executing on workers.
        while let Some(task) = self.shared.steal_scope(&scope) {
            run_task(task);
        }
        // Block until the last task flips `done` under the lock. Exiting
        // *only* on this flag — never on the bare `pending` atomic — is
        // what makes freeing `scope` sound: the last task's unlock
        // happens-before our lock acquisition observes `done == true`, and
        // that task touches nothing of the scope after its unlock, so no
        // task can still dereference this stack frame once we return.
        let mut done = scope.done_lock.lock().unwrap_or_else(|p| p.into_inner());
        while !*done {
            done = scope.done_cv.wait(done).unwrap_or_else(|p| p.into_inner());
        }
        drop(done);
        let payload = scope.panic.lock().unwrap_or_else(|p| p.into_inner()).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self
                .shared
                .sleep_lock
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            self.shared.sleep_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Global pool + scoped overrides
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Arc<ThreadPool>> = OnceLock::new();

/// Parses a `HIRE_THREADS` value: `None`/empty/`"0"` mean "hardware
/// default"; garbage degrades to the hardware default rather than
/// panicking; valid counts are clamped to `1..=256`.
pub fn threads_from_env_value(value: Option<&str>) -> usize {
    let hw = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match value.map(str::trim) {
        None | Some("") | Some("0") => hw(),
        Some(s) => match s.parse::<usize>() {
            Ok(n) => n.clamp(1, MAX_THREADS),
            Err(_) => hw(),
        },
    }
}

/// Thread count the global pool will use: `HIRE_THREADS` if set, else the
/// hardware parallelism.
pub fn default_threads() -> usize {
    threads_from_env_value(std::env::var("HIRE_THREADS").ok().as_deref())
}

/// The process-wide pool, created on first use from [`default_threads`].
pub fn global() -> &'static Arc<ThreadPool> {
    GLOBAL.get_or_init(|| Arc::new(ThreadPool::new(default_threads())))
}

/// Fixes the global pool's size before its first use (e.g. a `--threads`
/// CLI flag). Fails if the global pool already exists with a different
/// size.
pub fn set_global_threads(threads: usize) -> Result<(), usize> {
    let threads = threads.clamp(1, MAX_THREADS);
    let pool = GLOBAL.get_or_init(|| Arc::new(ThreadPool::new(threads)));
    if pool.threads() == threads {
        Ok(())
    } else {
        Err(pool.threads())
    }
}

/// Runs `f` with `pool` as the calling thread's active pool: every
/// [`parallel_map_chunks`] free-function call reached from `f` (on this
/// thread) uses it instead of the global pool. Supports nesting; used by
/// tests that pin a fan-out's width.
pub fn with_pool<R>(pool: &Arc<ThreadPool>, f: impl FnOnce() -> R) -> R {
    ACTIVE_POOL.with(|stack| stack.borrow_mut().push(pool.clone()));
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            ACTIVE_POOL.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// The calling thread's active pool: the innermost [`with_pool`] override,
/// else the global pool.
pub fn active_pool() -> Arc<ThreadPool> {
    ACTIVE_POOL
        .with(|stack| stack.borrow().last().cloned())
        .unwrap_or_else(|| global().clone())
}

/// [`ThreadPool::parallel_map_chunks`] on the active pool.
pub fn parallel_map_chunks<T: Send>(
    len: usize,
    grain: usize,
    f: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    active_pool().parallel_map_chunks(len, grain, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for(1000, 7, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let same_thread = Mutex::new(true);
        pool.parallel_for(100, 8, |_range| {
            if std::thread::current().id() != caller {
                *same_thread.lock().unwrap() = false;
            }
        });
        assert!(*same_thread.lock().unwrap());
    }

    #[test]
    fn map_chunks_is_in_chunk_order() {
        let pool = ThreadPool::new(3);
        let starts = pool.parallel_map_chunks(25, 4, |range| range.start);
        assert_eq!(starts, vec![0, 4, 8, 12, 16, 20, 24]);
    }

    /// Regression for a use-after-free race in scope completion: the
    /// caller used to exit `run_scope` on the bare `pending` atomic, which
    /// could free the stack-allocated `ScopeState` while the last worker
    /// was still between its `fetch_sub` and the `done_cv` notify. Rapid
    /// scope turnover from many threads at once makes that window manifest
    /// as corrupted sums, hangs, or crashes.
    #[test]
    fn concurrent_scope_completion_stress() {
        let pool = ThreadPool::new(4);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..200usize {
                        let len = 17 + (t + i) % 13;
                        let total = AtomicU64::new(0);
                        pool.parallel_for(len, 2, |range| {
                            for j in range {
                                total.fetch_add(j as u64 + 1, Ordering::Relaxed);
                            }
                        });
                        let expect = (len * (len + 1) / 2) as u64;
                        assert_eq!(total.load(Ordering::Relaxed), expect);
                    }
                });
            }
        });
    }

    /// A caller waiting on its own scope must never execute a foreign
    /// scope's task — picking one up could park a latency-sensitive caller
    /// (e.g. a serving thread) behind an arbitrarily long chunk from an
    /// unrelated fan-out. Two callers share one worker here; each logs the
    /// threads its chunks ran on, and neither may appear in the other's log.
    #[test]
    fn caller_never_runs_foreign_scope_tasks() {
        use std::time::Duration;
        let pool = ThreadPool::new(2);
        let a_log: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        let b_log: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        let run = |log: &Mutex<Vec<std::thread::ThreadId>>| {
            pool.parallel_for(8, 1, |_range| {
                log.lock().unwrap().push(std::thread::current().id());
                std::thread::sleep(Duration::from_millis(2));
            });
            std::thread::current().id()
        };
        let (a_id, b_id) = std::thread::scope(|s| {
            let ha = s.spawn(|| run(&a_log));
            let hb = s.spawn(|| run(&b_log));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert!(
            !a_log.lock().unwrap().contains(&b_id),
            "caller B executed a task of scope A"
        );
        assert!(
            !b_log.lock().unwrap().contains(&a_id),
            "caller A executed a task of scope B"
        );
    }

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
