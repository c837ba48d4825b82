//! Micro-batching worker pool.
//!
//! Queries enter a bounded queue; a worker that wakes takes what is
//! queued at that moment (at most `max_batch`) and executes one batched
//! predictor call — it never waits for stragglers: whatever arrives while
//! the call is in flight forms the next batch. Backpressure is explicit:
//! a full queue rejects the submission with [`ServeError::Overloaded`]
//! instead of buffering unboundedly. A panicking predictor poisons only
//! the in-flight batch — its callers receive [`ServeError::WorkerLost`]
//! and the worker thread survives to serve the next batch. A query that
//! is already past its deadline when a worker picks it up is answered
//! [`ServeError::DeadlineExceeded`] without spending a forward on it —
//! accepted queries are always answered, never silently late.
//!
//! Each answer travels back through a one-shot reply slot that the job
//! and its [`PredictionHandle`] share: one allocation, written once by
//! the worker, which wakes the caller only if it is already waiting. A
//! job dropped unanswered closes its slot, so the handle reads
//! [`ServeError::WorkerLost`] instead of hanging. (Not a `std::sync::mpsc`
//! channel: its first send allocates a second, 2.3 KB block, for a value
//! sent exactly once.)

use hire_chaos::{sites, FaultPlan, InjectedFault};
use hire_error::HireError;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One rating query: "what would `user` rate `item`?"
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RatingQuery {
    /// User index.
    pub user: usize,
    /// Item index.
    pub item: usize,
}

/// Monotonically increasing identifier of an installed serving model.
/// Version 1 is the model the engine was built with; every hot swap
/// (promotion *or* demotion) installs the next version — numbers are never
/// reused, so a reply's version pins exactly which weights produced it.
pub type ModelVersion = u64;

/// Which tier of the degradation ladder produced an answer.
/// Descent order: `Model → Hybrid → Fallback` (DESIGN.md §10). `Cache`
/// sits in front of it: exact memos are consulted first as a fast path,
/// and a memo replays a *previous* model answer bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// A fresh frozen-model forward.
    Model,
    /// The trained bias + content hybrid predictor (model tier
    /// unavailable).
    Hybrid,
    /// The exact per-entry prediction memo in the context cache.
    Cache,
    /// The graph-statistics fallback predictor (degraded answer).
    Fallback,
}

impl ServedBy {
    /// Stable lowercase label for logs and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            ServedBy::Model => "model",
            ServedBy::Hybrid => "hybrid",
            ServedBy::Cache => "cache",
            ServedBy::Fallback => "fallback",
        }
    }
}

/// A served prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted rating, in the dataset's rating range.
    pub rating: f32,
    /// Submit-to-completion latency (includes queueing and batching).
    pub latency: Duration,
    /// The tier that produced the answer.
    pub served_by: ServedBy,
    /// The model version the batch was pinned to when it was answered
    /// (0 for predictors that don't version their models).
    pub version: ModelVersion,
}

/// One tier-tagged answer from a [`Predictor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Predicted rating.
    pub rating: f32,
    /// The tier that produced it.
    pub served_by: ServedBy,
    /// The model version the answering batch was pinned to (0 for
    /// unversioned predictors).
    pub version: ModelVersion,
}

/// Serving errors.
#[derive(Debug)]
pub enum ServeError {
    /// The queue is full; retry later (backpressure).
    Overloaded {
        /// Jobs queued when the submission was rejected.
        queue_len: usize,
        /// The configured queue bound.
        max_queue: usize,
    },
    /// The worker executing this query panicked or disconnected.
    WorkerLost,
    /// The server is draining; no new queries are accepted.
    ShuttingDown,
    /// The query's deadline budget elapsed before an answer was produced.
    DeadlineExceeded,
    /// A chaos-injected fault at a site the ladder does not degrade
    /// around: a write-ahead-log site, `online.swap` or `server.batch`
    /// (only reachable with a [`FaultPlan`] installed).
    Injected {
        /// The fault site that fired.
        site: &'static str,
    },
    /// An engine invariant broke — e.g. a ladder walk finished with a
    /// query still unanswered. A bug, but surfaced as a typed reply so it
    /// degrades one batch instead of killing a worker.
    Internal {
        /// What invariant broke.
        detail: String,
    },
    /// The model or context pipeline failed.
    Model(HireError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded {
                queue_len,
                max_queue,
            } => write!(f, "server overloaded: {queue_len} queued (max {max_queue})"),
            ServeError::WorkerLost => write!(f, "worker lost (panicked or disconnected)"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Injected { site } => write!(f, "injected fault at `{site}`"),
            ServeError::Internal { detail } => {
                write!(f, "internal serving invariant broken: {detail}")
            }
            ServeError::Model(e) => write!(f, "{e}"),
        }
    }
}

/// The one place batch errors are duplicated for fan-out to every caller
/// of a failed batch. `HireError` is not `Clone`, so the `Model` payload
/// is re-wrapped preserving its message.
impl Clone for ServeError {
    fn clone(&self) -> Self {
        match self {
            ServeError::Overloaded {
                queue_len,
                max_queue,
            } => ServeError::Overloaded {
                queue_len: *queue_len,
                max_queue: *max_queue,
            },
            ServeError::WorkerLost => ServeError::WorkerLost,
            ServeError::ShuttingDown => ServeError::ShuttingDown,
            ServeError::DeadlineExceeded => ServeError::DeadlineExceeded,
            ServeError::Injected { site } => ServeError::Injected { site },
            ServeError::Internal { detail } => ServeError::Internal {
                detail: detail.clone(),
            },
            ServeError::Model(e) => {
                ServeError::Model(HireError::invalid_data("serve", e.to_string()))
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<InjectedFault> for ServeError {
    fn from(fault: InjectedFault) -> Self {
        ServeError::Injected { site: fault.site }
    }
}

/// Anything that can answer a batch of rating queries. Implemented by
/// [`crate::ServeEngine`] and by [`crate::ShardedEngine`], which pins its
/// one model slot per batch the same way; tests inject slow/panicking
/// stand-ins.
pub trait Predictor: Send + Sync {
    /// Predicts a rating per query, in order.
    fn predict_batch(&self, queries: &[RatingQuery]) -> Result<Vec<f32>, ServeError>;

    /// Deadline-aware, tier-tagged variant: `deadline` is the tightest
    /// per-query deadline in the batch (None = unbounded). The default
    /// delegates to [`Predictor::predict_batch`] and tags every answer
    /// [`ServedBy::Model`].
    fn predict_batch_tagged(
        &self,
        queries: &[RatingQuery],
        deadline: Option<Instant>,
    ) -> Result<Vec<Answer>, ServeError> {
        let _ = deadline;
        Ok(self
            .predict_batch(queries)?
            .into_iter()
            .map(|rating| Answer {
                rating,
                served_by: ServedBy::Model,
                version: 0,
            })
            .collect())
    }
}

/// Worker-pool settings.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads.
    pub workers: usize,
    /// Maximum queries coalesced into one predictor call.
    pub max_batch: usize,
    /// Queue bound; submissions beyond it are rejected as `Overloaded`.
    pub max_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_batch: 8,
            max_queue: 1024,
        }
    }
}

/// Lifetime counters for a server.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Queries accepted into the queue.
    pub submitted: u64,
    /// Queries answered (successfully or with a typed error).
    pub completed: u64,
    /// Submissions rejected by backpressure.
    pub rejected: u64,
    /// Batches lost to predictor panics.
    pub worker_panics: u64,
    /// Queries answered `DeadlineExceeded` because their budget elapsed
    /// before a worker could run them.
    pub deadline_expired: u64,
}

struct Job {
    query: RatingQuery,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: Replier,
}

struct State {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    config: ServerConfig,
    faults: Option<Arc<FaultPlan>>,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    worker_panics: AtomicU64,
    deadline_expired: AtomicU64,
}

/// Recovers from a poisoned mutex: the shared state holds plain data that
/// stays consistent even if a holder panicked mid-critical-section.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// What a query's reply slot holds: the answer once it is sent, whether
/// the caller sleeps on it, and whether the sending side is gone.
#[derive(Debug, Default)]
struct SlotState {
    value: Option<Result<Prediction, ServeError>>,
    waiting: bool,
    closed: bool,
}

/// A one-shot reply slot, shared by a job ([`Replier`]) and its
/// [`PredictionHandle`].
#[derive(Debug, Default)]
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    /// Stores `value` (if any) and closes the slot; wakes the caller only
    /// if it is already waiting.
    fn close(&self, value: Option<Result<Prediction, ServeError>>) {
        let mut st = lock(&self.state);
        st.value = value;
        st.closed = true;
        if st.waiting {
            self.cv.notify_all();
        }
    }
}

/// A job's sending side of its reply slot. Sending consumes it; dropped
/// unsent (a worker that died with the job), it closes the slot empty, so
/// the handle reads [`ServeError::WorkerLost`] — what a dropped channel
/// sender reads.
struct Replier(Option<Arc<Slot>>);

impl Replier {
    fn send(mut self, result: Result<Prediction, ServeError>) {
        if let Some(slot) = self.0.take() {
            slot.close(Some(result));
        }
    }
}

impl Drop for Replier {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.close(None);
        }
    }
}

/// An in-flight query: wait on it for the prediction.
#[derive(Debug)]
pub struct PredictionHandle {
    slot: Arc<Slot>,
}

impl PredictionHandle {
    /// Blocks until the query is answered. A dropped worker surfaces as
    /// [`ServeError::WorkerLost`], never a hang.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        self.take_by(None)
    }

    /// Bounded wait: blocks at most `timeout` for the answer. Elapsing the
    /// timeout returns [`ServeError::DeadlineExceeded`] without consuming
    /// the handle — the query is still in flight and a later
    /// `recv_timeout`/[`PredictionHandle::wait`] can still collect it.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Prediction, ServeError> {
        // A timeout too large for an `Instant` is no bound at all.
        self.take_by(Instant::now().checked_add(timeout))
    }

    /// The answer; `WorkerLost` once the slot is closed without one (or
    /// its answer was already taken); `DeadlineExceeded` when `deadline`
    /// passes first.
    fn take_by(&self, deadline: Option<Instant>) -> Result<Prediction, ServeError> {
        let mut st = lock(&self.slot.state);
        loop {
            if let Some(value) = st.value.take() {
                return value;
            }
            if st.closed {
                return Err(ServeError::WorkerLost);
            }
            st.waiting = true;
            st = match deadline {
                None => self.slot.cv.wait(st).unwrap_or_else(|p| p.into_inner()),
                Some(deadline) => {
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        return Err(ServeError::DeadlineExceeded);
                    };
                    self.slot
                        .cv
                        .wait_timeout(st, left)
                        .unwrap_or_else(|p| p.into_inner())
                        .0
                }
            };
        }
    }
}

/// The micro-batching server.
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Spawns `config.workers` threads serving `predictor`.
    pub fn start(predictor: Arc<dyn Predictor>, config: ServerConfig) -> Server {
        Self::start_with_faults(predictor, config, None)
    }

    /// [`Server::start`] with a chaos [`FaultPlan`] hooked into the worker
    /// loop (`server.batch` site). Pass `None` for production serving —
    /// the hook then costs one null check per batch.
    pub fn start_with_faults(
        predictor: Arc<dyn Predictor>,
        config: ServerConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Server {
        let config = ServerConfig {
            workers: config.workers.max(1),
            max_batch: config.max_batch.max(1),
            max_queue: config.max_queue.max(1),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            config,
            faults,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
        });
        let workers = (0..shared.config.workers)
            .map(|_| {
                let shared = shared.clone();
                let predictor = predictor.clone();
                std::thread::spawn(move || worker_loop(shared, predictor))
            })
            .collect();
        Server {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Enqueues a query; returns a handle to wait on. Rejects immediately
    /// when the queue is full or the server is draining — an accepted
    /// submission is always answered.
    pub fn submit(&self, query: RatingQuery) -> Result<PredictionHandle, ServeError> {
        self.submit_with_deadline(query, None)
    }

    /// [`Server::submit`] with a per-query deadline budget. A query whose
    /// budget elapses before a worker runs it is answered
    /// [`ServeError::DeadlineExceeded`]; one that expires mid-batch is
    /// degraded by the predictor where possible.
    pub fn submit_with_deadline(
        &self,
        query: RatingQuery,
        budget: Option<Duration>,
    ) -> Result<PredictionHandle, ServeError> {
        let slot = Arc::<Slot>::default();
        let now = Instant::now();
        {
            let mut st = lock(&self.shared.state);
            if st.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if st.jobs.len() >= self.shared.config.max_queue {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    queue_len: st.jobs.len(),
                    max_queue: self.shared.config.max_queue,
                });
            }
            // Counted before a worker can pop (and count) the job, so a
            // `stats()` read never sees `completed > submitted`.
            self.shared.submitted.fetch_add(1, Ordering::Relaxed);
            st.jobs.push_back(Job {
                query,
                enqueued: now,
                // A budget too large for an `Instant` is no deadline at all.
                deadline: budget.and_then(|b| now.checked_add(b)),
                reply: Replier(Some(slot.clone())),
            });
        }
        self.shared.cv.notify_one();
        Ok(PredictionHandle { slot })
    }

    /// Blocking predict: submit + wait.
    pub fn predict(&self, query: RatingQuery) -> Result<Prediction, ServeError> {
        self.submit(query)?.wait()
    }

    /// Stops accepting queries, drains the queue, and joins the workers.
    /// Every query accepted before the call is still answered. Idempotent.
    pub fn shutdown(&self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.cv.notify_all();
        let handles: Vec<JoinHandle<()>> = lock(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Counter snapshot. `completed` is read first: every job it counts
    /// was counted in `submitted` before a worker could take it (under the
    /// queue lock, which the worker then took), so the snapshot always has
    /// `completed <= submitted`.
    pub fn stats(&self) -> ServerStats {
        let completed = self.shared.completed.load(Ordering::Acquire);
        ServerStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed,
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            worker_panics: self.shared.worker_panics.load(Ordering::Relaxed),
            deadline_expired: self.shared.deadline_expired.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The one reply sink: counts the job as completed, then sends its typed
/// result — counted first, so a caller that sees its answer also sees the
/// counter include it.
fn reply(shared: &Shared, job: Job, result: Result<Prediction, ServeError>) {
    shared.completed.fetch_add(1, Ordering::Release);
    job.reply.send(result);
}

fn worker_loop(shared: Arc<Shared>, predictor: Arc<dyn Predictor>) {
    // Kept across batches: a batch allocates neither its job list nor its
    // query list.
    let mut batch: Vec<Job> = Vec::with_capacity(shared.config.max_batch);
    let mut queries: Vec<RatingQuery> = Vec::with_capacity(shared.config.max_batch);
    loop {
        // Sleep until something is queued (or shutdown with an empty
        // queue), then take what is queued now, up to `max_batch`. A job
        // already past its deadline is answered `DeadlineExceeded` here,
        // without spending a forward, and never joins the batch.
        let mut tightest: Option<Instant> = None;
        let mut st = lock(&shared.state);
        loop {
            while batch.len() < shared.config.max_batch {
                let Some(job) = st.jobs.pop_front() else {
                    break;
                };
                if let Some(deadline) = job.deadline {
                    if Instant::now() >= deadline {
                        shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
                        reply(&shared, job, Err(ServeError::DeadlineExceeded));
                        continue;
                    }
                    tightest = Some(tightest.map_or(deadline, |t| t.min(deadline)));
                }
                batch.push(job);
            }
            if !batch.is_empty() {
                break;
            }
            if st.shutdown {
                return;
            }
            st = shared.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        drop(st);

        queries.clear();
        queries.extend(batch.iter().map(|j| j.query));
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &shared.faults {
                plan.fire(sites::SERVER_BATCH)?;
            }
            predictor.predict_batch_tagged(&queries, tightest)
        }));
        let outcome = match result {
            Ok(Ok(answers)) if answers.len() == batch.len() => Ok(answers),
            // A misbehaving predictor returned the wrong number of answers
            // (e.g. a chaos `WrongShape` fault). Every caller gets a typed
            // error — truncating the zip would leave the surplus jobs
            // answered `WorkerLost` by their dropped slots and mis-assign
            // ratings on a short batch.
            Ok(Ok(answers)) => Err(ServeError::Model(HireError::invalid_data(
                "Server",
                format!(
                    "predictor returned {} answers for a batch of {}",
                    answers.len(),
                    batch.len()
                ),
            ))),
            Ok(Err(e)) => Err(e),
            Err(_panic) => {
                // The batch is lost but the worker survives; callers get a
                // typed error instead of a hung handle.
                shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::WorkerLost)
            }
        };
        for (k, job) in batch.drain(..).enumerate() {
            let result = match &outcome {
                Ok(answers) => Ok(Prediction {
                    rating: answers[k].rating,
                    latency: job.enqueued.elapsed(),
                    served_by: answers[k].served_by,
                    version: answers[k].version,
                }),
                Err(e) => Err(e.clone()),
            };
            reply(&shared, job, result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(slot: &Arc<Slot>) -> Job {
        Job {
            query: RatingQuery { user: 0, item: 0 },
            enqueued: Instant::now(),
            deadline: None,
            reply: Replier(Some(slot.clone())),
        }
    }

    fn answer(rating: f32) -> Result<Prediction, ServeError> {
        Ok(Prediction {
            rating,
            latency: Duration::ZERO,
            served_by: ServedBy::Cache,
            version: 3,
        })
    }

    #[test]
    fn a_job_dropped_unsent_reads_worker_lost() {
        let slot = Arc::<Slot>::default();
        drop(job(&slot));
        let handle = PredictionHandle { slot };
        assert!(matches!(
            handle.recv_timeout(Duration::from_secs(5)),
            Err(ServeError::WorkerLost)
        ));
        assert!(matches!(handle.wait(), Err(ServeError::WorkerLost)));

        // Dropped while the caller already sleeps on it: woken, not hung.
        let slot = Arc::<Slot>::default();
        let pending = job(&slot);
        let handle = PredictionHandle { slot };
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(pending);
        });
        assert!(matches!(handle.wait(), Err(ServeError::WorkerLost)));
        dropper.join().unwrap();
    }

    #[test]
    fn a_timed_out_wait_leaves_the_handle_usable() {
        let slot = Arc::<Slot>::default();
        let pending = job(&slot);
        let handle = PredictionHandle { slot };
        assert!(matches!(
            handle.recv_timeout(Duration::from_millis(1)),
            Err(ServeError::DeadlineExceeded)
        ));
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            pending.reply.send(answer(4.5));
        });
        let got = handle.wait().expect("the answer sent after the timeout");
        assert_eq!(
            (got.rating, got.served_by, got.version),
            (4.5, ServedBy::Cache, 3)
        );
        sender.join().unwrap();
    }

    #[test]
    fn an_answer_is_taken_once() {
        let slot = Arc::<Slot>::default();
        job(&slot).reply.send(answer(2.0));
        let handle = PredictionHandle { slot };
        assert_eq!(handle.recv_timeout(Duration::ZERO).unwrap().rating, 2.0);
        // What a channel reads after its one message: the sender is gone.
        assert!(matches!(
            handle.recv_timeout(Duration::ZERO),
            Err(ServeError::WorkerLost)
        ));
    }
}
