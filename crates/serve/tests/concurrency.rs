//! Worker-pool semantics under load, shutdown, worker failure, deadline
//! budgets, and cache/graph write races — mirroring the fault-injection
//! style of `crates/bench/tests/fault.rs`.

use hire_core::{HireConfig, HireModel};
use hire_graph::Rating;
use hire_serve::{
    Answer, EngineConfig, FrozenModel, Predictor, RatingQuery, ServeEngine, ServeError, ServedBy,
    Server, ServerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Answers `user + item` after an optional delay; panics on a poisoned
/// user id.
struct TestPredictor {
    delay: Duration,
    panic_on_user: Option<usize>,
    calls: AtomicU64,
    served: AtomicU64,
}

impl TestPredictor {
    fn new(delay: Duration, panic_on_user: Option<usize>) -> Self {
        TestPredictor {
            delay,
            panic_on_user,
            calls: AtomicU64::new(0),
            served: AtomicU64::new(0),
        }
    }
}

impl Predictor for TestPredictor {
    fn predict_batch(&self, queries: &[RatingQuery]) -> Result<Vec<f32>, ServeError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        if let Some(poison) = self.panic_on_user {
            if queries.iter().any(|q| q.user == poison) {
                panic!("injected predictor panic");
            }
        }
        self.served
            .fetch_add(queries.len() as u64, Ordering::SeqCst);
        Ok(queries.iter().map(|q| (q.user + q.item) as f32).collect())
    }
}

#[test]
fn shutdown_drains_queue_and_answers_every_accepted_query() {
    let predictor = Arc::new(TestPredictor::new(Duration::from_millis(5), None));
    let server = Server::start(
        predictor.clone(),
        ServerConfig {
            workers: 2,
            max_batch: 4,
            max_queue: 1024,
        },
    );
    let handles: Vec<_> = (0..40)
        .map(|k| {
            server
                .submit(RatingQuery { user: k, item: k })
                .expect("accepted")
        })
        .collect();
    // Shut down immediately: the queue is still mostly full, and every
    // accepted query must still be answered.
    server.shutdown();
    for (k, h) in handles.into_iter().enumerate() {
        let pred = h.wait().expect("drained query must be answered");
        assert_eq!(pred.rating, (2 * k) as f32);
    }
    assert_eq!(predictor.served.load(Ordering::SeqCst), 40);
    let stats = server.stats();
    assert_eq!(stats.submitted, 40);
    assert_eq!(stats.completed, 40);
}

#[test]
fn submissions_after_shutdown_are_rejected() {
    let server = Server::start(
        Arc::new(TestPredictor::new(Duration::ZERO, None)),
        ServerConfig::default(),
    );
    server.shutdown();
    let err = server
        .submit(RatingQuery { user: 0, item: 0 })
        .expect_err("post-shutdown submit must fail");
    assert!(matches!(err, ServeError::ShuttingDown), "got {err}");
}

#[test]
fn full_queue_rejects_with_overloaded_but_drops_nothing_accepted() {
    let server = Server::start(
        Arc::new(TestPredictor::new(Duration::from_millis(20), None)),
        ServerConfig {
            workers: 1,
            max_batch: 1,
            max_queue: 3,
        },
    );
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for k in 0..30 {
        match server.submit(RatingQuery { user: k, item: 0 }) {
            Ok(h) => accepted.push((k, h)),
            Err(ServeError::Overloaded { max_queue, .. }) => {
                assert_eq!(max_queue, 3);
                rejected += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(rejected > 0, "a slow single worker must shed load");
    let n_accepted = accepted.len() as u64;
    for (k, h) in accepted {
        let pred = h.wait().expect("accepted query must complete");
        assert_eq!(pred.rating, k as f32);
    }
    let stats = server.stats();
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed, n_accepted);
}

/// A busy worker may answer (and count) a job before its submitter's call
/// has returned: `submitted` must already include it, on every read.
#[test]
fn stats_never_read_more_completed_than_submitted() {
    const SUBMITTERS: usize = 2;
    const PER_SUBMITTER: usize = 25_000;
    let server = Server::start(
        Arc::new(TestPredictor::new(Duration::ZERO, None)),
        ServerConfig {
            workers: 4,
            max_batch: 1,
            max_queue: 1 << 17,
        },
    );
    let stop = AtomicBool::new(false);
    let reads = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut reads = 0u64;
            while !stop.load(Ordering::Acquire) {
                let stats = server.stats();
                assert!(
                    stats.completed <= stats.submitted,
                    "completed {} > submitted {}",
                    stats.completed,
                    stats.submitted
                );
                reads += 1;
            }
            reads
        });
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let server = &server;
                s.spawn(move || {
                    for k in 0..PER_SUBMITTER {
                        server
                            .submit(RatingQuery { user: t, item: k })
                            .expect("the queue never fills");
                    }
                })
            })
            .collect();
        for submitter in submitters {
            submitter.join().expect("submitter");
        }
        stop.store(true, Ordering::Release);
        reader.join().expect("reader")
    });
    assert!(reads > 0);
    server.shutdown();
    let stats = server.stats();
    let total = (SUBMITTERS * PER_SUBMITTER) as u64;
    assert_eq!((stats.submitted, stats.completed), (total, total));
}

#[test]
fn worker_panic_surfaces_as_worker_lost_not_deadlock() {
    let predictor = Arc::new(TestPredictor::new(Duration::ZERO, Some(666)));
    let server = Server::start(
        predictor.clone(),
        ServerConfig {
            workers: 1,
            max_batch: 1, // keep the poisoned query in its own batch
            max_queue: 64,
        },
    );
    let err = server
        .predict(RatingQuery { user: 666, item: 0 })
        .expect_err("poisoned query must fail");
    assert!(matches!(err, ServeError::WorkerLost), "got {err}");
    assert_eq!(server.stats().worker_panics, 1);

    // The worker survives the panic and keeps serving.
    let pred = server
        .predict(RatingQuery { user: 1, item: 2 })
        .expect("worker must survive a panicked batch");
    assert_eq!(pred.rating, 3.0);
    server.shutdown();
}

#[test]
fn batches_coalesce_up_to_max_batch() {
    let predictor = Arc::new(TestPredictor::new(Duration::from_millis(10), None));
    let server = Server::start(
        predictor.clone(),
        ServerConfig {
            workers: 1,
            max_batch: 8,
            max_queue: 1024,
        },
    );
    // With one slow worker, 32 queued queries must drain in far fewer
    // predictor calls than queries.
    let handles: Vec<_> = (0..32)
        .map(|k| {
            server
                .submit(RatingQuery { user: k, item: 1 })
                .expect("accepted")
        })
        .collect();
    for h in handles {
        h.wait().expect("answered");
    }
    let calls = predictor.calls.load(Ordering::SeqCst);
    assert!(
        calls < 32,
        "expected micro-batching to coalesce: {calls} calls for 32 queries"
    );
    server.shutdown();
}

#[test]
fn queued_query_past_its_deadline_is_answered_typed_not_silently_late() {
    let server = Server::start(
        Arc::new(TestPredictor::new(Duration::from_millis(80), None)),
        ServerConfig {
            workers: 1,
            max_batch: 1,
            max_queue: 16,
        },
    );
    // Occupy the single worker, then queue a query whose budget will
    // expire while it waits behind the slow batch (FIFO: the slow query
    // is always picked first, so the doomed one waits out its budget).
    let slow = server
        .submit(RatingQuery { user: 1, item: 1 })
        .expect("accepted");
    std::thread::sleep(Duration::from_millis(10));
    let doomed = server
        .submit_with_deadline(
            RatingQuery { user: 2, item: 2 },
            Some(Duration::from_millis(1)),
        )
        .expect("accepted");
    let err = doomed
        .recv_timeout(Duration::from_secs(10))
        .expect_err("expired query must fail");
    assert!(matches!(err, ServeError::DeadlineExceeded), "got {err}");
    slow.wait().expect("unconstrained query still served");
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(
        stats.completed, 2,
        "a deadline reply still counts as an answer"
    );
}

#[test]
fn recv_timeout_bounds_the_wait_without_consuming_the_handle() {
    let server = Server::start(
        Arc::new(TestPredictor::new(Duration::from_millis(50), None)),
        ServerConfig {
            workers: 1,
            max_batch: 1,
            max_queue: 16,
        },
    );
    let handle = server
        .submit(RatingQuery { user: 3, item: 4 })
        .expect("accepted");
    // The bounded wait elapses long before the 50ms predictor finishes...
    let err = handle
        .recv_timeout(Duration::from_millis(1))
        .expect_err("bounded wait must time out");
    assert!(matches!(err, ServeError::DeadlineExceeded), "got {err}");
    // ...but the query is still in flight: a later wait gets the answer.
    let pred = handle
        .recv_timeout(Duration::from_secs(10))
        .expect("late answer must still arrive");
    assert_eq!(pred.rating, 7.0);
    server.shutdown();
}

/// Reports each batch (its users, and the deadline the server handed the
/// predictor) on entry, then blocks until the test releases it — so the
/// test, not a clock, decides what is queued while a batch is in flight.
struct GatedPredictor {
    entered: mpsc::Sender<(Vec<usize>, Option<Instant>)>,
    release: Mutex<mpsc::Receiver<()>>,
}

/// The test's end of a [`GatedPredictor`].
struct Gate {
    entered: mpsc::Receiver<(Vec<usize>, Option<Instant>)>,
    release: mpsc::Sender<()>,
}

impl GatedPredictor {
    fn new() -> (Arc<Self>, Gate) {
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let predictor = GatedPredictor {
            entered: entered_tx,
            release: Mutex::new(release_rx),
        };
        (Arc::new(predictor), Gate { entered, release })
    }
}

impl Gate {
    /// Blocks until the worker enters its next batch; returns what it was
    /// given.
    fn next_batch(&self) -> (Vec<usize>, Option<Instant>) {
        self.entered
            .recv_timeout(Duration::from_secs(10))
            .expect("the worker must enter a batch")
    }

    /// Lets the batch the worker is blocked in finish.
    fn release(&self) {
        self.release.send(()).expect("predictor alive");
    }
}

impl Predictor for GatedPredictor {
    fn predict_batch(&self, queries: &[RatingQuery]) -> Result<Vec<f32>, ServeError> {
        Ok(queries.iter().map(|q| (q.user + q.item) as f32).collect())
    }

    fn predict_batch_tagged(
        &self,
        queries: &[RatingQuery],
        deadline: Option<Instant>,
    ) -> Result<Vec<Answer>, ServeError> {
        let users = queries.iter().map(|q| q.user).collect();
        self.entered.send((users, deadline)).expect("test alive");
        self.release
            .lock()
            .expect("gate lock")
            .recv()
            .expect("test alive");
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

fn gated_server(max_batch: usize) -> (Server, Gate) {
    let (predictor, gate) = GatedPredictor::new();
    let server = Server::start(
        predictor,
        ServerConfig {
            workers: 1,
            max_batch,
            max_queue: 64,
        },
    );
    (server, gate)
}

/// The batching rule, stated without a clock: a free worker runs what is
/// queued the moment it wakes, and whatever arrives while that batch is
/// in flight forms the next one, `max_batch` at a time.
#[test]
fn worker_takes_what_is_queued_and_never_waits_for_more() {
    let (server, gate) = gated_server(8);
    let submit = |users: std::ops::RangeInclusive<usize>| -> Vec<_> {
        users
            .map(|user| {
                server
                    .submit(RatingQuery { user, item: 0 })
                    .expect("accepted")
            })
            .collect()
    };

    // A lone query is entered alone, before anything else is submitted.
    let mut handles = submit(1..=1);
    assert_eq!(gate.next_batch().0, [1]);

    // Four arrive while it is in flight: together they are the next batch.
    handles.extend(submit(2..=5));
    gate.release();
    assert_eq!(gate.next_batch().0, [2, 3, 4, 5]);

    // Twelve arrive while that one is in flight: eight, then four.
    handles.extend(submit(6..=17));
    gate.release();
    assert_eq!(gate.next_batch().0, (6..=13).collect::<Vec<_>>());
    gate.release();
    assert_eq!(gate.next_batch().0, (14..=17).collect::<Vec<_>>());
    gate.release();

    for (k, h) in handles.into_iter().enumerate() {
        assert_eq!(h.wait().expect("answered").rating, (k + 1) as f32);
    }
    server.shutdown();
    assert_eq!(server.stats().completed, 17);
}

/// Regression: only the first job of a batch used to be screened against
/// its deadline, so an expired job popped after it joined the batch and
/// its dead deadline became the whole batch's — degrading (or refusing)
/// batch-mates that carried no deadline at all.
#[test]
fn expired_straggler_is_refused_alone_and_does_not_poison_its_batch_mates() {
    let (server, gate) = gated_server(8);
    let query = |user| RatingQuery { user, item: 0 };
    let held = server.submit(query(0)).expect("accepted");
    assert_eq!(gate.next_batch().0, [0]);

    // Queued behind the held batch: no deadline, already expired, far off.
    let free = server.submit(query(1)).expect("accepted");
    let expired = server
        .submit_with_deadline(query(2), Some(Duration::ZERO))
        .expect("accepted");
    let far = Instant::now() + Duration::from_secs(3600);
    let roomy = server
        .submit_with_deadline(query(3), Some(Duration::from_secs(2 * 3600)))
        .expect("accepted");
    gate.release();

    let (users, deadline) = gate.next_batch();
    assert_eq!(
        users,
        [1, 3],
        "the expired query must not reach the predictor"
    );
    assert!(
        deadline.is_some_and(|d| d > far),
        "the batch's deadline is its live members' tightest, got {deadline:?}"
    );
    gate.release();

    held.wait().expect("held query answered");
    free.wait().expect("deadline-free query answered");
    roomy.wait().expect("roomy query answered");
    let err = expired.wait().expect_err("expired query must be refused");
    assert!(matches!(err, ServeError::DeadlineExceeded), "got {err}");
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.completed, 4);
}

/// Returns one value fewer than it was asked for — a buggy predictor whose
/// output must never be zip-truncated onto the wrong queries.
struct ShortPredictor;

impl Predictor for ShortPredictor {
    fn predict_batch(&self, queries: &[RatingQuery]) -> Result<Vec<f32>, ServeError> {
        Ok(vec![1.0; queries.len().saturating_sub(1)])
    }
}

#[test]
fn wrong_length_predictor_output_is_a_typed_error_for_every_caller() {
    let server = Server::start(
        Arc::new(ShortPredictor),
        ServerConfig {
            workers: 1,
            max_batch: 4,
            max_queue: 64,
        },
    );
    let handles: Vec<_> = (0..4)
        .map(|k| {
            server
                .submit(RatingQuery { user: k, item: 0 })
                .expect("accepted")
        })
        .collect();
    for (k, h) in handles.into_iter().enumerate() {
        let err = h
            .recv_timeout(Duration::from_secs(10))
            .expect_err("short output must fail the whole batch");
        assert!(
            matches!(&err, ServeError::Model(e) if e.to_string().contains("for a batch of")),
            "query {k}: expected a shape-mismatch error, got {err}"
        );
    }
    server.shutdown();
    assert_eq!(server.stats().completed, 4);
}

const RACE_USERS: usize = 40;
const RACE_ITEMS: usize = 35;

/// Two engines over the same frozen weights and dataset: one to race, one
/// as the single-threaded reference.
fn engine_pair() -> (ServeEngine, ServeEngine) {
    let dataset = Arc::new(
        hire_data::SyntheticConfig::movielens_like()
            .scaled(RACE_USERS, RACE_ITEMS, (8, 15))
            .generate(21),
    );
    let config = HireConfig::fast().with_blocks(1).with_context_size(8, 8);
    let mut rng = StdRng::seed_from_u64(4);
    let model = HireModel::new(&dataset, &config, &mut rng);
    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
    let engine_config = EngineConfig {
        cache_capacity: 64,
        ..EngineConfig::from_model_config(&config)
    };
    let mk = || ServeEngine::new(frozen.clone(), dataset.clone(), engine_config.clone());
    (mk(), mk())
}

#[test]
fn concurrent_insert_rating_never_leaves_a_stale_memo_behind() {
    // Regression for the resolve/invalidate race: a resolver samples a
    // context from the old graph, `insert_rating` swaps the graph and
    // invalidates, then the resolver caches its stale sample (or attaches
    // a stale prediction to a fresh entry). Every write below touches the
    // query's own user, so any entry surviving the final write MUST have
    // been sampled from the final graph — which makes the raced engine's
    // answers bit-comparable to a single-threaded reference.
    let (live, reference) = engine_pair();
    let live = Arc::new(live);
    let queries: Vec<RatingQuery> = (0..8)
        .map(|u| RatingQuery {
            user: u,
            item: u % RACE_ITEMS,
        })
        .collect();
    let writes: Vec<Rating> = (0..20)
        .flat_map(|round| (0..8).map(move |u| Rating::new(u, 10 + round, 1.0 + (round % 5) as f32)))
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let live = live.clone();
            let stop = stop.clone();
            let queries = queries.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    live.predict_batch(&queries).expect("served during race");
                }
            })
        })
        .collect();
    for w in &writes {
        live.insert_rating(*w).expect("insert");
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader thread");
    }

    // Replay the same writes serially on the reference engine.
    for w in &writes {
        reference.insert_rating(*w).expect("insert");
    }
    let raced = live.predict_batch(&queries).expect("served after race");
    let fresh = reference.predict_batch(&queries).expect("reference");
    for (k, (a, b)) in raced.iter().zip(&fresh).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "query {k}: raced answer {a} != reference {b} — a stale context or memo survived"
        );
    }
}

#[test]
fn concurrent_clients_see_consistent_results() {
    let server = Arc::new(Server::start(
        Arc::new(TestPredictor::new(Duration::from_micros(200), None)),
        ServerConfig {
            workers: 4,
            max_batch: 8,
            max_queue: 4096,
        },
    ));
    let clients: Vec<_> = (0..8)
        .map(|c| {
            let server = server.clone();
            std::thread::spawn(move || {
                for k in 0..50usize {
                    let q = RatingQuery {
                        user: c * 100 + k,
                        item: k,
                    };
                    let pred = server.predict(q).expect("served");
                    assert_eq!(pred.rating, (q.user + q.item) as f32);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    assert_eq!(server.stats().completed, 400);
}
