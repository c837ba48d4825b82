//! The allocation cost of a served memo hit, end to end through `Server`:
//! the submit, the queue, the worker's batch, the engine's cache lookup and
//! the reply. Each query's answer comes back through one shared reply slot
//! (one small allocation); a `std::sync::mpsc` channel per query allocated
//! a 31-slot block on its first send besides, 2 777 bytes a query over a
//! `ServeEngine` and 2 933 over a 2-shard `ShardedEngine`. With the slot
//! and the worker's batch buffers kept across batches, a memo hit costs
//! ≈ 1.8 allocations of ≈ 390 bytes over a `ServeEngine`, and ≈ 1.9 of
//! ≈ 470 over the 2-shard engine, whose batch is the same walk taken once
//! per shard into one set of answer slots (≈ 2.7 of ≈ 420 while each shard
//! answered a copied sub-batch). The per-batch vectors are shared by the
//! batch's queries, so the count moves with how many the worker takes at
//! once. This pins both engines at 2.5 allocations and 640 bytes a query.
//!
//! Own test binary with a *process-wide* counting allocator: the reply is
//! written on the server's worker thread, which a thread-local count on
//! the caller (`hire-core`'s `tests/support/counting_alloc.rs`) cannot see.
//! Every test here takes `SERIAL` so no other test allocates while one
//! counts.

use hire_core::{HireConfig, HireModel};
use hire_data::Dataset;
use hire_serve::{
    EngineConfig, FrozenModel, PredictionHandle, Predictor, RatingQuery, ServeEngine, ServedBy,
    Server, ServerConfig, ShardConfig, ShardedEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn record(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

const MAX_ALLOCS_PER_QUERY: f64 = 2.5;
const MAX_BYTES_PER_QUERY: f64 = 640.0;
/// Outstanding submissions per burst, as the serving benchmark's
/// throughput phase keeps them.
const BURST: usize = 128;
const BURSTS: usize = 16;

fn dataset() -> Arc<Dataset> {
    Arc::new(
        hire_data::SyntheticConfig::movielens_like()
            .scaled(60, 45, (8, 15))
            .generate(21),
    )
}

fn parts(dataset: &Dataset) -> (FrozenModel, EngineConfig) {
    let config = HireConfig::fast().with_blocks(1).with_context_size(8, 8);
    let mut rng = StdRng::seed_from_u64(4);
    let model = HireModel::new(dataset, &config, &mut rng);
    let frozen = FrozenModel::from_model(&model, dataset).expect("freeze");
    (frozen, EngineConfig::from_model_config(&config))
}

/// 64 distinct pairs, each warmed into the engine's memo.
fn hot_pairs(engine: &dyn Predictor, dataset: &Dataset) -> Vec<RatingQuery> {
    let hot: Vec<RatingQuery> = (0..64)
        .map(|k| RatingQuery {
            user: (k * 7) % dataset.num_users,
            item: (k * 11) % dataset.num_items,
        })
        .collect();
    engine.predict_batch(&hot).expect("warm the memo");
    hot
}

/// Allocations and bytes per query over `BURSTS` bursts of `BURST` memo
/// hits through a one-worker server, after two uncounted bursts.
fn per_query(server: &Server, hot: &[RatingQuery]) -> (f64, f64) {
    let queries: Vec<RatingQuery> = (0..BURST).map(|k| hot[(k * 5) % hot.len()]).collect();
    let mut handles: Vec<PredictionHandle> = Vec::with_capacity(BURST);
    let burst = |handles: &mut Vec<PredictionHandle>| {
        for &q in &queries {
            handles.push(server.submit(q).expect("accepted"));
        }
        for handle in handles.drain(..) {
            let answer = handle.wait().expect("answered");
            assert_eq!(answer.served_by, ServedBy::Cache, "a memo hit");
        }
    };
    burst(&mut handles);
    burst(&mut handles);
    let before = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..BURSTS {
        burst(&mut handles);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let queries = (BURSTS * BURST) as f64;
    (
        (ALLOCS.load(Ordering::SeqCst) - before.0) as f64 / queries,
        (BYTES.load(Ordering::SeqCst) - before.1) as f64 / queries,
    )
}

fn serve_memo_hits(engine: Arc<dyn Predictor>, hot: &[RatingQuery]) -> (f64, f64) {
    let server = Server::start(
        engine,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let counted = per_query(&server, hot);
    server.shutdown();
    counted
}

fn assert_within_budget(engine: &str, (allocs, bytes): (f64, f64)) {
    eprintln!("{engine}: {allocs:.2} allocations of {bytes:.0} bytes per memo hit");
    assert!(
        allocs <= MAX_ALLOCS_PER_QUERY && bytes <= MAX_BYTES_PER_QUERY,
        "a memo hit through `Server` over a {engine} made {allocs:.2} allocations of \
         {bytes:.0} bytes, budget {MAX_ALLOCS_PER_QUERY} of {MAX_BYTES_PER_QUERY}"
    );
}

#[test]
fn a_memo_hit_through_a_serve_engine_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let dataset = dataset();
    let (frozen, config) = parts(&dataset);
    let engine = Arc::new(ServeEngine::new(frozen, Arc::clone(&dataset), config));
    let hot = hot_pairs(engine.as_ref(), &dataset);
    assert_within_budget("ServeEngine", serve_memo_hits(engine, &hot));
}

#[test]
fn a_memo_hit_through_a_sharded_engine_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let dataset = dataset();
    let (frozen, config) = parts(&dataset);
    let engine = Arc::new(ShardedEngine::new(
        frozen,
        Arc::clone(&dataset),
        config,
        ShardConfig::with_shards(2),
    ));
    let hot = hot_pairs(engine.as_ref(), &dataset);
    assert_within_budget("2-shard ShardedEngine", serve_memo_hits(engine, &hot));
}
