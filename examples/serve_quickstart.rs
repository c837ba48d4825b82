//! Serving quickstart: train HIRE, freeze it, answer rating queries
//! through the online inference stack (context cache + micro-batched
//! worker pool), close the loop — fine-tune on freshly observed ratings
//! and hot-swap the promoted candidate into serving — then kill the
//! engine and recover it from the write-ahead log, bit-identical.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```

use hire::prelude::*;
use hire::serve::{recover, Predictor};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // 1. Train a small HIRE model (same recipe as the quickstart example).
    let dataset = SyntheticConfig::movielens_like()
        .scaled(80, 60, (15, 30))
        .generate(42);
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let config = HireConfig::fast().with_context_size(12, 12);
    let model = HireModel::new(&dataset, &config, &mut rng);
    let graph = dataset.graph();
    println!("training HIRE ({} parameters) ...", model.num_parameters());
    hire::core::train(
        &model,
        &dataset,
        &graph,
        &NeighborhoodSampler,
        &TrainConfig {
            steps: 120,
            batch_size: 4,
            base_lr: 3e-3,
            grad_clip: 1.0,
            ..TrainConfig::paper_default()
        },
        &mut rng,
    )
    .expect("training");

    // 2. Freeze: export the weights to plain arrays. The frozen forward
    //    never builds an autograd tape but is bit-identical to
    //    `HireModel::predict`. (A snapshot on disk works too — see
    //    `FrozenModel::from_checkpoint_dir`.)
    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
    println!(
        "frozen: {} parameters, embed dim {}",
        frozen.num_parameters(),
        frozen.embed_dim()
    );

    // 3. The engine samples a deterministic context per (user, item),
    //    memoizes it in an LRU cache, and runs batched no-grad forwards.
    //    Attaching a write-ahead log makes every accepted write durable:
    //    `insert_rating` appends (group-committed fsync) before acking,
    //    and model promotions/demotions are logged too — step 7 rebuilds
    //    the whole engine from this log after a simulated crash.
    let dataset = Arc::new(dataset);
    let base = frozen.clone();
    let scratch = std::env::temp_dir().join(format!("hire-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let wal_dir = scratch.join("wal");
    let ckpt_dir = scratch.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).expect("scratch dir");
    let (wal, _) = Wal::open(&wal_dir, WalOptions::default()).expect("open wal");
    let engine = Arc::new(
        ServeEngine::new(
            frozen,
            dataset.clone(),
            EngineConfig::from_model_config(&config),
        )
        .with_wal(Arc::new(wal)),
    );

    // 4. Serve through the micro-batching worker pool: submissions are
    //    coalesced into batches of up to `max_batch` and answered on
    //    `workers` threads, with bounded-queue backpressure. Each query
    //    carries a deadline budget — a query that cannot be answered in
    //    time comes back as a typed `DeadlineExceeded` or is degraded to
    //    the graph-statistics fallback tier, never silently late.
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            workers: 2,
            max_batch: 8,
            max_queue: 256,
        },
    );
    let queries: Vec<RatingQuery> = (0..8)
        .map(|k| RatingQuery {
            user: k,
            item: 3 * k,
        })
        .collect();
    let handles: Vec<_> = queries
        .iter()
        .map(|&q| {
            server
                .submit_with_deadline(q, Some(Duration::from_millis(500)))
                .expect("accepted")
        })
        .collect();
    for (q, h) in queries.iter().zip(handles) {
        // `recv_timeout` bounds the wait without consuming the handle:
        // elapsing the bound yields `DeadlineExceeded` while the query
        // stays in flight, so a caller can poll again (or walk away).
        let p = h
            .recv_timeout(Duration::from_secs(5))
            .expect("answered within bound");
        let tier = p.served_by.label();
        println!(
            "  u{:<3} i{:<3} -> {:.2}  ({:.2} ms, {tier} tier, model v{})",
            q.user,
            q.item,
            p.rating,
            p.latency.as_secs_f64() * 1e3,
            p.version
        );
    }

    // 5. A new observed rating invalidates every cached context its edge
    //    touches; the next query resamples against the updated graph.
    let removed = engine
        .insert_rating(hire::graph::Rating::new(0, 0, 5.0))
        .expect("in range");
    let after = engine
        .predict_batch(&[RatingQuery { user: 0, item: 0 }])
        .expect("served")[0];
    let stats = engine.cache_stats();
    println!(
        "\ninserted rating (u0, i0, 5.0): {removed} contexts invalidated, re-served -> {after:.2}"
    );
    println!(
        "cache: {} hits / {} misses ({:.0}% hit rate)",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_rate()
    );

    // 6. Close the loop: accumulate more observed ratings, fine-tune a
    //    copy of the serving model on them in a crash-isolated round,
    //    shadow-eval it against the incumbent on a held-out slice, and —
    //    if no gate regressed — hot-swap it in under a new version.
    //    In-flight batches finish on the version they started with.
    let fresh: Vec<_> = (0..24)
        .map(|k| hire::graph::Rating::new((7 * k) % 80, (11 * k) % 60, ((k % 5) + 1) as f32))
        .collect();
    for r in &fresh {
        engine.insert_rating(*r).expect("in range");
    }
    let online_config = OnlineConfig {
        min_new_ratings: 8,
        fine_tune_steps: 10,
        batch_size: 2,
        base_lr: 1e-4,
        holdout_every: 4,
        // The example demonstrates the machinery, so the gate is
        // lenient; production keeps the default 5 % tolerance.
        regression_tolerance: 1.0,
        // With a WAL attached, promotions checkpoint the candidate's
        // weights *before* logging the swap — recovery reloads them from
        // here.
        checkpoint_dir: Some(ckpt_dir),
        ..OnlineConfig::default()
    };
    let online = OnlineLoop::new(engine.clone(), online_config.clone());
    println!("\nfine-tuning on {} fresh ratings ...", fresh.len());
    match online.run_round() {
        RoundOutcome::Promoted { version, eval } => println!(
            "promoted: v{} -> v{version} (holdout {} samples, MAE {:.3} -> {:.3})",
            eval.incumbent_version, eval.holdout_size, eval.incumbent_mae, eval.candidate_mae
        ),
        RoundOutcome::Rejected { eval } => {
            println!("rejected: {}", eval.failed_gates.join("; "))
        }
        other => println!("round outcome: {other:?}"),
    }
    let tagged = engine
        .predict_batch_tagged(&[RatingQuery { user: 0, item: 0 }], None)
        .expect("served");
    println!(
        "re-served (u0, i0) -> {:.2} by model v{}",
        tagged[0].rating, tagged[0].version
    );
    server.shutdown();

    // 7. Kill the engine and recover it from the log alone. Everything
    //    durable comes back: every acked rating, the promoted model (its
    //    weights reloaded from the promotion checkpoint), and the online
    //    loop's routing state — and the recovered engine answers
    //    bit-identically to the one we just killed.
    let before: Vec<f32> = engine.predict_batch(&queries).expect("served");
    let version_before = engine.version();
    let inserted_before = engine.inserted_since(0).0.len();
    drop(online);
    drop(engine); // the "crash": nothing survives but the log + checkpoints
    let recovered = recover(
        base,
        dataset.clone(),
        Arc::new(dataset.graph()),
        EngineConfig::from_model_config(&config),
        online_config,
        &wal_dir,
        WalOptions::default(),
    )
    .expect("recover from wal");
    let after: Vec<f32> = recovered.engine.predict_batch(&queries).expect("served");
    let bitwise = before
        .iter()
        .zip(&after)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    println!(
        "\nrecovered from WAL: {} ratings replayed ({} records), model v{} (was v{})",
        recovered.ratings,
        recovered.records_replayed,
        recovered.engine.version(),
        version_before
    );
    println!(
        "recovered answers bit-identical: {bitwise} ({} of {} ratings, holdout {})",
        recovered.ratings,
        inserted_before,
        recovered.online.holdout_len()
    );
    assert!(bitwise, "recovered engine must answer identically");
    assert_eq!(recovered.engine.version(), version_before);
    let _ = std::fs::remove_dir_all(&scratch);
}
