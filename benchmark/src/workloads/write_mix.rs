//! `write_mix`: direct calls on `ShardedEngine(2).with_wal_root(..)` over a
//! streaming-generated 50 000×10 000 graph (≈ 440 k edges), one caller in a
//! fixed 1 : 3 pattern: `insert_rating(u, i)`, then three reads of pairs on
//! the same user, whose cached contexts the insert has just invalidated.
//! Each round ends by dropping the engine and running `recover_sharded` on
//! its log — a correctness check, outside the timed ops.
//!
//! Why: the same cache, graph and engine used for writes beside reads —
//! `wal` append + group commit, `graph::epoch` copy-on-write CSR rebuild
//! (invisible at 600×400, over a millisecond here), cache invalidation and
//! the cross-shard broadcast. A read-side gain bought with a costlier write
//! shows as `lat_p10_ms` up.

use super::{Cx, TraceRun, Workload};
use crate::common::{ensure, Checker, Failure, Round};
use crate::host::{Span2, Stopwatch};
use crate::probes;
use crate::rng::SplitMix64;
use crate::setup::{self, build_models, timed, Models, Stages};
use crate::stats::quantile;
use crate::trace::Tracer;
use hire_data::{Dataset, SyntheticConfig};
use hire_graph::{BipartiteGraph, Rating};
use hire_serve::{EngineConfig, Predictor, RatingQuery};
use hire_shard::{recover_sharded, ShardConfig, ShardedEngine};
use hire_wal::WalOptions;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const USERS: usize = 50_000;
const ITEMS: usize = 10_000;
/// Users the pattern cycles through; each keeps the same three read pairs,
/// so from the second visit on the reads hit contexts the insert just
/// invalidated.
const WORKING_SET: usize = 32;
const READS_PER_INSERT: usize = 3;
const NOMINAL_PATTERNS_PER_S: f64 = 30.0;
const WARM_PATTERNS: usize = 4;
/// Pairs whose live and recovered answers are compared as bits.
const PROBE_PAIRS: usize = 64;
/// Misses replayed layer by layer in the traced run.
const REPLAYED_READS: usize = 100;

struct Pattern {
    insert: Rating,
    reads: [RatingQuery; READS_PER_INSERT],
}

pub struct WriteMix {
    dataset: Arc<Dataset>,
    graph: Arc<BipartiteGraph>,
    models: Models,
    engine: ShardedEngine,
    wal_root: PathBuf,
    patterns: std::vec::IntoIter<Pattern>,
    acked: usize,
    invalidated: u64,
    probes: Vec<RatingQuery>,
    /// 10th-percentile acked insert of the traced round, raw wall clock.
    traced_insert_p10_ms: f64,
}

fn engine_config(models: &Models) -> EngineConfig {
    EngineConfig::from_model_config(&models.config)
}

fn patterns(seed: u64, count: usize) -> Vec<Pattern> {
    let mut rng = SplitMix64::stream(seed, setup::SEED_QUERIES);
    let working: Vec<(usize, [usize; READS_PER_INSERT])> = (0..WORKING_SET)
        .map(|_| (rng.below(USERS), std::array::from_fn(|_| rng.below(ITEMS))))
        .collect();
    (0..count)
        .map(|k| {
            let (user, items) = working[k % WORKING_SET];
            Pattern {
                insert: Rating::new(user, rng.below(ITEMS), 1.0 + (k % 5) as f32),
                reads: items.map(|item| RatingQuery { user, item }),
            }
        })
        .collect()
}

impl WriteMix {
    /// One pattern on the live engine. Returns the insert's latency if it
    /// was acknowledged.
    fn run_pattern(&mut self, p: &Pattern, checker: &mut Checker) -> Option<Span2> {
        let sw = Stopwatch::start();
        let ack = self.engine.insert_rating(p.insert);
        let took = sw.elapsed();
        let acked = ack.is_ok();
        if let Ok(n) = &ack {
            self.acked += 1;
            self.invalidated += *n as u64;
        }
        // The invalidation count is part of the answer stream.
        let ok = checker.op(ack.map(|n| n as f32));
        for q in p.reads {
            checker.answer(self.engine.predict_batch(&[q]).map(|v| v[0]));
        }
        (ok && acked).then_some(took)
    }
}

impl Workload for WriteMix {
    fn setup(cx: &Cx, stages: &mut Stages, _traced: Option<&Tracer>) -> Result<Self, Failure> {
        let (mut dataset, graph) = timed(&mut stages.gen_s, || {
            SyntheticConfig::million_scale()
                .scaled(USERS, ITEMS, (4, 16))
                .generate_streaming(setup::sub_seed(cx.seed, setup::SEED_DATASET))
        });
        // The streaming generator keeps no rating list; the hybrid model
        // trains on one.
        timed(&mut stages.graph_s, || {
            dataset.ratings = graph.edges().collect()
        });
        let (dataset, graph) = (Arc::new(dataset), Arc::new(graph));
        let models = build_models(&dataset, &graph, cx.seed, stages)?;

        let wal_root = cx.scratch.subdir(&format!("wal-{}", cx.round))?;
        let engine = timed(&mut stages.engine_s, || {
            ShardedEngine::with_shared_graph(
                models.frozen.clone(),
                Arc::clone(&dataset),
                Arc::clone(&graph),
                engine_config(&models),
                ShardConfig::with_shards(2),
            )
            .with_hybrid(models.hybrid.clone())
            .with_wal_root(&wal_root, WalOptions::default())
        })?;

        let segments = cx.scale.segments();
        let seg_patterns = (cx.scale.ops(0.95, NOMINAL_PATTERNS_PER_S, segments) / segments).max(1);
        let total = WARM_PATTERNS + seg_patterns * segments;
        let mut probe_rng = SplitMix64::stream(cx.seed, setup::SEED_PROBES + 8);
        let mut me = WriteMix {
            dataset,
            graph,
            models,
            engine,
            wal_root,
            patterns: patterns(cx.seed, total).into_iter(),
            acked: 0,
            invalidated: 0,
            probes: (0..PROBE_PAIRS)
                .map(|_| RatingQuery {
                    user: probe_rng.below(USERS),
                    item: probe_rng.below(ITEMS),
                })
                .collect(),
            traced_insert_p10_ms: 0.0,
        };
        timed(&mut stages.warm_s, || {
            let mut checker = Checker::for_dataset(&me.dataset);
            for _ in 0..WARM_PATTERNS {
                let p = me.patterns.next().expect("patterns cover the warm-up");
                me.run_pattern(&p, &mut checker);
            }
            ensure(checker.failed == 0, || {
                format!("warm-up patterns failed: {:?}", checker.first_failure)
            })
        })?;
        Ok(me)
    }

    fn measure(&mut self, cx: &Cx, mut trace: Option<&mut TraceRun>) -> Result<Round, Failure> {
        let segments = cx.scale.segments();
        let seg_patterns = (cx.scale.ops(0.95, NOMINAL_PATTERNS_PER_S, segments) / segments).max(1);
        let ops_per_pattern = (1 + READS_PER_INSERT) as f64;
        let mut checker = Checker::for_dataset(&self.dataset);
        let mut lat = Vec::with_capacity(seg_patterns * segments);
        let mut segs = Vec::with_capacity(segments);
        let (acked_before, invalidated_before) = (self.acked, self.invalidated);
        cx.cal.mark();
        let mut sw = Stopwatch::start();
        for k in 0..seg_patterns * segments {
            let p = self
                .patterns
                .next()
                .expect("patterns cover the measured phase");
            let started = trace.as_ref().map(|t| t.tracer.now_ns());
            let insert = self.run_pattern(&p, &mut checker);
            lat.extend(insert);
            if let (Some(trace), Some(start)) = (trace.as_deref_mut(), started) {
                let end = trace.tracer.now_ns();
                let root = trace.tracer.record(k as u64, "pattern", None, start, end);
                if let Some(insert) = insert {
                    let insert_end = start + (insert.wall_s * 1e9) as u64;
                    trace
                        .tracer
                        .record(k as u64, "insert", root, start, insert_end);
                    trace
                        .tracer
                        .record(k as u64, "reads", root, insert_end, end);
                }
            }
            if (k + 1) % seg_patterns == 0 {
                segs.push(sw.elapsed());
                // The CPU's speed is sampled between segments, outside them.
                if (k + 1) % (seg_patterns * 4) == 0 {
                    cx.cal.mark();
                }
                sw = Stopwatch::start();
            }
        }
        cx.cal.mark();

        // The recovery check in `finish` compares all 64 probe pairs once per
        // run and in the traced round; 8 in the other rounds, where the check
        // is a repeat and its 2 × 56 extra misses are not worth a tenth of
        // the run's time budget.
        if cx.round != 0 && trace.is_none() {
            self.probes.truncate(PROBE_PAIRS / 8);
        }

        if let Some(trace) = trace {
            let insert_ms: Vec<f64> = lat.iter().map(|s| s.wall_s * 1e3).collect();
            self.traced_insert_p10_ms = quantile(&insert_ms, 0.1);
            let writes = (self.acked - acked_before).max(1) as f64;
            trace.metrics.set(
                "cache.invalidated_per_write",
                (self.invalidated - invalidated_before) as f64 / writes,
            );
            let (mut hits, mut lookups, mut model, mut cache_tier, mut all) = (0, 0, 0, 0, 0);
            for s in self.engine.shard_stats() {
                hits += s.cache.hits;
                lookups += s.cache.hits + s.cache.misses;
                model += s.tiers.model;
                cache_tier += s.tiers.cache;
                all += s.tiers.model
                    + s.tiers.cache
                    + s.tiers.quantized
                    + s.tiers.hybrid
                    + s.tiers.fallback;
            }
            trace
                .metrics
                .set("cache.hit_share", hits as f64 / lookups.max(1) as f64);
            trace.metrics.set(
                "engine.tier_cache_share",
                cache_tier as f64 / all.max(1) as f64,
            );
            trace
                .metrics
                .set("engine.tier_model_share", model as f64 / all.max(1) as f64);
        }

        Ok(Round {
            lat,
            segs,
            seg_work: seg_patterns as f64 * ops_per_pattern,
            attempted: checker.attempted,
            failed: checker.failed,
            checksum: checker.fnv.0,
            first_failure: checker.first_failure,
        })
    }

    fn probe(&mut self, cx: &Cx, trace: &mut TraceRun) -> Result<(), Failure> {
        // Layer replay: the real pattern on the live engine, then the
        // insert's layers (`wal`, `graph::epoch`) and the reads' layers
        // (sampler, context, forward) called one by one.
        let layers = probes::Layers {
            dataset: &self.dataset,
            graph: &self.graph,
            models: &self.models,
            scratch: cx.scratch,
            seed: cx.seed,
        };
        let fresh = probes::fresh_pairs(&self.dataset, cx.seed, probes::CALLS);
        probes::common_layers(&layers, &fresh, &self.probes, &mut trace.metrics)?;
        let single = hire_serve::ServeEngine::with_shared_graph(
            self.models.frozen.clone(),
            Arc::clone(&self.dataset),
            Arc::clone(&self.graph),
            engine_config(&self.models),
        );
        // The reads of a pattern are misses: replayed like `cold_scan`'s, on
        // an unsharded engine over the same 50 000 × 10 000 graph.
        let replay_reads = probes::fresh_pairs(&self.dataset, cx.seed ^ 0x5EED, REPLAYED_READS);
        probes::replay_misses(&single, &layers, &replay_reads, trace)?;
        probes::shard_layer(
            &self.engine,
            &single,
            &fresh[..64],
            cx.seed,
            &mut trace.metrics,
        )?;

        // The insert of a pattern: the traced round's own acked inserts
        // against the `wal` and `graph::epoch` calls made one by one above.
        let wal_ms = trace.metrics.get("wal.append_us").unwrap_or(0.0) / 1e3
            + trace.metrics.get("wal.commit_ms").unwrap_or(0.0);
        let epoch_ms = trace.metrics.get("epoch.commit_ms").unwrap_or(0.0);
        println!(
            "write_mix insert: p10 {:.3} ms, of which wal {wal_ms:.3} ms + epoch commit {epoch_ms:.3} ms = {:.1} %",
            self.traced_insert_p10_ms,
            (wal_ms + epoch_ms) / self.traced_insert_p10_ms * 100.0
        );
        Ok(())
    }

    fn finish(self, _cx: &Cx, trace: Option<&mut TraceRun>) -> Result<(), Failure> {
        let WriteMix {
            dataset,
            graph,
            models,
            engine,
            wal_root,
            acked,
            probes,
            ..
        } = self;
        // The live engine's last words on the probe pairs, then the "crash":
        // the engine goes away, only its log survives.
        let live_probe_answers: Vec<u32> = engine
            .predict_batch(&probes)?
            .iter()
            .map(|v| v.to_bits())
            .collect();
        drop(engine);
        let t0 = Instant::now();
        let recovered = recover_sharded(
            models.frozen.clone(),
            dataset,
            graph,
            engine_config(&models),
            ShardConfig::with_shards(2),
            None,
            &wal_root,
            WalOptions::default(),
        )?;
        let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
        let replayed: usize = recovered.ratings_per_shard.iter().sum();
        ensure(replayed == acked, || {
            format!("{acked} inserts were acknowledged but recovery replayed {replayed}")
        })?;
        let answers = recovered.engine.predict_batch(&probes)?;
        let equal = answers
            .iter()
            .zip(&live_probe_answers)
            .filter(|(v, live)| v.to_bits() == **live)
            .count();
        ensure(equal == probes.len(), || {
            format!(
                "only {equal} of {} recovered answers are bit-equal to the live ones",
                probes.len()
            )
        })?;
        if let Some(trace) = trace {
            trace.metrics.set("recovery.replay_ms", replay_ms);
            trace.metrics.set("recovery.bitwise_ok", equal as f64);
        }
        Ok(())
    }
}
