//! `hot_zipf`: `Server → ShardedEngine(2 shards, hot-key replication on) →
//! ServeEngine` on a 600×400 `movielens_like` graph. Queries are
//! zipf(s = 1.1) over 64 hot pairs that all fit the 4096-entry
//! `ContextCache`, fully warmed, so every answer is a memo hit.
//!
//! Why: the model does nothing here. `serve::server` queueing/batching,
//! `serve::cache`, the engine's dedup/tally path and `shard` routing/sketch
//! do all the work, so a lock, queue or cache change shows here and a
//! kernel change must not.

use super::{start_server, Cx, TraceRun, Workload};
use crate::common::{ensure, Checker, Failure, Round};
use crate::probes;
use crate::rng::{SplitMix64, Zipf};
use crate::serving::{fold_server_trace, Driver, Load, Phases};
use crate::setup::{self, build_models, timed, Models, Stages};
use crate::trace::{QueryClock, Tracer};
use hire_data::{Dataset, SyntheticConfig};
use hire_graph::BipartiteGraph;
use hire_serve::{EngineConfig, Predictor, RatingQuery, ServeEngine, ServedBy, Server, TierStats};
use hire_shard::{ShardConfig, ShardedEngine};
use std::collections::HashMap;
use std::sync::Arc;

const HOT_PAIRS: usize = 64;
const ZIPF_S: f64 = 1.1;
/// Outstanding submissions of the closed-loop throughput phase. (The issue
/// asked for 32; at 128 the sleep/wake transitions between generator and
/// worker are a smaller share of an op and the segment rates of one run
/// spread half as wide.)
const WINDOW: usize = 128;
/// Nominal rates on the host the benchmark was written on; they only size
/// the op counts (see `Scale`).
const NOMINAL_LAT_OPS_PER_S: f64 = 440.0;
const NOMINAL_THRU_OPS_PER_S: f64 = 850_000.0;
pub const OPEN_LOOP_RATE: f64 = 1000.0;

pub struct HotZipf {
    pub dataset: Arc<Dataset>,
    pub graph: Arc<BipartiteGraph>,
    pub models: Models,
    pub engine: Arc<ShardedEngine>,
    pub server: Server,
    clock: Option<Arc<QueryClock>>,
    pub hot: Vec<RatingQuery>,
    /// Bits of the first cold computation of every hot pair.
    first: HashMap<(usize, usize), u32>,
}

fn hot_pairs(seed: u64, dataset: &Dataset) -> Vec<RatingQuery> {
    let mut rng = SplitMix64::stream(seed, setup::SEED_QUERIES);
    let mut pairs: Vec<RatingQuery> = Vec::with_capacity(HOT_PAIRS);
    while pairs.len() < HOT_PAIRS {
        let q = RatingQuery {
            user: rng.below(dataset.num_users),
            item: rng.below(dataset.num_items),
        };
        if !pairs.contains(&q) {
            pairs.push(q);
        }
    }
    pairs
}

fn tiers(engine: &ShardedEngine) -> TierStats {
    let mut sum = TierStats::default();
    for s in engine.shard_stats() {
        sum.model += s.tiers.model;
        sum.cache += s.tiers.cache;
        sum.quantized += s.tiers.quantized;
        sum.hybrid += s.tiers.hybrid;
        sum.fallback += s.tiers.fallback;
    }
    sum
}

impl HotZipf {
    /// An unsharded engine over the same model and graph, after checking
    /// that it answers the 64 hot pairs bit for bit as the sharded one did.
    fn unsharded_twin(&self) -> Result<ServeEngine, Failure> {
        let single = ServeEngine::with_shared_graph(
            self.models.frozen.clone(),
            Arc::clone(&self.dataset),
            Arc::clone(&self.graph),
            EngineConfig::from_model_config(&self.models.config),
        );
        for (q, v) in self.hot.iter().zip(single.predict_batch(&self.hot)?) {
            ensure(self.first[&(q.user, q.item)] == v.to_bits(), || {
                format!(
                    "sharded and unsharded answers of ({}, {}) differ",
                    q.user, q.item
                )
            })?;
        }
        Ok(single)
    }

    fn queries(&self, seed: u64, phase: u64, count: usize) -> Vec<RatingQuery> {
        let zipf = Zipf::new(self.hot.len(), ZIPF_S);
        let mut rng = SplitMix64::stream(seed, setup::SEED_QUERIES + 16 * phase);
        (0..count)
            .map(|_| self.hot[zipf.sample(&mut rng)])
            .collect()
    }
}

impl Workload for HotZipf {
    fn setup(cx: &Cx, stages: &mut Stages, traced: Option<&Tracer>) -> Result<Self, Failure> {
        let dataset = Arc::new(timed(&mut stages.gen_s, || {
            SyntheticConfig::movielens_like()
                .generate(setup::sub_seed(cx.seed, setup::SEED_DATASET))
        }));
        let graph = Arc::new(timed(&mut stages.graph_s, || dataset.graph()));
        let models = build_models(&dataset, &graph, cx.seed, stages)?;

        let clock = traced.map(|t| Arc::new(QueryClock::new(t.epoch())));
        let (engine, server) = timed(&mut stages.engine_s, || {
            let engine = Arc::new(
                ShardedEngine::with_shared_graph(
                    models.frozen.clone(),
                    Arc::clone(&dataset),
                    Arc::clone(&graph),
                    EngineConfig::from_model_config(&models.config),
                    ShardConfig::with_shards(2),
                )
                .with_hybrid(models.hybrid.clone()),
            );
            let server = start_server(&engine, clock.as_ref());
            (engine, server)
        });

        let hot = hot_pairs(cx.seed, &dataset);
        let mut first = HashMap::with_capacity(hot.len());
        timed(&mut stages.warm_s, || -> Result<(), Failure> {
            // First computation of every pair: a model-tier answer, kept as
            // the reference every later memo hit must equal bit for bit.
            for (q, a) in hot.iter().zip(engine.predict_batch_tagged(&hot, None)?) {
                ensure(a.served_by == ServedBy::Model, || {
                    format!("first answer of a hot pair came from {:?}", a.served_by)
                })?;
                first.insert((q.user, q.item), a.rating.to_bits());
            }
            // Past the sketch's hot threshold, so every pair is replicated
            // into both shards before anything is timed.
            for _ in 0..24 {
                for (q, a) in hot.iter().zip(engine.predict_batch_tagged(&hot, None)?) {
                    ensure(
                        a.served_by == ServedBy::Cache
                            && first[&(q.user, q.item)] == a.rating.to_bits(),
                        || format!("warm-up answer of ({}, {}) is not its memo", q.user, q.item),
                    )?;
                }
            }
            Ok(())
        })?;
        let me = HotZipf {
            dataset,
            graph,
            models,
            engine,
            server,
            clock,
            hot,
            first,
        };
        // Threads, channels and the allocator warm up through the server
        // itself (not part of the checksum: a separate checker).
        timed(&mut stages.warm_s, || {
            let warm = me.queries(
                cx.seed,
                0,
                4000.min(cx.scale.ops(0.02, NOMINAL_THRU_OPS_PER_S, 256)),
            );
            let mut checker = Checker::for_dataset(&me.dataset);
            Driver::new(&me.server, me.clock.as_deref()).throughput_phase(
                &warm,
                WINDOW,
                warm.len(),
                &mut checker,
                &mut |_, _| {},
                &mut |_| {},
            );
            ensure(checker.failed == 0, || {
                format!(
                    "warm-up through the server failed: {:?}",
                    checker.first_failure
                )
            })
        })?;
        Ok(me)
    }

    fn measure(&mut self, cx: &Cx, trace: Option<&mut TraceRun>) -> Result<Round, Failure> {
        let lat_ops = cx.scale.ops(0.08, NOMINAL_LAT_OPS_PER_S, 40);
        let segments = cx.scale.segments();
        let seg_ops =
            (cx.scale.ops(0.85, NOMINAL_THRU_OPS_PER_S, segments * 64) / segments).max(64);
        let lat_queries = self.queries(cx.seed, 1, lat_ops);
        let thru_queries = self.queries(cx.seed, 2, seg_ops * segments);

        let mut checker = Checker::for_dataset(&self.dataset);
        let mut stale = 0u64;
        let first = &self.first;
        let mut exact = |q: RatingQuery, v: f32| {
            if first[&(q.user, q.item)] != v.to_bits() {
                stale += 1;
            }
        };
        let tiers_before = tiers(&self.engine);
        let cache_before: Vec<_> = self.engine.shard_stats().iter().map(|s| s.cache).collect();
        if let Some(clock) = &self.clock {
            clock.take_batches(); // the warm-up's
        }

        let mut driver = Driver::new(&self.server, self.clock.as_deref());
        let Phases {
            lat,
            segs,
            latency_qids,
        } = driver.measured_phases(
            cx.cal,
            &Load {
                lat_queries: &lat_queries,
                thru_queries: &thru_queries,
                window: WINDOW,
                seg_ops,
            },
            &mut checker,
            &mut exact,
        );
        let log = std::mem::take(&mut driver.log);

        // Output checks.
        let tiers_after = tiers(&self.engine);
        let answered = checker.attempted - checker.failed;
        ensure(stale == 0, || {
            format!("{stale} answers differ from the first cold computation of their pair")
        })?;
        ensure(
            tiers_after.model == tiers_before.model
                && tiers_after.cache - tiers_before.cache == answered,
            || {
                format!(
                    "not every answer was a memo hit: {} model forwards, {} cache answers for {answered} queries",
                    tiers_after.model - tiers_before.model,
                    tiers_after.cache - tiers_before.cache
                )
            },
        )?;

        if let Some(trace) = trace {
            let clock = self.clock.as_ref().expect("a traced round has a clock");
            fold_server_trace(
                &log,
                &clock.take_batches(),
                latency_qids,
                &mut trace.tracer,
                &mut trace.metrics,
            );
            let stats = self.server.stats();
            trace.metrics.set("server.refused", stats.rejected as f64);
            let (mut hits, mut lookups) = (0u64, 0u64);
            for (s, before) in self.engine.shard_stats().iter().zip(&cache_before) {
                hits += s.cache.hits - before.hits;
                lookups += (s.cache.hits - before.hits) + (s.cache.misses - before.misses);
            }
            trace
                .metrics
                .set("cache.hit_share", hits as f64 / lookups.max(1) as f64);
            let served = (tiers_after.cache - tiers_before.cache) as f64;
            trace
                .metrics
                .set("engine.tier_cache_share", served / answered.max(1) as f64);
            trace.metrics.set(
                "engine.tier_model_share",
                (tiers_after.model - tiers_before.model) as f64 / answered.max(1) as f64,
            );
        }

        Ok(Round {
            lat,
            segs,
            seg_work: seg_ops as f64,
            attempted: checker.attempted,
            failed: checker.failed,
            checksum: checker.fnv.0,
            first_failure: checker.first_failure,
        })
    }

    fn probe(&mut self, cx: &Cx, trace: &mut TraceRun) -> Result<(), Failure> {
        probes::open_loop_phase(
            &self.server,
            &self.queries(cx.seed, 3, cx.scale.ops(0.5, OPEN_LOOP_RATE, 200)),
            OPEN_LOOP_RATE,
            cx.seed,
            &self.dataset,
            &mut trace.metrics,
        )?;
        let single = self.unsharded_twin()?;
        probes::shard_layer(
            &self.engine,
            &single,
            &self.hot,
            cx.seed,
            &mut trace.metrics,
        )?;
        probes::replay_hits(&self.engine, &self.hot, cx.seed, trace)?;
        let pairs = probes::fresh_pairs(&self.dataset, cx.seed, 256);
        probes::common_layers(
            &probes::Layers {
                dataset: &self.dataset,
                graph: &self.graph,
                models: &self.models,
                scratch: cx.scratch,
                seed: cx.seed,
            },
            &pairs,
            &self.hot,
            &mut trace.metrics,
        )
    }

    fn finish(self, cx: &Cx, _trace: Option<&mut TraceRun>) -> Result<(), Failure> {
        // Once per run is enough (the traced round checks it in `probe`).
        if cx.round == 0 {
            self.unsharded_twin()?;
        }
        self.server.shutdown();
        Ok(())
    }
}
