//! `cold_scan`: `Server → ServeEngine` (the unsharded sibling path), built
//! with `ServeEngine::with_graph` on the `UserItemCold` split's *training*
//! graph, so cold users and items have degree 0. Every query is a
//! never-repeated pair, drawn in equal shares from `warm_up`, `user_cold`,
//! `item_cold` and `user_and_item_cold`.
//!
//! Why: every answer is a cache miss — `graph::sampler` BFS,
//! `data::context` build, attribute encode, K HIM blocks and decode
//! (`serve::frozen`, `nn::nograd`, `tensor::linalg`). A faster forward must
//! show here and must not move `hot_zipf`.

use super::{start_server, Cx, TraceRun, Workload};
use crate::common::{ensure, Checker, Failure, Round};
use crate::probes;
use crate::rng::SplitMix64;
use crate::serving::{fold_server_trace, Driver, Load, Phases};
use crate::setup::{self, build_models, timed, Models, Stages};
use crate::stats::quantile;
use crate::trace::{QueryClock, Tracer};
use hire_data::{ColdStartScenario, ColdStartSplit, Dataset, SyntheticConfig};
use hire_graph::BipartiteGraph;
use hire_serve::{ColdScenario, EngineConfig, RatingQuery, ServeEngine, Server};
use std::collections::HashSet;
use std::sync::Arc;

/// Outstanding submissions of the closed-loop throughput phase.
const WINDOW: usize = 16;
const NOMINAL_LAT_OPS_PER_S: f64 = 125.0;
const NOMINAL_THRU_OPS_PER_S: f64 = 135.0;
pub const OPEN_LOOP_RATE: f64 = 100.0;
const WARM_QUERIES: usize = 32;
/// Latency ops per scenario of the traced run's `scan.*` phase.
const SCAN_OPS: usize = 50;

pub struct ColdScan {
    pub dataset: Arc<Dataset>,
    /// The serving view: warm-warm edges only.
    pub graph: Arc<BipartiteGraph>,
    pub models: Models,
    pub engine: Arc<ServeEngine>,
    pub server: Server,
    clock: Option<Arc<QueryClock>>,
    /// Never-repeated pairs, scenarios interleaved; phases take them in
    /// order from the front.
    stream: std::vec::IntoIter<RatingQuery>,
}

/// Distinct pairs, `count` in all, cycling through the four scenarios.
fn scenario_stream(seed: u64, graph: &BipartiteGraph, count: usize) -> Vec<RatingQuery> {
    let split = |degree: &dyn Fn(usize) -> usize, total: usize| -> (Vec<usize>, Vec<usize>) {
        (0..total).partition(|&x| degree(x) > 0)
    };
    let (warm_users, cold_users) = split(&|u| graph.user_degree(u), graph.num_users());
    let (warm_items, cold_items) = split(&|i| graph.item_degree(i), graph.num_items());
    // In `ColdScenario::ALL` order.
    let sides = [
        (&warm_users, &warm_items),
        (&cold_users, &warm_items),
        (&warm_users, &cold_items),
        (&cold_users, &cold_items),
    ];
    let mut rng = SplitMix64::stream(seed, setup::SEED_QUERIES);
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (users, items) = sides[out.len() % sides.len()];
        let q = RatingQuery {
            user: users[rng.below(users.len())],
            item: items[rng.below(items.len())],
        };
        if seen.insert((q.user, q.item)) {
            out.push(q);
        }
    }
    out
}

impl ColdScan {
    fn take(&mut self, count: usize) -> Result<Vec<RatingQuery>, Failure> {
        let queries: Vec<RatingQuery> = self.stream.by_ref().take(count).collect();
        ensure(queries.len() == count, || {
            "the never-repeated query stream ran dry".to_string()
        })?;
        Ok(queries)
    }

    fn model_answers(&self) -> (u64, u64) {
        let t = self.engine.tier_stats();
        (
            t.model,
            t.model + t.cache + t.quantized + t.hybrid + t.fallback,
        )
    }
}

impl Workload for ColdScan {
    fn setup(cx: &Cx, stages: &mut Stages, traced: Option<&Tracer>) -> Result<Self, Failure> {
        let dataset = Arc::new(timed(&mut stages.gen_s, || {
            SyntheticConfig::movielens_like()
                .generate(setup::sub_seed(cx.seed, setup::SEED_DATASET))
        }));
        let graph = Arc::new(timed(&mut stages.graph_s, || {
            ColdStartSplit::new(
                &dataset,
                ColdStartScenario::UserItemCold,
                0.2,
                0.1,
                setup::sub_seed(cx.seed, setup::SEED_SPLIT),
            )
            .train_graph(&dataset)
        }));
        let models = build_models(&dataset, &graph, cx.seed, stages)?;

        let clock = traced.map(|t| Arc::new(QueryClock::new(t.epoch())));
        let (engine, server) = timed(&mut stages.engine_s, || {
            let engine = Arc::new(
                // `with_graph` on an already shared snapshot.
                ServeEngine::with_shared_graph(
                    models.frozen.clone(),
                    Arc::clone(&dataset),
                    Arc::clone(&graph),
                    EngineConfig::from_model_config(&models.config),
                )
                .with_hybrid(models.hybrid.clone()),
            );
            let server = start_server(&engine, clock.as_ref());
            (engine, server)
        });

        // Enough distinct pairs for every phase of a traced round.
        let stream = scenario_stream(cx.seed, &graph, 6000).into_iter();
        let mut me = ColdScan {
            dataset,
            graph,
            models,
            engine,
            server,
            clock,
            stream,
        };
        let warm = me.take(WARM_QUERIES)?;
        timed(&mut stages.warm_s, || {
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
        let lat_ops = cx.scale.ops(0.12, NOMINAL_LAT_OPS_PER_S, 40);
        let segments = cx.scale.segments();
        // Replies come back a batch (8) at a time, so a segment is a whole
        // number of batches: otherwise segments alternate between holding
        // one burst of replies and two.
        let per_segment = cx.scale.ops(0.82, NOMINAL_THRU_OPS_PER_S, 0) as f64 / segments as f64;
        let seg_ops = ((per_segment / 8.0).round() as usize).max(1) * 8;
        let lat_queries = self.take(lat_ops)?;
        let thru_queries = self.take(seg_ops * segments)?;

        let mut checker = Checker::for_dataset(&self.dataset);
        let (model_before, all_before) = self.model_answers();
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
            &mut |_, _| {},
        );
        let log = std::mem::take(&mut driver.log);

        // Every answer is a fresh model-tier forward: no memo, no degraded rung.
        let (model_after, all_after) = self.model_answers();
        let answered = checker.attempted - checker.failed;
        ensure(
            model_after - model_before == answered && all_after - all_before == answered,
            || {
                format!(
                    "{answered} answers but {} model forwards and {} tier answers",
                    model_after - model_before,
                    all_after - all_before
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
            trace
                .metrics
                .set("server.refused", self.server.stats().rejected as f64);
            let cache = self.engine.cache_stats();
            trace.metrics.set("cache.hit_share", cache.hit_rate());
            trace.metrics.set("engine.tier_cache_share", 0.0);
            trace.metrics.set(
                "engine.tier_model_share",
                (model_after - model_before) as f64 / answered.max(1) as f64,
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
        let open = self.take(cx.scale.ops(0.5, OPEN_LOOP_RATE, 50))?;
        probes::open_loop_phase(
            &self.server,
            &open,
            OPEN_LOOP_RATE,
            cx.seed,
            &self.dataset,
            &mut trace.metrics,
        )?;

        // Latency op split by cold-start scenario.
        let scan = self.take(4 * SCAN_OPS)?;
        let mut checker = Checker::for_dataset(&self.dataset);
        let mut by_scenario: [Vec<f64>; 4] = Default::default();
        let mut driver = Driver::new(&self.server, self.clock.as_deref());
        for q in &scan {
            let slot = ColdScenario::ALL
                .iter()
                .position(|&s| s == self.engine.scenario_of(q.user, q.item))
                .expect("every scenario is in ALL");
            by_scenario[slot].extend(
                driver
                    .latency_phase(&[*q], &mut checker, &mut |_, _| {})
                    .iter()
                    .map(|s| s.wall_s * 1e3),
            );
        }
        ensure(checker.failed == 0, || {
            format!("scan ops failed: {:?}", checker.first_failure)
        })?;
        for (name, samples) in [
            "scan.warm_up_ms",
            "scan.user_cold_ms",
            "scan.item_cold_ms",
            "scan.both_cold_ms",
        ]
        .into_iter()
        .zip(&by_scenario)
        {
            ensure(samples.len() == SCAN_OPS, || {
                format!("{name}: {} samples, expected {SCAN_OPS}", samples.len())
            })?;
            trace.metrics.set(name, quantile(samples, 0.1));
        }

        let replay = self.take(probes::CALLS)?;
        let fresh = self.take(probes::CALLS)?;
        let layers = probes::Layers {
            dataset: &self.dataset,
            graph: &self.graph,
            models: &self.models,
            scratch: cx.scratch,
            seed: cx.seed,
        };
        probes::replay_misses(&self.engine, &layers, &replay, trace)?;
        probes::common_layers(&layers, &fresh, &replay, &mut trace.metrics)
    }

    fn finish(self, _cx: &Cx, _trace: Option<&mut TraceRun>) -> Result<(), Failure> {
        self.server.shutdown();
        Ok(())
    }
}
