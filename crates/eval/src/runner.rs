//! The experiment runner: trains a model on a cold-start split, evaluates
//! it per cold entity, and aggregates Precision/NDCG/MAP at the paper's
//! cutoffs.

use hire_baselines::RatingModel;
use hire_data::{ColdStartSplit, Dataset};
use hire_metrics::{ranking_metrics, Accumulator, ScoredPair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::{Duration, Instant};

/// The ranking cutoffs of the paper's tables.
pub const PAPER_KS: [usize; 3] = [5, 7, 10];

/// Aggregated metrics for one model on one scenario.
#[derive(Debug, Clone, Serialize)]
pub struct ModelResult {
    /// Model name.
    pub model: String,
    /// Per-cutoff aggregated metrics, keyed in the order of `ks`.
    pub at_k: Vec<MetricsAtK>,
    /// Wall-clock training time.
    pub fit_seconds: f64,
    /// Wall-clock total test (prediction) time — Fig. 6's measurement.
    pub test_seconds: f64,
    /// Number of cold entities evaluated.
    pub entities: usize,
    /// How the evaluation ended (always `Ok` from [`evaluate_model`];
    /// [`crate::fault::evaluate_model_isolated`] records panics/timeouts).
    pub status: crate::fault::EvalStatus,
}

/// Mean/std of each ranking metric at one cutoff.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsAtK {
    /// The cutoff `k`.
    pub k: usize,
    /// Mean precision across cold entities.
    pub precision: f32,
    /// Std of precision.
    pub precision_std: f32,
    /// Mean NDCG.
    pub ndcg: f32,
    /// Std of NDCG.
    pub ndcg_std: f32,
    /// Mean MAP.
    pub map: f32,
    /// Std of MAP.
    pub map_std: f32,
}

impl MetricsAtK {
    /// Parses metrics back out of their serialized [`serde::Value`] form;
    /// `None` for malformed input.
    pub fn from_value(v: &serde::Value) -> Option<Self> {
        Some(MetricsAtK {
            k: v.get("k")?.as_i64()? as usize,
            precision: v.get("precision")?.as_f64()? as f32,
            precision_std: v.get("precision_std")?.as_f64()? as f32,
            ndcg: v.get("ndcg")?.as_f64()? as f32,
            ndcg_std: v.get("ndcg_std")?.as_f64()? as f32,
            map: v.get("map")?.as_f64()? as f32,
            map_std: v.get("map_std")?.as_f64()? as f32,
        })
    }
}

impl ModelResult {
    /// Parses a result back out of its serialized [`serde::Value`] form
    /// (the inverse of the `Serialize` derive); `None` for malformed input.
    /// Used by the benchmark harness to re-read partial result files on
    /// `--resume`.
    pub fn from_value(v: &serde::Value) -> Option<Self> {
        let at_k = v
            .get("at_k")?
            .as_array()?
            .iter()
            .map(MetricsAtK::from_value)
            .collect::<Option<Vec<_>>>()?;
        Some(ModelResult {
            model: v.get("model")?.as_str()?.to_string(),
            at_k,
            fit_seconds: v.get("fit_seconds")?.as_f64()?,
            test_seconds: v.get("test_seconds")?.as_f64()?,
            entities: v.get("entities")?.as_i64()? as usize,
            status: crate::fault::EvalStatus::from_value(v.get("status")?)?,
        })
    }
}

/// Evaluation settings.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Ranking cutoffs (paper: 5, 7, 10).
    pub ks: Vec<usize>,
    /// Cap on evaluated cold entities (for CPU-budget runs); `usize::MAX`
    /// evaluates all.
    pub max_entities: usize,
    /// Minimum query edges an entity needs to be evaluated (ranking a
    /// one-item list is meaningless).
    pub min_queries: usize,
    /// RNG seed for training.
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            ks: PAPER_KS.to_vec(),
            max_entities: 40,
            min_queries: 3,
            seed: 7,
        }
    }
}

/// Trains `model` on the split's training graph and evaluates it on the
/// split's cold entities.
pub fn evaluate_model(
    model: &mut dyn RatingModel,
    dataset: &Dataset,
    split: &ColdStartSplit,
    config: &EvalConfig,
) -> ModelResult {
    let train_graph = split.train_graph(dataset);
    let mut rng = StdRng::seed_from_u64(config.seed);

    let fit_start = Instant::now();
    model.fit(dataset, &train_graph, &mut rng);
    let fit_seconds = fit_start.elapsed().as_secs_f64();

    let visible = split.visible_graph(dataset);
    let threshold = dataset.relevance_threshold();

    let mut accs: Vec<[Accumulator; 3]> = config.ks.iter().map(|_| Default::default()).collect();
    let mut entities = 0usize;
    let mut test_time = Duration::ZERO;
    for (_entity, queries) in split.queries_by_entity() {
        if queries.len() < config.min_queries {
            continue;
        }
        if entities >= config.max_entities {
            break;
        }
        let pairs: Vec<(usize, usize)> = queries.iter().map(|r| (r.user, r.item)).collect();
        let t0 = Instant::now();
        let preds = model.predict(dataset, &visible, &pairs);
        test_time += t0.elapsed();
        let scored: Vec<ScoredPair> = preds
            .iter()
            .zip(&queries)
            .map(|(&p, r)| ScoredPair::new(p, r.value))
            .collect();
        for (ki, &k) in config.ks.iter().enumerate() {
            let m = ranking_metrics(&scored, k, threshold);
            accs[ki][0].push(m.precision);
            accs[ki][1].push(m.ndcg);
            accs[ki][2].push(m.map);
        }
        entities += 1;
    }

    ModelResult {
        model: model.name().to_string(),
        at_k: config
            .ks
            .iter()
            .zip(&accs)
            .map(|(&k, acc)| MetricsAtK {
                k,
                precision: acc[0].mean(),
                precision_std: acc[0].std(),
                ndcg: acc[1].mean(),
                ndcg_std: acc[1].std(),
                map: acc[2].mean(),
                map_std: acc[2].std(),
            })
            .collect(),
        fit_seconds,
        test_seconds: test_time.as_secs_f64(),
        entities,
        status: crate::fault::EvalStatus::Ok,
    }
}

/// Formats a comparison as a paper-style table (one row per model, one
/// column group per cutoff).
pub fn format_table(title: &str, results: &[ModelResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    if results.is_empty() {
        out.push_str("(no results)\n");
        return out;
    }
    out.push_str(&format!("{:<12}", "Method"));
    for at in &results[0].at_k {
        out.push_str(&format!(
            "{:>12}{:>12}{:>12}",
            format!("Pre@{}", at.k),
            format!("NDCG@{}", at.k),
            format!("MAP@{}", at.k)
        ));
    }
    out.push('\n');
    for r in results {
        out.push_str(&format!("{:<12}", r.model));
        match &r.status {
            crate::fault::EvalStatus::Ok => {
                for at in &r.at_k {
                    out.push_str(&format!(
                        "{:>12}{:>12}{:>12}",
                        format!("{:.4}", at.precision),
                        format!("{:.4}", at.ndcg),
                        format!("{:.4}", at.map)
                    ));
                }
            }
            crate::fault::EvalStatus::Failed { message } => {
                out.push_str(&format!("  [failed: {message}]"));
            }
            crate::fault::EvalStatus::TimedOut { budget_seconds } => {
                out.push_str(&format!("  [timed out after {budget_seconds:.0}s]"));
            }
        }
        out.push('\n');
    }
    out
}

/// Formats the Fig. 6-style efficiency comparison.
pub fn format_timing(title: &str, results: &[ModelResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!(
        "{:<12}{:>16}{:>16}{:>10}\n",
        "Method", "fit (s)", "test (s)", "entities"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<12}{:>16.3}{:>16.3}{:>10}\n",
            r.model, r.fit_seconds, r.test_seconds, r.entities
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_baselines::{EntityMean, GlobalMean};
    use hire_data::{ColdStartScenario, SyntheticConfig};

    fn setup() -> (Dataset, ColdStartSplit) {
        let d = SyntheticConfig::movielens_like()
            .scaled(50, 40, (10, 20))
            .generate(9);
        let s = ColdStartSplit::new(&d, ColdStartScenario::UserCold, 0.25, 0.1, 3);
        (d, s)
    }

    #[test]
    fn evaluates_naive_models() {
        let (d, s) = setup();
        let cfg = EvalConfig {
            max_entities: 10,
            ..Default::default()
        };
        let mut gm = GlobalMean::new();
        let r = evaluate_model(&mut gm, &d, &s, &cfg);
        assert_eq!(r.model, "GlobalMean");
        assert!(r.entities > 0);
        assert_eq!(r.at_k.len(), 3);
        for at in &r.at_k {
            assert!(at.ndcg >= 0.0 && at.ndcg <= 1.0);
            assert!(at.precision >= 0.0 && at.precision <= 1.0);
            assert!(at.map >= 0.0 && at.map <= 1.0);
        }
    }

    #[test]
    fn entity_mean_beats_or_ties_nothing_sanity() {
        // EntityMean uses support edges; it must produce valid metrics and
        // nonzero NDCG on this data.
        let (d, s) = setup();
        let cfg = EvalConfig {
            max_entities: 10,
            ..Default::default()
        };
        let mut em = EntityMean::new();
        let r = evaluate_model(&mut em, &d, &s, &cfg);
        assert!(r.at_k[0].ndcg > 0.0);
    }

    #[test]
    fn table_formatting_contains_all_models() {
        let (d, s) = setup();
        let cfg = EvalConfig {
            max_entities: 5,
            ..Default::default()
        };
        let mut gm = GlobalMean::new();
        let r = evaluate_model(&mut gm, &d, &s, &cfg);
        let table = format_table("Test Table", std::slice::from_ref(&r));
        assert!(table.contains("GlobalMean"));
        assert!(table.contains("Pre@5"));
        assert!(table.contains("NDCG@10"));
        let timing = format_timing("Timing", &[r]);
        assert!(timing.contains("test (s)"));
    }
}
