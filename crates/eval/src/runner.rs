//! The experiment runner: trains a model on a cold-start split, evaluates
//! it per cold entity, and aggregates Precision/NDCG/MAP at the paper's
//! cutoffs, and MAE/RMSE over every evaluated query.

use crate::metrics::{Accumulator, RankedList, ScoredPair};
use hire_baselines::RatingModel;
use hire_data::{ColdStartSplit, Dataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::{Duration, Instant};

/// The ranking cutoffs of the paper's tables.
pub(crate) const PAPER_KS: [usize; 3] = [5, 7, 10];

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
    /// Mean absolute error over every evaluated query rating.
    pub mae: f32,
    /// Root mean squared error over every evaluated query rating.
    pub rmse: f32,
    /// How the evaluation ended (always `Ok` from [`evaluate_model`];
    /// the harness's isolated run records panics/timeouts).
    pub status: crate::fault::EvalStatus,
}

/// Mean/std of each ranking metric at one cutoff. Precision and MAP at
/// `k` are reported only when every evaluated list holds at least `k`
/// candidates (`None` otherwise): on a shorter list they are capped by its
/// length, not by the ranking. NDCG normalises by the list's own ideal, so
/// it is always reported.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsAtK {
    /// The cutoff `k`.
    pub k: usize,
    /// Mean precision across cold entities.
    pub precision: Option<f32>,
    /// Std of precision.
    pub precision_std: Option<f32>,
    /// Mean NDCG.
    pub ndcg: f32,
    /// Std of NDCG.
    pub ndcg_std: f32,
    /// Mean MAP.
    pub map: Option<f32>,
    /// Std of MAP.
    pub map_std: Option<f32>,
}

/// `key`'s number, `Some(None)` for `null`, `None` when missing or not a
/// number.
fn optional_f32(v: &serde::Value, key: &str) -> Option<Option<f32>> {
    let v = v.get(key)?;
    if v.is_null() {
        return Some(None);
    }
    Some(Some(v.as_f64()? as f32))
}

impl MetricsAtK {
    /// Parses metrics back out of their serialized [`serde::Value`] form;
    /// `None` for malformed input.
    pub(crate) fn from_value(v: &serde::Value) -> Option<Self> {
        Some(MetricsAtK {
            k: v.get("k")?.as_i64()? as usize,
            precision: optional_f32(v, "precision")?,
            precision_std: optional_f32(v, "precision_std")?,
            ndcg: v.get("ndcg")?.as_f64()? as f32,
            ndcg_std: v.get("ndcg_std")?.as_f64()? as f32,
            map: optional_f32(v, "map")?,
            map_std: optional_f32(v, "map_std")?,
        })
    }
}

impl ModelResult {
    /// Parses a result back out of its serialized [`serde::Value`] form
    /// (the inverse of the `Serialize` derive); `None` for malformed input.
    /// The harness re-reads partial result files with it on `--resume`.
    pub(crate) fn from_value(v: &serde::Value) -> Option<Self> {
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
            mae: v.get("mae")?.as_f64()? as f32,
            rmse: v.get("rmse")?.as_f64()? as f32,
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
    let mut shortest = usize::MAX;
    let (mut abs_err, mut sq_err, mut rated) = (0.0f64, 0.0f64, 0usize);
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
        shortest = shortest.min(queries.len());
        for (&p, r) in preds.iter().zip(&queries) {
            let err = (p - r.value) as f64;
            abs_err += err.abs();
            sq_err += err * err;
            rated += 1;
        }
        let scored: Vec<ScoredPair> = preds
            .iter()
            .zip(&queries)
            .map(|(&p, r)| ScoredPair::new(p, r.value))
            .collect();
        let ranked = RankedList::new(&scored);
        for (ki, &k) in config.ks.iter().enumerate() {
            let m = ranked.metrics(k, threshold);
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
            .map(|(&k, acc)| {
                let full = shortest >= k;
                MetricsAtK {
                    k,
                    precision: full.then(|| acc[0].mean()),
                    precision_std: full.then(|| acc[0].std()),
                    ndcg: acc[1].mean(),
                    ndcg_std: acc[1].std(),
                    map: full.then(|| acc[2].mean()),
                    map_std: full.then(|| acc[2].std()),
                }
            })
            .collect(),
        fit_seconds,
        test_seconds: test_time.as_secs_f64(),
        entities,
        mae: (abs_err / rated.max(1) as f64) as f32,
        rmse: (sq_err / rated.max(1) as f64).sqrt() as f32,
        status: crate::fault::EvalStatus::Ok,
    }
}

/// The name of the row every other row's ranking is read against
/// (`hire_baselines::Random`).
pub(crate) const RANDOM_ROW: &str = "Random";

/// A metric's table cell: four decimals, or `—` where it is not reported.
pub fn format_metric(value: Option<f32>) -> String {
    value.map_or_else(|| "—".to_string(), |v| format!("{v:.4}"))
}

/// Formats a comparison as a paper-style table (one row per model, one
/// column group per cutoff). A model that evaluated no entity — a
/// scenario with no cold entity of enough queries — prints a marker, not
/// zeros. With a `Random` row that evaluated an entity, a last column
/// gives each row's gain over it: NDCG at the first cutoff, less the
/// random row's. Precision and MAP print `—` at a cutoff some list is
/// shorter than; MAE and RMSE follow the cutoffs (`—` on the random row).
pub fn format_table(title: &str, results: &[ModelResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    if results.is_empty() {
        out.push_str("(no results)\n");
        return out;
    }
    let width = results
        .iter()
        .map(|r| r.model.len() + 2)
        .fold(12, usize::max);
    out.push_str(&format!("{:<width$}", "Method"));
    for at in &results[0].at_k {
        out.push_str(&format!(
            "{:>12}{:>12}{:>12}",
            format!("Pre@{}", at.k),
            format!("NDCG@{}", at.k),
            format!("MAP@{}", at.k)
        ));
    }
    let random = results
        .iter()
        .find(|r| r.model == RANDOM_ROW && r.status.is_ok() && r.entities > 0)
        .and_then(|r| r.at_k.first());
    out.push_str(&format!("{:>10}{:>10}", "MAE", "RMSE"));
    if let Some(at) = random {
        out.push_str(&format!("{:>14}", format!("gain@{}", at.k)));
    }
    out.push('\n');
    for r in results {
        out.push_str(&format!("{:<width$}", r.model));
        match &r.status {
            crate::fault::EvalStatus::Ok if r.entities == 0 => {
                out.push_str("  [no entity evaluated]");
            }
            crate::fault::EvalStatus::Ok => {
                for at in &r.at_k {
                    out.push_str(&format!(
                        "{:>12}{:>12}{:>12}",
                        format_metric(at.precision),
                        format!("{:.4}", at.ndcg),
                        format_metric(at.map)
                    ));
                }
                // The random row's answers are not ratings.
                let rated = r.model != RANDOM_ROW;
                let [mae, rmse] = [r.mae, r.rmse].map(|e| format_metric(rated.then_some(e)));
                out.push_str(&format!("{mae:>10}{rmse:>10}"));
                if let (Some(random), Some(at)) = (random, r.at_k.first()) {
                    out.push_str(&format!("{:>14}", format!("{:+.4}", at.ndcg - random.ndcg)));
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
    use hire_baselines::{EntityMean, GlobalMean, Random};
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
            assert!(at.precision.is_none_or(|p| (0.0..=1.0).contains(&p)));
            assert!(at.map.is_none_or(|m| (0.0..=1.0).contains(&m)));
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

    /// A constant predictor ranks every list as one tie group, as the
    /// random row does: the tie-aware metrics score the two alike, bit for
    /// bit, at every cutoff — a constant cannot game the tables.
    #[test]
    fn a_constant_predictor_is_the_random_row() {
        let (d, s) = setup();
        let cfg = EvalConfig {
            max_entities: usize::MAX,
            ..Default::default()
        };
        let constant = evaluate_model(&mut GlobalMean::new(), &d, &s, &cfg);
        let random = evaluate_model(&mut Random, &d, &s, &cfg);
        assert!(random.entities > 0);
        assert_eq!(constant.entities, random.entities);
        let bits = |r: &ModelResult| -> Vec<[Option<u32>; 6]> {
            r.at_k
                .iter()
                .map(|m| {
                    [
                        m.precision,
                        m.precision_std,
                        Some(m.ndcg),
                        Some(m.ndcg_std),
                        m.map,
                        m.map_std,
                    ]
                    .map(|v| v.map(f32::to_bits))
                })
                .collect()
        };
        assert_eq!(bits(&constant), bits(&random));
        let table = format_table("Gain", &[constant, random]);
        assert!(table.contains("gain@5"), "{table}");
        assert_eq!(table.matches("+0.0000").count(), 2, "{table}");
    }

    #[test]
    fn a_scenario_with_no_entity_prints_a_marker_not_zeros() {
        let (d, s) = setup();
        let cfg = EvalConfig {
            max_entities: 5,
            ..Default::default()
        };
        let evaluated = evaluate_model(&mut GlobalMean::new(), &d, &s, &cfg);
        let none = evaluate_model(
            &mut GlobalMean::new(),
            &d,
            &s,
            &EvalConfig {
                min_queries: usize::MAX,
                ..cfg
            },
        );
        assert!(evaluated.entities > 0);
        assert_eq!(none.entities, 0);
        assert!(none.status.is_ok());
        let table = format_table("Empty", &[evaluated, none]);
        let rows: Vec<&str> = table
            .lines()
            .filter(|l| l.starts_with("GlobalMean"))
            .collect();
        assert_eq!(rows.len(), 2, "{table}");
        assert!(!rows[0].contains("[no entity evaluated]"), "{table}");
        assert!(rows[1].contains("[no entity evaluated]"), "{table}");
        assert!(!rows[1].contains("0.0000"), "{table}");
    }
}
