//! `--runs N`: a comparison table over seeds `seed..seed + N`. One run
//! writes the one seed's reports, as without the flag; more write each
//! seed's reports beside every cell's mean ± std over them.

use hire_baselines::{EntityMean, GlobalMean};
use hire_bench::{run_overall_table_with, DatasetKind, HarnessArgs};
use hire_eval::{ModelSpec, SpeedTier};
use serde::Value;

fn table(runs: usize, name: &str) -> Value {
    let out = std::env::temp_dir().join(format!(
        "hire_bench_runs_{name}_{}.json",
        std::process::id()
    ));
    let args = HarnessArgs {
        tier: SpeedTier::Smoke,
        seed: 3,
        runs,
        max_entities: 3,
        model_budget: None,
        out: Some(out.to_str().expect("utf-8 temp path").to_string()),
        checkpoint_dir: None,
        resume: false,
    };
    run_overall_table_with(DatasetKind::MovieLens, "runs test", &args, |_, _| {
        vec![
            ModelSpec::new("GlobalMean", || Box::new(GlobalMean::new()) as _),
            ModelSpec::new("EntityMean", || Box::new(EntityMean::new()) as _),
        ]
    });
    let body = std::fs::read_to_string(&out).expect("JSON on disk");
    let _ = std::fs::remove_file(&out);
    serde_json::from_str(&body).expect("valid JSON")
}

#[test]
fn one_run_writes_one_seeds_reports() {
    let value = table(1, "one");
    let scenarios = value.as_array().expect("one seed's scenario reports");
    assert_eq!(scenarios.len(), 3);
    assert!(scenarios[0].get("results").is_some());
}

#[test]
fn runs_write_each_seed_and_the_mean_and_std_over_them() {
    let value = table(2, "two");
    assert_eq!(value.get("runs").and_then(Value::as_i64), Some(2));
    let per_seed = value
        .get("per_seed")
        .and_then(Value::as_array)
        .expect("per_seed");
    let seeds: Vec<i64> = per_seed
        .iter()
        .map(|s| s.get("seed").and_then(Value::as_i64).expect("seed"))
        .collect();
    assert_eq!(seeds, [3, 4], "seeds seed..seed + runs");
    let ndcg5 = |seed: &Value| {
        let uc = &seed
            .get("scenarios")
            .and_then(Value::as_array)
            .expect("scenarios")[0];
        let model = &uc
            .get("results")
            .and_then(Value::as_array)
            .expect("results")[1];
        let at5 = &model.get("at_k").and_then(Value::as_array).expect("at_k")[0];
        at5.get("ndcg").and_then(Value::as_f64).expect("ndcg")
    };
    let (a, b) = (ndcg5(&per_seed[0]), ndcg5(&per_seed[1]));

    let summary = value
        .get("summary")
        .and_then(Value::as_array)
        .expect("summary");
    assert_eq!(summary.len(), 6, "one row a scenario and model");
    let row = &summary[1];
    assert_eq!(row.get("scenario").and_then(Value::as_str), Some("UC"));
    assert_eq!(row.get("model").and_then(Value::as_str), Some("EntityMean"));
    assert_eq!(row.get("seeds").and_then(Value::as_i64), Some(2));
    let at5 = &row.get("at_k").and_then(Value::as_array).expect("at_k")[0];
    assert_eq!(at5.get("k").and_then(Value::as_i64), Some(5));
    let (mean, std) = (
        at5.get("ndcg").and_then(Value::as_f64).expect("mean"),
        at5.get("ndcg_std").and_then(Value::as_f64).expect("std"),
    );
    assert!(
        (mean - (a + b) / 2.0).abs() < 1e-5,
        "mean {mean} of {a}, {b}"
    );
    assert!(
        (std - (a - b).abs() / 2f64.sqrt()).abs() < 1e-5,
        "sample std {std} of {a}, {b}"
    );
}
