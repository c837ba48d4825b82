//! Helpers shared by the harness integration tests.

use hire_baselines::{EntityMean, GlobalMean};
use hire_bench::{HarnessArgs, ScenarioReport};
use hire_eval::{ModelSpec, SpeedTier};

/// Smoke-tier arguments: three entities a scenario, no budget, no files.
pub fn args() -> HarnessArgs {
    HarnessArgs {
        tier: SpeedTier::Smoke,
        seed: 3,
        runs: 1,
        max_entities: 3,
        model_budget: None,
        out: None,
        checkpoint_dir: None,
        resume: false,
    }
}

pub fn cheap_specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec::new("GlobalMean", || Box::new(GlobalMean::new()) as _),
        ModelSpec::new("EntityMean", || Box::new(EntityMean::new()) as _),
    ]
}

/// One model's row of a scenario report without its wall-clock timings.
pub type ComparableRow = (
    String,
    String,
    Vec<(usize, Option<f32>, f32, Option<f32>)>,
    usize,
    bool,
);

/// Everything except wall-clock timings, flattened for comparison.
pub fn comparable(reports: &[ScenarioReport]) -> Vec<ComparableRow> {
    reports
        .iter()
        .flat_map(|r| {
            r.results.iter().map(move |m| {
                (
                    r.scenario.clone(),
                    m.model.clone(),
                    m.at_k
                        .iter()
                        .map(|k| (k.k, k.precision, k.ndcg, k.map))
                        .collect(),
                    m.entities,
                    m.status.is_ok(),
                )
            })
        })
        .collect()
}
