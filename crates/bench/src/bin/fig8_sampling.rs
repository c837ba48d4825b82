//! Regenerates **Fig. 8**: impact of the context-sampling strategy
//! (neighborhood vs random vs feature-similarity) on the MovieLens-1M
//! stand-in, metrics @5.
//!
//! Each strategy trains HIRE and answers every query pair from the pair's
//! own context (§ VI-E: train and test with the strategy): the tables'
//! `evaluate_model` over a `HireRatingModel` built with that sampler, so
//! the sampler is the one thing that differs from Tables III–V.
//!
//! Paper shape: neighborhood sampling beats random everywhere;
//! feature-similarity is competitive for user cold-start but weaker with
//! cold items.

use hire_bench::{
    cold_frac, dataset_for, maybe_write_json, DatasetKind, HarnessArgs, ScenarioReport,
};
use hire_data::{ColdStartScenario, ColdStartSplit, Dataset};
use hire_eval::{evaluate_model, format_table, EvalConfig, HireRatingModel};
use hire_graph::{ContextSampler, FeatureSimilaritySampler, NeighborhoodSampler, RandomSampler};

fn feature_sampler(dataset: &Dataset) -> FeatureSimilaritySampler {
    let uf: Vec<Vec<f32>> = (0..dataset.num_users)
        .map(|u| dataset.user_feature(u))
        .collect();
    let itf: Vec<Vec<f32>> = (0..dataset.num_items)
        .map(|i| dataset.item_feature(i))
        .collect();
    FeatureSimilaritySampler::new(uf, itf)
}

fn main() {
    let args = HarnessArgs::parse();
    let dataset = dataset_for(DatasetKind::MovieLens, args.tier, args.seed);
    let eval_cfg = EvalConfig {
        ks: vec![5],
        ..args.eval_config()
    };
    println!("# Fig. 8: Impact of sampling methods (MovieLens-1M synthetic, @5)\n");
    let mut reports = Vec::new();
    for scenario in ColdStartScenario::ALL {
        let split = ColdStartSplit::new(
            &dataset,
            scenario,
            cold_frac(DatasetKind::MovieLens),
            0.1,
            args.seed,
        );
        let samplers: [Box<dyn ContextSampler>; 3] = [
            Box::new(NeighborhoodSampler),
            Box::new(RandomSampler),
            Box::new(feature_sampler(&dataset)),
        ];
        let mut results = Vec::new();
        for sampler in samplers {
            let name = sampler.name();
            eprintln!("  [{} / {name}] training ...", scenario.label());
            let mut model = HireRatingModel::with_sampler(
                args.tier.hire_config(),
                args.tier.hire_train_config(),
                sampler,
            );
            let mut result = evaluate_model(&mut model, &dataset, &split, &eval_cfg);
            result.model = name.to_string();
            results.push(result);
        }
        let title = format!("Fig. 8 — {}", scenario.label());
        println!("{}", format_table(&title, &results));
        reports.push(ScenarioReport {
            scenario: scenario.label().to_string(),
            results,
        });
    }
    maybe_write_json(&args, &reports);
}
