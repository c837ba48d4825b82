//! Head-to-head comparison on all three cold-start scenarios: HIRE vs a
//! CF baseline (NeuMF) and a meta-learning baseline (MeLU) — a miniature
//! of the paper's Tables III-V.
//!
//! ```sh
//! cargo run --release --example cold_start_comparison
//! ```

use hire::baselines::{EdgeTrainConfig, MeLU, MetaTrainConfig, NeuMF, RatingModel};
use hire::eval::{evaluate_model, format_metric, EvalConfig, HireRatingModel};
use hire::prelude::*;

fn main() {
    let dataset = SyntheticConfig::movielens_like()
        .scaled(100, 80, (15, 35))
        .generate(7);
    println!(
        "dataset: {} ({} users x {} items, {} ratings)\n",
        dataset.name,
        dataset.num_users,
        dataset.num_items,
        dataset.ratings.len()
    );

    let eval_cfg = EvalConfig {
        max_entities: 15,
        ..Default::default()
    };
    println!(
        "{:<10}{:<12}{:>10}{:>10}{:>10}",
        "Scenario", "Method", "Pre@5", "NDCG@5", "MAP@5"
    );
    for scenario in ColdStartScenario::ALL {
        let split = ColdStartSplit::new(&dataset, scenario, 0.25, 0.1, 7);
        let mut models: Vec<Box<dyn RatingModel>> = vec![
            Box::new(NeuMF::new(8, EdgeTrainConfig::default())),
            Box::new(MeLU::new(8, MetaTrainConfig::default())),
            Box::new(HireRatingModel::new(
                HireConfig::fast(),
                TrainConfig {
                    steps: 150,
                    batch_size: 4,
                    base_lr: 3e-3,
                    grad_clip: 1.0,
                    ..TrainConfig::paper_default()
                },
            )),
        ];
        for model in &mut models {
            let r = evaluate_model(model.as_mut(), &dataset, &split, &eval_cfg);
            let at5 = &r.at_k[0];
            println!(
                "{:<10}{:<12}{:>10}{:>10.4}{:>10}",
                scenario.label(),
                r.model,
                format_metric(at5.precision),
                at5.ndcg,
                format_metric(at5.map)
            );
        }
        println!();
    }
    println!("(expected shape: HIRE leads, MeLU between, NeuMF weakest on cold entities)");
}
