//! Regenerates **Fig. 7**: sensitivity of HIRE to (a-c) the number of HIM
//! blocks K ∈ {1, 2, 3, 4} and (d-f) the context size ∈ {16, 32, 48, 64},
//! at k = 5 metrics, in all three cold-start scenarios, on the
//! MovieLens-1M stand-in.
//!
//! Paper shape: K = 3 best on MovieLens; accuracy is not monotone in the
//! context size.

use hire_bench::{cold_frac, dataset_for, maybe_write_json, DatasetKind, HarnessArgs};
use hire_core::TrainConfig;
use hire_data::{ColdStartScenario, ColdStartSplit};
use hire_eval::{evaluate_model, format_metric, HireRatingModel, SpeedTier};

fn main() {
    let args = HarnessArgs::parse();
    let dataset = dataset_for(DatasetKind::MovieLens, args.tier, args.seed);
    let cfg = args.eval_config();
    println!("# Fig. 7: Sensitivity Analysis (MovieLens-1M synthetic, metrics @5)\n");

    let train_cfg: TrainConfig = args.tier.hire_train_config();
    let mut records = Vec::new();

    println!("## (a-c) Number of HIM blocks");
    println!(
        "{:<10}{:<8}{:>10}{:>10}{:>10}",
        "Scenario", "K", "Pre@5", "NDCG@5", "MAP@5"
    );
    for scenario in ColdStartScenario::ALL {
        let split = ColdStartSplit::new(
            &dataset,
            scenario,
            cold_frac(DatasetKind::MovieLens),
            0.1,
            args.seed,
        );
        for k in 1..=4usize {
            let hire_cfg = args.tier.hire_config().with_blocks(k);
            let mut model = HireRatingModel::new(hire_cfg, train_cfg.clone());
            eprintln!("  [{} K={k}] training ...", scenario.label());
            let r = evaluate_model(&mut model, &dataset, &split, &cfg);
            let at5 = &r.at_k[0];
            println!(
                "{:<10}{:<8}{:>10}{:>10.4}{:>10}",
                scenario.label(),
                k,
                format_metric(at5.precision),
                at5.ndcg,
                format_metric(at5.map)
            );
            records.push(serde_json::json!({
                "sweep": "him_blocks", "scenario": scenario.label(), "value": k,
                "precision": at5.precision, "ndcg": at5.ndcg, "map": at5.map,
            }));
        }
    }

    println!("\n## (d-f) Context size (n = m)");
    println!(
        "{:<10}{:<8}{:>10}{:>10}{:>10}",
        "Scenario", "size", "Pre@5", "NDCG@5", "MAP@5"
    );
    let sizes: &[usize] = match args.tier {
        SpeedTier::Smoke => &[8, 16],
        SpeedTier::Fast => &[8, 16, 24, 32],
        SpeedTier::Full => &[16, 32, 48, 64],
    };
    for scenario in ColdStartScenario::ALL {
        let split = ColdStartSplit::new(
            &dataset,
            scenario,
            cold_frac(DatasetKind::MovieLens),
            0.1,
            args.seed,
        );
        for &size in sizes {
            let hire_cfg = args.tier.hire_config().with_context_size(size, size);
            // keep per-step cost roughly constant across context sizes
            let mut tc = train_cfg.clone();
            if size >= 24 {
                tc.batch_size = (tc.batch_size / 2).max(1);
            }
            let mut model = HireRatingModel::new(hire_cfg, tc);
            eprintln!("  [{} size={size}] training ...", scenario.label());
            let r = evaluate_model(&mut model, &dataset, &split, &cfg);
            let at5 = &r.at_k[0];
            println!(
                "{:<10}{:<8}{:>10}{:>10.4}{:>10}",
                scenario.label(),
                size,
                format_metric(at5.precision),
                at5.ndcg,
                format_metric(at5.map)
            );
            records.push(serde_json::json!({
                "sweep": "context_size", "scenario": scenario.label(), "value": size,
                "precision": at5.precision, "ndcg": at5.ndcg, "map": at5.map,
            }));
        }
    }
    maybe_write_json(&args, &records);
}
