//! Regenerates **Table VI**: ablation of the three attention layers (MBU,
//! MBI, MBA) on the MovieLens-1M stand-in, metrics @5, all scenarios.
//!
//! Paper shape: the full model is best overall; user-only attention
//! ("wo/ Item & Attribute") is the weakest variant.

use hire_data::ColdStartScenario;
use hire_eval::{
    dataset_for, evaluate_model, maybe_write_json, paper_split, DatasetKind, HarnessArgs,
    HireRatingModel,
};

fn main() {
    let args = HarnessArgs::parse();
    let dataset = dataset_for(DatasetKind::MovieLens, args.tier, args.seed);
    let cfg = args.eval_config();
    // (label, mbu, mbi, mba) following Table VI's naming
    let variants: &[(&str, bool, bool, bool)] = &[
        ("wo/ Item & Attribute", true, false, false),
        ("wo/ User & Attribute", false, true, false),
        ("wo/ User & Item", false, false, true),
        ("wo/ User", false, true, true),
        ("wo/ Item", true, false, true),
        ("wo/ Attribute", true, true, false),
        ("full model", true, true, true),
    ];
    println!("# Table VI: Ablation of the attention layers (MovieLens-1M synthetic, @5)\n");
    println!(
        "{:<24}{:>22}{:>22}{:>22}",
        "Blocks", "UC (Pre/NDCG/MAP)", "IC (Pre/NDCG/MAP)", "U&IC (Pre/NDCG/MAP)"
    );
    let mut records = Vec::new();
    for &(label, mbu, mbi, mba) in variants {
        let mut cells = Vec::new();
        for scenario in ColdStartScenario::ALL {
            let split = paper_split(&dataset, DatasetKind::MovieLens, scenario, args.seed);
            let hire_cfg = args.tier.hire_config().with_layers(mbu, mbi, mba);
            let mut model = HireRatingModel::new(hire_cfg, args.tier.hire_train_config());
            eprintln!("  [{label} / {}] training ...", scenario.label());
            let r = evaluate_model(&mut model, &dataset, &split, &cfg);
            let at5 = &r.at_k[0];
            let three = |v: Option<f32>| v.map_or_else(|| "—".into(), |v| format!("{v:.3}"));
            cells.push(format!(
                "{}/{:.3}/{}",
                three(at5.precision),
                at5.ndcg,
                three(at5.map)
            ));
            records.push(serde_json::json!({
                "variant": label, "scenario": scenario.label(),
                "precision": at5.precision, "ndcg": at5.ndcg, "map": at5.map,
            }));
        }
        println!(
            "{:<24}{:>22}{:>22}{:>22}",
            label, cells[0], cells[1], cells[2]
        );
    }
    maybe_write_json(&args, &records);
}
